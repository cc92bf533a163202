"""Domain representation, distance fields, and the two set metrics."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from blab import geom
from blab.geom import (
    EmptyDomainError,
    GeomError,
    LatticeMismatchError,
    annulus,
    barbell_sequence,
    difference,
    disc,
    distance_field,
    domain_union,
    extract_sets,
    interior_exhaustion,
    is_logconvex_profile,
    load_grid,
    make_domain,
    rectangle,
    reinhardt_profile,
    rho1,
    rho2,
    save_grid,
    union,
    volume,
)


def brute_force_edt(mask, h):
    """Oracle: distance from each true cell to the nearest complement cell
    center, minimizing over the array complement and a generous false apron."""
    nx, ny = mask.shape
    pad = max(nx, ny)
    big = np.zeros((nx + 2 * pad, ny + 2 * pad), dtype=bool)
    big[pad:pad + nx, pad:pad + ny] = mask
    fi, fj = np.nonzero(~big)
    out = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            if mask[i, j]:
                d2 = (fi - (i + pad)) ** 2 + (fj - (j + pad)) ** 2
                out[i, j] = np.sqrt(d2.min()) * h
    return out


def hausdorff(A, B):
    """Hausdorff distance between two finite point sets (complex arrays).

    Exact on the given points: max over both sets of the distance to the
    nearest point of the other set.  The point-set oracle of rho1.
    """
    pa = np.column_stack([A.real, A.imag])
    pb = np.column_stack([B.real, B.imag])
    d_ab, _ = cKDTree(pb).query(pa, workers=1)
    d_ba, _ = cKDTree(pa).query(pb, workers=1)
    return float(max(d_ab.max(), d_ba.max()))


def brute_force_hausdorff(A, B):
    da = max(min(abs(a - b) for b in B) for a in A)
    db = max(min(abs(a - b) for a in A) for b in B)
    return max(da, db)


# ---------------------------------------------------------------------------
# make_domain
# ---------------------------------------------------------------------------

def test_disc_area():
    U = make_domain(disc(0, 1), h=0.01)
    assert U.cell_count * 0.01 ** 2 == pytest.approx(np.pi, rel=0.02)


def test_annulus_area():
    U = make_domain(annulus(0, 0.5, 1), h=0.01)
    assert U.cell_count * 0.01 ** 2 == pytest.approx(0.75 * np.pi, rel=0.02)


def test_disjoint_union_has_two_components():
    U = make_domain(union(disc(-2, 0.7), disc(2, 0.7)), h=0.05)
    assert U.n_components == 2


def test_annulus_radii_validated():
    with pytest.raises(GeomError):
        annulus(0, 1.0, 0.5)
    with pytest.raises(GeomError):
        make_domain({"shape": "annulus", "center": [0, 0], "rho": 1.0, "R": 0.5},
                    h=0.05)


def test_empty_mask_rejected():
    with pytest.raises(EmptyDomainError):
        make_domain(difference(disc(0, 1), disc(0, 2)), h=0.05)


def test_mismatched_lattices_rejected():
    U = make_domain(disc(0, 1), h=0.05)
    V = make_domain(disc(0, 1), h=0.04)
    with pytest.raises(LatticeMismatchError):
        rho1(U, V)
    with pytest.raises(LatticeMismatchError):
        domain_union(U, V)


def test_same_h_different_arrays_align():
    U = make_domain(disc(0, 1), h=0.05)
    V = make_domain(disc(0.5 + 0.25j, 1), h=0.05)
    W = domain_union(U, V)
    assert W.cell_count <= U.cell_count + V.cell_count
    assert W.n_components == 1


# ---------------------------------------------------------------------------
# distance_field
# ---------------------------------------------------------------------------

def test_distance_field_matches_brute_force():
    U = make_domain(union(disc(0, 0.6), rectangle((0.3, -0.2), (1.4, 0.3))), h=0.1)
    df = distance_field(U)
    oracle = brute_force_edt(U.mask, U.h)
    assert np.allclose(df, oracle, atol=1e-12)


def test_distance_field_zero_off_domain():
    U = make_domain(disc(0, 1), h=0.05)
    df = distance_field(U)
    assert (df[~U.mask] == 0).all()
    assert (df[U.mask] > 0).all()


def test_disc_center_depth():
    U = make_domain(disc(0, 1), h=0.02)
    df = distance_field(U)
    assert U.values_at(df, 0j) == pytest.approx(1.0, abs=2 * 0.02)


def test_square_center_depth():
    U = make_domain(rectangle((0, 0), (1, 1)), h=0.02)
    df = distance_field(U)
    depth = U.values_at(df, 0.5 + 0.5j)
    assert depth == pytest.approx(0.5, abs=2 * 0.02)


def test_distance_field_lattice_lipschitz():
    U = make_domain(annulus(0, 0.4, 1), h=0.05)
    v = distance_field(U)
    h = U.h
    rng = np.random.default_rng(3)
    ii = rng.integers(0, U.nx, size=(200, 2))
    jj = rng.integers(0, U.ny, size=(200, 2))
    for (i0, i1), (j0, j1) in zip(ii, jj):
        lattice_dist = np.hypot(float(i0 - i1), float(j0 - j1)) * h
        assert abs(v[i0, j0] - v[i1, j1]) <= lattice_dist + 2 * h


def test_reinhardt_distance_field_mirrors_axis():
    # polydisc profile touches both axes; near-axis depth is governed by the
    # outer edge, not by any phantom complement at negative radii
    U = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.05)
    df = distance_field(U)
    near_axis = U.values_at(df, 0.025 + 0.5j)
    assert near_axis == pytest.approx(0.5, abs=0.1)

    # oracle on the quadrant: complement is only r1 > 1 or r2 > 1
    i, j = U.cell_of(0.025 + 0.5j)
    r1 = U.centers_x[i]
    r2 = U.centers_y[j]
    expected = min(1 - r1, 1 - r2)
    assert df[i, j] == pytest.approx(expected, abs=2 * U.h)


@pytest.mark.parametrize("spec", [
    disc(0.1, 0.7),
    annulus(0, 0.3, 0.9),
    union(disc(-1, 0.5), rectangle((0, -0.4), (1.2, 0.3))),
])
def test_extract_sets_boundary_reads_the_cached_cells(spec):
    U = make_domain(spec, h=0.02)
    got = extract_sets(U).boundary
    want = U.centers_of(geom.boundary_mask(U.mask))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_labels_at_matches_the_point_rules():
    U = make_domain(union(disc(-1, 0.5), annulus(1, 0.2, 0.6)), h=0.02)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-1, 1, 400)
    labels = U.labels_at(pts.reshape(20, 20))
    assert labels.shape == (20, 20)
    for p, lab in zip(pts, labels.ravel()):
        # oracle: the cell of the point by scalar floor division
        i = math.floor((p.real - U.origin[0]) / U.h)
        j = math.floor((p.imag - U.origin[1]) / U.h)
        on = 0 <= i < U.nx and 0 <= j < U.ny
        assert lab == (U.component_labels[i, j] if on else 0)
        assert U.cell_of(p) == ((i, j) if on else None)
    assert U.labels_at(5 + 5j) == 0 and U.cell_of(5 + 5j) is None


# ---------------------------------------------------------------------------
# extract_sets / hausdorff
# ---------------------------------------------------------------------------

def test_boundary_cells_of_disc_lie_near_circle():
    h = 0.01
    U = make_domain(disc(0, 1), h=h)
    ps = extract_sets(U)
    r = np.abs(ps.boundary)
    assert (r >= 1 - 3 * h).all() and (r <= 1.0).all()


def test_single_cell_is_both_closure_and_boundary():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    U = geom.GridDomain(origin=(0.0, 0.0), h=1.0, mask=mask)
    ps = extract_sets(U)
    assert ps.closure.tolist() == ps.boundary.tolist() == [1.5 + 1.5j]


def test_full_rectangle_boundary_is_frame():
    U = make_domain(rectangle((0, 0), (1, 0.6)), h=0.1)
    ps = extract_sets(U)
    x, y = ps.boundary.real, ps.boundary.imag
    on_frame = ((x < 0.1) | (x > 0.9) | (y < 0.1) | (y > 0.5))
    assert on_frame.all()


def test_hausdorff_identity_and_two_points():
    A = np.array([0 + 0j, 1 + 1j])
    assert hausdorff(A, A) == 0.0
    assert hausdorff(np.array([0j]), np.array([3 + 0j])) == 3.0


def test_hausdorff_concentric_circles():
    t = np.linspace(0, 2 * np.pi, 600, endpoint=False)
    a = np.exp(1j * t)
    b = 2 * np.exp(1j * t)
    assert hausdorff(a, b) == pytest.approx(1.0, abs=0.04)


def test_hausdorff_matches_brute_force():
    rng = np.random.default_rng(11)
    A = rng.normal(size=30) + 1j * rng.normal(size=30)
    B = rng.normal(size=25) + 1j * rng.normal(size=25)
    assert hausdorff(A, B) == pytest.approx(brute_force_hausdorff(A, B), abs=1e-12)


# ---------------------------------------------------------------------------
# rho1 / rho2
# ---------------------------------------------------------------------------

def test_rho1_identity_exact():
    U = make_domain(disc(0, 1), h=0.05)
    assert rho1(U, U) == 0.0


def test_rho1_concentric_discs():
    h = 0.02
    U = make_domain(disc(0, 1.0), h=h)
    V = make_domain(disc(0, 1.1), h=h)
    assert rho1(U, V) == pytest.approx(0.2, abs=4 * h)


def test_rho1_matches_pointset_hausdorff():
    h = 0.05
    U = make_domain(disc(0, 1), h=h)
    V = make_domain(rectangle((-0.8, -0.8), (0.8, 0.8)), h=h)
    pu, pv = extract_sets(U), extract_sets(V)
    expected = hausdorff(pu.closure, pv.closure) + hausdorff(pu.boundary, pv.boundary)
    assert rho1(U, V) == pytest.approx(expected, abs=1e-9)


def test_rho1_slit_disc():
    # removing a slit barely moves the closure but fills the disc with new
    # boundary, so rho1 jumps to about the inradius
    h = 0.02
    full = make_domain(disc(0, 1), h=h)
    slit = make_domain(
        difference(disc(0, 1), rectangle((-1.0, -h), (1.0, h))), h=h)
    closures, boundaries = edt_rho1_parts(full, slit)
    assert closures <= 2 * h
    assert boundaries == pytest.approx(1.0, abs=0.06)
    assert rho1(full, slit) == pytest.approx(closures + boundaries, abs=1e-12)
    assert rho1(full, slit) > 0.9


def test_rho2_identity_exact():
    U = make_domain(annulus(0, 0.5, 1), h=0.05)
    assert rho2(U, U) == 0.0


def test_rho2_concentric_discs():
    h = 0.02
    U = make_domain(disc(0, 1), h=h)
    V = make_domain(disc(0, 2), h=h)
    assert rho2(U, V) == pytest.approx(3 * np.pi + 1, rel=0.05)


def test_rho2_thin_tail_versus_rho1():
    h = 0.01
    w = 0.05
    sq = make_domain(rectangle((0, 0), (1, 1)), h=h)
    tailed = make_domain(
        union(rectangle((0, 0), (1, 1)), rectangle((1, 0), (2, w))), h=h)
    assert rho2(sq, tailed) <= 3 * w
    assert rho1(sq, tailed) >= 0.9


def test_rho2_sup_term_is_local():
    # padding the arrays by any margin must not change the value
    h = 0.05
    U = make_domain(disc(0, 1), h=h)
    V = make_domain(disc(0.2, 0.8), h=h)
    base = rho2(U, V)
    Upad = make_domain(disc(0, 1), h=h, bounds=(-3, -3, 3, 3))
    Vpad = make_domain(disc(0.2, 0.8), h=h, bounds=(-4, -2, 2, 4))
    assert rho2(Upad, Vpad) == pytest.approx(base, abs=1e-12)


@pytest.fixture(scope="module")
def metric_family():
    h = 0.04
    return [
        make_domain(disc(0, 1), h=h),
        make_domain(annulus(0, 0.5, 1), h=h),
        make_domain(rectangle((-0.7, -0.7), (0.7, 0.7)), h=h),
        make_domain(difference(disc(0, 1), rectangle((0, -h), (1, h))), h=h),
        make_domain(union(rectangle((-1, -1), (0, 0)), rectangle((0.4, 0.4), (1, 1))),
                    h=h),
        make_domain(disc(0.3 + 0.1j, 0.9), h=h),
    ]


@pytest.mark.parametrize("metric", [rho1, rho2])
def test_metric_axioms_on_family(metric_family, metric):
    h = 0.04
    n = len(metric_family)
    dist = {}
    for i in range(n):
        assert metric(metric_family[i], metric_family[i]) == 0.0
        for j in range(i + 1, n):
            dij = metric(metric_family[i], metric_family[j])
            dji = metric(metric_family[j], metric_family[i])
            assert dij == dji  # symmetry, exact
            assert dij > 0
            dist[(i, j)] = dist[(j, i)] = dij
    triples = list(itertools.combinations(range(n), 3))
    assert len(triples) == 20
    for a, b, c in triples:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            assert dist[(x, y)] <= dist[(x, z)] + dist[(z, y)] + 4 * h


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def test_volume_disc():
    U = make_domain(disc(0, 1), h=0.01)
    assert volume(U) == pytest.approx(np.pi, rel=0.02)


def test_volume_polydisc_profile():
    U = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.005)
    assert volume(U) == pytest.approx(np.pi ** 2, rel=0.02)


def test_volume_empty_difference_errors():
    with pytest.raises(EmptyDomainError):
        make_domain(difference(disc(0, 0.5), disc(0, 1)), h=0.05)


# ---------------------------------------------------------------------------
# interior_exhaustion
# ---------------------------------------------------------------------------

def test_exhaustion_of_disc_is_offset_disc():
    h = 0.01
    G = make_domain(disc(0, 1), h=h)
    seq = interior_exhaustion(G, [0.1])
    member = seq.members[0]
    ref = make_domain(disc(0, 0.9), h=h)
    mU, mV, origin = geom._aligned_masks(member, ref)
    sym_area = (mU ^ mV).sum() * h * h
    assert sym_area <= 0.05


def test_exhaustion_of_annulus():
    h = 0.01
    G = make_domain(annulus(0, 0.5, 1), h=h)
    seq = interior_exhaustion(G, [0.05])
    ref = make_domain(annulus(0, 0.55, 0.95), h=h)
    assert rho1(seq.members[0], ref) <= 2 * h


def test_exhaustion_rho1_bound_and_nesting():
    h = 0.02
    G = make_domain(disc(0, 1), h=h)
    depths = [0.3, 0.2, 0.1]
    seq = interior_exhaustion(G, depths)
    for eps, member in zip(depths, seq.members):
        assert rho1(member, G) <= 2 * eps + 4 * h
    # nested: smaller depth contains larger depth
    m_outer, m_inner = seq.members[2].mask, seq.members[0].mask
    mo, mi, _ = geom._aligned_masks(seq.members[2], seq.members[0])
    assert (mi & ~mo).sum() == 0


def test_exhaustion_depth_guards():
    G = make_domain(disc(0, 1), h=0.05)
    with pytest.raises(GeomError):
        interior_exhaustion(G, [0.04])   # depth below spacing
    with pytest.raises(EmptyDomainError):
        interior_exhaustion(G, [2.0])    # empties the mask


# ---------------------------------------------------------------------------
# barbell_sequence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def barbell_parts():
    h = 0.02
    G = make_domain(disc(-2, 1), h=h)
    D = make_domain(annulus(2, 0.5, 1), h=h)
    return G, D, (-1.0 + 0j, 1.0 + 0j)


def test_barbell_members_connected(barbell_parts):
    G, D, seg = barbell_parts
    seq = barbell_sequence(G, D, seg, [0.4, 0.2, 0.1])
    for member in seq.members:
        # oracle: plain breadth-first flood fill on the mask
        assert flood_fill_count(member.mask) == 1


def flood_fill_count(mask):
    seen = np.zeros_like(mask)
    count = 0
    stack = []
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        count += 1
        stack.append(start)
        seen[start] = True
        while stack:
            i, j = stack.pop()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if (0 <= ni < mask.shape[0] and 0 <= nj < mask.shape[1]
                        and mask[ni, nj] and not seen[ni, nj]):
                    seen[ni, nj] = True
                    stack.append((ni, nj))
    return count


def test_barbell_tube_area_bound(barbell_parts):
    G, D, seg = barbell_parts
    h = G.h
    w = 0.3
    seq = barbell_sequence(G, D, seg, [w])
    member = seq.members[0]
    extra = volume(member) - volume(seq.target)
    seg_len = abs(seg[1] - seg[0])
    assert extra <= (w + 2 * h) * (seg_len + w + 2 * h)


def test_barbell_coincides_outside_tube(barbell_parts):
    G, D, seg = barbell_parts
    w = 0.2
    seq = barbell_sequence(G, D, seg, [w])
    member, base = seq.members[0], seq.target
    mM, mB, origin = geom._aligned_masks(member, base)
    h = member.h
    cx = origin[0] + h * (np.arange(mM.shape[0]) + 0.5)
    cy = origin[1] + h * (np.arange(mM.shape[1]) + 0.5)
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    tube = geom._segment_distance(X, Y, seg[0], seg[1]) <= w / 2
    assert ((mM & ~mB) <= tube).all()          # member \ base inside tube
    assert (mM[~tube] == mB[~tube]).all()      # identical outside tube


def test_barbell_rho2_decreases(barbell_parts):
    G, D, seg = barbell_parts
    seq = barbell_sequence(G, D, seg, [0.4, 0.2, 0.1])
    vals = [rho2(m, seq.target) for m in seq.members]
    assert vals[0] > vals[1] > vals[2]


def test_barbell_rejects_degenerate_width(barbell_parts):
    G, D, seg = barbell_parts
    with pytest.raises(GeomError):
        barbell_sequence(G, D, seg, [0.0])


def test_barbell_rejects_overlapping_lobes():
    h = 0.05
    G = make_domain(disc(0, 1), h=h)
    D = make_domain(disc(0.5, 1), h=h)
    with pytest.raises(GeomError):
        barbell_sequence(G, D, (0.5 + 0j, 1.0 + 0j), [0.3])


# ---------------------------------------------------------------------------
# is_logconvex_profile
# ---------------------------------------------------------------------------

def test_polydisc_profile_logconvex():
    U = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.02)
    assert is_logconvex_profile(U)


def test_disjoint_log_rectangles_not_logconvex():
    spec = reinhardt_profile(union(rectangle((0.1, 0.1), (0.3, 0.9)),
                                   rectangle((0.6, 0.1), (0.9, 0.9))))
    U = make_domain(spec, h=0.02)
    assert not is_logconvex_profile(U)


def test_annulus_times_disc_profile_logconvex():
    U = make_domain(reinhardt_profile(rectangle((0.5, 0), (1, 1))), h=0.01)
    assert is_logconvex_profile(U)


def test_lshape_profile_not_logconvex():
    spec = reinhardt_profile(difference(rectangle((0, 0), (1, 1)),
                                        rectangle((0.5, 0.5), (1.1, 1.1))))
    U = make_domain(spec, h=0.02)
    assert not is_logconvex_profile(U)


def test_planar_domain_rejected_by_logconvex_check():
    U = make_domain(disc(0, 1), h=0.05)
    with pytest.raises(GeomError):
        is_logconvex_profile(U)


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_grid_file_round_trip(tmp_path):
    U = make_domain(union(annulus(0, 0.5, 1), disc(2.2, 0.4)), h=0.04)
    path = tmp_path / "domain.grid"
    save_grid(U, path)
    V = load_grid(path)
    assert V.h == U.h
    assert V.origin == U.origin
    assert V.kind == U.kind
    assert (V.mask == U.mask).all()
    header = path.read_text().splitlines()[0]
    assert header.startswith("grid v1 ")


def test_reinhardt_grid_round_trip(tmp_path):
    U = make_domain(reinhardt_profile(rectangle((0.5, 0), (1, 1))), h=0.05)
    path = tmp_path / "profile.grid"
    save_grid(U, path)
    V = load_grid(path)
    assert V.kind == geom.REINHARDT
    assert (V.mask == U.mask).all()


def _save_grid_per_cell(U, path):
    """Oracle: the per-cell run-length loop that save_grid replaced."""
    lines = [f"grid v1 {float(U.h)!r} {float(U.origin[0])!r} "
             f"{float(U.origin[1])!r} {U.nx} {U.ny} {U.kind}"]
    for i in range(U.nx):
        runs = []
        current = False
        count = 0
        for v in U.mask[i]:
            if bool(v) == current:
                count += 1
            else:
                runs.append(count)
                current = bool(v)
                count = 1
        runs.append(count)
        lines.append(" ".join(str(r) for r in runs))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _full_and_empty_rows_mask():
    mask = np.zeros((7, 9), dtype=bool)
    mask[1] = True                       # all-true row
    mask[2, 0] = mask[2, -1] = True      # true at both ends
    mask[4, 3:5] = True
    mask[5, :-1] = True                  # starts true, ends false
    return geom.GridDomain(origin=(-0.35, 0.1), h=0.1, mask=mask)


@pytest.mark.parametrize("make", [
    lambda: make_domain(disc(0.1 + 0.05j, 0.7), h=0.03),
    lambda: make_domain(annulus(0, 0.5, 1), h=0.04),
    lambda: make_domain(union(annulus(0, 0.5, 1), disc(2.2, 0.4)), h=0.04),
    lambda: make_domain(reinhardt_profile(rectangle((0.5, 0), (1, 1))), h=0.05),
    _full_and_empty_rows_mask,
], ids=["disc", "annulus", "union", "reinhardt", "full-and-empty-rows"])
def test_save_grid_bytes_equal_per_cell_loop(tmp_path, make):
    U = make()
    save_grid(U, tmp_path / "fast.grid")
    _save_grid_per_cell(U, tmp_path / "oracle.grid")
    assert (tmp_path / "fast.grid").read_bytes() == \
        (tmp_path / "oracle.grid").read_bytes()
    V = load_grid(tmp_path / "fast.grid")
    assert (V.h, V.origin, V.kind) == (U.h, U.origin, U.kind)
    assert (V.mask == U.mask).all()


@pytest.mark.parametrize("header, row, match", [
    ("1 10", "0 12 -2", "negative run"),
    ("1 10", "2 3 -1 6", "negative run"),
    ("1 10", "2 3.5 4.5", "non-integer run"),
    ("1 ten", "0 10", "malformed grid header"),
    ("1.5 10", "0 10", "malformed grid header"),
    ("-1 10", "", "negative grid shape"),
    ("1 10", "0 10\n0 10", "more than the 1 rows"),
], ids=["overrun-then-negative", "negative-sum-matches", "non-integer-run",
        "non-integer-columns", "non-integer-rows", "negative-rows", "extra-row"])
def test_load_grid_rejects_malformed_rows(tmp_path, header, row, match):
    path = tmp_path / "bad.grid"
    path.write_text(f"grid v1 0.1 0.0 0.0 {header} planar\n{row}\n")
    with pytest.raises(GeomError, match=match):
        load_grid(path)


@pytest.mark.parametrize("h, match", [
    ("h", "malformed grid header"),
    ("nan", "positive and finite"),
    ("inf", "positive and finite"),
    ("-0.1", "positive and finite"),
])
def test_load_grid_rejects_bad_spacing(tmp_path, h, match):
    path = tmp_path / "bad.grid"
    path.write_text(f"grid v1 {h} 0.0 0.0 1 2 planar\n0 2\n")
    with pytest.raises(GeomError, match=match):
        load_grid(path)


def test_barbell_rejects_far_segment_endpoint(barbell_parts):
    G, D, _ = barbell_parts
    with pytest.raises(GeomError, match="boundary-adjacent"):
        barbell_sequence(G, D, (-2 + 0j, 1.0 + 0j), [0.3])


def test_metrics_between_reinhardt_profiles():
    h = 0.02
    U = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=h)
    V = make_domain(reinhardt_profile(rectangle((0, 0), (0.8, 1))), h=h)
    assert rho1(U, U) == 0.0
    r1 = rho1(U, V)
    assert r1 == pytest.approx(0.4, abs=4 * h)  # closures 0.2 + boundaries 0.2
    vol, sup = geom.rho2_parts(U, V)
    # oracle: C^2 volume of the shaved band {0.8 < r1 < 1} x {r2 < 1}
    expected_vol = np.pi ** 2 * (1 - 0.8 ** 2)
    assert vol == pytest.approx(expected_vol, rel=0.05)
    assert sup == pytest.approx(0.2, abs=4 * h)


# ---------------------------------------------------------------------------
# the metrics against their full-array transform oracles
# ---------------------------------------------------------------------------

def edt_directed_sup(mask_from, mask_to, h):
    """Oracle of a directed rho1 term: a full-array EDT of the complement."""
    dist_to = ndimage.distance_transform_edt(~mask_to, sampling=h)
    return float(dist_to[mask_from].max())


def edt_rho1_parts(U, V):
    mU, mV, _ = geom._aligned_masks(U, V)
    bU, bV = geom.boundary_mask(mU), geom.boundary_mask(mV)
    return (max(edt_directed_sup(mU, mV, U.h), edt_directed_sup(mV, mU, U.h)),
            max(edt_directed_sup(bU, bV, U.h), edt_directed_sup(bV, bU, U.h)))


def edt_rho2_sups(U, V):
    """Oracles of rho2's sup term, from both fields transformed afresh on
    the aligned masks: the max of each field over its own part of the
    symmetric difference, and the full-array max |dU - dV|."""
    mU, mV, origin = geom._aligned_masks(U, V)
    dU = geom._edt(mU, U.h, U.kind, origin)
    dV = geom._edt(mV, U.h, U.kind, origin)
    sym = max(dU[mU & ~mV].max(initial=0.0), dV[mV & ~mU].max(initial=0.0))
    return float(sym), float(np.abs(dU - dV).max())


def assert_rho2_sup_matches_oracles(U, V):
    # the symmetric-difference max to the bit; the full-array max |dU - dV|
    # is the same lattice sup up to the rounding of dU - dV on U n V
    for A, B in ((U, V), (V, U)):
        new = geom.rho2_parts(A, B)[1]
        sym, full = edt_rho2_sups(A, B)
        assert new == sym, (new, sym)
        assert new <= full <= new + 8 * np.spacing(new), (new, full)


def oracle_pairs():
    rng = np.random.default_rng(2024)
    h = 0.05
    pairs = []
    # planar specs
    for _ in range(12):
        c = complex(*rng.uniform(-0.5, 0.5, 2))
        x0, y0 = rng.uniform(-1.0, -0.2, 2)
        x1, y1 = rng.uniform(0.2, 1.0, 2)
        specs = [disc(c, rng.uniform(0.4, 1.0)),
                 annulus(c, rng.uniform(0.2, 0.4), rng.uniform(0.6, 1.0)),
                 rectangle((x0, y0), (x1, y1)),
                 difference(disc(0, 1), rectangle((0, -h), (1, h)))]
        i, j = rng.choice(len(specs), size=2, replace=False)
        pairs.append((make_domain(specs[i], h), make_domain(specs[j], h)))
    # exhaustion members against their target
    G = make_domain(union(disc(0, 0.8), rectangle((0, -0.3), (1.5, 0.3))), h)
    for member in interior_exhaustion(G, [0.4, 0.2, 0.1, 0.06]).members:
        pairs.append((member, G))
    # barbell members against a lobe
    L = make_domain(disc(-1.2, 0.7), h)
    R = make_domain(annulus(1.2, 0.3, 0.7), h)
    seq = barbell_sequence(L, R, (-0.5 + 0j, 0.5 + 0j), [0.4, 0.2])
    for member in seq.members:
        pairs.extend([(member, L), (member, R), (member, seq.target)])
    # reinhardt profiles, one on the radial axis and one off it
    for _ in range(6):
        a, b = rng.uniform(0.5, 1.0, 2)
        on_axis = make_domain(reinhardt_profile(rectangle((0, 0), (a, b))), h)
        lo = rng.uniform(0.1, 0.4)
        off_axis = make_domain(reinhardt_profile(
            disc(complex(lo + 0.4, rng.uniform(0.5, 0.7)), 0.35)), h)
        half = make_domain(reinhardt_profile(rectangle((lo, 0), (1.0, b))), h)
        pairs.extend([(on_axis, off_axis), (on_axis, half), (half, off_axis)])
    return pairs


def test_metrics_match_full_array_transform_oracles():
    # rho2's sup term must match its symmetric-difference oracle exactly.
    # rho1 may differ by one ulp: where the same integer squared offset is
    # reached by two index offsets (425 = 20^2 + 5^2 = 19^2 + 8^2), the
    # kd-tree and the EDT may pick different nearest cells, and
    # (di h)^2 + (dj h)^2 rounds differently for each.  The EDT breaks such
    # ties arbitrarily too.
    for U, V in oracle_pairs():
        assert_rho2_sup_matches_oracles(U, V)
        for A, B in ((U, V), (V, U)):
            for new, old in zip(geom.rho1_parts(A, B), edt_rho1_parts(A, B)):
                assert abs(new - old) <= np.spacing(old), (new, old)


def test_directed_sup_is_zero_on_a_subset():
    U = make_domain(disc(0, 1), h=0.05)
    V = make_domain(disc(0, 0.5), h=0.05)
    _, _, iU, iV = geom._frame(U, V)
    outside = geom._outside_cells(V, U, (iV[0] - iU[0], iV[1] - iU[1]))
    assert len(outside) == 0
    assert geom._sup_to_boundary(outside, U, U.h) == 0.0
    mU, mV, _ = geom._aligned_masks(U, V)
    assert geom.rho1_parts(U, V)[0] == edt_directed_sup(mU, mV, U.h)


# ---------------------------------------------------------------------------
# rho1 on cached boundary trees against the common-array kd-tree oracle
# ---------------------------------------------------------------------------

def kd_rho1_parts(U, V):
    """Oracle: rho1_parts as one common array, before the boundary trees
    were cached per domain.  Both masks are embedded in one frame, and each
    directed term queries every cell of one set outside the other in a
    kd-tree over the other's boundary cells, built on every call."""
    def nearest(cells, mask_to, h):
        bi, bj = np.nonzero(geom.boundary_mask(mask_to))
        ci, cj = np.nonzero(cells)
        _, k = cKDTree(np.column_stack([bi, bj])).query(
            np.column_stack([ci, cj]), workers=1)
        di = (ci - bi[k]) * h
        dj = (cj - bj[k]) * h
        return np.sqrt(di * di + dj * dj)

    def directed(mask_from, mask_to, h):
        outside = mask_from & ~mask_to
        if not outside.any():
            return 0.0
        return float(nearest(outside, mask_to, h).max())

    def hausdorff_masks(mA, mB, h):
        return max(directed(mA, mB, h), directed(mB, mA, h))

    mU, mV, _ = geom._aligned_masks(U, V)
    h = U.h
    if (mU == mV).all():
        return 0.0, 0.0
    bU = geom.boundary_mask(mU)
    bV = geom.boundary_mask(mV)
    return hausdorff_masks(mU, mV, h), hausdorff_masks(bU, bV, h)


def assert_rho1_bits_equal(U, V):
    for A, B in ((U, V), (V, U)):
        new = geom.rho1_parts(A, B)
        old = kd_rho1_parts(A, B)
        assert np.array(new).tobytes() == np.array(old).tobytes(), (new, old)


@st.composite
def lattice_domains(draw, kind, reach=70):
    """A random mask (noise, a filled ellipse or one with holes) at a random
    integer offset of at most reach cells; reinhardt profiles sit on or near
    both radial axes."""
    h = 0.05
    nx, ny = draw(st.integers(1, 56)), draw(st.integers(1, 56))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    style = draw(st.sampled_from(["noise", "ellipse", "holes"]))
    if style == "noise":
        mask = rng.random((nx, ny)) < rng.uniform(0.05, 1.0)
    else:
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        ci, cj = rng.uniform(0, nx), rng.uniform(0, ny)
        ri, rj = rng.uniform(0.5, nx), rng.uniform(0.5, ny)
        mask = ((i - ci) / ri) ** 2 + ((j - cj) / rj) ** 2 < 1
        if style == "holes":
            mask &= rng.random((nx, ny)) > 0.05
    if not mask.any():
        mask[rng.integers(nx), rng.integers(ny)] = True
    lo = 0 if kind == geom.REINHARDT else -reach
    oi, oj = draw(st.integers(lo, reach)), draw(st.integers(lo, reach))
    if kind == geom.REINHARDT:
        oi, oj = draw(st.sampled_from([0, oi])), draw(st.sampled_from([0, oj]))
    return geom.GridDomain(origin=(oi * h, oj * h), h=h, mask=mask, kind=kind)


@st.composite
def lattice_pairs(draw):
    kind = draw(st.sampled_from([geom.PLANAR, geom.REINHARDT]))
    return draw(lattice_domains(kind)), draw(lattice_domains(kind))


@st.composite
def overlapping_pairs(draw):
    """Pairs whose arrays overlap: planar offsets within 8 cells, reinhardt
    origins 0-3h, so mirrored (origin 0) and unmirrored arrays both occur."""
    kind = draw(st.sampled_from([geom.PLANAR, geom.REINHARDT]))
    reach = 3 if kind == geom.REINHARDT else 8
    return (draw(lattice_domains(kind, reach)),
            draw(lattice_domains(kind, reach)))


@settings(max_examples=150, deadline=None)
@given(pair=overlapping_pairs())
def test_rho2_sup_is_the_symmetric_difference_max(pair):
    assert_rho2_sup_matches_oracles(*pair)


@settings(max_examples=150, deadline=None)
@given(pair=lattice_pairs(), prune_min=st.sampled_from([geom.PRUNE_MIN, 0]))
def test_rho1_parts_bits_equal_common_array_oracle(pair, prune_min):
    # prune_min 0 tile-prunes every query set, however small
    with mock.patch.object(geom, "PRUNE_MIN", prune_min):
        assert_rho1_bits_equal(*pair)


@settings(max_examples=100, deadline=None)
@given(pair=lattice_pairs())
def test_query_sets_equal_common_array_masks(pair):
    U, V = pair
    mU, mV, _ = geom._aligned_masks(U, V)
    _, _, iU, iV = geom._frame(U, V)
    uv = (iU[0] - iV[0], iU[1] - iV[1])
    for cells, expected in (
            (geom._outside_cells(U, V, uv), mU & ~mV),
            (geom._boundary_outside(U, V, uv),
             geom.boundary_mask(mU) & ~geom.boundary_mask(mV))):
        # back from V's array to the frame
        frame = {(i + iV[0], j + iV[1]) for i, j in cells.tolist()}
        assert frame == set(zip(*map(np.ndarray.tolist, np.nonzero(expected))))


@pytest.mark.parametrize("cells", [[(-1, 8), (-8, -4)], [(-9, 8), (3, -12)],
                                   [(-9, -9), (11, -7)]])
def test_tile_pruning_keeps_the_maximum_near_its_bound(cells):
    # one boundary cell at the origin; the farthest cell's tile center is
    # 2.86-3.55 nearer to it than the other tile's center: more than the
    # 2 sqrt(2) of a 3 x 3 tile, less than the 2r = 4.24 of a 4 x 4 one
    B = geom.GridDomain(origin=(0.0, 0.0), h=1.0, mask=np.ones((1, 1), dtype=bool))
    cells = np.array(cells)
    lo = cells.min(axis=0)
    mask = np.zeros(tuple(cells.max(axis=0) - lo + 1), dtype=bool)
    mask[tuple((cells - lo).T)] = True
    A = geom.GridDomain(origin=(float(lo[0]), float(lo[1])), h=1.0, mask=mask)
    with mock.patch.object(geom, "PRUNE_MIN", 0):
        assert_rho1_bits_equal(A, B)
        assert geom.rho1_parts(A, B)[0] == np.sqrt((cells ** 2).sum(axis=1)).max()


def _single_cell(i, j):
    mask = np.zeros((1, 1), dtype=bool)
    mask[0, 0] = True
    return geom.GridDomain(origin=(i * 0.1, j * 0.1), h=0.1, mask=mask)


def _nested_pairs():
    G = make_domain(union(disc(0, 0.8), rectangle((0, -0.3), (1.5, 0.3))), 0.02)
    return [(m, G) for m in interior_exhaustion(G, [0.3, 0.1, 0.05]).members]


RHO1_CASES = {
    "single-cells": lambda: [(_single_cell(0, 0), _single_cell(3, -4)),
                             (_single_cell(2, 2), _single_cell(2, 2))],
    "disjoint-lobes": lambda: [(make_domain(disc(-1.5, 0.7), 0.02),
                                make_domain(annulus(1.5 + 0.4j, 0.3, 0.7), 0.02))],
    "nested-members": _nested_pairs,
    "reinhardt-on-axis": lambda: [
        (make_domain(reinhardt_profile(rectangle((0, 0), (1, 0.7))), 0.02),
         make_domain(reinhardt_profile(disc(0.5 + 0.5j, 0.45)), 0.02)),
        (make_domain(reinhardt_profile(rectangle((0, 0), (1, 0.7))), 0.02),
         make_domain(reinhardt_profile(rectangle((0.3, 0), (0.9, 1))), 0.02))],
    # the large disc's cells sit at negative indices of the small one's array
    "negative-indices": lambda: [(make_domain(disc(0, 1), 0.02),
                                  make_domain(disc(0.9 + 0.3j, 0.3), 0.02))],
}


@pytest.mark.parametrize("case", sorted(RHO1_CASES))
def test_rho1_parts_bits_equal_oracle_on_named_cases(case):
    for U, V in RHO1_CASES[case]():
        assert_rho1_bits_equal(U, V)


def test_named_cases_reach_the_tile_pruning():
    U, V = RHO1_CASES["negative-indices"]()[0]
    _, _, iU, iV = geom._frame(U, V)
    cells = geom._outside_cells(U, V, (iU[0] - iV[0], iU[1] - iV[1]))
    assert len(cells) > geom.PRUNE_MIN
    assert (cells < 0).any()
    kept = geom._tile_pruned(cells, V.boundary.tree)
    assert 0 < len(kept) < len(cells)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(1, 30),
       ny=st.integers(1, 30), p=st.floats(0.0, 1.0))
def test_boundary_mask_is_idempotent(seed, nx, ny, p):
    mask = np.random.default_rng(seed).random((nx, ny)) < p
    b = geom.boundary_mask(mask)
    assert (geom.boundary_mask(b) == b).all()


@pytest.fixture
def tree_builds(monkeypatch):
    calls = []
    real = geom.cKDTree

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geom, "cKDTree", counted)
    return calls


@pytest.mark.parametrize("depths", [[0.2], [0.2, 0.15, 0.1]])
def test_exhaustion_run_builds_one_boundary_tree_per_domain(tree_builds, depths):
    from blab import lab

    cfg = lab.config_from_dict({
        "experiment": "exhaustion", "h": 0.04, "seed": 3,
        "shapes": {"target": disc(0, 1)}, "basis_window": [4, 8],
        "depths": depths})
    lab.run_exhaustion(cfg)
    assert len(tree_builds) == len(depths) + 1


# ---------------------------------------------------------------------------
# barbell necks against the full-frame construction
# ---------------------------------------------------------------------------

def full_frame_neck_masks(G, D, segment, widths):
    """Oracle: every member mask with the segment distance taken on every
    cell of the common array."""
    mG, mD, origin = geom._aligned_masks(G, D)
    h = G.h
    cx = geom._axis_centers(origin[0], mG.shape[0], h)
    cy = geom._axis_centers(origin[1], mG.shape[1], h)
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    seg_dist = geom._segment_distance(X, Y, segment[0], segment[1])
    return [(mG | mD) | (seg_dist <= w / 2) for w in widths]


def _edge_lobes():
    """Square lobes on the bottom row of one array, joined along that row."""
    mask_g = np.zeros((20, 12), dtype=bool)
    mask_g[0:5, 0:5] = True
    mask_d = np.zeros_like(mask_g)
    mask_d[12:20, 0:6] = True
    G = geom.GridDomain(origin=(0.0, 0.0), h=0.1, mask=mask_g)
    D = geom.GridDomain(origin=(0.0, 0.0), h=0.1, mask=mask_d)
    return G, D, (0.45 + 0.05j, 1.25 + 0.05j)


def _diagonal_lobes():
    u = np.exp(0.25j * np.pi)
    G = make_domain(disc(-1 - 1j, 0.6), 0.02)
    D = make_domain(disc(1.1 + 0.9j, 0.5), 0.02)
    return G, D, (-1 - 1j + 0.6 * u, 1.1 + 0.9j - 0.5 * u)


@pytest.mark.parametrize("make", [
    lambda: (make_domain(disc(-2, 1), 0.02), make_domain(annulus(2, 0.5, 1), 0.02),
             (-1.0 + 0j, 1.0 + 0j)),
    _edge_lobes,
    _diagonal_lobes,
], ids=["horizontal", "array-edge", "diagonal"])
def test_barbell_necks_equal_full_frame_construction(make):
    G, D, seg = make()
    widths = [25 * G.h, 15 * G.h, 5 * G.h, 3.5 * G.h]
    seq = barbell_sequence(G, D, seg, widths)
    for member, expected in zip(seq.members,
                                full_frame_neck_masks(G, D, seg, widths)):
        assert (member.mask == expected).all()


def corner_lobes(di, dj):
    """Square lobes on one lattice: G's corner cell is (7, 7), and D's
    nearest cell to it is (7 + di, 7 + dj)."""
    mask_g = np.zeros((20, 20), dtype=bool)
    mask_g[3:8, 3:8] = True
    mask_d = np.zeros_like(mask_g)
    mask_d[7 + di:14, 7 + dj:14] = True
    return (geom.GridDomain(origin=(0.0, 0.0), h=0.1, mask=mask_g),
            geom.GridDomain(origin=(0.0, 0.0), h=0.1, mask=mask_d))


@pytest.mark.parametrize("di, dj", [(2, 0), (0, 2), (1, 1), (1, 0)])
def test_barbell_rejects_lobes_within_two_cells(di, dj):
    G, D = corner_lobes(di, dj)
    with pytest.raises(GeomError, match="positive gap"):
        barbell_sequence(G, D, (0.75 + 0.75j, 0.75 + 0.95j), [0.3])


def test_barbell_accepts_lobes_three_cells_apart():
    G, D = corner_lobes(3, 0)
    seq = barbell_sequence(G, D, (0.75 + 0.75j, 1.05 + 0.75j), [0.4])
    assert seq.members[0].n_components == 1


# ---------------------------------------------------------------------------
# distance transform traffic
# ---------------------------------------------------------------------------

@pytest.fixture
def edt_calls(monkeypatch):
    calls = []
    real = ndimage.distance_transform_edt

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counted)
    return calls


@pytest.mark.parametrize("target", [disc(0, 1), annulus(0, 0.3, 1.2)])
def test_exhaustion_run_makes_one_transform_per_domain(edt_calls, target):
    # members lie in the target, so rho2 reads the target's field alone;
    # an annulus run certifies each member, and certification reads its own
    from blab import lab

    depths = [0.2, 0.15, 0.1]
    cfg = lab.config_from_dict({
        "experiment": "exhaustion", "h": 0.04, "seed": 3,
        "shapes": {"target": target}, "basis_window": [4, 8],
        "depths": depths})
    lab.run_exhaustion(cfg)
    certified = target["shape"] == "annulus"
    assert len(edt_calls) == 1 + (len(depths) if certified else 0)


def test_barbell_run_transforms_the_right_lobe_and_each_member(edt_calls):
    # the probes read the right lobe's field and each verdict its member's;
    # the union lies in every member, so rho2 needs no other field
    from blab import lab

    widths = [0.4, 0.2, 0.1]
    cfg = lab.config_from_dict({
        "experiment": "barbell", "h": 0.02,
        "shapes": {"left": disc(-2, 1), "right": annulus(2, 0.5, 1)},
        "basis_window": [8, 8], "widths": widths})
    lab.run_barbell(cfg)
    assert len(edt_calls) == 1 + len(widths)


def test_nowhere_density_run_makes_three_transforms(edt_calls):
    # the target (exhaustion), the placed lobe (probes) and the joined
    # result (rho2 and the verdict); the exhaustion member lies in the
    # target and is never transformed
    from blab import lab

    cfg = lab.config_from_dict({
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": disc(0, 0.7)},
        "basis_window": [8, 10], "delta": 0.5, "connected": True})
    lab.run_nowhere_density(cfg)
    assert len(edt_calls) == 3


def test_distance_field_is_shared_and_read_only(edt_calls):
    U = make_domain(disc(0, 1), h=0.05)
    df = distance_field(U)
    assert distance_field(U) is df
    assert not df.flags.writeable
    with pytest.raises(ValueError):
        df[0, 0] = 1.0
    rho1(U, U)
    rho2(U, make_domain(disc(0, 0.9), h=0.05))
    interior_exhaustion(U, [0.2])
    assert len(edt_calls) == 1   # U; the 0.9 disc lies inside U
