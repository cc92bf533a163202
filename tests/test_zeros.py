"""Scanning, winding counts, certificates, and verdicts."""

import json

import numpy as np
import pytest

from blab import basis as bs
from blab import kernel as kn
from blab import zeros as zr
from blab.geom import annulus, disc, make_domain, rectangle, union


@pytest.fixture(scope="module")
def annulus_fit():
    U = make_domain(annulus(0, 0.5, 1), h=0.005)
    return kn.fit_kernel(U, bs.laurent(0, 12, 12))


@pytest.fixture(scope="module")
def annulus_cf():
    return kn.closed_form(annulus(0, 0.5, 1), truncation=96, h=0.005)


@pytest.fixture(scope="module")
def disc_cf():
    return kn.closed_form(disc(0, 1), h=0.01)


def rect_contour(x0, y0, x1, y1, per_edge=48):
    xs = np.linspace(x0, x1, per_edge, endpoint=False)
    ys = np.linspace(y0, y1, per_edge, endpoint=False)
    bottom = xs + 1j * y0
    right = x1 + 1j * ys
    top = np.linspace(x1, x0, per_edge, endpoint=False) + 1j * y1
    left = x0 + 1j * np.linspace(y1, y0, per_edge, endpoint=False)
    return np.concatenate([bottom, right, top, left])


# ---------------------------------------------------------------------------
# winding_count
# ---------------------------------------------------------------------------

def test_winding_linear_function():
    a = 0.3 + 0.2j
    assert zr.winding_count(lambda zs: zs - a, None,
                            zr.circle_contour(a, 0.1)) == 1


def test_winding_counts_multiplicity_and_outside():
    a, b = 0.2, -0.4 + 0.1j
    f = lambda zs: (zs - a) ** 2 * (zs - b)
    assert zr.winding_count(f, None, zr.circle_contour(a, 0.1)) == 2
    assert zr.winding_count(f, None, zr.circle_contour(0, 1.0)) == 3
    assert zr.winding_count(f, None, zr.circle_contour(2 + 2j, 0.3)) == 0


def test_winding_invariant_under_refinement():
    f = lambda zs: (zs - 0.1) * (zs + 0.2j)
    c64 = zr.circle_contour(0, 0.8, 64)
    c128 = zr.circle_contour(0, 0.8, 128)
    assert zr.winding_count(f, None, c64) == zr.winding_count(f, None, c128) == 2


def test_winding_additive_over_partition():
    # two side-by-side rectangles partition the bounding rectangle
    f = lambda zs: (zs - (0.25 + 0.5j)) * (zs - (0.75 + 0.4j))
    whole = rect_contour(0, 0, 1, 1)
    left = rect_contour(0, 0, 0.5, 1)
    right = rect_contour(0.5, 0, 1, 1)
    total = zr.winding_count(f, None, whole)
    assert total == 2
    assert (zr.winding_count(f, None, left)
            + zr.winding_count(f, None, right)) == total


def test_winding_floor_violation_near_zero():
    f = lambda zs: zs - 0.5
    with pytest.raises(zr.ContourError):
        # the zero sits on the contour: refinement cannot settle
        zr.winding_count(f, None, zr.circle_contour(0, 0.5, 64))


class _ScaledIdentity:
    """K(z, w0) = scale * z with a fixed error estimate and no domain."""

    domain = None

    def __init__(self, scale, err):
        self.scale, self.err = scale, err

    def eval_many(self, zs, w):
        return self.scale * zs

    def eval_error_estimate(self, w):
        return self.err


def test_winding_floor_is_strict_at_floor_factor():
    # the square's edge midpoints have modulus exactly 1, so the contour
    # minimum of scale * z is exactly scale
    square = np.array([1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j])
    err = 0.5
    floor = zr.FLOOR_FACTOR * err
    with pytest.raises(zr.ContourError, match="modulus floor"):
        zr.winding_count(_ScaledIdentity(floor, err), 0j, square)
    above = np.nextafter(floor, np.inf)
    assert zr.winding_count(_ScaledIdentity(above, err), 0j, square) == 1


def test_winding_disc_closed_form_zero_free(disc_cf):
    assert zr.winding_count(disc_cf, 0.2, zr.circle_contour(0, 0.6)) == 0


def test_winding_annulus_closed_form(annulus_cf):
    # oracle: the diagonal sign change at s* gives the zero z* = s*/w0
    s_star = -0.7071069855
    w0 = 0.8
    z_star = s_star / w0
    assert zr.winding_count(annulus_cf, w0,
                            zr.circle_contour(z_star, 0.02)) == 1
    far = zr.circle_contour(0.7071, 0.02)  # same modulus, positive axis
    assert zr.winding_count(annulus_cf, w0, far) == 0


def test_winding_rejects_contour_leaving_component(annulus_fit):
    with pytest.raises(zr.ContourError):
        zr.winding_count(annulus_fit, 0.75, zr.circle_contour(0.75, 0.4))


# ---------------------------------------------------------------------------
# scan_min_modulus
# ---------------------------------------------------------------------------

def test_scan_disc_no_deep_candidates(disc_cf):
    scan = zr.scan_min_modulus(disc_cf, 0.2, stride=4)
    # oracle: min over the disc of the closed form at w0 = 0.2
    assert scan.min_modulus >= 1 / (np.pi * 1.2 ** 2) - 1e-2
    assert all(v >= 0.1 for _, v in scan.candidates)


def test_scan_finds_annulus_zero_basin(annulus_cf):
    scan = zr.scan_min_modulus(annulus_cf, 0.8, stride=4)
    z0, v0 = scan.candidates[0]
    assert abs(z0 - (-0.8839)) < 0.05
    assert v0 < 0.05


def test_scan_outside_w0_rejected(disc_cf):
    with pytest.raises(zr.ZeroSearchError):
        zr.scan_min_modulus(disc_cf, 2.0, stride=4)


def _scan_full_grid(model, w0, stride=4, bbox=None):
    """The full-grid scan that the window-local one replaced, as the oracle."""
    dom = model.domain
    target = int(dom.labels_at(w0))
    sub = dom.component_labels == target
    if bbox is not None:
        x0, y0, x1, y1 = bbox
        cx, cy = dom.centers_x, dom.centers_y
        sub = sub & ((cx >= x0) & (cx <= x1))[:, None] \
                  & ((cy >= y0) & (cy <= y1))[None, :]
        if not sub.any():
            raise zr.ZeroSearchError(f"scan bbox {bbox} misses the component")
    scan_mask = np.zeros_like(sub)
    scan_mask[::stride, ::stride] = sub[::stride, ::stride]
    if not scan_mask.any():
        raise zr.ZeroSearchError(f"component {target} has no cells at stride {stride}")
    pts = dom.centers_of(scan_mask)
    mods = np.abs(model.eval_many(pts, w0))
    values = np.full(dom.mask.shape, np.inf)
    values[scan_mask] = mods
    median = float(np.median(mods))
    vi = values[::stride, ::stride]
    neigh = np.full(vi.shape + (4,), np.inf)
    neigh[1:, :, 0] = vi[:-1, :]
    neigh[:-1, :, 1] = vi[1:, :]
    neigh[:, 1:, 2] = vi[:, :-1]
    neigh[:, :-1, 3] = vi[:, 1:]
    is_min = np.isfinite(vi) & (vi <= neigh.min(axis=2)) & (vi < median)
    ii, jj = np.nonzero(is_min)
    cx, cy = dom.centers_x, dom.centers_y
    cand = [(cx[i * stride] + 1j * cy[j * stride], float(vi[i, j]))
            for i, j in zip(ii, jj)]
    cand.sort(key=lambda t: (t[1], t[0].real, t[0].imag))
    return zr.ScanResult(candidates=tuple(cand), min_modulus=float(mods.min()),
                         median_modulus=median, n_scanned=int(mods.size),
                         resolution=stride * dom.h)


@pytest.fixture(scope="module")
def ring_and_disc_fit():
    U = make_domain(union(annulus(0.03 + 0.02j, 0.5, 1), disc(2.2, 0.4)), h=0.02)
    return kn.fit_kernel(U, bs.laurent(0.03 + 0.02j, 8, 8))


@pytest.mark.parametrize("stride", [1, 3, 4])
@pytest.mark.parametrize("bbox", [
    None,
    (-0.93, -0.41, 0.37, 0.55),     # interior, off the stride lattice
    (-9.0, -9.0, -0.3, 0.2),        # past the left and bottom array edges
    (0.2, -0.3, 9.0, 9.0),          # past the right and top array edges
    (-0.1, -0.1, 0.1, 0.1),         # the hole: misses the component
    (10.0, 10.0, 11.0, 11.0),       # off the array
    (0.645, 0.045, 0.655, 0.055),   # one ring cell, off the stride lattice
])
@pytest.mark.parametrize("w0_in_disc", [False, True])
def test_window_scan_equals_full_grid_scan(ring_and_disc_fit, stride, bbox,
                                           w0_in_disc):
    # w0 in the ring, or in the disc: the scan covers w0's component alone
    model = ring_and_disc_fit
    w0 = 2.3 + 0.05j if w0_in_disc else 0.8 + 0.02j
    try:
        want = _scan_full_grid(model, w0, stride, bbox)
    except zr.ZeroSearchError as e:
        with pytest.raises(zr.ZeroSearchError) as got:
            zr.scan_min_modulus(model, w0, stride, bbox)
        assert str(got.value) == str(e)
        return
    got = zr.scan_min_modulus(model, w0, stride, bbox)
    assert got == want
    if bbox is None:
        assert got.candidates


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_round_trip(annulus_cf):
    scan = zr.scan_min_modulus(annulus_cf, 0.8)
    z_star = zr.refine_minimum(annulus_cf, 0.8, scan.candidates[0][0], 0.005)
    cert = zr.certify_zero(annulus_cf, 0.8, z_star)
    assert cert is not None and cert.winding == 1
    loaded = zr.ZeroCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
    assert loaded == cert


def test_certificate_contour_is_evaluated_once(annulus_fit, monkeypatch):
    # the winding pass gives the floor: after the refinement grids (25
    # points each) comes one 64-point contour pass, and the error estimate
    # is computed once
    sizes, errors = [], []
    eval_many = kn.KernelModel.eval_many
    estimate = kn.KernelModel.eval_error_estimate

    def spy_eval(self, zs, w):
        sizes.append(len(zs))
        return eval_many(self, zs, w)

    def spy_error(self, w):
        errors.append(w)
        return estimate(self, w)

    monkeypatch.setattr(kn.KernelModel, "eval_many", spy_eval)
    monkeypatch.setattr(kn.KernelModel, "eval_error_estimate", spy_error)
    verdict = zr.lu_qi_keng_verdict(annulus_fit)
    assert verdict.certified
    assert sizes[-3:] == [25, 25, zr.CONTOUR_POINTS]
    assert sizes.count(zr.CONTOUR_POINTS) == 1
    assert len(errors) == 1
    cert = verdict.certificate
    monkeypatch.undo()
    # the floor is the one a separate pass over the contour gives, bit for bit
    again = annulus_fit.eval_many(np.asarray(cert.contour), cert.w0)
    assert cert.min_modulus_on_contour == float(np.min(np.abs(again)))
    assert cert.eval_error == annulus_fit.eval_error_estimate(cert.w0)


def test_certificate_invariants_enforced():
    with pytest.raises(zr.ZeroSearchError):
        zr.ZeroCertificate(w0=0, contour=(1 + 0j,), winding=0,
                           min_modulus_on_contour=1.0, z_star=0.5,
                           eval_error=0.0).validate()
    with pytest.raises(zr.ZeroSearchError):
        zr.ZeroCertificate(w0=0, contour=(1 + 0j,), winding=1,
                           min_modulus_on_contour=1e-9, z_star=0.5,
                           eval_error=1e-3).validate()


def test_certificate_floor_is_strict_at_floor_factor():
    err = 0.5
    floor = zr.FLOOR_FACTOR * err

    def cert(m):
        return zr.ZeroCertificate(w0=0j, contour=(1 + 0j,), winding=1,
                                  min_modulus_on_contour=m, z_star=0.5 + 0j,
                                  eval_error=err)
    with pytest.raises(zr.ZeroSearchError, match="does not clear"):
        cert(floor).validate()
    cert(np.nextafter(floor, np.inf)).validate()


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_verdict_disc_no_zero():
    U = make_domain(disc(0, 1), h=0.01)
    model = kn.fit_kernel(U, bs.monomials(0, 10))
    verdict = zr.lu_qi_keng_verdict(model)
    assert not verdict.certified
    assert verdict.floor >= 0.05
    assert verdict.resolution == pytest.approx(0.04)


@pytest.mark.slow
def test_verdict_annulus_certified(annulus_fit):
    verdict = zr.lu_qi_keng_verdict(annulus_fit)
    assert verdict.certified
    cert = verdict.certificate
    cert.validate()
    assert 0.5 < abs(cert.z_star) < 1.0


@pytest.mark.slow
def test_verdict_disjoint_union_certified_in_annulus():
    U = make_domain(union(disc(-2.2, 0.8), annulus(2, 0.5, 1)), h=0.01)
    B = bs.merged(bs.monomials(-2.2, 8), bs.principal_parts(2, 8))
    model = kn.fit_kernel(U, B)
    verdict = zr.lu_qi_keng_verdict(model)
    assert verdict.certified
    assert abs(verdict.certificate.z_star - 2) < 1.0  # lives in the annulus lobe


def test_verdict_floor_monotone_in_probes(disc_cf):
    small = zr.ProbeConfig(w0_points=(0.1 + 0j,))
    large = zr.ProbeConfig(w0_points=(0.1 + 0j, 0.5 + 0j, -0.3j))
    va = zr.lu_qi_keng_verdict(disc_cf, small)
    vb = zr.lu_qi_keng_verdict(disc_cf, large)
    assert vb.floor <= va.floor


def test_certificates_stable_under_grid_refinement():
    # certify on the coarse grid, then re-certify the same zero on the
    # half-spacing refit: z* must move less than the original contour radius
    h = 0.01
    U = make_domain(annulus(0, 0.5, 1), h=h)
    coarse = kn.fit_kernel(U, bs.laurent(0, 12, 12))
    scan = zr.scan_min_modulus(coarse, 0.8, stride=4)
    z1 = zr.refine_minimum(coarse, 0.8, scan.candidates[0][0], h)
    cert1 = zr.certify_zero(coarse, 0.8, z1)
    assert cert1 is not None

    U2 = make_domain(annulus(0, 0.5, 1), h=h / 2)
    fine = kn.fit_kernel(U2, bs.laurent(0, 12, 12))
    z2 = zr.refine_minimum(fine, 0.8, cert1.z_star, h / 2)
    cert2 = zr.certify_zero(fine, 0.8, z2)
    assert cert2 is not None
    radius = abs(cert1.contour[0] - cert1.z_star)
    assert abs(cert2.z_star - cert1.z_star) < radius


# ---------------------------------------------------------------------------
# matched-truncation certificate agreement (closed form vs fitted)
# ---------------------------------------------------------------------------

def test_fitted_and_matched_closed_form_agree(annulus_fit):
    matched = kn.closed_form(annulus(0, 0.5, 1), truncation=12, h=0.005)
    w0 = 0.8
    out = {}
    for name, model in (("fit", annulus_fit), ("cf", matched)):
        scan = zr.scan_min_modulus(model, w0, stride=4)
        z_star = zr.refine_minimum(model, w0, scan.candidates[0][0], 0.005)
        cert = zr.certify_zero(model, w0, z_star)
        assert cert is not None and cert.winding == 1
        out[name] = cert.z_star
    assert abs(out["fit"] - out["cf"]) < 0.02


# ---------------------------------------------------------------------------
# hurwitz_track
# ---------------------------------------------------------------------------

def test_hurwitz_constant_sequence(annulus_cf):
    contour = zr.circle_contour(-0.8839, 0.02)
    track = zr.hurwitz_track([annulus_cf] * 3, 0.8, contour)
    assert track.counts == (1, 1, 1)


def test_hurwitz_reports_indeterminate_members(annulus_cf, disc_cf):
    # the disc model's domain contains the contour but the zero-free kernel
    # gives winding 0; a contour through the annulus zero is indeterminate
    # for the annulus model once it pins the zero on the contour
    onzero = zr.circle_contour(-0.8839 + 0.02, 0.02)  # zero on the rim
    contour = zr.circle_contour(-0.8839, 0.02)
    track = zr.hurwitz_track([annulus_cf, annulus_cf], 0.8, onzero)
    assert None in track.counts or all(c is not None for c in track.counts)
    good = zr.hurwitz_track([annulus_cf], 0.8, contour, reference=annulus_cf,
                            margin=0.1)
    assert good.counts == (1,)
    assert good.kernel_errors[0] == 0.0


def test_hurwitz_track_disc_exhaustion_zero_free():
    from blab.geom import interior_exhaustion

    h = 0.01
    G = make_domain(disc(0, 1), h=h)
    seq = interior_exhaustion(G, [0.2, 0.1])
    models = [kn.fit_kernel(m, bs.monomials(0, 8)) for m in seq.members]
    contour = zr.circle_contour(0.3, 0.2)
    ref = kn.closed_form(disc(0, 1), truncation=8, h=h)
    track = zr.hurwitz_track(models, 0.1 + 0j, contour, reference=ref,
                             margin=0.4)
    assert track.counts == (0, 0)
    assert track.kernel_errors[0] > track.kernel_errors[1]


def test_hurwitz_default_margin_on_annulus(annulus_cf, monkeypatch):
    # the default margin is half the least reference depth on the contour,
    # read through the reference domain's cell rule
    margins = []

    def spy(models, reference, margin, domain=None):
        margins.append(margin)
        return kn.kernel_error(models, reference, margin, domain=domain)
    monkeypatch.setattr(zr, "kernel_error", spy)
    contour = zr.circle_contour(-0.8839, 0.02)
    track = zr.hurwitz_track([annulus_cf], 0.8, contour, reference=annulus_cf)
    assert track.kernel_errors == (0.0,)
    dom = annulus_cf.domain
    i = np.floor((contour.real - dom.origin[0]) / dom.h).astype(int)
    j = np.floor((contour.imag - dom.origin[1]) / dom.h).astype(int)
    depth = zr.distance_field(dom)
    assert margins == [0.5 * float(depth[i, j].min())]
    # closed form: the outer circle R = 1 is the nearest boundary
    outer = 0.5 * (1.0 - np.abs(contour).max())
    assert margins[0] == pytest.approx(outer, abs=dom.h)


def test_hurwitz_default_margin_equals_the_whole_field_read(monkeypatch):
    # the default margin reads the reference's field at the contour's cells
    # through a window: the whole field's bits, and no whole transform
    ref = kn.closed_form(annulus(0, 0.5, 1), truncation=8, h=0.01)
    dom = ref.domain
    margins = []

    def spy(models, reference, margin, domain=None):
        margins.append(margin)
        return (0.0,) * len(models)
    monkeypatch.setattr(zr, "kernel_error", spy)
    contour = zr.circle_contour(-0.75 + 0.1j, 0.05)
    zr.hurwitz_track([ref], 0.8, contour, reference=ref)
    assert "distance" not in vars(dom)
    depth = zr.distance_field(dom)
    assert margins == [0.5 * float(dom.values_at(depth, contour).min())]


def _default_probes_full_grid(dom, cfg):
    """Oracle: default_probes reading its probes from the full complex
    center grid."""
    depth = zr.distance_field(dom)
    labels = dom.component_labels
    grid = (dom.centers_x[:, None] + 1j * dom.centers_y[None, :]).ravel()
    rng = np.random.default_rng(cfg.seed)
    probes = []
    for comp in range(1, dom.n_components + 1):
        d = np.where(labels == comp, depth, -1.0)
        flat_best = int(np.argmax(d))
        probes.append(complex(grid[flat_best]))
        deep = np.nonzero((d >= zr.DEPTH_FRACTION * d.max()).ravel())[0]
        picks = rng.choice(deep, size=min(cfg.n_random, deep.size), replace=False)
        probes.extend(complex(grid[k]) for k in np.sort(picks))
    return probes


@pytest.mark.parametrize("spec, h", [
    (disc(0.1 - 0.2j, 0.8), 0.03),
    (annulus(0, 0.4, 1), 0.04),
    (union(disc(-1.2, 0.5), disc(1.2 + 0.3j, 0.6)), 0.05),
    (rectangle((0, 0), (0.12, 0.09)), 0.03),     # fewer deep cells than draws
])
@pytest.mark.parametrize("n_random", [0, 3, 12])
def test_default_probes_equal_full_grid_reads(spec, h, n_random):
    dom = make_domain(spec, h)
    cfg = zr.ProbeConfig(seed=5, n_random=n_random)
    new = zr.default_probes(dom, cfg)
    old = _default_probes_full_grid(dom, cfg)
    assert all(type(p) is complex for p in new)
    assert np.array(new).tobytes() == np.array(old).tobytes()
