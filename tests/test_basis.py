"""Gram assembly against one-dimensional radial quadrature oracles."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg.blas import zherk

from blab import basis as bs
from blab import geom
from blab import kernel as kn
from blab.geom import (GridDomain, annulus, barbell_sequence, difference, disc,
                       domain_union, interior_exhaustion, make_domain,
                       rectangle, reinhardt_profile, union)

L_SHAPE = union(rectangle((0, 0), (2, 1)), rectangle((0, 0), (1, 2)))


def radial_norm_disc(n, r_outer):
    """Oracle: ||z^n||^2 on a disc of radius r via 1-D quadrature."""
    val, _ = quad(lambda r: r ** (2 * n + 1), 0, r_outer)
    return 2 * np.pi * val


def radial_norm_annulus(n, rho, R):
    val, _ = quad(lambda r: r ** (2 * n + 1), rho, R)
    return 2 * np.pi * val


@pytest.fixture(scope="module")
def unit_disc_fine():
    return make_domain(disc(0, 1), h=0.005)


@pytest.fixture(scope="module")
def annulus_dom():
    return make_domain(annulus(0, 0.5, 1), h=0.005)


def test_constant_on_disc_is_area(unit_disc_fine):
    G = bs.gram_matrix(bs.monomials(0, 0), unit_disc_fine)
    assert G.matrix[0, 0].real == pytest.approx(np.pi, rel=0.02)


def test_disc_monomial_diagonal_and_orthogonality(unit_disc_fine):
    G = bs.gram_matrix(bs.monomials(0, 1), unit_disc_fine)
    d0, d1 = G.matrix[0, 0].real, G.matrix[1, 1].real
    assert d0 == pytest.approx(radial_norm_disc(0, 1), rel=0.01)
    assert d1 == pytest.approx(radial_norm_disc(1, 1), rel=0.01)
    assert abs(G.matrix[0, 1]) <= 1e-3 * np.sqrt(d0 * d1)


def test_laurent_diagonal_on_annulus(annulus_dom):
    G = bs.gram_matrix(bs.laurent(0, 1, 1), annulus_dom)
    diag = np.diag(G.matrix).real
    expected = [radial_norm_annulus(n, 0.5, 1) for n in (-1, 0, 1)]
    assert expected[0] == pytest.approx(2 * np.pi * np.log(2), rel=1e-10)
    assert expected[1] == pytest.approx(0.75 * np.pi, rel=1e-10)
    assert expected[2] == pytest.approx(15 * np.pi / 32, rel=1e-10)
    assert diag == pytest.approx(expected, rel=0.01)


def test_gram_exactly_hermitian():
    U = make_domain(rectangle((0, 0), (1, 0.7)), h=0.02)
    G = bs.gram_matrix(bs.monomials(0.4 + 0.3j, 5), U).matrix
    assert (G == G.conj().T).all()
    assert (np.diag(G).imag == 0).all()


def test_gram_bit_reproducible():
    U = make_domain(disc(0.2 + 0.1j, 0.8), h=0.02)
    G1 = bs.gram_matrix(bs.monomials(0.2 + 0.1j, 6), U).matrix
    G2 = bs.gram_matrix(bs.monomials(0.2 + 0.1j, 6), U).matrix
    assert (G1 == G2).all()


def test_gram_invariant_under_array_padding():
    # same domain rasterized into a larger array: identical true-cell sequence,
    # hence bitwise identical sums
    h = 0.02
    U = make_domain(disc(0, 1), h=h)
    V = GridDomain(origin=(U.origin[0] - 50 * h, U.origin[1] - 50 * h), h=h,
                   mask=np.pad(U.mask, 50), spec=U.spec)
    B = bs.monomials(0, 6)
    assert (bs.gram_matrix(B, U).matrix == bs.gram_matrix(B, V).matrix).all()


def test_mask_built_gram_is_plain_midpoint_sum():
    # a domain built from a mask alone carries unit cell weights: its
    # quadrature record is its own mask with no fractions (every one is 1),
    # and its Gram is the per-entry midpoint sum up to summation order
    target = make_domain(disc(0.1 + 0.05j, 0.9), h=0.02)
    member = interior_exhaustion(target, [0.1]).members[0]
    cells, frac = member.quadrature
    assert cells is member.mask
    assert frac is None
    B = bs.monomials(0.1 + 0.05j, 6)
    G = bs.gram_matrix(B, member).matrix
    V = bs.term_matrix(B, member.centers_of(member.mask))
    w = member.h * member.h
    scale = np.sqrt(np.diag(G).real)
    for i in range(len(B)):
        for j in range(i, len(B)):
            midpoint = np.sum(V[:, i] * np.conj(V[:, j])) * w
            assert abs(G[i, j] - midpoint) <= 1e-14 * scale[i] * scale[j]


def test_term_matrix_rows_independent_of_batch():
    # each row is the value at its own point, whatever the batch around it
    rng = np.random.default_rng(3)
    pts = rng.normal(size=37) + 1j * rng.normal(size=37)
    B = bs.merged(bs.monomials(0.2, 12), bs.principal_parts(2.5 + 0.5j, 6))
    full = bs.term_matrix(B, pts)
    for k, p in enumerate(pts):
        assert full[k].tobytes() == bs.term_matrix(B, [p])[0].tobytes()


def _out_of_place_ladder(rows, step, wanted):
    """Oracle: the ladder with one new array per power, copied into its
    row."""
    cur = np.ones_like(step)
    for n in range(max(wanted) + 1):
        if n:
            cur = cur * step
        if n in wanted:
            rows[wanted[n]] = cur


@settings(max_examples=200, deadline=None)
@given(size=st.one_of(st.integers(1, 300), st.integers(4095, 4097)),
       powers=st.sets(st.integers(0, 40), min_size=1, max_size=12),
       reciprocal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_write_powers_equals_out_of_place_ladder(size, powers, reciprocal,
                                                 seed):
    # the products go straight into the rows (scratch rows for the gaps
    # between wanted powers) with the oracle's bits, at every length
    rng = np.random.default_rng(seed)
    step = rng.uniform(-1.5, 1.5, size) + 1j * rng.uniform(-1.5, 1.5, size)
    if reciprocal:
        step = 1.0 / step
    # the wanted powers' rows, scattered over a taller array
    at = rng.permutation(len(powers) + 3)
    wanted = {n: int(r) for n, r in zip(sorted(powers), at)}
    got = np.zeros((len(powers) + 3, size), dtype=complex)
    want = got.copy()
    bs._write_powers(got, step, wanted)
    _out_of_place_ladder(want, step, wanted)
    assert got.tobytes() == want.tobytes()


def _point_major_term_matrix(basis, points):
    """Oracle: the point-major layout, one strided column per term."""
    points = np.asarray(points, dtype=complex).ravel()
    out = np.empty((points.size, len(basis)), dtype=complex)
    for col, t in enumerate(basis.terms):
        step = points - t.center
        if t.n < 0:
            step = 1.0 / step
        cur = np.ones_like(step)
        for _ in range(abs(t.n)):
            cur = cur * step
        out[:, col] = cur
    return out


def _broadcast_centers(U, cells):
    """Oracle: the centers of a mask's true cells by one boolean index of
    the broadcast center axes over the whole mask."""
    out = np.empty(int(np.count_nonzero(cells)), dtype=complex)
    out.real = np.broadcast_to(U.centers_x[:, None], cells.shape)[cells]
    out.imag = np.broadcast_to(U.centers_y[None, :], cells.shape)[cells]
    return out


def _point_major_gram(basis, U, inner=None):
    """Oracle: one point-major zherk with trans='N' over every node, each
    scaled by sqrt(frac), added to zero or to an inner fit's matrix, then
    the lower triangle mirrored.  The nodes are the broadcast index of the
    cells with positive area fraction on a spec-built U, of U's mask on a
    mask-built one, and of the shell outside the inner fit's domain on a
    chained one."""
    N = len(basis)
    if U.spec is not None:
        frac = geom._area_fractions(U.spec, U.mask, U.centers_x, U.centers_y,
                                    U.h)
        cells = frac > 0
        frac = frac[cells]
    else:
        cells = U.mask if inner is None else geom.shell_mask(U, inner.domain)
        frac = np.ones(int(np.count_nonzero(cells)))
    B = _point_major_term_matrix(basis, _broadcast_centers(U, cells))
    B *= np.sqrt(frac)[:, None]
    G = (np.zeros((N, N), dtype=complex, order="F") if inner is None
         else np.array(inner.gram.matrix, order="F"))
    G = zherk(U.h * U.h, B.T, beta=1.0, c=G, overwrite_c=1)
    lower = np.tril_indices(N, -1)
    G[lower] = G.T[lower].conj()
    return G


def _banded_domain(rows):
    """A mask-built domain whose rows hold the given numbers of true cells,
    flush left."""
    mask = np.zeros((len(rows), max(rows) + 3), dtype=bool)
    for i, n in enumerate(rows):
        mask[i, 1:1 + n] = True
    return GridDomain(origin=(-0.3, -0.2), h=0.01, mask=mask)


# disc radii about CUT_CENTER whose cut cells number 8192 + r at h 0.01;
# r is then the remainder mod 128, 2048 and 4096 alike
CUT_CENTER = 0.0123 + 0.0371j
CUT_RADII = {0: 0.50446, 1: 0.50447, 127: 0.50838}
REMAINDER_CASES = tuple(f"{family}-rem-{r}" for family in ("mask", "cut-cell",
                                                           "shell")
                        for r in CUT_RADII)


def _remainder_case(name):
    """8192 + r nodes, whose last block in any blocking by a multiple of
    128 up to 4096 holds r nodes: on a mask-built domain, on a spec-built
    one with cut cells, or on the shell outside an inner fit."""
    family, r = name.rsplit("-rem-", 1)
    r = int(r)
    tail = [r] if r else []
    if family == "cut-cell":
        return (make_domain(disc(CUT_CENTER, CUT_RADII[r]), h=0.01),
                bs.monomials(CUT_CENTER, 10), None)
    basis = bs.monomials(0.3 + 0.4j, 10)
    if family == "mask":
        return _banded_domain([100] * 81 + [92] + tail), basis, None
    # 12,000 + 2,192 + r cells around an inner 6,000
    inner = _banded_domain([60] * 100)
    outer = _banded_domain([120] * 100 + [100] * 21 + [92] + tail)
    return outer, basis, kn.fit_kernel(inner, basis)


def _gram_parity_case(name):
    """U, a basis and the inner fit to chain onto (None for a whole Gram)."""
    c = 0.1 + 0.05j
    if name in REMAINDER_CASES:
        return _remainder_case(name)
    if name == "chained-shell":
        target = make_domain(disc(c, 0.9), h=0.01)
        inner, outer = interior_exhaustion(target, [0.3, 0.05]).members
        basis = bs.monomials(c, 10)
        return outer, basis, kn.fit_kernel(inner, basis)
    if name == "mid-row-block":
        # 2048 = 20 rows of 100 cells and 48 more: every block ends mid-row
        return _banded_domain([100] * 130), bs.monomials(0.3 + 0.4j, 10), None
    if name == "empty-rows":
        # empty rows first, between and last; the first two blocks end
        # exactly at the end of a row that empty rows follow
        rows = [0] * 3 + [64] * 32 + [0] * 5 + [64] * 32 + [0] * 2 + [50] * 30 + [0]
        return _banded_domain(rows), bs.monomials(0.3 + 0.4j, 10), None
    return (*_whole_gram_case(name), None)


def _whole_gram_case(name):
    c = 0.1 + 0.05j
    if name == "annulus":
        return make_domain(annulus(c, 0.4, 1), h=0.01), bs.laurent(c, 4, 8)
    if name == "disc-minus-disc":
        hole = 0.3 + 0.1j
        return (make_domain(difference(disc(0, 1), disc(hole, 0.2)), h=0.01),
                bs.merged(bs.monomials(0, 8), bs.principal_parts(hole, 4)))
    if name == "rectangle":
        return (make_domain(rectangle((0.003, 0.002), (1.2037, 0.7011)), h=0.01),
                bs.monomials(0.5 + 0.3j, 10))
    if name == "exhaustion-member":
        target = make_domain(disc(c, 0.9), h=0.01)
        return interior_exhaustion(target, [0.1]).members[0], bs.monomials(c, 10)
    if name == "annulus-member":
        target = make_domain(annulus(c, 0.4, 1), h=0.01)
        return interior_exhaustion(target, [0.05]).members[0], bs.laurent(c, 4, 8)
    if name == "two-disc":
        return (domain_union(make_domain(disc(-0.6, 0.5), h=0.01),
                             make_domain(disc(0.6, 0.5), h=0.01)),
                bs.monomials(0, 10))
    if name == "L":
        return (make_domain(L_SHAPE, h=0.01), bs.monomials(0.5 + 0.5j, 10))
    # mirror symmetric about the real axis: some off-diagonal entries come
    # out exactly real, with signed zero imaginary parts
    ladder = bs.BasisSpec(tuple(bs.PlanarTerm(0j, n) for n in range(12, 60, 3)))
    return (make_domain(union(disc(0, 0.5), annulus(0.9, 0.06, 0.12)), h=0.01),
            bs.merged(bs.monomials(0, 10), ladder, bs.principal_parts(0.9, 8)))


def test_term_matrix_is_term_major():
    B = bs.merged(bs.monomials(0.2, 7), bs.principal_parts(2.5 + 0.5j, 3))
    pts = np.linspace(-1, 1, 29) + 0.3j
    V = bs.term_matrix(B, pts)
    assert V.shape == (29, len(B))
    assert V.flags.f_contiguous
    assert V.tobytes() == _point_major_term_matrix(B, pts).tobytes()


MASK_BUILT_CASES = ("exhaustion-member", "annulus-member", "two-disc",
                    "chained-shell", "mid-row-block", "empty-rows",
                    *(n for n in REMAINDER_CASES if "cut-cell" not in n))
# unit fractions: the mask-built domains, and the spec-built L, whose edges
# lie on cell edges
UNIT_FRACTION_CASES = MASK_BUILT_CASES + ("L",)
PARITY_CASES = ("annulus", "disc-minus-disc", "rectangle", "exhaustion-member",
                "real-symmetric-union", "annulus-member", "two-disc", "L",
                "chained-shell", "mid-row-block", "empty-rows",
                *REMAINDER_CASES)
# 128 (every block one zherk panel), the shipped 2048, 4096 and one block
GRAM_BLOCKS = (128, 2048, 4096, 2 ** 30)


@pytest.mark.parametrize("name, block", [
    pytest.param(name, block,
                 id=name if block == bs.GRAM_BLOCK else f"{name}-{block}")
    for name in PARITY_CASES for block in GRAM_BLOCKS])
def test_gram_bytes_equal_point_major_assembly(monkeypatch, name, block):
    # the Gram is the bits of one point-major zherk over every node, whole
    # or chained onto an inner fit, whatever the block size and whatever
    # rows the streamed node blocks end in
    U, basis, inner = _gram_parity_case(name)
    frac = U.quadrature[1]
    # no fractions on a mask-built domain, all ones on the spec-built L,
    # cut cells elsewhere
    assert (frac is None) == (name in MASK_BUILT_CASES)
    unit = frac is None or (frac == 1.0).all()
    assert unit == (name in UNIT_FRACTION_CASES)
    assert (U.spec is None) == (name in MASK_BUILT_CASES)
    cells = (U.quadrature[0] if inner is None
             else geom.shell_mask(U, inner.domain))
    ends = np.cumsum(np.count_nonzero(cells, axis=1))
    # the cases as named at the shipped block size
    assert ends[-1] > 2 * bs.GRAM_BLOCK
    block_ends = np.arange(bs.GRAM_BLOCK, ends[-1], bs.GRAM_BLOCK)
    if name == "mid-row-block":
        assert not np.isin(block_ends, ends).any()
    if name == "empty-rows":
        at = np.searchsorted(ends, block_ends[:2])
        assert (ends[at] == block_ends[:2]).all()
        assert (ends[at + 1] == ends[at]).all()
    if name in REMAINDER_CASES:
        r = int(name.rsplit("-", 1)[1])
        assert ends[-1] == 8192 + r
        assert ends[-1] % bs.GRAM_ALIGN == ends[-1] % bs.GRAM_BLOCK == r
    monkeypatch.setattr(bs, "GRAM_BLOCK", block)
    G = bs.gram_matrix(basis, U, inner=inner).matrix
    oracle = _point_major_gram(basis, U, inner)
    # tobytes compares signed zeros too: +0.0 on the diagonal's imaginary
    # parts and on the upper triangle's exactly real entries, -0.0 on
    # their lower mirrors
    assert G.tobytes() == oracle.tobytes()
    assert G.flags.f_contiguous
    if name == "real-symmetric-union":
        assert (G[np.triu_indices(G.shape[0], 1)].imag == 0).any()


@pytest.mark.parametrize("block", [128, 256, 2048, 4096])
@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 2047, 2048, 2049, 4223,
                               4224, 82035])
def test_gram_edges_are_aligned_and_end_with_no_short_block(monkeypatch, n,
                                                            block):
    # every block a whole number of zherk panels, but the last, which holds
    # at least one panel unless it is the only block
    monkeypatch.setattr(bs, "GRAM_BLOCK", block)
    edges = bs._gram_edges(n)
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == n and (sizes > 0).all()
    assert (sizes[:-1] == block).all()
    assert len(sizes) <= 1 or bs.GRAM_ALIGN <= sizes[-1] < block + bs.GRAM_ALIGN


def test_mask_built_gram_holds_one_term_block_at_a_time(traced_peak):
    # one term block of the largest block's nodes x N values (a short last
    # block joins the one before it), plus one slab of SLAB_CELLS complex
    # values: the block's nodes and term_matrix's three ladder vectors,
    # one block each; 32 KB covers the accumulator, two partial rows of
    # nodes and interpreter objects.  The whole node array and two term
    # blocks held at once would exceed it.
    target = make_domain(disc(0.1 + 0.05j, 0.9), h=0.01)
    member = interior_exhaustion(target, [0.1]).members[0]
    assert member.cell_count > 3 * bs.GRAM_BLOCK
    basis = bs.monomials(0.1 + 0.05j, 10)
    peak = traced_peak(lambda: bs.gram_matrix(basis, member))
    term_block = max(np.diff(bs._gram_edges(member.cell_count))) * len(basis) * 16
    assert peak < term_block + geom.SLAB_CELLS * 16 + 32 * 1024


def _nested_sequence(name):
    """Members of a nested sequence, innermost first, and a basis."""
    c = 0.1 + 0.05j
    if name == "disc-exhaustion":
        target = make_domain(disc(c, 0.9), h=0.01)
        return (interior_exhaustion(target, [0.2, 0.1, 0.05]).members,
                bs.monomials(c, 10))
    if name == "annulus-exhaustion":
        target = make_domain(annulus(c, 0.4, 1), h=0.01)
        return (interior_exhaustion(target, [0.1, 0.05, 0.02]).members,
                bs.laurent(c, 4, 8))
    # a barbell's members shrink with the neck width
    G = make_domain(disc(-2, 1), h=0.02)
    D = make_domain(annulus(2, 0.5, 1), h=0.02)
    seq = barbell_sequence(G, D, (-1 + 0j, 1 + 0j), [0.4, 0.2, 0.1])
    return (seq.members[::-1],
            bs.merged(bs.monomials(-2, 10), bs.principal_parts(2, 10)))


@pytest.mark.parametrize("name", ["disc-exhaustion", "annulus-exhaustion",
                                  "barbell"])
def test_chained_gram_matches_each_members_own(name):
    # each member's own Gram is the oracle: the innermost is its to the
    # bit, and each outer one, summed in another order, to rounding
    members, basis = _nested_sequence(name)
    inner = None
    for k, member in enumerate(members):
        oracle = bs.gram_matrix(basis, member).matrix
        model = kn.fit_kernel(member, basis, inner=inner)
        G = model.gram.matrix
        if k == 0:
            assert G.tobytes() == oracle.tobytes()
        else:
            assert member.cell_count > inner.domain.cell_count
            assert np.abs(G - oracle).max() <= 1e-14 * np.abs(oracle).max()
        assert (G == G.conj().T).all()
        inner = model


def _chain_error_case(name):
    """U, basis and an inner fit that does not chain onto U."""
    c = 0.1 + 0.05j
    h = 0.02
    target = make_domain(disc(c, 0.9), h=h)
    small, big = interior_exhaustion(target, [0.2, 0.1]).members
    basis = bs.monomials(c, 6)
    if name == "not-nested":
        return small, basis, kn.fit_kernel(big, basis)
    if name == "other-lattice":
        shifted = GridDomain(origin=(small.origin[0] + h / 2, small.origin[1]),
                             h=h, mask=small.mask)
        return big, basis, kn.fit_kernel(shifted, basis)
    if name == "other-basis":
        return big, basis, kn.fit_kernel(small, bs.monomials(c, 5))
    if name == "spec-built-U":
        return target, basis, kn.fit_kernel(small, basis)
    if name == "spec-built-inner":
        return big, basis, kn.fit_kernel(make_domain(disc(c, 0.5), h=h), basis)
    profile = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.05)
    window = bs.reinhardt_window(0, 2, 2)
    return profile, window, kn.fit_kernel(profile, window)


@pytest.mark.parametrize("name, match", [
    ("not-nested", "not nested"),
    ("other-lattice", "share a lattice"),
    ("other-basis", "another basis"),
    ("spec-built-U", "mask-built"),
    ("spec-built-inner", "mask-built"),
    ("reinhardt-basis", "planar basis"),
])
def test_gram_rejects_an_inner_fit_that_does_not_chain(name, match):
    U, basis, inner = _chain_error_case(name)
    with pytest.raises(bs.BasisError, match=match):
        bs.gram_matrix(basis, U, inner=inner)


def _random_factor(n=9, seed=5):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = A @ A.conj().T + n * np.eye(n)
    return H, bs.factorize(bs.GramMatrix(matrix=H, conditioning=1.0))


def test_whiten_equals_solve_triangular_bytes():
    _, F = _random_factor()
    rng = np.random.default_rng(8)
    L = np.asarray(F.lower)
    one = rng.normal(size=F.n) + 1j * rng.normal(size=F.n)
    want = sla.solve_triangular(L, one / F.scale, lower=True)
    assert F.whiten(one).tobytes() == want.tobytes()
    many = rng.normal(size=(40, F.n)) + 1j * rng.normal(size=(40, F.n))
    want = sla.solve_triangular(L, (many / F.scale).T, lower=True)
    assert F.whiten(many).tobytes() == want.tobytes()
    # a term-major view of the same values whitens to the same bytes
    assert F.whiten(np.asfortranarray(many)).tobytes() == want.tobytes()
    # leading axes fold into columns, in C order
    cube = many.reshape(4, 10, F.n)
    assert F.whiten(cube).shape == (F.n, 4, 10)
    assert F.whiten(cube).reshape(F.n, -1).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_whiten_rejects_non_finite_values(bad):
    _, F = _random_factor()
    values = np.ones((3, F.n), dtype=complex)
    values[1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        F.whiten(values)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        F.whiten(values[1])


def test_non_finite_factor_rejected_at_construction():
    _, F = _random_factor()
    L = np.array(F.lower)
    L[3, 1] = np.nan
    with pytest.raises(ValueError):
        bs.GramFactor(lower=L, scale=np.array(F.scale))


BLAS_THREADS_CHILD = """
import hashlib
import numpy as np
from blab import basis as bs, kernel as kn
from blab.geom import annulus, disc, make_domain, union
h = 0.005
U = make_domain(union(disc(0, 0.5), annulus(0.9, 0.06, 0.12)), h=h)
# a nowhere-density style basis: a window, a ladder of high degrees that
# localizes on the far lobe, and principal parts at its hole
ladder = bs.BasisSpec(tuple(bs.PlanarTerm(0j, n) for n in range(12, 45, 3)))
basis = bs.merged(bs.monomials(0, 10), ladder, bs.principal_parts(0.9, 13))
G = bs.gram_matrix(basis, U)
model = kn.fit_kernel(U, basis)
ref = kn.closed_form(disc(0, 0.5), truncation=10, h=h)
D = make_domain(disc(0, 0.5), h)
# a two-model call: both models are compared with one set of reference rows
errs = kn.kernel_error([model, kn.fit_kernel(D, bs.monomials(0, 10))], ref,
                       margin=0.1, domain=D)
# the z probe lattice of that kernel_error, whitened in one LAPACK call
V = model.whitened(kn._probe_centers(D, kn.compact_cells(D, 0.1), 4))
# an annulus closed form at an array of w: one product of feature matrices
A = kn.closed_form(annulus(0.9, 0.06, 0.12), truncation=13)
R = make_domain(annulus(0.9, 0.06, 0.12), h)
ring = R.centers_of(R.mask)
rows = A.eval_many(ring, ring[::10])
print(np.count_nonzero(U.quadrature[0]), G.n, V.shape[1], rows.size)
print(hashlib.sha256(G.matrix.tobytes()).hexdigest())
print(hashlib.sha256(V.tobytes()).hexdigest())
print(hashlib.sha256(rows.tobytes()).hexdigest())
print(*(float(e).hex() for e in errs))
"""


def test_gram_and_kernel_error_bytes_independent_of_blas_threads():
    src = str(Path(bs.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD],
                             env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        outs.append(run.stdout)
    n_nodes, n_terms, n_whitened, n_rows = map(int, outs[0].split()[:4])
    assert n_nodes >= 2 * bs.GRAM_BLOCK
    assert n_terms >= 35
    assert n_whitened >= 1000
    assert n_rows >= 100_000
    assert outs[0] == outs[1]


def test_spec_gram_weights_cut_cells():
    # a domain rasterized from a spec integrates over every cell the shape
    # meets, weighted by its covered fraction: the area is near exact
    U = make_domain(disc(0, 1), h=0.02)
    cells, frac = U.quadrature
    assert np.count_nonzero(cells) == frac.size > U.cell_count
    assert (cells >= U.mask).all()
    assert ((frac > 0) & (frac <= 1)).all()
    area = bs.gram_matrix(bs.monomials(0, 0), U).matrix[0, 0].real
    assert area == pytest.approx(np.pi, abs=1e-4)
    assert abs(U.cell_count * U.h ** 2 - np.pi) > 1e-3


def test_spec_built_domain_keeps_no_node_array():
    # a spec-built domain keeps one read-only quadrature record, its cell
    # mask and cut-cell fractions; a fit reads the nodes from the mask block
    # by block and leaves no complex array on the domain
    U = make_domain(annulus(0, 0.4, 1), h=0.02)
    kn.fit_kernel(U, bs.laurent(0, 2, 4))
    cells, frac = U.quadrature
    assert U.quadrature[0] is cells
    assert not cells.flags.writeable and not frac.flags.writeable
    kept = [a for v in vars(U).values()
            for a in (v if isinstance(v, tuple) else (v,))]
    assert not any(isinstance(a, np.ndarray) and a.dtype == complex
                   for a in kept)


def test_off_diagonal_decays_with_h():
    # exponents 0 and 4 on a disc: the integral vanishes and the quadrature
    # error decays at least linearly in h.  The center sits slightly off the
    # lattice symmetry axes, otherwise fourfold cancellation leaves only
    # noise-level errors with no clean trend.
    center = 0.013 + 0.007j
    B = bs.BasisSpec((bs.PlanarTerm(center, 0), bs.PlanarTerm(center, 4)))
    errs = []
    for h in (0.04, 0.01):
        U = make_domain(disc(center, 1), h=h)
        errs.append(abs(bs.gram_matrix(B, U).matrix[0, 1]))
    assert errs[1] <= errs[0] / 4


@pytest.mark.parametrize("pole", [0j, -0.98209 - 0.14880j],
                         ids=["center", "cut-cell"])
def test_negative_power_rejected_with_center_inside_the_domain(pole):
    # the cut-cell pole lies inside the disc (|p| = 0.9933) in a cut cell
    # whose center lies outside it: the cell still holds a quadrature node
    U = make_domain(disc(0, 1), h=0.02)
    with pytest.raises(bs.BasisError):
        bs.gram_matrix(bs.principal_parts(pole, 1), U)


def test_first_inadmissible_pole_names_the_error():
    # poles are tested in first-appearance order, so of two poles inside
    # the disc the one whose term comes first is named
    U = make_domain(disc(0, 1), h=0.02)
    basis = bs.merged(bs.principal_parts(5, 2), bs.principal_parts(0.1, 2),
                      bs.principal_parts(0, 1), bs.principal_parts(0.1 + 3j, 1))
    with pytest.raises(bs.BasisError, match=re.escape(f"at {0.1 + 0j} is")):
        bs.check_admissible(basis, U)


@pytest.mark.parametrize("degree, pole, n_neg, on_array",
                         [(6, 0.9 + 0.9j, 2, True), (4, 5 + 0j, 1, False)],
                         ids=["on-the-array", "off-the-array"])
def test_negative_power_admissible_in_the_unbounded_complement(degree, pole,
                                                               n_neg, on_array):
    # a pole outside the disc and clear of its cut cells gives a term
    # bounded on it, whether the pole's cell is on the domain's array (the
    # bounding-box corner) or not; the far pole's term is nearly a
    # polynomial on the disc, so it takes fewer monomials to stay well
    # conditioned
    U = make_domain(disc(0, 1), h=0.02)
    assert (U.cell_of(pole) is not None) == on_array
    model = kn.fit_kernel(U, bs.merged(bs.monomials(0, degree),
                                       bs.principal_parts(pole, n_neg)))
    assert all(kn.reproducing_residual(model, i) <= 1e-10
               for i in range(model.n_terms))


def test_negative_power_rejected_with_pole_on_a_node():
    # a hole narrower than a cell, centered on a cell center: that cut cell
    # is a quadrature node sitting on the pole
    c = 0.005 + 0.005j
    U = make_domain(annulus(c, 0.004, 1), h=0.01)
    assert U.labels_at(c) == 0
    with pytest.raises(bs.BasisError):
        bs.gram_matrix(bs.laurent(c, 1, 1), U)


def test_negative_power_admissible_on_annulus(annulus_dom):
    G = bs.gram_matrix(bs.laurent(0, 2, 2), annulus_dom)
    assert G.n == 5


def test_reinhardt_gram_is_diagonal_with_radial_moments():
    U = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.005)
    B = bs.reinhardt_window(0, 2, 2)
    G = bs.gram_matrix(B, U).matrix
    off = G - np.diag(np.diag(G))
    assert (off == 0).all()
    for i, t in enumerate(B.terms):
        expected = np.pi ** 2 / ((t.a + 1) * (t.b + 1))  # polydisc moments
        assert G[i, i].real == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("slab", [1, 7, 2 ** 14])
def test_reinhardt_gram_bytes_equal_whole_mask_sums(monkeypatch, slab):
    # the diagonal filled row slab by row slab is the one sum over the
    # whole mask's radii to the bit, wherever the slabs end
    monkeypatch.setattr(geom, "SLAB_CELLS", slab)
    for spec, h, B in (
            (rectangle((0, 0), (1, 1)), 0.02, bs.reinhardt_window(0, 3, 3)),
            (rectangle((0.5, 0), (1, 0.05)), 0.01, bs.reinhardt_window(-2, 2, 1)),
            (disc(0, 1), 0.013, bs.reinhardt_window(0, 4, 2))):
        U = make_domain(reinhardt_profile(spec), h=h)
        ii, jj = np.nonzero(U.mask)
        r1, r2 = U.centers_x[ii], U.centers_y[jj]
        w = (2 * np.pi) ** 2 * U.h * U.h
        want = [np.sum(r1 ** (2 * t.a + 1) * r2 ** (2 * t.b + 1)) * w
                for t in B.terms]
        got = np.diag(bs.gram_matrix(B, U).matrix)
        assert got.real.tobytes() == np.array(want).tobytes()
        assert (got.imag == 0).all()


def test_reinhardt_gram_holds_one_value_array(traced_peak):
    # one float per true cell and a slab of temporaries: the whole mask's
    # index arrays, radii and per-term powers would hold 48 bytes a cell
    U = make_domain(reinhardt_profile(disc(0, 1)), h=0.002)
    B = bs.reinhardt_window(0, 3, 3)
    peak = traced_peak(lambda: bs.gram_matrix(B, U))
    assert peak < 16 * U.cell_count


def test_reinhardt_laurent_needs_excluded_axis():
    poly = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.02)
    ring = make_domain(reinhardt_profile(rectangle((0.5, 0), (1, 1))), h=0.02)
    B = bs.reinhardt_window(-2, 2, 1)
    with pytest.raises(bs.BasisError):
        bs.gram_matrix(B, poly)
    G = bs.gram_matrix(B, ring)
    assert G.n == len(B)


def test_reinhardt_b_negative_rejected():
    with pytest.raises(bs.BasisError):
        bs.ReinhardtTerm(0, -1)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factorize_diagonal_gram():
    d = np.array([np.pi, 0.5, 2.0])
    G = bs.GramMatrix(matrix=np.diag(d).astype(complex), conditioning=4.0)
    F = bs.factorize(G)
    # normalized cholesky of the identity
    assert np.allclose(F.lower, np.eye(3))
    assert np.allclose(F.scale, np.sqrt(d))


def test_factorize_one_by_one():
    G = bs.GramMatrix(matrix=np.array([[np.pi + 0j]]), conditioning=1.0)
    F = bs.factorize(G)
    assert F.scale[0] == pytest.approx(np.sqrt(np.pi))


def test_solve_residual_on_random_admissible_gram():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(60, 8)) + 1j * rng.normal(size=(60, 8))
    M = A.conj().T @ A / 60
    M = (M + M.conj().T) / 2
    G = bs.GramMatrix(matrix=M, conditioning=bs._normalized_cond(M))
    F = bs.factorize(G)
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    x = F.solve(e0)
    assert np.linalg.norm(M @ x - e0) <= 1e-8 * np.linalg.norm(e0)


@pytest.mark.parametrize("M", [
    np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex),
    -np.eye(2, dtype=complex) * 1e6,
], ids=["singular", "negative-definite"])
def test_factorize_fails_on_first_cholesky_failure(M):
    G = bs.GramMatrix(matrix=M, conditioning=np.inf)
    with pytest.raises(bs.FactorizationError):
        bs.factorize(G)

