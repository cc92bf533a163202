"""Gram assembly against one-dimensional radial quadrature oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from blab import basis as bs
from blab.geom import (annulus, disc, interior_exhaustion, make_domain, rectangle,
                       reinhardt_profile)


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
    V = make_domain(disc(0, 1), h=h, bounds=(-2, -2, 2, 2))
    B = bs.monomials(0, 6)
    assert (bs.gram_matrix(B, U).matrix == bs.gram_matrix(B, V).matrix).all()


def test_mask_built_gram_is_plain_midpoint_sum():
    # a domain built from a mask alone carries unit cell weights: its
    # quadrature is exactly the true cell centers with fraction 1, and its
    # Gram is the per-entry midpoint sum up to summation order
    target = make_domain(disc(0.1 + 0.05j, 0.9), h=0.02)
    member = interior_exhaustion(target, [0.1]).members[0]
    nodes, frac = member.quadrature
    assert (nodes == member.true_centers).all()
    assert (frac == 1.0).all()
    B = bs.monomials(0.1 + 0.05j, 6)
    G = bs.gram_matrix(B, member).matrix
    V = bs.term_matrix(B, member.true_centers)
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


BLAS_THREADS_CHILD = """
import hashlib
import numpy as np
from blab import basis as bs, kernel as kn
from blab.geom import annulus, disc, make_domain, union
h = 0.005
U = make_domain(union(disc(0, 0.5), annulus(0.9, 0.06, 0.12)), h=h)
# a nowhere-density style basis: a window, a ladder of high degrees that
# localizes on the far lobe, and principal parts at its hole
ladder = bs.BasisSpec(tuple(bs.PlanarTerm(0j, n) for n in range(12, 60, 3)))
basis = bs.merged(bs.monomials(0, 10), ladder, bs.principal_parts(0.9, 8))
G = bs.gram_matrix(basis, U)
model = kn.fit_kernel(U, basis)
ref = kn.closed_form(disc(0, 0.5), truncation=10, h=h)
err = kn.kernel_error(model, ref, margin=0.1, domain=make_domain(disc(0, 0.5), h))
print(U.quadrature[0].size, G.n)
print(hashlib.sha256(G.matrix.tobytes()).hexdigest())
print(float(err).hex())
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
    n_nodes, n_terms = map(int, outs[0].split()[:2])
    assert n_nodes >= 2 * bs.GRAM_BLOCK
    assert n_terms >= 35
    assert outs[0] == outs[1]


def test_spec_gram_weights_cut_cells():
    # a domain rasterized from a spec integrates over every cell the shape
    # meets, weighted by its covered fraction: the area is near exact
    U = make_domain(disc(0, 1), h=0.02)
    nodes, frac = U.quadrature
    assert nodes.size > U.cell_count
    assert ((frac > 0) & (frac <= 1)).all()
    area = bs.gram_matrix(bs.monomials(0, 0), U).matrix[0, 0].real
    assert area == pytest.approx(np.pi, abs=1e-4)
    assert abs(U.cell_count * U.h ** 2 - np.pi) > 1e-3


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


def test_negative_power_needs_bounded_hole():
    U = make_domain(disc(0, 1), h=0.02)
    with pytest.raises(bs.BasisError):
        bs.gram_matrix(bs.laurent(0, 1, 1), U)          # center inside the domain
    with pytest.raises(bs.BasisError):
        bs.gram_matrix(bs.laurent(5 + 0j, 1, 1), U)     # unbounded complement


def test_negative_power_rejected_with_pole_on_a_node():
    # a hole narrower than a cell, centered on a cell center: that cut cell
    # is a quadrature node sitting on the pole
    c = 0.005 + 0.005j
    U = make_domain(annulus(c, 0.004, 1), h=0.01)
    assert not U.contains(c)
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
    G = bs.GramMatrix(matrix=np.diag(d).astype(complex),
                      basis=bs.monomials(0, 2), conditioning=4.0)
    F = bs.factorize(G)
    # normalized cholesky of the identity
    assert np.allclose(F.lower, np.eye(3))
    assert np.allclose(F.scale, np.sqrt(d))
    assert not F.regularized


def test_factorize_one_by_one():
    G = bs.GramMatrix(matrix=np.array([[np.pi + 0j]]),
                      basis=bs.monomials(0, 0), conditioning=1.0)
    F = bs.factorize(G)
    assert F.scale[0] == pytest.approx(np.sqrt(np.pi))


def test_solve_residual_on_random_admissible_gram():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(60, 8)) + 1j * rng.normal(size=(60, 8))
    M = A.conj().T @ A / 60
    M = (M + M.conj().T) / 2
    G = bs.GramMatrix(matrix=M, basis=bs.monomials(0, 7),
                      conditioning=bs._normalized_cond(M))
    F = bs.factorize(G)
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    x = F.solve(e0)
    assert np.linalg.norm(M @ x - e0) <= 1e-8 * np.linalg.norm(e0)


def test_factorize_regularizes_then_fails_on_dependence():
    # an exactly singular Hermitian matrix: retry shifts the diagonal, and the
    # shifted matrix factorizes with the shift recorded
    M = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    G = bs.GramMatrix(matrix=M, basis=bs.monomials(0, 1), conditioning=np.inf)
    F = bs.factorize(G)
    assert F.regularized and F.shift > 0

    # negative definite cannot factorize at all
    Gbad = bs.GramMatrix(matrix=-np.eye(2, dtype=complex) * 1e6,
                         basis=bs.monomials(0, 1), conditioning=1.0)
    with pytest.raises(bs.FactorizationError):
        bs.factorize(Gbad)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_basis_text_round_trip(tmp_path):
    B = bs.merged(bs.monomials(0.5 + 0.25j, 3), bs.laurent(2 + 0j, 2, 0).subset([0, 1]))
    path = tmp_path / "basis.txt"
    bs.save_basis(B, path)
    assert bs.load_basis(path) == B


def test_gram_text_round_trip(tmp_path):
    U = make_domain(disc(0, 1), h=0.05)
    G = bs.gram_matrix(bs.monomials(0, 3), U)
    path = tmp_path / "gram.txt"
    bs.save_gram(G, path)
    M = bs.load_gram_matrix(path)
    assert (M == G.matrix).all()


def test_reinhardt_basis_text_round_trip(tmp_path):
    B = bs.reinhardt_window(-3, 3, 2)
    path = tmp_path / "rbasis.txt"
    bs.save_basis(B, path)
    loaded = bs.load_basis(path)
    assert loaded == B
    assert loaded.kind == "reinhardt-profile"


def test_numpy_typed_centers_serialize_cleanly(tmp_path):
    c = np.complex128(0.25 + 0.5j)
    B = bs.BasisSpec((bs.PlanarTerm(c, 0), bs.PlanarTerm(c, 2)))
    path = tmp_path / "np_basis.txt"
    bs.save_basis(B, path)
    loaded = bs.load_basis(path)
    assert [t.n for t in loaded.terms] == [0, 2]
    assert loaded.terms[0].center == complex(c)
