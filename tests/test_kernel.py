"""Fitted kernels against closed-form oracles, and the kernel algebra."""

import math

import numpy as np
import pytest

from blab import basis as bs
from blab import kernel as kn
from blab import zeros
from blab.geom import (annulus, barbell_sequence, disc, interior_exhaustion,
                       make_domain, rectangle, reinhardt_profile, union)


@pytest.fixture(scope="module")
def disc_model():
    U = make_domain(disc(0, 1), h=0.005)
    return kn.fit_kernel(U, bs.monomials(0, 8))


@pytest.fixture(scope="module")
def annulus_model():
    U = make_domain(annulus(0, 0.5, 1), h=0.005)
    return kn.fit_kernel(U, bs.laurent(0, 12, 12))


@pytest.fixture(scope="module")
def two_disc_model():
    U = make_domain(union(disc(-2, 0.8), disc(2, 0.8)), h=0.02)
    return kn.fit_kernel(U, bs.monomials(0, 10))


# ---------------------------------------------------------------------------
# fit_kernel against the disc oracle
# ---------------------------------------------------------------------------

def test_disc_kernel_at_origin(disc_model):
    # oracle: orthonormal series sums to 1/pi at the center
    assert disc_model.eval(0, 0).real == pytest.approx(1 / np.pi, abs=1e-3)


def test_disc_kernel_interior_value(disc_model):
    # oracle: series sum at s = 0.06 equals 1/(pi (1 - 0.06)^2) up to a tail
    # below 1e-10
    expected = 1 / (np.pi * (1 - 0.3 * 0.2) ** 2)
    assert expected == pytest.approx(0.3602, abs=1e-4)
    assert disc_model.eval(0.3, 0.2).real == pytest.approx(expected, abs=1e-3)


def test_cross_component_pairs_evaluate_to_exact_zero(two_disc_model):
    assert two_disc_model.eval(-2.1, 2.2) == 0.0
    assert two_disc_model.eval(2.2, -2.1) == 0.0
    assert two_disc_model.eval(-2.1, -1.8) != 0.0


def _scalar_w_oracle(model, zs, w):
    """A scalar-w row by its own single-column whitening and one
    matrix-vector product, zero across components."""
    bw = bs.term_matrix(model.basis, np.array([w]))[0]
    row = np.conj(model.factor.whiten(bw)) @ model.whitened(zs)
    labels = model.domain.labels_at(zs)
    row[labels != model.domain.labels_at(np.array([w]))[0]] = 0.0
    return row


@pytest.mark.parametrize("fixture_name",
                         ["disc_model", "annulus_model", "two_disc_model"])
def test_scalar_w_row_equals_single_column_oracle(fixture_name, request):
    # every scan, winding and certificate reads scalar-w rows: they keep
    # the bits of a one-column solve and a matrix-vector product
    model = request.getfixturevalue(fixture_name)
    zs = interior_points(model.domain, 257, seed=23)
    for w in interior_points(model.domain, 12, seed=24):
        want = _scalar_w_oracle(model, zs, w)
        got = model.eval_many(zs, w)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if model.domain.n_components > 1:
        assert (got == 0).any() and (got != 0).any()


def test_eval_outside_domain_raises(disc_model):
    with pytest.raises(kn.OutsideDomainError):
        disc_model.eval(1.5, 0)
    with pytest.raises(kn.OutsideDomainError):
        disc_model.eval(0, 1.5 + 1j)


# ---------------------------------------------------------------------------
# kernel algebra on random probes
# ---------------------------------------------------------------------------

def interior_points(domain, n, seed):
    rng = np.random.default_rng(seed)
    cells = domain.centers_of(domain.mask)
    idx = rng.choice(cells.size, size=n, replace=True)
    return cells[idx]


@pytest.mark.parametrize("fixture_name", ["disc_model", "annulus_model"])
def test_hermitian_symmetry_exact(fixture_name, request):
    model = request.getfixturevalue(fixture_name)
    zs = interior_points(model.domain, 60, seed=5)
    ws = interior_points(model.domain, 60, seed=6)
    for z, w in zip(zs, ws):
        assert model.eval(z, w) == np.conj(model.eval(w, z))


def test_diagonal_positive(disc_model):
    zs = interior_points(disc_model.domain, 500, seed=7)
    assert (disc_model.diagonal(zs) > 0).all()


def test_cauchy_schwarz_bound(annulus_model):
    zs = interior_points(annulus_model.domain, 1000, seed=8)
    ws = interior_points(annulus_model.domain, 1000, seed=9)
    dz = annulus_model.diagonal(zs)
    dw = annulus_model.diagonal(ws)
    for z, w, a, b in zip(zs, ws, dz, dw):
        assert abs(annulus_model.eval(z, w)) ** 2 <= a * b * (1 + 1e-12)


def test_basis_growth_raises_diagonal():
    U = make_domain(rectangle((-0.5, -0.5), (0.5, 0.5)), h=0.01)
    small = kn.fit_kernel(U, bs.monomials(0, 6))
    large = kn.fit_kernel(U, bs.monomials(0, 10))
    zs = interior_points(U, 300, seed=10)
    d_small = small.diagonal(zs)
    d_large = large.diagonal(zs)
    assert (d_large >= d_small - 1e-9).all()


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_disc_origin():
    K = kn.closed_form(disc(0, 1))
    assert K.eval(0, 0).real == pytest.approx(1 / np.pi, rel=1e-12)


def test_closed_form_disc_truncated_matches_series():
    K = kn.closed_form(disc(0, 1), truncation=9)
    s = 0.3 * np.conj(0.5 + 0.2j)
    oracle = sum((n + 1) * s ** n for n in range(10)) / np.pi
    assert K.eval(0.3, 0.5 + 0.2j) == pytest.approx(oracle, rel=1e-12)


def test_annulus_series_matches_naive_sum():
    K = kn.closed_form(annulus(0, 0.5, 1), truncation=24)
    z, w = 0.7 + 0.1j, -0.6 + 0.3j
    s = z * np.conj(w)

    def coeff(n):
        if n == -1:
            return 1 / (2 * np.pi * np.log(2))
        return (n + 1) / (np.pi * (1 - 0.5 ** (2 * n + 2)))

    oracle = sum(coeff(n) * s ** n for n in range(-24, 25))
    assert K.eval(z, w) == pytest.approx(oracle, rel=1e-10)


def test_annulus_scaling_law():
    lam = 0.0625
    big = kn.closed_form(annulus(0, 0.5, 1), truncation=64)
    tiny = kn.closed_form(annulus(0, 0.5 * lam, lam), truncation=64)
    z, w = 0.8, -0.7 + 0.1j
    assert tiny.eval(lam * z, lam * w) == pytest.approx(
        big.eval(z, w) / lam ** 2, rel=1e-9)


def test_annulus_tail_bound_is_a_bound():
    M = 16
    K = kn.closed_form(annulus(0, 0.5, 1), truncation=M)
    K_big = kn.closed_form(annulus(0, 0.5, 1), truncation=200)
    for s_abs in (0.3, 0.5, 0.8):
        z = np.sqrt(s_abs)
        actual_tail = abs(K.eval(z, z) - K_big.eval(z, z))
        assert actual_tail <= K.tail_bound(s_abs)


def _abs_series_at(K, s_abs):
    """sum_n |c_n| |s|^n over the truncated Laurent series, term by term,
    as the oracle of the annulus error estimate."""
    u = s_abs / K.R ** 2
    v = K.rho ** 2 / s_abs
    n = np.arange(K.truncation + 1, dtype=float)
    m = np.arange(1, K.truncation + 1, dtype=float)
    return float((K._pos_coefs() * u ** n).sum()
                 + (K._neg_coefs() * v ** m).sum())


@pytest.mark.parametrize("rho", [0.5, 0.1, 0.001])
@pytest.mark.parametrize("truncation", [None, 12, 64])
def test_annulus_error_estimate_is_the_absolute_term_sum(rho, truncation):
    c = 0.2 - 0.3j
    K = kn.closed_form(annulus(c, rho, 1.0), truncation=truncation)
    for w in c + np.geomspace(rho, 1.0, 27)[1:-1] * np.exp(0.7j):
        wr = abs(w - c)
        want = kn.EVAL_ERROR_COEFF * (1.0 + max(_abs_series_at(K, wr * rho),
                                                _abs_series_at(K, wr)))
        got = K.eval_error_estimate(w)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_annulus_auto_truncation_meets_tolerance():
    M = kn.annulus_auto_truncation(0.5, 1.0)
    K = kn.closed_form(annulus(0, 0.5, 1))
    assert K.truncation == M
    assert K.tail_bound((0.95) ** 2) < 1e-10
    assert K.tail_bound((1.05 * 0.5) ** 2) < 1e-10


def test_annulus_sign_change_location():
    # oracle: bisection on the truncated real series; the root stabilizes
    # against doubling the truncation
    K = kn.closed_form(annulus(0, 0.5, 1), truncation=128)
    K2 = kn.closed_form(annulus(0, 0.5, 1), truncation=256)
    roots = [r for r in K.diagonal_sign_changes() if -1 < r < -0.5]
    roots2 = [r for r in K2.diagonal_sign_changes() if -1 < r < -0.5]
    assert len(roots) == 1 and len(roots2) == 1
    assert roots[0] == pytest.approx(roots2[0], abs=1e-9)
    assert roots[0] == pytest.approx(-0.7071069855, abs=1e-6)


def test_annulus_rejects_tiny_truncation():
    with pytest.raises(kn.KernelError):
        kn.closed_form(annulus(0, 0.5, 1), truncation=4)


def test_product_kernel_zero_follows_annulus_factor():
    prod = kn.closed_form({"shape": "product",
                           "factors": [annulus(0, 0.5, 1), disc(0, 1)]},
                          truncation=96)
    s_star = -0.7071069855
    w1 = 0.8
    z1 = s_star / w1
    val = prod.eval((z1, 0.3), (w1, 0.3))
    assert abs(val) < 1e-6
    assert abs(prod.eval((0.7, 0.3), (w1, 0.3))) > 1e-3


def test_polydisc_closed_form():
    spec = {"shape": "product", "factors": [disc(0, 1), disc(0, 1)]}
    K = kn.closed_form(spec)
    assert K.eval((0, 0), (0, 0)).real == pytest.approx(1 / np.pi ** 2, rel=1e-12)
    # a product's factors carry no grid, and no grid is built for it
    assert all(f.domain is None for f in K.factors)
    with pytest.raises(kn.KernelError, match="no grid"):
        kn.closed_form(spec, h=0.05)


# ---------------------------------------------------------------------------
# extremal characterization
# ---------------------------------------------------------------------------

def test_extremal_constant_basis_by_hand():
    # span {1} on the unit disc: maximize c subject to c >= pi c^2 gives 1/pi
    U = make_domain(disc(0, 1), h=0.01)
    model = kn.fit_kernel(U, bs.monomials(0, 0))
    value, coeffs = kn.extremal_value(model, 0)
    assert value == pytest.approx(1 / np.pi, abs=1e-3)
    assert coeffs.shape == (1,)


def test_extremal_equals_diagonal(disc_model, annulus_model):
    for model, pts in ((disc_model, [0, 0.3 + 0.2j, -0.5j]),
                       (annulus_model, [0.7, -0.6 + 0.3j])):
        for z in pts:
            value, _ = kn.extremal_value(model, z)
            diag = model.diagonal(np.array([z]))[0]
            assert value == pytest.approx(diag, rel=1e-8)


def test_extremal_disc_half(disc_model):
    value, _ = kn.extremal_value(disc_model, 0.5)
    assert value == pytest.approx(1 / (np.pi * 0.75 ** 2), abs=1e-2)


# ---------------------------------------------------------------------------
# reproducing residual
# ---------------------------------------------------------------------------

def test_reproducing_residual_matched_quadrature():
    U = make_domain(disc(0, 1), h=0.02)
    model = kn.fit_kernel(U, bs.monomials(0, 6))
    for i in range(model.n_terms):
        assert kn.reproducing_residual(model, i) <= 1e-6
    assert kn.reproducing_residual(model, 0) <= 1e-8


def test_reproducing_residual_mismatched_quadrature_decreases():
    residuals = []
    for h in (0.04, 0.02):
        U = make_domain(disc(0, 1), h=h)
        model = kn.fit_kernel(U, bs.monomials(0, 4))
        finer = make_domain(disc(0, 1), h=h / 2)
        residuals.append(kn.reproducing_residual(model, 2, quadrature=finer))
    assert residuals[0] > 1e-7       # mismatch is visible
    assert residuals[1] < residuals[0]


def test_reproducing_residual_bad_index(disc_model):
    with pytest.raises(kn.KernelError):
        kn.reproducing_residual(disc_model, 99)


# ---------------------------------------------------------------------------
# kernel_error
# ---------------------------------------------------------------------------

def test_kernel_error_model_vs_itself(disc_model):
    assert kn.kernel_error([disc_model], disc_model, margin=0.3)[0] == 0.0


def test_disc_fit_matches_matched_truncation(disc_model):
    ref = kn.closed_form(disc(0, 1), truncation=8, h=disc_model.domain.h)
    err = kn.kernel_error([disc_model], ref, margin=0.2)[0]
    assert err <= 1e-2


def test_annulus_fit_close_to_matched_truncation(annulus_model):
    # ceiling at h = 0.005; with cut-cell quadrature the fit measures 3.4e-3
    ref = kn.closed_form(annulus(0, 0.5, 1), truncation=12,
                         h=annulus_model.domain.h)
    err = kn.kernel_error([annulus_model], ref, margin=0.1)[0]
    assert err <= 2e-2


def test_annulus_fit_stated_tolerance(annulus_model):
    """Stated bound 1e-2 at h=0.005, M=N=12.

    Cut-cell weights remove the O(h) staircase bias of the mask; the fit
    measures 3.4e-3.
    """
    ref = kn.closed_form(annulus(0, 0.5, 1), truncation=12,
                         h=annulus_model.domain.h)
    err = kn.kernel_error([annulus_model], ref, margin=0.1)[0]
    assert err <= 1e-2, f"measured {err:.4e} at the pinned h=0.005"


def test_kernel_error_empty_compact_rejected(disc_model):
    with pytest.raises(kn.KernelError):
        kn.kernel_error([disc_model], disc_model, margin=5.0)[0]


def _kernel_error_per_w(model, reference, margin, domain):
    """One model against the reference, one w per call, as the oracle:
    the worst |difference| and the largest |K| on the lattice."""
    cells = kn.compact_cells(domain, margin)
    zs = kn._probe_centers_dense_enough(domain, cells, 4)
    ws = kn._probe_centers_dense_enough(domain, cells, 16)
    worst = top = 0.0
    for w in ws:
        a = model.eval_many(zs, w)
        b = reference.eval_many(zs, w)
        worst = max(worst, float(np.max(np.abs(a - b))))
        top = max(top, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return worst, top


def _amplification(K) -> float:
    """How much a fitted model's rounding may exceed a closed form's: the
    square root of its Gram conditioning, the loss the code's own error
    model (`eval_error_estimate`) assigns to the whitening solve; 1 for a
    kernel without a Gram."""
    if isinstance(K, kn.KernelModel):
        return math.sqrt(max(K.gram.conditioning, 1.0))
    return 1.0


def _assert_kernel_error_matches_per_w(models, reference, margin, domain):
    """A multi-model call equals one-model calls bit for bit, and each value
    agrees with the one-w-per-call oracle within 8 ulps of the largest |K|,
    times the model's `_amplification`."""
    errors = kn.kernel_error(models, reference, margin, domain=domain)
    assert errors == tuple(kn.kernel_error([m], reference, margin,
                                           domain=domain)[0] for m in models)
    for model, err in zip(models, errors):
        worst, top = _kernel_error_per_w(model, reference, margin, domain)
        assert abs(err - worst) <= 8 * np.spacing(top) * _amplification(model)
    return errors


def _z_blocks(domain, margin):
    cells = kn.compact_cells(domain, margin)
    n_z = kn._probe_centers_dense_enough(domain, cells, kn.Z_STRIDE).size
    n_w = kn._probe_centers_dense_enough(domain, cells, kn.W_STRIDE).size
    return len(kn._z_blocks(n_z, n_w))


@pytest.mark.parametrize("n_w", [1, 7, 146, 1024, 1 << 20])
def test_z_blocks_are_aligned_and_never_one_probe(n_w):
    for n_z in (1, 2, 8, 9, 57, 1000, 1001, 5038):
        blocks = kn._z_blocks(n_z, n_w)
        starts, stops = zip(*blocks)
        assert starts[0] == 0 and stops[-1] == n_z
        assert starts[1:] == stops[:-1]
        assert all(start % kn.Z_ALIGN == 0 for start in starts)
        size = max(1, kn.PROBE_PAIRS // (n_w * kn.Z_ALIGN)) * kn.Z_ALIGN
        assert all(stop - start == size for start, stop in blocks[:-1])
        assert stops[-1] - starts[-1] > 1 or n_z == 1


def test_kernel_error_equals_per_w_loop(disc_model):
    ref = kn.closed_form(disc(0, 1), truncation=8, h=disc_model.domain.h)
    assert _z_blocks(disc_model.domain, 0.2) > 1
    _assert_kernel_error_matches_per_w([disc_model], ref, 0.2,
                                       disc_model.domain)


def test_kernel_error_sequence_equals_per_model_disc_exhaustion():
    h = 0.008
    target = make_domain(disc(0, 1), h=h)
    seq = interior_exhaustion(target, [0.2, 0.1, 0.05])
    models = [kn.fit_kernel(m, bs.monomials(0, 8)) for m in seq.members]
    # a closed form among the models, as criterion 4 passes one
    models.append(kn.DiscKernel(0, 0.95, 8))
    ref = kn.closed_form(disc(0, 1), truncation=8, h=h)
    assert _z_blocks(target, 0.3) > 1
    errors = _assert_kernel_error_matches_per_w(models, ref, 0.3, target)
    assert len(set(errors)) == len(models)


def test_kernel_error_sequence_equals_per_model_barbell(monkeypatch):
    # several z blocks on a small lobe: the reference rows of each block
    # serve every member
    monkeypatch.setattr(kn, "PROBE_PAIRS", 13 * 40)
    h = 0.02
    G = make_domain(disc(-2, 1), h=h)
    D = make_domain(annulus(2, 0.5, 1), h=h)
    seq = barbell_sequence(G, D, (-1 + 0j, 1 + 0j), [0.4, 0.2, 0.1])
    basis = bs.merged(bs.monomials(-2, 10), bs.principal_parts(2, 10))
    models = [kn.fit_kernel(m, basis) for m in seq.members]
    ref = kn.closed_form(annulus(2, 0.5, 1), truncation=10, h=h)
    assert _z_blocks(D, 0.1) > 1
    errors = _assert_kernel_error_matches_per_w(models, ref, 0.1, D)
    assert len(errors) == 3 and min(errors) > 0


def _block_size_case(name, request):
    """A model, a reference, a margin and the probe domain for
    kernel_error."""
    if name == "closed_form_model":
        # a truncated closed form as the model, as criterion 4 compares
        # the disc of the last member's depth with the target's
        domain = request.getfixturevalue("disc_model").domain
        return (kn.DiscKernel(0, 0.95, 8), kn.closed_form(disc(0, 1), truncation=8),
                0.2, domain)
    model = request.getfixturevalue(name)
    if name == "disc_model":
        return model, kn.closed_form(disc(0, 1), truncation=8), 0.2, model.domain
    if name == "annulus_model":
        return (model, kn.closed_form(annulus(0, 0.5, 1), truncation=12), 0.1,
                model.domain)
    # a lower-degree fit on the same two discs: pairs across them are zero
    # in both
    return (model, kn.fit_kernel(model.domain, bs.monomials(0, 6)), 0.1,
            model.domain)


@pytest.mark.parametrize("name", ["disc_model", "annulus_model",
                                  "two_disc_model", "closed_form_model"])
def test_kernel_error_independent_of_block_size(name, request, monkeypatch):
    model, ref, margin, domain = _block_size_case(name, request)
    errors, blocks = [], []
    for pairs in (1, 1 << 13, 1 << 15, 1 << 17):
        monkeypatch.setattr(kn, "PROBE_PAIRS", pairs)
        blocks.append(_z_blocks(domain, margin))
        errors.append(kn.kernel_error([model], ref, margin, domain=domain))
    assert blocks[0] > blocks[-1] and errors[0][0] > 0
    assert len(set(errors)) == 1


def test_kernel_error_holds_one_block_of_pairs(traced_peak):
    # every w side is prepared once, so a block of PROBE_PAIRS = 2^13
    # pairs holds a reference block, a model block and their difference's
    # moduli (320 KB) beside one block's z features; re-featurizing the w
    # probes in 2^15-pair blocks traced 1.66 MB
    h = 0.008
    target = make_domain(disc(0, 1), h=h)
    seq = interior_exhaustion(target, [0.2, 0.1, 0.05])
    models = [kn.fit_kernel(m, bs.monomials(0, 10)) for m in seq.members]
    ref = kn.closed_form(disc(0, 1), truncation=10)
    first = kn.kernel_error(models, ref, 0.3, domain=target)
    peak = traced_peak(lambda: kn.kernel_error(models, ref, 0.3, domain=target))
    assert kn.kernel_error(models, ref, 0.3, domain=target) == first
    assert peak < 800_000


# ---------------------------------------------------------------------------
# closed-form series as feature products
# ---------------------------------------------------------------------------

def _disc_series_one_pass(K, s):
    """The truncated disc series by one Horner pass over s, as the oracle."""
    r2 = K.r * K.r
    u = s / r2
    coef = np.arange(K.truncation + 1, 0, -1, dtype=float)
    out = np.full_like(u, coef[0])
    for c in coef[1:]:
        out = out * u + c
    return out / (np.pi * r2)


def _annulus_series_one_pass(K, s):
    """The annulus Laurent series by one Horner pass over s, as the oracle."""
    u = s / K.R ** 2
    v = K.rho ** 2 / s
    pos = K._pos_coefs()
    out = np.full_like(u, pos[-1])
    for c in pos[-2::-1]:
        out = out * u + c
    neg = K._neg_coefs()
    acc = np.full_like(v, neg[-1])
    for c in neg[-2::-1]:
        acc = acc * v + c
    return out + acc * v


def test_feature_form_matches_one_pass_series():
    rng = np.random.default_rng(21)
    c = 0.1 + 0.05j
    zs = c + rng.uniform(0.6, 0.9, 70) * np.exp(2j * np.pi * rng.uniform(size=70))
    ws = c + rng.uniform(0.6, 0.9, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
    cases = [(kn.DiscKernel(c, 1.0, 10), _disc_series_one_pass),
             (kn.AnnulusKernel(c, 0.5, 1.0, 12), _annulus_series_one_pass)]
    for K, one_pass in cases:
        tol = 8 * np.spacing(np.max(np.abs(K.eval_many(zs, ws))))
        for z, w in ((zs[:57], ws[0]), (zs[:19], ws[:3]), (zs, ws),
                     (np.complex128(zs[0]), ws[0])):
            want = one_pass(K, kn._centered_product(z, w, c))
            got = K.eval_many(z, w)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tol
        # a scalar z at a scalar w gives a 0-d value
        assert np.ndim(K.eval_many(np.complex128(zs[0]), ws[0])) == 0


def test_truncated_disc_within_its_tail_of_the_rational_form():
    # sum_{n > M} (n + 1) q^n = q^(M+1) ((M + 2) - (M + 1) q) / (1 - q)^2,
    # q = |s| / r^2, over pi r^2
    rng = np.random.default_rng(22)
    c, r, M = 0.2 - 0.1j, 1.5, 12
    zs = c + rng.uniform(0, 1.2, 90) * np.exp(2j * np.pi * rng.uniform(size=90))
    ws = zs[:30] * 0.9
    exact = kn.DiscKernel(c, r).eval_many(zs, ws)
    trunc = kn.DiscKernel(c, r, M).eval_many(zs, ws)
    q = np.abs(kn._centered_product(zs, ws, c)) / r ** 2
    tail = q ** (M + 1) * ((M + 2) - (M + 1) * q) / (1 - q) ** 2 / (np.pi * r * r)
    slack = 8 * np.spacing(np.max(np.abs(exact)))
    assert (np.abs(trunc - exact) <= tail + slack).all()
    assert np.max(np.abs(trunc - exact)) > 1e3 * slack


def test_annulus_array_call_rejects_any_pair_outside_convergence():
    # every z and every w lies in the annulus, but one pair's |s| leaves
    # (rho^2, R^2): the smallest moduli multiply to 0.2444 < 0.25, the
    # largest to 1.0094 > 1
    K = kn.closed_form(annulus(0.3j, 0.5, 1), truncation=16)
    zs = 0.3j + np.array([0.7, 0.52j, -0.8])
    inner = 0.3j + np.array([0.7j, -0.47])
    outer = 0.3j + np.array([0.98, -0.7j])
    K.eval_many(zs[[0, 2]], inner[:1])
    with pytest.raises(kn.KernelError, match="annulus of convergence"):
        K.eval_many(zs, inner)
    with pytest.raises(kn.KernelError, match="annulus of convergence"):
        K.eval_many(0.3j + np.array([0.7, 1.03]), outer)


# ---------------------------------------------------------------------------
# eval_many at an array of w
# ---------------------------------------------------------------------------

EXACT_ROWS = (kn.ReinhardtKernelModel, kn.ReinhardtSliceKernel)


def _rows_match_scalar_calls(K, zs, ws):
    """Rows of an array-w call against scalar-w calls: bit for bit for the
    Reinhardt models and slices; for fitted planar models, planar closed
    forms and their products, within 8 ulps of the batch's
    largest |K| (times `_amplification`), identical across two identical
    calls, and exactly zero where the scalar call is."""
    rows = K.eval_many(zs, ws)
    assert rows.shape == (len(ws), len(zs))
    # an owning product lets kernel_error's difference reuse its buffer
    assert rows.flags.owndata
    scalar = np.array([K.eval_many(zs, w) for w in ws])
    if isinstance(K, EXACT_ROWS):
        assert rows.tobytes() == scalar.tobytes()
        return
    tol = 8 * np.spacing(np.max(np.abs(scalar))) * _amplification(K)
    assert np.max(np.abs(rows - scalar)) <= tol
    assert rows.tobytes() == K.eval_many(zs, ws).tobytes()
    assert ((rows == 0) == (scalar == 0)).all()


def test_eval_many_rows_match_scalar_calls_fitted(disc_model, annulus_model):
    for model in (disc_model, annulus_model):
        zs = interior_points(model.domain, 300, seed=11)
        ws = interior_points(model.domain, 70, seed=12)
        _rows_match_scalar_calls(model, zs, ws)


def test_eval_many_rows_keep_cross_component_zeros(two_disc_model):
    zs = np.concatenate([interior_points(two_disc_model.domain, 80, seed=13),
                         [-2.1, 2.2]])
    ws = np.array([-2.1, 2.2, -1.8 + 0.1j, 2.3 - 0.2j])
    _rows_match_scalar_calls(two_disc_model, zs, ws)
    rows = two_disc_model.eval_many(zs, ws)
    left = zs.real < 0
    assert (rows[0, ~left] == 0).all() and (rows[0, left] != 0).all()
    assert (rows[1, left] == 0).all() and (rows[1, ~left] != 0).all()


def test_eval_many_rows_match_scalar_calls_closed_forms():
    rng = np.random.default_rng(14)
    radii = rng.uniform(0.55, 0.95, 200)
    zs = radii * np.exp(2j * np.pi * rng.uniform(size=200))
    ws = zs[:40] * 0.98
    for K in (kn.closed_form(disc(0, 1)),
              kn.closed_form(disc(0, 1), truncation=8),
              kn.closed_form(annulus(0, 0.5, 1), truncation=16)):
        _rows_match_scalar_calls(K, zs, ws)


def test_eval_many_rows_match_scalar_calls_reinhardt_slice(
        ring_times_disc_model):
    sl = ring_times_disc_model.slice_fixed_last(0.3)
    zs = np.array([0.6, -0.7 + 0.1j, 0.8j, 0.9])
    _rows_match_scalar_calls(sl, zs, np.array([0.8, -0.65j]))


def random_pairs(n, r1, r2, seed):
    """n pairs (z1, z2) with |z1| in r1 and |z2| in r2, random phases."""
    rng = np.random.default_rng(seed)
    radii = np.column_stack([rng.uniform(*r1, n), rng.uniform(*r2, n)])
    return radii * np.exp(2j * np.pi * rng.uniform(size=(n, 2)))


def test_eval_many_rows_match_scalar_calls_c2(ring_times_disc_model):
    zs = random_pairs(203, (0.55, 0.95), (0.05, 0.95), seed=15)
    ws = random_pairs(9, (0.55, 0.95), (0.05, 0.95), seed=16)
    prod = kn.closed_form({"shape": "product",
                           "factors": [annulus(0, 0.5, 1), disc(0, 1)]},
                          truncation=16)
    for K in (ring_times_disc_model, prod):
        _rows_match_scalar_calls(K, zs, ws)


def test_c2_model_applies_the_domain_rules_in_every_call(ring_times_disc_model):
    # (0.3, 0.3) lies in the profile's hole r1 < 0.5, as z, as w and on the
    # slice at r2 = 0.3
    model = ring_times_disc_model
    with pytest.raises(kn.OutsideDomainError):
        model.eval_many([[0.3, 0.3]], (0.8, 0.3))
    with pytest.raises(kn.OutsideDomainError):
        model.eval_many([[0.8, 0.3]], [(0.8, 0.3), (0.3, 0.3)])
    with pytest.raises(kn.OutsideDomainError):
        model.eval((0.3, 0.3), (0.8, 0.3))
    with pytest.raises(kn.OutsideDomainError):
        model.slice_fixed_last(0.3).eval(0.3, 0.8)

    # two profile components: pairs across them are exactly zero, read from
    # (|z1|, |z2|) whatever the phases
    profile = make_domain(reinhardt_profile(union(
        rectangle((0.2, 0), (0.45, 1)), rectangle((0.6, 0), (1, 1)))), h=0.01)
    two = kn.fit_kernel(profile, bs.reinhardt_window(-4, 4, 4))
    zs = np.concatenate([random_pairs(40, (0.25, 0.4), (0.1, 0.9), seed=19),
                         random_pairs(40, (0.65, 0.95), (0.1, 0.9), seed=20)])
    ws = np.array([[0.3, 0.5], [-0.8j, 0.5]])
    rows = two.eval_many(zs, ws)
    inner = np.arange(80) < 40
    assert (rows[0, ~inner] == 0).all() and (rows[0, inner] != 0).all()
    assert (rows[1, inner] == 0).all() and (rows[1, ~inner] != 0).all()
    assert two.eval((0.3, 0.5), (0.8, 0.5)) == 0.0
    _rows_match_scalar_calls(two, zs, ws)


def test_slice_answers_on_its_own_domain(ring_times_disc_model):
    sl = ring_times_disc_model.slice_fixed_last(0.8)
    # p sits in a slice cell whose center has |c| < 1, but |p| > 1 is off
    # the profile: the slice reads its own domain, not the profile cell
    p = 0.7075 + 0.7075j
    assert sl.domain.labels_at(p) > 0 and abs(p) > 1
    assert np.isfinite(sl.eval(p, 0.8)) and sl.eval(p, 0.8) != 0
    assert sl.eval(-0.7 + 0.1j, 0.8) == ring_times_disc_model.eval(
        (-0.7 + 0.1j, 0.8), (0.8, 0.8))
    # every point of every slice cell, near its corners
    cells = sl.domain.centers_of(sl.domain.mask)
    for d in (0.49 + 0.49j, 0.49 - 0.49j, -0.49 + 0.49j, -0.49 - 0.49j):
        q = cells + d * sl.domain.h
        q = q[sl.domain.labels_at(q) > 0]
        assert np.isfinite(sl.eval_many(q, 0.8)).all()
    # refinement started at outer edge cells probes h/4 off them; three of
    # these starts reached a point off the profile cell when the slice read
    # the profile
    edges = sl.domain.centers_at(sl.domain.boundary.cells)
    for e in edges[np.abs(edges) > 0.9][::4]:
        best = zeros.refine_minimum(sl, -0.9j, e, sl.domain.h)
        assert sl.domain.labels_at(best) > 0
    with pytest.raises(kn.OutsideDomainError):
        sl.eval(0.3, 0.8)


def test_slice_zero_across_profile_components():
    # at r2 = 0.5 the slice is two annuli, one per profile rectangle
    profile = make_domain(reinhardt_profile(union(
        rectangle((0.2, 0), (0.45, 1)), rectangle((0.6, 0), (1, 1)))), h=0.01)
    two = kn.fit_kernel(profile, bs.reinhardt_window(-4, 4, 4))
    sl = two.slice_fixed_last(0.5)
    assert sl.domain.n_components == 2
    zs = np.array([0.3, -0.35j, 0.7, 0.9j, 0.7075 + 0.7075j])
    assert sl.domain.labels_at(zs).all()
    rows = sl.eval_many(zs, np.array([0.4, 0.8j]))
    assert (rows[0, 2:] == 0).all() and (rows[0, :2] != 0).all()
    assert (rows[1, :2] == 0).all() and (rows[1, 2:] != 0).all()
    assert rows[1, 2] == two.eval((0.7, 0.5), (0.8j, 0.5))
    _rows_match_scalar_calls(sl, zs, np.array([0.4, 0.8j]))


def test_every_kernel_answers_the_protocol(disc_model, ring_times_disc_model):
    disc_cf = kn.closed_form(disc(0, 1))
    prod = kn.closed_form({"shape": "product",
                           "factors": [annulus(0, 0.5, 1), disc(0, 1)]},
                          truncation=16)
    planar = [disc_model, disc_cf, kn.closed_form(annulus(0, 0.5, 1)),
              ring_times_disc_model.slice_fixed_last(0.3)]
    pairs = [ring_times_disc_model, prod]
    for K, w in [(K, 0.7 + 0.1j) for K in planar] + [(K, (0.7, 0.3j))
                                                     for K in pairs]:
        assert isinstance(K, kn.Kernel)
        assert 0 < K.eval_error_estimate(w) < 1e-6
        assert K.eval(w, w).real > 0


# ---------------------------------------------------------------------------
# one fit path: every term kept, or a loud failure
# ---------------------------------------------------------------------------

def test_wide_scale_spread_keeps_all_terms():
    # diagonal normalization makes the solve scale-free: a 1e-38 spread in
    # raw norms is no reason to drop terms
    U = make_domain(disc(0, 0.05), h=0.002)
    model = kn.fit_kernel(U, bs.monomials(0, 14))
    assert model.n_terms == 15
    # oracle: scaled closed form K_rD(0, 0) = 1/(pi r^2); the 25-cell
    # diameter caps the quadrature accuracy at the percent level
    assert model.eval(0, 0).real == pytest.approx(1 / (np.pi * 0.05 ** 2),
                                                  rel=2e-2)


def test_underflowed_term_rejected():
    # at radius 0.01 the squared norm pi r^(2n+2) / (n+1) of z^n falls below
    # the smallest normal float (2.2e-308) first at n = 76: the fit raises,
    # naming that term
    U = make_domain(disc(0, 0.01), h=0.0005)
    with pytest.raises(bs.BasisError, match="'planar 0.0 0.0 76'"):
        kn.fit_kernel(U, bs.monomials(0, 80))


def test_double_spanned_polynomials_fail_to_factor():
    # a Laurent window already spans the polynomials, so monomials at a
    # second center make the basis numerically dependent, and the fit raises
    U = make_domain(union(annulus(0.03 + 0.02j, 0.5, 1), disc(2.2, 0.4)), h=0.02)
    with pytest.raises(bs.FactorizationError):
        kn.fit_kernel(U, bs.merged(bs.laurent(0.03 + 0.02j, 8, 8),
                                   bs.monomials(2.2, 4)))


# ---------------------------------------------------------------------------
# reinhardt models
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ring_times_disc_model():
    profile = make_domain(reinhardt_profile(rectangle((0.5, 0), (1, 1))), h=0.01)
    return kn.fit_kernel(profile, bs.reinhardt_window(-8, 8, 8))


def test_reinhardt_fit_is_diagonal(ring_times_disc_model):
    model = ring_times_disc_model
    assert isinstance(model, kn.ReinhardtKernelModel)
    assert model.norms.shape == (len(model.basis),)


def test_polydisc_reinhardt_center_value():
    profile = make_domain(reinhardt_profile(rectangle((0, 0), (1, 1))), h=0.005)
    model = kn.fit_kernel(profile, bs.reinhardt_window(0, 6, 6))
    val = model.eval((0, 0), (0, 0))
    assert val.real == pytest.approx(1 / np.pi ** 2, rel=5e-3)


def test_reinhardt_matches_product_closed_form(ring_times_disc_model):
    prod = kn.closed_form({"shape": "product",
                           "factors": [annulus(0, 0.5, 1), disc(0, 1)]},
                          truncation=8)
    err = kn.kernel_error_c2(ring_times_disc_model, prod, margin=0.08)
    assert err <= 1e-2


def test_reinhardt_slice_matches_full_eval(ring_times_disc_model):
    model = ring_times_disc_model
    sl = model.slice_fixed_last(0.3)
    z1, w1 = -0.7 + 0.1j, 0.8
    assert sl.eval(z1, w1) == pytest.approx(
        model.eval((z1, 0.3), (w1, 0.3)), rel=1e-12)
    assert sl.domain.labels_at(0.7 + 0j) > 0
    assert sl.domain.labels_at(0.3 + 0j) == 0


def test_annulus_series_argument_outside_convergence():
    K = kn.closed_form(annulus(0, 0.5, 1), truncation=16)
    with pytest.raises(kn.KernelError, match="annulus of convergence"):
        K.eval(0.3, 0.6)     # |s| = 0.18 below rho^2
    with pytest.raises(kn.KernelError, match="annulus of convergence"):
        K.eval(1.2, 0.9)     # |s| = 1.08 above R^2


def test_kernel_error_small_compact_set_still_probes():
    # a compact set that the stride-16 lattice misses entirely: the stride
    # falls back instead of silently comparing zero pairs
    U = make_domain(disc(0.55 + 0.55j, 0.12), h=0.01)
    model = kn.fit_kernel(U, bs.monomials(0.55 + 0.55j, 4))
    ref = kn.closed_form(disc(0.55 + 0.55j, 0.12), truncation=4, h=0.01)
    err = kn.kernel_error([model], ref, margin=0.06)[0]
    assert err > 0
