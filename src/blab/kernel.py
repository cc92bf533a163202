"""Finite-rank Bergman kernels from Gram factors, and closed-form references.

A fitted kernel evaluates through whitened coordinates: with C = L L^H the
normalized Gram matrix and v(p) = L^-1 (b(p) / s), the kernel value is
K(z, w) = <v(z), v(w)> = sum_m conj(v_m(w)) v_m(z).  This form makes
Hermitian symmetry and diagonal nonnegativity exact in floating point, and
the reproducing identity an algebraic identity at the quadrature level.

Closed forms cover discs (rational or truncated series), annuli (Laurent
series with a recorded geometric tail bound), and products of planar
factors for the C^2 experiments.  A truncated disc or annulus series is a
finite-rank kernel too, K(z, w) = conj(F(w))^T F(z) for a feature matrix F
of scaled powers, and evaluates as that product.

Fitted models and truncated closed forms share one evaluator,
`_FiniteRank._feature_product`.  A scalar-w call is a matrix-vector product
and an array-w call one matrix product, so a row of an array-w call agrees
with the scalar-w call to rounding, not bit for bit.  Every value is
reproducible run to run and at any BLAS thread count.

Every kernel object answers one protocol (`Kernel`): `eval_many(zs, w)` for
a batch of z at one w, or one row per w of a 1-D array of w;
`eval_error_estimate(w)`; `domain` for planar kernels; scalar `eval`, a shim
over `eval_many`; and `prepare_w(ws)` with `eval_prepared(zs, side)`, the
two steps of `eval_many` at a 1-D array of w, so that `kernel_error`
prepares its w probes once for every block of z.  C^2 models take zs (P, n)
and w (n,) or (k, n).  Fitted models and Reinhardt slices raise
`OutsideDomainError` off their domain and are exactly zero across
components (a slice's are the profile's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis as bs
from .geom import (
    GeomError,
    GridDomain,
    REINHARDT,
    distance_field,
    make_domain,
)

EVAL_ERROR_COEFF = 1e-13    # machine-level error model: coeff * cond * scale
PROBE_PAIRS = 1 << 13       # probe pairs per z block of kernel_error
Z_ALIGN = 8                 # kernel_error z blocks hold a multiple of this
Z_STRIDE = 4                # z probe lattice of kernel_error(_c2), in cells
W_STRIDE = 16               # w probe lattice of kernel_error, in cells
C2_W_PROBES = 12            # seeded w draws of kernel_error_c2
DEFAULT_SEED = 1729         # probe seed of every seeded draw by default
RESIDUAL_STRIDE = 8         # probe lattice of reproducing_residual, in cells
EXTREMAL_TOL = 1e-8         # relative slack of the extremal constraint
TAIL_TOL = 1e-10            # tail bound of an automatic annulus truncation
SIGN_SCAN_SAMPLES = 4000    # scan points of diagonal_sign_changes


class KernelError(ValueError):
    """Invalid kernel evaluation or construction."""


class OutsideDomainError(KernelError):
    """An evaluation point is outside the model's domain."""


class Kernel:
    """The evaluator protocol; subclasses define eval_many, and
    eval_error_estimate where the closed-form model below does not fit.

    prepare_w and eval_prepared split eval_many at a 1-D array of w in two:
    eval_prepared(zs, prepare_w(ws)) is eval_many(zs, ws), bit for bit, and
    one prepared w side serves any number of z batches.  Here the w side is
    ws itself; a finite-rank kernel (`_FiniteRank`) prepares its
    conj-transposed w features."""

    def eval(self, z, w) -> complex:
        return complex(self.eval_many(np.array([z]), w)[0])

    def prepare_w(self, ws):
        return ws

    def eval_prepared(self, zs, side) -> np.ndarray:
        return self.eval_many(zs, side)

    def eval_error_estimate(self, w) -> float:
        """Evaluation error of a closed form, machine level on |K(w, w)|; a
        truncation's gap to the ideal kernel is not an evaluation error."""
        return EVAL_ERROR_COEFF * (1.0 + abs(self.eval(w, w)))


def _require_inside(domain: GridDomain, points) -> np.ndarray:
    """Component labels of the points, raising if any lies outside."""
    labels = domain.labels_at(points)
    if (labels == 0).any():
        raise OutsideDomainError(
            f"point {np.asarray(points)[labels == 0][0]} is outside the domain")
    return labels


class _FiniteRank(Kernel):
    """A finite-rank kernel K(z, w) = conj(F(w))^T F(z).  Subclasses give
    the feature map `_features`, one column per point of a 1-D array, and
    `_points`, which checks the points of an array and returns the feature
    map's 1-D input with the points' component labels (None unless the
    domain has several components)."""

    def eval_many(self, zs, w) -> np.ndarray:
        z = self._points(zs)
        rows = self._feature_product(z, self.prepare_w(w))
        return rows if np.ndim(w) else rows.reshape(np.shape(zs))

    def prepare_w(self, ws):
        """The w side: the w points, conj(F(w))^T with one row per w, and
        the w labels."""
        points, labels = self._points(ws)
        return points, np.conj(self._features(points)).T, labels

    def eval_prepared(self, zs, side) -> np.ndarray:
        return self._feature_product(self._points(zs), side)

    def _feature_product(self, z, side) -> np.ndarray:
        """conj(F(w))^T F(z), z from `_points` and the w side from
        `prepare_w`: the one evaluator of fitted models and truncated
        closed forms.  Each z is featurized once and the rows come from one
        matrix product (a matrix-vector product at one w).  Pairs whose
        labels differ are zero.  The (len(w), len(z)) product itself, never
        a view, so that `kernel_error` takes its difference in place."""
        (points, z_labels), (_, conj_w, w_labels) = z, side
        out = conj_w @ self._features(points)
        if w_labels is not None:
            out[w_labels[:, None] != z_labels[None, :]] = 0.0
        return out


# ---------------------------------------------------------------------------
# fitted planar models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelModel(_FiniteRank):
    """Finite-rank reproducing kernel of a basis span on a grid domain."""

    basis: bs.BasisSpec
    gram: bs.GramMatrix
    factor: bs.GramFactor
    domain: GridDomain

    @property
    def n_terms(self) -> int:
        return len(self.basis)

    def whitened(self, points: np.ndarray) -> np.ndarray:
        """Whitened coordinates v(p) = L^-1 (b(p)/s), shape (N, len(points))."""
        B = bs.term_matrix(self.basis, points)
        return self.factor.whiten(B)

    _features = whitened

    def eval_many(self, zs: np.ndarray, w) -> np.ndarray:
        """K(z, w) for a 1-D batch of z at one w, shape (len(zs),), or at
        each w of a 1-D array, shape (len(w), len(zs)) with one row per w.

        Both point sets are checked against the domain, z first, and go to
        `_feature_product` with whitening as the feature map.  A scalar w is
        a one-column solve and a matrix-vector product, so every scan,
        winding and certificate reads the same bits whatever else is
        evaluated.  Pairs across components evaluate to exactly zero.
        """
        return super().eval_many(zs, w)

    def _points(self, points):
        points = np.ravel(points)
        labels = _require_inside(self.domain, points)
        return points, labels if self.domain.n_components > 1 else None

    def diagonal(self, zs: np.ndarray) -> np.ndarray:
        """K(z, z) >= 0, exact: sum of squared moduli of whitened coords."""
        zs = np.asarray(zs, dtype=complex).ravel()
        _require_inside(self.domain, zs)
        V = self.whitened(zs)
        return np.sum(V.real ** 2 + V.imag ** 2, axis=0)

    def eval_error_estimate(self, w: complex) -> float:
        """Absolute error scale for values of K(., w).

        Machine epsilon amplified by the square root of the normalized Gram
        conditioning (the effective loss in the triangular solves) on the
        local kernel magnitude.
        """
        kww = float(self.diagonal(np.array([w]))[0])
        amp = math.sqrt(max(self.gram.conditioning, 1.0))
        return EVAL_ERROR_COEFF * amp * (1.0 + kww)


def fit_kernel(U: GridDomain, basis: bs.BasisSpec, inner=None):
    """Fit the finite-rank kernel of the basis span on U, keeping every term.

    Well-scaled terms fit regardless of the spread between diagonal
    entries; the diagonal normalization inside the factorization makes the
    solve scale-free.  A term whose norm underflows on U raises BasisError
    (from `gram_matrix`), and a numerically dependent basis raises
    FactorizationError (from `factorize`).  Reinhardt profiles get a
    diagonal model.  inner, the fit of the same basis on a mask-built
    domain nested in U, goes to `gram_matrix`, which then adds only U's
    cells outside it.
    """
    gram = bs.gram_matrix(basis, U, inner=inner)
    if U.kind == REINHARDT:
        return ReinhardtKernelModel(
            basis=basis, norms=np.diag(gram.matrix).real.copy(), profile=U)
    return KernelModel(basis=basis, gram=gram, factor=bs.factorize(gram),
                       domain=U)


# ---------------------------------------------------------------------------
# extremal characterization and reproducing residual
# ---------------------------------------------------------------------------

def extremal_value(model: KernelModel, z: complex) -> tuple[float, np.ndarray]:
    """Maximize f(z) over the basis span subject to f(z) >= ||f||^2.

    The optimizer is the kernel section at z: solving G c = conj(b(z)) gives
    f with f(z) = ||f||^2 = K(z, z).  The constraint is verified to hold with
    equality to the relative tolerance EXTREMAL_TOL.
    """
    _require_inside(model.domain, z)
    bz = bs.term_matrix(model.basis, np.array([z]))[0]
    c = model.factor.solve(np.conj(bz))
    value = (bz @ c).real
    norm_sq = (np.conj(c) @ (model.gram.matrix @ c)).real
    if abs(norm_sq - value) > EXTREMAL_TOL * max(abs(value), 1e-300):
        raise KernelError(
            f"extremal constraint violated: f(z)={value:.6e}, "
            f"||f||^2={norm_sq:.6e}")
    return float(value), c


def reproducing_residual(model: KernelModel, i: int,
                         quadrature: GridDomain | None = None) -> float:
    """Residual of the reproducing identity for basis term i.

    max over probe z of |int K(z, w) b_i(w) dV(w) - b_i(z)| / (1 + |b_i(z)|),
    with the integral taken over the same quadrature nodes and weights as
    the Gram (`GridDomain.quadrature`; an algebraic identity up to
    rounding), or over those of a deliberately different quadrature domain
    when one is supplied.
    """
    if not 0 <= i < model.n_terms:
        raise KernelError(f"basis index {i} out of range")
    quad = model.domain if quadrature is None else quadrature
    cells, frac = quad.quadrature
    nodes = quad.centers_of(cells)
    if frac is None:
        frac = np.ones(nodes.size)
    Bq = bs.term_matrix(model.basis, nodes)
    Vq = model.factor.whiten(Bq)
    q = (Vq * (np.conj(Bq[:, i]) * frac)[None, :]).sum(axis=1) * quad.h * quad.h

    probes = _probe_centers(model.domain, model.domain.mask, RESIDUAL_STRIDE)
    Vz = model.whitened(probes)
    integral = np.conj(q) @ Vz
    target = bs.term_matrix(model.basis, probes)[:, i]
    return float(np.max(np.abs(integral - target) / (1.0 + np.abs(target))))


# ---------------------------------------------------------------------------
# closed-form reference kernels
# ---------------------------------------------------------------------------

def _horner(coefs, x):
    """sum_k coefs[k] x^(n-k), highest power first."""
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out = out * x + c
    return out


def _centered_product(z, w, center: complex):
    """s = (z - c) conj(w - c); one row per w when w is a 1-D array."""
    zc = np.asarray(z, dtype=complex) - center
    wc = np.conj(np.asarray(w, dtype=complex) - center)
    if wc.ndim:
        return zc.ravel()[None, :] * wc[:, None]
    return zc * wc


def _power_rows(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows weights[n] x^n of a 1-D array x, n = 0, 1, ...: shape
    (len(weights), x.size), by the basis power ladder."""
    rows = np.empty((len(weights), x.size), dtype=complex)
    bs._write_powers(rows, x, {n: n for n in range(len(weights))})
    return rows * weights[:, None]


@dataclass(frozen=True)
class DiscKernel(_FiniteRank):
    """Disc kernel r^2 / (pi (r^2 - s)^2), s = (z-c) conj(w-c).

    With a truncation M the kernel of the degree-M monomial span is evaluated
    instead: sum_{n<=M} (n+1) s^n / (pi r^(2n+2)), as the finite-rank
    product conj(F(w))^T F(z) whose features are the orthonormal monomials
    sqrt((n+1)/pi) / r ((z-c)/r)^n.
    """

    center: complex
    r: float
    truncation: int | None = None
    domain: GridDomain | None = None

    def eval_many(self, zs, w):
        if self.truncation is not None:
            return super().eval_many(zs, w)
        s = _centered_product(zs, w, self.center)
        r2 = self.r * self.r
        return r2 / (np.pi * (r2 - s) ** 2)

    # the rational form is not finite-rank: its w side is w itself
    def prepare_w(self, ws):
        return ws if self.truncation is None else super().prepare_w(ws)

    def eval_prepared(self, zs, side):
        if self.truncation is None:
            return self.eval_many(zs, side)
        return super().eval_prepared(zs, side)

    def _points(self, points):
        return np.ravel(np.asarray(points, dtype=complex) - self.center), None

    def _features(self, zc: np.ndarray) -> np.ndarray:
        n = np.arange(self.truncation + 1, dtype=float)
        return _power_rows(zc / self.r, np.sqrt((n + 1) / np.pi) / self.r)


@dataclass(frozen=True)
class AnnulusKernel(_FiniteRank):
    """Annulus kernel as the orthogonal Laurent series, truncated at |n| <= M.

    Coefficients are c_n = 1/||z^n||^2 with
    ||z^n||^2 = pi (R^(2n+2) - rho^(2n+2)) / (n+1) for n != -1 and
    2 pi log(R/rho) for n = -1.  The series is the finite-rank product
    conj(F(w))^T F(z) whose features are the scaled Laurent powers
    ((z-c)/R)^n and (rho/(z-c))^m times the square roots of the
    coefficients of u = s/R^2 and v = rho^2/s, so that scaled copies of the
    annulus stay in floating range; the truncated tail is bounded by
    recorded geometric sums.
    """

    center: complex
    rho: float
    R: float
    truncation: int
    domain: GridDomain | None = None

    def __post_init__(self):
        if not 0 < self.rho < self.R:
            raise KernelError("annulus radii must satisfy 0 < rho < R")
        if self.truncation < 8:
            raise KernelError("annulus series truncation must be at least 8")

    @property
    def _ratio(self) -> float:
        return self.rho / self.R

    def _pos_coefs(self) -> np.ndarray:
        # coefficient of u^n, u = s/R^2:  (n+1) / (pi R^2 (1 - (rho/R)^(2n+2)))
        n = np.arange(self.truncation + 1, dtype=float)
        return (n + 1) / (np.pi * self.R ** 2 * (1.0 - self._ratio ** (2 * n + 2)))

    def _neg_coefs(self) -> np.ndarray:
        # coefficient of v^m, v = rho^2/s, for m = 1 .. M; the m = 1 entry is
        # the logarithmic norm of z^-1
        m = np.arange(2, self.truncation + 1, dtype=float)
        rest = (m - 1) / (np.pi * self.rho ** 2 * (1.0 - self._ratio ** (2 * m - 2)))
        first = 1.0 / (2 * np.pi * math.log(self.R / self.rho) * self.rho ** 2)
        return np.concatenate([[first], rest])

    def _points(self, points):
        return np.ravel(np.asarray(points, dtype=complex) - self.center), None

    def _feature_product(self, z, side):
        """The truncated series at every pair, as conj(F(w))^T F(z).  Raises
        KernelError when some pair has |s| <= rho^2 or |s| >= R^2, read from
        the extreme moduli of z - c and w - c."""
        zc, wc = z[0], side[0]
        za, wa = np.abs(zc), np.abs(wc)
        if za.size and wa.size:
            for s in (zc[za.argmin()] * np.conj(wc[wa.argmin()]),
                      zc[za.argmax()] * np.conj(wc[wa.argmax()])):
                if not self.rho ** 2 < abs(s) < self.R ** 2:
                    raise KernelError(
                        f"series argument s = {s:.6g} lies outside the annulus "
                        f"of convergence ({self.rho ** 2:.6g}, "
                        f"{self.R ** 2:.6g})")
        return super()._feature_product(z, side)

    def _features(self, zc: np.ndarray) -> np.ndarray:
        v = self.rho / zc
        return np.concatenate([
            _power_rows(zc / self.R, np.sqrt(self._pos_coefs())),
            _power_rows(v, np.sqrt(self._neg_coefs())) * v])

    def _series(self, s):
        """The truncated series as a function of s alone (array or scalar),
        by two Horner loops, one in u = s/R^2 and one in v = rho^2/s: the
        form `diagonal_sign_changes` scans along the real s axis.  The scan
        stays off the feature product, whose (2M + 1, SIGN_SCAN_SAMPLES)
        complex feature matrices (46 MB each at rho/R = 0.1, M = 356) would
        triple the scan's peak memory; Horner holds a few arrays of the
        samples' length."""
        v = self.rho ** 2 / s
        return (_horner(self._pos_coefs()[::-1], s / self.R ** 2)
                + _horner(self._neg_coefs()[::-1], v) * v)

    def tail_bound(self, s_abs: float) -> float:
        """Upper bound on the modulus of the truncated series tail at |s|."""
        M = self.truncation
        q = s_abs / self.R ** 2
        u = self.rho ** 2 / s_abs
        if q >= 1 or u >= 1:
            return math.inf
        guard_pos = 1.0 - self._ratio ** (2 * M + 4)
        tail_pos = (q ** (M + 1) * ((M + 2) - (M + 1) * q) / (1 - q) ** 2
                    / (np.pi * self.R ** 2 * guard_pos))
        guard_neg = 1.0 - self._ratio ** (2 * M)
        tail_neg = (u ** (M + 1) * (M * (1 - u) + u) / (1 - u) ** 2
                    / (np.pi * self.rho ** 2 * guard_neg))
        return tail_pos + tail_neg

    def eval_error_estimate(self, w: complex) -> float:
        """Floating-point evaluation error: machine epsilon on the absolute
        term sum (the summation condition) at |s| = |w - c| rho and
        |w - c| R, the squared column norms of the feature map at centered
        points of moduli sqrt(|s|).  The truncation gap to the ideal annulus
        kernel is reported by tail_bound, not here."""
        wr = abs(complex(w) - self.center)
        F = self._features(np.sqrt(wr * np.array([self.rho, self.R])))
        cond_sum = float(np.max(np.sum(F.real ** 2 + F.imag ** 2, axis=0)))
        return EVAL_ERROR_COEFF * (1.0 + cond_sum)

    def diagonal_sign_changes(self) -> list[float]:
        """Real zeros of the truncated series on the negative axis of the
        convergence annulus rho^2 < |s| < R^2 (bisection after a sign scan)."""
        lo = -self.R ** 2 * 0.995
        hi = -self.rho ** 2 * 1.005
        ss = np.linspace(lo, hi, SIGN_SCAN_SAMPLES)
        vals = self._series(ss.astype(complex)).real
        roots = []
        for k in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
            a, b = ss[k], ss[k + 1]
            fa = self._real_at(a)
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = self._real_at(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < 1e-14:
                    break
            roots.append(0.5 * (a + b))
        return roots

    def _real_at(self, s: float) -> float:
        return float(self._series(np.complex128(s)).real)


def annulus_auto_truncation(rho: float, R: float) -> int:
    """Smallest truncation whose tail bound is below TAIL_TOL across the
    probe band of |s|: radii 5 percent inside the annulus of convergence."""
    for M in range(8, 4097):
        k = AnnulusKernel(0, rho, R, M)
        if (k.tail_bound((1.05 * rho) ** 2) < TAIL_TOL
                and k.tail_bound((0.95 * R) ** 2) < TAIL_TOL):
            return M
    raise KernelError("no admissible truncation below 4096 terms")


@dataclass(frozen=True)
class ProductKernel(Kernel):
    """Pointwise product of planar factor kernels: the C^2 (or C^n) kernel of
    a product domain.  Its zero set is exactly (zero set of a factor) times
    the remaining factor domains."""

    factors: tuple

    def eval_many(self, zs, w) -> np.ndarray:
        """K(z, w) for rows z of zs (shape (P, n_factors)) at one w, shape
        (P,), or at each row of a (k, n_factors) array of w, shape (k, P)."""
        zs = np.asarray(zs, dtype=complex)
        ws = np.asarray(w, dtype=complex)
        out = 1.0
        for k, fac in enumerate(self.factors):
            out = out * fac.eval_many(zs[:, k], ws[..., k])
        return out

    def eval_error_estimate(self, w) -> float:
        """The factors' error scales propagated to first order through the
        product, each other factor at its diagonal value at w."""
        diag = [abs(fac.eval(wk, wk)) for fac, wk in zip(self.factors, w)]
        return sum(fac.eval_error_estimate(wk)
                   * math.prod(d for j, d in enumerate(diag) if j != k)
                   for k, (fac, wk) in enumerate(zip(self.factors, w)))


def closed_form(spec: dict, truncation: int | None = None,
                h: float | None = None):
    """Closed-form kernel for a shape spec.

    disc: exact rational form, or the degree-`truncation` series when a
    truncation is given (for matched comparison against a fitted model).
    annulus: Laurent series; `truncation` defaults to the smallest order
    whose recorded tail bound is below TAIL_TOL on the probe band.
    product: {"shape": "product", "factors": [...]}, factors built
    recursively, without grids.  Passing h attaches a rasterized grid for
    scanning to a disc or annulus; a product has no grid, and raises
    KernelError when given h.
    """
    kind = spec["shape"]
    if kind == "disc":
        c = complex(spec["center"][0], spec["center"][1])
        grid = make_domain(spec, h) if h else None
        return DiscKernel(center=c, r=spec["r"], truncation=truncation, domain=grid)
    if kind == "annulus":
        c = complex(spec["center"][0], spec["center"][1])
        rho, R = spec["rho"], spec["R"]
        M = truncation if truncation is not None else annulus_auto_truncation(rho, R)
        grid = make_domain(spec, h) if h else None
        return AnnulusKernel(center=c, rho=rho, R=R, truncation=M, domain=grid)
    if kind == "product":
        if h is not None:
            raise KernelError("a product closed form has no grid: pass no h")
        return ProductKernel(factors=tuple(
            closed_form(f, truncation=truncation) for f in spec["factors"]))
    raise KernelError(f"no closed form for shape {kind!r}")


# ---------------------------------------------------------------------------
# reinhardt models and slices
# ---------------------------------------------------------------------------

def _moduli(pairs: np.ndarray) -> np.ndarray:
    """Profile points |z1| + i |z2| of the rows (z1, z2) of pairs."""
    return np.abs(pairs[:, 0]) + 1j * np.abs(pairs[:, 1])


@dataclass(frozen=True)
class ReinhardtKernelModel(Kernel):
    """Diagonal kernel of a monomial span on a reinhardt domain.

    K(z, w) = sum over terms of (z1 conj(w1))^a (z2 conj(w2))^b / ||term||^2.
    """

    basis: bs.BasisSpec
    norms: np.ndarray
    profile: GridDomain

    def __post_init__(self):
        self.norms.setflags(write=False)

    def eval_many(self, zs, w) -> np.ndarray:
        """K(z, w) for pairs z = (z1, z2), the rows of zs (shape (P, 2)), at
        one pair w, shape (P,), or at each row of a (k, 2) array of w, shape
        (k, P).

        Components are read from the profile at (|z1|, |z2|): a point off the
        profile raises, and pairs whose components differ evaluate to
        exactly zero.
        """
        zs = np.asarray(zs, dtype=complex)
        ws = np.asarray(w, dtype=complex).reshape(-1, 2)
        out = self._sum(zs, ws, _require_inside(self.profile, _moduli(zs)),
                        _require_inside(self.profile, _moduli(ws)))
        return out if np.ndim(w) > 1 else out[0]

    def _sum(self, zs, ws, z_labels, w_labels) -> np.ndarray:
        """The term sum at every pair of rows of ws and zs, shape
        (len(ws), len(zs)), exactly zero where the profile components
        z_labels and w_labels differ (only on a profile of several)."""
        wc = np.conj(ws)
        s1 = zs[None, :, 0] * wc[:, None, 0]
        s2 = zs[None, :, 1] * wc[:, None, 1]
        out = np.zeros(s1.shape, dtype=complex)
        for t, nrm in zip(self.basis.terms, self.norms):
            out += s1 ** t.a * s2 ** t.b / nrm
        if self.profile.n_components > 1:
            out[w_labels[:, None] != z_labels[None, :]] = 0.0
        return out

    def slice_fixed_last(self, z2: complex) -> "ReinhardtSliceKernel":
        return ReinhardtSliceKernel(model=self, z2=complex(z2),
                                    domain=slice_domain(self.profile, abs(z2)))

    def eval_error_estimate(self, w) -> float:
        """The closed-form error model scaled by the term count."""
        return super().eval_error_estimate(w) * len(self.basis)


def _with_last(points: np.ndarray, z2: complex) -> np.ndarray:
    """Pairs (p, z2) for each p, along a new last axis."""
    return np.stack([points, np.full(points.shape, z2)], axis=-1)


@dataclass(frozen=True)
class ReinhardtSliceKernel(Kernel):
    """Planar function z1 -> K((z1, z2), (w1, z2)) of a reinhardt model."""

    model: ReinhardtKernelModel
    z2: complex
    domain: GridDomain

    def eval_many(self, zs, w):
        """Points are checked against the slice's own domain; the profile
        component of a point is that of its slice component."""
        zs = np.asarray(zs, dtype=complex).ravel()
        ws = np.asarray(w, dtype=complex)
        out = self.model._sum(
            _with_last(zs, self.z2), _with_last(ws.ravel(), self.z2),
            self._profile_labels[_require_inside(self.domain, zs)],
            self._profile_labels[_require_inside(self.domain, ws.ravel())])
        return out if ws.ndim else out[0]

    @cached_property
    def _profile_labels(self) -> np.ndarray:
        """Profile component of each slice component (index 0 unused): the
        largest profile label at (|c|, |z2|) over its cell centers c."""
        dom = self.domain
        out = np.zeros(dom.n_components + 1, dtype=np.intp)
        np.maximum.at(out, dom.component_labels[dom.mask],
                      self.model.profile.labels_at(
                          np.abs(dom.centers_of(dom.mask)) + 1j * abs(self.z2)))
        return out

    def eval_error_estimate(self, w: complex) -> float:
        """The closed-form error model scaled by the model's term count."""
        return super().eval_error_estimate(w) * len(self.model.basis)


def slice_domain(profile: GridDomain, r2: float) -> GridDomain:
    """Planar domain swept by the profile row at radius r2: the set of z1
    with (|z1|, r2) in the profile."""
    j = math.floor((r2 - profile.origin[1]) / profile.h)
    if not 0 <= j < profile.ny:
        raise GeomError(f"slice radius {r2} outside the profile array")
    row = profile.mask[:, j]
    if not row.any():
        raise GeomError(f"profile row at r2 = {r2} is empty")
    radii = profile.centers_x
    parts = []
    for i in np.nonzero(row)[0]:
        lo = max(radii[i] - profile.h / 2, 0.0)
        hi = radii[i] + profile.h / 2
        if parts and abs(parts[-1][1] - lo) < 1e-12:
            parts[-1] = (parts[-1][0], hi)
        else:
            parts.append((lo, hi))
    specs = []
    for lo, hi in parts:
        if lo <= profile.h / 4:
            specs.append({"shape": "disc", "center": [0.0, 0.0], "r": hi})
        else:
            specs.append({"shape": "annulus", "center": [0.0, 0.0],
                          "rho": lo, "R": hi})
    spec = specs[0] if len(specs) == 1 else {"shape": "union", "parts": specs}
    return make_domain(spec, profile.h)


# ---------------------------------------------------------------------------
# probe lattices and kernel error
# ---------------------------------------------------------------------------

def _probe_centers(domain: GridDomain, cells: np.ndarray, stride: int) -> np.ndarray:
    """Deterministic probe sub-lattice: every stride-th cell along each axis."""
    sub = np.zeros_like(cells)
    sub[::stride, ::stride] = cells[::stride, ::stride]
    return domain.centers_of(sub)


def compact_cells(domain: GridDomain, margin: float) -> np.ndarray:
    """Cells of the domain at depth greater than the margin."""
    depth = distance_field(domain)
    cells = depth > margin
    if not cells.any():
        raise KernelError(f"compact set at margin {margin} is empty")
    return cells


def kernel_error(models, reference, margin: float,
                 domain: GridDomain | None = None) -> tuple[float, ...]:
    """Max |K_model - K_reference| for each model of a sequence, over one
    deterministic probe-pair lattice of the compact set {depth > margin} of
    the reference domain (by default the reference's own, else the first
    model's).

    z runs over every Z_STRIDE-th cell of the compact set along each axis, w
    over every W_STRIDE-th; every model and the reference are evaluated on
    exactly the same pairs.  When the compact set is too small for a stride
    lattice the stride halves until probes exist.  The reference and each
    model prepare their w side once (`Kernel.prepare_w`: a finite-rank
    kernel's conj-transposed w features), and the z lattice is walked in
    blocks of about PROBE_PAIRS / (number of w) probes (`_z_blocks`): each
    block's rows (`eval_prepared`, one row per w) are evaluated once on the
    reference, and every model's rows are compared with them, the
    difference taken in place.  So each z and each w probe is featurized or
    whitened once per kernel, the reference is evaluated once per run of a
    domain sequence, and memory holds one reference block and one model
    block whatever the number of models: at PROBE_PAIRS = 2^13 pairs,
    128 KB of complex values each and the moduli of their difference.
    Returns one float per model, each equal to a one-model call bit for bit
    and to one w per call to rounding; the values are those of one product
    over the whole lattice, so they do not depend on the block size, and
    are reproducible run to run and at any BLAS thread count.
    """
    models = tuple(models)
    if domain is None:
        domain = reference.domain or models[0].domain
    cells = compact_cells(domain, margin)
    z_probes = _probe_centers_dense_enough(domain, cells, Z_STRIDE)
    w_probes = _probe_centers_dense_enough(domain, cells, W_STRIDE)
    ref_side = reference.prepare_w(w_probes)
    sides = [model.prepare_w(w_probes) for model in models]
    worst = [0.0] * len(models)
    for start, stop in _z_blocks(z_probes.size, w_probes.size):
        zs = z_probes[start:stop]
        ref = reference.eval_prepared(zs, ref_side)
        for k, (model, side) in enumerate(zip(models, sides)):
            diff = model.eval_prepared(zs, side)
            diff -= ref
            worst[k] = max(worst[k], float(np.max(np.abs(diff))))
    return tuple(worst)


def _z_blocks(n_z: int, n_w: int) -> list[tuple[int, int]]:
    """The (start, stop) ranges of kernel_error's z blocks: about
    PROBE_PAIRS / n_w probes each, a whole multiple of Z_ALIGN, and a last
    block of one probe joins the block before it.  OpenBLAS computes the
    columns of a product past its last whole group of 4 (its complex gemm
    column unroll) with an edge kernel, and numpy sends a one-column
    product to a matrix-vector kernel, and both round differently; so only
    such blocks give every pair the bits of one product over the whole
    lattice, whatever PROBE_PAIRS is."""
    block = max(1, PROBE_PAIRS // (n_w * Z_ALIGN)) * Z_ALIGN
    edges = [*range(0, n_z, block), n_z]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges, edges[1:]))


def _probe_centers_dense_enough(domain: GridDomain, cells: np.ndarray,
                                stride: int) -> np.ndarray:
    while stride > 1:
        probes = _probe_centers(domain, cells, stride)
        if probes.size:
            return probes
        stride //= 2
    return domain.centers_of(cells)


def reinhardt_probe_pairs(profile: GridDomain,
                          margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic C^2 probe points over the compact profile cells.

    Radii come from the Z_STRIDE sub-lattice of {profile depth > margin}; the
    torus phases cycle through a fixed golden-angle table, and C2_W_PROBES of
    the points, drawn with DEFAULT_SEED, are the w probes.
    """
    cells = compact_cells(profile, margin)
    pts = _probe_centers(profile, cells, Z_STRIDE)
    golden = 2 * np.pi * 0.381966011250105
    phases = np.exp(1j * golden * np.arange(2 * pts.size).reshape(-1, 2))
    zs = np.column_stack([pts.real * phases[:pts.size, 0],
                          pts.imag * phases[:pts.size, 1]])
    rng = np.random.default_rng(DEFAULT_SEED)
    widx = rng.choice(pts.size, size=min(C2_W_PROBES, pts.size), replace=False)
    ws = zs[widx]
    return zs, ws


def kernel_error_c2(model, reference, margin: float) -> float:
    """Max |K_model - K_reference| over the deterministic C^2 probe pairs
    of the model's profile."""
    zs, ws = reinhardt_probe_pairs(model.profile, margin)
    return float(np.max(np.abs(model.eval_many(zs, ws)
                               - reference.eval_many(zs, ws))))
