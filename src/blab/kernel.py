"""Finite-rank Bergman kernels from Gram factors, and closed-form references.

A fitted kernel evaluates through whitened coordinates: with C = L L^H the
normalized Gram matrix and v(p) = L^-1 (b(p) / s), the kernel value is
K(z, w) = <v(z), v(w)> = sum_m conj(v_m(w)) v_m(z).  This form makes
Hermitian symmetry and diagonal nonnegativity exact in floating point, and
the reproducing identity an algebraic identity at the quadrature level.

Closed forms cover discs (rational or truncated series), annuli (Laurent
series with a recorded geometric tail bound), balls, and products of planar
factors for the C^2 experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
PROBE_CHUNK = 64            # w probes per eval_many call in kernel_error


class KernelError(ValueError):
    """Invalid kernel evaluation or construction."""


class OutsideDomainError(KernelError):
    """An evaluation point is outside the model's domain."""


# ---------------------------------------------------------------------------
# fitted planar models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelModel:
    """Finite-rank reproducing kernel of a basis span on a grid domain."""

    basis: bs.BasisSpec
    gram: bs.GramMatrix
    factor: bs.GramFactor
    domain: GridDomain
    dropped: tuple = ()

    @property
    def n_terms(self) -> int:
        return len(self.basis)

    @property
    def h(self) -> float:
        return self.domain.h

    def whitened(self, points: np.ndarray) -> np.ndarray:
        """Whitened coordinates v(p) = L^-1 (b(p)/s), shape (N, len(points))."""
        B = bs.term_matrix(self.basis, points)
        return self.factor.whiten(B)

    def _require_inside(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex).ravel()
        dom = self.domain
        i = np.floor((pts.real - dom.origin[0]) / dom.h).astype(int)
        j = np.floor((pts.imag - dom.origin[1]) / dom.h).astype(int)
        ok = (i >= 0) & (i < dom.nx) & (j >= 0) & (j < dom.ny)
        if not ok.all():
            raise OutsideDomainError(
                f"point {pts[~ok][0]} is outside the domain array")
        labels = dom.component_labels[i, j]
        if (labels == 0).any():
            raise OutsideDomainError(
                f"point {pts[labels == 0][0]} is outside the domain")
        return labels

    def eval_many(self, zs: np.ndarray, w) -> np.ndarray:
        """K(z, w) for a batch of z at one w, shape (len(zs),), or at each
        w of a 1-D array, shape (len(w), len(zs)) with one row per w.

        The zs are whitened once per call and each w once; every row is the
        product conj(v(w)) @ V.  Each w goes through its own single-column
        triangular solve, because a multi-column solve rounds differently,
        so a row is bit-identical to the scalar-w call.  Pairs whose
        component labels differ evaluate to exactly zero.
        """
        zs = np.asarray(zs, dtype=complex).ravel()
        ws = np.asarray(w, dtype=complex)
        z_labels = self._require_inside(zs)
        w_labels = self._require_inside(ws)
        V = self.whitened(zs)
        Bw = bs.term_matrix(self.basis, ws)
        out = np.empty((ws.size, zs.size), dtype=complex)
        for k in range(ws.size):
            vw = self.factor.whiten(Bw[k])
            out[k] = np.conj(vw) @ V
            out[k, z_labels != w_labels[k]] = 0.0
        return out if ws.ndim else out[0]

    def eval(self, z: complex, w: complex) -> complex:
        return complex(self.eval_many(np.array([z]), w)[0])

    def diagonal(self, zs: np.ndarray) -> np.ndarray:
        """K(z, z) >= 0, exact: sum of squared moduli of whitened coords."""
        zs = np.asarray(zs, dtype=complex).ravel()
        self._require_inside(zs)
        V = self.whitened(zs)
        return np.sum(V.real ** 2 + V.imag ** 2, axis=0)

    def eval_error_estimate(self, w: complex) -> float:
        """Absolute error scale for values of K(., w).

        Machine epsilon amplified by the square root of the normalized Gram
        conditioning (the effective loss in the triangular solves) on the
        local kernel magnitude.
        """
        kww = float(self.diagonal(np.array([w]))[0])
        amp = math.sqrt(max(self.factor.conditioning, 1.0))
        return EVAL_ERROR_COEFF * amp * (1.0 + kww)


def fit_kernel(U: GridDomain, basis: bs.BasisSpec):
    """Fit the finite-rank kernel of the basis span on U.

    Terms whose diagonal Gram entry is zero, nonfinite, or degraded to the
    subnormal range are dropped before factorization: their whitened columns
    carry no information.  Well-scaled terms are kept regardless of the
    spread between diagonal entries; the diagonal normalization inside the
    factorization makes the solve scale-free.  Reinhardt profiles get a
    diagonal model.
    """
    gram = bs.gram_matrix(basis, U)
    diag = np.diag(gram.matrix).real
    keep = np.nonzero(np.isfinite(diag) & (diag > bs.DROP_FLOOR))[0]
    dropped: tuple = ()
    if len(keep) < gram.n:
        dropped = tuple(basis.terms[i] for i in range(gram.n) if i not in set(keep))
        gram = gram.subset(keep)
    if U.kind == REINHARDT:
        return ReinhardtKernelModel(
            basis=gram.basis, norms=np.diag(gram.matrix).real.copy(),
            profile=U, dropped=dropped)
    factor = bs.factorize(gram)
    return KernelModel(basis=gram.basis, gram=gram, factor=factor,
                       domain=U, dropped=dropped)


def eval_kernel(model, z, w):
    """Kernel value(s) with the cross-component zero rule enforced.

    Accepts a scalar or an array of z for fixed w; points must lie inside
    the model's domain.
    """
    zs = np.asarray(z, dtype=complex)
    out = model.eval_many(zs.ravel(), complex(w))
    if zs.ndim == 0:
        return complex(out[0])
    return out.reshape(zs.shape)


# ---------------------------------------------------------------------------
# extremal characterization and reproducing residual
# ---------------------------------------------------------------------------

def extremal_value(model: KernelModel, z: complex,
                   tol: float = 1e-8) -> tuple[float, np.ndarray]:
    """Maximize f(z) over the basis span subject to f(z) >= ||f||^2.

    The optimizer is the kernel section at z: solving G c = conj(b(z)) gives
    f with f(z) = ||f||^2 = K(z, z).  The constraint is verified to hold with
    equality to the stated relative tolerance.
    """
    model._require_inside(np.array([z]))
    bz = bs.term_matrix(model.basis, np.array([z]))[0]
    c = model.factor.solve(np.conj(bz))
    value = (bz @ c).real
    norm_sq = (np.conj(c) @ (model.gram.matrix @ c)).real
    if abs(norm_sq - value) > tol * max(abs(value), 1e-300):
        raise KernelError(
            f"extremal constraint violated: f(z)={value:.6e}, "
            f"||f||^2={norm_sq:.6e}")
    return float(value), c


def reproducing_residual(model: KernelModel, i: int,
                         quadrature: GridDomain | None = None,
                         probe_stride: int = 8) -> float:
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
    nodes, frac = quad.quadrature
    Bq = bs.term_matrix(model.basis, nodes)
    Vq = model.factor.whiten(Bq)
    q = (Vq * (np.conj(Bq[:, i]) * frac)[None, :]).sum(axis=1) * quad.h * quad.h

    probes = _probe_centers(model.domain, model.domain.mask, probe_stride)
    Vz = model.whitened(probes)
    integral = np.conj(q) @ Vz
    target = bs.term_matrix(model.basis, probes)[:, i]
    return float(np.max(np.abs(integral - target) / (1.0 + np.abs(target))))


# ---------------------------------------------------------------------------
# closed-form reference kernels
# ---------------------------------------------------------------------------

def _shifted(z, w, center: complex):
    """s = (z - c) conj(w - c); one row per w when w is a 1-D array."""
    zc = np.asarray(z, dtype=complex) - center
    wc = np.conj(np.asarray(w, dtype=complex) - center)
    if wc.ndim:
        return zc.ravel()[None, :] * wc[:, None]
    return zc * wc


@dataclass(frozen=True)
class DiscKernel:
    """Disc kernel r^2 / (pi (r^2 - s)^2), s = (z-c) conj(w-c).

    With a truncation M the kernel of the degree-M monomial span is evaluated
    instead: sum_{n<=M} (n+1) s^n / (pi r^(2n+2)).
    """

    center: complex
    r: float
    truncation: int | None = None
    domain: GridDomain | None = None

    def eval_many(self, zs, w):
        s = _shifted(zs, w, self.center)
        r2 = self.r * self.r
        if self.truncation is None:
            return r2 / (np.pi * (r2 - s) ** 2)
        u = s / r2
        coef = np.arange(self.truncation + 1, 0, -1, dtype=float)
        out = np.full_like(u, coef[0])
        for c in coef[1:]:
            out = out * u + c
        return out / (np.pi * r2)

    def eval(self, z, w):
        return complex(self.eval_many(np.array([z]), w)[0])

    def tail_bound(self, s_abs: float) -> float:
        if self.truncation is None:
            return 0.0
        q = s_abs / (self.r * self.r)
        if q >= 1:
            return math.inf
        M = self.truncation
        tail = q ** (M + 1) * ((M + 2) - (M + 1) * q) / (1 - q) ** 2
        return tail / (np.pi * self.r * self.r)

    def eval_error_estimate(self, w: complex) -> float:
        """Floating-point evaluation error of this (possibly truncated)
        kernel.  The truncation gap to the ideal disc kernel is a modeling
        property reported by tail_bound, not an evaluation error."""
        kww = abs(self.eval(w, w))
        return EVAL_ERROR_COEFF * (1.0 + kww)


@dataclass(frozen=True)
class AnnulusKernel:
    """Annulus kernel as the orthogonal Laurent series, truncated at |n| <= M.

    Coefficients are c_n = 1/||z^n||^2 with
    ||z^n||^2 = pi (R^(2n+2) - rho^(2n+2)) / (n+1) for n != -1 and
    2 pi log(R/rho) for n = -1.  Evaluation is carried out on the scaled
    variables s/R^2 and rho^2/s so that scaled copies of the annulus stay in
    floating range; the dropped tail is bounded by recorded geometric sums.
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

    def eval_many(self, zs, w):
        s = _shifted(zs, w, self.center)
        mod = np.abs(s)
        if np.any(mod <= self.rho ** 2) or np.any(mod >= self.R ** 2):
            bad = s.ravel()[np.argmax((mod <= self.rho ** 2)
                                      | (mod >= self.R ** 2))]
            raise KernelError(
                f"series argument s = {bad:.6g} lies outside the annulus of "
                f"convergence ({self.rho ** 2:.6g}, {self.R ** 2:.6g})")
        u = s / self.R ** 2
        v = self.rho ** 2 / s
        pos = self._pos_coefs()
        out = np.full_like(u, pos[-1])
        for c in pos[-2::-1]:
            out = out * u + c
        neg = self._neg_coefs()
        acc = np.full_like(v, neg[-1])
        for c in neg[-2::-1]:
            acc = acc * v + c
        return out + acc * v

    def eval(self, z, w):
        return complex(self.eval_many(np.array([z]), w)[0])

    def tail_bound(self, s_abs: float) -> float:
        """Upper bound on the modulus of the dropped series tail at |s|."""
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
        term sum (the summation condition).  The truncation gap to the ideal
        annulus kernel is reported by tail_bound, not here."""
        wr = abs(complex(w) - self.center)
        cond_sum = max(self._abs_series_at(wr * self.rho),
                       self._abs_series_at(wr * self.R))
        return EVAL_ERROR_COEFF * (1.0 + cond_sum)

    def _abs_series_at(self, s_abs: float) -> float:
        u = s_abs / self.R ** 2
        v = self.rho ** 2 / s_abs
        n = np.arange(self.truncation + 1, dtype=float)
        m = np.arange(1, self.truncation + 1, dtype=float)
        return float((self._pos_coefs() * u ** n).sum()
                     + (self._neg_coefs() * v ** m).sum())

    def diagonal_sign_changes(self, samples: int = 4000) -> list[float]:
        """Real zeros of the truncated series on the negative axis of the
        convergence annulus rho^2 < |s| < R^2 (bisection after a sign scan)."""
        lo = -self.R ** 2 * 0.995
        hi = -self.rho ** 2 * 1.005
        ss = np.linspace(lo, hi, samples)
        vals = np.array([self._real_at(s) for s in ss])
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
        return float(np.real(self._series_at(complex(s))))

    def _series_at(self, s: complex) -> complex:
        u = s / self.R ** 2
        v = self.rho ** 2 / s
        pos = self._pos_coefs()
        out = complex(pos[-1])
        for c in pos[-2::-1]:
            out = out * u + c
        neg = self._neg_coefs()
        acc = complex(neg[-1])
        for c in neg[-2::-1]:
            acc = acc * v + c
        return out + acc * v


def annulus_auto_truncation(rho: float, R: float, tol: float = 1e-10,
                            band: tuple[float, float] | None = None) -> int:
    """Smallest truncation whose tail bound is below tol across the probe
    band of |s| (default: radii 5 percent inside the annulus of convergence)."""
    if band is None:
        band = ((1.05 * rho) ** 2, (0.95 * R) ** 2)
    for M in range(8, 4097):
        k = AnnulusKernel(0, rho, R, M)
        if k.tail_bound(band[0]) < tol and k.tail_bound(band[1]) < tol:
            return M
    raise KernelError("no admissible truncation below 4096 terms")


@dataclass(frozen=True)
class ProductKernel:
    """Pointwise product of planar factor kernels: the C^2 (or C^n) kernel of
    a product domain.  Its zero set is exactly (zero set of a factor) times
    the remaining factor domains."""

    factors: tuple

    def eval(self, z: Sequence[complex], w: Sequence[complex]) -> complex:
        out = 1.0 + 0.0j
        for k, fac in enumerate(self.factors):
            out *= fac.eval(z[k], w[k])
        return complex(out)

    def eval_pairs(self, zs: np.ndarray, w: Sequence[complex]) -> np.ndarray:
        """Batch over rows of zs (shape (P, n_factors)) at fixed w."""
        zs = np.asarray(zs, dtype=complex)
        out = np.ones(zs.shape[0], dtype=complex)
        for k, fac in enumerate(self.factors):
            out *= fac.eval_many(zs[:, k], complex(w[k]))
        return out

    def slice_fixed_last(self, z2: complex) -> "ScaledPlanarKernel":
        """Planar slice z1 -> K((z1, z2), (w1, z2)): the first factor scaled
        by the positive diagonal value of the second."""
        scale = self.factors[1].eval(z2, z2)
        return ScaledPlanarKernel(base=self.factors[0], scale=complex(scale),
                                  domain=self.factors[0].domain)


@dataclass(frozen=True)
class ScaledPlanarKernel:
    base: object
    scale: complex
    domain: GridDomain | None = None

    def eval_many(self, zs, w):
        return self.base.eval_many(zs, w) * self.scale

    def eval(self, z, w):
        return complex(self.eval_many(np.array([z]), w)[0])

    def eval_error_estimate(self, w: complex) -> float:
        return abs(self.scale) * self.base.eval_error_estimate(w)


@dataclass(frozen=True)
class BallKernel:
    """Unit-ball kernel in C^n: n! / (pi^n (1 - <z, w>)^(n+1))."""

    n: int

    def eval(self, z: Sequence[complex], w: Sequence[complex]) -> complex:
        inner = sum(zk * np.conj(wk) for zk, wk in zip(z, w))
        return complex(math.factorial(self.n)
                       / (np.pi ** self.n * (1 - inner) ** (self.n + 1)))


def closed_form(spec: dict, truncation: int | None = None,
                h: float | None = None):
    """Closed-form kernel for a shape spec.

    disc: exact rational form, or the degree-`truncation` series when a
    truncation is given (for matched comparison against a fitted model).
    annulus: Laurent series; `truncation` defaults to the smallest order
    whose recorded tail bound is below 1e-10 on the probe band.
    product: factors built recursively.  ball: {"shape": "ball", "n": k}.
    Passing h attaches a rasterized grid for scanning.
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
        factors = tuple(closed_form(f, truncation=truncation, h=h)
                        for f in spec["factors"])
        return ProductKernel(factors=factors)
    if kind == "polydisc":
        discs = tuple(closed_form(d, truncation=truncation, h=h)
                      for d in spec["discs"])
        return ProductKernel(factors=discs)
    if kind == "ball":
        return BallKernel(n=spec["n"])
    raise KernelError(f"no closed form for shape {kind!r}")


# ---------------------------------------------------------------------------
# reinhardt models and slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReinhardtKernelModel:
    """Diagonal kernel of a monomial span on a reinhardt domain.

    K(z, w) = sum over terms of (z1 conj(w1))^a (z2 conj(w2))^b / ||term||^2.
    """

    basis: bs.BasisSpec
    norms: np.ndarray
    profile: GridDomain
    dropped: tuple = ()

    def __post_init__(self):
        self.norms.setflags(write=False)

    def _profile_point(self, z: Sequence[complex]) -> complex:
        return complex(abs(z[0]), abs(z[1]))

    def component_of(self, z: Sequence[complex]) -> int:
        return self.profile.component_of(self._profile_point(z))

    def eval(self, z: Sequence[complex], w: Sequence[complex]) -> complex:
        cz = self.component_of(z)
        cw = self.component_of(w)
        if cz == 0 or cw == 0:
            raise OutsideDomainError("evaluation point outside the reinhardt domain")
        if cz != cw:
            return 0.0 + 0.0j
        s1 = z[0] * np.conj(w[0])
        s2 = z[1] * np.conj(w[1])
        out = 0.0 + 0.0j
        for t, nrm in zip(self.basis.terms, self.norms):
            out += s1 ** t.a * s2 ** t.b / nrm
        return complex(out)

    def eval_pairs(self, zs: np.ndarray, w: Sequence[complex]) -> np.ndarray:
        """Batch over rows of zs = [(z1, z2), ...] at fixed w."""
        zs = np.asarray(zs, dtype=complex)
        s1 = zs[:, 0] * np.conj(w[0])
        s2 = zs[:, 1] * np.conj(w[1])
        out = np.zeros(zs.shape[0], dtype=complex)
        for t, nrm in zip(self.basis.terms, self.norms):
            out += s1 ** t.a * s2 ** t.b / nrm
        return out

    def slice_fixed_last(self, z2: complex) -> "ReinhardtSliceKernel":
        return ReinhardtSliceKernel(model=self, z2=complex(z2),
                                    domain=slice_domain(self.profile, abs(z2)))

    def eval_error_estimate_pair(self, w: Sequence[complex]) -> float:
        kww = abs(self.eval(w, w))
        return EVAL_ERROR_COEFF * (1.0 + kww) * len(self.basis)


@dataclass(frozen=True)
class ReinhardtSliceKernel:
    """Planar function z1 -> K((z1, z2), (w1, z2)) of a reinhardt model."""

    model: ReinhardtKernelModel
    z2: complex
    domain: GridDomain

    def eval_many(self, zs, w):
        zs = np.asarray(zs, dtype=complex).ravel()
        pairs = np.column_stack([zs, np.full(zs.size, self.z2)])
        ws = np.asarray(w, dtype=complex)
        rows = [self.model.eval_pairs(pairs, (complex(wk), self.z2))
                for wk in ws.ravel()]
        return np.array(rows) if ws.ndim else rows[0]

    def eval(self, z, w):
        return complex(self.eval_many(np.array([z]), w)[0])

    def eval_error_estimate(self, w: complex) -> float:
        return self.model.eval_error_estimate_pair((complex(w), self.z2))


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
    return domain.center_grid[sub]


def compact_cells(domain: GridDomain, margin: float) -> np.ndarray:
    """Cells of the domain at depth greater than the margin."""
    depth = distance_field(domain).values
    cells = depth > margin
    if not cells.any():
        raise KernelError(f"compact set at margin {margin} is empty")
    return cells


def kernel_error(model, reference, margin: float,
                 domain: GridDomain | None = None,
                 zstride: int = 4, wstride: int = 16) -> float:
    """Max |K_model - K_reference| over a deterministic probe-pair lattice of
    the compact set {depth > margin} of the reference domain.

    z runs over every 4th cell of the compact set along each axis, w over
    every 16th; both models are evaluated on exactly the same pairs.  When
    the compact set is too small for a stride lattice the stride halves
    until probes exist.  Each side is called once per PROBE_CHUNK w probes
    (`eval_many` with an array of w, one row per w), so a fitted model
    whitens the z lattice once per chunk; the chunk bounds the memory of
    the rows.
    """
    if domain is None:
        domain = getattr(reference, "domain", None) or model.domain
    cells = compact_cells(domain, margin)
    z_probes = _probe_centers_dense_enough(domain, cells, zstride)
    w_probes = _probe_centers_dense_enough(domain, cells, wstride)
    worst = 0.0
    for start in range(0, w_probes.size, PROBE_CHUNK):
        ws = w_probes[start:start + PROBE_CHUNK]
        a = model.eval_many(z_probes, ws)
        b = reference.eval_many(z_probes, ws)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _probe_centers_dense_enough(domain: GridDomain, cells: np.ndarray,
                                stride: int) -> np.ndarray:
    while stride > 1:
        probes = _probe_centers(domain, cells, stride)
        if probes.size:
            return probes
        stride //= 2
    return domain.center_grid[cells]


def reinhardt_probe_pairs(profile: GridDomain, margin: float,
                          stride: int = 4, n_w: int = 12,
                          seed: int = 1729) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic C^2 probe points over the compact profile cells.

    Radii come from the stride sub-lattice of {profile depth > margin}; the
    torus phases cycle through a fixed golden-angle table.
    """
    cells = compact_cells(profile, margin)
    pts = _probe_centers(profile, cells, stride)
    golden = 2 * np.pi * 0.381966011250105
    phases = np.exp(1j * golden * np.arange(2 * pts.size).reshape(-1, 2))
    zs = np.column_stack([pts.real * phases[:pts.size, 0],
                          pts.imag * phases[:pts.size, 1]])
    rng = np.random.default_rng(seed)
    widx = rng.choice(pts.size, size=min(n_w, pts.size), replace=False)
    ws = zs[widx]
    return zs, ws


def kernel_error_c2(model, reference, margin: float,
                    profile: GridDomain | None = None) -> float:
    """Max |K_model - K_reference| over the deterministic C^2 probe pairs."""
    if profile is None:
        profile = model.profile
    zs, ws = reinhardt_probe_pairs(profile, margin)
    worst = 0.0
    for w in ws:
        a = model.eval_pairs(zs, (complex(w[0]), complex(w[1])))
        b = reference.eval_pairs(zs, (complex(w[0]), complex(w[1])))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

def dump_kernel_field(model, w: complex, path, stride: int = 1) -> None:
    """CSV of K(., w) over the domain: re(z), im(z), re(K), im(K), |K|."""
    cells = model.domain.mask
    probes = _probe_centers(model.domain, cells, stride)
    vals = model.eval_many(probes, w)
    with open(path, "w", encoding="utf-8") as f:
        f.write("re_z,im_z,re_K,im_K,abs_K\n")
        for z, k in zip(probes, vals):
            f.write(f"{z.real:.12g},{z.imag:.12g},{k.real:.12g},"
                    f"{k.imag:.12g},{abs(k):.12g}\n")
