"""Finite holomorphic basis families and their L2 Gram matrices.

Planar terms are centered powers (z - p)^n; a negative exponent is admitted
when its center's cell holds no quadrature node (off the array counts as
such), so the pole lies off the shape and the term is bounded on it.
Reinhardt terms are monomials z1^a z2^b evaluated through their radial
moments; monomials of distinct bidegree are exactly orthogonal under the
rotation-invariant weight, so the Gram matrix of a reinhardt basis is
assembled as a diagonal.

Planar Grams integrate by the domain's cell quadrature (`GridDomain.
quadrature`): cut-cell area fractions on a domain rasterized from a shape
spec, the plain midpoint rule per true cell on a domain built from a mask.
The nodes are taken in their fixed row-major order, in blocks of
GRAM_BLOCK, and each block adds into the Gram with one Hermitian rank-k
BLAS update (zherk).  Only the term values of one block are held at a
time, and every Gram entry is bit reproducible run to run and at any BLAS
thread count.

Nested members of one sequence on one lattice (an exhaustion's interior
approximants, a barbell's necks) are fitted shell by shell: given the fit
of the member inside it, a member's Gram starts from that fit's sum and
adds only its own cells outside it, so a sequence's cells are integrated
once in all.  The chained sum differs from a member's own sum only in its
order, at rounding level.

Term values are held term-major (`term_matrix`): each term's values are
one contiguous row, so a block goes to zherk (trans='C') without a copy.
Whitening (`GramFactor.whiten`) calls LAPACK's triangular solve ztrtrs
directly, on a right side written in its Fortran order by the division
by the scale.

A fit takes one path, and either fits or fails loudly: `gram_matrix`
raises BasisError on a term whose squared norm is not a positive normal
float, and `factorize` raises FactorizationError the first time Cholesky
of the normalized Gram fails.  Every term is kept, and the Gram is
factored as assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import ztrtrs

from .geom import GeomError, GridDomain, PLANAR, REINHARDT, shell_mask

GRAM_BLOCK = 4096           # quadrature nodes per Hermitian update of a Gram


class BasisError(ValueError):
    """Inadmissible basis term or malformed basis."""


class FactorizationError(RuntimeError):
    """Cholesky factorization of the normalized Gram matrix failed: the
    basis is numerically dependent on the domain."""


@dataclass(frozen=True)
class PlanarTerm:
    """(z - center)^n; n < 0 needs no quadrature node in the center's cell."""

    center: complex
    n: int

    def label(self) -> str:
        return (f"planar {float(self.center.real)!r} "
                f"{float(self.center.imag)!r} {int(self.n)}")


@dataclass(frozen=True)
class ReinhardtTerm:
    """z1^a z2^b; a < 0 needs the profile to exclude r1 = 0."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < 0:
            raise BasisError("reinhardt exponent b must be nonnegative")

    def label(self) -> str:
        return f"reinhardt {int(self.a)} {int(self.b)}"


@dataclass(frozen=True)
class BasisSpec:
    """Ordered, duplicate-free list of terms; the order is part of the value."""

    terms: tuple
    kind: str = PLANAR

    def __post_init__(self):
        if not self.terms:
            raise BasisError("empty basis")
        if len(set(self.terms)) != len(self.terms):
            raise BasisError("basis terms must be distinct")
        want = PlanarTerm if self.kind == PLANAR else ReinhardtTerm
        if not all(isinstance(t, want) for t in self.terms):
            raise BasisError(f"terms do not match basis kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.terms)


def monomials(center: complex, degree: int) -> BasisSpec:
    """Powers (z - center)^n for n = 0 .. degree."""
    return BasisSpec(tuple(PlanarTerm(complex(center), n) for n in range(degree + 1)))


def laurent(center: complex, n_neg: int, n_pos: int) -> BasisSpec:
    """Powers (z - center)^n for n = -n_neg .. n_pos."""
    return BasisSpec(tuple(PlanarTerm(complex(center), n)
                           for n in range(-n_neg, n_pos + 1)))


def principal_parts(center: complex, n_neg: int) -> BasisSpec:
    """Negative powers (z - center)^n for n = -n_neg .. -1 only.

    The right complement to a monomial family on a domain with a hole at
    `center`: adding nonnegative powers at a second center would double-span
    the polynomials and degenerate the Gram.
    """
    return BasisSpec(tuple(PlanarTerm(complex(center), n)
                           for n in range(-n_neg, 0)))


def merged(*bases: BasisSpec) -> BasisSpec:
    terms: list = []
    for b in bases:
        terms.extend(b.terms)
    return BasisSpec(tuple(terms), kind=bases[0].kind)


def reinhardt_window(a_min: int, a_max: int, b_max: int) -> BasisSpec:
    terms = tuple(ReinhardtTerm(a, b)
                  for a in range(a_min, a_max + 1) for b in range(b_max + 1))
    return BasisSpec(terms, kind=REINHARDT)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def check_admissible(basis: BasisSpec, U: GridDomain) -> None:
    """Raise BasisError if any term is not square-integrable on U.  A
    planar pole is admitted when its cell holds no node of U's quadrature
    (off the array counts as such): in a hole, or anywhere in the unbounded
    complement clear of the cut cells, which hold every point of the
    shape.  The pole's cell alone decides (`GridDomain.is_quadrature_cell`);
    no node array is built."""
    if basis.kind == PLANAR:
        if U.kind != PLANAR:
            raise BasisError("planar basis on a non-planar domain")
        # each pole once, in first-appearance order, so the error names the
        # pole of the first offending term
        for center in dict.fromkeys(t.center for t in basis.terms if t.n < 0):
            cell = U.cell_of(center)
            if cell is not None and U.is_quadrature_cell(cell):
                raise BasisError(
                    f"negative power centered at {center} is not admissible: "
                    "its pole's cell holds a quadrature node")
        return
    if U.kind != REINHARDT:
        raise BasisError("reinhardt basis on a non-reinhardt domain")
    min_r1 = U.centers_x[np.nonzero(U.mask.any(axis=1))[0][0]]
    for t in basis.terms:
        if t.a < 0 and min_r1 < U.h:
            raise BasisError(
                f"Laurent exponent a={t.a} needs the profile to exclude r1 = 0")


# ---------------------------------------------------------------------------
# term evaluation
# ---------------------------------------------------------------------------

def term_matrix(basis: BasisSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate planar terms at complex points: shape (len(points), N).

    The values are held term-major: one contiguous row of a C-ordered
    (N, len(points)) array per term, returned as its transposed view, so
    each term's ladder writes one unit-stride row and the result is the
    Fortran-ordered operand BLAS and LAPACK take without a copy.  Powers
    sharing a center are built by a multiplicative ladder, so a basis
    window costs one multiply per term; only the requested powers are kept.
    """
    points = np.asarray(points, dtype=complex).ravel()
    rows = np.empty((len(basis), points.size), dtype=complex)
    by_center: dict[complex, list[tuple[int, int]]] = {}
    for row, t in enumerate(basis.terms):
        by_center.setdefault(t.center, []).append((t.n, row))
    for center, entries in by_center.items():
        w = points - center
        pos = {n: r for n, r in entries if n >= 0}
        neg = {-n: r for n, r in entries if n < 0}
        if pos:
            _write_powers(rows, w, pos)
        if neg:
            _write_powers(rows, 1.0 / w, neg)
    return rows.T


def _write_powers(rows: np.ndarray, step: np.ndarray, wanted: dict) -> None:
    """rows[wanted[n]] = step^n for each requested n >= 0, by the ladder
    1, step, step^2, ... held in one running array.  The product is taken
    out of place: numpy's in-place complex multiply rounds some lengths
    differently, and the values must not depend on the batch size."""
    cur = np.ones_like(step)
    for n in range(max(wanted) + 1):
        if n:
            cur = cur * step
        if n in wanted:
            rows[wanted[n]] = cur


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of L2 inner products G_ij = int_U b_i conj(b_j) dV."""

    matrix: np.ndarray
    conditioning: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _normalized_cond(G: np.ndarray) -> float:
    """Conditioning of the diagonally normalized matrix."""
    d = np.sqrt(np.diag(G).real)
    eig = np.linalg.eigvalsh(G / np.outer(d, d))
    lo = max(float(eig[0]), 1e-300)
    return float(eig[-1]) / lo


def gram_matrix(basis: BasisSpec, U: GridDomain, inner=None) -> GramMatrix:
    """Assemble the Gram matrix of the basis over U by its cell quadrature.

    Planar terms are evaluated on GRAM_BLOCK quadrature nodes at a time,
    in the fixed node order, as the term-major (k, N) block B of
    `term_matrix`, and scaled by the square roots of the cell area
    fractions; on a mask-built domain every fraction is exactly 1, the
    scaling is skipped and the entries are midpoint sums.  Each block adds
    h^2 B^H B into the upper triangle with one Hermitian rank-k update
    (zherk with trans='C', which reads B in place).  That sum is conj(G),
    computed with the same rounding as G itself, so conjugating it gives
    G's upper triangle; the lower triangle is then mirrored conjugate, and
    the stored matrix is exactly Hermitian with a real diagonal.
    Reinhardt cross terms between distinct bidegrees vanish analytically
    and are set to zero.

    inner, a fit of the same basis on a mask-built domain nested in a
    mask-built U on U's lattice (a `kernel.KernelModel`), chains the
    assembly: the sum starts from the inner fit's accumulator, the conj of
    its matrix, and adds only U's cells outside the inner domain, in their
    row-major order.  Without inner the sum starts from zero over all of
    U's nodes.  Either way a mask-built U's nodes are built for the call
    and not cached on the domain.  An inner fit that breaks this rule
    raises BasisError.

    A term whose diagonal entry, its squared norm on U, is not a finite
    positive normal float carries no usable signal (a norm that underflows
    on a small domain, say): it raises BasisError, naming the first such
    term.
    """
    check_admissible(basis, U)
    N = len(basis)
    if basis.kind == PLANAR:
        Gc, nodes, frac = _gram_start(basis, U, inner)
        for start in range(0, nodes.size, GRAM_BLOCK):
            block = slice(start, start + GRAM_BLOCK)
            B = term_matrix(basis, nodes[block])
            if frac is not None:
                B *= np.sqrt(frac[block])[:, None]
            # B is the Fortran-ordered k x N operand of C += a A^H A
            Gc = zherk(U.h * U.h, B, beta=1.0, c=Gc, trans=2, overwrite_c=1)
        # Gc = conj(G); adding +0.0 turns the -0.0 that conj puts on every
        # exactly real entry, the diagonal included, back into +0.0
        G = np.conj(Gc) + 0.0
        lower = np.tril_indices(N, -1)
        G[lower] = G.T[lower].conj()
    else:
        if inner is not None:
            raise BasisError("a chained Gram needs a planar basis")
        ii, jj = np.nonzero(U.mask)
        r1 = U.centers_x[ii]
        r2 = U.centers_y[jj]
        w = (2 * np.pi) ** 2 * U.h * U.h
        G = np.zeros((N, N), dtype=complex)
        for i, t in enumerate(basis.terms):
            G[i, i] = np.sum(r1 ** (2 * t.a + 1) * r2 ** (2 * t.b + 1)) * w
    diag = np.diag(G).real
    bad = ~(np.isfinite(diag) & (diag >= np.finfo(float).tiny))
    if bad.any():
        i = int(np.argmax(bad))
        raise BasisError(
            f"term {basis.terms[i].label()!r} has squared norm "
            f"{float(diag[i])!r} on the domain, not a finite positive normal "
            "float: drop it from the basis")
    trace = float(np.trace(G).real)
    eig_min = float(np.linalg.eigvalsh(G)[0])
    if eig_min <= -1e-10 * trace:
        raise BasisError(
            f"Gram matrix is not positive to quadrature tolerance "
            f"(min eigenvalue {eig_min:.3e} vs trace {trace:.3e})")
    return GramMatrix(matrix=G, conditioning=_normalized_cond(G))


def _gram_start(basis: BasisSpec, U: GridDomain, inner):
    """The accumulator a planar Gram starts from, and the nodes still to
    add with their area fractions (None where every fraction is 1)."""
    N = len(basis)
    if inner is None:
        Gc = np.zeros((N, N), dtype=complex, order="F")
        if U.spec is None:
            return Gc, U.centers_of(U.mask), None
        nodes, frac = U.quadrature
        return Gc, nodes, frac if (frac != 1.0).any() else None
    if inner.basis != basis:
        raise BasisError("the inner fit has another basis")
    V = inner.domain
    if U.spec is not None or V.spec is not None:
        raise BasisError("a chained Gram needs mask-built domains: the cut "
                         "cells of a spec-built one do not split into shells")
    try:
        shell = shell_mask(U, V)
    except GeomError as e:
        raise BasisError(f"the inner fit's domain does not chain: {e}") from None
    Gc = np.array(np.conj(inner.gram.matrix), order="F")
    return Gc, U.centers_of(shell), None


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramFactor:
    """Cholesky factor of the diagonally normalized Gram matrix.

    With scale s = sqrt(diag G) and C = G / (s s^T) = L L^H, solves against
    the raw G go through x = s^-1 (L L^H)^-1 s^-1 y, and kernel evaluation
    whitens basis values via v = L^-1 (b / s).
    """

    lower: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.lower).all():
            raise ValueError("Gram factor must be finite")
        self.lower.setflags(write=False)
        self.scale.setflags(write=False)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def whiten(self, values: np.ndarray) -> np.ndarray:
        """Map raw basis values (..., N) to whitened coordinates (N, ...).

        Solves L v = b / s with one direct LAPACK ztrtrs call on the
        Fortran-ordered transpose of the C-ordered factor (upper, trans='T'),
        the arguments scipy's solve_triangular passes, so every column
        equals solve_triangular(L, b / s, lower=True) bit for bit.
        """
        v = np.asarray(values, dtype=complex)
        # a C-ordered (k, N) quotient is the Fortran-ordered (N, k) right side
        flat = np.divide(v, self.scale, order="C").reshape(-1, self.n).T
        if not np.isfinite(flat).all():
            raise ValueError("basis values must be finite")
        out, info = ztrtrs(self.lower.T, flat, lower=0, trans=1,
                           overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"triangular solve failed (LAPACK info {info})")
        return out.reshape((self.n,) + v.shape[:-1])

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solve G x = y for the raw Gram matrix."""
        rhs = np.asarray(y, dtype=complex) / self.scale
        u = sla.solve_triangular(self.lower, rhs, lower=True)
        x = sla.solve_triangular(self.lower.conj().T, u, lower=False)
        return x / self.scale


def factorize(G: GramMatrix) -> GramFactor:
    """Cholesky factorization of the diagonally normalized Gram matrix
    C = G / (s s^T), enabling solves G x = y.

    The factorization is attempted once: if Cholesky fails, C is not
    numerically positive definite, the basis is dependent on the domain,
    and FactorizationError is raised.
    """
    s = np.sqrt(np.abs(np.diag(G.matrix).real))
    if (s == 0).any():
        raise FactorizationError("Gram matrix has a zero diagonal entry")
    try:
        L = np.linalg.cholesky(G.matrix / np.outer(s, s))
    except np.linalg.LinAlgError:
        raise FactorizationError(
            f"Gram factorization failed: the {G.n}-term basis is numerically "
            f"dependent on the domain (normalized conditioning "
            f"{G.conditioning:.3g})") from None
    return GramFactor(lower=L, scale=s)
