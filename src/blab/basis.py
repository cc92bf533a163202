"""Finite holomorphic basis families and their L2 Gram matrices.

Planar terms are centered powers (z - p)^n; negative exponents are admitted
only when the center lies in a bounded complement component of the domain, so
the term stays square-integrable, and off every quadrature node.  Reinhardt
terms are monomials z1^a z2^b evaluated through their radial moments;
monomials of distinct bidegree are exactly orthogonal under the
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage
import scipy.linalg as sla
from scipy.linalg.blas import zherk

from .geom import FOUR_CONN, GridDomain, PLANAR, REINHARDT

DROP_FLOOR = 1e-290         # diagonal entries at underflow scale carry no signal
REGULARIZATION = 1e-12      # diagonal shift factor for the factorization retry
GRAM_BLOCK = 4096           # quadrature nodes per Hermitian update of a Gram


class BasisError(ValueError):
    """Inadmissible basis term or malformed basis."""


class FactorizationError(RuntimeError):
    """Gram factorization failed even after regularization."""


@dataclass(frozen=True)
class PlanarTerm:
    """(z - center)^n; n < 0 needs the center inside a bounded hole."""

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

    def subset(self, indices: Sequence[int]) -> "BasisSpec":
        return BasisSpec(terms=tuple(self.terms[i] for i in indices), kind=self.kind)


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
    """Raise BasisError if any term is not square-integrable on U, or has
    its pole on a node of U's quadrature."""
    if basis.kind == PLANAR:
        if U.kind != PLANAR:
            raise BasisError("planar basis on a non-planar domain")
        hole_labels = None
        unbounded: set[int] = set()
        for t in basis.terms:
            if t.n >= 0:
                continue
            ij = U.cell_of(t.center)
            if ij is None or U.mask[ij]:
                raise BasisError(
                    f"negative power centered at {t.center} is not admissible: "
                    "center must lie in a bounded complement component")
            if hole_labels is None:
                hole_labels, _ = ndimage.label(~U.mask, structure=FOUR_CONN)
                border = np.zeros_like(U.mask)
                border[0, :] = border[-1, :] = True
                border[:, 0] = border[:, -1] = True
                unbounded = set(np.unique(hole_labels[border & ~U.mask]))
            if int(hole_labels[ij]) in unbounded:
                raise BasisError(
                    f"negative power centered at {t.center} sits in the unbounded "
                    "complement component")
            if (U.quadrature[0] == t.center).any():
                raise BasisError(
                    f"negative power centered at {t.center} has a quadrature "
                    "node at its pole: the hole is narrower than a cell")
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

    Powers sharing a center are built by a multiplicative ladder, so a basis
    window costs one multiply per term; only the requested powers are kept.
    """
    points = np.asarray(points, dtype=complex).ravel()
    out = np.empty((points.size, len(basis)), dtype=complex)
    by_center: dict[complex, list[tuple[int, int]]] = {}
    for col, t in enumerate(basis.terms):
        by_center.setdefault(t.center, []).append((t.n, col))
    for center, entries in by_center.items():
        w = points - center
        pos = {n: c for n, c in entries if n >= 0}
        neg = {-n: c for n, c in entries if n < 0}
        if pos:
            _write_powers(out, w, pos)
        if neg:
            _write_powers(out, 1.0 / w, neg)
    return out


def _write_powers(out: np.ndarray, step: np.ndarray, cols: dict) -> None:
    """out[:, cols[n]] = step^n for each requested n >= 0, by the ladder
    1, step, step^2, ... held in one running array.  The product is taken
    out of place: numpy's in-place complex multiply rounds some lengths
    differently, and the values must not depend on the batch size."""
    cur = np.ones_like(step)
    for n in range(max(cols) + 1):
        if n:
            cur = cur * step
        if n in cols:
            out[:, cols[n]] = cur


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of L2 inner products G_ij = int_U b_i conj(b_j) dV."""

    matrix: np.ndarray
    basis: BasisSpec
    conditioning: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def subset(self, indices: Sequence[int]) -> "GramMatrix":
        idx = np.asarray(indices)
        sub = self.matrix[np.ix_(idx, idx)].copy()
        return GramMatrix(matrix=sub, basis=self.basis.subset(indices),
                          conditioning=_normalized_cond(sub))


def _normalized_cond(G: np.ndarray) -> float:
    """Conditioning of the diagonally normalized matrix, computed over the
    block of healthy diagonal entries (underflowed rows carry no signal and
    would poison the eigensolve)."""
    diag = np.diag(G).real
    healthy = np.isfinite(diag) & (diag > DROP_FLOOR)
    if not healthy.any():
        return math.inf
    H = G[np.ix_(healthy, healthy)]
    d = np.sqrt(np.abs(np.diag(H).real))
    C = H / np.outer(d, d)
    eig = np.linalg.eigvalsh(C)
    lo = max(float(eig[0]), 1e-300)
    return float(eig[-1]) / lo


def gram_matrix(basis: BasisSpec, U: GridDomain) -> GramMatrix:
    """Assemble the Gram matrix of the basis over U by its cell quadrature.

    Planar terms are evaluated on GRAM_BLOCK quadrature nodes at a time,
    in the fixed node order, and scaled by the square roots of the cell
    area fractions (exactly 1 on a mask-built domain, where the entries are
    midpoint sums).  Each block adds h^2 B^T conj(B) into the upper
    triangle with one Hermitian rank-k update; the lower triangle is then
    mirrored conjugate, so the stored matrix is exactly Hermitian with a
    real diagonal.  Reinhardt cross terms between distinct bidegrees vanish
    analytically and are set to zero.
    """
    check_admissible(basis, U)
    N = len(basis)
    if basis.kind == PLANAR:
        nodes, frac = U.quadrature
        G = np.zeros((N, N), dtype=complex, order="F")
        for start in range(0, nodes.size, GRAM_BLOCK):
            block = slice(start, start + GRAM_BLOCK)
            B = term_matrix(basis, nodes[block])
            B *= np.sqrt(frac[block])[:, None]
            # B.T is the Fortran-ordered N x k operand of C += a A A^H
            G = zherk(U.h * U.h, B.T, beta=1.0, c=G, overwrite_c=1)
        lower = np.tril_indices(N, -1)
        G[lower] = G.T[lower].conj()
    else:
        ii, jj = np.nonzero(U.mask)
        r1 = U.centers_x[ii]
        r2 = U.centers_y[jj]
        w = (2 * np.pi) ** 2 * U.h * U.h
        G = np.zeros((N, N), dtype=complex)
        for i, t in enumerate(basis.terms):
            G[i, i] = np.sum(r1 ** (2 * t.a + 1) * r2 ** (2 * t.b + 1)) * w
    trace = float(np.trace(G).real)
    eig_min = float(np.linalg.eigvalsh(G)[0])
    if eig_min <= -1e-10 * trace:
        raise BasisError(
            f"Gram matrix is not positive to quadrature tolerance "
            f"(min eigenvalue {eig_min:.3e} vs trace {trace:.3e})")
    return GramMatrix(matrix=G, basis=basis, conditioning=_normalized_cond(G))


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
    basis: BasisSpec
    conditioning: float
    regularized: bool = False
    shift: float = 0.0

    def __post_init__(self):
        self.lower.setflags(write=False)
        self.scale.setflags(write=False)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def whiten(self, values: np.ndarray) -> np.ndarray:
        """Map raw basis values (..., N) to whitened coordinates (N, ...)."""
        v = np.asarray(values, dtype=complex)
        flat = (v / self.scale).reshape(-1, self.n).T
        out = sla.solve_triangular(self.lower, flat, lower=True)
        return out.reshape((self.n,) + v.shape[:-1])

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solve G x = y for the raw Gram matrix."""
        rhs = np.asarray(y, dtype=complex) / self.scale
        u = sla.solve_triangular(self.lower, rhs, lower=True)
        x = sla.solve_triangular(self.lower.conj().T, u, lower=False)
        return x / self.scale


def factorize(G: GramMatrix) -> GramFactor:
    """Triangular factorization enabling solves G x = y.

    Factorization happens on the diagonally normalized matrix C (unit
    diagonal), so a failed attempt is retried once with the diagonal shift
    1e-12 * trace(C) / N = 1e-12 applied there; the shift is recorded.
    Shifting the raw matrix instead would scale with the largest diagonal
    entry and erase every small-norm direction of a wide-scale basis.
    A second failure signals a numerically dependent basis.
    """
    s = np.sqrt(np.abs(np.diag(G.matrix).real))
    if (s == 0).any():
        raise FactorizationError("Gram matrix has a zero diagonal entry")
    C = G.matrix / np.outer(s, s)
    shift = 0.0
    regularized = False
    for attempt in range(2):
        try:
            L = np.linalg.cholesky(C)
            cond = _normalized_cond(C) if regularized else G.conditioning
            return GramFactor(lower=L, scale=s, basis=G.basis,
                              conditioning=cond,
                              regularized=regularized, shift=shift)
        except np.linalg.LinAlgError:
            if attempt == 1:
                break
            shift = REGULARIZATION * float(np.trace(C).real) / G.n
            C = C + shift * np.eye(G.n)
            regularized = True
    raise FactorizationError(
        "Gram factorization failed after regularization: numerically dependent "
        "basis; shrink the basis window")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_basis(basis: BasisSpec, path) -> None:
    """One term per line; first line is the basis kind."""
    lines = [basis.kind] + [t.label() for t in basis.terms]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_basis(path) -> BasisSpec:
    with open(path, encoding="utf-8") as f:
        kind = f.readline().strip()
        terms: list = []
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "planar":
                terms.append(PlanarTerm(complex(float(parts[1]), float(parts[2])),
                                        int(parts[3])))
            elif parts[0] == "reinhardt":
                terms.append(ReinhardtTerm(int(parts[1]), int(parts[2])))
            else:
                raise BasisError(f"unknown term line {line!r}")
    return BasisSpec(tuple(terms), kind=kind)


def save_gram(G: GramMatrix, path) -> None:
    """Plain-text complex matrix: header `gram <N>`, then rows of re im pairs."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"gram {G.n}\n")
        for row in G.matrix:
            f.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row)
                    + "\n")


def load_gram_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if header[:1] != ["gram"]:
            raise BasisError(f"not a gram matrix file: {path}")
        n = int(header[1])
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            vals = [float(t) for t in f.readline().split()]
            out[i] = [complex(vals[2 * k], vals[2 * k + 1]) for k in range(n)]
    return out
