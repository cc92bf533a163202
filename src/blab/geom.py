"""Bounded open sets as lattice cell masks, with set metrics and constructors.

A domain is a boolean mask on a uniform grid: cell (i, j) covers the open
square of side h centered at origin + h*(i+1/2, j+1/2).  Planar masks live in
R^2 = C; a reinhardt-profile mask lives in the (r1, r2) quarter-plane and
describes the circular domain {(z1, z2): (|z1|, |z2|) in profile} in C^2.

A planar domain rasterized from a shape spec keeps the spec, and integrates
by cut-cell quadrature: every cell the shape meets is a node at the cell
center, weighted by the area fraction it covers.  A domain built from a mask
alone (cellwise operations, exhaustions, necks) integrates with unit
weights over its true cells.

Distance-to-complement fields come from one exact transform, `_edt`, run
on a window of a domain's array.  Readers that need the whole field (the
exhaustion's level sets, compact sets, default probes) share one cached
whole-array transform per domain (`GridDomain.distance`).  Readers of a few
cells (rho2's sup term, zero certification) go through a `DistanceReader`,
whose window around the cells read grows until every value read is exact,
equal to the whole field's bit for bit.

Two metrics on domains are provided: rho1 (Hausdorff distance between
closures plus Hausdorff distance between boundaries) and rho2 (volume of the
symmetric difference plus sup-norm distance between interior distance
functions).  rho1 is sensitive to slits and punctures; rho2 tolerates thin
tails.  rho2 takes its sup term on the symmetric difference alone, by the
lattice identity sup |d_U - d_V| = max(max over U \\ V of d_U, max over
V \\ U of d_V), so it reads a domain's cached field only where that domain
sticks out of the other, through a window around that part: a domain
nested in the other is never transformed for rho2.  rho1 measures
each directed term with nearest-cell queries against the other domain's
boundary cells, in a kd-tree each domain builds once (`GridDomain.boundary`);
large query sets are first cut to the tiles that can hold the maximum.
Neither metric runs a transform of its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

PLANAR = "planar"
REINHARDT = "reinhardt-profile"

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

SUBSAMPLES = 32     # per axis, for the area fraction of a cut cell
TILE = 4            # side, in cells, of the tiles rho1 prunes its queries by
PRUNE_MIN = 1024    # rho1 query sets above this many cells are tile-pruned
PAD_CELLS = 2       # cells of array margin around a rasterized shape
WINDOW_PAD = 4      # first pad, in cells, of a windowed distance read


class GeomError(ValueError):
    """Invalid domain construction or operation."""


class EmptyDomainError(GeomError):
    """A construction produced (or received) an empty cell mask."""


class LatticeMismatchError(GeomError):
    """Operands do not share a lattice (different h or incongruent origins)."""


def _axis_centers(origin: float, n: int, h: float) -> np.ndarray:
    """Cell centers computed from global integer indices.

    Origins are snapped to integer multiples of h, so centers come out
    bitwise identical for the same physical cell regardless of which array
    it sits in."""
    k = round(origin / h)
    return (k + np.arange(n) + 0.5) * h


@dataclass(frozen=True)
class GridDomain:
    """Bounded open set as a cell mask on a uniform lattice.

    spec is the shape spec the mask was rasterized from, if any; it only
    feeds the cut-cell weights of `quadrature`.
    """

    origin: tuple[float, float]
    h: float
    mask: np.ndarray
    kind: str = PLANAR
    spec: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise GeomError(f"spacing must be positive and finite, got {self.h}")
        if self.mask.dtype != np.bool_ or self.mask.ndim != 2:
            raise GeomError("mask must be a 2-D boolean array")
        if not self.mask.any():
            raise EmptyDomainError("domain mask has no true cells")
        if self.kind not in (PLANAR, REINHARDT):
            raise GeomError(f"unknown domain kind {self.kind!r}")
        if self.kind == REINHARDT:
            cx, cy = self.centers_x, self.centers_y
            ii, jj = np.nonzero(self.mask)
            if (cx[ii] < 0).any() or (cy[jj] < 0).any():
                raise GeomError("reinhardt profile has cells at negative radii")
        self.mask.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.mask.shape[0]

    @property
    def ny(self) -> int:
        return self.mask.shape[1]

    @property
    def cell_count(self) -> int:
        return int(self.mask.sum())

    @cached_property
    def centers_x(self) -> np.ndarray:
        return _axis_centers(self.origin[0], self.nx, self.h)

    @cached_property
    def centers_y(self) -> np.ndarray:
        return _axis_centers(self.origin[1], self.ny, self.h)

    def centers_of(self, cells: np.ndarray) -> np.ndarray:
        """Complex centers of the cells true in a mask of the array's shape,
        in row-major order; x is the real axis.  Each center is
        centers_x[i] + 1j * centers_y[j], bit for bit."""
        out = np.empty(int(np.count_nonzero(cells)), dtype=complex)
        out.real = np.broadcast_to(self.centers_x[:, None], cells.shape)[cells]
        out.imag = np.broadcast_to(self.centers_y[None, :], cells.shape)[cells]
        return out

    def centers_at(self, cells: np.ndarray) -> np.ndarray:
        """Complex centers of (n, 2) cell indices, as in centers_of."""
        out = np.empty(len(cells), dtype=complex)
        out.real = self.centers_x[cells[:, 0]]
        out.imag = self.centers_y[cells[:, 1]]
        return out

    @cached_property
    def distance(self) -> np.ndarray:
        """The domain's whole exact distance field, the whole-array window
        of `_edt`, computed on first use: a read-only array of the mask's
        shape, zero exactly off the mask."""
        d = _edt(self.mask, self.h, self.kind, self.origin)
        d.setflags(write=False)
        return d

    @cached_property
    def boundary(self) -> BoundaryCells:
        """The domain's boundary cells and their kd-tree, built on first
        use."""
        cells = np.argwhere(boundary_mask(self.mask))
        return BoundaryCells(cells=cells, tree=cKDTree(cells))

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell quadrature on U: complex nodes and the area fraction of each
        node's cell, in row-major cell order (each cell weighs h^2 times its
        fraction).

        A planar domain rasterized from a spec takes every cell the shape
        meets, with its covered fraction, including cut cells whose centers
        lie outside the shape.  Any other domain takes its true cells with
        unit fractions, which is the plain midpoint rule.  The fractions are
        computed on first use.
        """
        if self.spec is None or self.kind != PLANAR:
            nodes = self.centers_of(self.mask)
            return nodes, np.ones(nodes.size)
        frac = _area_fractions(self.spec, self.mask, self.centers_x,
                               self.centers_y, self.h)
        cells = frac > 0
        return self.centers_of(cells), frac[cells]

    def is_quadrature_cell(self, cell: tuple[int, int]) -> bool:
        """Whether the cell holds a node of `quadrature`, decided from the
        cell alone: a true cell, or on a planar domain rasterized from a
        spec a cell of positive area fraction.  A cell's fraction depends
        only on its 3 x 3 neighbourhood and its global center, so it is
        computed on that window and equals the whole array's bit for bit."""
        i, j = cell
        if self.spec is None or self.kind != PLANAR:
            return bool(self.mask[i, j])
        wi = slice(max(i - 1, 0), i + 2)
        wj = slice(max(j - 1, 0), j + 2)
        frac = _area_fractions(self.spec, self.mask[wi, wj], self.centers_x[wi],
                               self.centers_y[wj], self.h)
        return bool(frac[i - wi.start, j - wj.start] > 0)

    @cached_property
    def component_labels(self) -> np.ndarray:
        """4-connected component label per cell (0 outside the domain)."""
        labels, _ = ndimage.label(self.mask, structure=FOUR_CONN)
        return labels

    @cached_property
    def n_components(self) -> int:
        return int(self.component_labels.max())

    def _indices(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array indices i, j of the cells holding the points, and whether
        each point lies on the array: the one point-to-cell rule."""
        pts = np.asarray(points, dtype=complex)
        i = np.floor((pts.real - self.origin[0]) / self.h).astype(np.intp)
        j = np.floor((pts.imag - self.origin[1]) / self.h).astype(np.intp)
        return i, j, (i >= 0) & (i < self.nx) & (j >= 0) & (j < self.ny)

    def values_at(self, values: np.ndarray, points) -> np.ndarray:
        """Entry of a cell array of the mask's shape at the cell holding
        each point, in the shape of points: 0 off the array."""
        i, j, on = self._indices(points)
        return np.where(on, values[np.where(on, i, 0), np.where(on, j, 0)], 0)

    def labels_at(self, points) -> np.ndarray:
        """Component label of the cell holding each point, in the shape of
        points: 0 off the array or outside the domain."""
        return self.values_at(self.component_labels, points)

    def cell_of(self, point: complex) -> tuple[int, int] | None:
        """Indices of the cell containing the point, or None if off-array."""
        i, j, on = self._indices(point)
        return (int(i), int(j)) if on else None


@dataclass(frozen=True)
class BoundaryCells:
    """Boundary cells of a domain as (n, 2) indices in its own array, in
    row-major order, with a kd-tree over them (queried with workers=1)."""

    cells: np.ndarray
    tree: cKDTree

    def __post_init__(self):
        self.cells.setflags(write=False)


@dataclass(frozen=True)
class PointSet:
    """Discretized closure and boundary of a domain, as cell-center points."""

    closure: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        if self.closure.size == 0 or self.boundary.size == 0:
            raise EmptyDomainError("point set derived from an empty domain")


@dataclass(frozen=True)
class DomainSequence:
    """Ordered approximating domains with their schedule and common target."""

    members: tuple[GridDomain, ...]
    params: tuple[float, ...]
    target: GridDomain

    def __post_init__(self):
        if len(self.members) != len(self.params):
            raise GeomError("schedule length does not match member count")
        for m in self.members:
            if not _same_lattice(m, self.target):
                raise LatticeMismatchError("sequence member lattice differs from target")

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# shape specs
# ---------------------------------------------------------------------------

def disc(center: complex, r: float) -> dict:
    return check_spec({"shape": "disc", "center": [center.real, center.imag],
                       "r": float(r)})


def annulus(center: complex, rho: float, R: float) -> dict:
    return check_spec({"shape": "annulus", "center": [center.real, center.imag],
                       "rho": float(rho), "R": float(R)})


def rectangle(corner_a: tuple[float, float], corner_b: tuple[float, float]) -> dict:
    return {"shape": "rectangle", "corners": [list(map(float, corner_a)),
                                              list(map(float, corner_b))]}


def union(*parts: dict) -> dict:
    if not parts:
        raise GeomError("union of no shapes")
    return {"shape": "union", "parts": list(parts)}


def difference(a: dict, b: dict) -> dict:
    return {"shape": "difference", "a": a, "b": b}


def reinhardt_profile(region: dict) -> dict:
    return {"shape": "reinhardt-profile", "region": region}


def check_spec(spec) -> dict:
    """Return spec if it is a shape spec holding every key that `_spec_bbox`
    and `_spec_predicate` read, in the form `forms` gives, with finite
    numbers, a positive disc radius and annulus radii 0 < rho < R; raise
    GeomError otherwise."""
    if not isinstance(spec, dict):
        raise GeomError(f"a shape spec is an object, got {spec!r}")
    # finite as a float: false on nan and inf, and on an int past the range
    number = lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                        and abs(v) <= sys.float_info.max)
    pair = lambda each: lambda v: (isinstance(v, (list, tuple))
                                   and len(v) == 2 and all(map(each, v)))
    shape = lambda v: check_spec(v) is v        # raises on a malformed spec
    forms = {"disc": {"center": pair(number), "r": number},
             "annulus": {"center": pair(number), "rho": number, "R": number},
             "rectangle": {"corners": pair(pair(number))},
             "union": {"parts": lambda v: isinstance(v, (list, tuple))
                       and len(v) > 0 and all(map(shape, v))},
             "difference": {"a": shape, "b": shape},
             "reinhardt-profile": {"region": shape}}
    kind = spec.get("shape")
    if not isinstance(kind, str) or kind not in forms:
        raise GeomError(f"unknown shape spec {kind!r}")
    for key, ok in forms[kind].items():
        if key not in spec:
            raise GeomError(f"{kind} spec needs key {key!r}")
        if not ok(spec[key]):
            raise GeomError(f"{kind} spec key {key!r} is malformed: "
                            f"{spec[key]!r}")
    if kind == "disc" and not spec["r"] > 0:
        raise GeomError(f"disc radius must be positive, got {spec['r']!r}")
    if kind == "annulus" and not 0 < spec["rho"] < spec["R"]:
        raise GeomError("annulus radii must satisfy 0 < rho < R, got "
                        f"{spec['rho']!r}, {spec['R']!r}")
    return spec


def _spec_bbox(spec: dict) -> tuple[float, float, float, float]:
    kind = spec["shape"]
    if kind == "disc":
        cx, cy = spec["center"]
        r = spec["r"]
        return cx - r, cy - r, cx + r, cy + r
    if kind == "annulus":
        cx, cy = spec["center"]
        R = spec["R"]
        return cx - R, cy - R, cx + R, cy + R
    if kind == "rectangle":
        (x0, y0), (x1, y1) = spec["corners"]
        return min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)
    if kind == "union":
        boxes = [_spec_bbox(p) for p in spec["parts"]]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))
    if kind == "difference":
        return _spec_bbox(spec["a"])
    if kind == "reinhardt-profile":
        x0, y0, x1, y1 = _spec_bbox(spec["region"])
        return max(x0, 0.0), max(y0, 0.0), x1, y1
    raise GeomError(f"unknown shape spec {kind!r}")


def _spec_predicate(spec: dict, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    kind = spec["shape"]
    if kind == "disc":
        cx, cy = spec["center"]
        return (X - cx) ** 2 + (Y - cy) ** 2 < spec["r"] ** 2
    if kind == "annulus":
        cx, cy = spec["center"]
        rho, R = spec["rho"], spec["R"]
        r2 = (X - cx) ** 2 + (Y - cy) ** 2
        return (r2 > rho ** 2) & (r2 < R ** 2)
    if kind == "rectangle":
        (x0, y0), (x1, y1) = spec["corners"]
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        return (X > x0) & (X < x1) & (Y > y0) & (Y < y1)
    if kind == "union":
        out = np.zeros_like(X, dtype=bool)
        for p in spec["parts"]:
            out |= _spec_predicate(p, X, Y)
        return out
    if kind == "difference":
        return _spec_predicate(spec["a"], X, Y) & ~_spec_predicate(spec["b"], X, Y)
    if kind == "reinhardt-profile":
        return _spec_predicate(spec["region"], X, Y) & (X >= 0) & (Y >= 0)
    raise GeomError(f"unknown shape spec {kind!r}")


def _area_fractions(spec: dict, mask: np.ndarray, cx: np.ndarray,
                    cy: np.ndarray, h: float) -> np.ndarray:
    """Covered area fraction of every cell, shape of the mask.

    Cells whose 3x3 neighborhood mixes true and false mask cells are
    supersampled on a SUBSAMPLES x SUBSAMPLES midpoint lattice of the shape
    predicate; every other cell keeps its mask value.  A straight boundary
    through a cell always flips the mask within that neighborhood.  Sample
    points derive from global cell centers, so a cell gets the same fraction
    in any array.
    """
    nx, ny = mask.shape
    m = np.pad(mask, 1, mode="constant", constant_values=False)
    band = np.zeros_like(mask)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            band |= m[di:di + nx, dj:dj + ny] != mask
    frac = mask.astype(float)
    ii, jj = np.nonzero(band)
    if ii.size == 0:
        return frac
    offsets = ((np.arange(SUBSAMPLES) + 0.5) / SUBSAMPLES - 0.5) * h
    Y = cy[jj][:, None] + offsets[None, :]
    count = np.zeros(ii.size)
    for dx in offsets:
        X = np.broadcast_to((cx[ii] + dx)[:, None], Y.shape)
        count += _spec_predicate(spec, X, Y).sum(axis=1)
    frac[ii, jj] = count / (SUBSAMPLES * SUBSAMPLES)
    return frac


def make_domain(spec: dict, h: float) -> GridDomain:
    """Rasterize a shape spec: mask true exactly where cell centers satisfy it.

    The lattice origin is snapped to an integer multiple of h so that domains
    built at the same h are always alignable for cellwise operations.  The
    spec is kept on the domain for its cut-cell quadrature.
    """
    if not 0 < h < math.inf:
        raise GeomError(f"spacing must be positive and finite, got {h}")
    check_spec(spec)
    kind = REINHARDT if spec["shape"] == "reinhardt-profile" else PLANAR
    x0, y0, x1, y1 = _spec_bbox(spec)
    ox = (math.floor(x0 / h) - PAD_CELLS) * h
    oy = (math.floor(y0 / h) - PAD_CELLS) * h
    if kind == REINHARDT:
        ox, oy = max(ox, 0.0), max(oy, 0.0)
    nx = int(math.ceil((x1 - ox) / h)) + PAD_CELLS
    ny = int(math.ceil((y1 - oy) / h)) + PAD_CELLS
    cx = _axis_centers(ox, nx, h)
    cy = _axis_centers(oy, ny, h)
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    mask = _spec_predicate(spec, X, Y)
    if not mask.any():
        raise EmptyDomainError(f"shape spec rasterized to an empty mask at h={h}")
    return GridDomain(origin=(ox, oy), h=h, mask=mask, kind=kind, spec=spec)


# ---------------------------------------------------------------------------
# lattice alignment and cellwise ops
# ---------------------------------------------------------------------------

def _same_lattice(U: GridDomain, V: GridDomain) -> bool:
    if abs(U.h - V.h) > 1e-12 * max(U.h, V.h):
        return False
    for k in (0, 1):
        off = (U.origin[k] - V.origin[k]) / U.h
        if abs(off - round(off)) > 1e-6:
            return False
    return True


def _frame(U: GridDomain, V: GridDomain):
    """Origin and shape of one array covering both domains' arrays, and the
    index offset of each domain's array in it."""
    if U.kind != V.kind:
        raise LatticeMismatchError("cannot combine planar and reinhardt domains")
    if not _same_lattice(U, V):
        raise LatticeMismatchError("domains do not share a lattice")
    h = U.h
    ox = min(U.origin[0], V.origin[0])
    oy = min(U.origin[1], V.origin[1])
    iU = (round((U.origin[0] - ox) / h), round((U.origin[1] - oy) / h))
    iV = (round((V.origin[0] - ox) / h), round((V.origin[1] - oy) / h))
    shape = (max(iU[0] + U.nx, iV[0] + V.nx), max(iU[1] + U.ny, iV[1] + V.ny))
    return (ox, oy), shape, iU, iV


def _embed(a: np.ndarray, shape: tuple[int, int], at: tuple[int, int]) -> np.ndarray:
    """a placed at offset `at` in a zero (false) array of the given shape."""
    out = np.zeros(shape, dtype=a.dtype)
    out[at[0]:at[0] + a.shape[0], at[1]:at[1] + a.shape[1]] = a
    return out


def _aligned_masks(U: GridDomain, V: GridDomain) -> tuple[np.ndarray, np.ndarray,
                                                          tuple[float, float]]:
    """Embed both masks in one array covering the union of the two arrays."""
    origin, shape, iU, iV = _frame(U, V)
    return _embed(U.mask, shape, iU), _embed(V.mask, shape, iV), origin


def domain_union(U: GridDomain, V: GridDomain) -> GridDomain:
    mU, mV, origin = _aligned_masks(U, V)
    return GridDomain(origin=origin, h=U.h, mask=mU | mV, kind=U.kind)


def shell_mask(U: GridDomain, V: GridDomain) -> np.ndarray:
    """The true cells of U outside V, as a mask of U's shape, for V nested
    in U on U's lattice; raises LatticeMismatchError off the lattice and
    GeomError when V has a cell outside U."""
    _, shape, iU, iV = _frame(U, V)
    mV = _embed(V.mask, shape, iV)[iU[0]:iU[0] + U.nx, iU[1]:iU[1] + U.ny]
    if int(np.count_nonzero(mV & U.mask)) != V.cell_count:
        raise GeomError("domain is not nested in the other")
    return U.mask & ~mV


# ---------------------------------------------------------------------------
# distance fields and discretized sets
# ---------------------------------------------------------------------------

def _edt(mask: np.ndarray, h: float, kind: str, origin: tuple[float, float],
         window: tuple[int, int, int, int] | None = None) -> np.ndarray:
    """Exact Euclidean distance from true cells to the nearest complement
    cell center (the separable transform of Maurer, Qi and Raghavan), on the
    array window (i0, i1, j0, j1), by default the whole array.

    The infinite complement beyond the array is represented by a false ring
    on each side of the window at the array's edge; array cells outside the
    window count as inside the domain, so a window with no complement cell
    gives inf everywhere.  A reinhardt profile (whole array only) whose
    array starts at a radial axis is mirror-padded across that axis: the
    quarter-plane has no complement points at negative radii, and reflected
    cells never undercut the distance to a real complement cell.  Returns a
    compact copy of the window's shape, so the padded work array is freed."""
    nx, ny = mask.shape
    if kind == REINHARDT:
        mirror_x = origin[0] <= 0.5 * h
        mirror_y = origin[1] <= 0.5 * h
        px = nx if mirror_x else 1
        py = ny if mirror_y else 1
        work = np.zeros((px + nx + 1, py + ny + 1), dtype=bool)
        work[px:px + nx, py:py + ny] = mask
        if mirror_x:
            work[:px, py:py + ny] = mask[::-1, :]
        if mirror_y:
            work[px:px + nx, :py] = mask[:, ::-1]
        if mirror_x and mirror_y:
            work[:px, :py] = mask[::-1, ::-1]
        at, shape = (px, py), (nx, ny)
    else:
        i0, i1, j0, j1 = window or (0, nx, 0, ny)
        ring = ((int(i0 == 0), int(i1 == nx)), (int(j0 == 0), int(j1 == ny)))
        work = np.pad(mask[i0:i1, j0:j1], ring, mode="constant",
                      constant_values=False)
        at, shape = (ring[0][0], ring[1][0]), (i1 - i0, j1 - j0)
        if work.all():
            return np.full(shape, np.inf)
    dist = ndimage.distance_transform_edt(work, sampling=h)
    return dist[at[0]:at[0] + shape[0], at[1]:at[1] + shape[1]].copy()


def distance_field(U: GridDomain) -> np.ndarray:
    """The whole exact distance field of the domain mask (0 off U).

    Computed once per domain and shared: this returns `U.distance`, a
    read-only array of the mask's shape.  Readers of a few cells use a
    `DistanceReader` instead."""
    return U.distance


def _edge_cells(lo: int, hi: int, n: int) -> np.ndarray:
    """For each index of [lo, hi), the index distance to the nearest index
    of [0, n) outside it (inf when [lo, hi) is all of [0, n))."""
    k = np.arange(lo, hi, dtype=float)
    out = np.full(k.size, np.inf)
    if lo > 0:
        out = np.minimum(out, k - lo + 1)
    if hi < n:
        out = np.minimum(out, hi - k)
    return out


class DistanceReader:
    """Exact reads of a domain's distance field through one window of its
    array, grown until it certifies every read.

    The window is the bounding box of the cells read so far, padded by
    `pad` cells (first WINDOW_PAD) and clipped to the array.  Its values
    bound the whole field's from above, and one is exact, equal to the
    whole field's bit for bit, when it lies strictly below its distance to
    the nearest array cell outside the window: the cell's nearest
    complement cell then lies in the window.  The test compares the
    lattice's integer squared distances, so a tie never counts.  A read
    that meets an inexact value v grows the pad to max(2 pad,
    ceil(v / h) + 1) and transforms again (v is inf in a window without
    complement cells, and the pad doubles).  So a read whose cells all lie
    in a window holding a complement cell is certified by the second pass,
    and a walk such as a greedy ascent grows the window a logarithmic
    number of times.  A window covering the array is the whole transform.
    A domain whose whole field is cached, and every reinhardt profile
    (whose transform mirrors the radial axes), reads `GridDomain.distance`
    (`whole`).
    """

    def __init__(self, U: GridDomain):
        self.U = U
        self.pad = WINDOW_PAD
        self._box = None        # bounding box of the cells read so far
        self._window = None     # (i0, i1, j0, j1) of the last transform
        self._values = self._exact = None

    @property
    def whole(self) -> bool:
        """Whether reads come from the whole field `GridDomain.distance`."""
        return self.U.kind == REINHARDT or "distance" in vars(self.U)

    def read(self, i, j) -> np.ndarray:
        """The field's exact values at the array cells (i, j), index arrays
        of one shape (or ints), in that shape."""
        U = self.U
        if self.whole:
            return U.distance[i, j]
        i, j = np.asarray(i), np.asarray(j)
        box = (int(i.min()), int(i.max()) + 1, int(j.min()), int(j.max()) + 1)
        self._box = box if self._box is None else (
            min(self._box[0], box[0]), max(self._box[1], box[1]),
            min(self._box[2], box[2]), max(self._box[3], box[3]))
        while True:
            w = self._window
            if w is not None and (w[0] <= box[0] and box[1] <= w[1]
                                  and w[2] <= box[2] and box[3] <= w[3]):
                at = (i - w[0], j - w[2])
                values, inexact = self._values[at], ~self._exact[at]
                if not inexact.any():
                    return values
                v = float(values[inexact].max())
                self.pad = max(2 * self.pad,
                               math.ceil(v / U.h) + 1 if v < math.inf else 1)
            self._transform()

    def _transform(self) -> None:
        U, p = self.U, self.pad
        i0, i1, j0, j1 = self._box
        w = (max(i0 - p, 0), min(i1 + p, U.nx), max(j0 - p, 0), min(j1 + p, U.ny))
        values = _edt(U.mask, U.h, U.kind, U.origin, w)
        edge = np.minimum.outer(_edge_cells(w[0], w[1], U.nx),
                                _edge_cells(w[2], w[3], U.ny))
        self._window, self._values = w, values
        self._exact = (values / U.h) ** 2 < edge * edge - 0.5


def distance_at(U: GridDomain, points) -> np.ndarray:
    """U's exact distance at the cell holding each point, 0 off the array:
    `U.values_at(U.distance, points)` bit for bit, read through a window
    around those cells (`DistanceReader`)."""
    i, j, on = U._indices(points)
    out = np.zeros(np.shape(on))
    if on.any():
        out[on] = DistanceReader(U).read(i[on], j[on])
    return out


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """True cells with at least one false 4-neighbor (array border is false)."""
    m = np.pad(mask, 1, mode="constant", constant_values=False)
    interior = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    return mask & ~interior


def extract_sets(U: GridDomain) -> PointSet:
    """Discretize the closure and the boundary of U as cell-center points,
    in row-major order: the closure built for the call, the boundary from
    the domain's cached boundary cells."""
    return PointSet(closure=U.centers_of(U.mask),
                    boundary=U.centers_at(U.boundary.cells))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _lookup(mask: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """mask[i, j] for index arrays that may leave the array (false there)."""
    ok = (i >= 0) & (i < mask.shape[0]) & (j >= 0) & (j < mask.shape[1])
    out = np.zeros(i.shape, dtype=bool)
    out[ok] = mask[i[ok], j[ok]]
    return out


def _outside_cells(A: GridDomain, B: GridDomain,
                   at: tuple[int, int]) -> np.ndarray:
    """Cells of A not in B, as (n, 2) indices in B's array (A's index plus
    `at`), in row-major order."""
    out = A.mask.copy()
    lo = [max(0, -at[k]) for k in (0, 1)]
    hi = [min(A.mask.shape[k], B.mask.shape[k] - at[k]) for k in (0, 1)]
    if lo[0] < hi[0] and lo[1] < hi[1]:
        out[lo[0]:hi[0], lo[1]:hi[1]] &= ~B.mask[lo[0] + at[0]:hi[0] + at[0],
                                                 lo[1] + at[1]:hi[1] + at[1]]
    return np.argwhere(out) + at


def _boundary_outside(A: GridDomain, B: GridDomain,
                      at: tuple[int, int]) -> np.ndarray:
    """Boundary cells of A not on B's boundary, as indices in B's array.

    A cell is on B's boundary when it is in B and some 4-neighbor is not
    (cells beyond B's array are not in B), as in `boundary_mask`."""
    cells = A.boundary.cells + at
    i, j = cells[:, 0], cells[:, 1]
    m = B.mask
    on_boundary = _lookup(m, i, j) & ~(_lookup(m, i - 1, j) & _lookup(m, i + 1, j)
                                       & _lookup(m, i, j - 1) & _lookup(m, i, j + 1))
    return cells[~on_boundary]


def _tile_pruned(cells: np.ndarray, tree: cKDTree) -> np.ndarray:
    """The cells of the TILE x TILE tiles that can hold the largest distance
    to the tree's points.

    Every cell of a tile lies within r = (TILE - 1)/sqrt(2) of the tile's
    center, and the distance to a point set is 1-Lipschitz, so max(dc) - r
    over the occupied tiles' center distances dc bounds the sup from below
    and every cell of a tile with dc < max(dc) - 2r is strictly closer than
    the sup.  Dropping such tiles keeps every cell the sup's integer squared
    distance is reached at.  The 1e-9 of slack (in cells) covers the
    rounding of dc."""
    tile = cells // TILE
    t0 = tile.min(axis=0)
    tile -= t0
    occupied = np.zeros(tuple(tile.max(axis=0) + 1), dtype=bool)
    occupied[tile[:, 0], tile[:, 1]] = True
    tiles = np.argwhere(occupied)
    dc, _ = tree.query((tiles + t0) * TILE + (TILE - 1) / 2, workers=1)
    r = (TILE - 1) / math.sqrt(2)
    occupied[tiles[:, 0], tiles[:, 1]] = dc >= dc.max() - 2 * r - 1e-9
    return cells[occupied[tile[:, 0], tile[:, 1]]]


def _nearest_distance(cells: np.ndarray, B: GridDomain, h: float) -> np.ndarray:
    """Distance from each cell (indices in B's array) to the nearest boundary
    cell of B, formed from the index offset the way the EDT forms it,
    sqrt((di h)^2 + (dj h)^2)."""
    _, k = B.boundary.tree.query(cells, workers=1)
    d = (cells - B.boundary.cells[k]) * h
    di, dj = d[:, 0], d[:, 1]
    return np.sqrt(di * di + dj * dj)


def _sup_to_boundary(cells: np.ndarray, B: GridDomain, h: float) -> float:
    """Max over cells (indices in B's array) of the distance to the nearest
    boundary cell of B; 0.0 for no cells."""
    if len(cells) == 0:
        return 0.0
    if len(cells) > PRUNE_MIN:
        cells = _tile_pruned(cells, B.boundary.tree)
    return float(_nearest_distance(cells, B, h).max())


def rho1_parts(U: GridDomain, V: GridDomain) -> tuple[float, float]:
    """The two Hausdorff terms of rho1: (closures, boundaries).

    A directed term is the largest distance from the cells of one set
    outside the other to the other's nearest cell.  For the closures that
    nearest cell of V is a boundary cell of V, and the boundary of V's
    boundary is V's boundary, so all four terms query the two domains'
    cached boundary trees (`GridDomain.boundary`).  A query cell is moved
    into the tree owner's array by the integer frame offset, which leaves
    distances and nearest-cell picks as in one common array.  Query sets of
    more than PRUNE_MIN cells are first cut to the tiles that can hold the
    maximum (`_tile_pruned`); the result is the same to the bit."""
    _, _, iU, iV = _frame(U, V)
    uv = (iU[0] - iV[0], iU[1] - iV[1])
    vu = (-uv[0], -uv[1])
    h = U.h
    closures = max(_sup_to_boundary(_outside_cells(U, V, uv), V, h),
                   _sup_to_boundary(_outside_cells(V, U, vu), U, h))
    boundaries = max(_sup_to_boundary(_boundary_outside(U, V, uv), V, h),
                     _sup_to_boundary(_boundary_outside(V, U, vu), U, h))
    return closures, boundaries


def rho1(U: GridDomain, V: GridDomain) -> float:
    """Hausdorff distance between closures plus between boundaries."""
    closures, boundaries = rho1_parts(U, V)
    return closures + boundaries


def _cell_volumes(mask: np.ndarray, origin: tuple[float, float], h: float,
                  kind: str) -> np.ndarray:
    if kind == PLANAR:
        return np.full(int(mask.sum()), h * h)
    cx = _axis_centers(origin[0], mask.shape[0], h)
    cy = _axis_centers(origin[1], mask.shape[1], h)
    ii, jj = np.nonzero(mask)
    return (2 * np.pi) ** 2 * cx[ii] * cy[jj] * h * h


def _max_on(A: GridDomain, cells: np.ndarray, at: tuple[int, int]) -> float:
    """Max of A's field over the true cells of a common-frame mask that all
    lie in A (A's array sits at offset `at`), read through a window around
    them (`DistanceReader`) unless A's whole field is cached; 0.0 for no
    cells, in which case the field is not read."""
    sub = cells[at[0]:at[0] + A.nx, at[1]:at[1] + A.ny]
    if not sub.any():
        return 0.0
    reader = DistanceReader(A)
    if reader.whole:
        return float(A.distance[sub].max())
    return float(reader.read(*np.divmod(np.flatnonzero(sub), A.ny)).max())


def rho2_parts(U: GridDomain, V: GridDomain) -> tuple[float, float]:
    """The two terms of rho2: (symmetric-difference volume, sup |d_U - d_V|).

    On one lattice the sup is taken on the symmetric difference alone:
    sup |d_U - d_V| = max(max over U \\ V of d_U, max over V \\ U of d_V).
    Off U u V both fields vanish, and on U \\ V the gap is d_U itself.  For
    x in U n V, let c be V's nearest complement cell.  If c lies outside U
    then d_U(x) <= |x - c| = d_V(x); otherwise c lies in U \\ V and
    d_U(x) <= d_V(x) + d_U(c).  By symmetry |d_U - d_V| on U n V never
    exceeds the two maxima; at a radial axis the same holds for the mirror
    images of `_edt`.  A domain's field is read only on its own part of
    the symmetric difference, through a window around that part
    (`_max_on`), so a domain nested in the other is never transformed
    here.  The result is the exact lattice sup, with no cancellation from
    d_U - d_V."""
    origin, shape, iU, iV = _frame(U, V)
    mU, mV = _embed(U.mask, shape, iU), _embed(V.mask, shape, iV)
    sym = mU ^ mV
    if not sym.any():
        return 0.0, 0.0
    vol = float(_cell_volumes(sym, origin, U.h, U.kind).sum())
    return vol, max(_max_on(U, sym & mU, iU), _max_on(V, sym & mV, iV))


def rho2(U: GridDomain, V: GridDomain) -> float:
    """Symmetric-difference volume plus sup-norm gap of distance functions.

    The sup over the whole plane reduces to the symmetric difference (see
    `rho2_parts`): both distance functions vanish outside their domains.
    """
    vol, sup = rho2_parts(U, V)
    return vol + sup


def volume(U: GridDomain) -> float:
    """Lebesgue volume: cell count * h^2 for planar masks; for a reinhardt
    profile, the C^2 volume sum (2 pi)^2 r1 r2 h^2 over true cells."""
    return float(_cell_volumes(U.mask, U.origin, U.h, U.kind).sum())


# ---------------------------------------------------------------------------
# constructors used by the convergence experiments
# ---------------------------------------------------------------------------

def interior_exhaustion(G: GridDomain, depths: Sequence[float]) -> DomainSequence:
    """Interior approximants {d_G > eps} for each depth eps in the schedule.

    Members are nested (larger depth inside smaller), their closures are
    contained in G, and rho1(member, G) -> 0 as the depth shrinks.
    """
    df = distance_field(G)
    members = []
    for eps in depths:
        if eps <= G.h:
            raise GeomError(f"exhaustion depth {eps} must exceed the spacing {G.h}")
        m = df > eps
        if not m.any():
            raise EmptyDomainError(f"exhaustion depth {eps} empties the domain")
        members.append(GridDomain(origin=G.origin, h=G.h, mask=m, kind=G.kind))
    return DomainSequence(members=tuple(members), params=tuple(float(e) for e in depths),
                          target=G)


def _segment_distance(X: np.ndarray, Y: np.ndarray,
                      a: complex, b: complex) -> np.ndarray:
    """Distance from grid points to the closed segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return np.hypot(X - a.real, Y - a.imag)
    t = ((X - a.real) * ab.real + (Y - a.imag) * ab.imag) / denom
    t = np.clip(t, 0.0, 1.0)
    px = a.real + t * ab.real
    py = a.imag + t * ab.imag
    return np.hypot(X - px, Y - py)


def barbell_sequence(G: GridDomain, D: GridDomain, segment: tuple[complex, complex],
                     widths: Sequence[float]) -> DomainSequence:
    """Join two disjoint planar domains by straight necks of shrinking width.

    Member k is G u D u neck_k where neck_k collects the cells within
    widths[k]/2 of the segment.  Every member is lattice-connected, coincides
    with G u D outside the neck tube, and rho2(member, G u D) -> 0 as the
    widths shrink.

    The lobe gap is the smallest distance from D's boundary cells to G's
    boundary tree.  Segment distances are taken only in the window of cells
    within max(widths)/2 + h of the segment's bounding box, which holds
    every tube.
    """
    if G.kind != PLANAR or D.kind != PLANAR:
        raise GeomError("barbell construction requires planar domains")
    origin, shape, iG, iD = _frame(G, D)
    mG, mD = _embed(G.mask, shape, iG), _embed(D.mask, shape, iD)
    h = G.h
    if (mG & mD).any():
        raise GeomError("barbell lobes overlap")
    # the smallest distance from D to G is reached on the boundary of D
    into_G = (iD[0] - iG[0], iD[1] - iG[1])
    if float(_nearest_distance(D.boundary.cells + into_G, G, h).min()) <= 2 * h:
        raise GeomError("barbell lobes must be disjoint with a positive gap")
    cx = _axis_centers(origin[0], shape[0], h)
    cy = _axis_centers(origin[1], shape[1], h)
    a, b = segment
    for endpoint, lobe, at in ((a, G, iG), (b, D, iD)):
        ii, jj = (lobe.boundary.cells + at).T
        d = np.hypot(cx[ii] - endpoint.real, cy[jj] - endpoint.imag).min()
        if d > 2 * h:
            raise GeomError(f"segment endpoint {endpoint} is not boundary-adjacent "
                            f"(nearest boundary cell at {d:.3g})")
    # every tube lies in the cells within reach of the segment's bounding
    # box; h of slack covers the rounding of the window's bounds
    reach = max(widths, default=0.0) / 2 + h
    window = tuple(slice(*np.searchsorted(c, [min(p, q) - reach, max(p, q) + reach]))
                   for c, p, q in ((cx, a.real, b.real), (cy, a.imag, b.imag)))
    X, Y = np.meshgrid(cx[window[0]], cy[window[1]], indexing="ij")
    seg_dist = _segment_distance(X, Y, a, b)
    base = mG | mD
    target = GridDomain(origin=origin, h=h, mask=base, kind=PLANAR)
    members = []
    for w in widths:
        if w < 3 * h:
            raise GeomError(f"neck width {w} below the lattice minimum {3 * h}"
                            " (neck may disconnect)")
        member_mask = base.copy()
        member_mask[window] |= seg_dist <= w / 2
        member = GridDomain(origin=origin, h=h, mask=member_mask, kind=PLANAR)
        if member.n_components != 1:
            raise GeomError(f"barbell member at width {w} is not lattice-connected")
        members.append(member)
    return DomainSequence(members=tuple(members), params=tuple(float(w) for w in widths),
                          target=target)


# ---------------------------------------------------------------------------
# reinhardt pseudoconvexity check
# ---------------------------------------------------------------------------

def is_logconvex_profile(U: GridDomain) -> bool:
    """Decide logarithmic convexity of a reinhardt profile up to 2h tolerance.

    The log image of the true cells must be convex: a false cell whose
    log-point sits inside the convex hull by more than its own tolerance box
    (2h in each radius, transported to log coordinates) is a violation.
    Profiles touching a radial axis must additionally be downward closed
    along that coordinate (completeness along the axis).
    """
    if U.kind != REINHARDT:
        raise GeomError("log-convexity check applies to reinhardt profiles")
    mask = U.mask
    cx, cy = U.centers_x, U.centers_y
    tol = 2 * U.h

    touches_r1_zero = U.origin[0] <= 0.5 * U.h and mask[0, :].any()
    touches_r2_zero = U.origin[1] <= 0.5 * U.h and mask[:, 0].any()
    if touches_r1_zero and (mask[1:, :] & ~mask[:-1, :]).any():
        return False  # not downward closed in r1 (completeness along the axis)
    if touches_r2_zero and (mask[:, 1:] & ~mask[:, :-1]).any():
        return False

    ii, jj = np.nonzero(mask)
    pts = np.column_stack([np.log(cx[ii]), np.log(cy[jj])])
    fi, fj = np.nonzero(~mask)
    keep = (cx[fi] > 0) & (cy[fj] > 0)
    fi, fj = fi[keep], fj[keep]
    if fi.size == 0:
        return True
    fpts = np.column_stack([np.log(cx[fi]), np.log(cy[fj])])
    ftol = np.column_stack([tol / cx[fi], tol / cy[fj]])

    uniq = np.unique(pts, axis=0)
    if len(uniq) < 3 or _collinear(uniq):
        return not _gap_on_line(uniq, fpts, ftol)

    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts)
    A = hull.equations[:, :2]
    c = hull.equations[:, 2]
    # hull interior is A @ x + c <= 0; the tolerance box around a false point
    # is inside iff every inequality holds with margin |A| . tol
    margin = np.abs(A) @ ftol.T
    inside = ((A @ fpts.T + c[:, None]) <= -margin).all(axis=0)
    return not bool(inside.any())


def _collinear(pts: np.ndarray) -> bool:
    d = pts - pts.mean(axis=0)
    return float(np.linalg.svd(d, compute_uv=False)[-1]) < 1e-12


def _gap_on_line(pts: np.ndarray, fpts: np.ndarray, ftol: np.ndarray) -> bool:
    """Violation test for a degenerate (collinear) log image."""
    base = pts[0]
    direction = pts[-1] - pts[0]
    norm = np.linalg.norm(direction)
    if norm == 0:
        return False
    u = direction / norm
    t = (pts - base) @ u
    ft = (fpts - base) @ u
    perp = np.abs((fpts - base) @ np.array([-u[1], u[0]]))
    ftol_line = np.abs(ftol) @ np.abs(u)
    on_line = perp <= ftol.max(axis=1)
    inside = (ft > t.min() + ftol_line) & (ft < t.max() - ftol_line)
    return bool((on_line & inside).any())
