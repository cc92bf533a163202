"""Locate and certify zeros of z -> K(z, w0); decide kernel-zero verdicts.

Certification is one-sided by design: a certificate asserts that the model's
kernel section has a zero inside a stated contour (argument principle with a
modulus floor on the contour of `FLOOR_FACTOR` evaluation error estimates),
while a no-zero verdict only reports the smallest modulus observed over the
probe set at a stated resolution, never zero-freeness.

Finite-rank kernels of zero-free domains can acquire spurious boundary-
hugging zeros (truncated sections of a zero-free function need not be
zero-free).  Candidates are therefore screened by a lobe-depth rule before
certification: the zero must sit at depth at least `LOBE_GAMMA` times the
local maximum of the distance function reached by monotone ascent from the
candidate.  Genuine ring zeros sit at more than half of their lobe depth;
boundary artifacts sit at a few percent.

Every search reads the model through the kernel protocol of `blab.kernel`:
`model.eval_many(points, w0)`, `model.eval_error_estimate(w0)` and
`model.domain`, whose `labels_at` places points in components.  Only
`winding_count` also takes a plain function f(zs) -> values, when w0 is
None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geom import DistanceReader, GridDomain, distance_at, distance_field
from .kernel import DEFAULT_SEED, KernelError, kernel_error

ARG_STEP_LIMIT = np.pi / 2
FLOOR_FACTOR = 10.0           # contour floor, in evaluation error estimates
MAX_CONTOUR_POINTS = 1 << 17  # refined contour size that fails winding_count
REFINE_ROUNDS = 3             # local grid halvings in refine_minimum
DEPTH_FRACTION = 0.35         # default probes: share of the component depth
LOBE_GAMMA = 0.2              # admissible zero depth: share of its lobe depth
MAX_CANDIDATES = 5            # scan minima tried for a certificate, per w0
CONTOUR_POINTS = 64           # samples of a certificate contour
CONTOUR_RADIUS_CELLS = 3.0    # first certificate contour radius, in cells
CONTOUR_GROWTHS = 3           # twofold radius growths on a floor violation


class ContourError(RuntimeError):
    """Modulus floor violated or refinement failed along a contour."""


class ZeroSearchError(ValueError):
    """Invalid probe or scan request."""


def circle_contour(center: complex, radius: float,
                   n: int = CONTOUR_POINTS) -> np.ndarray:
    """Counterclockwise circle sampled at n points (closed implicitly)."""
    if n < 16:
        raise ZeroSearchError("contour needs at least 16 samples")
    t = 2 * np.pi * np.arange(n) / n
    return center + radius * np.exp(1j * t)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """Grid scan of |K(., w0)| over w0's component.

    candidates: local minima below the component median, ascending by value.
    """

    candidates: tuple
    min_modulus: float
    median_modulus: float
    n_scanned: int
    resolution: float


def scan_min_modulus(model, w0: complex, stride: int = 4,
                     bbox: tuple | None = None) -> ScanResult:
    """Evaluate |K(z, w0)| on every stride-th interior cell of w0's
    component; elsewhere the kernel vanishes identically.

    Returns the local minima below the component median, sorted ascending.
    An optional bbox (x0, y0, x1, y1) restricts the scanned region (without
    one it is the whole array); the scan works on the array window of the
    bbox alone, started on the stride lattice, so its cost follows the bbox
    and not the grid.
    """
    dom = model.domain
    if dom is None:
        raise ZeroSearchError("model carries no grid domain to scan")
    target = int(dom.labels_at(w0))
    if target == 0:
        raise ZeroSearchError(f"w0 = {w0} is outside the domain")
    cx, cy = dom.centers_x, dom.centers_y
    x0, y0, x1, y1 = (cx[0], cy[0], cx[-1], cy[-1]) if bbox is None else bbox
    ix = np.nonzero((cx >= x0) & (cx <= x1))[0]
    iy = np.nonzero((cy >= y0) & (cy <= y1))[0]
    if not (ix.size and iy.size):
        raise ZeroSearchError(f"scan bbox {bbox} misses the component")
    i0 = ix[0] - ix[0] % stride
    j0 = iy[0] - iy[0] % stride
    sub = dom.component_labels[i0:ix[-1] + 1, j0:iy[-1] + 1] == target
    sub[:ix[0] - i0] = False
    sub[:, :iy[0] - j0] = False
    if not sub.any():
        raise ZeroSearchError(f"scan bbox {bbox} misses the component")
    lattice = sub[::stride, ::stride]
    if not lattice.any():
        raise ZeroSearchError(f"component {target} has no cells at stride {stride}")

    xs = cx[i0::stride][:lattice.shape[0]]
    ys = cy[j0::stride][:lattice.shape[1]]
    ii, jj = np.nonzero(lattice)
    pts = np.empty(ii.size, dtype=complex)
    pts.real = xs[ii]
    pts.imag = ys[jj]
    mods = np.abs(model.eval_many(pts, w0))
    vi = np.full(lattice.shape, np.inf)
    vi[lattice] = mods
    median = float(np.median(mods))

    # smallest of the four lattice neighbours; off-window ones are unscanned
    lo = np.full(vi.shape, np.inf)
    np.minimum(lo[1:, :], vi[:-1, :], out=lo[1:, :])
    np.minimum(lo[:-1, :], vi[1:, :], out=lo[:-1, :])
    np.minimum(lo[:, 1:], vi[:, :-1], out=lo[:, 1:])
    np.minimum(lo[:, :-1], vi[:, 1:], out=lo[:, :-1])
    is_min = np.isfinite(vi) & (vi <= lo) & (vi < median)
    ii, jj = np.nonzero(is_min)
    cand = [(xs[i] + 1j * ys[j], float(vi[i, j])) for i, j in zip(ii, jj)]
    cand.sort(key=lambda t: (t[1], t[0].real, t[0].imag))
    return ScanResult(candidates=tuple(cand), min_modulus=float(mods.min()),
                      median_modulus=median, n_scanned=int(mods.size),
                      resolution=stride * dom.h)


def refine_minimum(model, w0: complex, z0: complex, h: float) -> complex:
    """Sharpen a scan minimizer on REFINE_ROUNDS shrinking 5x5 grids."""
    dom = model.domain
    best = z0
    spacing = h
    for _ in range(REFINE_ROUNDS):
        off = spacing * np.arange(-2, 3)
        grid = (best + off[:, None] + 1j * off[None, :]).ravel()
        pts = grid[dom.labels_at(grid) > 0]
        if pts.size == 0:
            break
        vals = np.abs(model.eval_many(pts, w0))
        best = complex(pts[int(np.argmin(vals))])
        spacing /= 2
    return best


# ---------------------------------------------------------------------------
# winding count
# ---------------------------------------------------------------------------

def winding_count(model, w0: complex | None, contour: np.ndarray) -> int:
    """Zeros of z -> K(z, w0) inside a closed counterclockwise polyline.

    The total argument change is accumulated over samples, refined by segment
    bisection until successive arguments differ by less than pi/2; the result
    divided by 2 pi is the exact integer count for a function holomorphic
    inside.  Raises ContourError when the modulus floor (FLOOR_FACTOR times
    the evaluation error estimate) is violated, a contour point leaves w0's
    component of the model's domain, or refinement passes MAX_CONTOUR_POINTS
    samples.  With w0 None, model is a plain function f(zs) -> values, with
    no error estimate or domain.
    """
    err = 0.0 if w0 is None else float(model.eval_error_estimate(w0))
    return _winding(model, w0, contour, err)[0]


def _winding(model, w0: complex | None, contour: np.ndarray,
             err: float) -> tuple[int, float]:
    """`winding_count` at a given evaluation error estimate, with the least
    modulus over the unrefined contour samples (the certificate floor)."""
    pts = np.asarray(contour, dtype=complex).ravel()
    if pts.size < 8:
        raise ZeroSearchError("contour too coarse")
    if w0 is None:
        f, dom = model, None
    else:
        f = lambda zs: model.eval_many(zs, w0)
        dom = model.domain
    w_comp = int(dom.labels_at(w0)) if dom is not None else 0

    def require_component(points, what):
        if dom is not None:
            off = points[dom.labels_at(points) != w_comp]
            if off.size:
                raise ContourError(f"{what} point {off[0]} leaves w0's "
                                   "component")

    require_component(pts, "contour")
    vals = f(pts)
    contour_min = float(np.abs(vals).min())
    floor = FLOOR_FACTOR * err

    while True:
        mods = np.abs(vals)
        if mods.min() <= floor or mods.min() == 0.0:
            raise ContourError(
                f"modulus floor violated on contour: min |K| = {mods.min():.3e} "
                f"vs floor {floor:.3e}; move the contour")
        ratio = np.roll(vals, -1) / vals
        dargs = np.angle(ratio)
        bad = np.abs(dargs) >= ARG_STEP_LIMIT
        if not bad.any():
            total = float(dargs.sum())
            count = total / (2 * np.pi)
            nearest = round(count)
            if abs(count - nearest) > 0.25:
                raise ContourError(
                    f"argument sum {count:.3f} turns is not close to an integer")
            return int(nearest), contour_min
        if pts.size * 2 > MAX_CONTOUR_POINTS:
            raise ContourError("contour refinement exploded; a zero sits on or "
                               "too near the contour")
        mids = 0.5 * (pts[bad] + np.roll(pts, -1)[bad])
        require_component(mids, "refined contour")
        mid_vals = f(mids)
        insert_at = np.nonzero(bad)[0] + 1
        pts = np.insert(pts, insert_at, mids)
        vals = np.insert(vals, insert_at, mid_vals)


# ---------------------------------------------------------------------------
# certificates and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCertificate:
    """Argument-principle witness for a kernel zero near z_star.

    Valid only with winding >= 1 and a contour modulus floor exceeding
    FLOOR_FACTOR times the evaluation error estimate, the floor that
    `winding_count` enforces.
    """

    w0: complex
    contour: tuple
    winding: int
    min_modulus_on_contour: float
    z_star: complex
    eval_error: float

    def validate(self) -> None:
        if self.winding < 1:
            raise ZeroSearchError("certificate must enclose at least one zero")
        if not self.min_modulus_on_contour > FLOOR_FACTOR * self.eval_error:
            raise ZeroSearchError(
                f"certificate floor {self.min_modulus_on_contour:.3e} does not "
                f"clear {FLOOR_FACTOR:g}x the evaluation error "
                f"{self.eval_error:.3e}")

    def to_dict(self) -> dict:
        return {
            "w0": [self.w0.real, self.w0.imag],
            "contour": [[p.real, p.imag] for p in self.contour],
            "winding": self.winding,
            "min_modulus_on_contour": self.min_modulus_on_contour,
            "z_star": [self.z_star.real, self.z_star.imag],
            "eval_error": self.eval_error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ZeroCertificate":
        cert = cls(
            w0=complex(*d["w0"]),
            contour=tuple(complex(*p) for p in d["contour"]),
            winding=int(d["winding"]),
            min_modulus_on_contour=float(d["min_modulus_on_contour"]),
            z_star=complex(*d["z_star"]),
            eval_error=float(d["eval_error"]),
        )
        cert.validate()
        return cert


@dataclass(frozen=True)
class Verdict:
    """Outcome of a kernel-zero search.

    status is "zero-certified" with an embedded certificate, or
    "no-zero-found" carrying the observed modulus floor and the scan
    resolution.  A no-zero-found verdict never claims zero-freeness.
    """

    status: str
    certificate: ZeroCertificate | None
    floor: float
    resolution: float

    @property
    def certified(self) -> bool:
        return self.status == "zero-certified"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "floor": self.floor,
            "resolution": self.resolution,
        }


@dataclass(frozen=True)
class ProbeConfig:
    """Deterministic probe policy for verdicts.

    w0 points default to the deepest cell of each component plus n_random
    cells drawn (fixed seed) from the deep part of the component, cells at
    depth at least DEPTH_FRACTION of the component maximum.  Deep anchoring
    keeps probe points inside the region where a finite-rank kernel is a
    trustworthy proxy of the domain's kernel.
    """

    w0_points: tuple | None = None
    n_random: int = 8
    seed: int = DEFAULT_SEED
    stride: int = 4
    scan_bbox: tuple | None = None  # (x0, y0, x1, y1) restriction of the scan


def _lobe_scale(depth: DistanceReader, start: tuple[int, int]) -> float:
    """Local maximum of a distance field reached by greedy 8-neighbor ascent,
    reading each step's neighborhood exactly through the reader's window,
    which grows when the ascent reaches its edge."""
    nx, ny = depth.U.nx, depth.U.ny
    i, j = start
    for _ in range(nx * ny):
        i0, j0 = max(i - 1, 0), max(j - 1, 0)
        v = depth.read(*np.mgrid[i0:min(i + 2, nx), j0:min(j + 2, ny)])
        best = v[i - i0, j - j0]
        step = None
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = i + di, j + dj
                if 0 <= ni < nx and 0 <= nj < ny and v[ni - i0, nj - j0] > best:
                    best = v[ni - i0, nj - j0]
                    step = (ni, nj)
        if step is None:
            return float(best)
        i, j = step
    return float(best)


def default_probes(dom: GridDomain, cfg: ProbeConfig) -> list[complex]:
    """Deepest cell plus seeded deep-interior draws, per component."""
    depth = distance_field(dom)
    labels = dom.component_labels
    rng = np.random.default_rng(cfg.seed)
    probes: list[complex] = []
    for comp in range(1, dom.n_components + 1):
        in_comp = labels == comp
        d = np.where(in_comp, depth, -1.0)
        sel = np.zeros(d.shape, dtype=bool)
        flat_best = int(np.argmax(d))
        sel.flat[flat_best] = True
        probes.append(complex(dom.centers_of(sel)[0]))
        dmax = d.max()
        deep = np.nonzero((d >= DEPTH_FRACTION * dmax).ravel())[0]
        take = min(cfg.n_random, deep.size)
        picks = rng.choice(deep, size=take, replace=False)
        sel.flat[flat_best] = False
        sel.flat[picks] = True
        # centers_of reads in row-major order, that is by sorted flat index
        probes.extend(complex(c) for c in dom.centers_of(sel))
    return probes


def certify_zero(model, w0: complex, z_star: complex) -> ZeroCertificate | None:
    """Try to certify a zero of K(., w0) near the candidate z_star.

    The contour is a circle of CONTOUR_POINTS samples and radius
    CONTOUR_RADIUS_CELLS * h, grown twofold up to CONTOUR_GROWTHS times when
    the modulus floor is violated.  Candidates failing the lobe-depth
    admissibility rule are rejected outright (boundary-hugging truncation
    artifacts).  Each contour is evaluated once: the winding pass also gives
    the floor, the least modulus over its unrefined samples, and the error
    estimate is computed once per call.  Depths are read exactly through a
    window of the domain's array around the candidate (`DistanceReader`),
    grown along the ascent; the whole field is read only when it is
    already cached.  Returns None when no valid certificate arises.
    """
    dom = model.domain
    cell = dom.cell_of(z_star)
    if cell is None or not dom.mask[cell]:
        return None
    depth = DistanceReader(dom)
    d_here = float(depth.read(*cell))
    if d_here < LOBE_GAMMA * _lobe_scale(depth, cell):
        return None
    err = float(model.eval_error_estimate(w0))
    radius = CONTOUR_RADIUS_CELLS * dom.h
    for _ in range(CONTOUR_GROWTHS + 1):
        if radius >= d_here:
            return None
        contour = circle_contour(z_star, radius)
        try:
            winding, floor = _winding(model, w0, contour, err)
        except ContourError:
            radius *= 2
            continue
        if winding < 1:
            return None
        cert = ZeroCertificate(w0=complex(w0), contour=tuple(contour),
                               winding=winding, min_modulus_on_contour=floor,
                               z_star=complex(z_star), eval_error=err)
        cert.validate()
        return cert
    return None


def lu_qi_keng_verdict(model, probe_config: ProbeConfig | None = None) -> Verdict:
    """Scan w0's component at each probe point w0 and certify the best
    candidates; first valid certificate wins, otherwise report the floor.

    Certification failures fold into a no-zero-found verdict carrying the
    minimum modulus observed over all scans and the scan resolution.
    """
    cfg = probe_config or ProbeConfig()
    dom = model.domain
    if dom is None:
        raise ZeroSearchError("model carries no grid domain")
    w0s = list(cfg.w0_points) if cfg.w0_points is not None \
        else default_probes(dom, cfg)
    floor = math.inf
    resolution = cfg.stride * dom.h
    for w0 in w0s:
        scan = scan_min_modulus(model, w0, stride=cfg.stride, bbox=cfg.scan_bbox)
        floor = min(floor, scan.min_modulus)
        for z0, _ in scan.candidates[:MAX_CANDIDATES]:
            z_star = refine_minimum(model, w0, z0, dom.h)
            cert = certify_zero(model, w0, z_star)
            if cert is not None:
                return Verdict(status="zero-certified", certificate=cert,
                               floor=float(floor), resolution=resolution)
    return Verdict(status="no-zero-found", certificate=None,
                   floor=float(floor), resolution=resolution)


@dataclass(frozen=True)
class HurwitzTrack:
    """Winding counts along a domain sequence at one fixed (w0, contour).

    counts holds None where the contour's modulus floor failed for that
    member (indeterminate); kernel_errors compares each member to the limit
    reference on a compact set containing the contour.
    """

    counts: tuple
    kernel_errors: tuple


def hurwitz_track(models: Sequence, w0: complex, contour: np.ndarray,
                  reference=None, margin: float | None = None) -> HurwitzTrack:
    """Winding count per model on the same contour, plus reference errors
    at margin (default: half the least reference depth on the contour,
    read through a window around the contour's cells)."""
    counts: list[int | None] = []
    for m in models:
        try:
            counts.append(winding_count(m, w0, contour))
        except ContourError:
            counts.append(None)
    errors: list[float | None] = []
    if reference is not None:
        ref_dom = reference.domain
        if margin is None:
            margin = 0.5 * float(distance_at(ref_dom, contour).min())
        for m in models:
            try:
                errors.append(kernel_error([m], reference, margin,
                                            domain=ref_dom)[0])
            except KernelError:
                errors.append(None)
    else:
        errors = [None] * len(models)
    return HurwitzTrack(counts=tuple(counts), kernel_errors=tuple(errors))
