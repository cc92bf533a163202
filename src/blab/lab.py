"""Experiment drivers, configuration, and machine-readable reports.

Each driver consumes an ExperimentConfig and returns an ExperimentReport:
one row per schedule stage, a list of named assertions whose conjunction is
the run verdict, and embedded zero certificates where stages certify.
Reports are reproducible byte for byte for a fixed config (no timestamps,
fixed seeds, deterministic reductions).

The four experiments:
  exhaustion      interior approximants of a target; kernel convergence.
  barbell         two lobes joined by shrinking necks; zero persistence.
  nowhere-density the end-to-end construction: exhaust, place a small
                  annulus, optionally join, certify a kernel zero, and
                  check the result stays rho1-close to the input.
  metric-demo     the slit/tail table contrasting rho1 and rho2.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import basis as bs
from . import kernel as kn
from . import zeros as zr
from .geom import (
    GeomError,
    GridDomain,
    _spec_bbox,
    annulus,
    check_spec,
    difference,
    disc,
    distance_field,
    domain_union,
    extract_sets,
    interior_exhaustion,
    is_logconvex_profile,
    barbell_sequence,
    make_domain,
    rectangle,
    reinhardt_profile,
    rho1,
    rho1_parts,
    rho2,
    rho2_parts,
    union,
)

EXPERIMENTS = ("exhaustion", "barbell", "nowhere-density", "metric-demo")
# nowhere-density lobe-side poles: angles (degrees) from the +x axis at the
# lobe center, which faces away from the neck, and radius in lobe radii
LOBE_POLE_ANGLES = (-100, -60, -20, 20, 60, 100)
LOBE_POLE_RADIUS = 1.3

CONFIG_KEYS = {
    "experiment": str,
    "shapes": dict,
    "h": (int, float),
    "basis_window": list,
    "depths": list,
    "widths": list,
    "segment": list,
    "delta": (int, float),
    "connected": bool,
    "certify": bool,
    "seed": int,
    "out_dir": str,
}

REQUIRED = {
    "exhaustion": ("shapes", "h", "basis_window", "depths"),
    "barbell": ("shapes", "h", "basis_window", "widths"),
    "nowhere-density": ("shapes", "h", "basis_window", "delta"),
    "metric-demo": ("h",),
}

# keys an experiment reads beyond REQUIRED, experiment, seed and out_dir; a
# config holding any other is rejected
OPTIONAL = {"exhaustion": ("certify",), "barbell": ("segment",),
            "nowhere-density": ("connected",), "metric-demo": ()}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    h: float
    shapes: dict = field(default_factory=dict)
    basis_window: tuple[int, int] = (0, 0)
    depths: tuple[float, ...] = ()
    widths: tuple[float, ...] = ()
    segment: tuple[complex, complex] | None = None
    delta: float | None = None
    connected: bool = True
    certify: bool = False
    seed: int = zr.DEFAULT_SEED
    out_dir: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"expected one of {EXPERIMENTS}")
        if not 0 < self.h < math.inf:
            raise ConfigError("h must be positive and finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for name, sched in (("depths", self.depths), ("widths", self.widths)):
            if not sched and name in REQUIRED[self.experiment]:
                raise ConfigError(f"{name} must not be empty")
            if not all(v > 0 for v in sched):
                raise ConfigError(f"{name} must be positive")
            if len(sched) > 1 and not all(a > b for a, b in zip(sched, sched[1:])):
                raise ConfigError(f"{name} must be strictly decreasing")
        n_neg, n_pos = self.basis_window
        if n_neg < 0 or n_pos < 0:
            raise ConfigError("basis window sides must be nonnegative")
        if self.experiment == "nowhere-density":
            if self.delta is None or not 8 * self.h < self.delta < math.inf:
                raise ConfigError(
                    f"delta must be finite and exceed 8h = {8 * self.h} "
                    f"(resolution guard)")


def _real(key: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config key {key!r} needs numbers, got {v!r}")
    return float(v)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a JSON config dict: unknown keys, values of the wrong type
    (a JSON true is not a number here), malformed shapes, and keys or
    shapes the experiment does not read are rejected."""
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' tag")
    exp = raw["experiment"]
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}")
    for key in REQUIRED[exp]:
        if key not in raw:
            raise ConfigError(f"experiment {exp!r} requires config key {key!r}")
    for key, val in raw.items():
        want = CONFIG_KEYS[key]
        if not isinstance(val, want) or (isinstance(val, bool)
                                         and want is not bool):
            raise ConfigError(f"config key {key!r} has type {type(val).__name__}, "
                              f"expected {want}")
    kwargs = dict(raw)
    if "basis_window" in kwargs:
        win = kwargs["basis_window"]
        if len(win) != 2 or not all(isinstance(v, int)
                                    and not isinstance(v, bool) for v in win):
            raise ConfigError("basis_window must be [n_neg, n_pos], "
                              f"two integers, got {win!r}")
        kwargs["basis_window"] = tuple(win)
    for key in ("depths", "widths"):
        if key in kwargs:
            kwargs[key] = tuple(_real(key, v) for v in kwargs[key])
    if "segment" in kwargs:
        seg = kwargs["segment"]
        if len(seg) != 2 or not all(isinstance(p, (list, tuple)) and len(p) == 2
                                    for p in seg):
            raise ConfigError("segment must be [[x, y], [x, y]]")
        kwargs["segment"] = tuple(complex(_real("segment", p[0]),
                                          _real("segment", p[1])) for p in seg)
    if "h" in kwargs:
        kwargs["h"] = float(kwargs["h"])
    if "delta" in kwargs:
        kwargs["delta"] = float(kwargs["delta"])
    shape_names = ("left", "right") if exp == "barbell" else ("target",)
    if "shapes" in REQUIRED[exp]:
        for name in shape_names:
            if name not in raw["shapes"]:
                raise ConfigError(f"experiment {exp!r} requires shape {name!r}")
            try:
                check_spec(raw["shapes"][name])
            except GeomError as e:
                raise ConfigError(f"shape {name!r}: {e}") from e
    if not kwargs.get("out_dir"):
        kwargs["out_dir"] = f"runs/{exp}"
    config = ExperimentConfig(**kwargs)
    # last, so every check above names its own fault first
    unread = sorted(set(raw) - {"experiment", "seed", "out_dir",
                                *REQUIRED[exp], *OPTIONAL[exp]})
    unread += sorted(f"shape {n!r}" for n in set(raw.get("shapes", ()))
                     - set(shape_names))
    if unread:
        raise ConfigError(f"experiment {exp!r} does not read "
                          f"{', '.join(unread)}")
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return str(v)


@dataclass
class ExperimentReport:
    """Per-stage rows plus named assertions and embedded certificates."""

    experiment: str
    metadata: dict
    columns: list
    rows: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    certificates: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def add_row(self, **values) -> None:
        row = {c: values.get(c) for c in self.columns}
        self.rows.append(row)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append({"name": name, "passed": bool(passed),
                                "detail": detail})

    def attach_certificate(self, stage, cert: zr.ZeroCertificate) -> None:
        cert.validate()
        self.certificates[str(stage)] = cert

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "metadata": self.metadata,
            "columns": self.columns,
            "rows": self.rows,
            "assertions": self.assertions,
            "certificates": {k: c.to_dict() for k, c in self.certificates.items()},
            "passed": self.passed,
        }

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "report.csv"
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(",".join(self.columns) + "\n")
            for row in self.rows:
                f.write(",".join(_fmt(row[c]) if row[c] is not None else ""
                                 for c in self.columns) + "\n")
        json_path = out / "summary.json"
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True,
                      default=_json_default)
        return csv_path, json_path


def _json_default(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


# ---------------------------------------------------------------------------
# basis construction for experiment domains
# ---------------------------------------------------------------------------

def default_basis_for(spec: dict, window: tuple[int, int]) -> bs.BasisSpec:
    """Window basis adapted to a shape: monomials at a disc's or annulus's
    center, else the bounding-box center, plus principal parts at an annulus
    center, a pole whose cell holds no quadrature node."""
    n_neg, n_pos = window
    kind = spec["shape"]
    if kind == "disc":
        return bs.monomials(complex(*spec["center"]), n_pos)
    if kind == "annulus":
        return bs.laurent(complex(*spec["center"]), n_neg, n_pos)
    x0, y0, x1, y1 = _spec_bbox(spec)
    return bs.monomials(complex((x0 + x1) / 2, (y0 + y1) / 2), n_pos)


def lobe_probe_points(D: GridDomain, n_random: int,
                      seed: int) -> tuple[complex, ...]:
    """Deep probe points of a lobe domain D, usable as w0 probes in any
    domain containing D (the experiment members all do)."""
    cfg = zr.ProbeConfig(n_random=n_random, seed=seed)
    return tuple(zr.default_probes(D, cfg))


def _lobe_scan_window(spec: dict, h: float) -> tuple:
    """The scan bbox of a lobe's zero search: the lobe's bounding box
    padded by 2h on every side."""
    x0, y0, x1, y1 = _spec_bbox(spec)
    pad = 2 * h
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def _fit_nested(members, basis: bs.BasisSpec) -> list:
    """Fits of nested members listed innermost first, each Gram adding
    only the member's cells outside the one before."""
    models = []
    for member in members:
        models.append(kn.fit_kernel(member, basis,
                                    inner=models[-1] if models else None))
    return models


# ---------------------------------------------------------------------------
# exhaustion experiment
# ---------------------------------------------------------------------------

def run_exhaustion(config: ExperimentConfig) -> ExperimentReport:
    """Fit kernels on interior approximants and track metric and kernel
    convergence to the target.

    The compact comparison set is {depth > 1.5 * largest depth} of the
    target; disc and annulus targets are compared against their matched-
    truncation closed forms, anything else against the fitted target model.
    Every stage is fitted first, each member's Gram adding only its shell
    outside the previous member's, and all are compared in one
    `kernel_error` call, so the reference is evaluated once per run.
    Kernel errors must be non-increasing across the final three stages.
    """
    spec = config.shapes["target"]
    target = make_domain(spec, config.h)
    seq = interior_exhaustion(target, list(config.depths))
    window = config.basis_window
    margin = 1.5 * max(config.depths)

    if spec["shape"] in ("disc", "annulus"):
        reference = kn.closed_form(spec, truncation=max(window[1], window[0]))
    else:
        reference = kn.fit_kernel(target, default_basis_for(spec, window))

    certify = config.certify or spec["shape"] == "annulus"
    probe_points = lobe_probe_points(target, n_random=4, seed=config.seed) \
        if certify else ()

    report = ExperimentReport(
        experiment="exhaustion",
        metadata={"h": config.h, "seed": config.seed, "basis_window": list(window),
                  "target": spec, "compact_margin": margin},
        columns=["stage", "depth", "rho1_to_target", "rho2_to_target",
                 "kernel_error", "n_terms", "conditioning", "certified",
                 "winding"])

    basis = default_basis_for(spec, window)
    # depths strictly decrease, so each member holds the one before it
    models = _fit_nested(seq.members, basis)
    errors = kn.kernel_error(models, reference, margin, domain=target)
    for k, (depth, member, model, err) in enumerate(
            zip(seq.params, seq.members, models, errors)):
        certified = None
        winding = None
        if certify:
            cfg = zr.ProbeConfig(w0_points=probe_points)
            verdict = zr.lu_qi_keng_verdict(model, cfg)
            certified = verdict.certified
            if verdict.certified:
                winding = verdict.certificate.winding
                report.attach_certificate(k, verdict.certificate)
        report.add_row(stage=k, depth=depth,
                       rho1_to_target=rho1(member, target),
                       rho2_to_target=rho2(member, target),
                       kernel_error=err, n_terms=model.n_terms,
                       conditioning=model.gram.conditioning,
                       certified=certified, winding=winding)

    tail = errors[-3:]
    report.check("kernel_error_non_increasing_final_three",
                 all(a >= b for a, b in zip(tail, tail[1:])),
                 f"final errors {['%.6g' % e for e in tail]}")
    if certify:
        report.check("certified_every_stage",
                     all(r["certified"] for r in report.rows),
                     "zero certificate per stage")
    return report


# ---------------------------------------------------------------------------
# barbell experiment
# ---------------------------------------------------------------------------

def _default_segment(left: dict, right: dict) -> tuple[complex, complex]:
    """Boundary-to-boundary segment along the line of centers."""
    for spec in (left, right):
        if spec["shape"] not in ("disc", "annulus"):
            raise ConfigError("default barbell segment needs disc or annulus "
                              "lobes; give an explicit segment otherwise")
    cl = complex(*left["center"])
    cr = complex(*right["center"])
    u = (cr - cl) / abs(cr - cl)
    rl = left.get("r", left.get("R"))
    rr = right.get("r", right.get("R"))
    return cl + rl * u, cr - rr * u


def run_barbell(config: ExperimentConfig) -> ExperimentReport:
    """Join the two lobes by shrinking necks; track rho2 to the disjoint
    union (must strictly decrease), rho1 to the left lobe, kernel error on a
    compact subset of the right (annulus) lobe against its matched closed
    form (one `kernel_error` call for all members), and the zero
    certificates that the Hurwitz picture predicts for thin necks.
    """
    left_spec = config.shapes["left"]
    right_spec = config.shapes["right"]
    if right_spec["shape"] != "annulus":
        raise ConfigError("barbell right lobe must be an annulus (the zero "
                          "carrier)")
    h = config.h
    G = make_domain(left_spec, h)
    D = make_domain(right_spec, h)
    segment = config.segment or _default_segment(left_spec, right_spec)
    seq = barbell_sequence(G, D, segment, list(config.widths))
    target = seq.target
    window = config.basis_window
    n_neg, n_pos = window

    ring_width = right_spec["R"] - right_spec["rho"]
    margin = 0.2 * ring_width
    reference = kn.closed_form(right_spec, truncation=max(n_pos, n_neg))
    c_right = complex(*right_spec["center"])

    probes = lobe_probe_points(D, n_random=4, seed=config.seed)
    d_bbox = _lobe_scan_window(right_spec, h)

    report = ExperimentReport(
        experiment="barbell",
        metadata={"h": h, "seed": config.seed, "basis_window": list(window),
                  "left": left_spec, "right": right_spec, "compact_margin": margin,
                  "segment": [[segment[0].real, segment[0].imag],
                              [segment[1].real, segment[1].imag]]},
        columns=["stage", "width", "rho2_to_union", "rho1_to_left",
                 "kernel_error_on_right", "n_terms", "conditioning",
                 "certified", "winding", "track_winding", "floor"])

    basis = bs.merged(default_basis_for(left_spec, (0, n_pos)),
                      bs.principal_parts(c_right, n_neg))
    # widths strictly decrease, so each member holds the one after it
    models = _fit_nested(seq.members[::-1], basis)[::-1]
    verdicts = []
    first_certified = None
    for k, model in enumerate(models):
        cfg = zr.ProbeConfig(w0_points=probes, scan_bbox=d_bbox)
        verdict = zr.lu_qi_keng_verdict(model, cfg)
        verdicts.append(verdict)
        if verdict.certified:
            report.attach_certificate(k, verdict.certificate)
            first_certified = k if first_certified is None else first_certified

    # Hurwitz track: the thinnest certified stage anchors one fixed
    # (w0, contour) pair evaluated on every member, thick to thin
    anchor = next((v.certificate for v in reversed(verdicts) if v.certified),
                  None)
    tracks = (None,) * len(models)
    if anchor is not None:
        report.metadata["anchor_zero"] = [anchor.z_star.real, anchor.z_star.imag]
        report.metadata["anchor_w0"] = [anchor.w0.real, anchor.w0.imag]
        tracks = zr.hurwitz_track(models, anchor.w0,
                                  np.asarray(anchor.contour)).counts

    errors = kn.kernel_error(models, reference, margin, domain=D)
    for k, (width, member, model, verdict, err, track_winding) in enumerate(
            zip(seq.params, seq.members, models, verdicts, errors, tracks)):
        report.add_row(stage=k, width=width,
                       rho2_to_union=rho2(member, target),
                       rho1_to_left=rho1(member, G),
                       kernel_error_on_right=err, n_terms=model.n_terms,
                       conditioning=model.gram.conditioning,
                       certified=verdict.certified,
                       winding=verdict.certificate.winding
                       if verdict.certified else None,
                       track_winding=track_winding,
                       floor=verdict.floor)

    rho2s = [r["rho2_to_union"] for r in report.rows]
    report.check("rho2_strictly_decreasing",
                 all(a > b for a, b in zip(rho2s, rho2s[1:])),
                 f"rho2 sequence {['%.6g' % v for v in rho2s]}")
    flags = [r["certified"] for r in report.rows]
    if first_certified is None:
        report.check("zero_certified_at_some_stage", False,
                     "no stage certified a kernel zero")
    else:
        report.metadata["first_certified_stage"] = first_certified
        persists = all(flags[first_certified:])
        report.check("certification_persists_for_thinner_necks", persists,
                     f"certified flags {flags} from stage {first_certified}")
    return report


# ---------------------------------------------------------------------------
# nowhere-density construction
# ---------------------------------------------------------------------------

def _rightmost_boundary_point(U: GridDomain) -> complex:
    """Deterministic attachment point: boundary cell of largest x, ties
    broken toward the smallest |y|."""
    pts = U.centers_at(U.boundary.cells)
    order = np.lexsort((np.abs(pts.imag), -pts.real))
    return complex(pts[order[0]])


def _nearest_boundary_point(U: GridDomain, to: complex) -> complex:
    bd = U.centers_at(U.boundary.cells)
    return complex(bd[int(np.argmin(np.abs(bd - to)))])


def _exhausted_start(config: ExperimentConfig,
                     **mode) -> tuple[ExperimentReport, GridDomain, GridDomain]:
    """The report of a nowhere-density run, the target G and its first
    stage, an interior exhaustion member within delta/4 of G.  Corners of
    the level set move by eps * sqrt(2), so the depth budget uses delta/10
    rather than delta/8."""
    spec = config.shapes["target"]
    h, delta = config.h, float(config.delta)
    G = make_domain(spec, h)
    report = ExperimentReport(
        experiment="nowhere-density",
        metadata={"h": h, "seed": config.seed,
                  "basis_window": list(config.basis_window), "target": spec,
                  "delta": delta, **mode},
        columns=["stage", "step", "rho1_to_target", "rho2_to_target", "detail"])
    eps = max(delta / 10 - 2 * h, 1.5 * h)
    member = interior_exhaustion(G, [eps]).members[0]
    r1 = rho1(member, G)
    report.add_row(stage=0, step="exhaust", rho1_to_target=r1,
                   rho2_to_target=rho2(member, G), detail=f"depth {eps:.6g}")
    report.check("exhaustion_within_quarter_delta", r1 < delta / 4,
                 f"rho1 {r1:.6g} vs {delta / 4:.6g}")
    return report, G, member


def run_nowhere_density(config: ExperimentConfig) -> ExperimentReport:
    """The end-to-end construction: arbitrarily rho1-close to the input
    domain, produce a domain whose kernel carries a certified zero.

    The delta budget splits four ways: interior exhaustion within delta/4,
    a small annulus of diameter below delta/4 placed within delta/4 of the
    input, a neck (connected mode) inside the placement gap, and the
    certificate.  Planar inputs run the full pipeline; a reinhardt-profile
    input places an annulus x disc product (log-convexity validated) and
    certifies on the annulus-factor slice.
    """
    if config.shapes["target"]["shape"] == "reinhardt-profile":
        return _run_nowhere_density_c2(config)
    report, G, member = _exhausted_start(config, connected=config.connected)
    h, delta = config.h, float(config.delta)
    window = config.basis_window
    n_neg, n_pos = window

    # stage 2: place a small annulus of diameter < delta/4 within delta/4
    R_d = 0.99 * delta / 8
    rho_d = R_d / 2
    if R_d - rho_d < 6 * h:
        raise ConfigError(
            f"delta {delta} leaves the placed annulus under-resolved at h={h}: "
            f"ring width {R_d - rho_d:.4g} needs at least {6 * h:.4g}")
    gap = delta / 16
    anchor = _rightmost_boundary_point(G)
    c_d = anchor + gap + R_d
    d_spec = annulus(c_d, rho_d, R_d)
    D = make_domain(d_spec, h)
    placement = float(np.min(np.abs(extract_sets(D).closure - anchor)))
    report.add_row(stage=1, step="place", rho1_to_target=None,
                   rho2_to_target=None,
                   detail=f"annulus at {c_d:.6g}, gap {placement:.6g}")
    report.check("placement_within_quarter_delta", placement < delta / 4,
                 f"gap {placement:.6g} vs {delta / 4:.6g}")

    # stage 3: join (or plain union in disconnected mode)
    if config.connected:
        a = _nearest_boundary_point(member, c_d)
        b = _nearest_boundary_point(D, a)
        width = max(3 * h, delta / 100)
        result = barbell_sequence(member, D, (a, b), [width]).members[0]
        join_detail = f"neck width {width:.6g}"
    else:
        result = domain_union(member, D)
        join_detail = "disjoint union"
    r1_result = rho1(result, G)
    report.add_row(stage=2, step="join", rho1_to_target=r1_result,
                   rho2_to_target=rho2(result, G), detail=join_detail)
    report.check("result_within_delta", r1_result < delta,
                 f"rho1(result, target) {r1_result:.6g} vs delta {delta:.6g}")
    if config.connected:
        report.check("result_connected", result.n_components == 1,
                     f"{result.n_components} components")

    # stage 4: certify a kernel zero on the annulus lobe.  The window basis
    # alone cannot carry positive local frequencies on a lobe 16x smaller
    # than the member; poles clustered just outside the lobe's outer circle
    # do (lightning-solver style), on the side away from the neck: the lobe
    # lies right of the target's rightmost boundary point.
    q = complex(member.centers_of(member.mask).mean())
    poles = (c_d + cmath.rect(LOBE_POLE_RADIUS * R_d, math.radians(t))
             for t in LOBE_POLE_ANGLES)
    basis = bs.merged(bs.monomials(q, n_pos), bs.principal_parts(c_d, n_neg),
                      *(bs.principal_parts(p, 2) for p in poles))
    probes = lobe_probe_points(D, n_random=6, seed=config.seed)
    bbox = _lobe_scan_window(d_spec, h)
    try:
        model = kn.fit_kernel(result, basis)
    except (bs.BasisError, bs.FactorizationError) as e:
        certified = False
        detail = (f"certification failed; the fit raised "
                  f"{type(e).__name__}: {e} (basis window {window})")
    else:
        verdict = zr.lu_qi_keng_verdict(
            model, zr.ProbeConfig(w0_points=probes, stride=1, scan_bbox=bbox))
        certified = verdict.certified
        health = (f"{model.n_terms} terms, conditioning "
                  f"{model.gram.conditioning:.3g}")
        if certified:
            report.attach_certificate("final", verdict.certificate)
            detail = (f"z* = {verdict.certificate.z_star:.6g}, "
                      f"winding {verdict.certificate.winding} ({health})")
        else:
            detail = (f"certification failed; floor {verdict.floor:.6g} at "
                      f"resolution {verdict.resolution:.6g} (basis window "
                      f"{window}, {health}, no automatic growth)")
    report.add_row(stage=3, step="certify", rho1_to_target=r1_result,
                   rho2_to_target=None, detail=detail)
    report.check("zero_certified", certified, detail)
    return report


def _run_nowhere_density_c2(config: ExperimentConfig) -> ExperimentReport:
    """Reinhardt-profile variant: place an annulus x disc product near the
    profile and certify on the annulus-factor slice."""
    report, G, member = _exhausted_start(config, mode="reinhardt")
    h, delta = config.h, float(config.delta)
    n_neg, n_pos = config.basis_window

    # place an annulus x disc product beyond the profile in r1: its profile
    # is the rectangle (r1_lo, 0) x (r1_lo + ring, r2_hi)
    R_d = 0.99 * delta / 8
    ring = R_d / 2
    if ring < 6 * h:
        raise ConfigError(f"delta {delta} under-resolves the annulus factor "
                          f"at h={h}")
    gap = delta / 16
    x_max = G.centers_x[np.nonzero(G.mask.any(axis=1))[0][-1]]
    r1_lo = x_max + gap
    r2_hi = R_d / 2
    factor_spec = reinhardt_profile(rectangle((r1_lo, 0.0),
                                              (r1_lo + ring, r2_hi)))
    Dprof = make_domain(factor_spec, h)
    report.add_row(stage=1, step="place", rho1_to_target=None,
                   rho2_to_target=None,
                   detail=f"product profile r1 in ({r1_lo:.4g}, "
                          f"{r1_lo + ring:.4g}), r2 below {r2_hi:.4g}")
    report.check("placed_factor_logconvex", is_logconvex_profile(Dprof),
                 "annulus x disc profile is log-convex")

    result = domain_union(member, Dprof)
    r1_result = rho1(result, G)
    report.add_row(stage=2, step="join", rho1_to_target=r1_result,
                   rho2_to_target=rho2(result, G), detail="disjoint union "
                   "(the C^2 construction needs no neck)")
    report.check("result_within_delta", r1_result < delta,
                 f"rho1 {r1_result:.6g} vs delta {delta:.6g}")

    # certify on the annulus-factor slice of the placed product
    model = kn.fit_kernel(Dprof, bs.reinhardt_window(-n_neg, n_pos, n_pos))
    depth_prof = distance_field(Dprof)
    flat = int(np.argmax(depth_prof))
    i0, j0 = np.unravel_index(flat, Dprof.mask.shape)
    z2 = Dprof.centers_y[j0]
    sl = model.slice_fixed_last(z2)
    w0 = complex(Dprof.centers_x[i0])
    verdict = zr.lu_qi_keng_verdict(
        sl, zr.ProbeConfig(w0_points=(w0,)))
    if verdict.certified:
        report.attach_certificate("final", verdict.certificate)
        detail = (f"slice z2 = {z2:.6g}: z* = {verdict.certificate.z_star:.6g}")
    else:
        detail = f"slice certification failed; floor {verdict.floor:.6g}"
    report.add_row(stage=3, step="certify", rho1_to_target=r1_result,
                   rho2_to_target=None, detail=detail)
    report.check("zero_certified", verdict.certified, detail)
    return report


# ---------------------------------------------------------------------------
# metric demo
# ---------------------------------------------------------------------------

def run_metric_demo(config: ExperimentConfig) -> ExperimentReport:
    """Contrast rho1 and rho2 on the canonical pairs: a slit disc (rho1 sees
    the slit, the volume term does not), a thin tail (rho2 stays small while
    rho1 jumps), and an identical pair."""
    h = config.h
    w = 0.05
    full = make_domain(disc(0, 1), h=h)
    # one cell row suffices to slit the disc; the removed volume is 2h
    slit = make_domain(difference(disc(0, 1), rectangle((-1, 0), (1, h))), h=h)
    sq = make_domain(rectangle((0, 0), (1, 1)), h=h)
    tailed = make_domain(union(rectangle((0, 0), (1, 1)),
                               rectangle((1, 0), (2, w))), h=h)

    report = ExperimentReport(
        experiment="metric-demo",
        metadata={"h": h, "seed": config.seed, "tail_width": w},
        columns=["pair", "rho1", "rho2", "hausdorff_closures",
                 "hausdorff_boundaries", "volume_term", "sup_term"])

    pairs = [("slit_disc_vs_disc", full, slit),
             ("tailed_square_vs_square", sq, tailed),
             ("identical_discs", full, full)]
    for name, U, V in pairs:
        cl, bd = rho1_parts(U, V)
        vol, sup = rho2_parts(U, V)
        report.add_row(pair=name, rho1=cl + bd, rho2=vol + sup,
                       hausdorff_closures=cl, hausdorff_boundaries=bd,
                       volume_term=vol, sup_term=sup)

    r = {row["pair"]: row for row in report.rows}
    report.check("slit_rho1_large", r["slit_disc_vs_disc"]["rho1"] >= 0.5,
                 f"rho1 {r['slit_disc_vs_disc']['rho1']:.6g}")
    report.check("slit_volume_small",
                 r["slit_disc_vs_disc"]["volume_term"] <= 0.05,
                 f"volume term {r['slit_disc_vs_disc']['volume_term']:.6g}")
    report.check("tail_rho2_small",
                 r["tailed_square_vs_square"]["rho2"] <= 0.2,
                 f"rho2 {r['tailed_square_vs_square']['rho2']:.6g}")
    report.check("tail_rho1_large",
                 r["tailed_square_vs_square"]["rho1"] >= 0.9,
                 f"rho1 {r['tailed_square_vs_square']['rho1']:.6g}")
    ident = r["identical_discs"]
    report.check("identical_pair_all_zero",
                 all(ident[c] == 0.0 for c in report.columns[1:]),
                 "all metric values vanish")
    return report


RUNNERS = {
    "exhaustion": run_exhaustion,
    "barbell": run_barbell,
    "nowhere-density": run_nowhere_density,
    "metric-demo": run_metric_demo,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    return RUNNERS[config.experiment](config)
