"""Seeded inputs of the four benchmark workloads.

Every input is plain data: a list of experiment config dicts for
``lab.config_from_dict``, or, in ``zero-search``, a list of
``lu_qi_keng_verdict`` calls, each a model spec fitted during set-up plus a
probe seed.  The same seed always gives the same inputs; only the standard
library is used here, so generation does not depend on the numpy version.

Seeded variation: shape centers move by up to 0.05 in each coordinate,
radii and extents scale by up to 5% (stratified, see ``_strata``), and each
config gets a fresh seed.  metric-demo has no shapes and runs at a fixed h:
its cost jumps with the grid size, so varying h made run medians depend on
which spacings a seed drew.

A schedule lists one cycle of inputs; ops run through it in order and
repeat it.  Op times cluster by input kind, and a percentile that falls
between two clusters, or inside a cluster with a gap, jumps from run to
run.  In ``probe-eval``, ``geometry`` and ``zero-search`` one op is
therefore a round of one input of each kind, so op times form a single
cluster.  A ``fit-heavy`` round would take over a second, too long for a
tail percentile, so there each op is one experiment: the primary kind
fills two thirds of the cycle and a clearly faster secondary kind the
rest, and the median and the tail both fall inside the primary cluster.
"""

from __future__ import annotations

import copy
import random

# BENCHMARK.json measures fit-heavy and probe-eval.  geometry and
# zero-search run on request: their run medians follow host load further
# than the benchmark's bounds allow (see PROTOCOL.md).
WORKLOADS = ("fit-heavy", "probe-eval", "geometry", "zero-search")

# variants of each input kind per schedule cycle (twice that for
# fit-heavy's primary)
VARIANTS = 6
# config workloads whose op is a round of one secondary and one primary input
ROUNDS = ("probe-eval", "geometry")

# Base configs follow configs/*.json.  Some run at a smaller size than the
# shipped config, so that one run holds enough ops for a tail percentile:
# nowhere_density at target radius 0.7 (1.0 shipped), barbell at h = 0.02
# (0.01), disc_exhaustion at h = 0.007 (0.005).  Each keeps the layer mix
# its workload was chosen for.
_BASE = {
    "nowhere_density": {
        "experiment": "nowhere-density",
        "shapes": {"target": {"shape": "disc", "center": [0.0, 0.0], "r": 0.7}},
        "h": 0.004, "basis_window": [8, 10], "delta": 0.5, "connected": True,
    },
    "barbell": {
        "experiment": "barbell",
        "shapes": {
            "left": {"shape": "disc", "center": [-2.0, 0.0], "r": 1.0},
            "right": {"shape": "annulus", "center": [2.0, 0.0],
                      "rho": 0.5, "R": 1.0},
        },
        "h": 0.02, "basis_window": [10, 10], "widths": [0.4, 0.2, 0.1, 0.06],
    },
    "disc_exhaustion": {
        "experiment": "exhaustion",
        "shapes": {"target": {"shape": "disc", "center": [0.0, 0.0], "r": 1.0}},
        "h": 0.007, "basis_window": [0, 10], "depths": [0.2, 0.1, 0.05],
    },
    "annulus_exhaustion": {
        "experiment": "exhaustion",
        "shapes": {"target": {"shape": "annulus", "center": [0.0, 0.0],
                              "rho": 0.5, "R": 1.0}},
        "h": 0.01, "basis_window": [10, 10], "depths": [0.1, 0.05],
        "certify": True,
    },
    "nowhere_density_c2": {
        "experiment": "nowhere-density",
        "shapes": {"target": {"shape": "reinhardt-profile",
                              "region": {"shape": "rectangle",
                                         "corners": [[0.0, 0.0], [1.0, 1.0]]}}},
        "h": 0.004, "basis_window": [8, 8], "delta": 0.5, "connected": False,
    },
    "metric_demo": {"experiment": "metric-demo", "h": 0.0025},
}

# (primary, secondary) input kinds per config workload
_KINDS = {
    "fit-heavy": ("nowhere_density", "barbell"),
    "probe-eval": ("disc_exhaustion", "annulus_exhaustion"),
    "geometry": ("metric_demo", "nowhere_density_c2"),
}

# zero-search models: (shape spec, basis window, expected verdict status),
# each fitted in ZERO_VARIANTS variants during set-up; round v of the cycle
# runs one verdict on variant v of each
ZERO_H = 0.005
ZERO_VARIANTS = 6
_MODELS = {
    "annulus": ({"shape": "annulus", "center": [0.0, 0.0], "rho": 0.5, "R": 1.0},
                [10, 10], "zero-certified"),
    "disc": ({"shape": "disc", "center": [0.0, 0.0], "r": 1.0},
             [0, 10], "no-zero-found"),
    "square": ({"shape": "rectangle", "corners": [[0.0, 0.0], [1.0, 1.0]]},
               [0, 10], "no-zero-found"),
}


def _jitter_point(rng: random.Random, p: list) -> list:
    return [p[0] + rng.uniform(-0.05, 0.05), p[1] + rng.uniform(-0.05, 0.05)]


def _strata(rng: random.Random, k: int, spread: float) -> list[float]:
    """k scale factors in [1 - spread, 1 + spread], one drawn from each of k
    equal strata, in shuffled order.  Every run then covers the whole range
    of sizes evenly, so run medians do not hinge on which sizes the seed
    happened to draw."""
    out = [1 - spread + 2 * spread * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(out)
    return out


def _variants(rng: random.Random, spec: dict, k: int) -> list[dict]:
    """k seeded variants of a shape spec: centers move by up to 0.05 in each
    coordinate and every radius or extent scales by a stratified factor
    within 5%.  A reinhardt profile stays anchored at the axes, so only its
    extent varies."""
    out = [copy.deepcopy(spec) for _ in range(k)]
    kind = spec["shape"]
    if kind in ("disc", "annulus"):
        scales = {key: _strata(rng, k, 0.05) for key in ("r", "rho", "R")
                  if key in spec}
        for v, s in enumerate(out):
            s["center"] = _jitter_point(rng, s["center"])
            for key, f in scales.items():
                s[key] *= f[v]
    elif kind == "rectangle":
        fx, fy = _strata(rng, k, 0.05), _strata(rng, k, 0.05)
        (x0, y0), (x1, y1) = spec["corners"]
        for v, s in enumerate(out):
            cx, cy = _jitter_point(rng, [(x0 + x1) / 2, (y0 + y1) / 2])
            hx, hy = (x1 - x0) / 2 * fx[v], (y1 - y0) / 2 * fy[v]
            s["corners"] = [[cx - hx, cy - hy], [cx + hx, cy + hy]]
    elif kind == "reinhardt-profile":
        fx, fy = _strata(rng, k, 0.05), _strata(rng, k, 0.05)
        (x0, y0), (x1, y1) = spec["region"]["corners"]
        for v, s in enumerate(out):
            s["region"]["corners"] = [[x0, y0], [x1 * fx[v], y1 * fy[v]]]
    return out


def _configs(rng: random.Random, kind: str, k: int) -> list[dict]:
    """k seeded variants of a base config, each with a fresh config seed."""
    base = _BASE[kind]
    out = [copy.deepcopy(base) for _ in range(k)]
    for name, spec in base.get("shapes", {}).items():
        for raw, shape in zip(out, _variants(rng, spec, k)):
            raw["shapes"][name] = shape
    for raw in out:
        raw["seed"] = rng.randrange(1, 2 ** 31)
    return out


def generate(workload: str, seed: int) -> list[dict]:
    """One schedule cycle of inputs for the workload, from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{WORKLOADS}")
    rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
    if workload == "zero-search":
        models = {name: _variants(rng, spec, ZERO_VARIANTS)
                  for name, (spec, _, _) in _MODELS.items()}
        cycle = []
        for v in range(ZERO_VARIANTS):
            verdicts = [{"model_id": f"{name}-{v}", "model": models[name][v],
                         "window": window, "h": ZERO_H, "expect": expect,
                         "probe_seed": rng.randrange(1, 2 ** 31)}
                        for name, (_, window, expect) in _MODELS.items()]
            cycle.append({"id": f"round-{v}", "verdicts": verdicts})
        return cycle
    primary, secondary = _KINDS[workload]
    secondaries = _configs(rng, secondary, VARIANTS)
    if workload in ROUNDS:
        primaries = _configs(rng, primary, VARIANTS)
        return [{"id": f"round-{v}", "configs": [secondaries[v], primaries[v]]}
                for v in range(VARIANTS)]
    primaries = _configs(rng, primary, 2 * VARIANTS)
    cycle = []
    for v in range(VARIANTS):
        # the secondary leads so that op 0, the one replayed across thread
        # counts, is the cheaper kind
        cycle.append({"id": f"{secondary}-{v}", "configs": [secondaries[v]]})
        for k in (2 * v, 2 * v + 1):
            cycle.append({"id": f"{primary}-{k}", "configs": [primaries[k]]})
    return cycle
