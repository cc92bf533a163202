"""The seeded input generator: deterministic, valid, and within its ranges."""

import json

import pytest

import workloads
from blab import geom, lab


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    b = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    c = json.dumps(workloads.generate(workload, 8), sort_keys=True)
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_are_accepted(workload, seed):
    cycle = workloads.generate(workload, seed)
    assert len({inp["id"] for inp in cycle}) == len(cycle)
    for inp in cycle:
        if "configs" in inp:
            for raw in inp["configs"]:
                lab.config_from_dict(raw)
        else:
            assert len(inp["verdicts"]) == len(workloads._MODELS)
            for v in inp["verdicts"]:
                assert geom.make_domain(v["model"], v["h"]).cell_count > 0


def test_first_input_is_the_secondary_kind():
    # op 0 is replayed in a subprocess, so it should be the cheaper kind
    for workload, (_, secondary) in workloads._KINDS.items():
        if workload not in workloads.ROUNDS:
            assert workloads.generate(workload, 1)[0]["id"].startswith(secondary)


@pytest.mark.parametrize("workload", workloads.ROUNDS)
def test_rounds_hold_one_input_of_each_kind(workload):
    primary, secondary = workloads._KINDS[workload]
    for inp in workloads.generate(workload, 1):
        experiments = [raw["experiment"] for raw in inp["configs"]]
        assert experiments == [workloads._BASE[secondary]["experiment"],
                               workloads._BASE[primary]["experiment"]]


def test_strata_cover_the_range_evenly():
    import random
    k = 8
    f = sorted(workloads._strata(random.Random(3), k, 0.05))
    for i, v in enumerate(f):
        lo = 0.95 + 0.1 * i / k
        assert lo <= v <= lo + 0.1 / k


def test_variants_stay_within_the_stated_variation():
    import random
    spec = {"shape": "annulus", "center": [1.0, -1.0], "rho": 0.5, "R": 1.0}
    for v in workloads._variants(random.Random(5), spec, 6):
        assert abs(v["center"][0] - 1.0) <= 0.05
        assert abs(v["center"][1] + 1.0) <= 0.05
        assert 0.475 <= v["rho"] <= 0.525
        assert 0.95 <= v["R"] <= 1.05
