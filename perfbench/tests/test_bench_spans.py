"""Span arithmetic and outside-in wrapper rebinding, on toy modules."""

import types

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def record(tree, rec, clock):
    """Replay a nested (name, own_seconds, children) tree of spans."""
    name, own, children = tree
    with rec.span(name):
        clock.t += own
        for child in children:
            record(child, rec, clock)


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    record(("op", 1.0, [("lab.run", 2.0, [("kernel.fit", 3.0, [("basis.gram", 4.0, [])]),
                                          ("geom.rho1", 5.0, [])])]), rec, clock)
    by_name = {s.name: s for s in rec.spans}
    own = spans.self_times(rec.spans)
    assert by_name["op"].seconds == 15.0
    assert own[by_name["op"].sid] == 1.0
    assert own[by_name["lab.run"].sid] == 2.0
    assert own[by_name["kernel.fit"].sid] == 3.0
    assert own[by_name["basis.gram"].sid] == 4.0
    layers = spans.self_time_by(rec.spans, lambda s: s.layer)
    assert layers == {"op": 1.0, "lab": 2.0, "kernel": 3.0, "basis": 4.0,
                      "geom": 5.0}
    # op self and experiment-run self are the uncovered part: 3 of 15 seconds
    assert spans.coverage(rec.spans) == pytest.approx(12.0 / 15.0)


def test_outermost_counts_recursion_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    record(("op", 0.0, [("kernel.closed_form", 1.0,
                         [("geom.make_domain", 1.0, []),
                          ("kernel.closed_form", 2.0, [])])]), rec, clock)
    names = [s.name for s in spans.outermost(rec.spans)]
    assert names == ["op", "kernel.closed_form", "geom.make_domain"]


def make_toy():
    """home defines f; user binds it by name, as `from home import f` does."""
    home = types.ModuleType("home")

    def f(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x
    home.f = f

    def g(x):
        return home.f(x) + 1   # late-bound through the home module
    home.g = g
    user = types.ModuleType("user")
    user.f = f
    user.alias = f
    return home, user, f


def test_wrapper_rebinds_every_module_binding_and_restores():
    home, user, f = make_toy()
    rec = spans.Recorder()
    counted = []
    target = spans.Target(home, "f", "toy.f",
                          lambda r, args, kwargs, out: counted.append(out),
                          ValueError, "toy.f.errors")
    with spans.Patch(rec, [target], [home, user]):
        assert home.f is not f and user.f is home.f and user.alias is home.f
        assert user.f(2) == 4 and user.alias(3) == 6 and home.g(1) == 3
        with pytest.raises(ValueError):
            user.f(-1)
    assert home.f is f and user.f is f and user.alias is f
    assert [s.name for s in rec.spans] == ["toy.f"] * 4
    assert counted == [4, 6, 2]
    assert rec.counters == {"toy.f.errors": 1}
    assert all(s.end >= s.start for s in rec.spans)


def test_methods_are_wrapped_on_the_class():
    class Model:
        def eval_many(self, zs):
            return [z * 2 for z in zs]
    rec = spans.Recorder()
    original = Model.__dict__["eval_many"]
    with spans.Patch(rec, [spans.Target(Model, "eval_many", "kernel.eval_many")], []):
        assert Model().eval_many([1, 2]) == [2, 4]
    assert Model.__dict__["eval_many"] is original
    assert [s.name for s in rec.spans] == ["kernel.eval_many"]


def test_unbound_target_is_an_error_and_leaves_nothing_patched():
    home, user, f = make_toy()
    other = types.ModuleType("other")
    other.h = lambda: None
    targets = [spans.Target(home, "f", "toy.f"), spans.Target(other, "h", "toy.h")]
    with pytest.raises(LookupError):
        with spans.Patch(spans.Recorder(), targets, [home, user]):
            pass
    assert home.f is f and user.f is f


def test_benchmark_json_names_only_computed_metrics():
    import json
    from pathlib import Path

    import layers
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    rec = spans.Recorder()
    with rec.span(spans.OP):
        pass
    computed = layers.per_layer(rec, overhead_share=0.0)
    assert {m["name"] for m in spec["per_layer"]} <= set(computed)
