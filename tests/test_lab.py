"""Experiment drivers, configs, and report files."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blab import basis as bs
from blab import cli, lab
from blab import kernel as kn
from blab.geom import annulus, disc, make_domain, rectangle, reinhardt_profile
from blab.zeros import ZeroCertificate


def cfg_dict(**over):
    base = {
        "experiment": "metric-demo",
        "h": 0.02,
        "seed": 7,
        "out_dir": "unused",
    }
    base.update(over)
    return base


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected():
    with pytest.raises(lab.ConfigError, match="unknown config keys"):
        lab.config_from_dict(cfg_dict(mystery=1))


def test_missing_required_keys_rejected():
    with pytest.raises(lab.ConfigError, match="requires config key"):
        lab.config_from_dict({"experiment": "exhaustion", "h": 0.01})


def test_bad_experiment_tag_rejected():
    with pytest.raises(lab.ConfigError, match="unknown experiment"):
        lab.config_from_dict({"experiment": "volcano", "h": 0.01})


def test_schedule_must_decrease():
    with pytest.raises(lab.ConfigError, match="strictly decreasing"):
        lab.config_from_dict({
            "experiment": "exhaustion", "h": 0.02,
            "shapes": {"target": disc(0, 1)},
            "basis_window": [0, 6], "depths": [0.1, 0.2]})


def test_delta_resolution_guard():
    with pytest.raises(lab.ConfigError, match="8h"):
        lab.config_from_dict({
            "experiment": "nowhere-density", "h": 0.05,
            "shapes": {"target": disc(0, 1)},
            "basis_window": [6, 6], "delta": 0.3})


_EXHAUSTION = {"experiment": "exhaustion", "h": 0.05,
               "shapes": {"target": disc(0, 1)},
               "basis_window": [0, 4], "depths": [0.3, 0.2]}


@pytest.mark.parametrize("over, match", [
    ({"h": True}, "type bool"),
    ({"seed": True}, "type bool"),
    ({"experiment": "nowhere-density", "delta": True}, "type bool"),
    ({"basis_window": [0.7, 10.9]}, "two integers"),
    ({"basis_window": ["a", 10]}, "two integers"),
    ({"basis_window": [0, True]}, "two integers"),
    ({"h": float("nan")}, "positive and finite"),
    ({"h": float("inf")}, "positive and finite"),
    ({"depths": ["x"]}, "needs numbers"),
    ({"depths": [float("nan")]}, "positive"),
    ({"experiment": "nowhere-density", "delta": float("nan")}, "8h"),
    ({"experiment": "barbell", "widths": [0.4], "segment": [["a", 0], [1, 0]]},
     "needs numbers"),
    ({"experiment": "barbell", "widths": [0.4], "segment": [1, 2]},
     r"\[\[x, y\], \[x, y\]\]"),
    ({"shapes": {}}, "requires shape 'target'"),
    ({"experiment": "barbell", "widths": [0.4],
      "shapes": {"left": disc(-2, 1)}}, "requires shape 'right'"),
    ({"shapes": {"target": 5}}, "a shape spec is an object"),
    ({"shapes": {"target": {"shape": "disc", "center": [0, 0]}}},
     "needs key 'r'"),
    ({"shapes": {"target": {"shape": "disc", "center": [0, 0, 0], "r": 1}}},
     "'center' is malformed"),
    ({"shapes": {"target": {"shape": "union", "parts": []}}},
     "'parts' is malformed"),
    ({"depths": []}, "depths must not be empty"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"shapes": {"target": {"shape": "disc", "center": [0, 0], "r": -1}}},
     "disc radius must be positive"),
    ({"shapes": {"target": {"shape": "annulus", "center": [0, 0],
                            "rho": 2, "R": 1}}}, "0 < rho < R"),
    ({"shapes": {"target": {"shape": "disc", "center": [0, 0],
                            "r": float("inf")}}}, "'r' is malformed"),
    ({"shapes": {"target": {"shape": "disc", "center": [0, 0],
                            "r": float("nan")}}}, "'r' is malformed"),
    ({"shapes": {"target": {"shape": "rectangle",
                            "corners": [[0, 0], [float("inf"), 1]]}}},
     "'corners' is malformed"),
    ({"shapes": {"target": {"shape": "disc", "center": [0, 0],
                            "r": 10 ** 400}}}, "'r' is malformed"),
    # keys and shapes the experiment never reads
    ({"experiment": "barbell", "widths": [0.4], "delta": 0.5,
      "shapes": {"left": disc(-2, 1), "right": annulus(2, 0.5, 1)}},
     "does not read delta, depths$"),
    ({"experiment": "metric-demo", "widths": [0.4],
      "shapes": {"target": {"shape": "disc", "center": [0, 0], "r": -1}}},
     "does not read basis_window, depths, shapes, widths$"),
    ({"segment": [[0, 0], [1, 0]], "connected": False,
      "shapes": {"target": disc(0, 1), "extra": {"shape": "nonsense"}}},
     "does not read connected, segment, shape 'extra'$"),
    ({"shapes": {"target": disc(0, 1), "extra": {"shape": "nonsense"}}},
     "does not read shape 'extra'$"),
])
def test_malformed_values_rejected_with_exit_3(tmp_path, capsys, over, match):
    raw = dict(_EXHAUSTION, **over)
    with pytest.raises(lab.ConfigError, match=match):
        lab.config_from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["experiment", str(path)]) == 3
    assert "invalid config" in capsys.readouterr().err


def test_config_round_trip_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "exhaustion", "h": 0.05,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [0, 4], "depths": [0.3, 0.2],
        "seed": 3, "out_dir": "x"}))
    cfg = lab.load_config(path)
    assert cfg.experiment == "exhaustion"
    assert cfg.depths == (0.3, 0.2)
    assert cfg.basis_window == (0, 4)


# ---------------------------------------------------------------------------
# metric demo
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def metric_report():
    cfg = lab.config_from_dict({"experiment": "metric-demo", "h": 0.01})
    return lab.run_metric_demo(cfg)


def test_metric_demo_passes(metric_report):
    assert metric_report.passed, metric_report.assertions


def test_metric_demo_rows(metric_report):
    rows = {r["pair"]: r for r in metric_report.rows}
    assert rows["slit_disc_vs_disc"]["rho1"] >= 0.5
    assert rows["slit_disc_vs_disc"]["volume_term"] <= 0.05
    assert rows["tailed_square_vs_square"]["rho2"] <= 0.2
    assert rows["tailed_square_vs_square"]["rho1"] >= 0.9
    ident = rows["identical_discs"]
    assert ident["rho1"] == ident["rho2"] == 0.0


def test_report_files_and_reproducibility(tmp_path, metric_report):
    a = tmp_path / "a"
    b = tmp_path / "b"
    csv1, json1 = metric_report.write(a)
    cfg = lab.config_from_dict({"experiment": "metric-demo", "h": 0.01})
    again = lab.run_metric_demo(cfg)
    csv2, json2 = again.write(b)
    assert csv1.read_bytes() == csv2.read_bytes()
    assert json1.read_bytes() == json2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header.split(",") == metric_report.columns


# ---------------------------------------------------------------------------
# exhaustion
# ---------------------------------------------------------------------------

def test_exhaustion_disc_single_stage():
    cfg = lab.config_from_dict({
        "experiment": "exhaustion", "h": 0.02,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [0, 6], "depths": [0.2]})
    report = lab.run_exhaustion(cfg)
    assert len(report.rows) == 1
    assert report.passed
    row = report.rows[0]
    assert row["rho1_to_target"] <= 2 * 0.2 + 4 * 0.02
    assert row["kernel_error"] > 0


@pytest.mark.slow
def test_exhaustion_annulus_certifies_each_stage():
    cfg = lab.config_from_dict({
        "experiment": "exhaustion", "h": 0.01,
        "shapes": {"target": annulus(0, 0.5, 1)},
        "basis_window": [10, 10], "depths": [0.1, 0.05]})
    report = lab.run_exhaustion(cfg)
    assert report.passed, report.assertions
    assert all(r["certified"] for r in report.rows)
    assert set(report.certificates) == {"0", "1"}
    for cert in report.certificates.values():
        cert.validate()


@pytest.fixture
def reference_calls(monkeypatch):
    """The closed forms whose eval_many ran, one entry per call; blocks of
    at most 64 probe pairs make every run take several."""
    monkeypatch.setattr(kn, "PROBE_PAIRS", 64)
    calls = []
    for cls in (kn.DiscKernel, kn.AnnulusKernel):
        def counted(self, zs, w, real=cls.eval_many):
            calls.append(self)
            return real(self, zs, w)
        monkeypatch.setattr(cls, "eval_many", counted)
    return calls


def _reference_chunks(domain, margin):
    """z blocks of one kernel_error call: one reference call each."""
    cells = kn.compact_cells(domain, margin)
    n_z = kn._probe_centers_dense_enough(domain, cells, kn.Z_STRIDE).size
    n_w = kn._probe_centers_dense_enough(domain, cells, kn.W_STRIDE).size
    return math.ceil(n_z / max(1, kn.PROBE_PAIRS // n_w))


@pytest.mark.parametrize("depths", [[0.2], [0.2, 0.15, 0.1]])
@pytest.mark.parametrize("target", [disc(0, 1), annulus(0, 0.3, 1.2)])
def test_exhaustion_run_evaluates_reference_once(reference_calls, target,
                                                 depths):
    cfg = lab.config_from_dict({
        "experiment": "exhaustion", "h": 0.04, "seed": 3,
        "shapes": {"target": target}, "basis_window": [8, 8],
        "depths": depths})
    lab.run_exhaustion(cfg)
    chunks = _reference_chunks(make_domain(target, 0.04), 1.5 * max(depths))
    assert chunks > 1
    assert len(reference_calls) == chunks
    assert len({id(k) for k in reference_calls}) == 1


@pytest.mark.parametrize("widths", [[0.4], [0.4, 0.2, 0.1]])
def test_barbell_run_evaluates_reference_once(reference_calls, widths):
    right = annulus(2, 0.5, 1)
    cfg = lab.config_from_dict({
        "experiment": "barbell", "h": 0.02,
        "shapes": {"left": disc(-2, 1), "right": right},
        "basis_window": [8, 8], "widths": widths})
    lab.run_barbell(cfg)
    chunks = _reference_chunks(make_domain(right, 0.02), 0.2 * 0.5)
    assert chunks > 1
    assert len(reference_calls) == chunks
    assert len({id(k) for k in reference_calls}) == 1


SEQUENCE_RUNS = {
    "exhaustion": {
        "experiment": "exhaustion", "h": 0.04,
        "shapes": {"target": annulus(0, 0.3, 1.2)},
        "basis_window": [8, 8], "depths": [0.2, 0.1]},
    "barbell": {
        "experiment": "barbell", "h": 0.02,
        "shapes": {"left": disc(-2, 1), "right": annulus(2, 0.5, 1)},
        "basis_window": [8, 8], "widths": [0.4, 0.2]},
    # the shipped connected run: one exhaustion member, one joined result
    "nowhere-density": {
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [8, 10], "delta": 0.5, "connected": True},
}


def _sequences(monkeypatch):
    """Record the domain sequence of every exhaustion and barbell run."""
    seqs = []
    for name in ("interior_exhaustion", "barbell_sequence"):
        def spy(*args, real=getattr(lab, name)):
            seqs.append(real(*args))
            return seqs[-1]
        monkeypatch.setattr(lab, name, spy)
    return seqs


@pytest.mark.parametrize("experiment", ["exhaustion", "barbell"])
def test_kernel_rows_report_terms_and_conditioning(monkeypatch, experiment):
    # each row names its member's term count and Gram conditioning; fits
    # are matched to rows by member, since a barbell fits its thinnest
    # member first
    domains = []
    conds = _fit_conditionings(monkeypatch, domains)
    seqs = _sequences(monkeypatch)
    report = lab.run_experiment(
        lab.config_from_dict(SEQUENCE_RUNS[experiment]))
    fitted = [id(U) for U in domains]
    by_member = [conds[fitted.index(id(m))] for m in seqs[0].members]
    assert len(conds) == len(report.rows)
    assert [r["conditioning"] for r in report.rows] == by_member
    assert all(r["n_terms"] == 17 for r in report.rows)
    assert all(c >= 1 for c in conds)


@pytest.mark.parametrize("experiment", ["exhaustion", "barbell",
                                        "nowhere-density"])
def test_stage_members_cache_no_node_array(monkeypatch, experiment):
    # a member's quadrature nodes are built for its fit and then dropped;
    # none stays cached on the member
    seqs = _sequences(monkeypatch)
    lab.run_experiment(lab.config_from_dict(SEQUENCE_RUNS[experiment]))
    members = [m for seq in seqs for m in seq.members]
    assert len(members) == 2
    for member in members:
        assert not any(isinstance(v, np.ndarray) and v.dtype == complex
                       for v in vars(member).values())
        assert "quadrature" not in vars(member)


# ---------------------------------------------------------------------------
# barbell
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_barbell_experiment_small():
    cfg = lab.config_from_dict({
        "experiment": "barbell", "h": 0.02,
        "shapes": {"left": disc(-2, 1), "right": annulus(2, 0.5, 1)},
        "basis_window": [10, 10], "widths": [0.4, 0.1]})
    report = lab.run_barbell(cfg)
    rows = report.rows
    assert rows[0]["rho2_to_union"] > rows[1]["rho2_to_union"]
    assert report.metadata["segment"] == [[-1.0, 0.0], [1.0, 0.0]]
    assert any(r["certified"] for r in rows)
    assert report.passed, report.assertions
    # the fixed-contour count at the anchored zero stays >= 1 once acquired
    assert rows[-1]["track_winding"] >= 1
    anchor = report.metadata["anchor_zero"]
    assert abs(complex(*anchor) - 2) < 1.0  # anchored in the annulus lobe


def test_barbell_requires_annulus_right():
    cfg = lab.config_from_dict({
        "experiment": "barbell", "h": 0.02,
        "shapes": {"left": disc(-2, 1), "right": disc(2, 1)},
        "basis_window": [8, 8], "widths": [0.3]})
    with pytest.raises(lab.ConfigError, match="annulus"):
        lab.run_barbell(cfg)


# ---------------------------------------------------------------------------
# nowhere-density
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_nowhere_density_disconnected_mode():
    cfg = lab.config_from_dict({
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [8, 10], "delta": 0.5, "connected": False})
    report = lab.run_nowhere_density(cfg)
    assert report.passed, report.assertions
    assert report.rows[2]["rho1_to_target"] < 0.5
    cert = report.certificates["final"]
    cert.validate()


L_TARGET = {"shape": "union", "parts": [rectangle((0, 0), (2, 1)),
                                        rectangle((0, 0), (1, 2))]}


def _fit_conditionings(monkeypatch, domains=None):
    """Record the Gram conditioning of every kernel fit, and its domain in
    domains when given."""
    conds = []

    def spy(U, basis, inner=None, real=kn.fit_kernel):
        model = real(U, basis, inner=inner)
        conds.append(model.gram.conditioning)
        if domains is not None:
            domains.append(U)
        return model
    monkeypatch.setattr(kn, "fit_kernel", spy)
    return conds


@pytest.mark.parametrize("target, h, delta", [
    (L_TARGET, 0.004, 0.5),
    (rectangle((0, 0), (1, 1)), 0.004, 0.5),
    (rectangle((-1, -0.5), (1, 0.5)), 0.004, 0.5),
    pytest.param(disc(0, 1), 0.001, 0.125, marks=pytest.mark.slow),
], ids=["L", "square", "rectangle", "disc-delta-0.125"])
def test_nowhere_density_certifies_at_bounded_conditioning(monkeypatch, target,
                                                           h, delta):
    # the lobe-side poles fit and certify each input at a bounded
    # conditioning (the degree ladder they replace failed all four)
    conds = _fit_conditionings(monkeypatch)
    cfg = lab.config_from_dict({
        "experiment": "nowhere-density", "h": h,
        "shapes": {"target": target},
        "basis_window": [8, 10], "delta": delta})
    report = lab.run_nowhere_density(cfg)
    assert report.passed, report.assertions
    assert len(conds) == 1 and conds[0] < 1e6
    report.certificates["final"].validate()
    assert f"31 terms, conditioning {conds[0]:.3g}" in report.rows[-1]["detail"]


def test_nowhere_density_failed_fit_writes_a_report(tmp_path, monkeypatch):
    # a numerically dependent basis (every Gram entry made equal, so the
    # Gram has rank one) fails the stage-4 fit; the run reports a failed
    # certification instead of raising
    def rank_one(gram, real=bs.factorize):
        return real(bs.GramMatrix(matrix=np.ones_like(gram.matrix),
                                  conditioning=math.inf))
    monkeypatch.setattr(bs, "factorize", rank_one)
    path = tmp_path / "l.json"
    path.write_text(json.dumps({
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": L_TARGET}, "basis_window": [8, 10], "delta": 0.5,
        "connected": True, "seed": 3}))
    out = tmp_path / "out"
    assert cli.main(["zeros", str(path), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    checks = {a["name"]: a for a in summary["assertions"]}
    assert not checks["zero_certified"]["passed"]
    assert "FactorizationError" in checks["zero_certified"]["detail"]
    assert "numerically dependent on the domain" in \
        checks["zero_certified"]["detail"]
    assert "basis window (8, 10)" in checks["zero_certified"]["detail"]
    assert all(a["passed"] for name, a in checks.items()
               if name != "zero_certified")
    assert summary["certificates"] == {}
    assert summary["rows"][-1]["step"] == "certify"


def _fit_heavy_nowhere_density(seed):
    """The nowhere-density configs of one benchmark fit-heavy cycle, read
    from perfbench/workloads.py (standard library only, never changed)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [raw for inp in workloads.generate("fit-heavy", seed)
            for raw in inp["configs"] if raw["experiment"] == "nowhere-density"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_heavy_nowhere_density_inputs_certify(monkeypatch, seed):
    # every nowhere-density input of a benchmark fit-heavy cycle certifies,
    # each from one fit at a bounded conditioning
    conds = _fit_conditionings(monkeypatch)
    configs = _fit_heavy_nowhere_density(seed)
    assert configs
    for raw in configs:
        report = lab.run_nowhere_density(lab.config_from_dict(raw))
        assert report.passed, report.assertions
    assert len(conds) == len(configs) and max(conds) < 1e6


def test_nowhere_density_under_resolved_delta():
    cfg = lab.config_from_dict({
        "experiment": "nowhere-density", "h": 0.02,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [6, 6], "delta": 0.4})
    with pytest.raises(lab.ConfigError, match="under-resolve"):
        lab.run_nowhere_density(cfg)


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["disc_exhaustion", "annulus_exhaustion",
                                  "barbell", "nowhere_density",
                                  "nowhere_density_c2", "metric_demo"])
def test_shipped_report_bytes_reproduce_across_runs_and_threads(tmp_path,
                                                                name):
    # two runs in this process and one in a fresh process on two BLAS
    # threads write the same summary.json, byte for byte
    root = Path(__file__).resolve().parent.parent
    config = root / "configs" / f"{name}.json"
    for run in ("a", "b"):
        report = lab.run_experiment(lab.load_config(config))
        report.write(tmp_path / run)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "blab.cli", "experiment", str(config),
         "--out", str(tmp_path / "c")], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    a, b, c = ((tmp_path / run / "summary.json").read_bytes()
               for run in ("a", "b", "c"))
    assert a == b == c


def test_certificates_embedded_are_valid(metric_report):
    # metric demo embeds none; a synthetic certificate must validate to attach
    report = lab.ExperimentReport(experiment="metric-demo", metadata={},
                                  columns=["stage"])
    bad = ZeroCertificate(w0=0, contour=(1 + 0j,), winding=0,
                          min_modulus_on_contour=1.0, z_star=0.5, eval_error=0)
    with pytest.raises(Exception):
        report.attach_certificate("x", bad)


@pytest.mark.slow
def test_nowhere_density_reinhardt_mode():
    cfg = lab.config_from_dict({
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": reinhardt_profile(rectangle((0, 0), (1, 1)))},
        "basis_window": [8, 8], "delta": 0.5, "connected": False})
    report = lab.run_nowhere_density(cfg)
    assert report.metadata["mode"] == "reinhardt"
    assert report.passed, report.assertions
    cert = report.certificates["final"]
    cert.validate()


@pytest.mark.slow
def test_barbell_single_width_report_well_formed():
    cfg = lab.config_from_dict({
        "experiment": "barbell", "h": 0.02,
        "shapes": {"left": disc(-2, 1), "right": annulus(2, 0.5, 1)},
        "basis_window": [10, 10], "widths": [0.4]})
    report = lab.run_barbell(cfg)
    assert len(report.rows) == 1
    assert {a["name"] for a in report.assertions} >= {"rho2_strictly_decreasing"}
