"""The blab command line: configs in, reports out, exit codes."""

import dataclasses
import json

import pytest

from blab.cli import main
from blab.geom import disc, rectangle, reinhardt_profile


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_metric_subcommand_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02})
    code = main(["metric", cfg, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] slit_rho1_large" in out
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_kernel_subcommand_runs_exhaustion(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "experiment": "exhaustion", "h": 0.02,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [0, 6], "depths": [0.2]})
    code = main(["kernel", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["experiment"] == "exhaustion"
    assert len(summary["rows"]) == 1


def test_overrides_take_effect(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.05,
                               "seed": 1, "out_dir": str(tmp_path / "ignored")})
    out = tmp_path / "forced"
    code = main(["metric", cfg, "--h", "0.02", "--seed", "9", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metadata"]["h"] == 0.02
    assert summary["metadata"]["seed"] == 9
    assert "threads" not in summary["metadata"]


def test_threads_flag_and_key_rejected(tmp_path, capsys):
    # results do not depend on the BLAS thread count, so there is no thread
    # budget to record: the flag and the config key are both unknown
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02})
    with pytest.raises(SystemExit) as exc:
        main(["metric", cfg, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02,
                               "threads": 2}, name="threads.json")
    assert main(["metric", cfg]) == 3
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


def test_invalid_config_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02,
                               "surprise": 1})
    assert main(["metric", cfg]) == 3
    assert "unknown config keys" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02},
                    name="valid.json")
    assert main(["metric", cfg, "--seed", "-1"]) == 3
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_malformed_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["metric", str(path)]) == 3


def test_non_utf8_config_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"experiment": "metric-demo", "h": 0.02\xff}')
    assert main(["metric", str(path)]) == 3
    assert "invalid config" in capsys.readouterr().err


def test_connected_reinhardt_config_exits_3(tmp_path, capsys):
    # a neck on a C^2 target is a key the run could not honor
    cfg = write_cfg(tmp_path, {
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": reinhardt_profile(rectangle((0, 0), (1, 1)))},
        "basis_window": [8, 8], "delta": 0.5, "connected": True})
    assert main(["zeros", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "'connected': true cannot be honored" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_wrong_tag_for_subcommand_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02})
    assert main(["kernel", cfg]) == 3
    assert "accepts experiments" in capsys.readouterr().err


def test_runtime_config_error_exits_3(tmp_path):
    # passes static validation (delta > 8h) but under-resolves the annulus
    cfg = write_cfg(tmp_path, {
        "experiment": "nowhere-density", "h": 0.02,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [6, 6], "delta": 0.4})
    assert main(["zeros", cfg, "--out", str(tmp_path / "out")]) == 3


def test_assertion_failure_exits_2(tmp_path, monkeypatch):
    import blab.lab as lab_mod

    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02})

    real = lab_mod.run_metric_demo

    def sabotaged(config):
        report = real(config)
        report.check("forced_failure", False, "injected for the exit-code test")
        return report

    monkeypatch.setitem(lab_mod.EXPERIMENTS, "metric-demo", dataclasses.replace(
        lab_mod.EXPERIMENTS["metric-demo"], run=sabotaged))
    assert main(["metric", cfg, "--out", str(tmp_path / "out")]) == 2


def test_csv_floats_have_12_significant_digits(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02})
    out = tmp_path / "out"
    assert main(["metric", cfg, "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()
    slit = rows[1].split(",")
    # rho1 of the slit pair carries full 12 significant digits
    assert len(slit[1].replace(".", "").replace("-", "").lstrip("0")) >= 11


def test_experiment_subcommand_accepts_any_tag(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "metric-demo", "h": 0.02})
    assert main(["experiment", cfg, "--out", str(tmp_path / "out")]) == 0
