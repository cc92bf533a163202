"""bergman-lab benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload fit-heavy --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each op starts only after the previous one finished.  An op is one
experiment run through the public API (``lab.config_from_dict`` ->
``lab.run_experiment`` -> ``ExperimentReport.write``), in ``probe-eval``
and ``geometry`` a round of two such runs, one of each input kind, and in
``zero-search`` a round of ``zeros.lu_qi_keng_verdict`` calls, one on each
kind of model fitted during set-up.  The BLAS thread count is pinned to 1
before numpy loads.

Every op is checked: the report's assertions pass (or the verdict is the
expected one), every certificate survives a round trip through its own JSON,
and the output bytes equal those of every other run of the same input, in
this process and in one subprocess replaying the first input at two BLAS
threads.

Set-up time is the import of blab, numpy and scipy plus the median of
three repetitions of set-up proper: input generation, the zero-search model
fits and one checked, untimed warm-up op.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every input
untraced and traced in turn and prints the per-layer metrics.  The last
line of output is one JSON object with keys correct, attempted, failed and
metrics; metric names and units come from BENCHMARK.json.  ``--workload all``
runs every workload both ways in child processes and prints a table.
"""

import time

_T0 = time.perf_counter()  # noqa: E402  (set-up time counts from here)

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
REPLAY_THREADS = 2
SETUP_REPEATS = 3
REPLAY_TIMEOUT_S = 60   # a run must end within 180 s, replay included
RUN_TIMEOUT_S = 180

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least ten of n samples beyond its
    nearest-rank value, never below the median (50 when n < 20)."""
    if n <= 10:
        return 50
    return max(50, math.floor(100 * (n - 10) / n))


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the ceil(p n / 100)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def load_blab():
    """Import blab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "blab" / "__init__.py").is_file():
        raise SetupError(f"no blab package under {src}")
    sys.path.insert(0, str(src))
    import blab
    if Path(blab.__file__).resolve().parent != (src / "blab").resolve():
        raise SetupError(f"imported blab from {blab.__file__}, not {src}")
    return blab


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f'{dep.get("name")} {dep.get("version")}'
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cores": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Runner:
    """Runs and checks the ops of one workload."""

    def __init__(self, blab, workload: str, workdir: Path):
        self.blab = blab
        self.workload = workload
        self.workdir = workdir
        self.models: dict[str, object] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.modules = [blab.geom, blab.basis, blab.kernel, blab.zeros, blab.lab]
        self.targets = layers.targets(*self.modules)

    def prepare(self, cycle: list[dict]) -> None:
        """Fit the zero-search models; config workloads need nothing."""
        lab, kernel, geom = self.blab.lab, self.blab.kernel, self.blab.geom
        self.models = {}
        for inp in cycle:
            for v in inp.get("verdicts", ()):
                if v["model_id"] not in self.models:
                    dom = geom.make_domain(v["model"], v["h"])
                    basis = lab.default_basis_for(v["model"], tuple(v["window"]))
                    self.models[v["model_id"]] = kernel.fit_kernel(dom, basis)

    def execute(self, inp: dict):
        """The timed body of one op."""
        if "configs" in inp:
            lab = self.blab.lab
            reports = []
            for i, raw in enumerate(inp["configs"]):
                report = lab.run_experiment(lab.config_from_dict(raw))
                report.write(self.workdir / str(i))
                reports.append(report)
            return reports
        zeros = self.blab.zeros
        return [zeros.lu_qi_keng_verdict(self.models[v["model_id"]],
                                         zeros.ProbeConfig(seed=v["probe_seed"]))
                for v in inp["verdicts"]]

    def output(self, inp: dict, result) -> bytes:
        """Check one op's result and return its output bytes.

        Raises AssertionError naming the first failed check.
        """
        zeros = self.blab.zeros
        if "configs" in inp:
            certs, data = [], b""
            for i, report in enumerate(result):
                failed = [a["name"] for a in report.assertions
                          if not a["passed"]]
                if failed:
                    raise AssertionError(f"report assertions failed: {failed}")
                certs += report.certificates.values()
                data += (self.workdir / str(i) / "summary.json").read_bytes()
        else:
            for v, verdict in zip(inp["verdicts"], result):
                if verdict.status != v["expect"]:
                    raise AssertionError(f"{v['model_id']}: verdict "
                                         f"{verdict.status}, expected {v['expect']}")
            certs = [v.certificate for v in result if v.certified]
            data = json.dumps([v.to_dict() for v in result],
                              sort_keys=True).encode()
        for cert in certs:
            again = zeros.ZeroCertificate.from_dict(
                json.loads(json.dumps(cert.to_dict())))
            if again != cert:
                raise AssertionError("certificate changed through its JSON")
        return data

    def record(self, inp: dict, data: bytes) -> None:
        """Compare output bytes with every earlier run of the same input."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(inp["id"], digest)
        if digest != first:
            raise AssertionError(f"output bytes of {inp['id']} differ between "
                                 "runs of the same input")

    def run(self, inp: dict, rec: spans.Recorder | None = None) -> float:
        """One checked op; returns its wall seconds, NaN if it failed.  With
        a recorder the op is traced and timed by its root span."""
        self.attempted += 1
        try:
            if rec is None:
                t = time.perf_counter()
                result = self.execute(inp)
                seconds = time.perf_counter() - t
            else:
                rec.op += 1
                with spans.Patch(rec, self.targets, self.modules):
                    with rec.span(spans.OP) as root:
                        result = self.execute(inp)
                seconds = root.seconds
            self.record(inp, self.output(inp, result))
        except Exception:
            self.failed += 1
            print(f"op {inp['id']} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            seconds = math.nan
        return seconds

    def replay_matches(self, seed: int, first: dict) -> bool:
        """Re-run the first input in a child process at REPLAY_THREADS BLAS
        threads and compare its output bytes with this process's."""
        self.attempted += 1
        env = dict(os.environ)
        env.update({v: str(REPLAY_THREADS) for v in THREAD_VARS})
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               self.workload, "--seed", str(seed), "--replay"]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=REPLAY_TIMEOUT_S, cwd=ROOT)
            digest = json.loads(proc.stdout.strip().splitlines()[-1])["sha256"]
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError,
                KeyError) as e:
            digest = f"replay failed: {e!r}"
        if digest == self.digests.get(first["id"]):
            return True
        self.failed += 1
        print(f"replay of {first['id']} at {REPLAY_THREADS} threads: {digest}",
              file=sys.stderr)
        return False


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def measure(runner: Runner, cycle: list[dict], seconds: float,
            traced: bool) -> tuple[list, list, float, spans.Recorder]:
    """Closed loop over the schedule for the given wall time.

    Returns the untraced and traced op seconds, the wall time and the
    recorder.  Untraced: every op runs without spans.  Traced: each input
    runs once untraced and once traced, alternating which goes first.
    """
    plain: list[float] = []
    with_trace: list[float] = []
    rec = spans.Recorder()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inp = cycle[i % len(cycle)]
        if not traced:
            plain.append(runner.run(inp))
        else:
            for use in ((False, True) if i % 2 == 0 else (True, False)):
                if use:
                    with_trace.append(runner.run(inp, rec))
                else:
                    plain.append(runner.run(inp))
        i += 1
    return plain, with_trace, time.perf_counter() - start, rec


def run_workload(args) -> int:
    for v in THREAD_VARS:
        os.environ[v] = str(REPLAY_THREADS if args.replay else 1)
    try:
        blab = load_blab()
        spec = metric_spec()
    except (SetupError, ImportError, OSError, ValueError) as e:
        print(f"cannot run the benchmark here: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(blab, args.workload, workdir)
        if args.replay:
            cycle = workloads.generate(args.workload, args.seed)
            runner.prepare(cycle[:1])
            data = runner.output(cycle[0], runner.execute(cycle[0]))
            print(json.dumps({"sha256": hashlib.sha256(data).hexdigest()}))
            return 0
        reps = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            cycle = workloads.generate(args.workload, args.seed)
            runner.prepare(cycle)
            runner.run(cycle[0])  # warm-up op, checked but not timed
            reps.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(reps)

        plain, traced, wall, rec = measure(runner, cycle, args.seconds,
                                           bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.replay_matches(args.seed, cycle[0])
        env = environment()
        print("# env " + json.dumps(env, sort_keys=True))

        ok = [s for s in plain if not math.isnan(s)]
        if args.trace:
            ok_traced = [s for s in traced if not math.isnan(s)]
            overhead = statistics.median(ok_traced) / statistics.median(ok) - 1
            values = layers.per_layer(rec, overhead)
            names = spec["per_layer"]
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "env": env,
                 **rec.to_dict()}), encoding="utf-8")
            print(f"# {len(ok_traced)} traced and {len(ok)} untraced ops; "
                  f"spans in {trace_path.relative_to(ROOT)}")
            # span times that some workload never enters read 0 on every
            # run of it, so they are printed here rather than as metrics
            reported = {m["name"] for m in names}
            for name in sorted(set(values) - reported):
                print(f"# span {name} {values[name]!r} s")
        else:
            p = tail_percentile(len(ok))
            values = {
                "op_s_p50": statistics.median(ok),
                "op_s_tail": percentile(ok, p),
                "ops_per_min": 60 * len(ok) / wall,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            print(f"# {len(ok)} ops in {wall:.3f} s; op_s_tail is p{p}")
            names = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in names}
        print(json.dumps({"correct": runner.failed == 0,
                          "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# every workload, as a table
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Run each workload untraced and traced in its own process and print
    every metric by name and unit, then the correctness verdict."""
    all_correct = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for name, m in result["metrics"].items():
                print(f"   {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"correct: {all_correct}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", action="store_true",
                    help=argparse.SUPPRESS)  # child of the thread-count check
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
