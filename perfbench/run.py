"""Benchmark of the tempbal CLI: closed-loop workloads, end-to-end op time, traced per-layer split.

    python3 perfbench/run.py --workload train_refresh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload analyze_zoo --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --quick [--trace 0|1]   # one op per workload, no time bounds

Run it from the repository root. It imports ``tempbal`` from ``src/`` and
runs each op as ``tempbal.cli.main(argv)`` in this process: one caller, ops
back to back, no concurrency. Inputs come from ``--seed`` only (see
workloads.py) and every op's outputs are checked; an op that raises, exits
non-zero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
wrappers installed. ``--trace 1`` runs each op twice, untraced and then
traced, and reports the per-layer metrics (spans.py), the traced op time
and the tracing overhead: the median over ops of traced minus untraced
time of the same op. The last line of stdout is the result as JSON;
the lines above it repeat the metrics for people and record the machine.
BLAS threads stay at the machine default (capped at nproc when the
environment asks for more) and TEMPBAL_THREADS is unset, so analysis runs
on one worker.
"""

import time

T_START = time.perf_counter()  # setup_s is measured from here

import argparse  # noqa: E402
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 3  # set-ups per run whose median is setup_s: this process and two children
MIN_OPS = 3
CHILD_TIMEOUT_S = 60


def pin_environment() -> None:
    """One analysis worker; BLAS threads at the default, never above nproc. Call before numpy loads."""
    os.environ.pop("TEMPBAL_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(var, "")
        if raw.isdigit() and int(raw) > nproc:
            os.environ[var] = str(nproc)


def import_cli():
    """tempbal.cli from this checkout's src/; exits non-zero when the source is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tempbal.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tempbal from {src}: {exc}")
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported tempbal from {cli.__file__}, not from {src}")
    return cli


# ---------------------------------------------------------------------------
# machine record


def _blas_threads(np) -> int | str:
    """Threads the loaded OpenBLAS will use, asked through its C API."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "TEMPBAL_THREADS": os.environ.get("TEMPBAL_THREADS", "unset"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running ops


class Runner:
    """Runs the ops of one workload and counts attempts and failures."""

    def __init__(self, cli, workload, tracer=None):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def op(self, i: int, traced: bool = False) -> float | None:
        """Run op i and check it; the wall time of its CLI calls, or None when it failed.

        The checks run between the calls and are not timed.
        """
        self.attempted += 1
        elapsed = 0.0
        try:
            for argv, check in self.workload.op(i):
                err = io.StringIO()
                call = lambda: self.cli.main(argv)  # noqa: E731
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    code = self.tracer.call(i, call) if traced else call()
                    elapsed += time.perf_counter() - start
                if code != 0:
                    raise RuntimeError(f"{argv[0]} exit {code}: {err.getvalue().strip()}")
                check()
            return elapsed
        except Exception:  # an op that fails is counted and the run goes on
            reason = traceback.format_exc()
        self.failed += 1
        print(f"{self.workload.name} op {i} failed: {reason}", file=sys.stderr)
        return None


def child_setup(workload: str, seed: int) -> float | None:
    """setup_s of a fresh process that sets up the same workload; None if it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: set-up child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: set-up child failed:\n{proc.stderr}", file=sys.stderr)
        return None
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure(cli, workload, seconds: float, trace: bool, quick: bool, setup_start: float):
    """Set up, run the closed loop, and return (runner, metrics, notes) for one workload."""
    runner = Runner(cli, workload, Tracer() if trace else None)
    workload.prepare()
    if not quick:
        runner.op(0)  # warm-up: same inputs as the first timed op, so it is checked against it
    setup_s = time.perf_counter() - setup_start

    untraced, pairs = [], []  # pairs: (op id, untraced s, traced s) of ops run both ways
    start = time.perf_counter()
    i = 0
    min_ops = 1 if quick else MIN_OPS
    while i < min_ops or (not quick and time.perf_counter() - start < seconds):
        plain = runner.op(i)
        if plain is not None:
            untraced.append(plain)
        if trace:
            with runner.tracer.installed():
                with_spans = runner.op(i, traced=True)
            if plain is not None and with_spans is not None:
                pairs.append((i, plain, with_spans))
        i += 1
    notes = {"ops": len(untraced), "measured_s": time.perf_counter() - start}

    if trace:
        names = [name for name in expected_metrics(True) if name != "trace.overhead_s"]
        per_op = [runner.tracer.op_metrics(op, names) for op, _, _ in pairs]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in names} if per_op else {}
        if pairs:
            # traced minus untraced of the same op, so a drift in machine speed between ops cancels
            notes["overhead_per_pair_s"] = sorted(t - u for _, u, t in pairs)
            metrics["trace.overhead_s"] = statistics.median(notes["overhead_per_pair_s"])
            notes["untraced_op_s"] = statistics.median(u for _, u, _ in pairs)
        return runner, metrics, notes

    setups = [setup_s]
    if not quick:
        for _ in range(SETUPS - 1):
            runner.attempted += 1
            child = child_setup(workload.name, workload.seed)
            if child is None:
                runner.failed += 1
            else:
                setups.append(child)
    notes["setups_s"] = setups
    metrics = {"setup_s": statistics.median(setups)}
    if untraced:
        metrics["op_s"] = statistics.median(untraced)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runner, metrics, notes


# ---------------------------------------------------------------------------
# result


def expected_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def schema_errors(result: dict, trace: bool) -> list[str]:
    """Where the result breaks the contract: metric names and units as in BENCHMARK.json, finite values."""
    expected = expected_metrics(trace)
    errors = [] if result["attempted"] >= 1 else ["no op attempted"]
    if set(result["metrics"]) != set(expected):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, metric in result["metrics"].items():
        if metric["unit"] != expected.get(name) or not math.isfinite(metric["value"]):
            errors.append(f"{name}: {metric}")
    return errors


def report(workload, runner, metrics, notes, trace: bool) -> dict:
    """Print the metrics for people and return the result object."""
    units = expected_metrics(trace)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units.get(name)} for name, value in metrics.items()},
    }
    errors = schema_errors(result, trace)
    for error in errors:
        print(f"schema: {error}", file=sys.stderr)
    result["correct"] = result["correct"] and not errors
    print(f"workload {workload.name}  seed {workload.seed}  trace {int(trace)}  "
          f"ops {notes['ops']} in {notes['measured_s']:.2f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']!r} {metric['unit']}")
    if not trace:
        error_rate = runner.failed / runner.attempted
        print(f"  {'error_rate':36s} {error_rate!r} ({runner.failed} of {runner.attempted} ops failed)")
        print(f"  setup_s is the median of {[round(s, 4) for s in notes['setups_s']]}")
    elif "untraced_op_s" in notes:
        diffs = notes["overhead_per_pair_s"]
        print(f"  untraced op_s {notes['untraced_op_s']!r} s against traced {metrics['trace.op_s']!r} s")
        print(f"  trace.overhead_s is the median of {len(diffs)} per-op differences, traced minus untraced; "
              f"they range over [{diffs[0]:.4f}, {diffs[-1]:.4f}] s, which is the noise around it")
    for what, value in workload.observed.items():
        print(f"  not gated: {what} = {value}")
    return result


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS  # imported here: numpy must load after pin_environment

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one op per workload, no warm-up or time bounds")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.quick or args.workload):
        parser.error("--workload is required unless --quick is given")

    cli = import_cli()
    WORK_ROOT.mkdir(exist_ok=True)
    results = []
    try:
        for name in [args.workload] if args.workload else list(WORKLOADS):
            work = WORK_ROOT / f"{name}-{os.getpid()}"
            work.mkdir()
            try:
                workload = WORKLOADS[name](work, args.seed)
                if args.setup_only:
                    runner = Runner(cli, workload)
                    workload.prepare()
                    runner.op(0)
                    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
                    return 0 if runner.failed == 0 else 1
                setup_start = T_START if not results else time.perf_counter()
                runner, metrics, notes = measure(cli, workload, args.seconds, bool(args.trace), args.quick, setup_start)
                results.append(report(workload, runner, metrics, notes, bool(args.trace)))
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print("machine " + json.dumps(machine_record()))
    if args.quick:
        correct = all(r["correct"] for r in results)
        print(json.dumps({"quick": True, "correct": correct, "results": results}))
        return 0 if correct else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
