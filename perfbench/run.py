"""The dedmin benchmark: fixed-work workloads with end-to-end and per-layer metrics.

Run one workload, from the root of a source checkout::

    python3 perfbench/run.py --workload snow-k9 --seed 1 --seconds 20 --trace 0

or all four, each in its own process, one after another::

    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer ones.  The program is imported from
``src/`` of the checkout, never from an installed copy.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each metric a ``value`` with its ``unit``).  The full
report, with the run environment, the exact results, each op's problem if
any and, when traced, every span, goes to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()

import pace  # noqa: E402

# Set-up is timed like an op: net of the speed samples taken during it,
# and scaled by them.
_SETUP_PACER = pace.Pacer(pace.SETUP_INTERVAL_S)
if __name__ == "__main__":
    _SETUP_PACER.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_TIMEOUT = 60
WORKLOAD_NAMES = ["snow-k9", "snow-k8-refute", "enocoro-k18", "population"]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import dedmin from this checkout's ``src/``, and the benchmark modules."""
    package = SRC / "dedmin"
    if not (package / "__init__.py").is_file():
        fail(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import dedmin
    if Path(dedmin.__file__).resolve().parent != package.resolve():
        fail(f"imported dedmin from {dedmin.__file__}, not from {package}")
    import measure
    import tracing
    import workloads
    return measure, tracing, workloads


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def child(args: list[str], timeout: float | None) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {timeout} s")


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def fresh_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process, scaled and raw: imports plus inputs."""
    proc = child(["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--setup-only"], SETUP_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"set-up of {args.workload} failed in a fresh process")
    result = last_json(proc.stdout)
    return result["setup_s"], result["raw_setup_s"]


def setup_sampler(args, count: int, op_count: int,
                  setups: list[tuple[float, float]]):
    """A ``between`` hook for ``measure.run_ops`` that times fresh set-ups.

    The ``count`` samples are spread evenly from before the first op to
    after the last, so that their median, like the ops, spans the whole run
    rather than one moment of the host's speed.
    """
    slots = [round(i * op_count / (count - 1)) for i in range(count)]

    def between(index: int) -> None:
        for _ in range(slots.count(index)):
            setups.append(fresh_setup(args))
    return between


def contract_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def run_one(args) -> int:
    measure, tracing, workloads = load_program()
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.plan(args.seed, args.seconds)
    _SETUP_PACER.stop()
    end = time.perf_counter()
    raw_setup = end - _START - _SETUP_PACER.paused
    setup = (raw_setup * _SETUP_PACER.factor(_START, end, window=0.0),
             raw_setup)
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "raw_setup_s": setup[1]}))
        return 0

    # The inputs are the benchmark's, not the program's: keep the cyclic
    # collector from walking them during the timed ops.
    gc.freeze()
    trace = args.trace == 1
    setups = [setup]
    between = None if trace else setup_sampler(
        args, workload.fresh_setups, len(ops), setups)
    run = measure.run_ops(workload, ops, trace, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        metrics = tracing.per_layer(run.tracer.spans, measure.traced_runs(run))
    else:
        metrics = {"setup_s": (statistics.median(s for s, _ in setups), "s"),
                   **measure.end_to_end(run),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "budgets": workload.budgets,
        "setup_samples_s": [s for s, _ in setups],
        "raw_setup_samples_s": [r for _, r in setups],
        "exact": measure.exact_results(run),
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
        "problems": {str(i): p for i, p in sorted(run.problems.items())},
        "op_walls_s": run.walls,
        "raw_op_walls_s": run.raw_walls,
        "op_time_scales": run.scales,
    }
    if trace:
        report["spans"] = run.tracer.records()
    OUT.mkdir(exist_ok=True)
    report_path(workload.name, args.seed, args.trace).write_text(
        json.dumps(report, indent=1) + "\n")

    exact = report["exact"]
    print(f"{workload.name} seed {args.seed}: {exact['ops']} ops "
          f"({exact['lp_ops']} via .lp), {run.failed} failed; "
          f"commit {report['environment']['commit']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:.6g} {unit}")
    for key in ("lp_op_p50_s", "failed_ratio", "covered", "refuted",
                "status_counts"):
        print(f"  {key:28} {exact[key]}")
    if run.scales:
        print(f"  {'time scale (median)':28} {statistics.median(run.scales):.4g}"
              f" (raw wall_s {sum(run.raw_walls):.6g} s)")
    print(contract_line(len(ops), run.failed, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    _SETUP_PACER.stop()
    rows = {}
    attempted = failed = 0
    combined = {}
    for name in WORKLOAD_NAMES:
        proc = child(["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     None)
        sys.stderr.write(proc.stderr)
        sys.stdout.writelines(proc.stdout.splitlines(keepends=True)[:-1])
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        result = last_json(proc.stdout)
        report = json.loads(report_path(name, args.seed, args.trace).read_text())
        attempted += result["attempted"]
        failed += result["failed"]
        rows[name] = (result["metrics"], report["exact"])
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = (entry["value"], entry["unit"])

    extras = [("lp_op_p50_s", "s"), ("failed_ratio", "failed/attempted"),
              ("covered", "propositions"), ("refuted", "share")]
    metric_names = list(next(iter(rows.values()))[0])
    print()
    print(f"{'metric':28} {'unit':17}" + "".join(f"{n:>16}" for n in rows))
    for metric in metric_names:
        unit = rows[WORKLOAD_NAMES[0]][0][metric]["unit"]
        cells = "".join(f"{m[metric]['value']:>16.6g}" for m, _ in rows.values())
        print(f"{metric:28} {unit:17}{cells}")
    if args.trace == 0:
        for key, unit in extras:
            cells = "".join(f"{'-' if e[key] is None else f'{e[key]:.6g}':>16}"
                            for _, e in rows.values())
            print(f"{key:28} {unit:17}{cells}")
    print(contract_line(attempted, failed, combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the fixed work; default: run_seconds "
                             "of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # No timer left to fire while the interpreter shuts down.
        _SETUP_PACER.stop()
    sys.exit(code)
