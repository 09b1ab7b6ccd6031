#!/usr/bin/env python3
"""Benchmark of the chronospike package.

Run from the root of a checkout:

    python3 bench/run.py --workload bars-preset --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --trace 1

One process runs one workload (see ``workloads.py``). The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-module
metrics of ``tracing.py`` with ``--trace 1``. Lines before it give every
metric by name and unit, the run record (seed, state hash, presentations
per phase, accuracy, train and evaluation speed, failed fraction) and the
host (cores, Python, numpy, load average). ``--workload all`` runs each workload in a fresh process,
traced as well with ``--trace 1``, and reports the tracing overhead as
traced wall time over untraced wall time.

A run repeats the workload's timed steps on the same inputs at least three
times and then while another repeat fits in ``--seconds``. End-to-end
metrics: ``setup_s`` is the time from the first line of this script to the
timed region, with the workload set-up repeated and its median taken;
``run_s`` is the sum over the timed steps of each step's median repeat;
``peak_rss_mib`` is the process's maximum resident set.

The exit code is 0 when every check passed, 1 when any failed and 2 when
the package sources are not next to the benchmark.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread for BLAS and OpenMP, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("bars-preset", "bars-readout", "dvs-eval")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="chronospike benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # noqa: E402

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import tracing

            with tracing.Tracer() as tracer:
                outcome = workloads.run(workload, args.seed, args.seconds, work)
        else:
            outcome = workloads.run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = outcome.ledger
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["cycles"] = len(outcome.cycles)
    if outcome.cycles:
        record.update(outcome.cycles[0].record)
    record["failed_fraction"] = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    record.update(host_info())
    metrics = {}
    if outcome.cycles:
        if args.trace:
            last = outcome.cycles[-1]
            wall_s = workloads.median_steps_s(outcome.cycles)
            metrics = tracing.layer_metrics(tracer, wall_s, last.record["accuracy"], last.nets, len(outcome.cycles))
            for name in tracer.missing:
                print(f"trace: {name} no longer exists; its metrics read 0")
            print("self time, largest first:")
            print("\n".join(tracer.self_time_table()))
        else:
            metrics = workloads.end_to_end(outcome, import_s, peak_rss_mib)
    for err in ledger.errors:
        print(f"check failed: {err}")
    print_metrics(metrics)
    print("record: " + json.dumps(record))
    correct = ledger.failed == 0 and ledger.attempted > 0
    print(result_line(correct, ledger.attempted, ledger.failed, metrics), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; with tracing, also its overhead."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: no result (exit code {proc.returncode})")
                return 1
            print(f"== {name} (trace {trace}, exit code {proc.returncode})")
            print("\n".join(lines[:-1]))
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                metrics[f"{name}.{key}"] = (m["value"], m["unit"])
        if args.trace and f"{name}.run_s" in metrics and f"{name}.trace.wall_s" in metrics:
            overhead = metrics[f"{name}.trace.wall_s"][0] / metrics[f"{name}.run_s"][0]
            metrics[f"{name}.trace.overhead"] = (overhead, "ratio")
            print(f"{name}: tracing overhead {overhead:.3f}x traced over untraced wall time")
    print(f"failed_fraction = {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} operations)")
    correct = failed == 0 and attempted > 0
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chronospike" / "__init__.py").is_file():
        print(f"error: package sources not found at {ROOT / 'src' / 'chronospike'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
