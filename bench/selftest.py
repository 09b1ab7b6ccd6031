#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Runs every workload on a 6x6 bar task, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit, that
``_conv_pair_deltas`` runs only on ``bars-preset``, that a corrupted
checkpoint and a flipped event bit each fail their check, and that the
benchmark refuses to run without the package sources. Takes about twenty
seconds:

    python3 bench/selftest.py
"""

import base64
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from chronospike.config import (  # noqa: E402
    HarnessParams,
    PlasticityParams,
    RegulationParams,
    RunConfig,
    TopologyParams,
)
from chronospike.synthetic import moving_bars_spec  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_cfg(seed: int = 0) -> RunConfig:
    """A 6x6 three-class bar task with a small two-layer network."""
    return RunConfig(
        seed=seed,
        synthetic=moving_bars_spec(grid=(6, 6), pattern_length=24, noise_rate=0.01, seed=0, step_bins=3),
        synthetic_train_per_class=6,
        synthetic_test_per_class=3,
        topology=TopologyParams(
            n_maps=4, kernel=(3, 3), stride=1, pool=(2, 2), n_classes=3, n_per_class=4, p_lat=0.2, inh_fraction=0.25
        ),
        plasticity=PlasticityParams(d_max=8.0),
        regulation=RegulationParams(),
        harness=HarnessParams(max_epochs_l1=2, max_epochs_l2=3, kappa=0.1),
    )


TINY = {
    "bars-preset": workloads.BarsWorkload(2, 3, make_cfg=tiny_cfg, train_per_class=6, test_per_class=3),
    "bars-readout": workloads.BarsWorkload(0, 3, make_cfg=tiny_cfg, train_per_class=6, test_per_class=3),
    "dvs-eval": workloads.DvsWorkload(grid=(6, 6), pattern_length=24, per_class=3, make_cfg=tiny_cfg),
}
SEED = 1

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def check_metrics(label: str, got: dict, declared: dict) -> None:
    expect(set(got) == set(declared), f"{label}: emitted {sorted(set(got) ^ set(declared))} differ from BENCHMARK.json")
    for name, unit in declared.items():
        if name in got:
            value, got_unit = got[name]
            expect(got_unit == unit, f"{label}: {name} has unit {got_unit!r}, BENCHMARK.json says {unit!r}")
            expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value!r}")


class Corrupted:
    """A workload whose set-up output is damaged after the fact."""

    def __init__(self, inner, damage):
        self.inner = inner
        self.damage = damage
        self.tasks = inner.tasks

    def setup(self, seed, work):
        return self.damage(self.inner.setup(seed, work))

    def cycle(self, state, work, ledger):
        return self.inner.cycle(state, work, ledger)


def corrupt_checkpoint(state):
    path = state[2]
    payload = json.loads(path.read_text())
    arr = payload["arrays"]["conv_w"]
    raw = bytearray(base64.b64decode(arr["data"]))
    raw[3] ^= 0x10
    arr["data"] = base64.b64encode(bytes(raw)).decode("ascii")
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return state


def flip_event_bit(state):
    samples, blobs, checkpoint, expected = state
    n_events = int(samples[0].frames.sum())
    blob = bytearray(blobs[0])
    blob[len(blob) - 8 * n_events] ^= 0x02  # polarity bit of the first event
    return samples, [bytes(blob)] + blobs[1:], checkpoint, expected


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES), "workload names differ")
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in TINY.items():
            out = workloads.run(wl, SEED, 0.0, work, min_cycles=2, tasks=2)
            expect(out.ledger.failed == 0 and out.ledger.attempted > 0, f"{name}: {out.ledger.errors}")
            metrics = workloads.end_to_end(out, 0.1, 1.0)
            check_metrics(name, metrics, e2e)
            line = json.loads(run.result_line(True, out.ledger.attempted, 0, metrics))
            expect(list(line) == ["correct", "attempted", "failed", "metrics"], f"{name}: result keys {list(line)}")

            with tracing.Tracer() as tracer:
                out = workloads.run(wl, SEED, 0.0, work, min_cycles=2, tasks=2)
            last = out.cycles[-1]
            wall_s = workloads.median_steps_s(out.cycles)
            metrics = tracing.layer_metrics(tracer, wall_s, last.record["accuracy"], last.nets, len(out.cycles))
            check_metrics(f"{name} traced", metrics, layer)
            expect(not tracer.missing, f"{name}: missing spans {tracer.missing}")
            pair_calls = metrics["harness._conv_pair_deltas.calls"][0]
            expect((pair_calls > 0) == (name == "bars-preset"), f"{name}: _conv_pair_deltas ran {pair_calls} times")
            again = workloads.run(wl, SEED, 0.0, work, min_cycles=2, tasks=2).cycles[0].record
            expect(all(out.cycles[0].record[k] == again[k] for k in workloads.DETERMINISTIC),
                   f"{name}: traced and untraced runs disagree")

        for label, damage, needle in (
            ("corrupted checkpoint", corrupt_checkpoint, "checkpoint load"),
            ("flipped event bit", flip_event_bit, "recording 0"),
        ):
            out = workloads.run(Corrupted(TINY["dvs-eval"], damage), SEED, 0.0, work, min_cycles=2, tasks=2)
            led = out.ledger
            expect(led.failed > 0 and any(e.startswith(needle) for e in led.errors),
                   f"{label}: failed {led.failed} of {led.attempted}, errors {led.errors}")

        bare = work / "bare"
        (bare / BENCH_DIR.name).mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH_DIR.glob("*.py"):
            shutil.copy(f, bare / BENCH_DIR.name)
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "bars-preset", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
