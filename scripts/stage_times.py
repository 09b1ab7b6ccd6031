#!/usr/bin/env python3
"""Per-stage timings of training and evaluation, written to BENCH_<label>.json.

Run from the root of a checkout:

    python3 scripts/stage_times.py --label before
    python3 scripts/stage_times.py --label after

Two rows, each run three times in this process:

* ``preset-8x8``: the acceptance preset at seed 0
  (``presets.moving_bars_acceptance_config``), trained on its synthetic
  train set and evaluated on its test set, as ``chronospike train`` does.
* ``bars-32x32``: the preset constants on a 32x32 moving-bars grid
  (``step_bins=1``, 4x4 pooling), 3 samples per class, one epoch of each
  phase. At this size the conv sheet is 16x larger and layer-1 pair deltas
  dominate phase 1, which the preset alone hides.

Each repeat records the wall time of each phase, and the calls and mean
milliseconds per call of the stages below, timed by wrappers on the
harness's module globals (times are inclusive: ``_conv_sim`` contains
``conv_forward_currents``). Pooling (``pool_earliest``) and the decision
layer's regulation (``_apply_decision_plasticity``, ``_apply_neuron_gain``)
are timed with them. The file also holds each repeat's
``state_hash`` and accuracy, the host's load average before and after, and
the Python and numpy versions, so a speed-up that changes behaviour shows in
the same file. Each repeat also records ``metrics_sha256``, the sha256 of
its per-presentation metrics rows written as ``chronospike train`` writes
them (``metrics.jsonl`` without its header line), so two files show whether
training took the same path step by step. Compare two files only when they
come from the same host.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from chronospike import gen_synthetic, harness, moving_bars_spec, state_hash  # noqa: E402
from chronospike.presets import moving_bars_acceptance_config  # noqa: E402

#: Per-call stages, as names in the harness module: the conv sheet, pooling,
#: the decision layer and its regulation.
STAGES = (
    "_conv_pair_deltas", "_conv_sim", "conv_forward_currents", "pool_earliest", "_decision_sim",
    "_decision_pair_deltas", "_apply_decision_plasticity", "_apply_neuron_gain",
)
#: Phases, timed once per call.
PHASES = ("train_layer1", "build_pooled_cache", "train_layer2", "evaluate")
#: Runs of each row: preset wall time drifts by a quarter between runs on a
#: shared host, so one run is not a timing.
REPEATS = 3


def preset_8x8():
    cfg = moving_bars_acceptance_config(0)
    train = gen_synthetic(cfg.synthetic, cfg.synthetic_train_per_class, seed_offset=0)
    test = gen_synthetic(cfg.synthetic, cfg.synthetic_test_per_class, seed_offset=1)
    return cfg, train, test


def bars_32x32():
    base = moving_bars_acceptance_config(0)
    spec = moving_bars_spec(grid=(32, 32), pattern_length=50, noise_rate=0.01, seed=0, step_bins=1)
    cfg = moving_bars_acceptance_config(
        0,
        synthetic=spec,
        topology=dataclasses.replace(base.topology, pool=(4, 4)),
        harness=dataclasses.replace(base.harness, max_epochs_l1=1, max_epochs_l2=1),
    )
    return cfg, gen_synthetic(spec, 3, seed_offset=0), gen_synthetic(spec, 3, seed_offset=1)


ROWS = {"preset-8x8": preset_8x8, "bars-32x32": bars_32x32}


class StageClock:
    """Wraps the harness's stage and phase functions while active and sums
    their calls and wall time."""

    def __init__(self):
        self.calls = dict.fromkeys(STAGES + PHASES, 0)
        self.seconds = dict.fromkeys(STAGES + PHASES, 0.0)
        self._saved = {}

    def __enter__(self):
        for name in STAGES + PHASES:
            fn = getattr(harness, name)
            self._saved[name] = fn
            setattr(harness, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(harness, name, fn)
        return False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1

        return timed


def run_row(make) -> dict:
    cfg, train, test = make()
    rows = hashlib.sha256()

    def write_row(row: dict) -> None:
        rows.update((json.dumps(row, sort_keys=True) + "\n").encode())

    with StageClock() as clock:
        t0 = time.perf_counter()
        res = harness.train(cfg, train, metrics=write_row)
        ev = harness.evaluate(res.net, test)
        wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "phases_s": {name: clock.seconds[name] for name in PHASES},
        "stages": {
            name: {
                "calls": clock.calls[name],
                "ms_per_call": 1e3 * clock.seconds[name] / clock.calls[name] if clock.calls[name] else None,
            }
            for name in STAGES
        },
        "state_hash": state_hash(res.net),
        "metrics_sha256": rows.hexdigest(),
        "accuracy": ev.accuracy,
        "presentations": res.presentations,
    }


def summarize(repeats: list[dict]) -> dict:
    """Medians over repeats; a row whose repeats disagree on the trained
    state or on the metrics rows is not a timing of one workload, so it is
    refused."""
    for key in ("state_hash", "metrics_sha256"):
        hashes = {r[key] for r in repeats}
        if len(hashes) != 1:
            raise SystemExit(f"repeats disagree on {key}: {sorted(hashes)}")
    ms = {
        name: statistics.median(r["stages"][name]["ms_per_call"] for r in repeats)
        if repeats[0]["stages"][name]["calls"]
        else None
        for name in STAGES
    }
    return {
        "state_hash": repeats[0]["state_hash"],
        "metrics_sha256": repeats[0]["metrics_sha256"],
        "accuracy": repeats[0]["accuracy"],
        "median_wall_s": statistics.median(r["wall_s"] for r in repeats),
        "median_ms_per_call": ms,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json at the checkout root")
    args = ap.parse_args(argv)
    out = {
        "label": args.label,
        "command": f"python3 scripts/stage_times.py --label {args.label}",
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loadavg_before": list(os.getloadavg()),
        },
        "rows": {},
    }
    for name, make in ROWS.items():
        repeats = []
        for i in range(REPEATS):
            repeats.append(run_row(make))
            stages = repeats[-1]["stages"]
            print(
                f"{name} repeat {i}: {repeats[-1]['wall_s']:.2f} s, _conv_pair_deltas "
                f"{stages['_conv_pair_deltas']['ms_per_call']:.2f} ms/call",
                flush=True,
            )
        out["rows"][name] = {"summary": summarize(repeats), "repeats": repeats}
    out["host"]["loadavg_after"] = list(os.getloadavg())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
