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

Each repeat also times the checkpoint codec on its trained network, median
of ``CODEC_CALLS`` calls each: ``save_checkpoint``, ``load_checkpoint`` of
that file, and the first ``state_hash`` of the loaded network, the one that
serializes its config. On the 32x32 row these cost more than evaluation.

The two simulation stages also record the bins they visit per call,
counted as their calls of the per-bin LIF function (``BIN_CALLS``). For
``_conv_sim`` these are only the bins that ``lif_step`` steps after the
sheet's first pass over the whole window, for the neurons that can fire
again: a call in which no neuron can counts 0. The row records the share
of ``_decision_sim`` calls that stopped early: that visited a bin and
returned before the last bin of their window, the value
``harness._window_last`` returned last in the call. Counting adds one
Python call per visited bin to those stage times, and noting
``_window_last`` one more per call of it: once or twice per visited
decision bin.

The ``host`` block also holds ``src_lines``: the line count of each
``src/chronospike/*.py`` module and their total, so that a change's effect
on the size of the source is read from the file.

After the rows, the script runs the Tier-1 suite once in a subprocess, with
the ROADMAP's verify command plus ``--durations=10`` (:data:`TIER1`), and
writes a ``tier1`` block: its wall time, the passed, skipped, failed and
error counts, and the ten slowest test phases.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from chronospike import (  # noqa: E402
    gen_synthetic,
    harness,
    load_checkpoint,
    moving_bars_spec,
    save_checkpoint,
    state_hash,
)
from chronospike.presets import moving_bars_acceptance_config  # noqa: E402

#: Per-call stages, as names in the harness module: the conv sheet, pooling,
#: the decision layer and its regulation.
STAGES = (
    "_conv_pair_deltas", "_conv_sim", "conv_forward_currents", "pool_earliest", "_decision_sim",
    "_decision_pair_deltas", "_apply_decision_plasticity", "_apply_neuron_gain",
)
#: The per-bin LIF function each simulation stage calls once per bin it steps
#: (for ``_conv_sim``, the bins after its first pass).
BIN_CALLS = {"_decision_sim": "lif_integrate", "_conv_sim": "lif_step"}
#: Phases, timed once per call.
PHASES = ("train_layer1", "build_pooled_cache", "train_layer2", "evaluate")
#: Runs of each row: preset wall time drifts by a quarter between runs on a
#: shared host, so one run is not a timing.
REPEATS = 3
#: Calls of each checkpoint codec function per repeat; their median is the timing.
CODEC_CALLS = 5
#: The codec functions, each timed on the trained network of a repeat.
CODEC = ("save_checkpoint", "load_checkpoint", "state_hash")
#: The Tier-1 verify command, run from the checkout root with ``src`` first
#: on ``PYTHONPATH``, listing its ten slowest test phases.
TIER1 = ("python", "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")
#: The outcome counts of a Tier-1 run's summary line.
TIER1_COUNTS = ("passed", "skipped", "failed", "errors")


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
    their calls and wall time, the bins each simulation stage visits, and
    the last bin of each decision window."""

    def __init__(self):
        self.calls = dict.fromkeys(STAGES + PHASES, 0)
        self.seconds = dict.fromkeys(STAGES + PHASES, 0.0)
        self.bins = dict.fromkeys(BIN_CALLS, 0)
        self.stopped_early = 0
        self._inside = None
        self._last_bin = -1
        self._window_last = -1
        self._saved = {}

    def __enter__(self):
        wrapped = {name: self._wrap(name, getattr(harness, name)) for name in STAGES + PHASES}
        wrapped.update({name: self._count(stage, getattr(harness, name)) for stage, name in BIN_CALLS.items()})
        wrapped["_window_last"] = self._note_window(harness._window_last)
        for name, fn in wrapped.items():
            self._saved[name] = getattr(harness, name)
            setattr(harness, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(harness, name, fn)
        return False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer, self._inside = self._inside, name
            if name in BIN_CALLS:
                self._last_bin = -1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
                if name == "_decision_sim":
                    self.stopped_early += 0 <= self._last_bin < self._window_last
                self._inside = outer

        return timed

    def _count(self, stage, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._inside == stage:
                self.bins[stage] += 1
                self._last_bin = args[2]
            return fn(*args, **kwargs)

        return counted

    def _note_window(self, fn):
        @functools.wraps(fn)
        def noted(*args, **kwargs):
            self._window_last = fn(*args, **kwargs)
            return self._window_last

        return noted


def codec_ms(net) -> dict:
    """Median milliseconds per call of each function in ``CODEC`` on
    ``net``: its save, the load of that file, and the first ``state_hash``
    of each loaded network."""
    times = {name: [] for name in CODEC}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        for _ in range(CODEC_CALLS):
            t0 = time.perf_counter()
            save_checkpoint(path, net)
            t1 = time.perf_counter()
            loaded = load_checkpoint(path)
            t2 = time.perf_counter()
            state_hash(loaded)
            t3 = time.perf_counter()
            for name, dt in zip(CODEC, (t1 - t0, t2 - t1, t3 - t2)):
                times[name].append(dt)
    return {name: 1e3 * statistics.median(ts) for name, ts in times.items()}


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
                **({"bins_per_call": clock.bins[name] / clock.calls[name]} if name in BIN_CALLS else {}),
            }
            for name in STAGES
        },
        "decision_stopped_early_share": clock.stopped_early / clock.calls["_decision_sim"],
        "codec_ms": codec_ms(res.net),
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
        "bins_per_call": {name: repeats[0]["stages"][name]["bins_per_call"] for name in BIN_CALLS},
        "decision_stopped_early_share": repeats[0]["decision_stopped_early_share"],
        "median_wall_s": statistics.median(r["wall_s"] for r in repeats),
        "median_ms_per_call": ms,
        "median_codec_ms": {name: statistics.median(r["codec_ms"][name] for r in repeats) for name in CODEC},
    }


def parse_tier1(text: str) -> dict:
    """The outcome counts and the slowest test phases of the output of
    :data:`TIER1`: its last summary line (``N passed, M skipped in T s``)
    and its ``--durations`` lines (``T s call tests/...::name``)."""
    summary = re.findall(r"^=* ?(\d+ \w+(?:, \d+ \w+)*) in [\d.]+s", text, re.M)
    counts = dict.fromkeys(TIER1_COUNTS, 0)
    for n, outcome in re.findall(r"(\d+) (\w+)", summary[-1] if summary else ""):
        outcome = "errors" if outcome == "error" else outcome
        if outcome in counts:
            counts[outcome] = int(n)
    slowest = re.findall(r"^(\d+\.\d+)s (setup|call|teardown) +(.+?) *$", text, re.M)
    return {**counts, "slowest": [{"s": float(t), "when": when, "test": test} for t, when, test in slowest]}


def run_tier1() -> dict:
    """Wall time, outcome counts and slowest test phases of one run of
    :data:`TIER1` (``python`` is this interpreter)."""
    paths = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    t0 = time.perf_counter()
    proc = subprocess.run((sys.executable,) + TIER1[1:], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"command": " ".join(TIER1), "wall_s": wall, "returncode": proc.returncode, **parse_tier1(proc.stdout)}


def src_lines() -> dict:
    """Lines per ``src/chronospike/*.py`` module, by file name, and ``total``."""
    lines = {f.name: len(f.read_text().splitlines()) for f in sorted((ROOT / "src" / "chronospike").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


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
            "src_lines": src_lines(),
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
                f"{stages['_conv_pair_deltas']['ms_per_call']:.2f} ms/call, state_hash "
                f"{repeats[-1]['codec_ms']['state_hash']:.2f} ms",
                flush=True,
            )
        out["rows"][name] = {"summary": summarize(repeats), "repeats": repeats}
    out["tier1"] = run_tier1()
    print(f"tier1: {out['tier1']['wall_s']:.1f} s, " + ", ".join(f"{out['tier1'][k]} {k}" for k in TIER1_COUNTS))
    out["host"]["loadavg_after"] = list(os.getloadavg())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
