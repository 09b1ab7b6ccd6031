"""The benchmark's workloads: set-up, timed steps and correctness checks.

Every workload goes through the package's public API, never the CLI, so
argument parsing and report printing stay out of the timed region.

* ``bars-preset`` trains the acceptance preset's network on moving bars
  and evaluates it; layer-1 learning is most of its time.
* ``bars-readout`` is the same with no layer-1 epochs and more decision
  epochs: the decision layer's simulation, pair rules and regulation do
  the work.
* ``dvs-eval`` ingests AEDAT 3.1 recordings at a 32x32 sensor, round-trips
  them through a dataset file, loads a checkpoint and evaluates: inference
  on a conv sheet 16x larger, no plasticity.

A run's seed stands for several independent tasks, each with its own data
and network seed, so that one run covers several networks and data sets.
Each task is much smaller than the preset, so that one pass over all of a
workload's timed steps (a cycle) takes a few seconds and a run repeats it
several times on the same inputs. Every step of a cycle (a training
presentation, one evaluated sample, one ingested recording, one file save
or load) is timed on its own, and ``run_s`` adds up each step's median
over the repeats. On a shared host whose speed changes by tens of percent
from one second to the next, this is steadier than the wall time of one
long pass.
"""

from __future__ import annotations

import dataclasses
import statistics
import struct
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import chronospike as cs
from chronospike.presets import moving_bars_acceptance_config

SETUP_REPEATS = 3
MIN_CYCLES = 3
FPS = 1000.0  # synthetic samples use 1 ms bins


class Ledger:
    """Operations attempted and passed. An operation is a train call, one
    evaluated sample, one ingested recording or one file load; it fails if
    it raises or its check fails, so ops planned but never passed count as
    failed."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def plan(self, n: int) -> None:
        self.attempted += n

    def check(self, what: str, ok: bool, n: int = 1) -> None:
        if ok:
            self.passed += n
        else:
            self.errors.append(what)


class Laps:
    """Durations of consecutive timed steps: ``start`` opens a stretch of
    steps and each ``lap`` closes one. ``lap`` takes and ignores any
    arguments, so it can serve as ``train``'s per-presentation callback."""

    def __init__(self):
        self.times: list[float] = []
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def lap(self, *_ignored) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        self._last = now


@dataclass
class Cycle:
    """One pass over the timed steps of one task, or of all of a run's tasks
    with a record that lists each field per task."""

    steps: list[float]
    nets: list[cs.Network]
    record: dict


def timed_evaluate(net, samples, laps: Laps):
    """Evaluate one sample per call, one lap each; returns run-record fields.
    ``evaluate`` keeps no state between samples, so this is the work of one
    call on all of them."""
    correct = 0
    first = len(laps.times)
    laps.start()
    for s in samples:
        correct += cs.evaluate(net, [s]).correct
        laps.lap()
    eval_s = sum(laps.times[first:])
    return {"accuracy": correct / len(samples), "eval_samples_per_s": len(samples) / eval_s}


def same_sequence(a: cs.FrameSequence, b: cs.FrameSequence) -> bool:
    return (
        a.frames.dtype == b.frames.dtype
        and a.frames.shape == b.frames.shape
        and np.array_equal(a.frames, b.frames)
        and a.label == b.label
        and a.bin_width_ms == b.bin_width_ms
    )


def encode_aedat(frames: np.ndarray) -> bytes:
    """AEDAT 3.1 bytes with one polarity packet: an event per set bit of a
    [T, 2, H, W] tensor of 1 ms bins, stamped at the middle of its bin."""
    t, p, y, x = np.nonzero(frames)
    body = np.empty((t.size, 2), dtype="<u4")
    body[:, 0] = (x << 17) | (y << 2) | (p << 1) | 1
    body[:, 1] = t * 1000 + 500
    n = t.size
    head = struct.pack("<hhiiiiii", 1, 0, 8, 4, 0, n, n, n)
    return b"#!AER-DAT3.1\r\n#Source 0: synthetic moving bars\r\n#!END-HEADER\r\n" + head + body.tobytes()


@dataclass
class BarsWorkload:
    """Train on moving bars, then evaluate on held-out samples."""

    epochs_l1: int
    epochs_l2: int
    make_cfg: Callable[[int], cs.RunConfig] = moving_bars_acceptance_config
    train_per_class: int = 4
    test_per_class: int = 5
    tasks: int = 6

    def setup(self, seed: int, work: Path):
        cfg = self.make_cfg(seed)
        cfg = dataclasses.replace(
            cfg,
            synthetic=dataclasses.replace(cfg.synthetic, seed=seed),
            synthetic_train_per_class=self.train_per_class,
            harness=dataclasses.replace(cfg.harness, max_epochs_l1=self.epochs_l1, max_epochs_l2=self.epochs_l2),
        )
        train = cs.gen_synthetic(cfg.synthetic, cfg.synthetic_train_per_class)
        test = cs.gen_synthetic(cfg.synthetic, self.test_per_class, seed_offset=1)
        return cfg, train, test

    def cycle(self, state, work: Path, ledger: Ledger) -> Cycle:
        cfg, train, test = state
        ledger.plan(1 + len(test) + 1)
        laps = Laps()
        laps.start()
        res = cs.train(cfg, train, metrics=laps.lap)
        laps.lap()
        train_s = sum(laps.times)
        ledger.check(
            "train: layer 1 changed during phase 2",
            res.layer1_hash_after_phase1 == res.layer1_hash_final,
        )
        net = res.net
        before = cs.state_hash(net)
        evaluated = timed_evaluate(net, test, laps)
        ledger.check("evaluate changed the network state", cs.state_hash(net) == before, len(test))
        path = work / "trained.json"
        cs.save_checkpoint(path, net)
        ledger.check("checkpoint save/load changed state_hash", cs.state_hash(cs.load_checkpoint(path)) == before)
        layer1 = res.epochs_l1 * len(train)
        record = {
            "state_hash": before,
            "presentations_l1": layer1,
            "presentations_l2": res.presentations - layer1,
            "train_s": train_s,
            **evaluated,
        }
        return Cycle(laps.times, [net], record)


@dataclass
class DvsWorkload:
    """Ingest AEDAT recordings, round-trip a dataset and a checkpoint, evaluate."""

    grid: tuple[int, int] = (32, 32)
    pattern_length: int = 50
    per_class: int = 2
    make_cfg: Callable[[int], cs.RunConfig] = moving_bars_acceptance_config
    tasks: int = 6

    def setup(self, seed: int, work: Path):
        spec = cs.moving_bars_spec(grid=self.grid, pattern_length=self.pattern_length, step_bins=1, seed=seed)
        samples = cs.gen_synthetic(spec, self.per_class)
        blobs = [encode_aedat(s.frames) for s in samples]
        cfg = dataclasses.replace(self.make_cfg(seed), synthetic=spec)
        net = cs.build_network(cfg, samples[0].frames.shape[1:])
        checkpoint = work / f"untrained-{seed}.json"
        cs.save_checkpoint(checkpoint, net)
        return samples, blobs, checkpoint, cs.state_hash(net)

    def cycle(self, state, work: Path, ledger: Ledger) -> Cycle:
        samples, blobs, checkpoint, expected_hash = state
        n = len(samples)
        ledger.plan(n + 1 + 1 + n)
        h, w = self.grid
        dataset = work / "recordings.cspk"
        laps = Laps()
        laps.start()
        seqs = []
        for blob, s in zip(blobs, samples):
            events = cs.decode_events(blob, sensor_size=(w, h))
            seqs.append(cs.bin_frames(events, FPS, self.pattern_length, label=s.label))
            laps.lap()
        cs.save_dataset(dataset, seqs)
        laps.lap()
        loaded, _header = cs.load_dataset(dataset)
        laps.lap()
        net = cs.load_checkpoint(checkpoint)
        laps.lap()
        loaded_hash = cs.state_hash(net)
        laps.lap()
        evaluated = timed_evaluate(net, loaded, laps)
        laps.start()
        after = cs.state_hash(net)
        laps.lap()
        for i, (seq, s) in enumerate(zip(seqs, samples)):
            ledger.check(f"recording {i}: decoded frames differ from the generated ones", same_sequence(seq, s))
        ledger.check(
            "dataset save/load changed the samples",
            len(loaded) == n and all(same_sequence(a, b) for a, b in zip(loaded, seqs)),
        )
        ledger.check("checkpoint load changed state_hash", loaded_hash == expected_hash)
        ledger.check("evaluate changed the network state", after == loaded_hash, n)
        record = {"state_hash": loaded_hash, "presentations_l1": 0, "presentations_l2": 0, **evaluated}
        return Cycle(laps.times, [net], record)


WORKLOADS = {
    "bars-preset": BarsWorkload(epochs_l1=1, epochs_l2=2, train_per_class=3, test_per_class=3, tasks=2),
    "bars-readout": BarsWorkload(epochs_l1=0, epochs_l2=5, test_per_class=2, tasks=4),
    "dvs-eval": DvsWorkload(per_class=1, tasks=2),
}
# Run-record fields every repeat of a cycle must reproduce.
DETERMINISTIC = ("state_hash", "presentations_l1", "presentations_l2", "accuracy")


@dataclass
class Outcome:
    setup_times: list[float]
    cycles: list[Cycle]
    ledger: Ledger


def run(workload, seed: int, seconds: float, work: Path, min_cycles: int = MIN_CYCLES, tasks: int = 0) -> Outcome:
    """Set up the tasks of seeds ``seed * tasks`` to ``seed * tasks + tasks - 1``
    (``tasks`` defaults to the workload's) SETUP_REPEATS times, then repeat the timed steps of all tasks at least
    ``min_cycles`` times and after that while another cycle still fits in
    ``seconds``. Each repeat is one more operation, which fails unless it
    reproduces the first cycle's DETERMINISTIC record fields. An exception
    in the timed steps stops the run; the operations it left unpassed count
    as failed."""
    tasks = tasks or workload.tasks
    seeds = [seed * tasks + j for j in range(tasks)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        states = [workload.setup(s, work) for s in seeds]
        setup_times.append(time.perf_counter() - t0)
    ledger = Ledger()
    cycles: list[Cycle] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            parts = [workload.cycle(state, work, ledger) for state in states]
            cycle = Cycle(
                [t for p in parts for t in p.steps],
                [n for p in parts for n in p.nets],
                {k: [p.record[k] for p in parts] for k in parts[0].record},
            )
        except Exception as e:
            traceback.print_exc()
            ledger.errors.append(f"raised {type(e).__name__}: {e}")
            break
        if cycles:
            ledger.plan(1)
            first = cycles[0].record
            ledger.check(
                f"repeat {len(cycles)} differs from the first cycle",
                all(cycle.record[k] == first[k] for k in DETERMINISTIC) and len(cycle.steps) == len(cycles[0].steps),
            )
        cycles.append(cycle)
        if len(cycles) > 1:
            # Only the last cycle keeps its networks, so that the peak resident
            # set does not grow with the number of repeats.
            cycles[-2].nets = []
        now = time.perf_counter()
        if len(cycles) >= min_cycles and now + (now - t0) - start > seconds:
            break
    return Outcome(setup_times, cycles, ledger)


def median_steps_s(cycles: list[Cycle]) -> float:
    """Sum over the timed steps of each step's median over the repeats."""
    return sum(statistics.median(times) for times in zip(*(c.steps for c in cycles)))


def end_to_end(outcome: Outcome, import_s: float, peak_rss_mib: float) -> dict:
    """End-to-end metrics as {name: (value, unit)}."""
    return {
        "setup_s": (import_s + statistics.median(outcome.setup_times), "s"),
        "run_s": (median_steps_s(outcome.cycles), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
