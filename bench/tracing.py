"""Per-module tracing for the benchmark's traced runs.

Wrappers are installed on the namespaces the callers look names up in, so
that nothing under ``src/`` changes: ``harness`` binds the topology, core
and regulation helpers at import, rules are looked up as ``pl.<rule>``,
three methods are class attributes, and the benchmark itself calls the
public API through the ``chronospike`` package. Each wrapper pushes a frame
on a span stack; a span's self time is its duration minus the time of the
spans it called. Names that no longer exist are reported as missing and the
run goes on, because refactors rename helpers.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chronospike as cs
from chronospike import core, harness, regulation
from chronospike import plasticity as pl


def _count_spikes(args, out):
    return {"spikes": int(np.count_nonzero(out[0]))}


def _count_len(args, out):
    return {"spikes": len(out[0])}


def _conv_currents(args, out):
    return {"input_events": int(np.count_nonzero(args[1])), "out_mib": out.nbytes / 2**20}


def _pairs(args, out):
    return {"pairs": int(np.size(out))}


def _gate(args, out):
    return {"candidates": len(out), "suppressed": int(np.count_nonzero(~out))}


def _presentations(args, out):
    return {"presentations": out.presentations}


def _file_kib(args, out):
    return {"kib": Path(args[0]).stat().st_size / 1024}


# (namespace, attribute, span name, counter hook or None)
TARGETS = [
    (cs, "train", "harness.train", None),
    (cs, "evaluate", "harness.evaluate", lambda a, out: {"samples": out.n}),
    (harness, "train_layer1", "harness.train_layer1", _presentations),
    (harness, "build_pooled_cache", "harness.build_pooled_cache", None),
    (harness, "train_layer2", "harness.train_layer2", _presentations),
    (harness, "_conv_sim", "harness._conv_sim", _count_spikes),
    (harness, "_pooled_spikes", "harness._pooled_spikes", _count_len),
    (harness, "_decision_sim", "harness._decision_sim", _count_len),
    (harness, "_conv_pair_deltas", "harness._conv_pair_deltas", None),
    (harness, "_decision_pair_deltas", "harness._decision_pair_deltas", None),
    (harness, "_apply_decision_plasticity", "harness._apply_decision_plasticity", None),
    (harness, "_apply_neuron_gain", "harness._apply_neuron_gain", None),
    (harness, "conv_forward_currents", "topology.conv_forward_currents", _conv_currents),
    (harness, "pool_earliest", "topology.pool_earliest", None),
    (harness, "lif_step", "core.lif_step", None),
    (harness, "lif_integrate", "core.lif_integrate", None),
    (harness, "interval_gain", "regulation.interval_gain", None),
    (harness, "threshold_step", "regulation.threshold_step", None),
    (harness, "ema_update", "regulation.ema_update", None),
    (core.DelayBuffer, "schedule", "core.DelayBuffer.schedule", None),
    (regulation.DecentralizeGate, "filter", "regulation.DecentralizeGate.filter", _gate),
    (regulation.FreezeTracker, "update", "regulation.FreezeTracker.update", None),
    (pl, "stdp_weight_delta", "plasticity.stdp_weight_delta", _pairs),
    (pl, "unsupervised_delay_delta", "plasticity.unsupervised_delay_delta", _pairs),
    (pl, "inhibitory_delay_delta", "plasticity.inhibitory_delay_delta", _pairs),
    (pl, "pair_spikes", "plasticity.pair_spikes", None),
    (cs, "save_checkpoint", "topology.save_checkpoint", _file_kib),
    (cs, "load_checkpoint", "topology.load_checkpoint", None),
    (cs, "state_hash", "topology.state_hash", None),
    (cs, "decode_events", "events.decode_events", lambda a, out: {"events": len(out)}),
    (cs, "bin_frames", "events.bin_frames", None),
    (cs, "save_dataset", "events.save_dataset", _file_kib),
    (cs, "load_dataset", "events.load_dataset", None),
    (cs, "gen_synthetic", "synthetic.gen_synthetic", None),
]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counters: dict = field(default_factory=dict)
    parents: dict = field(default_factory=dict)


class Tracer:
    """Context manager that wraps every target and aggregates its spans."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for ns, attr, name, hook in TARGETS:
            self.stats[name] = SpanStats()
            fn = getattr(ns, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((ns, attr, fn))
            setattr(ns, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, hook):
        st = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            st.parents[parent] = st.parents.get(parent, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[1]
            if hook is not None:
                for key, value in hook(args, out).items():
                    st.counters[key] = st.counters.get(key, 0) + value
            return out

        return traced

    def self_time_table(self) -> list[str]:
        """The twelve spans with the largest self time."""
        rows = sorted(self.stats.items(), key=lambda kv: kv[1].self_time, reverse=True)
        total = sum(s.self_time for s in self.stats.values()) or 1.0
        return [
            f"{name:44s} calls={s.calls:8d} self={s.self_time:9.3f} s ({100 * s.self_time / total:5.1f} %)"
            for name, s in rows[:12]
            if s.calls
        ]


def layer_metrics(tracer: Tracer, wall_s: float, accuracy: list[float], nets: list, cycles: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}; unexercised spans read 0.
    Calls and counts are per cycle of the workload's timed steps; accuracy
    and frozen fractions are means over the cycle's tasks."""
    s = tracer.stats

    def calls(span):
        return s[span].calls / cycles

    def count(span, key):
        return float(s[span].counters.get(key, 0)) / cycles

    def per(total, n):
        return total / n if n else 0.0

    def mean(span, scale, attr="total"):
        return per(getattr(s[span], attr) * scale, s[span].calls)

    def per_presentation(span):
        return per(s[span].total * 1e3 / cycles, count(span, "presentations"))

    gate = "regulation.DecentralizeGate.filter"
    cand = count(gate, "candidates")
    m = {
        "harness.train_layer1.s": (mean("harness.train_layer1", 1.0), "s"),
        "harness.train_layer1.presentations": (count("harness.train_layer1", "presentations"), "count"),
        "harness.train_layer1.ms_per_presentation": (per_presentation("harness.train_layer1"), "ms"),
        "harness.build_pooled_cache.s": (mean("harness.build_pooled_cache", 1.0), "s"),
        "harness.train_layer2.s": (mean("harness.train_layer2", 1.0), "s"),
        "harness.train_layer2.presentations": (count("harness.train_layer2", "presentations"), "count"),
        "harness.train_layer2.ms_per_presentation": (per_presentation("harness.train_layer2"), "ms"),
        "harness.evaluate.ms_per_sample": (
            per(s["harness.evaluate"].total * 1e3 / cycles, count("harness.evaluate", "samples")),
            "ms",
        ),
        "harness.evaluate.accuracy": (float(np.mean(accuracy)), "fraction"),
        "harness._conv_sim.ms_per_call": (mean("harness._conv_sim", 1e3), "ms"),
        "harness._conv_pair_deltas.calls": (calls("harness._conv_pair_deltas"), "count"),
        "harness._conv_pair_deltas.ms_per_call": (mean("harness._conv_pair_deltas", 1e3), "ms"),
        "harness._conv_pair_deltas.self_ms_per_call": (
            mean("harness._conv_pair_deltas", 1e3, "self_time"),
            "ms",
        ),
        "harness._decision_sim.calls": (calls("harness._decision_sim"), "count"),
        "harness._decision_sim.ms_per_call": (mean("harness._decision_sim", 1e3), "ms"),
        "harness._decision_sim.self_ms_per_call": (mean("harness._decision_sim", 1e3, "self_time"), "ms"),
        "harness._decision_sim.bins_per_call": (
            per(
                s["core.lif_integrate"].parents.get("harness._decision_sim", 0) / cycles,
                calls("harness._decision_sim"),
            ),
            "bins",
        ),
        "harness._decision_pair_deltas.calls": (calls("harness._decision_pair_deltas"), "count"),
        "harness._decision_pair_deltas.ms_per_call": (mean("harness._decision_pair_deltas", 1e3), "ms"),
        "harness._apply_decision_plasticity.ms_per_call": (
            mean("harness._apply_decision_plasticity", 1e3),
            "ms",
        ),
        "harness._apply_neuron_gain.ms_per_call": (mean("harness._apply_neuron_gain", 1e3), "ms"),
        "harness.conv_spikes_per_presentation": (
            per(count("harness._conv_sim", "spikes"), calls("harness._conv_sim")),
            "spikes",
        ),
        "harness.pooled_spikes_per_presentation": (
            per(count("harness._pooled_spikes", "spikes"), calls("harness._pooled_spikes")),
            "spikes",
        ),
        "harness.decision_spikes_per_presentation": (
            per(count("harness._decision_sim", "spikes"), calls("harness._decision_sim")),
            "spikes",
        ),
        "topology.conv_forward_currents.calls": (calls("topology.conv_forward_currents"), "count"),
        "topology.conv_forward_currents.ms_per_call": (mean("topology.conv_forward_currents", 1e3), "ms"),
        "topology.conv_forward_currents.input_events_per_call": (
            per(count("topology.conv_forward_currents", "input_events"), calls("topology.conv_forward_currents")),
            "events",
        ),
        "topology.conv_forward_currents.out_mib_per_call": (
            per(count("topology.conv_forward_currents", "out_mib"), calls("topology.conv_forward_currents")),
            "MiB",
        ),
        "topology.pool_earliest.ms_per_call": (mean("topology.pool_earliest", 1e3), "ms"),
        "topology.save_checkpoint.ms": (mean("topology.save_checkpoint", 1e3), "ms"),
        "topology.load_checkpoint.ms": (mean("topology.load_checkpoint", 1e3), "ms"),
        "topology.state_hash.ms": (mean("topology.state_hash", 1e3), "ms"),
        "topology.checkpoint_kib": (
            per(count("topology.save_checkpoint", "kib"), calls("topology.save_checkpoint")),
            "KiB",
        ),
        "core.lif_step.calls": (calls("core.lif_step"), "count"),
        "core.lif_step.us_per_call": (mean("core.lif_step", 1e6), "us"),
        "core.lif_integrate.calls": (calls("core.lif_integrate"), "count"),
        "core.lif_integrate.us_per_call": (mean("core.lif_integrate", 1e6), "us"),
        "core.DelayBuffer.schedule.calls": (calls("core.DelayBuffer.schedule"), "count"),
        "core.DelayBuffer.schedule.us_per_call": (mean("core.DelayBuffer.schedule", 1e6), "us"),
        "plasticity.stdp_weight_delta.calls": (calls("plasticity.stdp_weight_delta"), "count"),
        "plasticity.stdp_weight_delta.pairs": (count("plasticity.stdp_weight_delta", "pairs"), "count"),
        "plasticity.stdp_weight_delta.us_per_call": (mean("plasticity.stdp_weight_delta", 1e6), "us"),
        "plasticity.unsupervised_delay_delta.calls": (calls("plasticity.unsupervised_delay_delta"), "count"),
        "plasticity.unsupervised_delay_delta.pairs": (
            count("plasticity.unsupervised_delay_delta", "pairs"),
            "count",
        ),
        "plasticity.inhibitory_delay_delta.calls": (calls("plasticity.inhibitory_delay_delta"), "count"),
        "plasticity.pair_spikes.calls": (calls("plasticity.pair_spikes"), "count"),
        "plasticity.pair_spikes.us_per_call": (mean("plasticity.pair_spikes", 1e6), "us"),
        "regulation.DecentralizeGate.filter.candidates": (cand, "count"),
        "regulation.DecentralizeGate.filter.suppressed": (count(gate, "suppressed"), "count"),
        "regulation.DecentralizeGate.filter.allowed_ratio": (
            per(cand - count(gate, "suppressed"), cand),
            "fraction",
        ),
        "regulation.interval_gain.calls": (calls("regulation.interval_gain"), "count"),
        "regulation.FreezeTracker.update.calls": (calls("regulation.FreezeTracker.update"), "count"),
        "regulation.conv_frozen_fraction": (float(np.mean([n.conv_frozen.mean() for n in nets])), "fraction"),
        "regulation.decision_frozen_fraction": (float(np.mean([n.frozen.mean() for n in nets])), "fraction"),
        "events.decode_events.ms": (mean("events.decode_events", 1e3), "ms"),
        "events.decode_events.events": (
            per(count("events.decode_events", "events"), calls("events.decode_events")),
            "events",
        ),
        "events.bin_frames.ms": (mean("events.bin_frames", 1e3), "ms"),
        "events.save_dataset.ms": (mean("events.save_dataset", 1e3), "ms"),
        "events.load_dataset.ms": (mean("events.load_dataset", 1e3), "ms"),
        "events.dataset_kib": (
            per(count("events.save_dataset", "kib"), calls("events.save_dataset")),
            "KiB",
        ),
        "synthetic.gen_synthetic.ms": (mean("synthetic.gen_synthetic", 1e3), "ms"),
        "trace.wall_s": (wall_s, "s"),
        "trace.missing": (float(len(tracer.missing)), "count"),
    }
    return m
