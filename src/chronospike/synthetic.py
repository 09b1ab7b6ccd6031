"""Synthetic spatio-temporal pattern generation and an independent oracle.

Patterns are described by :class:`~chronospike.config.SyntheticSpec`: each
class embeds a DAG of (source cell, target cell, lag) edges over the
(polarity, y, x) grid. Root cells fire at a per-sample onset drawn
uniformly from the slack left in the pattern window; every other cell fires
at its root time plus the lag sum along its edge path. Seeded Bernoulli
noise is OR-ed on top.

The module also ships a nearest-template classifier used as a separability
oracle at ingest time: it knows the generator's noiseless class templates
and scores a sample by its best correlation over all time shifts. It shares
no machinery with the spiking network.
"""

from __future__ import annotations

import numpy as np

from .config import SyntheticSpec
from .events import FrameSequence


class InvalidSpec(ValueError):
    pass


def class_cell_times(spec: SyntheticSpec, label: int) -> dict[tuple[int, int, int], int]:
    """Relative firing time of every cell in one class's DAG (roots at 0)."""
    edges = spec.embedded_delays[label]
    times: dict[tuple[int, int, int], int] = {}
    targets = {tuple(tgt) for _, tgt, _ in edges}
    for src, _, _ in edges:
        if tuple(src) not in targets:
            times[tuple(src)] = 0
    if not times and edges:
        raise InvalidSpec(f"class {label}: embedded delays form a cycle, no root cell")
    pending = list(edges)
    while pending:
        progressed = False
        rest = []
        for src, tgt, lag in pending:
            src, tgt = tuple(src), tuple(tgt)
            if src in times:
                t = times[src] + int(lag)
                if tgt in times and times[tgt] != t:
                    raise InvalidSpec(
                        f"class {label}: cell {tgt} reached at inconsistent times "
                        f"{times[tgt]} and {t}"
                    )
                times[tgt] = t
                progressed = True
            else:
                rest.append((src, tgt, lag))
        if not progressed:
            raise InvalidSpec(f"class {label}: embedded delays contain an unreachable cycle")
        pending = rest
    return times


def class_span(spec: SyntheticSpec, label: int) -> int:
    times = class_cell_times(spec, label)
    return (max(times.values()) + 1) if times else 0


def validate_spec(spec: SyntheticSpec) -> None:
    """Raise :class:`InvalidSpec` unless ``spec`` lists one DAG per class,
    of cells on the grid, whose lags and spans fit ``pattern_length``."""
    if len(spec.embedded_delays) != spec.n_classes:
        raise InvalidSpec(
            f"embedded_delays lists {len(spec.embedded_delays)} classes, expected {spec.n_classes}"
        )
    h, w = spec.grid
    for k in range(spec.n_classes):
        for src, tgt, lag in spec.embedded_delays[k]:
            if not (0 <= lag <= spec.pattern_length):
                raise InvalidSpec(f"class {k}: lag {lag} outside [0, {spec.pattern_length}]")
            for p, y, x in (src, tgt):
                if not (0 <= p < 2 and 0 <= y < h and 0 <= x < w):
                    raise InvalidSpec(f"class {k}: cell ({p}, {y}, {x}) outside grid")
        if class_span(spec, k) > spec.pattern_length:
            raise InvalidSpec(f"class {k}: pattern span exceeds pattern_length")


def class_template(spec: SyntheticSpec, label: int) -> np.ndarray:
    """Noiseless class pattern with roots at time 0, [span, 2, H, W]."""
    times = class_cell_times(spec, label)
    span = class_span(spec, label)
    h, w = spec.grid
    tpl = np.zeros((max(span, 1), 2, h, w), dtype=np.uint8)
    for (p, y, x), t in times.items():
        tpl[t, p, y, x] = 1
    return tpl


def gen_synthetic(spec: SyntheticSpec, n_per_class, seed_offset: int = 0) -> list[FrameSequence]:
    """Generate labeled samples, deterministic in (spec.seed + seed_offset).

    ``n_per_class`` is an int or one count per class. Each sample places its
    class pattern at a uniformly drawn onset (0 when there is no slack) and
    adds Bernoulli noise at ``spec.noise_rate`` per cell per bin.
    """
    validate_spec(spec)
    if np.isscalar(n_per_class):
        counts = [int(n_per_class)] * spec.n_classes
    else:
        counts = [int(c) for c in n_per_class]
        if len(counts) != spec.n_classes:
            raise InvalidSpec("n_per_class must give one count per class")
    rng = np.random.default_rng(spec.seed + seed_offset)
    h, w = spec.grid
    templates = [class_cell_times(spec, k) for k in range(spec.n_classes)]
    spans = [class_span(spec, k) for k in range(spec.n_classes)]
    samples: list[FrameSequence] = []
    for k in range(spec.n_classes):
        slack = spec.pattern_length - spans[k]
        for _ in range(counts[k]):
            onset = int(rng.integers(0, slack + 1)) if slack > 0 else 0
            frames = np.zeros((spec.pattern_length, 2, h, w), dtype=np.uint8)
            for (p, y, x), t in templates[k].items():
                frames[onset + t, p, y, x] = 1
            if spec.noise_rate > 0.0:
                frames |= (rng.random(frames.shape) < spec.noise_rate).astype(np.uint8)
            samples.append(FrameSequence(frames, bin_width_ms=1.0, label=k, subject_id=0))
    return samples


def template_classify(spec: SyntheticSpec, samples: list[FrameSequence]) -> np.ndarray:
    """Predict labels by best shifted-correlation against class templates."""
    templates = [class_template(spec, k) for k in range(spec.n_classes)]
    sizes = [max(int(t.sum()), 1) for t in templates]
    preds = np.empty(len(samples), dtype=np.int64)
    for i, s in enumerate(samples):
        frames = s.frames.astype(np.int64)
        big_t = frames.shape[0]
        scores = np.full(spec.n_classes, -np.inf)
        for k, tpl in enumerate(templates):
            span = tpl.shape[0]
            if span > big_t:
                continue
            best = 0
            for shift in range(big_t - span + 1):
                hit = int((frames[shift : shift + span] * tpl).sum())
                if hit > best:
                    best = hit
            scores[k] = best / sizes[k]
        preds[i] = int(np.argmax(scores))
    return preds


def oracle_accuracy(spec: SyntheticSpec, samples: list[FrameSequence]) -> float:
    preds = template_classify(spec, samples)
    labels = np.array([s.label for s in samples])
    return float((preds == labels).mean()) if len(samples) else 0.0


def moving_bars_spec(
    grid: tuple[int, int] = (8, 8),
    pattern_length: int = 50,
    noise_rate: float = 0.01,
    seed: int = 0,
    step_bins: int = 3,
) -> SyntheticSpec:
    """Three-class moving-bar task: a bar sweeping right, left, or down.

    The leading edge drives the ON channel; each ON cell is trailed one bin
    later by its OFF counterpart, mimicking a brightness edge passing a
    pixel. Motion is encoded purely in the lag structure, so the classes
    share identical per-cell spike statistics in space.
    """
    h, w = grid
    classes = []
    # rightward sweep: column c fires step_bins after column c-1
    edges = []
    for y in range(h):
        for c in range(w - 1):
            edges.append(((0, y, c), (0, y, c + 1), step_bins))
        for c in range(w):
            edges.append(((0, y, c), (1, y, c), 1))
    classes.append(tuple(edges))
    # leftward sweep
    edges = []
    for y in range(h):
        for c in range(w - 1, 0, -1):
            edges.append(((0, y, c), (0, y, c - 1), step_bins))
        for c in range(w):
            edges.append(((0, y, c), (1, y, c), 1))
    classes.append(tuple(edges))
    # downward sweep
    edges = []
    for x in range(w):
        for r in range(h - 1):
            edges.append(((0, r, x), (0, r + 1, x), step_bins))
        for r in range(h):
            edges.append(((0, r, x), (1, r, x), 1))
    classes.append(tuple(edges))
    spec = SyntheticSpec(
        n_classes=3,
        pattern_length=pattern_length,
        grid=grid,
        embedded_delays=tuple(classes),
        noise_rate=noise_rate,
        seed=seed,
    )
    validate_spec(spec)
    return spec
