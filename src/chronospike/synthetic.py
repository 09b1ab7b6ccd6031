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


def class_span(times: dict) -> int:
    """Bins a class pattern of cell times ``times`` spans: 0 with no cells."""
    return max(times.values(), default=-1) + 1


def validate_spec(spec: SyntheticSpec) -> list[dict[tuple[int, int, int], int]]:
    """Each class's cell times (:func:`class_cell_times`), once ``spec`` lists
    one DAG per class, of cells on the grid, whose lags and spans fit
    ``pattern_length``; otherwise an :class:`InvalidSpec`."""
    if len(spec.embedded_delays) != spec.n_classes:
        raise InvalidSpec(
            f"embedded_delays lists {len(spec.embedded_delays)} classes, expected {spec.n_classes}"
        )
    h, w = spec.grid
    times = []
    for k in range(spec.n_classes):
        for src, tgt, lag in spec.embedded_delays[k]:
            if not (0 <= lag <= spec.pattern_length):
                raise InvalidSpec(f"class {k}: lag {lag} outside [0, {spec.pattern_length}]")
            for p, y, x in (src, tgt):
                if not (0 <= p < 2 and 0 <= y < h and 0 <= x < w):
                    raise InvalidSpec(f"class {k}: cell ({p}, {y}, {x}) outside grid")
        times.append(class_cell_times(spec, k))
        if class_span(times[k]) > spec.pattern_length:
            raise InvalidSpec(f"class {k}: pattern span exceeds pattern_length")
    return times


def class_template(times: dict, grid: tuple[int, int]) -> np.ndarray:
    """Noiseless class pattern of cell times ``times`` on ``grid``, roots at
    time 0, [max(span, 1), 2, H, W]."""
    tpl = np.zeros((max(class_span(times), 1), 2, *grid), dtype=np.uint8)
    for (p, y, x), t in times.items():
        tpl[t, p, y, x] = 1
    return tpl


def gen_synthetic(spec: SyntheticSpec, n_per_class, seed_offset: int = 0) -> list[FrameSequence]:
    """Generate labeled samples, deterministic in (spec.seed + seed_offset).

    ``n_per_class`` is an int or one count per class. Each sample places its
    class pattern at a uniformly drawn onset (0 when there is no slack) and
    adds Bernoulli noise at ``spec.noise_rate`` per cell per bin.
    """
    class_times = validate_spec(spec)
    if np.isscalar(n_per_class):
        counts = [int(n_per_class)] * spec.n_classes
    else:
        counts = [int(c) for c in n_per_class]
        if len(counts) != spec.n_classes:
            raise InvalidSpec("n_per_class must give one count per class")
    rng = np.random.default_rng(spec.seed + seed_offset)
    samples: list[FrameSequence] = []
    for k, times in enumerate(class_times):
        slack = spec.pattern_length - class_span(times)
        for _ in range(counts[k]):
            onset = int(rng.integers(0, slack + 1)) if slack > 0 else 0
            frames = np.zeros((spec.pattern_length, 2, *spec.grid), dtype=np.uint8)
            for (p, y, x), t in times.items():
                frames[onset + t, p, y, x] = 1
            if spec.noise_rate > 0.0:
                frames |= (rng.random(frames.shape) < spec.noise_rate).astype(np.uint8)
            samples.append(FrameSequence(frames, bin_width_ms=1.0, label=k, subject_id=0))
    return samples


def template_classify(spec: SyntheticSpec, samples: list[FrameSequence]) -> np.ndarray:
    """Predict labels by best shifted-correlation against class templates."""
    templates = [class_template(times, spec.grid) for times in validate_spec(spec)]
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


def _sweep(lines, step_bins: int) -> tuple:
    """Edges of a bar sweeping along each of ``lines``, lists of the (y, x)
    cells in the order the bar passes them: each ON cell fires
    ``step_bins`` after the one before it on its line, and each OFF cell,
    listed line by line in grid order, one bin after its ON cell."""
    edges = []
    for line in lines:
        edges += [((0, *a), (0, *b), step_bins) for a, b in zip(line, line[1:])]
        edges += [((0, *c), (1, *c), 1) for c in sorted(line)]
    return tuple(edges)


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
    rows = [[(y, c) for c in range(w)] for y in range(h)]
    classes = (
        _sweep(rows, step_bins),  # rightward: column c fires step_bins after column c-1
        _sweep([row[::-1] for row in rows], step_bins),  # leftward
        _sweep([[(r, x) for r in range(h)] for x in range(w)], step_bins),  # downward
    )
    spec = SyntheticSpec(
        n_classes=3,
        pattern_length=pattern_length,
        grid=grid,
        embedded_delays=classes,
        noise_rate=noise_rate,
        seed=seed,
    )
    validate_spec(spec)
    return spec
