"""Synthetic pattern generator and its template-matching oracle."""

import numpy as np
import pytest

from chronospike.config import SyntheticSpec
from chronospike.synthetic import (
    InvalidSpec,
    class_cell_times,
    class_span,
    class_template,
    gen_synthetic,
    moving_bars_spec,
    oracle_accuracy,
    template_classify,
    validate_spec,
)


def chain_spec(noise=0.0, seed=0, pattern_length=12):
    # two classes over a 4x4 grid, distinguished only by lag structure
    a = (((0, 0, 0), (0, 0, 1), 2), ((0, 0, 1), (0, 0, 2), 2))
    b = (((0, 0, 0), (0, 0, 1), 5), ((0, 0, 1), (0, 0, 2), 1))
    return SyntheticSpec(
        n_classes=2,
        pattern_length=pattern_length,
        grid=(4, 4),
        embedded_delays=(a, b),
        noise_rate=noise,
        seed=seed,
    )


def test_cell_times_propagate_lags():
    times = class_cell_times(chain_spec(), 0)
    assert times[(0, 0, 0)] == 0
    assert times[(0, 0, 1)] == 2
    assert times[(0, 0, 2)] == 4
    assert class_span(chain_spec(), 0) == 5


def test_template_places_roots_at_zero():
    tpl = class_template(chain_spec(), 1)
    assert tpl.shape == (7, 2, 4, 4)
    assert tpl[0, 0, 0, 0] == 1
    assert tpl[5, 0, 0, 1] == 1
    assert tpl[6, 0, 0, 2] == 1
    assert tpl.sum() == 3


def test_cycle_detected():
    cyc = (((0, 0, 0), (0, 0, 1), 1), ((0, 0, 1), (0, 0, 0), 1))
    spec = SyntheticSpec(
        n_classes=1, pattern_length=10, grid=(2, 2), embedded_delays=(cyc,), noise_rate=0.0
    )
    with pytest.raises(InvalidSpec):
        validate_spec(spec)


def test_conflicting_lags_detected():
    # two paths to the same cell with different arrival times
    bad = (
        ((0, 0, 0), (0, 0, 2), 1),
        ((0, 0, 1), (0, 0, 2), 3),
    )
    spec = SyntheticSpec(
        n_classes=1, pattern_length=10, grid=(2, 4), embedded_delays=(bad,), noise_rate=0.0
    )
    with pytest.raises(InvalidSpec):
        validate_spec(spec)


def test_span_must_fit_pattern_length():
    spec = chain_spec(pattern_length=4)  # class 1 spans 7
    with pytest.raises(InvalidSpec):
        validate_spec(spec)


def test_noiseless_samples_are_shifted_templates():
    spec = chain_spec(noise=0.0, seed=3)
    samples = gen_synthetic(spec, 6)
    assert len(samples) == 12
    for s in samples:
        tpl = class_template(spec, s.label)
        span = tpl.shape[0]
        total = s.frames.sum()
        assert total == tpl.sum()
        onsets = [
            shift
            for shift in range(s.frames.shape[0] - span + 1)
            if (s.frames[shift : shift + span] == tpl).all()
            and s.frames[:shift].sum() == 0
            and s.frames[shift + span :].sum() == 0
        ]
        assert len(onsets) == 1


def test_generation_deterministic_in_seed():
    spec = chain_spec(noise=0.05, seed=11)
    a = gen_synthetic(spec, 4)
    b = gen_synthetic(spec, 4)
    for s1, s2 in zip(a, b):
        np.testing.assert_array_equal(s1.frames, s2.frames)
    c = gen_synthetic(spec, 4, seed_offset=1)
    assert any((s1.frames != s3.frames).any() for s1, s3 in zip(a, c))


def test_per_class_counts():
    spec = chain_spec()
    samples = gen_synthetic(spec, [3, 5])
    labels = [s.label for s in samples]
    assert labels.count(0) == 3
    assert labels.count(1) == 5
    with pytest.raises(InvalidSpec):
        gen_synthetic(spec, [3])


def test_template_classifier_on_noiseless_data():
    spec = chain_spec(noise=0.0)
    samples = gen_synthetic(spec, 10)
    assert oracle_accuracy(spec, samples) == 1.0


def test_template_classifier_tolerates_noise():
    spec = moving_bars_spec(grid=(8, 8), pattern_length=50, noise_rate=0.01, seed=0)
    samples = gen_synthetic(spec, 30)
    assert oracle_accuracy(spec, samples) == 1.0


def test_moving_bars_structure():
    spec = moving_bars_spec(grid=(8, 8), pattern_length=50, step_bins=3)
    assert spec.n_classes == 3
    right = class_cell_times(spec, 0)
    # ON column c fires at 3c, its OFF trail one bin later
    for c in range(8):
        assert right[(0, 2, c)] == 3 * c
        assert right[(1, 2, c)] == 3 * c + 1
    left = class_cell_times(spec, 1)
    assert left[(0, 2, 7)] == 0
    assert left[(0, 2, 0)] == 21
    down = class_cell_times(spec, 2)
    assert down[(0, 0, 4)] == 0
    assert down[(0, 7, 4)] == 21
    # identical spatial statistics: every class touches every cell once
    for k in range(3):
        assert class_template(spec, k).sum() == 2 * 64


def test_classes_differ_only_in_timing():
    spec = moving_bars_spec(noise_rate=0.0)
    samples = gen_synthetic(spec, 2)
    collapsed = [s.frames.max(axis=0) for s in samples]
    for c in collapsed[1:]:
        np.testing.assert_array_equal(c, collapsed[0])


def single_motif_spec(length: int, lag: int) -> SyntheticSpec:
    """One-class chain motif of ``length`` cells along a row of a 6x6 grid."""
    y = 3
    edges = tuple(((0, y, c), (0, y, c + 1), lag) for c in range(length - 1))
    spec = SyntheticSpec(n_classes=1, pattern_length=30, grid=(6, 6), embedded_delays=(edges,), noise_rate=0.0)
    validate_spec(spec)
    return spec


def test_single_motif_is_one_chain():
    spec = single_motif_spec(length=5, lag=2)
    times = class_cell_times(spec, 0)
    assert len(times) == 5
    assert class_span(spec, 0) == 9
    samples = gen_synthetic(spec, 3)
    assert all(s.label == 0 for s in samples)
    assert all(s.frames.sum() == 5 for s in samples)
