"""Homeostatic gains, threshold steps, decision balancing, gating, freezing."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronospike.config import RegulationParams
from chronospike.regulation import (
    DecentralizeGate,
    FreezeTracker,
    decision_gains,
    ema_alpha,
    ema_update,
    interval_gain,
    threshold_step,
)

REG = RegulationParams(r_min=1.0, r_max=6.0, k_min=1.0, k_max=0.5)


def test_ema_alpha_span_convention():
    assert ema_alpha(19) == pytest.approx(0.1)
    assert ema_alpha(1) == pytest.approx(1.0)


def test_ema_update_in_place():
    trace = np.array([0.0, 2.0])
    ema_update(trace, np.array([10.0, 2.0]), window=19)
    assert trace[0] == pytest.approx(1.0)
    assert trace[1] == pytest.approx(2.0)


def test_interval_gain_worked_examples():
    # over-active at twice the cap: 0.5 * (6 - 12) / 6 = -0.5
    assert interval_gain(np.array([12.0]), REG)[0] == pytest.approx(-0.5)
    # silent neuron: 1.0 * (1 - 0) / 1 = +1
    assert interval_gain(np.array([0.0]), REG)[0] == pytest.approx(1.0)


def test_interval_gain_dead_zone_is_bitwise_zero():
    inside = np.array([1.0, 2.5, 6.0])  # bounds are inclusive
    k = interval_gain(inside, REG)
    assert (k == 0.0).all()
    # bit-identical to a fresh zeros array
    assert k.tobytes() == np.zeros_like(k).tobytes()


def test_interval_gain_signs():
    r = np.array([0.2, 0.9, 1.0, 3.0, 6.0, 6.1, 30.0])
    k = interval_gain(r, REG)
    assert (k[:2] > 0).all()
    assert (k[2:5] == 0).all()
    assert (k[5:] < 0).all()


@given(
    r=st.lists(
        st.floats(min_value=1.0, max_value=6.0, allow_nan=False), min_size=1, max_size=50
    )
)
@settings(max_examples=100)
def test_interval_gain_zero_anywhere_inside(r):
    k = interval_gain(np.array(r), REG)
    assert k.tobytes() == np.zeros(len(r)).tobytes()


def test_threshold_step_directions():
    reg = RegulationParams(r_min=1.0, r_max=6.0, theta_inc=0.02, theta_dec=0.03)
    step = threshold_step(np.array([0.5, 3.0, 8.0]), reg)
    assert step[0] == pytest.approx(-0.03)  # under-active: lower the bar
    assert step[1] == 0.0
    assert step[2] == pytest.approx(0.02)  # over-active: raise it


# -- decision window ---------------------------------------------------------


def test_decision_window_counts_and_gains():
    gains = decision_gains(deque([0, 0, 0, 1], maxlen=20), 2)
    # target is an equal share of the 4 decisions: 2 each
    assert gains[0] == pytest.approx(-0.5)
    assert gains[1] == pytest.approx(0.5)


def test_decision_gains_of_an_empty_window_are_zero():
    gains = decision_gains(deque(maxlen=10), 2)
    assert gains.tolist() == [0.0, 0.0]


def test_decision_window_evicts_oldest():
    win = deque(maxlen=3)
    win.extend((0, 0, 0, 1, 1, 1))
    assert list(win) == [1, 1, 1]
    # the target is 1.5 each; class 1 holds all 3, class 0 none
    assert decision_gains(win, 2).tolist() == [1.0, -1.0]


def test_decision_window_balanced_is_zero():
    assert (decision_gains(deque((0, 1, 2) * 5, maxlen=30), 3) == 0.0).all()


# -- decentralization gate ------------------------------------------------------


def make_gate(dc=2):
    class_of = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return DecentralizeGate(class_of, dc)


def test_gate_first_come_first_served():
    gate = make_gate()
    allowed = gate.filter(np.array([0, 1, 2, 3]))
    assert allowed.tolist() == [True, True, False, False]
    assert gate.group_count.tolist() == [2, 0]


def test_gate_committed_neurons_keep_firing():
    gate = make_gate()
    gate.filter(np.array([1]))
    gate.filter(np.array([2]))
    allowed = gate.filter(np.array([1, 3]))
    assert allowed.tolist() == [True, False]


def test_gate_groups_independent():
    gate = make_gate()
    allowed = gate.filter(np.array([0, 1, 2, 4, 5, 6]))
    assert allowed.tolist() == [True, True, False, True, True, False]
    assert gate.group_count.tolist() == [2, 2]


def test_gate_ties_resolve_to_lowest_index():
    gate = make_gate(dc=1)
    allowed = gate.filter(np.array([2, 3]))  # same bin, ascending order
    assert allowed.tolist() == [True, False]


def test_gate_disabled_passes_everything():
    # with decentralization disabled the cap is the layer size, which no
    # group can reach
    gate = make_gate(dc=8)
    for cand in ([0, 1, 2, 3], [4, 5, 6, 7], [0, 3, 5]):
        assert gate.may_fire().all()
        assert gate.filter(np.array(cand)).all()
    assert gate.may_fire().all()


def test_gate_never_exceeds_cap_under_fuzz():
    rng = np.random.default_rng(0)
    class_of = np.repeat(np.arange(4), 5)
    for _ in range(200):
        gate = DecentralizeGate(class_of, 2)
        fired = np.zeros(20, dtype=np.int64)
        for _bin in range(30):
            cand = np.nonzero(rng.random(20) < 0.2)[0]
            if cand.size == 0:
                continue
            allowed = gate.filter(cand)
            newly = cand[allowed]
            fired[newly] += 1
        per_group = np.zeros(4, dtype=np.int64)
        np.add.at(per_group, class_of, (fired > 0).astype(np.int64))
        assert (per_group <= 2).all()
        assert (gate.group_count <= 2).all()


# -- freeze tracker -----------------------------------------------------------


def tracker(n: int, threshold: float, window: int) -> FreezeTracker:
    return FreezeTracker(np.zeros(n), np.zeros(n, np.int64), np.zeros(n, bool), threshold, window)


def test_freeze_requires_window_observations():
    tr = tracker(2, threshold=0.01, window=3)
    for _ in range(2):
        tr.update(np.zeros(2))
    assert not tr.frozen.any()
    tr.update(np.zeros(2))
    assert tr.frozen.all()
    assert tr.all_frozen


def test_active_units_do_not_freeze():
    tr = tracker(2, threshold=0.01, window=3)
    for _ in range(10):
        tr.update(np.array([0.0, 0.5]))
    assert tr.frozen.tolist() == [True, False]


def test_freeze_is_sticky():
    tr = tracker(1, threshold=0.01, window=2)
    tr.update(np.zeros(1))
    tr.update(np.zeros(1))
    assert tr.frozen[0]
    ema_before = tr.ema[0]
    tr.update(np.array([99.0]))
    assert tr.frozen[0]
    assert tr.ema[0] == ema_before  # frozen units stop observing


def test_freeze_after_settling():
    tr = tracker(1, threshold=0.05, window=5)
    for v in (1.0, 0.8, 0.5, 0.2, 0.1, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0):
        tr.update(np.array([v]))
    assert tr.frozen[0]

