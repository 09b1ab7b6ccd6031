"""LIF stepping and delayed delivery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronospike import build_network, gen_synthetic, run_presentation
from chronospike.config import LIFParams
from chronospike.core import DelayBuffer, DelayOutOfRange, lif_integrate, lif_step
from conftest import tiny_cfg

LIF = LIFParams(tau_m=10.0, t_ref=1, v_reset=0.0)
FAR_PAST = -(1 << 30)


def test_leak_frozen_value():
    v = np.array([1.0])
    refr = np.array([FAR_PAST])
    v, _, spiked = lif_step(v, np.array([0.0]), 0, np.array([10.0]), refr, LIF)
    assert not spiked[0]
    # exp(-1/10), one bin of pure decay
    assert v[0] == pytest.approx(0.9048374180359595, abs=0, rel=1e-15)


def test_integration_accumulates_subthreshold():
    # leak applies first, then input: v_{t+1} = v_t * decay + I
    v = np.zeros(1)
    refr = np.array([FAR_PAST])
    theta = np.array([10.0])
    for t in range(3):
        v, refr, spiked = lif_step(v, np.array([0.5]), t, theta, refr, LIF)
        assert not spiked[0]
    decay = np.exp(-0.1)
    assert v[0] == pytest.approx(0.5 * (1 + decay + decay**2), rel=1e-12)


def test_fire_and_reset():
    v = np.zeros(1)
    refr = np.array([FAR_PAST], dtype=np.int64)
    theta = np.array([1.0])
    v, refr, spiked = lif_step(v, np.array([1.5]), 5, theta, refr, LIF)
    assert spiked[0]
    assert v[0] == 0.0
    assert refr[0] == 6


def test_refractory_blocks_input_but_not_leak():
    p = LIFParams(tau_m=10.0, t_ref=3, v_reset=0.25)
    v = np.array([0.8])
    refr = np.array([5], dtype=np.int64)  # refractory through t=5
    v1, open_mask = lif_integrate(v, np.array([2.0]), 4, refr, p)
    assert not open_mask[0]
    assert v1[0] == pytest.approx(0.8 * np.exp(-0.1), rel=1e-15)  # leak only
    v2, open_mask = lif_integrate(v1, np.array([2.0]), 5, refr, p)
    assert not open_mask[0]  # t == refractory_until still closed
    v3, open_mask = lif_integrate(v2, np.array([2.0]), 6, refr, p)
    assert open_mask[0]
    assert v3[0] == pytest.approx(v2[0] * np.exp(-0.1) + 2.0, rel=1e-15)


def test_refractory_neuron_cannot_fire():
    v = np.array([0.0])
    refr = np.array([10], dtype=np.int64)
    _, _, spiked = lif_step(v, np.array([99.0]), 7, np.array([1.0]), refr, LIF)
    assert not spiked[0]


def test_spike_at_exact_threshold():
    v = np.zeros(1)
    refr = np.array([FAR_PAST], dtype=np.int64)
    v, _, spiked = lif_step(v, np.array([1.0]), 0, np.array([1.0]), refr, LIF)
    assert spiked[0]


# -- DelayBuffer ----------------------------------------------------------------


def test_delivery_lands_exactly_delay_bins_later():
    buf = DelayBuffer(10, 3, 5)
    assert buf.last == -1
    buf.schedule(np.array([1]), np.array([0.7]), np.array([3]), t_emit=2)
    for t in range(0, 5):
        assert buf.read(t).tolist() == [0.0, 0.0, 0.0]
    assert buf.read(5).tolist() == [0.0, 0.7, 0.0]
    assert buf.last == 5


def test_zero_delay_delivers_same_bin():
    buf = DelayBuffer(10, 2, 4)
    buf.schedule(np.array([0]), np.array([1.0]), np.array([0]), t_emit=7)
    assert buf.read(7).tolist() == [1.0, 0.0]


def test_same_slot_accumulates():
    buf = DelayBuffer(4, 1, 4)
    buf.schedule(np.array([0, 0]), np.array([0.5, 0.25]), np.array([2, 2]), t_emit=0)
    buf.schedule(np.array([0]), np.array([0.125]), np.array([1]), t_emit=1)
    assert buf.read(0)[0] == 0.0
    assert buf.read(1)[0] == 0.0
    assert buf.read(2)[0] == 0.875


def test_delay_out_of_range_raises():
    buf = DelayBuffer(10, 1, 4)
    for delay in (-1, 5):
        with pytest.raises(DelayOutOfRange, match=f"delay {delay} outside"):
            buf.schedule(np.array([0]), np.array([1.0]), np.array([delay]), t_emit=3)
    assert not buf.rows.any() and buf.last == -1
    # delays are clamped when quantized, so this is an internal fault, not bad input
    assert issubclass(DelayOutOfRange, RuntimeError) and not issubclass(DelayOutOfRange, ValueError)


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # emission bin
            st.integers(min_value=0, max_value=6),  # delay
            st.integers(min_value=0, max_value=4),  # target
        ),
        max_size=60,
    ),
    together=st.booleans(),
)
@settings(max_examples=120)
def test_scheduled_equals_delivered(events, together):
    """Conservation: every scheduled weight is read exactly once, at
    emission + delay, whether the events are scheduled one by one or in one
    broadcast call; ``last`` is the largest row written."""
    buf = DelayBuffer(37, 5, 6)
    expected = np.zeros((37, 5))
    for t_emit, d, tgt in events:
        expected[t_emit + d, tgt] += 1.0
    if together and events:
        t_emit, d, tgt = np.array(events).T
        buf.schedule(tgt, 1.0, d, t_emit)
    else:
        for t_emit, d, tgt in events:
            buf.schedule(np.array([tgt]), np.array([1.0]), np.array([d]), t_emit=t_emit)
    got = np.array([buf.read(t) for t in range(37)])
    np.testing.assert_array_equal(got, expected)
    assert buf.last == max((t + d for t, d, _ in events), default=-1)


# -- presentation readout ----------------------------------------------------------


def test_decision_counts_and_first_spike():
    """Each class's count and earliest bin are those of its decision spikes."""
    cfg = tiny_cfg()
    frames = gen_synthetic(cfg.synthetic, 1)[0].frames
    net = build_network(cfg, frames.shape[1:])
    pres = run_presentation(net, frames)
    assert pres.conv_spikes is not None
    assert run_presentation(net, frames, pooled=(pres.pooled_t, pres.pooled_unit)).conv_spikes is None
    assert pres.decision_t.size
    cls = net.class_of[pres.decision_neuron]
    for c in range(net.n_classes):
        assert pres.counts[c] == np.count_nonzero(cls == c)
        assert pres.first_class[c] == min(pres.decision_t[cls == c].tolist(), default=np.inf)


def test_empty_record_counts():
    """A presentation without decision spikes counts 0 and has no first bin."""
    cfg = tiny_cfg()
    frames = gen_synthetic(cfg.synthetic, 1)[0].frames
    net = build_network(cfg, frames.shape[1:])
    net.wf[:] = 0.0
    pres = run_presentation(net, frames)
    assert not pres.decision_t.size
    assert pres.counts.tolist() == [0] * net.n_classes
    assert np.isinf(pres.first_class).all()
