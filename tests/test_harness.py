"""Presentation engine, reward and vote, training loop invariants."""

import copy
import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import tiny_cfg
from test_plasticity import (
    clamp_delays,
    clamp_excitatory_weights,
    clamp_inhibitory_weights,
    ref_exc_delay,
    ref_inh_delay,
    ref_pairs,
    ref_weight,
)

from chronospike import gen_synthetic, harness, moving_bars_spec
from chronospike import plasticity as pl
from chronospike.config import ConfigError, HarnessParams, LIFParams, PlasticityParams, RegulationParams
from chronospike import core
from chronospike.core import DelayBuffer, DelayOutOfRange, lif_integrate, lif_step
from chronospike.events import FrameSequence
from chronospike.harness import (
    _apply_decision_plasticity,
    _apply_neuron_gain,
    _conv_pair_deltas,
    _conv_sim,
    _decision_pair_deltas,
    FLUSH_FACTOR,
    _decision_sim,
    _lateral_domain,
    _step,
    build_pooled_cache,
    compute_reward,
    evaluate,
    frames_sweep,
    majority_vote,
    run_presentation,
    train,
    train_layer1,
    train_layer2,
)
from chronospike.plasticity import (
    LATERAL_DELAY_FLOOR,
    delay_bins,
    stdp_weight_delta,
    unsupervised_delay_delta,
)
from chronospike.presets import moving_bars_acceptance_config
from chronospike.regulation import DecentralizeGate, decision_gains
from chronospike.topology import (
    Network,
    build_network,
    conv_forward_currents,
    layer1_hash,
    load_checkpoint,
    save_checkpoint,
    state_hash,
)


def samples_for(cfg):
    return gen_synthetic(cfg.synthetic, cfg.synthetic_train_per_class, seed_offset=0)


# -- reward and vote -------------------------------------------------------


def test_reward_balanced_is_zero():
    assert compute_reward(np.array([5, 5]), 0, kappa=0.1) == 0.0


def test_reward_saturates_at_clip():
    assert compute_reward(np.array([10, 0]), 0, kappa=0.1) == 1.0
    assert compute_reward(np.array([0, 10]), 0, kappa=0.1) == -1.0
    assert compute_reward(np.array([10, 0]), 0, kappa=0.1, clip_val=0.5) == 0.5


def test_reward_linear_inside_clip():
    assert compute_reward(np.array([3, 1]), 0, kappa=0.1) == pytest.approx(0.2)
    assert compute_reward(np.array([3, 1]), 1, kappa=0.1) == pytest.approx(-0.2)


def test_majority_vote_plain():
    assert majority_vote(np.array([3, 7, 2]), np.array([4.0, 2.0, 9.0])) == 1


def test_majority_vote_abstains_without_spikes():
    assert majority_vote(np.zeros(3, np.int64), np.full(3, np.inf)) is None


def test_majority_vote_tie_earliest_first_spike():
    assert majority_vote(np.array([4, 4, 1]), np.array([6.0, 3.0, 1.0])) == 1


def test_majority_vote_double_tie_lowest_index():
    assert majority_vote(np.array([4, 4]), np.array([2.0, 2.0])) == 0


# -- decision-layer micro-simulations ------------------------------------------


def bare_net(**kw):
    """Tiny network with all decision-layer inputs zeroed for manual wiring."""
    cfg = tiny_cfg(**kw)
    net = build_network(cfg, (2, 6, 6))
    net.wf[:] = 0.0
    net.df[:] = 0.0
    if net.lat_w.size:
        net.lat_w[:] = 0.0
        net.lat_d[:] = 1.0
    return net


def open_gate(net):
    return DecentralizeGate(net.class_of, net.n_dec)


def test_forward_delivery_timing():
    net = bare_net()
    net.wf[0, 3] = 2.0
    net.df[0, 3] = 4.2  # quantizes to 4 bins
    dec_t, dec_j = _decision_sim(
        net, np.array([2], np.int64), np.array([3], np.int64), 24, open_gate(net)
    )
    assert dec_t.tolist() == [6]
    assert dec_j.tolist() == [0]


def test_delivery_after_input_window_still_lands():
    net = bare_net()
    net.wf[1, 0] = 2.0
    net.df[1, 0] = 8.0
    # pooled spike near the end of a short window: delivery at 23 + 8 = 31 > 24
    dec_t, dec_j = _decision_sim(
        net, np.array([23], np.int64), np.array([0], np.int64), 24, open_gate(net)
    )
    assert dec_t.tolist() == [31]
    assert dec_j.tolist() == [1]


def test_lateral_delivery_and_sign():
    net = bare_net()
    net.wf[0, 0] = 2.0
    net.df[0, 0] = 1.0
    # manual lateral wiring: 0 excites 5, 0 inhibits nobody
    net.lat_src = np.array([0], np.int64)
    net.lat_tgt = np.array([5], np.int64)
    net.lat_w = np.array([3.0])
    net.lat_d = np.array([2.0])
    dec_t, dec_j = _decision_sim(
        net, np.array([0], np.int64), np.array([0], np.int64), 24, open_gate(net)
    )
    fired = dict(zip(dec_j.tolist(), dec_t.tolist()))
    assert fired[0] == 1
    assert fired[5] == 3  # 1 + lateral delay 2


def test_inhibitory_lateral_suppresses():
    net = bare_net()
    # target gets exactly threshold current at t=3 through the forward path
    net.wf[5, 0] = 1.0
    net.df[5, 0] = 3.0
    net.wf[0, 1] = 2.0
    net.df[0, 1] = 0.0
    net.lat_src = np.array([0], np.int64)
    net.lat_tgt = np.array([5], np.int64)
    net.lat_w = np.array([-5.0])
    net.lat_d = np.array([3.0])
    # neuron 0 fires at t=0, its inhibition lands at t=3 alongside the
    # forward drive of neuron 5 and cancels it
    dec_t, dec_j = _decision_sim(
        net, np.array([0, 0], np.int64), np.array([0, 1], np.int64), 24, open_gate(net)
    )
    assert 5 not in dec_j.tolist()
    assert 0 in dec_j.tolist()


def test_gate_caps_distinct_neurons_per_group():
    net = bare_net()
    grp0 = np.nonzero(net.class_of == 0)[0]
    for j in grp0:
        net.wf[j, 0] = 2.0
        net.df[j, 0] = 0.0
    gate = DecentralizeGate(net.class_of, 2)
    dec_t, dec_j = _decision_sim(
        net, np.array([1], np.int64), np.array([0], np.int64), 24, gate
    )
    assert len(set(dec_j.tolist())) == 2
    assert set(dec_j.tolist()) == {grp0[0], grp0[1]}  # lowest indices win the tie
    assert gate.group_count[0] == 2


def test_each_presentation_starts_with_empty_groups():
    # sample A drives neurons 0 and 1 of class 0 and fills the group (cap
    # 2); sample B drives neurons 2 and 3. B must fire both whether or not A
    # ran before it: a presentation's gate starts with no group committed.
    net = bare_net()
    net.wf[:2, 0] = 2.0  # A: pooled unit 0
    net.wf[2:4, 1] = 2.0  # B: pooled unit 1
    frames = np.zeros((24, 2, 6, 6))

    def run(unit):
        return run_presentation(net, frames, pooled=(np.array([1], np.int64), np.array([unit], np.int64)))

    first_b, a, second_b = run(1), run(0), run(1)
    assert a.decision_neuron.tolist() == [0, 1]
    assert first_b.decision_neuron.tolist() == [2, 3]
    for f in dataclasses.fields(first_b):
        np.testing.assert_array_equal(getattr(first_b, f.name), getattr(second_b, f.name), err_msg=f.name)


def test_refractory_spacing_in_decision_layer():
    cfg = tiny_cfg(lif=dataclasses.replace(tiny_cfg().lif, t_ref=3))
    net = build_network(cfg, (2, 6, 6))
    net.wf[:] = 0.0
    net.df[:] = 0.0
    if net.lat_w.size:
        net.lat_w[:] = 0.0
    net.wf[2, 0] = 5.0
    net.df[2, 0] = 0.0
    net.wf[2, 1] = 5.0
    net.df[2, 1] = 2.0  # second delivery arrives during refractory: discarded
    net.wf[2, 2] = 5.0
    net.df[2, 2] = 6.0
    dec_t, dec_j = _decision_sim(
        net,
        np.array([0, 0, 0], np.int64),
        np.array([0, 1, 2], np.int64),
        24,
        open_gate(net),
    )
    mine = sorted(t for t, j in zip(dec_t.tolist(), dec_j.tolist()) if j == 2)
    assert mine == [0, 6]


def test_self_sustaining_loop_stops_at_hard_cap():
    # Neurons 0 and 1 excite each other one bin apart and never rest, so the
    # pair fires in every bin until the cap: input ends at bin 4 and the last
    # forward arrival is bin 0, so the cap is 4 + FLUSH_FACTOR * (d_max + 1).
    net = bare_net(lif=LIFParams(t_ref=0))
    net.wf[0, 0] = 2.0
    net.lat_src = np.array([0, 1], np.int64)
    net.lat_tgt = np.array([1, 0], np.int64)
    net.lat_w = np.array([2.0, 2.0])
    net.lat_d = np.array([1.0, 1.0])
    dec_t, dec_j = _decision_sim(net, np.array([0], np.int64), np.array([0], np.int64), 4, open_gate(net))
    hard_cap = 4 + FLUSH_FACTOR * (int(net.cfg.plasticity.d_max) + 1)
    assert dec_t.tolist() == list(range(hard_cap))
    assert dec_j.tolist() == [t % 2 for t in range(hard_cap)]


class RingBuffer:
    """Ring of per-future-bin input accumulators for one neuron population.

    ``read(t)`` must be called for consecutive bins; it drains and zeroes
    the slot for bin t. ``schedule`` adds a weight into the slot
    ``delay`` bins ahead. The horizon is ``d_max + 1`` slots, so a slot is
    always consumed before the writer can wrap back onto it.
    """

    def __init__(self, n_targets: int, d_max: float):
        self.d_max = int(round(d_max))
        self.horizon = self.d_max + 1
        self.ring = np.zeros((self.horizon, n_targets))
        self.slot_events = np.zeros(self.horizon, dtype=np.int64)

    def schedule(self, targets, weights, delays, t_now: int) -> None:
        targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        weights = np.broadcast_to(np.asarray(weights, dtype=float), targets.shape)
        delays = np.atleast_1d(np.asarray(delays, dtype=np.int64))
        delays = np.broadcast_to(delays, targets.shape)
        if delays.size and (delays.min() < 0 or delays.max() > self.d_max):
            bad = int(delays[(delays < 0) | (delays > self.d_max)][0])
            raise DelayOutOfRange(f"delay {bad} outside [0, {self.d_max}]")
        rows = (t_now + delays) % self.horizon
        np.add.at(self.ring, (rows, targets), weights)
        np.add.at(self.slot_events, rows, np.ones_like(rows))

    def read(self, t: int) -> np.ndarray:
        row = t % self.horizon
        out = self.ring[row].copy()
        self.ring[row] = 0.0
        self.slot_events[row] = 0
        return out

    @property
    def empty(self) -> bool:
        return int(self.slot_events.sum()) == 0


def loop_decision_sim(net, pooled_t, pooled_unit, t_input, gate):
    """Reference: the decision layer with a forward-current loop over pooled
    spikes and a lateral schedule per firing neuron, over its out-edges in
    edge order, through a :class:`RingBuffer` of d_max + 1 future bins."""
    lif = net.cfg.lif
    par = net.cfg.plasticity
    d_max_int = int(round(par.d_max))
    n = net.n_dec
    fwd_len = int(t_input) + 2 * (d_max_int + 1) + 2
    fcur = np.zeros((fwd_len, n))
    f_last = -1
    cols = np.arange(n)
    for t_u, u in zip(pooled_t, pooled_unit):
        rows = int(t_u) + delay_bins(net.df[:, u], par)
        fcur[rows, cols] += net.wf[:, u]
        f_last = max(f_last, int(rows.max()))
    out_edges = [np.nonzero(net.lat_src == j)[0] for j in range(n)]
    lat_dint = delay_bins(net.lat_d, par, LATERAL_DELAY_FLOOR)
    ring = RingBuffer(n, par.d_max)
    v = np.zeros(n)
    refr = np.full(n, -(1 << 30), dtype=np.int64)
    ts, js = [], []
    hard_cap = max(int(t_input), f_last + 1) + FLUSH_FACTOR * (d_max_int + 1)
    t = 0
    while t < hard_cap and (t < t_input or t <= f_last or not ring.empty):
        cur = ring.read(t)
        if t < fwd_len:
            cur = cur + fcur[t]
        v, open_mask = lif_integrate(v, cur, t, refr, lif)
        cand = np.nonzero(open_mask & (v >= net.theta))[0]
        if cand.size:
            fire = cand[gate.filter(cand)]
            if fire.size:
                v[fire] = lif.v_reset
                refr[fire] = t + lif.t_ref
                ts.extend([t] * fire.size)
                js.extend(int(j) for j in fire)
                for j in fire:
                    e = out_edges[j]
                    if e.size:
                        ring.schedule(net.lat_tgt[e], net.lat_w[e], lat_dint[e], t)
        t += 1
    return np.asarray(ts, np.int64), np.asarray(js, np.int64)


#: Weights whose sums depend on the order of the terms: 1 + 2**-53 rounds
#: back to 1, while 2**-53 + 2**-53 + 1 reaches the threshold 1 + 2**-52.
ORDERED_WEIGHTS = (1.0, 2.0**-53, -1.0)
THRESHOLDS = (1.0, 1.0 + 2.0**-52)


def order_net(tau_m=0.01, t_ref=3):
    """Four decision neurons in two classes, with no lateral edges yet.
    With ``tau_m`` tiny a neuron's potential is its input of the bin, so an
    addition order that differs from the reference's can flip a spike."""
    top = dataclasses.replace(tiny_cfg().topology, n_classes=2, n_per_class=2, p_lat=0.0)
    cfg = tiny_cfg(lif=LIFParams(tau_m=tau_m, t_ref=t_ref), topology=top, plasticity=PlasticityParams(d_max=3.0))
    return build_network(cfg, (2, 6, 6))


def assert_matches_loop(net, pooled_t, pooled_unit, gate_on):
    got, want = (
        sim(net, pooled_t, pooled_unit, 12, DecentralizeGate(net.class_of, 1 if gate_on else net.n_dec))
        for sim in (_decision_sim, loop_decision_sim)
    )
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decision_sim_matches_loop_reference(data):
    """Bit for bit, on nets with shuffled and repeated lateral edges, with
    the gate on and off. Refractory windows reach past the input (``t_ref``
    up to 20 against ``t_input`` 12), so the loop stops early once every
    group is full; every forward weight is 0 in some draws, and in some a
    threshold at or below 0 makes the loop start at bin 0."""
    draw = data.draw
    net = order_net(draw(st.sampled_from([0.01, 3.0])), draw(st.integers(0, 20)))
    n, n_pool, m = net.n_dec, net.n_pool, draw(st.integers(0, 60))
    net.wf = draw(
        st.one_of(
            st.just(np.zeros((n, n_pool))),
            hnp.arrays(float, (n, n_pool), elements=st.sampled_from((0.0,) + ORDERED_WEIGHTS)),
        )
    )
    net.df = draw(hnp.arrays(float, (n, n_pool), elements=st.floats(0.0, 3.0)))
    net.lat_src = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    net.lat_tgt = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    net.lat_w = draw(hnp.arrays(float, m, elements=st.sampled_from(ORDERED_WEIGHTS)))
    net.lat_d = draw(hnp.arrays(float, m, elements=st.floats(1.0, 3.0)))
    net.theta = draw(hnp.arrays(float, n, elements=st.sampled_from(THRESHOLDS)))
    if draw(st.integers(0, 3)) == 0:
        net.theta[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -1.0]))
    k = draw(st.integers(0, 12))
    pooled_t = draw(hnp.arrays(np.int64, k, elements=st.integers(0, 11)))
    pooled_unit = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n_pool - 1)))
    assert_matches_loop(net, pooled_t, pooled_unit, draw(st.booleans()))


def test_decision_sim_adds_in_reference_order():
    # Neurons 0 and 1 fire at bin 0. Each sends 1.0 and then eleven 2**-53
    # to one target, the edges of the two sources interleaved; twelve pooled
    # spikes send the same terms to neuron 2 at bin 2. In edge order and in
    # pooled-spike order the small terms round away, so no target fires.
    net = order_net()
    terms = [1.0] + [2.0**-53] * 11
    net.wf[:] = 0.0
    net.df[:] = 0.0
    net.wf[:2, 0] = 2.0
    net.wf[2, 1:13] = terms
    net.df[2, 1:13] = 2.0
    net.theta[:] = THRESHOLDS[1]
    net.lat_src = np.tile([1, 0], 12)
    net.lat_tgt = np.tile([3, 2], 12)
    net.lat_w = np.repeat(terms, 2)
    net.lat_d = np.ones(24)
    dec_t, dec_j = assert_matches_loop(net, np.zeros(13, np.int64), np.arange(13), False)
    assert dec_t.tolist() == [0, 0] and dec_j.tolist() == [0, 1]


def test_decision_sim_stops_once_every_class_group_is_full(monkeypatch):
    """A preset presentation at the initial weights fills every class group,
    after which the loop stops: it steps fewer bins (``lif_integrate``
    calls) than the reference loop over every bin, with the same outputs."""
    cfg = moving_bars_acceptance_config(0)
    sample = gen_synthetic(cfg.synthetic, 1)[0]
    net = build_network(cfg, sample.frames.shape[1:])
    _spikes, first = _conv_sim(net, sample.frames)
    pooled_t, pooled_unit = harness._pooled_spikes(net, first)
    bins = {}

    def counted(key):
        def integrate(*args):
            bins[key] = bins.get(key, 0) + 1
            return core.lif_integrate(*args)

        return integrate

    outs = []
    for key, sim in (("harness", _decision_sim), ("reference", loop_decision_sim)):
        monkeypatch.setattr(harness, "lif_integrate", counted(key))
        monkeypatch.setitem(globals(), "lif_integrate", counted(key))
        gate = DecentralizeGate(net.class_of, cfg.regulation.dc_upper)
        outs.append(sim(net, pooled_t, pooled_unit, sample.frames.shape[0], gate))
        assert (gate.group_count == cfg.regulation.dc_upper).all()
    for g, w in zip(*outs):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert 0 < bins["harness"] < bins["reference"]


def loop_conv_sim(net: Network, frames: np.ndarray):
    """Reference: the convolutional sheet stepped through every bin of its
    currents; returns (spike tensor, first-spike map)."""
    cur = conv_forward_currents(net, frames)
    t_tot = cur.shape[0]
    v = np.zeros(cur.shape[1:])
    refr = np.full(cur.shape[1:], -(1 << 30), dtype=np.int64)
    spikes = np.zeros(cur.shape, dtype=bool)
    first = np.full(cur.shape[1:], np.inf)
    theta = net.conv_theta[:, None, None]
    lif = net.cfg.lif
    for t in range(t_tot):
        v, refr, spk = lif_step(v, cur[t], t, theta, refr, lif)
        if spk.any():
            spikes[t] = spk
            first = np.where(spk & ~np.isfinite(first), float(t), first)
    return spikes, first


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_conv_sim_matches_loop_reference(data):
    """The conv sheet's spike tensor and first-spike map equal those of
    :func:`loop_conv_sim`, the loop over every bin, bit for bit: with
    ``t_ref`` from 0 to past the window, potentials exactly at ``theta``
    (with ``tau_m`` tiny a potential is its bin's input), negative currents,
    and bins in which every neuron fires."""
    draw = data.draw
    lif = LIFParams(tau_m=draw(st.sampled_from([0.01, 3.0])), t_ref=draw(st.integers(0, 24)))
    net = build_network(tiny_cfg(lif=lif), (2, 4, 4))
    shape = (draw(st.integers(1, 20)), net.n_maps) + net.conv_hw
    cur = draw(hnp.arrays(float, shape, elements=st.sampled_from((0.0, 0.5, 1.0, 2.0, -1.0))))
    for t in draw(st.lists(st.integers(0, shape[0] - 1), max_size=3)):
        cur[t] = 2.0
    net.conv_theta = draw(hnp.arrays(float, net.n_maps, elements=st.sampled_from((0.5, 1.0, 2.0))))
    frames = np.zeros((shape[0], 2, 4, 4))
    with (
        mock.patch.object(harness, "conv_forward_currents", lambda _net, _frames: cur),
        mock.patch.dict(globals(), conv_forward_currents=lambda _net, _frames: cur),
    ):
        got, want = _conv_sim(net, frames), loop_conv_sim(net, frames)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def old_schedule(buf, targets, weights, delays, t_emit) -> None:
    targets, weights, delays, t_emit = np.broadcast_arrays(targets, weights, delays, t_emit)
    if delays.size and (delays.min() < 0 or delays.max() > buf.d_max):
        bad = int(delays[(delays < 0) | (delays > buf.d_max)][0])
        raise DelayOutOfRange(f"delay {bad} outside [0, {buf.d_max}]")
    rows = t_emit + delays
    np.add.at(buf.rows.reshape(-1), (rows * buf.rows.shape[1] + targets).ravel(), weights.ravel())
    buf.last = max(buf.last, int(rows.max(initial=-1)))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_schedule_matches_old_copy(data):
    """``DelayBuffer.schedule`` writes and raises what its earlier version
    did, bit for bit, with arguments of one shape or broadcast (a row of
    targets against a column of emission bins, a scalar emission bin)."""
    draw = data.draw
    real = st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 2.0**-53))
    k = draw(st.integers(0, 6))
    targets = draw(hnp.arrays(np.int64, k, elements=st.integers(0, 3)))
    weights = draw(hnp.arrays(float, k, elements=real))
    delays = draw(hnp.arrays(np.int64, k, elements=st.integers(-1, 5)))
    t_emit = draw(st.one_of(st.integers(0, 4), hnp.arrays(np.int64, (draw(st.integers(0, 3)), 1), elements=st.integers(0, 4))))
    bufs = [DelayBuffer(12, 4, 4) for _ in range(2)]
    for buf, schedule in zip(bufs, (DelayBuffer.schedule, old_schedule)):
        try:
            schedule(buf, targets, weights, delays, t_emit)
            schedule(buf, targets[:1], weights[:1], delays[:1], 2)
        except DelayOutOfRange as e:
            buf.error = str(e)
    assert bufs[0].rows.tobytes() == bufs[1].rows.tobytes() and bufs[0].last == bufs[1].last
    assert getattr(bufs[0], "error", None) == getattr(bufs[1], "error", None)


# -- presentation purity --------------------------------------------------------


def test_run_presentation_leaves_state_untouched():
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    sample = samples_for(cfg)[0]
    before = state_hash(net)
    run_presentation(net, sample.frames)
    assert state_hash(net) == before


def test_pooled_cache_matches_fresh_run():
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    samples = samples_for(cfg)
    cache = build_pooled_cache(net, samples)
    for i, s in enumerate(samples[:4]):
        fresh = run_presentation(net, s.frames)
        cached = run_presentation(net, s.frames, pooled=cache[i])
        np.testing.assert_array_equal(fresh.decision_t, cached.decision_t)
        np.testing.assert_array_equal(fresh.decision_neuron, cached.decision_neuron)
        np.testing.assert_array_equal(fresh.counts, cached.counts)


def test_evaluate_touches_nothing():
    cfg = tiny_cfg()
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    train_layer1(net, samples)
    train_layer2(net, samples, build_pooled_cache(net, samples))
    before = state_hash(net)
    rng_before = net.rng.bit_generator.state["state"]["state"]
    evaluate(net, samples)
    evaluate(net, samples, limit_frames=10)
    assert state_hash(net) == before
    assert net.rng.bit_generator.state["state"]["state"] == rng_before


def test_evaluate_rejects_empty():
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    with pytest.raises(ValueError):
        evaluate(net, [])


def test_evaluate_refuses_the_default_label():
    """A sample left at ``FrameSequence``'s default label of -1 is refused,
    not counted into the last class's row."""
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    samples = samples_for(cfg)[:3]
    samples.append(FrameSequence(samples[0].frames, bin_width_ms=1.0))
    text = "evaluation set: sample 3 has label -1, not one of the classes 0..2"
    with pytest.raises(ConfigError, match=re.escape(text)):
        evaluate(net, samples)


def test_evaluate_refuses_frames_of_another_shape():
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    frames = np.zeros((24, 2, 8, 8), dtype=np.uint8)
    text = "evaluation set: sample 0 has frames (P, H, W) = (2, 8, 8), but the network takes (2, 6, 6)"
    with pytest.raises(ConfigError, match=re.escape(text)):
        evaluate(net, [FrameSequence(frames, bin_width_ms=1.0, label=0)])


def test_limit_frames_truncates_input():
    """``limit_frames=k`` scores, and dumps the spikes of, exactly the
    samples whose frames are cut to their first k bins."""
    cfg = tiny_cfg()
    samples = samples_for(cfg)
    net = train(cfg, samples).net
    for k in (1, 6, 12):
        cut = [dataclasses.replace(s, frames=s.frames[:k]) for s in samples]
        rows, want_rows = [], []
        got = evaluate(net, samples, limit_frames=k, spike_rows=rows)
        want = evaluate(net, cut, spike_rows=want_rows)
        assert rows == want_rows
        for f in dataclasses.fields(want):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), err_msg=f.name)


# -- training loop invariants ----------------------------------------------------


def test_train_deterministic():
    cfg = tiny_cfg(seed=5)
    samples = samples_for(cfg)
    res_a = train(cfg, list(samples))
    res_b = train(cfg, list(samples))
    assert state_hash(res_a.net) == state_hash(res_b.net)
    assert res_a.epochs_l1 == res_b.epochs_l1
    assert res_a.gate_violations == res_b.gate_violations == 0


def test_layer1_untouched_by_phase2():
    cfg = tiny_cfg()
    samples = samples_for(cfg)
    res = train(cfg, samples)
    assert res.layer1_hash_after_phase1 == res.layer1_hash_final


def test_phase1_changes_only_layer1():
    cfg = tiny_cfg()
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    wf0 = net.wf.copy()
    df0 = net.df.copy()
    theta0 = net.theta.copy()
    train_layer1(net, samples)
    np.testing.assert_array_equal(net.wf, wf0)
    np.testing.assert_array_equal(net.df, df0)
    np.testing.assert_array_equal(net.theta, theta0)
    assert net.phase == "layer2"


def test_disable_delay_learning_freezes_all_delays():
    cfg = tiny_cfg(disabled=("delay-learning",))
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    conv_d0 = net.conv_d.copy()
    df0 = net.df.copy()
    lat_d0 = net.lat_d.copy()
    train_layer1(net, samples)
    r2 = train_layer2(net, samples, build_pooled_cache(net, samples))
    np.testing.assert_array_equal(net.conv_d, conv_d0)
    np.testing.assert_array_equal(net.df, df0)
    np.testing.assert_array_equal(net.lat_d, lat_d0)
    # with no delay updates there is nothing to converge: phase runs its budget
    assert not r2.converged
    assert r2.epochs == cfg.harness.max_epochs_l2


def test_disable_delay_learning_still_trains_weights():
    cfg = tiny_cfg(disabled=("delay-learning",))
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    wf0 = net.wf.copy()
    train_layer1(net, samples)
    train_layer2(net, samples, build_pooled_cache(net, samples))
    assert (net.wf != wf0).any()


def test_zero_reward_applies_nothing():
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    deltas = (
        np.ones_like(net.wf),
        np.ones_like(net.df),
        np.ones_like(net.lat_w),
        np.ones_like(net.lat_d),
    )
    wf0 = net.wf.tobytes()
    df0 = net.df.tobytes()
    _apply_decision_plasticity(net, 0.0, deltas, True)
    assert net.wf.tobytes() == wf0
    assert net.df.tobytes() == df0


def test_shared_inhibitory_rules_use_excitatory_domain():
    for shared in (False, True):
        net = build_network(tiny_cfg(inh_rules_shared=shared), (2, 6, 6))
        inh_e = net.is_inh[net.lat_src]
        assert inh_e.any() and (net.lat_w[inh_e] < 0.0).all()
        rng = np.random.default_rng(3)
        deltas = (
            np.zeros_like(net.wf),
            np.zeros_like(net.df),
            rng.uniform(-0.5, 1.5, net.lat_w.shape),
            np.zeros_like(net.lat_d),
        )
        _apply_decision_plasticity(net, 1.0, deltas, True)
        _apply_neuron_gain(net, np.full(net.n_dec, 0.5), True)
        w_inh = net.lat_w[inh_e]
        if shared:
            assert w_inh.min() >= 0.0 and w_inh.max() <= net.cfg.plasticity.w_max
            assert (w_inh > 0.0).any()
        else:
            assert w_inh.max() <= 0.0 and w_inh.min() >= net.cfg.plasticity.w_inh_min


def test_abstaining_presentations_leave_decision_layer_unchanged():
    # a full window of class-0 verdicts has nonzero gains; presentations that
    # produce no verdict must not apply them again
    cfg = tiny_cfg(disabled=("homeo", "threshold"))
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    net.wf[:] = 0.0
    net.lat_w[:] = 0.0
    net.decision_window.extend([0] * 6)
    before = [a.copy() for a in (net.wf, net.df, net.lat_w, net.lat_d)]
    train_layer2(net, samples, build_pooled_cache(net, samples))
    for name, a, b in zip(("wf", "df", "lat_w", "lat_d"), before, (net.wf, net.df, net.lat_w, net.lat_d)):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert list(net.decision_window) == [0] * 6


def test_decision_window_counts_match_its_buffer(tmp_path):
    """The network's window fills to its length over phase-2 calls and
    survives a checkpoint round trip, and its gains follow a recount of its
    verdicts."""
    cfg = tiny_cfg(regulation=RegulationParams(decision_window_per_class=2))
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    cache = build_pooled_cache(net, samples)
    train_layer2(net, samples, cache)
    train_layer2(net, samples, cache)
    save_checkpoint(tmp_path / "ckpt.json", net)
    loaded = load_checkpoint(tmp_path / "ckpt.json")
    assert list(loaded.decision_window) == list(net.decision_window)
    for window in (net.decision_window, loaded.decision_window):
        assert len(window) == window.maxlen == 2 * net.n_classes
        counts = np.array([list(window).count(c) for c in range(net.n_classes)])
        np.testing.assert_array_equal(decision_gains(window, net.n_classes), (2 - counts) / 2)


def test_pair_deltas_empty_without_decision_spikes():
    cfg = tiny_cfg()
    net = build_network(cfg, (2, 6, 6))
    dwf, ddf, dlw, dld = _decision_pair_deltas(
        net,
        np.array([1, 2], np.int64),
        np.array([0, 1], np.int64),
        np.empty(0, np.int64),
        np.empty(0, np.int64),
    )
    assert dwf.sum() == 0 and ddf.sum() == 0 and dlw.sum() == 0 and dld.sum() == 0


# -- pair-delta oracles ------------------------------------------------------------
#
# Every synapse is paired on its own by the quadratic reference pairing of
# test_plasticity, and its rule kernels are summed with plain math.exp.


def _oracle_sums(pairs, d, delay_rule, par):
    dw = dd = 0.0
    for tp, tq in pairs:
        dt = tq - tp - d
        dw += ref_weight(dt, par)
        dd += delay_rule(dt, par)
    return dw, dd


def _times(mask):
    return np.nonzero(mask)[0].tolist()


@pytest.mark.parametrize("stride,hw", [(1, (6, 6)), (2, (8, 7))])
def test_conv_pair_deltas_match_per_synapse_oracle(stride, hw):
    top = dataclasses.replace(tiny_cfg().topology, stride=stride, pool=(1, 1))
    net = build_network(tiny_cfg(topology=top), (2,) + hw)
    par = net.cfg.plasticity
    rng = np.random.default_rng(stride)
    t_in = 20
    frames = (rng.random((t_in, 2) + hw) < 0.15).astype(np.uint8)
    spikes = rng.random((t_in + int(round(par.d_max)) + 1, net.n_maps) + net.conv_hw) < 0.1
    dw, dd = _conv_pair_deltas(net, frames, spikes)

    hc, wc = net.conv_hw
    dint = delay_bins(net.conv_d, par)
    want_w = np.zeros_like(dw)
    want_d = np.zeros_like(dd)
    for m, p, ky, kx in np.ndindex(net.conv_w.shape):
        for y in range(hc):
            for x in range(wc):
                pre = _times(frames[:, p, y * stride + ky, x * stride + kx])
                pairs = ref_pairs(pre, _times(spikes[:, m, y, x]), int(dint[m, p, ky, kx]))
                w, d = _oracle_sums(pairs, net.conv_d[m, p, ky, kx], ref_exc_delay, par)
                want_w[m, p, ky, kx] += w
                want_d[m, p, ky, kx] += d
    assert (want_w != 0.0).sum() > want_w.size // 2
    np.testing.assert_allclose(dw, want_w / (hc * wc), rtol=0, atol=1e-12)
    np.testing.assert_allclose(dd, want_d / (hc * wc), rtol=0, atol=1e-12)


def _decision_oracle(net, pooled_t, pooled_unit, dec_t, dec_j):
    par = net.cfg.plasticity
    posts = {j: dec_t[dec_j == j].tolist() for j in range(net.n_dec)}
    wf = np.zeros_like(net.wf)
    df = np.zeros_like(net.df)
    for j in range(net.n_dec):
        for t_u, u in zip(pooled_t.tolist(), pooled_unit.tolist()):
            pairs = ref_pairs([t_u], posts[j], int(delay_bins(net.df[j, u], par)))
            wf[j, u], df[j, u] = _oracle_sums(pairs, net.df[j, u], ref_exc_delay, par)
    lw = np.zeros_like(net.lat_w)
    ld = np.zeros_like(net.lat_d)
    for e, (s, j) in enumerate(zip(net.lat_src.tolist(), net.lat_tgt.tolist())):
        rule = ref_inh_delay if net.is_inh[s] and not net.cfg.inh_rules_shared else ref_exc_delay
        delay = int(delay_bins(net.lat_d[e], par, LATERAL_DELAY_FLOOR))
        lw[e], ld[e] = _oracle_sums(ref_pairs(posts[s], posts[j], delay), net.lat_d[e], rule, par)
    return wf, df, lw, ld


def _assert_decision_deltas(got, want):
    for name, g, w in zip(("wf", "df", "lat_w", "lat_d"), got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("shared", [False, True])
def test_decision_pair_deltas_match_per_synapse_oracle(shared):
    net = build_network(tiny_cfg(inh_rules_shared=shared), (2, 6, 6))
    inh_src = net.is_inh[net.lat_src]
    assert inh_src.any() and not inh_src.all()
    rng = np.random.default_rng(7)
    units = rng.choice(net.n_pool, size=net.n_pool // 2, replace=False)
    times = rng.integers(0, 24, units.size)
    order = np.argsort(times, kind="stable")
    pooled_t, pooled_unit = times[order], units[order]
    # several spikes per decision neuron, at most one per bin, in time order
    dec_t, dec_j = np.nonzero(rng.random((40, net.n_dec)) < 0.15)
    got = _decision_pair_deltas(net, pooled_t, pooled_unit, dec_t, dec_j)
    want = _decision_oracle(net, pooled_t, pooled_unit, dec_t, dec_j)
    assert (want[2] != 0.0).sum() > net.lat_w.size // 2
    _assert_decision_deltas(got, want)


def test_decision_pair_deltas_pair_late_forward_arrivals_with_last_post_spike():
    net = build_network(tiny_cfg(), (2, 6, 6))
    par = net.cfg.plasticity
    net.df[:, 2] = par.d_max
    # unit 2 spikes at 20 and arrives at 28, after every decision spike
    pooled_t = np.array([1, 20], np.int64)
    pooled_unit = np.array([0, 2], np.int64)
    dec_t = np.array([3, 5, 9, 12], np.int64)
    dec_j = np.array([0, 1, 0, 1], np.int64)
    got = _decision_pair_deltas(net, pooled_t, pooled_unit, dec_t, dec_j)
    _assert_decision_deltas(got, _decision_oracle(net, pooled_t, pooled_unit, dec_t, dec_j))
    dt = 9 - 20 - par.d_max
    assert got[0][0, 2] == pytest.approx(ref_weight(dt, par), rel=1e-15)
    assert got[1][0, 2] == pytest.approx(ref_exc_delay(dt, par), rel=1e-15)


def test_frozen_neuron_delays_pinned_during_phase2():
    cfg = tiny_cfg()
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    train_layer1(net, samples)
    net.frozen[:] = True
    net.frozen[0] = False
    df_before = net.df.copy()
    train_layer2(net, samples, build_pooled_cache(net, samples))
    np.testing.assert_array_equal(net.df[1:], df_before[1:])


def test_phases_converge_once_every_unit_freezes():
    """A reachable freeze rule ends each phase after the epoch in which its
    last unit froze, and the metrics rows say so."""
    hp = HarnessParams(max_epochs_l1=3, max_epochs_l2=3, kappa=0.1, freeze_scale=1.0, freeze_window=20)
    cfg = tiny_cfg(harness=hp)
    rows = []
    res = train(cfg, samples_for(cfg), metrics=rows.append)
    assert res.converged_l1 and res.converged_l2
    assert (res.epochs_l1, res.epochs_l2, res.presentations) == (2, 2, 72)
    for phase in ("layer1", "layer2"):
        phase_rows = [r for r in rows if r["phase"] == phase]
        assert len(phase_rows) == 36
        assert (phase_rows[-1]["epoch"], phase_rows[-1]["frozen_fraction"]) == (1, 1.0)
    assert res.net.conv_frozen.all() and res.net.frozen.all()


def test_train_rejects_empty_set():
    with pytest.raises(ValueError):
        train(tiny_cfg(), [])


def test_train_refuses_a_set_of_mixed_frame_shapes():
    cfg = tiny_cfg()
    samples = samples_for(cfg)[:2]
    samples.append(FrameSequence(samples[0].frames[:, :1], bin_width_ms=1.0, label=0))
    with pytest.raises(ConfigError, match=re.escape("training set: sample 2 has frames (P, H, W) = (1, 6, 6)")):
        train(cfg, samples)


def test_frames_sweep_returns_pairs():
    cfg = tiny_cfg()
    samples = samples_for(cfg)
    net = build_network(cfg, (2, 6, 6))
    out = frames_sweep(net, samples[:4], [4, 12, 24])
    assert [x for x, _ in out] == [4, 12, 24]
    assert all(0.0 <= acc <= 1.0 for _, acc in out)


# -- one in-domain step for every plastic block -----------------------------------
#
# The per-block steps and their callers as they stood before every update went
# through ``_step``, kept verbatim (with the clamp helpers of test_plasticity)
# as references for bit-identity.


def _inh_rule_edges(net) -> np.ndarray:
    if net.cfg.inh_rules_shared:
        return np.zeros(net.lat_src.size, dtype=bool)
    return net.is_inh[net.lat_src]


def _step_forward(w, d, frozen, rows, dw, dd, par, delay_on: bool) -> None:
    w[rows] = clamp_excitatory_weights(w[rows] + dw[rows], par)
    if delay_on:
        live = rows & ~frozen
        d[live] = clamp_delays(d[live] + dd[live], par)


def _step_lateral(net, edges, dw, dd, delay_on: bool) -> None:
    par = net.cfg.plasticity
    net.lat_w[edges] += dw[edges]
    inh_e = _inh_rule_edges(net)
    exc = edges & ~inh_e
    inh = edges & inh_e
    net.lat_w[exc] = clamp_excitatory_weights(net.lat_w[exc], par)
    net.lat_w[inh] = clamp_inhibitory_weights(net.lat_w[inh], par)
    if delay_on:
        live = edges & ~net.frozen[net.lat_tgt]
        net.lat_d[live] = clamp_delays(net.lat_d[live] + dd[live], par, LATERAL_DELAY_FLOOR)


def old_apply_decision_plasticity(net, r, deltas, delay_on):
    if r == 0.0:
        return
    dwf, ddf, dlw, dld = deltas
    every = np.ones(net.n_dec, dtype=bool)
    _step_forward(net.wf, net.df, net.frozen, every, r * dwf, r * ddf, net.cfg.plasticity, delay_on)
    _step_lateral(net, np.ones(net.lat_src.size, dtype=bool), r * dlw, r * dld, delay_on)


def old_apply_neuron_gain(net, gain, delay_on):
    reg = net.cfg.regulation
    rows = gain != 0.0
    if not rows.any():
        return
    g = gain[:, None]
    par = net.cfg.plasticity
    _step_forward(net.wf, net.df, net.frozen, rows, reg.lambda_w * g, -reg.lambda_d * g, par, delay_on)
    eg = gain[net.lat_tgt]
    _step_lateral(net, eg != 0.0, reg.lambda_w * eg, -reg.lambda_d * eg, delay_on)


STEP_NETS = {shared: build_network(tiny_cfg(inh_rules_shared=shared), (2, 6, 6)) for shared in (False, True)}
BLOCK_ARRAYS = ("conv_w", "conv_d", "wf", "df", "lat_w", "lat_d")


def _step_pair(shared, rng):
    """Two equal copies of a tiny network with random frozen masks."""
    net = copy.deepcopy(STEP_NETS[shared])
    net.conv_frozen[:] = rng.random(net.n_maps) < 0.4
    net.frozen[:] = rng.random(net.n_dec) < 0.4
    return net, copy.deepcopy(net)


def _assert_blocks_equal(net, ref):
    for name in BLOCK_ARRAYS:
        assert np.array_equal(getattr(net, name), getattr(ref, name)), name


def _change(rng, shape, per_row, scale):
    """A change that overshoots the domains: per element, or one per row."""
    if per_row:
        return rng.normal(0.0, scale, shape[:1]).reshape((-1,) + (1,) * (len(shape) - 1))
    return rng.normal(0.0, scale, shape)


@given(
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
    delay_on=st.booleans(),
    block=st.sampled_from(["conv", "forward", "lateral"]),
    per_row=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_step_matches_old_block_steps(seed, shared, delay_on, block, per_row):
    rng = np.random.default_rng(seed)
    net, ref = _step_pair(shared, rng)
    par = net.cfg.plasticity
    if block == "lateral":
        sel = rng.random(net.lat_src.size) < 0.5
        dw = _change(rng, net.lat_w.shape, False, 2.0 * par.w_max)
        dd = _change(rng, net.lat_d.shape, False, par.d_max)
        _step_lateral(ref, sel, dw, dd, delay_on)
        _inh, lo, hi = _lateral_domain(net)
        _step(
            net.lat_w, net.lat_d, sel, dw, dd, lo, hi,
            LATERAL_DELAY_FLOOR, ~net.frozen[net.lat_tgt], par, delay_on,
        )
    else:
        w, d, frozen = ("conv_w", "conv_d", "conv_frozen") if block == "conv" else ("wf", "df", "frozen")
        shape = getattr(net, w).shape
        sel = rng.random(shape[0]) < 0.5
        dw = _change(rng, shape, per_row, 2.0 * par.w_max)
        dd = _change(rng, shape, per_row, par.d_max)
        _step_forward(getattr(ref, w), getattr(ref, d), getattr(ref, frozen), sel, dw, dd, par, delay_on)
        _step(
            getattr(net, w), getattr(net, d), sel, dw, dd,
            0.0, par.w_max, 0.0, ~getattr(net, frozen), par, delay_on,
        )
    _assert_blocks_equal(net, ref)


@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans(), delay_on=st.booleans())
@settings(max_examples=60, deadline=None)
def test_decision_updates_match_old_callers(seed, shared, delay_on):
    rng = np.random.default_rng(seed)
    net, ref = _step_pair(shared, rng)
    par = net.cfg.plasticity
    for _ in range(4):
        blocks = (net.wf, net.df, net.lat_w, net.lat_d)
        deltas = tuple(rng.normal(0.0, s, a.shape) for a, s in zip(blocks, (par.w_max, par.d_max) * 2))
        r = float(rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
        gain = np.where(rng.random(net.n_dec) < 0.5, 0.0, rng.normal(0.0, 5.0, net.n_dec))
        old_apply_decision_plasticity(ref, r, deltas, delay_on)
        _apply_decision_plasticity(net, r, deltas, delay_on)
        old_apply_neuron_gain(ref, gain, delay_on)
        _apply_neuron_gain(net, gain, delay_on)
        _assert_blocks_equal(net, ref)


def test_lateral_delays_keep_their_floor_below_one_bin_of_d_max(tmp_path):
    """With d_max under the lateral floor of one bin, the fixed fill and a
    step both keep lateral delays at the floor, so the network's own
    checkpoint passes the load-time domain check."""
    par = PlasticityParams(d_max=0.5)
    fixed = build_network(tiny_cfg(plasticity=par, delay_mode="fixed", fixed_delay_value=0.0), (2, 6, 6))
    learned = build_network(tiny_cfg(plasticity=par), (2, 6, 6))
    every = np.ones(learned.lat_d.size, bool)
    _inh, lo, hi = _lateral_domain(learned)
    step = np.full(every.size, 3.0)
    _step(learned.lat_w, learned.lat_d, every, 0.0 * step, step, lo, hi, LATERAL_DELAY_FLOOR, every, par, True)
    for net in (fixed, learned):
        assert net.lat_d.size and (net.lat_d == LATERAL_DELAY_FLOOR).all()
        save_checkpoint(tmp_path / "ckpt.json", net)
        assert (load_checkpoint(tmp_path / "ckpt.json").lat_d == LATERAL_DELAY_FLOOR).all()


def test_lateral_edges_deliver_below_one_bin_of_d_max():
    """With d_max under the lateral floor of one bin, a lateral spike lands
    one bin after its source fired, so strong lateral weights change the
    decision spikes. The gate is off: with it on, every class group fills in
    its first firing bin and lateral input has nothing left to change."""
    cfg = tiny_cfg(plasticity=PlasticityParams(d_max=0.5), disabled=("decentralize",))
    samples = samples_for(cfg)[:2]
    plain = build_network(cfg, (2, 6, 6))
    strong = build_network(cfg, (2, 6, 6))
    assert strong.lat_w.size
    strong.lat_w[:] = np.where(strong.is_inh[strong.lat_src], -50.0, 50.0)

    def spikes(net):
        records = [run_presentation(net, s.frames) for s in samples]
        return [(r.decision_t.tolist(), r.decision_neuron.tolist()) for r in records]

    assert spikes(strong) != spikes(plain)


@pytest.mark.parametrize("shared", [False, True])
def test_lateral_domain_matches_old_inh_rule_edges(shared):
    net = STEP_NETS[shared]
    par = net.cfg.plasticity
    inh, lo, hi = _lateral_domain(net)
    assert np.array_equal(inh, _inh_rule_edges(net))
    assert inh.any() != shared
    assert (lo[inh] == par.w_inh_min).all() and (hi[inh] == 0.0).all()
    assert (lo[~inh] == 0.0).all() and (hi[~inh] == par.w_max).all()


# -- pair deltas from latest-spike tables ------------------------------------------
#
# ``nearest_pairs`` as it stood when it searched sorted spike keys, and
# ``_conv_pair_deltas`` and ``_decision_pair_deltas`` as they stood when they
# paired through it, kept verbatim as the references for bit-identity.


def old_nearest_pairs(pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k):
    pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k = (
        np.asarray(a, dtype=np.int64) for a in (pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k)
    )
    if pre_t.size == 0 or post_t.size == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, empty
    # one sorted key per spike, neuron * span + bin; every queried bin is below span
    span = 1 + max(int(pre_t.max() + syn_k.max(initial=0)), int(post_t.max()))
    pre_key = np.sort(pre_n * span + pre_t)
    post_key = np.sort(post_n * span + post_t)
    c_syn, c_post = _each_spike(syn_post, post_key, span)
    c_pre = _latest(pre_key, syn_pre[c_syn], c_post - syn_k[c_syn], span, "right")
    a_syn, a_pre = _each_spike(syn_pre, pre_key, span)
    a_post = _latest(post_key, syn_post[a_syn], a_pre + syn_k[a_syn], span, "left")
    c = c_pre >= 0
    a = a_post >= 0
    return (
        np.concatenate([c_syn[c], a_syn[a]]),
        np.concatenate([c_pre[c], a_pre[a]]),
        np.concatenate([c_post[c], a_post[a]]),
    )


def _each_spike(neuron, key, span):
    """Synapse ``s`` with each spike bin of ``neuron[s]``, by synapse then bin."""
    lo = np.searchsorted(key, neuron * span)
    n = np.searchsorted(key, (neuron + 1) * span) - lo
    syn = np.repeat(np.arange(neuron.size), n)
    idx = np.arange(syn.size) + np.repeat(lo - np.cumsum(n) + n, n)
    return syn, key[idx] % span


def _latest(key, neuron, t, span, side):
    """Bin of the latest spike of ``neuron`` at or before ``t`` (side
    "right") or strictly before it (side "left"); -1 where there is none."""
    base = neuron * span
    i = np.searchsorted(key, base + t, side=side) - 1
    found = key[np.maximum(i, 0)]
    return np.where((i >= 0) & (found >= base), found - base, -1)


def old_conv_pair_deltas(net, frames: np.ndarray, spikes: np.ndarray):
    par = net.cfg.plasticity
    st = net.cfg.topology.stride
    n_taps = net.conv_w[0].size
    n_pos = spikes[0, 0].size
    # synapse (p, ky, kx, y, x) of a map joins input pixel (p, y*st+ky, x*st+kx) to its unit (y, x)
    p, ky, kx, y, x = np.indices(net.conv_w.shape[1:] + net.conv_hw).reshape(5, -1)
    pre_of = np.ravel_multi_index((p, y * st + ky, x * st + kx), frames.shape[1:])
    post_of = np.ravel_multi_index((y, x), net.conv_hw)
    tap = np.repeat(np.arange(n_taps), n_pos)
    pre_t, pre_n = np.nonzero(frames.reshape(frames.shape[0], -1))
    dint = delay_bins(net.conv_d, par).reshape(net.n_maps, n_taps)
    dw = np.zeros((net.n_maps, n_taps))
    dd = np.zeros((net.n_maps, n_taps))
    for m in range(net.n_maps):
        post_t, post_n = np.nonzero(spikes[:, m].reshape(spikes.shape[0], -1))
        syn, t_pre, t_post = old_nearest_pairs(pre_t, pre_n, post_t, post_n, pre_of, post_of, dint[m, tap])
        tm = tap[syn]
        d = net.conv_d[m].ravel()[tm]
        dw[m] = np.bincount(tm, stdp_weight_delta(t_pre, t_post, d, par), n_taps)
        dd[m] = np.bincount(tm, unsupervised_delay_delta(t_pre, t_post, d, par), n_taps)
    return dw.reshape(net.conv_w.shape) / n_pos, dd.reshape(net.conv_d.shape) / n_pos


def _assert_same_conv_deltas(net, frames, spikes):
    got = _conv_pair_deltas(net, frames, spikes)
    want = old_conv_pair_deltas(net, frames, spikes)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv_pair_deltas_match_old_on_preset_training(seed):
    """Preset samples, with the kernels moving by ``_step`` between calls as
    in phase 1."""
    cfg = moving_bars_acceptance_config(seed, synthetic_train_per_class=2)
    samples = samples_for(cfg)
    net = build_network(cfg, samples[0].frames.shape[1:])
    par = cfg.plasticity
    every = np.ones(net.n_maps, dtype=bool)
    calls = 0
    for s in samples:
        spikes, _first = _conv_sim(net, s.frames)
        if spikes.any():
            dw, dd = _assert_same_conv_deltas(net, s.frames, spikes)
            assert dw.any() and dd.any()
            _step(net.conv_w, net.conv_d, every, dw, dd, 0.0, par.w_max, 0.0, ~net.conv_frozen, par, True)
            calls += 1
    assert calls == len(samples)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv_pair_deltas_match_old_on_stride_2(seed):
    top = dataclasses.replace(tiny_cfg().topology, stride=2, pool=(1, 1))
    net = build_network(tiny_cfg(topology=top), (2, 8, 7))
    par = net.cfg.plasticity
    rng = np.random.default_rng(seed)
    net.conv_d[:] = rng.uniform(0.0, par.d_max, net.conv_d.shape)
    t_in = 20
    frames = (rng.random((t_in, 2, 8, 7)) < 0.15).astype(np.uint8)
    spikes = rng.random((t_in + int(round(par.d_max)) + 1, net.n_maps) + net.conv_hw) < 0.1
    dw, _dd = _assert_same_conv_deltas(net, frames, spikes)
    assert (dw != 0.0).all()


def test_conv_pair_deltas_match_old_at_the_edges():
    """Bins 0 and t_tot - 1, delay 0, a silent map, post spikes before any
    arrival and a pixel that fires in consecutive bins."""
    net = build_network(tiny_cfg(), (2, 6, 6))
    par = net.cfg.plasticity
    t_in = 12
    t_tot = t_in + int(round(par.d_max)) + 1
    net.conv_d[0] = 0.0  # map 0: every tap at delay 0
    net.conv_d[1] = par.d_max  # map 1: the longest delay
    frames = np.zeros((t_in, 2, 6, 6), np.uint8)
    frames[0, 0, 0, 0] = 1  # a pre spike at bin 0, delivered at bin 0 on map 0
    frames[3:7, 1, 2, 2] = 1  # consecutive bins
    frames[t_in - 1, 0, 5, 5] = 1
    spikes = np.zeros((t_tot, net.n_maps) + net.conv_hw, bool)
    spikes[0, 0, 0, 0] = True  # pairs with the bin-0 arrival through delay 0
    spikes[t_tot - 1, 0, 3, 3] = True
    spikes[[1, 2, 5, t_tot - 1], 1, 1, 1] = True  # bins 1 and 2 come before any arrival on map 1
    # map 2 never fires
    spikes[[4, 6, 9], 3, 2, 2] = True
    _assert_same_conv_deltas(net, frames, spikes)
    # one map at a time: each of the cases above on its own
    for m in range(net.n_maps):
        alone = np.zeros_like(spikes)
        alone[:, m] = spikes[:, m]
        dw, dd = _assert_same_conv_deltas(net, frames, alone)
        assert (m == 2) == (not dw.any() and not dd.any())


def test_conv_pair_deltas_memory_stays_one_map_at_a_time():
    """A sensor-sized sheet (32x32 moving bars, the preset constants, 4x4
    pooling): one call stays under a fixed ceiling that pairing all maps at
    once would pass several times over."""
    spec = moving_bars_spec(grid=(32, 32), pattern_length=50, noise_rate=0.01, seed=0, step_bins=1)
    base = moving_bars_acceptance_config(0)
    cfg = moving_bars_acceptance_config(0, synthetic=spec, topology=dataclasses.replace(base.topology, pool=(4, 4)))
    frames = gen_synthetic(spec, 1)[0].frames
    net = build_network(cfg, frames.shape[1:])
    spikes, _first = _conv_sim(net, frames)
    assert spikes.sum() > 1000
    tracemalloc.start()
    try:
        _conv_pair_deltas(net, frames, spikes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def old_decision_pair_deltas(net, pooled_t, pooled_unit, dec_t, dec_j):
    par = net.cfg.plasticity
    n_fwd = net.wf.size
    n_pool = net.n_pool
    d = np.concatenate([net.df.ravel(), net.lat_d])
    syn, t_pre, t_post = old_nearest_pairs(
        np.concatenate([pooled_t, dec_t]),
        np.concatenate([pooled_unit, n_pool + dec_j]),
        dec_t,
        dec_j,
        np.concatenate([np.tile(np.arange(n_pool), net.n_dec), n_pool + net.lat_src]),
        np.concatenate([np.repeat(np.arange(net.n_dec), n_pool), net.lat_tgt]),
        np.concatenate(
            [pl.delay_bins(net.df, par).ravel(), pl.delay_bins(net.lat_d, par, pl.LATERAL_DELAY_FLOOR)]
        ),
    )
    d = d[syn]
    inh = np.concatenate([np.zeros(n_fwd, dtype=bool), _lateral_domain(net)[0]])[syn]
    dd = np.empty(syn.size)
    dd[~inh] = pl.unsupervised_delay_delta(t_pre[~inh], t_post[~inh], d[~inh], par)
    dd[inh] = pl.inhibitory_delay_delta(t_pre[inh], t_post[inh], d[inh], par)
    dw = np.bincount(syn, pl.stdp_weight_delta(t_pre, t_post, d, par), n_fwd + net.lat_w.size)
    dd = np.bincount(syn, dd, n_fwd + net.lat_d.size)
    return dw[:n_fwd].reshape(net.wf.shape), dd[:n_fwd].reshape(net.df.shape), dw[n_fwd:], dd[n_fwd:]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decision_pair_deltas_match_old_on_preset_training(seed, monkeypatch):
    """Every call of one preset decision epoch, with
    ``_apply_decision_plasticity`` and regulation moving the synapses between
    calls as in phase 2."""
    cfg = moving_bars_acceptance_config(seed, synthetic_train_per_class=4)
    cfg = dataclasses.replace(cfg, harness=dataclasses.replace(cfg.harness, max_epochs_l2=1))
    samples = samples_for(cfg)
    net = build_network(cfg, samples[0].frames.shape[1:])
    assert net.lat_src.size
    calls = []

    def checked(net, *spikes):
        got = _decision_pair_deltas(net, *spikes)
        want = old_decision_pair_deltas(net, *spikes)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        calls.append([g.any() for g in got])
        return got

    monkeypatch.setattr(harness, "_decision_pair_deltas", checked)
    train_layer2(net, samples, build_pooled_cache(net, samples))
    assert len(calls) >= 5 and np.array(calls).any(axis=0).all()  # lateral pairs too
