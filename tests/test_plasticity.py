"""Rule-kernel oracles and properties.

The closed forms are re-derived here with plain math.exp and explicit
branching, independent of the numpy implementation, and a handful of
expected values are frozen as literals (computed once with 64-bit floats
and pasted in). If either side drifts, these fail.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronospike.config import PlasticityParams
from chronospike import plasticity as pl
from chronospike.harness import _step

P = PlasticityParams(
    a_plus=0.1,
    a_minus=0.3,
    tau_plus=5.0,
    tau_minus=5.0,
    b_plus=0.1,
    b_minus=0.1,
    sigma_plus=5.0,
    sigma_minus=5.0,
    epsilon=1.0,
)


def ref_weight(dt, p):
    if dt >= 0:
        return p.a_plus * math.exp(-dt / p.tau_plus)
    return -p.a_minus * math.exp(dt / p.tau_minus)


def ref_exc_delay(dt, p):
    dtp = dt - p.epsilon
    if dtp >= 0:
        return p.b_plus * math.exp(-dtp / p.sigma_plus)
    return -p.b_minus * math.exp(dtp / p.sigma_minus)


def ref_inh_delay(dt, p):
    if dt >= 0:
        return p.b_minus * math.exp(-dt / p.sigma_minus)
    return -p.b_plus * math.exp(dt / p.sigma_plus)


# -- reward-scaled rules ------------------------------------------------------
#
# The decision layer scales every unit-reward kernel by the reward r, once,
# when the harness applies a presentation's sums. These are those rules on
# single pairs, as references for the reward properties.


def reward_stdp_weight_delta(t_pre, t_post, d, r, p):
    """Reward-scaled weight change of one pair, excitatory or inhibitory."""
    return r * pl.stdp_weight_delta(t_pre, t_post, d, p)


def reward_delay_delta(t_pre, t_post, d, r, p):
    """Reward-scaled excitatory delay change: punishment pushes delays away
    from the alignment point instead of toward it."""
    return r * pl.unsupervised_delay_delta(t_pre, t_post, d, p)


# -- frozen values ------------------------------------------------------------


def test_stdp_causal_frozen():
    # dt = 4 - 0 - 2 = 2, a_plus=0.1, tau=5
    assert pl.stdp_weight_delta(0, 4, 2.0, P) == pytest.approx(
        0.06703200460356394, abs=0, rel=1e-15
    )


def test_stdp_anticausal_frozen():
    # dt = -3, a_minus=0.3: -0.3*exp(-0.6)
    assert pl.stdp_weight_delta(3, 0, 0.0, P) == pytest.approx(
        -0.16464349082820792, abs=0, rel=1e-15
    )


def test_stdp_simultaneous_is_potentiation():
    assert pl.stdp_weight_delta(2, 2, 0.0, P) == pytest.approx(0.1, abs=0)


def test_reward_scaling_frozen():
    p = PlasticityParams(a_plus=0.1, tau_plus=5.0)
    # r=0.5, dt=1: 0.5 * 0.1 * exp(-0.2)
    assert reward_stdp_weight_delta(0, 1, 0.0, 0.5, p) == pytest.approx(
        0.0409365376538991, abs=0, rel=1e-15
    )
    assert reward_stdp_weight_delta(0, 1, 0.0, 0.0, p) == 0.0
    assert reward_stdp_weight_delta(0, 1, 0.0, -1.0, p) == pytest.approx(
        -0.0818730753077982, abs=0, rel=1e-15
    )


def test_exc_delay_at_alignment_point():
    # d = t_post - t_pre - epsilon puts dt' exactly at 0: potentiation bound
    assert pl.unsupervised_delay_delta(0, 6, 5.0, P) == pytest.approx(0.1, abs=0)


def test_exc_delay_causal_frozen():
    # dt' = (6 - 0 - 4) - 1 = 1: +0.1*exp(-0.2)
    assert pl.unsupervised_delay_delta(0, 6, 4.0, P) == pytest.approx(
        0.0818730753077982, abs=0, rel=1e-15
    )


def test_exc_delay_late_arrival_shrinks():
    # dt' = (6 - 0 - 6) - 1 = -1: -0.1*exp(-0.2)
    assert pl.unsupervised_delay_delta(0, 6, 6.0, P) == pytest.approx(
        -0.0818730753077982, abs=0, rel=1e-15
    )


def test_exc_delay_kernel_direction_pins():
    """The branch orientation that makes d -> (t_post - t_pre) - epsilon an
    attractor: positive kernel value at dt' = 0+ and negative at dt' < 0."""
    p = PlasticityParams(b_plus=0.2, b_minus=0.3, sigma_plus=5.0, sigma_minus=5.0, epsilon=0.0)
    assert pl.unsupervised_delay_delta(0, 0, 0.0, p) == pytest.approx(0.2, abs=0)
    assert pl.unsupervised_delay_delta(0, -3, 0.0, p) == pytest.approx(
        -0.16464349082820792, abs=0, rel=1e-15
    )


def test_inh_delay_causal_lengthens():
    # dt = 0, b_minus scales the causal branch, no epsilon offset
    p = PlasticityParams(b_plus=0.1, b_minus=0.2, sigma_plus=5.0, sigma_minus=5.0, epsilon=1.0)
    assert pl.inhibitory_delay_delta(0, 0, 0.0, p) == pytest.approx(0.2, abs=0)


def test_inh_delay_anticausal_frozen():
    # dt = -2: -b_plus*exp(-0.4)
    assert pl.inhibitory_delay_delta(2, 0, 0.0, P) == pytest.approx(
        -0.06703200460356394, abs=0, rel=1e-15
    )


def test_inh_delay_ignores_epsilon():
    p_eps = PlasticityParams(epsilon=5.0)
    p_no = PlasticityParams(epsilon=0.0)
    assert pl.inhibitory_delay_delta(0, 3, 1.0, p_eps) == pl.inhibitory_delay_delta(0, 3, 1.0, p_no)


# -- reference-evaluator cross-check over a grid ------------------------------


def test_kernels_match_reference_grid():
    params = PlasticityParams(
        a_plus=0.07,
        a_minus=0.11,
        tau_plus=4.0,
        tau_minus=6.0,
        b_plus=0.09,
        b_minus=0.13,
        sigma_plus=3.0,
        sigma_minus=7.0,
        epsilon=2.0,
    )
    for dt in np.arange(-12.0, 12.5, 0.5):
        got_w = pl.stdp_weight_delta(0.0, dt, 0.0, params)
        assert got_w == pytest.approx(ref_weight(dt, params), rel=1e-12, abs=0)
        got_d = pl.unsupervised_delay_delta(0.0, dt, 0.0, params)
        assert got_d == pytest.approx(ref_exc_delay(dt, params), rel=1e-12, abs=0)
        got_i = pl.inhibitory_delay_delta(0.0, dt, 0.0, params)
        assert got_i == pytest.approx(ref_inh_delay(dt, params), rel=1e-12, abs=0)


def test_delta_depends_on_time_difference_only():
    # shifting both spikes and compensating through d leaves dt unchanged
    a = pl.stdp_weight_delta(10, 17, 3.0, P)
    b = pl.stdp_weight_delta(110, 117, 3.0, P)
    assert a == b


# -- properties ----------------------------------------------------------------


dt_values = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
rewards = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@given(dt=dt_values, r=rewards)
def test_reward_rules_odd_in_r(dt, r):
    plus = reward_stdp_weight_delta(0.0, dt, 0.0, r, P)
    minus = reward_stdp_weight_delta(0.0, dt, 0.0, -r, P)
    assert plus == pytest.approx(-minus, abs=1e-18)
    dplus = reward_delay_delta(0.0, dt, 0.0, r, P)
    dminus = reward_delay_delta(0.0, dt, 0.0, -r, P)
    assert dplus == pytest.approx(-dminus, abs=1e-18)


@given(dt=dt_values, r=rewards)
def test_magnitudes_bounded_by_amplitudes(dt, r):
    assert abs(reward_stdp_weight_delta(0.0, dt, 0.0, r, P)) <= max(P.a_plus, P.a_minus) * abs(r) + 1e-18
    assert abs(reward_delay_delta(0.0, dt, 0.0, r, P)) <= max(P.b_plus, P.b_minus) * abs(r) + 1e-18
    assert abs(r * pl.inhibitory_delay_delta(0.0, dt, 0.0, P)) <= max(P.b_plus, P.b_minus) * abs(r) + 1e-18


@given(dt=st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
def test_causal_magnitude_decays_with_lag(dt):
    near = pl.stdp_weight_delta(0.0, dt, 0.0, P)
    far = pl.stdp_weight_delta(0.0, dt + 1.0, 0.0, P)
    assert near > 0
    assert far < near


@given(dt=dt_values)
def test_unsupervised_equals_reward_at_unit(dt):
    assert pl.unsupervised_delay_delta(0.0, dt, 0.0, P) == reward_delay_delta(
        0.0, dt, 0.0, 1.0, P
    )
    assert pl.stdp_weight_delta(0.0, dt, 0.0, P) == reward_stdp_weight_delta(
        0.0, dt, 0.0, 1.0, P
    )


def test_vectorized_matches_scalar():
    dts = np.array([-3.0, -0.5, 0.0, 0.5, 4.0])
    vec = pl.stdp_weight_delta(0.0, dts, 0.0, P)
    assert isinstance(vec, np.ndarray)
    for i, dt in enumerate(dts):
        assert vec[i] == pl.stdp_weight_delta(0.0, float(dt), 0.0, P)


# -- pairing -------------------------------------------------------------------


def ref_pairs(pre, post, delay):
    """Quadratic-time reference pairing."""
    arrivals = [(t, t + delay) for t in pre]
    out = []
    for t_post in post:
        cand = [(tp, ta) for tp, ta in arrivals if ta <= t_post]
        if cand:
            out.append((cand[-1][0], t_post))
    for tp, ta in arrivals:
        cand = [q for q in post if q < ta]
        if cand:
            out.append((tp, cand[-1]))
    return sorted(out)


def pair_one(pre, post, delay):
    """The pairs of one synapse of ``delay`` bins, by :func:`pl.nearest_pairs`."""
    pre = np.asarray(pre, np.int64)
    post = np.asarray(post, np.int64)
    syn, tp, tq = pl.nearest_pairs(pre, np.zeros_like(pre), post, np.zeros_like(post), [0], [0], [delay])
    assert (syn == 0).all()
    return tp, tq


def test_pair_spikes_example():
    pre = np.array([0, 5, 9])
    post = np.array([3, 7])
    tp, tq = pair_one(pre, post, 2)
    got = sorted(zip(tp.tolist(), tq.tolist()))
    # arrivals at 2, 7, 11: post 3 pairs with arrival 2 (pre 0); post 7 with
    # arrival 7 (pre 5, simultaneous counts causal); arrival 7 sees post 3
    # strictly earlier; arrival 11 sees post 7.
    assert got == [(0, 3), (5, 3), (5, 7), (9, 7)]


def test_pair_spikes_empty_sides():
    tp, tq = pair_one(np.array([], np.int64), np.array([3]), 1)
    assert tp.size == 0 and tq.size == 0
    tp, tq = pair_one(np.array([3]), np.array([], np.int64), 1)
    assert tp.size == 0 and tq.size == 0


@given(
    pre=st.lists(st.integers(min_value=0, max_value=60), max_size=12),
    post=st.lists(st.integers(min_value=0, max_value=60), max_size=12),
    delay=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=200)
def test_pair_spikes_matches_reference(pre, post, delay):
    pre_a = np.unique(np.asarray(pre, np.int64))
    post_a = np.unique(np.asarray(post, np.int64))
    tp, tq = pair_one(pre_a, post_a, delay)
    assert sorted(zip(tp.tolist(), tq.tolist())) == ref_pairs(
        pre_a.tolist(), post_a.tolist(), delay
    )


@given(
    pre=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=12),
    post=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=12),
    delay=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=200)
def test_pair_counts_bounded(pre, post, delay):
    pre_a = np.unique(np.asarray(pre, np.int64))
    post_a = np.unique(np.asarray(post, np.int64))
    tp, _tq = pair_one(pre_a, post_a, delay)
    # one causal pair per post spike at most, one anti-causal per pre spike
    assert tp.size <= post_a.size + pre_a.size


neurons = st.integers(min_value=0, max_value=3)


@given(
    pre=st.sets(st.tuples(neurons, st.integers(min_value=0, max_value=40)), max_size=24),
    post=st.sets(st.tuples(neurons, st.integers(min_value=0, max_value=40)), max_size=24),
    synapses=st.lists(st.tuples(neurons, neurons, st.integers(min_value=0, max_value=10)), max_size=8),
)
@settings(max_examples=200)
# every delay 0; an arrival after the last post bin; a post spike at bin 0
@example(pre={(0, 0), (0, 3), (1, 5)}, post={(0, 0), (0, 4), (1, 5)}, synapses=[(0, 0, 0), (1, 1, 0), (1, 0, 0)])
@example(pre={(0, 1), (0, 9)}, post={(0, 2), (0, 4)}, synapses=[(0, 0, 3), (0, 0, 0)])
@example(pre={(0, 0), (0, 2)}, post={(0, 0), (0, 3)}, synapses=[(0, 0, 1), (0, 0, 0)])
# synapses from and to neurons above every neuron that spiked
@example(pre={(0, 1)}, post={(0, 3)}, synapses=[(7, 0, 2), (0, 0, 1), (5, 0, 0), (0, 6, 1)])
# post neurons 0-2 are also pre neurons 4-6, as the decision layer's lateral edges see them
@example(
    pre={(0, 0), (2, 1), (3, 4), (4, 2), (5, 6), (6, 6)},
    post={(0, 2), (1, 6), (2, 6)},
    synapses=[(0, 0, 1), (3, 1, 2), (4, 1, 3), (5, 2, 1), (6, 0, 0), (4, 2, 4), (2, 0, 9)],
)
def test_nearest_pairs_of_many_synapses_match_reference_in_order(pre, post, synapses):
    pre_n, pre_t = np.array(sorted(pre), np.int64).reshape(-1, 2).T
    post_n, post_t = np.array(sorted(post), np.int64).reshape(-1, 2).T
    syn_pre, syn_post, syn_k = np.array(synapses, np.int64).reshape(-1, 3).T
    syn, tp, tq = pl.nearest_pairs(pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k)
    causal, anti = [], []
    for s, (i, j, k) in enumerate(synapses):
        times_pre = sorted(t for n, t in pre if n == i)
        times_post = sorted(t for n, t in post if n == j)
        for a, b in ref_pairs(times_pre, times_post, k):
            (causal if a + k <= b else anti).append((s, a, b))
    # causal pairs by synapse and post spike, then anti-causal by synapse and pre spike
    want = sorted(causal, key=lambda x: (x[0], x[2])) + sorted(anti)
    assert list(zip(syn.tolist(), tp.tolist(), tq.tolist())) == want


# -- the one kernel against the three rule bodies it replaced -------------------
#
# The rule bodies and clamp helpers as they stood before the rules shared one
# two-sided kernel and every domain clip moved into ``harness._step``, kept
# verbatim as references for bit-identity.

_ret = pl._ret


def old_stdp_weight_delta(t_pre, t_post, d, p: PlasticityParams):
    """Weight change of one pair at unit reward, for either synapse sign."""
    dt = np.asarray(t_post, dtype=float) - np.asarray(t_pre, dtype=float) - np.asarray(d, dtype=float)
    out = np.where(
        dt >= 0.0,
        p.a_plus * np.exp(-dt / p.tau_plus),
        -p.a_minus * np.exp(dt / p.tau_minus),
    )
    return _ret(out)


def old_unsupervised_delay_delta(t_pre, t_post, d, p: PlasticityParams):
    dt = (
        np.asarray(t_post, dtype=float)
        - np.asarray(t_pre, dtype=float)
        - np.asarray(d, dtype=float)
        - p.epsilon
    )
    out = np.where(
        dt >= 0.0,
        p.b_plus * np.exp(-dt / p.sigma_plus),
        -p.b_minus * np.exp(dt / p.sigma_minus),
    )
    return _ret(out)


def old_inhibitory_delay_delta(t_pre, t_post, d, p: PlasticityParams):
    dt = np.asarray(t_post, dtype=float) - np.asarray(t_pre, dtype=float) - np.asarray(d, dtype=float)
    out = np.where(
        dt >= 0.0,
        p.b_minus * np.exp(-dt / p.sigma_minus),
        -p.b_plus * np.exp(dt / p.sigma_plus),
    )
    return _ret(out)


def clamp_excitatory_weights(w, p: PlasticityParams):
    np.clip(w, 0.0, p.w_max, out=w)
    return w


def clamp_inhibitory_weights(w, p: PlasticityParams):
    np.clip(w, p.w_inh_min, 0.0, out=w)
    return w


def clamp_delays(d, p: PlasticityParams, floor: float = 0.0):
    np.clip(d, floor, p.d_max, out=d)
    return d


RULES = [
    (pl.stdp_weight_delta, old_stdp_weight_delta),
    (pl.unsupervised_delay_delta, old_unsupervised_delay_delta),
    (pl.inhibitory_delay_delta, old_inhibitory_delay_delta),
]
# times that put dt at 0.0, -0.0 and around +-1e-300, next to plain values
edge_times = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, 2.5])
times = st.one_of(edge_times, st.floats(min_value=-60.0, max_value=60.0))
amplitudes = st.floats(min_value=1e-3, max_value=10.0)
# |dt| stays under 180, so exp(|dt| / tau) stays finite in both branches
time_constants = st.floats(min_value=0.3, max_value=20.0)


@given(
    t_pre=st.lists(times, min_size=1, max_size=12),
    data=st.data(),
    a=st.tuples(amplitudes, amplitudes, time_constants, time_constants),
    b=st.tuples(amplitudes, amplitudes, time_constants, time_constants),
    epsilon=st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
)
@settings(max_examples=300)
def test_rules_match_their_old_bodies_bit_for_bit(t_pre, data, a, b, epsilon):
    n = len(t_pre)
    t_post = data.draw(st.lists(times, min_size=n, max_size=n))
    d = data.draw(st.lists(times, min_size=n, max_size=n))
    p = PlasticityParams(
        a_plus=a[0], a_minus=a[1], tau_plus=a[2], tau_minus=a[3],
        b_plus=b[0], b_minus=b[1], sigma_plus=b[2], sigma_minus=b[3], epsilon=epsilon,
    )
    for new, old in RULES:
        got, want = new(t_pre, t_post, d, p), old(t_pre, t_post, d, p)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        one, ref = new(t_pre[0], t_post[0], d[0], p), old(t_pre[0], t_post[0], d[0], p)
        assert type(one) is type(ref) is float
        assert np.array_equal(one, ref) and math.copysign(1.0, one) == math.copysign(1.0, ref)


def test_rules_at_signed_zero_and_tiny_dt():
    # dt = 0.0 and -0.0 both take the causal branch; +-1e-300 pick their sides
    for t_post, d in ((0.0, 0.0), (-0.0, 0.0), (1e-300, 0.0), (0.0, 1e-300), (-1e-300, 0.0)):
        for new, old in RULES:
            assert new(0.0, t_post, d, P) == old(0.0, t_post, d, P)
    assert pl.stdp_weight_delta(0.0, -0.0, 0.0, P) == P.a_plus
    assert pl.stdp_weight_delta(0.0, 0.0, 1e-300, P) == -P.a_minus


# -- domains --------------------------------------------------------------------


def test_clamps_respect_sign_domains():
    p = PlasticityParams(w_max=1.0, w_inh_min=-1.0, d_max=20.0)
    rows = np.ones(3, dtype=bool)
    zero = np.zeros(3)
    w = np.array([-0.2, 0.5, 1.7])
    d = np.array([-3.0, 4.0, 25.0])
    _step(w, d, rows, zero, zero, 0.0, p.w_max, 0.0, rows, p, True)
    assert w.tolist() == [0.0, 0.5, 1.0]
    assert d.tolist() == [0.0, 4.0, 20.0]
    wi = np.array([-1.4, -0.3, 0.6])
    _step(wi, d, rows, zero, zero, p.w_inh_min, 0.0, 0.0, rows, p, False)
    assert wi.tolist() == [-1.0, -0.3, 0.0]
    w2 = np.zeros(2)
    d2 = np.array([0.5, 4.0])
    _step(w2, d2, rows[:2], zero[:2], zero[:2], 0.0, p.w_max, 1.0, rows[:2], p, True)
    assert d2.tolist() == [1.0, 4.0]
