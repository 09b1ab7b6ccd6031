"""Spike-pair update rules for weights and conduction delays.

Pairing is nearest-neighbour per synapse, on arrival times: a pre spike
emitted at bin u on a synapse of k whole bins of delay arrives at u + k.
Each post spike pairs with the latest arrival at or before it (a causal
pair), and each arrival with the latest post spike strictly before it (an
anti-causal pair), so an arrival after the last post spike pairs with that
spike. With last_pre(t) the latest pre spike at or before bin t and
prev_post(t) the latest post spike strictly before t, the pairs of one
synapse of delay d are

    causal:       dt = t_post - last_pre(t_post - k) - d   for each post spike
    anti-causal:  dt = prev_post(u + k) - u - d             for each pre spike u

Both layers pair by these two identities, through the same two
primitives: :func:`_latest_before` holds last_pre and prev_post as tables
over bins, and :func:`_synapse_spikes` lists each synapse with each spike
of its neuron, so every pair is a gather. Layer 1 builds its tables once
per presentation and gathers map by map
(:func:`chronospike.harness._conv_pair_deltas`); the decision layer pairs
all its synapses in one :func:`nearest_pairs` call.

Each rule is a pure function of (pre, post) spike pairs on one synapse,
``(t_pre, t_post, d, p)``. The timing argument is the emission-time
difference corrected by the synapse's current delay,

    dt = t_post - t_pre - d

with the excitatory delay rule additionally subtracting the target lead
``epsilon``. Positive dt means the delayed presynaptic arrival preceded the
postsynaptic spike (causal); negative dt means it came too late.

The package holds three unit-reward rules, one two-sided kernel:

* weight:                dw = +a_plus  * exp(-dt/tau_plus)   for dt >= 0
                         dw = -a_minus * exp(+dt/tau_minus)  for dt <  0
  one closed form for both synapse signs. On an inhibitory synapse the
  delta is added to the signed negative weight, so a causal pair pushes it
  toward 0, weakening inhibition.
* delay, excitatory:     dd = +b_plus  * exp(-dt'/sigma_plus)   for dt' >= 0
                         dd = -b_minus * exp(+dt'/sigma_minus)  for dt' <  0
  with dt' = dt - epsilon. The fixed point is dt' = 0, i.e.
  d -> (t_post - t_pre) - epsilon: the delay grows while the arrival leads
  by more than epsilon and shrinks once it arrives too late, so repeated
  application aligns arrivals to epsilon before the postsynaptic spike.
* delay, inhibitory:     dd = +b_minus * exp(-dt/sigma_minus)  for dt >= 0
                         dd = -b_plus  * exp(+dt/sigma_plus)   for dt <  0
  a causally paired inhibitory synapse gets a longer delay, decoupling it.

Layer 1 applies the weight and excitatory delay kernels as they are. The
decision layer learns by reward r in [-1, 1]: every rule there is a kernel
scaled by r, so the harness sums the kernels over a presentation's pairs at
unit reward and scales the sums by r once, when it applies them. Under
punishment (r < 0) each rule runs backwards.

Deltas are accumulated per synapse over one presentation and applied once
at the end, by one harness step that keeps each block in its domain
(:class:`~chronospike.config.PlasticityParams`).
"""

from __future__ import annotations

import numpy as np

from .config import PlasticityParams

__all__ = [
    "stdp_weight_delta",
    "unsupervised_delay_delta",
    "inhibitory_delay_delta",
    "nearest_pairs",
    "delay_bins",
    "LATERAL_DELAY_FLOOR",
]

#: Lateral delays stay at or above one bin: the decision layer has already
#: read the current bin when one of its spikes schedules lateral deliveries.
LATERAL_DELAY_FLOOR = 1.0


def _ret(x):
    # keep scalars scalar so the rule functions compose with plain floats
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _two_sided(dt, a_c, tau_c, a_a, tau_a):
    """The one kernel of the three rules: ``a_c * exp(-dt/tau_c)`` for
    dt >= 0 and ``-a_a * exp(dt/tau_a)`` below, one ``exp`` per element."""
    c = dt >= 0.0
    return _ret(np.where(c, a_c, -a_a) * np.exp(np.where(c, -dt / tau_c, dt / tau_a)))


def _dt(t_pre, t_post, d):
    return np.asarray(t_post, dtype=float) - np.asarray(t_pre, dtype=float) - np.asarray(d, dtype=float)


def stdp_weight_delta(t_pre, t_post, d, p: PlasticityParams):
    """Weight change of one pair at unit reward, for either synapse sign."""
    return _two_sided(_dt(t_pre, t_post, d), p.a_plus, p.tau_plus, p.a_minus, p.tau_minus)


def unsupervised_delay_delta(t_pre, t_post, d, p: PlasticityParams):
    """Delay change that aligns arrivals to ``epsilon`` before the post spike.

    Fixed point at d = (t_post - t_pre) - epsilon. While the delayed arrival
    still leads by more than epsilon the delay grows; once it trails, the
    delay shrinks. Magnitudes decay exponentially with the residual lag.
    """
    return _two_sided(_dt(t_pre, t_post, d) - p.epsilon, p.b_plus, p.sigma_plus, p.b_minus, p.sigma_minus)


def inhibitory_delay_delta(t_pre, t_post, d, p: PlasticityParams):
    """Delay change for a pair whose presynaptic neuron is inhibitory.

    Sign-flipped relative to the excitatory habit: a causal pair (dt >= 0)
    lengthens the delay, pushing the inhibitory input out of the window
    where it could veto the postsynaptic spike; an anti-causal pair shortens
    it. No epsilon offset is applied.
    """
    return _two_sided(_dt(t_pre, t_post, d), p.b_minus, p.sigma_minus, p.b_plus, p.sigma_plus)


def nearest_pairs(pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k):
    """The pairs of the pairing rule (see the module docstring) on many
    synapses at once, gathered from latest-spike tables.

    Spikes are events: pre neuron ``pre_n[i]`` emits at bin ``pre_t[i]``
    and post neuron ``post_n[i]`` at bin ``post_t[i]``, each neuron at most
    once per bin. Synapse ``s`` carries the spikes of pre neuron
    ``syn_pre[s]`` to post neuron ``syn_post[s]`` in ``syn_k[s]`` whole
    bins. Returns ``(syn, t_pre, t_post)``, the synapse and the two emission
    bins of each pair: the causal pairs by synapse and post spike, then the
    anti-causal pairs by synapse and pre spike.
    """
    pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k = (
        np.asarray(a, dtype=np.int64) for a in (pre_t, pre_n, post_t, post_n, syn_pre, syn_post, syn_k)
    )
    if pre_t.size == 0 or post_t.size == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, empty
    # a raster column for every neuron that spikes or that a synapse names
    pre = np.zeros((pre_t.max() + 1, max(pre_n.max(), syn_pre.max(initial=0)) + 1), bool)
    post = np.zeros((post_t.max() + 1, max(post_n.max(), syn_post.max(initial=0)) + 1), bool)
    pre[pre_t, pre_n] = True
    post[post_t, post_n] = True
    k_max = int(syn_k.max(initial=0))
    # last_pre(t) is row t + 1 + k_max, t in [-k_max, post bins); prev_post(t) is row t
    last_pre = _latest_before(pre, -k_max, post.shape[0] + 1)
    prev_post = _latest_before(post, 0, pre.shape[0] + k_max)
    c_syn, c_post = _synapse_spikes(post, syn_post)
    c_pre = last_pre[c_post + 1 + k_max - syn_k[c_syn], syn_pre[c_syn]]
    a_syn, a_pre = _synapse_spikes(pre, syn_pre)
    a_post = prev_post[a_pre + syn_k[a_syn], syn_post[a_syn]]
    c = c_pre >= 0
    a = a_post >= 0
    return (
        np.concatenate([c_syn[c], a_syn[a]]),
        np.concatenate([c_pre[c], a_pre[a]]),
        np.concatenate([c_post[c], a_post[a]]),
    )


def _latest_before(raster: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row ``t - lo``, for t in [lo, hi) with lo <= 0: per column of the
    boolean ``raster`` (bins along axis 0), the latest bin before t in which
    it spikes, -1 if none. Filled row by row: a ``maximum.accumulate`` over
    the bin axis costs as much on a small sheet and 2 to 3 times more on a
    32x32 one."""
    n = raster.shape[0]
    out = np.full((hi - lo,) + raster.shape[1:], -1, dtype=np.int32)
    for t in range(1, min(hi, n + 1)):
        out[t - lo] = out[t - 1 - lo]
        out[t - lo][raster[t - 1]] = t - 1
    if hi > n + 1:
        out[n + 1 - lo :] = out[n - lo]
    return out


def _synapse_spikes(raster: np.ndarray, neuron: np.ndarray):
    """``(syn, t)``: synapse ``s`` with each bin in which column
    ``neuron[s]`` of the boolean ``raster`` spikes, by synapse then bin."""
    col, t = np.divmod(np.flatnonzero(raster.T), raster.shape[0])
    n_col = np.bincount(col, minlength=raster.shape[1])
    n = n_col[neuron]
    syn = np.repeat(np.arange(neuron.size), n)
    first = (np.cumsum(n_col) - n_col)[neuron]  # each synapse's first spike in t
    return syn, t[np.arange(syn.size) + np.repeat(first - np.cumsum(n) + n, n)]


def delay_bins(d, p: PlasticityParams, floor: float = 0.0) -> np.ndarray:
    """Delivery delays in whole bins: each delay rounded to the nearest bin
    and kept in [floor, max(floor, round(d_max))]."""
    return np.clip(np.rint(d), floor, max(floor, int(round(p.d_max)))).astype(np.int64)

