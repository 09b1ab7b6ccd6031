"""Spike-pair update rules for weights and conduction delays.

All rules are pure functions of a single (pre, post) spike pair on one
synapse. The timing argument is always the emission-time difference
corrected by the synapse's current delay,

    dt = t_post - t_pre - d

with the excitatory delay rule additionally subtracting the target lead
``epsilon``. Positive dt means the delayed presynaptic arrival preceded the
postsynaptic spike (causal); negative dt means it came too late.

Rule summary, for reward r in [-1, 1] (r is fixed to 1 for the unsupervised
variants used in layer 1):

* weight, excitatory:    dw = +a_plus  * exp(-dt/tau_plus)   for dt >= 0
                         dw = -a_minus * exp(+dt/tau_minus)  for dt <  0
  (scaled by r in the decision layer)
* weight, inhibitory:    same closed form, applied to the signed negative
  weight; under reward a causal pair pushes the weight toward 0, weakening
  inhibition, and punishment strengthens it.
* delay, excitatory:     dd = +b_plus  * exp(-dt'/sigma_plus)   for dt' >= 0
                         dd = -b_minus * exp(+dt'/sigma_minus)  for dt' <  0
  with dt' = dt - epsilon, scaled by r. The fixed point is dt' = 0, i.e.
  d -> (t_post - t_pre) - epsilon: the delay grows while the arrival leads
  by more than epsilon and shrinks once it arrives too late, so repeated
  application aligns arrivals to epsilon before the postsynaptic spike.
* delay, inhibitory:     dd = +b_minus * exp(-dt/sigma_minus)  for dt >= 0
                         dd = -b_plus  * exp(+dt/sigma_plus)   for dt <  0
  scaled by r; under reward a causally paired inhibitory synapse gets a
  longer delay, decoupling it, while punishment re-engages it.

Deltas are accumulated per synapse over one presentation and applied once
at the end, then clamped to the sign-respecting bounds in
:class:`~chronospike.config.PlasticityParams`.
"""

from __future__ import annotations

import numpy as np

from .config import PlasticityParams

__all__ = [
    "stdp_weight_delta",
    "reward_stdp_weight_delta",
    "inhibitory_stdp_weight_delta",
    "unsupervised_delay_delta",
    "reward_delay_delta",
    "inhibitory_delay_delta",
    "pair_spikes",
    "clamp_excitatory_weights",
    "clamp_inhibitory_weights",
    "clamp_delays",
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


def _weight_kernel(dt, a_plus, a_minus, tau_plus, tau_minus):
    dt = np.asarray(dt, dtype=float)
    return np.where(
        dt >= 0.0,
        a_plus * np.exp(-dt / tau_plus),
        -a_minus * np.exp(dt / tau_minus),
    )


def stdp_weight_delta(t_pre, t_post, d, p: PlasticityParams):
    """Unsupervised weight change for one excitatory pair (layer 1)."""
    dt = np.asarray(t_post, dtype=float) - np.asarray(t_pre, dtype=float) - np.asarray(d, dtype=float)
    return _ret(_weight_kernel(dt, p.a_plus, p.a_minus, p.tau_plus, p.tau_minus))


def reward_stdp_weight_delta(t_pre, t_post, d, r, p: PlasticityParams):
    """Reward-scaled weight change for an excitatory pair (decision layer)."""
    return _ret(np.asarray(r, dtype=float) * stdp_weight_delta(t_pre, t_post, d, p))


def inhibitory_stdp_weight_delta(t_pre, t_post, d, r, p: PlasticityParams):
    """Reward-scaled weight change for a pair whose presynaptic neuron is
    inhibitory.

    The closed form matches the excitatory reward rule; the distinction is
    the domain it acts on. The delta is added to the stored negative weight
    and clamped to [w_inh_min, 0], so a rewarded causal pair (positive
    delta) moves the weight toward zero, weakening the inhibition.
    """
    dt = np.asarray(t_post, dtype=float) - np.asarray(t_pre, dtype=float) - np.asarray(d, dtype=float)
    return _ret(np.asarray(r, dtype=float) * _weight_kernel(dt, p.a_plus, p.a_minus, p.tau_plus, p.tau_minus))


def unsupervised_delay_delta(t_pre, t_post, d, p: PlasticityParams):
    """Delay change that aligns arrivals to ``epsilon`` before the post spike.

    Fixed point at d = (t_post - t_pre) - epsilon. While the delayed arrival
    still leads by more than epsilon the delay grows; once it trails, the
    delay shrinks. Magnitudes decay exponentially with the residual lag.
    """
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


def reward_delay_delta(t_pre, t_post, d, r, p: PlasticityParams):
    """Reward-scaled delay change: the unsupervised magnitude with the
    polarity (and scale) of r. Punishment pushes delays away from the
    alignment point instead of toward it."""
    return _ret(np.asarray(r, dtype=float) * unsupervised_delay_delta(t_pre, t_post, d, p))


def inhibitory_delay_delta(t_pre, t_post, d, r, p: PlasticityParams):
    """Reward-scaled delay change for a pair whose presynaptic neuron is
    inhibitory.

    Sign-flipped relative to the excitatory habit: a rewarded causal pair
    (dt >= 0) lengthens the delay, pushing the inhibitory input out of the
    window where it could veto the postsynaptic spike; punishment shortens
    it. No epsilon offset is applied.
    """
    dt = np.asarray(t_post, dtype=float) - np.asarray(t_pre, dtype=float) - np.asarray(d, dtype=float)
    out = np.where(
        dt >= 0.0,
        p.b_minus * np.exp(-dt / p.sigma_minus),
        -p.b_plus * np.exp(dt / p.sigma_plus),
    )
    return _ret(np.asarray(r, dtype=float) * out)


def pair_spikes(pre_times, post_times, delay_bins: int):
    """Nearest-neighbor spike pairing for one synapse.

    ``pre_times`` and ``post_times`` are sorted emission bins; the pre side
    is shifted by the integer delivery delay ``delay_bins`` to get arrival
    bins. Two disjoint families of pairs are produced:

    * post-anchored: each post spike with the most recent arrival at or
      before it (a causal pair),
    * pre-anchored: each arrival with the most recent post spike strictly
      before it (an anti-causal pair).

    Returns ``(t_pre, t_post)`` arrays of emission bins, one entry per pair.
    """
    pre = np.asarray(pre_times, dtype=np.int64)
    post = np.asarray(post_times, dtype=np.int64)
    if pre.size == 0 or post.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    arrivals = pre + int(delay_bins)

    k = np.searchsorted(arrivals, post, side="right") - 1
    causal = k >= 0
    pa_pre = pre[k[causal]]
    pa_post = post[causal]

    k2 = np.searchsorted(post, arrivals, side="left") - 1
    anti = k2 >= 0
    pb_pre = pre[anti]
    pb_post = post[k2[anti]]

    return np.concatenate([pa_pre, pb_pre]), np.concatenate([pa_post, pb_post])


def clamp_excitatory_weights(w, p: PlasticityParams):
    np.clip(w, 0.0, p.w_max, out=w)
    return w


def clamp_inhibitory_weights(w, p: PlasticityParams):
    np.clip(w, p.w_inh_min, 0.0, out=w)
    return w


def clamp_delays(d, p: PlasticityParams, floor: float = 0.0):
    np.clip(d, floor, p.d_max, out=d)
    return d


def delay_bins(d, p: PlasticityParams, floor: float = 0.0) -> np.ndarray:
    """Delivery delays in whole bins: each delay rounded to the nearest bin
    and kept in [floor, round(d_max)]."""
    return np.clip(np.rint(d), floor, int(round(p.d_max))).astype(np.int64)

