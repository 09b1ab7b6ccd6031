"""Network regulation: activity homeostasis, threshold adaptation, decision
balance, and the per-class activity gate.

All four mechanisms share a negative-feedback shape: an observed quantity is
compared against a target (an interval or a per-class rate), a signed gain
is computed, and parameters move a small step in the direction that reduces
the error. Inside the target region the gain is exactly zero and nothing is
written, so regulated and unregulated parameters are bit-identical there.
"""

from __future__ import annotations

import numpy as np

from .config import RegulationParams


def ema_alpha(window: int) -> float:
    """Smoothing factor for a span-style exponential moving average."""
    return 2.0 / (window + 1.0)


def ema_update(trace: np.ndarray, value, window: int) -> None:
    a = ema_alpha(window)
    trace *= 1.0 - a
    trace += a * np.asarray(value, dtype=float)


def interval_gain(r_obs, params: RegulationParams):
    """Corrective gain for per-neuron activity outside [r_min, r_max].

    Over-activity gives a negative gain scaled by ``k_max``; under-activity
    a positive gain scaled by ``k_min``. Inside the interval the gain is
    exactly 0. The caller applies ``w += lambda_w * K`` and
    ``d -= lambda_d * K`` to the neuron's incoming synapses.
    """
    r_obs = np.asarray(r_obs, dtype=float)
    k = np.zeros_like(r_obs)
    over = r_obs > params.r_max
    under = r_obs < params.r_min
    if params.r_max > 0:
        k[over] = params.k_max * (params.r_max - r_obs[over]) / params.r_max
    if params.r_min > 0:
        k[under] = params.k_min * (params.r_min - r_obs[under]) / params.r_min
    return k


def threshold_step(r_obs_long, params: RegulationParams):
    """Threshold adjustment from long-horizon activity.

    Under-activity lowers the threshold by ``theta_dec`` and over-activity
    raises it by ``theta_inc``, nudging the neuron back into its target
    band. Exactly zero inside the band.
    """
    r = np.asarray(r_obs_long, dtype=float)
    d_theta = np.zeros_like(r)
    d_theta[r < params.r_min] = -params.theta_dec
    d_theta[r > params.r_max] = params.theta_inc
    return d_theta


def decision_gains(window, n_classes: int) -> np.ndarray:
    """Per-class gain (P_target - P_observed) / P_target over ``window``, the
    network's deque of recent verdicts (never an abstention); zeros if empty.

    The target is an equal share of the windowed decisions, so a class
    chosen more often than its share gets a negative gain (its afferent
    weights step down, delays step up) and a starved class a positive one.
    While the window fills, the target scales with its population rather
    than its capacity. The counts are recounted from the window each call.
    """
    if not window:
        return np.zeros(n_classes)
    p_target = len(window) / n_classes
    return (p_target - np.bincount(window, minlength=n_classes)) / p_target


class DecentralizeGate:
    """Per-class cap on how many decision neurons may emit in the one
    presentation a gate serves.

    The first ``dc_upper`` neurons of a class group to reach threshold are
    committed for the presentation (ties within a bin resolve to the lowest
    neuron index, because candidates arrive in index order). All later
    would-be spikes from other group members are suppressed: no spike is
    recorded, no reset and no refractory period happens, and the membrane
    keeps integrating. With decentralization disabled the cap is the layer
    size, which no group can reach.
    """

    def __init__(self, class_of: np.ndarray, dc_upper: int):
        self.class_of = class_of
        self.dc_upper = int(dc_upper)
        self.committed = np.zeros(class_of.shape[0], dtype=bool)
        self.group_count = np.zeros(int(class_of.max(initial=-1)) + 1, dtype=np.int64)

    def filter(self, candidates: np.ndarray) -> np.ndarray:
        """Boolean mask over ``candidates`` (ascending indices): True = may fire."""
        allowed = np.zeros(candidates.shape[0], dtype=bool)
        for i, j in enumerate(candidates):
            g = self.class_of[j]
            if self.committed[j]:
                allowed[i] = True
            elif self.group_count[g] < self.dc_upper:
                self.committed[j] = True
                self.group_count[g] += 1
                allowed[i] = True
        return allowed

    def may_fire(self) -> np.ndarray:
        """Boolean mask over neurons: True where :meth:`filter` would still let
        the neuron fire, False for an uncommitted neuron of a full group.
        A False stays False: groups only fill."""
        return self.committed | (self.group_count[self.class_of] < self.dc_upper)


class FreezeTracker:
    """Sticky convergence detector over per-presentation delay movement.

    Tracks an EMA of each unit's mean absolute applied delay change. Once a
    unit has been observed for at least ``window`` presentations and its EMA
    sits below ``threshold``, it freezes, permanently: its delays receive no
    further updates. Weight learning is unaffected.

    The tracker holds no state of its own: :meth:`update` writes in place to
    the ``ema``, ``n_obs`` and ``frozen`` arrays it is given, a phase's
    network arrays in training, so a checkpoint carries the tracker's state.
    """

    def __init__(self, ema: np.ndarray, n_obs: np.ndarray, frozen: np.ndarray, threshold: float, window: int):
        self.ema, self.n_obs, self.frozen = ema, n_obs, frozen
        self.threshold = threshold
        self.window = int(window)

    def update(self, mean_abs_dd: np.ndarray) -> None:
        live = ~self.frozen
        a = ema_alpha(self.window)
        self.ema[live] = (1.0 - a) * self.ema[live] + a * np.asarray(mean_abs_dd, dtype=float)[live]
        self.n_obs[live] += 1
        self.frozen |= live & (self.n_obs >= self.window) & (self.ema < self.threshold)

    @property
    def all_frozen(self) -> bool:
        return bool(self.frozen.all())
