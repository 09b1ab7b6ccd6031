"""Clock-driven LIF dynamics and delayed spike delivery.

The simulation advances in steps of one input frame bin. Delays are stored
as floats for learning but quantized to integer bins (nearest) for
delivery, which a presentation-length accumulator realizes exactly: a spike
scheduled with delay d lands d bins after it was emitted, never earlier,
never later.
"""

from __future__ import annotations

import math

import numpy as np

from .config import LIFParams


class DelayOutOfRange(RuntimeError):
    """A delivery was scheduled with a delay outside [0, d_max]: an internal
    fault, as quantized delays are clamped to that range."""


def lif_integrate(v, input_current, t, refractory_until, p: LIFParams):
    """Leak plus gated input, without the spike test.

    Input is ignored while ``t <= refractory_until``; the leak always runs
    (a reset membrane just decays from v_reset). Returns the new potential
    and the boolean mask of neurons outside their refractory window.
    """
    decay = math.exp(-1.0 / p.tau_m)
    v = np.asarray(v, dtype=float) * decay
    open_mask = np.asarray(t > np.asarray(refractory_until))
    v = np.where(open_mask, v + np.asarray(input_current, dtype=float), v)
    return v, open_mask


def lif_step(v, input_current, t, theta, refractory_until, p: LIFParams):
    """One full clock tick: integrate, fire on threshold, reset.

    Returns ``(v, refractory_until, spiked)``. Spiking requires being
    outside the refractory window; firing resets the potential to
    ``v_reset`` and closes the window until ``t + t_ref``.
    """
    v, open_mask = lif_integrate(v, input_current, t, refractory_until, p)
    spiked = open_mask & (v >= np.asarray(theta, dtype=float))
    v = np.where(spiked, p.v_reset, v)
    refractory_until = np.where(spiked, t + p.t_ref, np.asarray(refractory_until))
    return v, refractory_until, spiked


class DelayBuffer:
    """Per-bin input accumulators of one presentation for one neuron population.

    One ``[n_bins, n_targets]`` array that never wraps: ``schedule`` adds
    each weight at row ``t_emit + delay``, its arguments broadcast and the
    terms of one cell added in the order given, and ``read(t)`` returns row
    t. ``last`` is the latest row written so far (-1 before any).
    """

    def __init__(self, n_bins: int, n_targets: int, d_max: float):
        self.d_max = int(round(d_max))
        self.rows = np.zeros((n_bins, n_targets))
        self.last = -1

    def schedule(self, targets, weights, delays, t_emit) -> None:
        targets, weights, delays = np.asarray(targets), np.asarray(weights), np.asarray(delays)
        if not (np.ndim(t_emit) == 0 and targets.shape == weights.shape == delays.shape):
            targets, weights, delays, t_emit = np.broadcast_arrays(targets, weights, delays, t_emit)
        if delays.size and (delays.min() < 0 or delays.max() > self.d_max):
            bad = int(delays[(delays < 0) | (delays > self.d_max)][0])
            raise DelayOutOfRange(f"delay {bad} outside [0, {self.d_max}]")
        rows = t_emit + delays
        # one flat index runs the fast 1-D path of np.add.at, in the same order
        np.add.at(self.rows.reshape(-1), (rows * self.rows.shape[1] + targets).ravel(), weights.ravel())
        self.last = max(self.last, int(rows.max(initial=-1)))

    def read(self, t: int) -> np.ndarray:
        return self.rows[t]

