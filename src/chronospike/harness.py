"""Training, evaluation, and presentation orchestration.

Training is layerwise, and both phases run in one epoch loop,
:func:`_train_phase`: it orders each epoch from the network's RNG, feeds
each unit's delay movement to the phase's freeze tracker, ends the phase
once every unit has frozen or the epoch budget runs out, and writes the
metrics row. Each phase supplies only its presentation. Phase 1 presents
samples to the convolutional sheet alone, updating its shared kernels with
unsupervised weight and delay rules plus interval homeostasis. Phase 2
freezes layer 1 (its pooled responses are cached per sample), then trains
the decision layer with the reward-modulated rules and all regulation
mechanisms. All parameter changes are accumulated over one presentation and
applied at its end.

Evaluation runs presentations with plasticity and regulation off; only the
per-class activity gate stays, since it shapes the vote rather than the
parameters. Disabling decentralization raises the gate's cap to the layer
size, which no class group can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import plasticity as pl
from .config import ConfigError, RunConfig
from .core import DelayBuffer, lif_integrate, lif_step
from .events import FrameSequence
from .regulation import DecentralizeGate, FreezeTracker, decision_gains, ema_update, interval_gain, threshold_step
from .topology import Network, build_network, conv_forward_currents, layer1_hash, pool_earliest

#: A presentation runs at most this many spans of d_max + 1 bins past its
#: input and its last forward arrival, draining in-flight lateral deliveries.
FLUSH_FACTOR = 4
#: Conv neurons per ``argmax`` in ``_conv_sim``, which copies the block it reads.
ARGMAX_BLOCK = 4096


@dataclass
class PresentationResult:
    """One presentation's spikes and their readout. ``conv_spikes`` is the
    [bins, n_maps, Hc, Wc] spike tensor, None when the pooled spikes came
    from a cache; pooled and decision spikes are (bin, unit) arrays in
    emission order. ``counts`` and ``first_class`` hold each class's decision
    spikes and earliest decision bin (inf if none)."""

    conv_spikes: np.ndarray | None
    pooled_t: np.ndarray
    pooled_unit: np.ndarray
    decision_t: np.ndarray
    decision_neuron: np.ndarray
    counts: np.ndarray
    first_class: np.ndarray


@dataclass
class PhaseResult:
    converged: bool
    epochs: int
    presentations: int
    gate_violations: int = 0


@dataclass
class TrainResult:
    net: Network
    converged_l1: bool
    converged_l2: bool
    epochs_l1: int
    epochs_l2: int
    presentations: int
    gate_violations: int
    layer1_hash_after_phase1: str
    layer1_hash_final: str


@dataclass
class EvalResult:
    accuracy: float
    n: int
    correct: int
    confusion: np.ndarray
    abstained: np.ndarray
    decision_totals: np.ndarray


# -- single presentation ----------------------------------------------------


def _conv_sim(net: Network, frames: np.ndarray):
    """Run the convolutional sheet; returns (spike tensor, first-spike map).

    Nothing feeds back into the sheet, so it runs in passes, each with the
    operations of :func:`lif_step` in its order and so with its bits. (1)
    No neuron is refractory before its first spike: the recursion ``v *
    decay + I`` runs over the whole window in place in the currents, which
    is safe as ``conv_forward_currents`` makes them afresh for each call;
    rows ``t_ref + 1 ..``, the only bins in which a neuron that fired takes
    input again, are copied first. (2) One threshold test, where ``v ==
    theta`` fires, gives each neuron's first spike bin ``t0``, which is the
    first-spike map (inf if none). (3) :func:`lif_step` steps only the
    neurons with ``t0 + t_ref`` before the last bin, over the copied rows
    from ``b = min t0 + t_ref + 1``: one that fired by ``b - 1`` from its
    decayed reset, refractory through ``t0 + t_ref``, any other from its
    potential at ``b - 1``. It stops after the first spike bin from which
    all of them are refractory through the last bin; input is ignored in
    that window, so no bin it skips could spike."""
    v = conv_forward_currents(net, frames)
    t_tot, lif = v.shape[0], net.cfg.lif
    decay = math.exp(-1.0 / lif.tau_m)  # the leak of lif_integrate
    tail = v[lif.t_ref + 1 :].reshape(-1, v[0].size).copy()
    step = np.empty(v.shape[1:])
    for t in range(1, t_tot):
        np.multiply(v[t - 1], decay, out=step)
        v[t] += step
    theta = net.conv_theta[:, None, None]
    spikes = v >= theta
    flat, v = spikes.reshape(t_tot, -1), v.reshape(t_tot, -1)
    t0, n = np.empty(flat.shape[1], dtype=np.intp), np.arange(flat.shape[1])
    for lo in range(0, n.size, ARGMAX_BLOCK):
        flat[:, lo : lo + ARGMAX_BLOCK].argmax(axis=0, out=t0[lo : lo + ARGMAX_BLOCK])
    fired = flat[t0, n]
    first = np.where(fired, t0, np.inf).reshape(spikes.shape[1:])
    flat.fill(False)
    flat[t0[fired], n[fired]] = True
    again = n[fired & (t0 + lif.t_ref < t_tot - 1)]
    if again.size:
        t0 = t0[again]
        b = int(t0.min()) + lif.t_ref + 1
        reset = [lif.v_reset]
        for _ in range(lif.t_ref):
            reset.append(reset[-1] * decay)
        done = t0 < b
        vs = np.where(done, np.take(reset, (b - 1 - t0).clip(0)), v[b - 1, again])
        refr = np.where(done, t0 + lif.t_ref, -(1 << 30))
        theta = np.broadcast_to(theta, spikes.shape[1:]).reshape(-1)[again]
        for t in range(b, t_tot):
            vs, refr, spk = lif_step(vs, tail[t - lif.t_ref - 1, again], t, theta, refr, lif)
            if spk.any():
                flat[t, again[spk]] = True
                if refr.min() >= t_tot - 1:
                    break
    return spikes, first


def _pooled_spikes(net: Network, conv_first: np.ndarray):
    """Earliest-spike pooling: at most one spike per pooled unit."""
    pooled = pool_earliest(conv_first, net.cfg.topology.pool)
    m_idx, y_idx, x_idx = np.nonzero(np.isfinite(pooled))
    t = pooled[m_idx, y_idx, x_idx].astype(np.int64)
    units = (m_idx * pooled.shape[1] + y_idx) * pooled.shape[2] + x_idx
    order = np.argsort(t, kind="stable")
    return t[order], units[order]


def _window_last(t_input: int, fwd: DelayBuffer, lat: DelayBuffer, hard_cap: int) -> int:
    """The last bin of a decision window: the stimulus's last bin or the
    latest forward or lateral arrival scheduled so far, whichever is later,
    but below ``hard_cap``."""
    return min(hard_cap - 1, max(t_input - 1, fwd.last, lat.last))


def _decision_sim(net: Network, pooled_t, pooled_unit, t_input: int, gate: DecentralizeGate):
    """Step the decision layer bin by bin, forward and lateral spikes each
    landing exactly d bins later through a :class:`DelayBuffer`: the forward
    terms all up front, in pooled-spike order, and a firing bin's lateral
    edges by source neuron, then edge index. The loop drains all in-flight
    input after the stimulus ends, with a hard cap so self-sustaining
    lateral loops cannot run forever: its last bin is the one
    :func:`_window_last` returns.

    Only the bins in which a neuron can fire are visited; skipping the
    others changes no spike, gate state or schedule, so the outputs are
    those of a loop over every bin. With every ``theta`` positive the loop
    starts at the first bin that carries forward input, since before it
    every potential is exactly 0.0 (with no input at all, no bin is
    visited); otherwise it starts at bin 0. It stops after the firing bin
    from which every neuron is barred by the gate (see
    :meth:`DecentralizeGate.may_fire`) or refractory through the last bin:
    the gate could only suppress later candidates, which resets nothing."""
    lif = net.cfg.lif
    par = net.cfg.plasticity
    n = net.n_dec
    t_input = int(t_input)
    span = int(round(par.d_max)) + 1
    # forward arrivals land by pooled_t.max() + d_max, so this holds hard_cap + d_max + 1 rows
    n_bins = max(t_input, int(pooled_t.max(initial=-1)) + span) + (FLUSH_FACTOR + 1) * span
    fwd = DelayBuffer(n_bins, n, par.d_max)
    lat = DelayBuffer(n_bins, n, max(pl.LATERAL_DELAY_FLOOR, par.d_max))
    dint = pl.delay_bins(net.df[:, pooled_unit], par)
    fwd.schedule(np.arange(n), net.wf[:, pooled_unit].T, dint.T, pooled_t[:, None])
    by_src = np.argsort(net.lat_src, kind="stable")
    # the out-edges of neuron j, in edge order, are by_src[out_lo[j] : out_lo[j + 1]]
    out_lo = np.searchsorted(net.lat_src[by_src], np.arange(n + 1)).tolist()
    lat_dint = pl.delay_bins(net.lat_d, par, pl.LATERAL_DELAY_FLOOR)
    v = np.zeros(n)
    refr = np.full(n, -(1 << 30), dtype=np.int64)
    ts: list[int] = []
    js: list[int] = []
    hard_cap = max(t_input, fwd.last + 1) + FLUSH_FACTOR * span
    t = 0
    if (net.theta > 0).all():
        fed = np.flatnonzero(fwd.rows.any(axis=1))
        t = int(fed[0]) if fed.size else hard_cap
    while t <= _window_last(t_input, fwd, lat, hard_cap):
        v, open_mask = lif_integrate(v, lat.read(t) + fwd.read(t), t, refr, lif)
        cand = np.nonzero(open_mask & (v >= net.theta))[0]
        if cand.size:
            fire = cand[gate.filter(cand)]
            if fire.size:
                v[fire] = lif.v_reset
                refr[fire] = t + lif.t_ref
                fired = fire.tolist()
                ts.extend([t] * len(fired))
                js.extend(fired)
                e = np.concatenate([by_src[out_lo[j] : out_lo[j + 1]] for j in fired])
                lat.schedule(net.lat_tgt[e], net.lat_w[e], lat_dint[e], t)
                if not (gate.may_fire() & (refr < _window_last(t_input, fwd, lat, hard_cap))).any():
                    break
        t += 1
    return np.asarray(ts, np.int64), np.asarray(js, np.int64)


def run_presentation(net: Network, frames: np.ndarray, pooled=None) -> PresentationResult:
    """Run one sample through the full network without any learning.

    Membrane state and buffers live only inside this call, so the network
    object is untouched. The stimulus lasts all of ``frames``; a caller that
    shows fewer bins cuts them. ``pooled`` short-circuits the convolutional
    stage with cached pooled spikes (valid whenever layer 1 is not
    changing), and the result then holds no conv spikes. Each call builds
    its own per-class activity gate; disabling decentralization raises its
    cap from ``dc_upper`` to the layer size, which no group can reach.
    """
    cfg = net.cfg
    if pooled is None:
        spikes, first = _conv_sim(net, frames)
        pooled_t, pooled_unit = _pooled_spikes(net, first)
    else:
        spikes = None
        pooled_t, pooled_unit = pooled
    cap = net.n_dec if cfg.is_disabled("decentralize") else cfg.regulation.dc_upper
    dec_t, dec_j = _decision_sim(net, pooled_t, pooled_unit, frames.shape[0], DecentralizeGate(net.class_of, cap))
    counts = np.bincount(net.class_of[dec_j], minlength=net.n_classes)
    first_class = np.full(net.n_classes, np.inf)
    np.minimum.at(first_class, net.class_of[dec_j], dec_t)
    return PresentationResult(spikes, pooled_t, pooled_unit, dec_t, dec_j, counts, first_class)


# -- readout and reward ------------------------------------------------------


def majority_vote(counts: np.ndarray, first_class: np.ndarray):
    """Class with the most decision spikes.

    Ties resolve to the tied class with the earliest first spike, then to
    the lowest class index. No spikes at all means abstention (None).
    """
    if counts.sum() == 0:
        return None
    cand = np.nonzero(counts == counts.max())[0]
    if cand.size > 1:
        fs = first_class[cand]
        cand = cand[fs == fs.min()]
    return int(cand[0])


def compute_reward(counts: np.ndarray, target: int, kappa: float, clip_val: float = 1.0) -> float:
    """kappa * (target spikes - non-target spikes), clipped to [-clip, clip]."""
    s_t = float(counts[target])
    s_n = float(counts.sum()) - s_t
    return float(np.clip(kappa * (s_t - s_n), -clip_val, clip_val))


# -- plasticity plumbing -----------------------------------------------------


def _conv_pair_deltas(net: Network, frames: np.ndarray, spikes: np.ndarray):
    """Sum the unsupervised rule kernels over the pairs of every
    position-specific conv synapse, then average each shared kernel tap over
    the positions so the shared kernels stay exactly shared.

    Pairing gathers from the tables of
    :func:`~chronospike.plasticity._latest_before`, built once per
    presentation: last_pre(t) of each pixel and prev_post(t) of each unit of
    every map. Delays are shared per tap, so the anti-causal index of
    :func:`~chronospike.plasticity._synapse_spikes`, every synapse with
    every emission bin of its pixel, serves all maps. Per map, the causal
    pairs by tap, unit and post bin, then the anti-causal pairs by tap, unit
    and pre bin, come in :func:`~chronospike.plasticity.nearest_pairs`'
    order (synapse ``s`` is tap ``s // n_pos``, unit ``s % n_pos``), so each
    tap's ``np.bincount`` adds the terms in that order. Maps pair one at a
    time, so only one map's pairs are held in memory: on a 32x32 sheet with
    the preset's 16 maps a call peaks near 13 MiB.
    """
    par = net.cfg.plasticity
    st = net.cfg.topology.stride
    n_maps = net.n_maps
    n_taps = net.conv_w[0].size
    n_pos = spikes[0, 0].size
    n_units = n_maps * n_pos
    t_in, t_tot = frames.shape[0], spikes.shape[0]
    # synapse (p, ky, kx, y, x) of a map joins input pixel (p, y*st+ky, x*st+kx) to its unit (y, x)
    p, ky, kx, y, x = np.indices(net.conv_w.shape[1:] + net.conv_hw).reshape(5, -1)
    pre_of = np.ravel_multi_index((p, y * st + ky, x * st + kx), frames.shape[1:])
    raster = frames.reshape(t_in, -1) != 0
    n_pix = raster.shape[1]
    post = spikes.reshape(t_tot, n_units)
    dint = pl.delay_bins(net.conv_d, par).reshape(n_maps, n_taps)
    k_max = int(dint.max())
    # last_pre(t) is row t + 1 + k_max, t in [-k_max, t_tot); prev_post(t) is row t, t in [0, t_in + k_max)
    last_pre = pl._latest_before(raster, -k_max, t_tot + 1).ravel()
    prev_post = pl._latest_before(post, 0, t_in + k_max).ravel()
    # post spikes by map, unit, then bin
    p_unit, p_t = np.divmod(np.flatnonzero(post.T), t_tot)
    p_lo = np.searchsorted(p_unit, np.arange(n_maps + 1) * n_pos)
    # anti-causal index: each synapse with each emission bin u of its pixel, by synapse then u
    a_syn, a_u = pl._synapse_spikes(raster, pre_of)
    a_tap, a_unit = np.divmod(a_syn, n_pos)
    # prev_post(u + k) of map m is at a_at + a_at_map[m, a_tap]
    a_at = a_u * n_units + a_unit
    a_at_map = dint * n_units + np.arange(n_maps)[:, None] * n_pos
    pre_of = pre_of.reshape(n_taps, n_pos)
    none = np.empty(0, np.int64)
    dw = np.zeros((n_maps, n_taps))
    dd = np.zeros((n_maps, n_taps))
    for m in range(n_maps):
        k = dint[m]
        unit, t_post = p_unit[p_lo[m] : p_lo[m + 1]] - m * n_pos, p_t[p_lo[m] : p_lo[m + 1]]
        if t_post.size == 0:  # a map that never fires has no pairs
            tm, t_pre, t_pair = none, none, none
        else:
            # causal: last_pre(t_post - k) for each tap and post spike
            c_pre = last_pre[(t_post + 1 + k_max - k[:, None]) * n_pix + pre_of[:, unit]]
            c = np.flatnonzero(c_pre >= 0)
            c_tap, c_col = np.divmod(c, t_post.size)
            # anti-causal: prev_post(u + k) for each synapse and pre spike
            a_post = prev_post[a_at + a_at_map[m, a_tap]]
            a = np.flatnonzero(a_post >= 0)
            tm = np.concatenate([c_tap, a_tap[a]])
            # bins as the floats the rules compute with, converted exactly in one pass
            t_pre = np.concatenate([c_pre.ravel()[c], a_u[a]], dtype=float)
            t_pair = np.concatenate([t_post[c_col], a_post[a]], dtype=float)
        d = net.conv_d[m].ravel()[tm]
        dw[m] = np.bincount(tm, pl.stdp_weight_delta(t_pre, t_pair, d, par), n_taps)
        dd[m] = np.bincount(tm, pl.unsupervised_delay_delta(t_pre, t_pair, d, par), n_taps)
    return dw.reshape(net.conv_w.shape) / n_pos, dd.reshape(net.conv_d.shape) / n_pos


def _decision_pair_deltas(net: Network, pooled_t, pooled_unit, dec_t, dec_j):
    """Sum the decision-layer rule kernels over the pairs of every synapse,
    at unit reward.

    All rules are linear in the reward, so the sums get multiplied by the
    actual reward at apply time. Pooled units and decision neurons form one
    pre population, so forward synapses and lateral edges pair in one call.
    One weight rule serves both synapse signs; the edges under the
    inhibitory rules (see :func:`_lateral_domain`) take the inhibitory delay rule.
    """
    par = net.cfg.plasticity
    n_fwd = net.wf.size
    n_pool = net.n_pool
    d = np.concatenate([net.df.ravel(), net.lat_d])
    syn, t_pre, t_post = pl.nearest_pairs(
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


def _lateral_domain(net: Network):
    """``(inh, lo, hi)``: the lateral edges under the inhibitory rules (those
    from inhibitory neurons, none with ``inh_rules_shared``) and each edge's
    weight bounds, [w_inh_min, 0] on those and [0, w_max] on the rest. The
    weight rule is the same for both signs; only its domain tells them apart."""
    par = net.cfg.plasticity
    inh = net.is_inh[net.lat_src] & (not net.cfg.inh_rules_shared)
    return inh, np.where(inh, par.w_inh_min, 0.0), np.where(inh, 0.0, par.w_max)


def _step(w, d, sel, dw, dd, w_lo, w_hi, floor, live, par, delay_on: bool) -> None:
    """Add ``dw`` and ``dd`` to the rows ``sel`` of one plastic block, in
    domain: the one place where synapse weights and delays are clipped.

    Blocks are the conv kernels (a row per map), the decision afferents (a
    row per neuron) and the lateral edges (a row per edge). ``dw`` and ``dd``
    are shaped like the block or broadcast to it; the weight bounds are
    scalars or one per row. Delays move only with delay learning on, only
    where ``live`` (not frozen), and stay in [floor, max(floor, d_max)]."""
    lo, hi = (b[sel] if np.ndim(b) else b for b in (w_lo, w_hi))
    w[sel] = np.clip(w[sel] + dw[sel], lo, hi)
    if delay_on:
        m = sel & live
        d[m] = np.clip(d[m] + dd[m], floor, max(floor, par.d_max))


def _apply_decision_plasticity(net: Network, r: float, deltas, delay_on: bool) -> None:
    """Apply the unit-reward pair sums of one presentation, scaled by ``r``,
    to every decision-layer synapse through :func:`_step`. At ``r == 0`` it
    writes nothing: a step of zero would still clip a weight outside its
    domain, such as a drawn inhibitory weight under ``inh_rules_shared``."""
    if r == 0.0:
        return
    dwf, ddf, dlw, dld = deltas
    par = net.cfg.plasticity
    _inh, lo, hi = _lateral_domain(net)
    live = ~net.frozen
    _step(net.wf, net.df, np.ones(net.n_dec, bool), r * dwf, r * ddf, 0.0, par.w_max, 0.0, live, par, delay_on)
    _step(
        net.lat_w, net.lat_d, np.ones(net.lat_src.size, bool), r * dlw, r * dld,
        lo, hi, pl.LATERAL_DELAY_FLOOR, live[net.lat_tgt], par, delay_on,
    )


def _apply_neuron_gain(net: Network, gain: np.ndarray, delay_on: bool) -> None:
    """Shift every incoming synapse of gain != 0 neurons: w up and d down for
    positive gain, the reverse for negative. Used by both interval and
    decision homeostasis; rows with zero gain are never written."""
    reg = net.cfg.regulation
    rows = gain != 0.0
    if not rows.any():
        return
    par = net.cfg.plasticity
    _inh, lo, hi = _lateral_domain(net)
    live = ~net.frozen
    g = gain[:, None]
    _step(net.wf, net.df, rows, reg.lambda_w * g, -reg.lambda_d * g, 0.0, par.w_max, 0.0, live, par, delay_on)
    eg = gain[net.lat_tgt]
    _step(
        net.lat_w, net.lat_d, eg != 0.0, reg.lambda_w * eg, -reg.lambda_d * eg,
        lo, hi, pl.LATERAL_DELAY_FLOOR, live[net.lat_tgt], par, delay_on,
    )


# -- training phases ---------------------------------------------------------


def _train_phase(net: Network, samples, phase: str, max_epochs: int, freeze, present, metrics) -> PhaseResult:
    """The epoch loop both phases share.

    Each epoch visits ``samples`` in an order drawn from ``net.rng``.
    ``present(i)`` trains on sample ``i`` and returns each unit's delay
    movement and the phase's own metrics-row fields. With delay learning on,
    the movement feeds a :class:`FreezeTracker` over ``freeze``, the phase's
    (ema, observation count, frozen) network arrays, and the phase ends
    early, converged, after the epoch in which every unit has frozen.
    """
    hp = net.cfg.harness
    delay_on = net.cfg.delay_learning_on
    tracker = FreezeTracker(*freeze, hp.freeze_scale * net.cfg.plasticity.d_max, hp.freeze_window)
    presentations = epochs = 0
    for epoch in range(max_epochs):
        epochs = epoch + 1
        for i in net.rng.permutation(len(samples)).tolist():
            moved, row = present(i)
            if delay_on:
                tracker.update(moved)
            presentations += 1
            if metrics is not None:
                shared = {"phase": phase, "epoch": epoch, "sample": i, "label": int(samples[i].label)}
                metrics({**shared, "frozen_fraction": float(tracker.frozen.mean()), **row})
        if delay_on and tracker.all_frozen:
            return PhaseResult(True, epochs, presentations)
    return PhaseResult(False, epochs, presentations)


def train_layer1(net: Network, samples: list[FrameSequence], metrics=None) -> PhaseResult:
    """Unsupervised training of the convolutional sheet: per presentation,
    the pair rules and then interval homeostasis on the shared kernels."""
    cfg = net.cfg
    reg = cfg.regulation
    par = cfg.plasticity
    delay_on = cfg.delay_learning_on
    every = np.ones(net.n_maps, dtype=bool)

    def present(i: int):
        frames = samples[i].frames
        spikes, _first = _conv_sim(net, frames)
        d_before = net.conv_d.copy()
        if spikes.any():
            dw_k, dd_k = _conv_pair_deltas(net, frames, spikes)
            _step(
                net.conv_w, net.conv_d, every, dw_k, dd_k,
                0.0, par.w_max, 0.0, ~net.conv_frozen, par, delay_on,
            )
        counts = spikes.sum(axis=0)
        ema_update(net.conv_act, counts, reg.activity_window)
        k_map = interval_gain(net.conv_act, reg).mean(axis=(1, 2))
        k = k_map[:, None, None, None]
        _step(
            net.conv_w, net.conv_d, k_map != 0.0, reg.lambda_w * k, -reg.lambda_d * k,
            0.0, par.w_max, 0.0, ~net.conv_frozen, par, delay_on,
        )
        moved = np.abs(net.conv_d - d_before).mean(axis=(1, 2, 3))
        return moved, {"verdict": None, "reward": None, "conv_spikes": int(counts.sum())}

    freeze = (net.conv_freeze_ema, net.conv_freeze_n, net.conv_frozen)
    res = _train_phase(net, samples, "layer1", cfg.harness.max_epochs_l1, freeze, present, metrics)
    net.phase = "layer2"
    return res


def build_pooled_cache(net: Network, samples: list[FrameSequence]):
    """Pooled responses per sample; valid while layer 1 stays frozen."""
    cache = []
    for s in samples:
        _spikes, first = _conv_sim(net, s.frames)
        cache.append(_pooled_spikes(net, first))
    return cache


def train_layer2(net: Network, samples: list[FrameSequence], pooled_cache, metrics=None) -> PhaseResult:
    """Reinforcement training of the decision layer on the pooled responses
    of :func:`build_pooled_cache`.

    Per presentation: run, vote, reward, apply the accumulated pair rules,
    then regulation in a fixed order (decision homeostasis, interval
    homeostasis, threshold adaptation). Decision homeostasis acts only on
    presentations that produced a verdict: an abstention leaves its window
    unchanged, and re-applying the gains of an unchanged window would charge
    one stale surplus again and again. A neuron's delay movement is averaged
    over its forward and lateral afferents. A presentation is a gate
    violation when some class group had more than ``dc_upper`` distinct
    neurons fire, counted from its decision spikes.
    """
    cfg = net.cfg
    reg = cfg.regulation
    hp = cfg.harness
    delay_on = cfg.delay_learning_on
    n_in = net.n_pool + np.bincount(net.lat_tgt, minlength=net.n_dec)
    violations = 0

    def present(i: int):
        nonlocal violations
        s = samples[i]
        pres = run_presentation(net, s.frames, pooled=pooled_cache[i])
        verdict = majority_vote(pres.counts, pres.first_class)
        r = compute_reward(pres.counts, s.label, hp.kappa, hp.reward_clip)
        d_before_f = net.df.copy()
        d_before_l = net.lat_d.copy()

        if r != 0.0:
            deltas = _decision_pair_deltas(net, pres.pooled_t, pres.pooled_unit, pres.decision_t, pres.decision_neuron)
            _apply_decision_plasticity(net, r, deltas, delay_on)

        counts_per_neuron = np.bincount(pres.decision_neuron, minlength=net.n_dec)
        if (np.bincount(net.class_of[counts_per_neuron > 0], minlength=net.n_classes) > reg.dc_upper).any():
            violations += 1
        ema_update(net.act_short, counts_per_neuron, reg.activity_window)
        ema_update(net.act_long, counts_per_neuron, reg.long_window)
        if verdict is not None and not cfg.is_disabled("decision-homeo"):
            net.decision_window.append(verdict)
            k_class = decision_gains(net.decision_window, net.n_classes)
            _apply_neuron_gain(net, k_class[net.class_of], delay_on)
        if not cfg.is_disabled("homeo"):
            _apply_neuron_gain(net, interval_gain(net.act_short, reg), delay_on)
        if not cfg.is_disabled("threshold"):
            d_theta = threshold_step(net.act_long, reg)
            tm = d_theta != 0.0
            if tm.any():
                net.theta[tm] = np.clip(
                    net.theta[tm] + d_theta[tm], cfg.lif.theta_floor, cfg.lif.theta_ceil
                )
        moved = np.abs(net.df - d_before_f).sum(axis=1)
        moved += np.bincount(net.lat_tgt, weights=np.abs(net.lat_d - d_before_l), minlength=net.n_dec)
        return moved / n_in, {"verdict": verdict, "reward": r, "counts": [int(c) for c in pres.counts]}

    freeze = (net.freeze_ema, net.freeze_n, net.frozen)
    res = _train_phase(net, samples, "layer2", hp.max_epochs_l2, freeze, present, metrics)
    res.gate_violations = violations
    net.phase = "eval"
    return res


def check_samples(samples, shape, n_classes: int, source) -> None:
    """Raise a :class:`ConfigError` naming ``source`` unless ``samples`` holds
    a sample, every sample's frames are (P, H, W) = ``shape`` (``None``: the
    first sample's), and every label is a class index below ``n_classes``:
    the one check of whether samples fit a network."""
    if not samples:
        raise ConfigError(f"{source}: no samples")
    shape = tuple(samples[0].frames.shape[1:] if shape is None else shape)
    for i, s in enumerate(samples):
        got = s.frames.shape[1:]
        if got != shape:
            raise ConfigError(f"{source}: sample {i} has frames (P, H, W) = {got}, but the network takes {shape}")
        if not 0 <= s.label < n_classes:
            raise ConfigError(f"{source}: sample {i} has label {s.label}, not one of the classes 0..{n_classes - 1}")


def train(cfg: RunConfig, samples: list[FrameSequence], metrics=None, after_layer1=None) -> TrainResult:
    """Build the network of ``cfg`` and train both phases on ``samples``.

    ``metrics``, if given, is called with one row per presentation of
    either phase. ``after_layer1``, if given, is called once with the
    network between the phases: layer 1 is trained and phase 2 has not
    started. Refuses, as :func:`check_samples` does, an empty set, samples
    of more than one frame shape and labels outside the config's classes.
    """
    check_samples(samples, None, cfg.topology.n_classes, "training set")
    net = build_network(cfg, samples[0].frames.shape[1:])
    r1 = train_layer1(net, samples, metrics=metrics)
    if after_layer1 is not None:
        after_layer1(net)
    h1 = layer1_hash(net)
    cache = build_pooled_cache(net, samples)
    r2 = train_layer2(net, samples, pooled_cache=cache, metrics=metrics)
    return TrainResult(
        net=net,
        converged_l1=r1.converged,
        converged_l2=r2.converged,
        epochs_l1=r1.epochs,
        epochs_l2=r2.epochs,
        presentations=r1.presentations + r2.presentations,
        gate_violations=r2.gate_violations,
        layer1_hash_after_phase1=h1,
        layer1_hash_final=layer1_hash(net),
    )


# -- evaluation ---------------------------------------------------------------


def evaluate(
    net: Network,
    samples: list[FrameSequence],
    limit_frames: int | None = None,
    spike_rows: list | None = None,
) -> EvalResult:
    """Score samples without touching any network state.

    The per-class activity gate stays on (it is part of inference; disabling
    decentralization raises its cap to the layer size); plasticity,
    regulation, traces, and the RNG are all left alone, so the state hash
    before and after is identical. Refuses, as :func:`check_samples` does,
    an empty set, frames of another shape than ``net.input_shape`` and
    labels outside the network's classes.
    """
    check_samples(samples, net.input_shape, net.n_classes, "evaluation set")
    c = net.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    abstained = np.zeros(c, dtype=np.int64)
    totals = np.zeros(c, dtype=np.int64)
    correct = 0
    for i, s in enumerate(samples):
        pres = run_presentation(net, s.frames if limit_frames is None else s.frames[: int(limit_frames)])
        verdict = majority_vote(pres.counts, pres.first_class)
        if verdict is None:
            abstained[s.label] += 1
        else:
            confusion[s.label, verdict] += 1
            totals[verdict] += 1
            if verdict == s.label:
                correct += 1
        if spike_rows is not None:
            # conv neuron (m * Hc + y) * Wc + x, in bin then neuron order
            conv_t, conv = np.nonzero(pres.conv_spikes.reshape(pres.conv_spikes.shape[0], -1))
            for layer, neuron, t in (
                ("conv", conv, conv_t),
                ("pooled", pres.pooled_unit, pres.pooled_t),
                ("decision", pres.decision_neuron, pres.decision_t),
            ):
                spike_rows.extend((i, layer, j, tj) for j, tj in zip(neuron.tolist(), t.tolist()))
    return EvalResult(
        accuracy=correct / len(samples),
        n=len(samples),
        correct=correct,
        confusion=confusion,
        abstained=abstained,
        decision_totals=totals,
    )


def frames_sweep(net: Network, samples: list[FrameSequence], limits) -> list[tuple[int, float]]:
    """Accuracy when only the first x frames of each sample are shown."""
    return [(int(x), evaluate(net, samples, limit_frames=int(x)).accuracy) for x in limits]
