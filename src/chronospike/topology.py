"""Network construction, convolutional geometry, pooling, checkpoints.

The network is a mutable bag of numpy arrays: a convolutional sheet whose
maps share one weight kernel and one delay kernel across all spatial
positions, an earliest-spike pooling stage, and a decision layer that is
dense from the pooled units and sparsely recurrent within itself. Membrane
state is deliberately not stored here; presentations create it locally, so
the object holds only parameters and training traces.
"""

from __future__ import annotations

import base64
import hashlib
import json
from collections import deque
from pathlib import Path

import numpy as np

from . import plasticity as pl
from .config import ConfigError, RunConfig, canonical_json, config_hash, model_identity

CHECKPOINT_FORMAT = "chronospike-checkpoint"
CHECKPOINT_VERSION = 1

#: Training phases a network can be in: the phase it trains next, or ``eval``.
PHASES = ("layer1", "layer2", "eval")
#: Each delay array and its floor; delays stay in [floor, max(floor, d_max)].
_DELAY_FLOORS = (("conv_d", 0.0), ("df", 0.0), ("lat_d", pl.LATERAL_DELAY_FLOOR))
#: The dtype of each array kind in a network, and in a checkpoint.
_BUILT_DTYPE = {"f": np.float64, "i": np.int64, "b": bool}
_STORED_DTYPE = {"f": "<f8", "i": "<i8", "b": "|u1"}


class StateError(ValueError):
    """Checkpoint file does not match the expected format or config."""


def conv_output_shape(input_hw: tuple[int, int], kernel: tuple[int, int], stride: int) -> tuple[int, int]:
    h, w = input_hw
    kh, kw = kernel
    if kh > h or kw > w:
        raise ConfigError(f"topology.kernel: kernel {kernel} larger than input {input_hw}")
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def pool_output_shape(conv_hw: tuple[int, int], pool: tuple[int, int]) -> tuple[int, int]:
    ch, cw = conv_hw
    ph, pw = pool
    if ch % ph or cw % pw:
        raise ConfigError(f"topology.pool: pool {pool} does not tile conv output {conv_hw}")
    return ch // ph, cw // pw


def inhibitory_flags(n_classes: int, n_per_class: int, fraction: float) -> np.ndarray:
    """Tag round(fraction * total) decision neurons inhibitory.

    The total count is exact; it is spread as evenly as possible across the
    class groups (earlier groups absorb the remainder), and within a group
    the highest indices carry the tag. Deterministic, no RNG involved.
    """
    total = n_classes * n_per_class
    n_inh = int(round(fraction * total))
    n_inh = min(n_inh, total)
    base, extra = divmod(n_inh, n_classes)
    flags = np.zeros(total, dtype=bool)
    for c in range(n_classes):
        k = base + (1 if c < extra else 0)
        if k > 0:
            start = c * n_per_class
            flags[start + n_per_class - k : start + n_per_class] = True
    return flags


class Network:
    """Parameters and training traces of the two-layer network. The
    constructor sets the geometry alone and draws nothing; networks are made
    by :func:`build_network` or :func:`load_checkpoint`."""

    def __init__(self, cfg: RunConfig, input_shape: tuple[int, int, int]):
        self.cfg = cfg
        self.input_shape = input_shape  # (P, H, W)
        top = cfg.topology
        self.conv_hw = conv_output_shape(input_shape[1:], top.kernel, top.stride)
        self.pool_hw = pool_output_shape(self.conv_hw, top.pool)
        self.n_maps = top.n_maps
        self.n_pool = top.n_maps * self.pool_hw[0] * self.pool_hw[1]
        self.n_classes = top.n_classes
        self.n_dec = top.n_classes * top.n_per_class
        # the recent verdicts of phase 2, for regulation.decision_gains
        self.decision_window: deque[int] = deque(maxlen=cfg.regulation.decision_window_per_class * top.n_classes)
        self.rng = np.random.default_rng(cfg.seed)
        self.phase = "layer1"


def _array_specs(net: Network, n_edges: int) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Each array a network stores, as its dtype kind and shape for
    ``n_edges`` lateral edges, without allocating: :func:`build_network`
    makes the arrays from it, and :func:`load_checkpoint` checks them."""
    kernel = (net.n_maps, net.input_shape[0]) + net.cfg.topology.kernel
    maps, dec, edges, dense = (net.n_maps,), (net.n_dec,), (n_edges,), (net.n_dec, net.n_pool)
    return {
        "conv_w": ("f", kernel), "conv_d": ("f", kernel), "conv_theta": ("f", maps),
        "conv_act": ("f", maps + net.conv_hw), "conv_freeze_ema": ("f", maps),
        "wf": ("f", dense), "df": ("f", dense), "lat_w": ("f", edges), "lat_d": ("f", edges),
        "theta": ("f", dec), "act_short": ("f", dec), "act_long": ("f", dec), "freeze_ema": ("f", dec),
        "conv_freeze_n": ("i", maps), "lat_src": ("i", edges), "lat_tgt": ("i", edges),
        "class_of": ("i", dec), "freeze_n": ("i", dec),
        "conv_frozen": ("b", maps), "is_inh": ("b", dec), "frozen": ("b", dec),
    }


def build_network(cfg: RunConfig, input_shape: tuple[int, int, int]) -> Network:
    """A new network for ``cfg`` on inputs of ``input_shape``, from the one
    function that draws: the conv kernels, the decision afferents, then the
    lateral block whenever ``p_lat > 0``, which ``lateral`` disabled drops,
    so every variant leaves the generator where the full model does."""
    net = Network(cfg, input_shape)
    top, plast, rng = cfg.topology, cfg.plasticity, net.rng
    size = {name: spec[1] for name, spec in _array_specs(net, 0).items()}
    drawn = {
        "conv_w": rng.uniform(*top.w_conv_init, size=size["conv_w"]),
        "conv_d": rng.uniform(0.0, plast.d_max, size=size["conv_d"]),
        "wf": rng.uniform(*top.w_forward_init, size=size["wf"]),
        "df": rng.uniform(0.0, plast.d_max, size=size["df"]),
        "is_inh": inhibitory_flags(top.n_classes, top.n_per_class, top.inh_fraction),
        "class_of": np.repeat(np.arange(top.n_classes), top.n_per_class),
    }
    src = tgt = np.empty(0, np.int64)
    lat_w = lat_d = np.empty(0)
    if top.p_lat > 0.0:
        mask = rng.random((net.n_dec, net.n_dec)) < top.p_lat
        np.fill_diagonal(mask, False)
        src, tgt = np.nonzero(mask)
        mag = rng.uniform(*top.w_lateral_init, size=src.size)
        lat_w = np.where(drawn["is_inh"][src], -mag, mag)
        floor = pl.LATERAL_DELAY_FLOOR
        lat_d = rng.uniform(floor, max(floor, plast.d_max), size=src.size)
    n = 0 if cfg.is_disabled("lateral") else src.size
    drawn.update(lat_src=src[:n].astype(np.int64), lat_tgt=tgt[:n].astype(np.int64), lat_w=lat_w[:n], lat_d=lat_d[:n])
    if cfg.delay_mode == "fixed":
        for name, floor in _DELAY_FLOORS:
            drawn[name][...] = np.clip(float(cfg.fixed_delay_value), floor, max(floor, plast.d_max))
    start = {"conv_theta": top.conv_theta, "theta": top.decision_theta}
    for name, (kind, shape) in _array_specs(net, n).items():
        setattr(net, name, drawn[name] if name in drawn else np.full(shape, start.get(name, 0), _BUILT_DTYPE[kind]))
    return net


def conv_forward_currents(net: Network, frames: np.ndarray) -> np.ndarray:
    """Precompute the delayed, weighted input to every conv neuron.

    Valid because nothing feeds back into the convolutional sheet: all its
    input is known up front. The work follows the input events, each found
    once: an event at bin t seen by tap j = (p, ky, kx) from conv cell c is
    the term ``conv_w[m, j] * value`` at bin ``t + dint[m, j]`` of cell c,
    and one ``np.bincount`` per map m sums the terms. Each channel's events
    are expanded over its taps, cells outside the sheet masked off, and
    listed tap-major in (p, ky, kx) order, so a tap's terms form one run and
    its weight and delay are repeated over the run. A cell gets at most one
    term per tap, and bincount adds in input order, so every cell sums the
    same terms in the same order as a loop over taps adding whole frame
    slices, bit for bit. Returns [T + d_max + 1, n_maps, Hc, Wc]."""
    hc, wc = net.conv_hw
    st, (kh, kw) = net.cfg.topology.stride, net.cfg.topology.kernel
    cell, value, runs = [], [], []
    for p in range(frames.shape[1]):
        t, y, x = np.nonzero(frames[:, p])
        oy, ox = y - np.arange(kh)[:, None], x - np.arange(kw)[:, None]  # (kh, n), (kw, n): cell y, x times st
        keep = ((oy >= 0) & (oy < hc * st) & (oy % st == 0))[:, None] & ((ox >= 0) & (ox < wc * st) & (ox % st == 0))
        at = (t * (hc * wc) + oy // st * wc)[:, None] + ox // st  # (kh, kw, n): t * Hc * Wc + y * Wc + x
        cell.append(at[keep])
        value.append(np.broadcast_to(frames[t, p, y, x], keep.shape)[keep])
        runs.append(np.count_nonzero(keep, axis=2).ravel())
    cell, value, runs = (np.concatenate(a) for a in (cell, value, runs))
    dint = pl.delay_bins(net.conv_d, net.cfg.plasticity).reshape(net.n_maps, -1) * (hc * wc)
    out = np.empty((frames.shape[0] + int(round(net.cfg.plasticity.d_max)) + 1, net.n_maps, hc, wc))
    for m in range(net.n_maps):
        terms = np.repeat(net.conv_w[m].ravel(), runs)
        terms *= value
        at = np.repeat(dint[m], runs)
        at += cell
        out[:, m] = np.bincount(at, terms, out[:, m].size).reshape(-1, hc, wc)
    return out


def pool_earliest(first_spike: np.ndarray, pool: tuple[int, int]) -> np.ndarray:
    """Earliest-spike pooling over non-overlapping windows.

    ``first_spike`` holds each conv neuron's first spike bin (inf when it
    never fired), shaped [n_maps, Hc, Wc]. A pooled unit emits one spike at
    the earliest bin seen anywhere in its window, or nothing. Returns the
    pooled first-spike array [n_maps, Hp, Wp] with inf for silent windows.
    """
    m, hc, wc = first_spike.shape
    ph, pw = pool
    return first_spike.reshape(m, hc // ph, ph, wc // pw, pw).min(axis=(2, 4))


# -- checkpoints ----------------------------------------------------------


def _encode_array(a: np.ndarray) -> dict:
    dtype = _STORED_DTYPE[a.dtype.kind]
    return {
        "dtype": dtype,
        "shape": list(a.shape),
        "data": base64.b64encode(np.ascontiguousarray(a, dtype=dtype)).decode("ascii"),
    }


def _decode_array(spec: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(spec["data"])
        return np.frombuffer(raw, dtype=spec["dtype"]).reshape(spec["shape"]).copy()
    except (KeyError, ValueError, TypeError) as e:
        raise StateError(f"corrupt checkpoint array: {e}")


def network_payload(net: Network) -> dict:
    arrays = {name: _encode_array(getattr(net, name)) for name in _array_specs(net, net.lat_src.size)}
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model_identity(net.cfg),
        "config_hash": config_hash(net.cfg),
        "input_shape": list(net.input_shape),
        "phase": net.phase,
        "decision_window": list(net.decision_window),
        "arrays": arrays,
        "rng": net.rng.bit_generator.state,
    }


def _object_text(texts: dict[str, str]) -> str:
    """The compact sorted-key JSON object whose values are the JSON texts
    ``texts`` holds, for keys that JSON writes unescaped."""
    parts = ["{"]
    for i, (key, text) in enumerate(sorted(texts.items())):
        parts += ("," if i else "", '"', key, '":', text)
    parts.append("}")
    return "".join(parts)


def _payload_text(net: Network) -> str:
    """The checkpoint text: :func:`network_payload` as compact JSON with
    sorted keys (:func:`~chronospike.config.canonical_json`).
    :func:`save_checkpoint` writes it and :func:`state_hash` digests it.

    Sorted-key JSON writes an object as its keys in sorted order, each
    followed by the text of its value alone, so the values are written one
    by one and put in their keys' places. The config is not serialized
    again: the place of ``config`` takes its cached
    :attr:`~chronospike.config.RunConfig.identity_text`. The arrays skip the
    escape scan of ``json``, which would read every character of their
    base64 data: base64, dtype names and the payload's keys hold no
    character JSON escapes. The text equals the one-shot dump of the whole
    payload as long as these hold, which the tests check."""
    payload = network_payload(net)
    texts = {key: canonical_json(value) for key, value in payload.items() if key not in ("config", "arrays")}
    texts["config"] = net.cfg.identity_text
    texts["arrays"] = _object_text({
        name: _object_text({
            "data": f'"{a["data"]}"', "dtype": f'"{a["dtype"]}"', "shape": canonical_json(a["shape"]),
        })
        for name, a in payload["arrays"].items()
    })
    return _object_text(texts)


def save_checkpoint(path: str | Path, net: Network) -> None:
    Path(path).write_text(_payload_text(net))


def load_checkpoint(path: str | Path) -> Network:
    """The network a checkpoint file holds, assigned to the geometry-only
    :class:`Network` of its config: it draws nothing, and allocates no array
    whose size the config gives.

    Raises :class:`StateError` unless the file holds every field, its
    ``config_hash`` digests its stored config (as written, before retired
    fields are dropped), ``phase`` is known, every array has the dtype and
    shape of :func:`_array_specs` (the ``lat_*`` arrays the length of
    ``lat_src``, which is 0 when ``lateral`` is disabled or ``p_lat`` is 0),
    float arrays are finite, bool arrays hold bytes 0 and 1 only, delays lie
    in [floor, max(floor, d_max)], edge, class and decision-window entries
    index existing neurons and classes, and the decision window is no longer
    than the config keeps. A stored config that this code rejects, or that
    builds no network on ``input_shape``, is a :class:`StateError` too."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise StateError(f"cannot read checkpoint {path}: {e}")
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise StateError(f"{path}: not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise StateError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    missing = [k for k in ("config", "config_hash", "input_shape", "phase", "decision_window", "arrays", "rng")
               if k not in payload]
    if missing:
        raise StateError(f"{path}: missing {', '.join(missing)}")
    if payload["config_hash"] != hashlib.sha256(canonical_json(payload["config"]).encode()).hexdigest():
        raise StateError(f"{path}: config_hash does not match the stored config")
    if payload["phase"] not in PHASES:
        raise StateError(f"{path}: phase {payload['phase']!r} is not one of {', '.join(PHASES)}")
    shape = payload["input_shape"]
    if not (isinstance(shape, list) and len(shape) == 3 and all(type(x) is int and x > 0 for x in shape)):
        raise StateError(f"{path}: input_shape {shape!r} is not three positive integers")
    try:
        net = Network(RunConfig.from_dict(payload["config"]), tuple(shape))
    except (ConfigError, OverflowError) as e:  # OverflowError: a window too long for a deque
        raise StateError(f"{path}: stored config does not describe a network: {e}")
    arrays = payload["arrays"]
    if not isinstance(arrays, dict):
        raise StateError(f"{path}: arrays is not an object")
    missing = [name for name in _array_specs(net, 0) if name not in arrays]
    if missing:
        raise StateError(f"{path}: missing array {', '.join(missing)}")
    stored = {name: _decode_array(arrays[name]) for name in _array_specs(net, 0)}
    n_edges = stored["lat_src"].size
    if n_edges and (net.cfg.is_disabled("lateral") or net.cfg.topology.p_lat == 0.0):
        raise StateError(f"{path}: array lat_src holds {n_edges} edges, but the config has no lateral wiring")
    for name, (kind, want) in _array_specs(net, n_edges).items():
        a, dtype = stored[name], _STORED_DTYPE[kind]
        if a.dtype != np.dtype(dtype) or a.shape != want:
            raise StateError(f"{path}: array {name} is {a.dtype} {a.shape}, expected {dtype} {want}")
        if kind == "f" and not np.isfinite(a).all():
            raise StateError(f"{path}: array {name} holds a value that is not finite")
        if kind == "b" and a.size and a.max() > 1:
            raise StateError(f"{path}: array {name} holds a byte other than 0 or 1")
        setattr(net, name, a.astype(bool) if kind == "b" else a)
    for name, bound in (("lat_src", net.n_dec), ("lat_tgt", net.n_dec), ("class_of", net.n_classes)):
        a = getattr(net, name)
        if a.size and (a.min() < 0 or a.max() >= bound):
            raise StateError(f"{path}: array {name} holds an index outside [0, {bound})")
    for name, floor in _DELAY_FLOORS:
        a, hi = getattr(net, name), max(floor, net.cfg.plasticity.d_max)
        if a.size and (a.min() < floor or a.max() > hi):
            raise StateError(f"{path}: array {name} holds a delay outside [{floor:g}, {hi:g}]")
    window = payload["decision_window"]
    kept = net.decision_window.maxlen
    if not (isinstance(window, list) and len(window) <= kept
            and all(type(c) is int and 0 <= c < net.n_classes for c in window)):
        raise StateError(f"{path}: decision_window is not a list of at most {kept} class indices")
    net.decision_window.extend(window)
    net.phase = payload["phase"]
    try:
        # json turns the uint64 state numbers into ints, which numpy accepts back
        net.rng.bit_generator.state = payload["rng"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise StateError(f"{path}: bad rng state: {e!r}")
    return net


def state_hash(net: Network) -> str:
    """Digest of all persistent network state (parameters and traces)."""
    return hashlib.sha256(_payload_text(net).encode()).hexdigest()


def layer1_hash(net: Network) -> str:
    """Digest of the convolutional layer's learnable parameters only."""
    h = hashlib.sha256()
    for name in ("conv_w", "conv_d", "conv_theta"):
        h.update(getattr(net, name).astype("<f8").tobytes())
    return h.hexdigest()
