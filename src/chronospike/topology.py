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
    """Parameters and training traces of the two-layer network."""

    def __init__(self, cfg: RunConfig, input_shape: tuple[int, int, int]):
        self.cfg = cfg
        self.input_shape = input_shape  # (P, H, W)
        top = cfg.topology
        p, h, w = input_shape
        self.conv_hw = conv_output_shape((h, w), top.kernel, top.stride)
        self.pool_hw = pool_output_shape(self.conv_hw, top.pool)
        self.n_maps = top.n_maps
        self.n_pool = top.n_maps * self.pool_hw[0] * self.pool_hw[1]
        self.n_dec = top.n_classes * top.n_per_class

        rng = np.random.default_rng(cfg.seed)
        plast = cfg.plasticity
        kh, kw = top.kernel
        lo, hi = top.w_conv_init
        self.conv_w = rng.uniform(lo, hi, size=(top.n_maps, p, kh, kw))
        self.conv_d = rng.uniform(0.0, plast.d_max, size=(top.n_maps, p, kh, kw))
        self.conv_theta = np.full(top.n_maps, top.conv_theta)
        self.conv_act = np.zeros((top.n_maps,) + self.conv_hw)
        self.conv_frozen = np.zeros(top.n_maps, dtype=bool)
        self.conv_freeze_ema = np.zeros(top.n_maps)
        self.conv_freeze_n = np.zeros(top.n_maps, dtype=np.int64)

        lo, hi = top.w_forward_init
        self.wf = rng.uniform(lo, hi, size=(self.n_dec, self.n_pool))
        self.df = rng.uniform(0.0, plast.d_max, size=(self.n_dec, self.n_pool))

        self.is_inh = inhibitory_flags(top.n_classes, top.n_per_class, top.inh_fraction)
        self.class_of = np.repeat(np.arange(top.n_classes), top.n_per_class)

        if cfg.is_disabled("lateral") or top.p_lat == 0.0:
            self.lat_src = np.empty(0, np.int64)
            self.lat_tgt = np.empty(0, np.int64)
            self.lat_w = np.empty(0)
            self.lat_d = np.empty(0)
        else:
            mask = rng.random((self.n_dec, self.n_dec)) < top.p_lat
            np.fill_diagonal(mask, False)
            src, tgt = np.nonzero(mask)
            self.lat_src = src.astype(np.int64)
            self.lat_tgt = tgt.astype(np.int64)
            lo, hi = top.w_lateral_init
            mag = rng.uniform(lo, hi, size=src.size)
            self.lat_w = np.where(self.is_inh[src], -mag, mag)
            floor = pl.LATERAL_DELAY_FLOOR
            self.lat_d = rng.uniform(floor, max(floor, plast.d_max), size=src.size)

        if cfg.delay_mode == "fixed":
            for name, floor in _DELAY_FLOORS:
                d = getattr(self, name)
                d.fill(float(cfg.fixed_delay_value))
                np.clip(d, floor, max(floor, plast.d_max), out=d)

        self.theta = np.full(self.n_dec, top.decision_theta)
        self.act_short = np.zeros(self.n_dec)
        self.act_long = np.zeros(self.n_dec)
        self.frozen = np.zeros(self.n_dec, dtype=bool)
        self.freeze_ema = np.zeros(self.n_dec)
        self.freeze_n = np.zeros(self.n_dec, dtype=np.int64)

        self.decision_window: deque[int] = deque(
            maxlen=cfg.regulation.decision_window_per_class * top.n_classes
        )
        self.rng = rng
        self.phase = "layer1"

    # -- derived views ----------------------------------------------------

    @property
    def n_classes(self) -> int:
        return self.cfg.topology.n_classes


def build_network(cfg: RunConfig, input_shape: tuple[int, int, int]) -> Network:
    return Network(cfg, input_shape)


def conv_forward_currents(net: Network, frames: np.ndarray) -> np.ndarray:
    """Precompute the delayed, weighted input to every conv neuron.

    Valid because nothing feeds back into the convolutional sheet: all its
    input is known up front. The work follows the input events: an event at
    bin t seen by tap j = (p, ky, kx) from conv cell c is the term
    ``conv_w[m, j] * value`` at bin ``t + dint[m, j]`` of cell c, and one
    ``np.bincount`` per map m sums the terms. Events are listed tap by tap
    in (p, ky, kx) order, a cell gets at most one term per tap, and bincount
    adds in input order, so every cell sums the same terms in the same order
    as a loop over taps adding whole frame slices, bit for bit. Returns
    [T + d_max + 1, n_maps, Hc, Wc]."""
    hc, wc = net.conv_hw
    st, (kh, kw) = net.cfg.topology.stride, net.cfg.topology.kernel
    cell, tap, value = [], [], []
    for j, (p, ky, kx) in enumerate(np.ndindex(frames.shape[1], kh, kw)):
        sl = frames[:, p, ky : ky + hc * st : st, kx : kx + wc * st : st].ravel()
        cell.append(np.flatnonzero(sl))  # t * Hc * Wc + y * Wc + x
        value.append(sl[cell[-1]])
        tap.append(np.full(cell[-1].size, j))
    cell, tap, value = (np.concatenate(a) for a in (cell, tap, value))
    dint = pl.delay_bins(net.conv_d, net.cfg.plasticity).reshape(net.n_maps, -1)
    out = np.empty((frames.shape[0] + int(round(net.cfg.plasticity.d_max)) + 1, net.n_maps, hc, wc))
    for m in range(net.n_maps):
        terms = net.conv_w[m].ravel()[tap] * value
        out[:, m] = np.bincount(cell + dint[m, tap] * (hc * wc), terms, out[:, m].size).reshape(-1, hc, wc)
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

_ARRAY_FIELDS = (
    "conv_w", "conv_d", "conv_theta", "conv_act", "conv_freeze_ema",
    "wf", "df", "lat_w", "lat_d", "theta", "act_short", "act_long",
    "freeze_ema",
)
_INT_ARRAY_FIELDS = ("conv_freeze_n", "lat_src", "lat_tgt", "class_of", "freeze_n")
_BOOL_ARRAY_FIELDS = ("conv_frozen", "is_inh", "frozen")


def _encode_array(a: np.ndarray, dtype: str) -> dict:
    le = a.astype(dtype)
    return {
        "dtype": dtype,
        "shape": list(a.shape),
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def _decode_array(spec: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(spec["data"])
        return np.frombuffer(raw, dtype=spec["dtype"]).reshape(spec["shape"]).copy()
    except (KeyError, ValueError, TypeError) as e:
        raise StateError(f"corrupt checkpoint array: {e}")


def network_payload(net: Network) -> dict:
    arrays = {}
    for name in _ARRAY_FIELDS:
        arrays[name] = _encode_array(getattr(net, name), "<f8")
    for name in _INT_ARRAY_FIELDS:
        arrays[name] = _encode_array(getattr(net, name), "<i8")
    for name in _BOOL_ARRAY_FIELDS:
        arrays[name] = _encode_array(getattr(net, name).astype(np.uint8), "|u1")
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model_identity(net.cfg),
        "config_hash": config_hash(net.cfg),
        "input_shape": list(net.input_shape),
        "phase": net.phase,
        "decision_window": list(net.decision_window),
        "arrays": arrays,
        "rng": _jsonable(net.rng.bit_generator.state),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def save_checkpoint(path: str | Path, net: Network) -> None:
    payload = network_payload(net)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text)


def load_checkpoint(path: str | Path) -> Network:
    """The network a checkpoint file holds.

    Raises :class:`StateError` unless the file holds every field, its
    ``config_hash`` digests its stored config (as written, before retired
    fields are dropped), ``phase`` is known, every array has the shape and
    dtype the config implies, float arrays are finite, delays lie in
    [floor, max(floor, d_max)], edge, class and decision-window entries
    index existing neurons and classes, and the decision window is no
    longer than the config keeps. A stored config that this code rejects,
    or that builds no network on ``input_shape``, is a :class:`StateError`
    too."""
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
    except ConfigError as e:
        raise StateError(f"{path}: stored config does not describe a network: {e}")
    arrays = payload["arrays"]
    if not isinstance(arrays, dict):
        raise StateError(f"{path}: arrays is not an object")
    for names, dtype in ((_ARRAY_FIELDS, "<f8"), (_INT_ARRAY_FIELDS, "<i8"), (_BOOL_ARRAY_FIELDS, "|u1")):
        for name in names:
            if name not in arrays:
                raise StateError(f"{path}: missing array {name}")
            a = _decode_array(arrays[name])
            want = getattr(net, name).shape
            if a.dtype != np.dtype(dtype) or a.shape != want:
                raise StateError(f"{path}: array {name} is {a.dtype} {a.shape}, config implies {dtype} {want}")
            if dtype == "<f8" and not np.isfinite(a).all():
                raise StateError(f"{path}: array {name} holds a value that is not finite")
            setattr(net, name, a.astype(bool) if dtype == "|u1" else a)
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
    net.decision_window.clear()
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
    payload = network_payload(net)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layer1_hash(net: Network) -> str:
    """Digest of the convolutional layer's learnable parameters only."""
    h = hashlib.sha256()
    for name in ("conv_w", "conv_d", "conv_theta"):
        h.update(getattr(net, name).astype("<f8").tobytes())
    return h.hexdigest()


def export_kernels(net: Network, out_dir: str | Path) -> list[Path]:
    """Write the shared conv kernels as CSV grids (one row per kernel cell)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, arr in (("weights", net.conv_w), ("delays", net.conv_d)):
        path = out_dir / f"conv_{name}.csv"
        with open(path, "w") as f:
            f.write("map,polarity,ky,kx,value\n")
            for idx in np.ndindex(arr.shape):
                f.write(f"{','.join(map(str, idx))},{float(arr[idx])!r}\n")
        paths.append(path)
    return paths
