"""Configuration records for the delay-learning spiking network stack.

Every tunable constant lives in one of the frozen records below. A run is
fully described by a :class:`RunConfig`, which serializes to JSON and back
without loss; unknown keys are rejected so that a config file cannot
silently drift from the code, and retired ones are migrated (see
:data:`RETIRED_FIELDS`). Each field states its own bound (:func:`bounded`),
and a record checks each field's type and bound however it is built.
CLI flags overlay a loaded config through :func:`apply_overrides`, and
:func:`config_hash` gives the digest that all output artifacts embed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import operator
import typing
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    """Bad config content: unknown keys, malformed values, invalid choices."""


#: The ablation study: each variant removes one mechanism through one
#: config edit. ``"disable"`` names the mechanism added to
#: ``RunConfig.disabled``; every other key replaces a ``RunConfig`` field.
#: Random frozen delays are the learned mode's initial draws with delay
#: learning off. ``homeo`` (no-interval-homeostasis) stops interval
#: homeostasis of the decision layer only: layer-1 training applies
#: ``interval_gain`` to the conv kernels whatever ``disabled`` holds.
#: ``decentralize`` (no-decentralization) raises the activity gate's cap
#: from ``dc_upper`` to the decision layer's size, which no group can reach.
#: ``lateral`` (no-lateral) draws the lateral edges and drops them, so its
#: generator, and the sample order of both phases, stay the full model's.
VARIANTS: dict[str, dict[str, Any]] = {
    "full": {},
    "no-interval-homeostasis": {"disable": "homeo"},
    "no-threshold-adaptation": {"disable": "threshold"},
    "no-decision-homeostasis": {"disable": "decision-homeo"},
    "no-decentralization": {"disable": "decentralize"},
    "no-lateral": {"disable": "lateral"},
    "shared-inhibitory-rules": {"inh_rules_shared": True},
    "fixed-delays": {"delay_mode": "fixed"},
    "random-frozen-delays": {"disable": "delay-learning"},
}

#: Mechanisms that may be listed in RunConfig.disabled.
DISABLE_CHOICES = tuple(edit["disable"] for edit in VARIANTS.values() if "disable" in edit)

#: How synaptic delays are sourced: drawn and trained, or one fixed value.
DELAY_MODES = ("learned", "fixed")

#: Fields the config no longer has, as (section, name), with the one value a
#: stored config may still hold, of that type (``None``: any, as nothing read
#: the field). ``RunConfig.from_dict`` drops them from config files, overrides
#: and checkpoints.
RETIRED_FIELDS: dict[tuple[str, str], bool | int | None] = {
    ("lif", "theta_init"): None,
    ("harness", "checkpoint_every"): None,
    ("harness", "shuffle"): True,
    ("regulation", "gate_in_eval"): True,
    ("regulation", "threshold_rule_as_printed"): False,
    ("harness", "flush_factor"): 4,
}


def bounded(default=dataclasses.MISSING, **bound) -> Any:
    """A field with ``default`` whose value (each entry, for a tuple) must
    lie within ``bound``: ``min`` (at least), ``max`` (at most), ``below``
    (less than), ``positive`` (above 0) or ``choices`` (one of them). A
    ``check`` replaces the test its type implies (see :func:`_kind`)."""
    return field(default=default, metadata=bound)


def _record(section: str, ordered: tuple[str, ...] = ()):
    """Class decorator: a frozen dataclass that runs :func:`_check` on
    itself when built, naming its fields ``section.field``. ``ordered``
    names two fields, the least and the greatest of a range."""

    def make(cls):
        cls.__post_init__ = lambda self: _check(self, section, ordered)
        return dataclass(frozen=True)(cls)

    return make


@_record("lif", ordered=("theta_floor", "theta_ceil"))
class LIFParams:
    """Leaky integrate-and-fire constants, shared by both layers.

    Time is measured in input frame bins; the simulation advances one bin
    per step, so ``tau_m`` is a decay horizon in bins; the leak divides by
    it. ``theta_floor`` and ``theta_ceil`` bound the adaptive threshold, and
    the floor may not lie above the ceiling. Each field states its own
    bound.
    """

    tau_m: float = bounded(10.0, positive=True)
    t_ref: int = bounded(1, min=0)
    v_reset: float = 0.0
    theta_floor: float = 0.1
    theta_ceil: float = 10.0


@_record("topology")
class TopologyParams:
    """Shape of the two-layer network.

    The convolutional sheet has ``n_maps`` feature maps with one shared
    weight kernel and one shared delay kernel each. Earliest-spike pooling
    with a non-overlapping ``pool`` window follows. The decision layer holds
    ``n_classes * n_per_class`` neurons, densely connected from the pooled
    units and sparsely connected among themselves with probability ``p_lat``.
    Roughly ``inh_fraction`` of the decision neurons are tagged inhibitory;
    their outgoing lateral weights stay at or below zero. Each field states
    its own bound; the network checks that kernel and pool fit its input.
    """

    n_maps: int = bounded(16, min=1)
    kernel: tuple[int, int] = bounded((5, 5), min=1)
    stride: int = bounded(1, min=1)
    pool: tuple[int, int] = bounded((4, 4), min=1)
    n_classes: int = bounded(10, min=2)
    n_per_class: int = bounded(8, min=1)
    p_lat: float = bounded(0.1, min=0, max=1)
    inh_fraction: float = bounded(0.2, min=0, max=1)
    conv_theta: float = 1.0
    decision_theta: float = 1.0
    w_conv_init: tuple[float, float] = bounded((0.3, 0.7), min=0)
    w_forward_init: tuple[float, float] = bounded((0.2, 0.5), min=0)
    w_lateral_init: tuple[float, float] = bounded((0.1, 0.4), min=0)


@_record("plasticity")
class PlasticityParams:
    """Constants of the six spike-pair update rules plus parameter bounds.

    ``a_plus``/``a_minus`` with ``tau_plus``/``tau_minus`` shape the weight
    kernels; ``b_plus``/``b_minus`` with ``sigma_plus``/``sigma_minus`` shape
    the delay kernels, and the kernels divide by those four time constants.
    ``epsilon`` is the target arrival lead: the excitatory delay rule moves
    each delay toward (post - pre - epsilon). Excitatory weights live in
    [0, w_max], inhibitory in [w_inh_min, 0] (so ``w_inh_min`` is at most
    0), delays in [0, d_max]. Each field states its own bound.
    """

    a_plus: float = 0.05
    a_minus: float = 0.05
    tau_plus: float = bounded(5.0, positive=True)
    tau_minus: float = bounded(5.0, positive=True)
    b_plus: float = 0.1
    b_minus: float = 0.1
    sigma_plus: float = bounded(5.0, positive=True)
    sigma_minus: float = bounded(5.0, positive=True)
    epsilon: float = 1.0
    w_max: float = bounded(1.0, min=0)
    w_inh_min: float = bounded(-1.0, max=0)
    d_max: float = bounded(20.0, min=0)


@_record("regulation", ordered=("r_min", "r_max"))
class RegulationParams:
    """Constants of the four regulation mechanisms.

    Per-presentation spike counts are tracked as exponential moving averages
    (span ``activity_window`` for homeostasis, ``long_window`` for threshold
    adaptation). Activity outside [r_min, r_max], where ``r_min`` is at
    most ``r_max``, produces a corrective gain, scaled by ``k_min``/``k_max``
    and applied with step sizes ``lambda_w`` and ``lambda_d``. Decision
    balance is tracked over a sliding window of ``decision_window_per_class
    * n_classes`` decided presentations. At most ``dc_upper`` neurons per
    class group may emit during one presentation. Each field states its own
    bound.
    """

    r_min: float = 1.0
    r_max: float = 6.0
    k_min: float = 1.0
    k_max: float = 0.5
    lambda_w: float = 0.02
    lambda_d: float = 0.1
    theta_inc: float = 0.02
    theta_dec: float = 0.02
    dc_upper: int = bounded(2, min=1)
    activity_window: int = bounded(20, min=1)
    long_window: int = bounded(100, min=1)
    decision_window_per_class: int = bounded(10, min=1)


@_record("harness")
class HarnessParams:
    """Training loop constants.

    Reward is ``kappa * (target spikes - non-target spikes)`` clipped to
    [-reward_clip, reward_clip]. A neuron freezes (stops delay updates) when
    the moving average of its mean absolute per-presentation delay change
    stays below ``freeze_scale * d_max`` after at least ``freeze_window``
    observations. Each epoch presents the samples in an order drawn from the
    network's RNG. Each field states its own bound.
    """

    kappa: float = 0.05
    reward_clip: float = bounded(1.0, min=0)
    max_epochs_l1: int = bounded(20, min=0)
    max_epochs_l2: int = bounded(30, min=0)
    freeze_scale: float = 1e-3
    freeze_window: int = bounded(50, min=0)


def _class_edges(name: str, classes) -> tuple:
    """``classes``, one list of edges per class, as tuples (see :func:`_edges`)."""
    if not isinstance(classes, (list, tuple)):
        raise ConfigError(f"{name} must be a list with one list of edges per class")
    return tuple(_edges(f"{name}[{k}]", edges) for k, edges in enumerate(classes))


def _edges(name: str, edges) -> tuple:
    """One class's edges as tuples. Raises :class:`ConfigError` unless each
    is ``[[p, y, x], [p, y, x], lag]`` of ints. A spec can hold thousands of
    edges and every checkpoint load reads them, so the checks map builtins
    over the edges rather than call Python per edge."""
    try:
        out = tuple((tuple(src), tuple(tgt), lag) for src, tgt, lag in edges)
    except (TypeError, ValueError):  # an edge or a cell that is no sequence, an edge of other than 3 entries
        out = None
    if out is not None:
        src, tgt, lag = (tuple(map(operator.itemgetter(i), out)) for i in range(3))
        shapes = set(map(len, src)) | set(map(len, tgt))
        types = set(map(type, chain.from_iterable(src))) | set(map(type, chain.from_iterable(tgt)))
        types |= set(map(type, lag))
    if out is None or not shapes <= {3} or not all(issubclass(t, numbers.Integral) and t is not bool for t in types):
        raise ConfigError(f"{name}: an edge is not [[p, y, x], [p, y, x], lag] of ints")
    cells = {}  # one tuple per distinct cell: a cell is in many edges, and each loaded config keeps them
    src, tgt = (tuple(map(cells.setdefault, c, c)) for c in (src, tgt))
    return tuple(zip(src, tgt, map(int, lag)))


@_record("synthetic")
class SyntheticSpec:
    """Generator description for labeled spatio-temporal spike patterns.

    ``embedded_delays[k]`` lists the class-k structure as edges
    ``((p, y, x), (p, y, x), lag)``: whenever the source cell spikes, the
    target cell spikes ``lag`` bins later. Edges form a DAG; root cells fire
    at a per-sample onset and times propagate along edges. ``noise_rate`` is
    the per-cell per-bin probability of a spurious spike. Each field states
    its own bound; :func:`synthetic.validate_spec` checks the edges' DAG.
    """

    n_classes: int = bounded(min=1)
    pattern_length: int = bounded(min=1)
    grid: tuple[int, int] = bounded(min=1)
    embedded_delays: tuple[tuple[tuple[tuple[int, int, int], tuple[int, int, int], int], ...], ...] = bounded(
        check=_class_edges
    )
    noise_rate: float = bounded(0.01, min=0, below=1)
    seed: int = bounded(0, min=0)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SyntheticSpec":
        """The spec ``data`` describes; a missing or bad field raises
        :class:`ConfigError` naming it."""
        return _from_dict(cls, data, "synthetic")


def _mechanism_names(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{name} must be a list of mechanism names, got {value!r}")
    return tuple(value)


@_record("")
class RunConfig:
    """One experiment: data source, all constants, seed, and ablations.

    ``out_dir`` says where a run writes and is not part of the model's
    identity (see :func:`model_identity`). ``inh_rules_shared`` is the
    pathology ablation of the inhibitory rules: lateral edges from
    inhibitory neurons get the excitatory delay rule and the excitatory
    weight domain [0, w_max] instead of [w_inh_min, 0], so nothing keeps
    them inhibitory once learning moves them. ``disabled`` names mechanisms
    from :data:`DISABLE_CHOICES`; ``homeo`` among them turns off the
    decision layer's interval homeostasis, not layer 1's. Each field states
    its own bound; each section checks its own fields.
    """

    seed: int = bounded(0, min=0)
    out_dir: str = "runs/out"
    train_data: str | None = None
    test_data: str | None = None
    synthetic: SyntheticSpec | None = None
    synthetic_train_per_class: int = bounded(50, min=1)
    synthetic_test_per_class: int = bounded(20, min=1)
    lif: LIFParams = field(default_factory=LIFParams)
    topology: TopologyParams = field(default_factory=TopologyParams)
    plasticity: PlasticityParams = field(default_factory=PlasticityParams)
    regulation: RegulationParams = field(default_factory=RegulationParams)
    harness: HarnessParams = field(default_factory=HarnessParams)
    disabled: tuple[str, ...] = bounded((), check=_mechanism_names, choices=DISABLE_CHOICES)
    inh_rules_shared: bool = False
    delay_mode: str = bounded("learned", choices=DELAY_MODES)
    fixed_delay_value: float = 1.0

    def is_disabled(self, mechanism: str) -> bool:
        return mechanism in self.disabled

    @property
    def delay_learning_on(self) -> bool:
        return self.delay_mode == "learned" and not self.is_disabled("delay-learning")

    @functools.cached_property
    def identity_text(self) -> str:
        """:func:`canonical_json` of :func:`model_identity`, made once per
        config object: a 32x32 spec's embedded edges are over 100 KiB of
        text, and :func:`config_hash` and every checkpoint write it. The
        record is frozen, so the text cannot go stale; a changed config is
        a new object (``dataclasses.replace``) with its own cache."""
        return canonical_json(model_identity(self))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """The config ``data`` describes, without :data:`RETIRED_FIELDS`; ``data`` is not modified."""
        _check_keys(cls, data)
        kw = dict(data)
        for (section, name), kept in RETIRED_FIELDS.items():
            node = kw.get(section)
            if isinstance(node, dict) and name in node:
                if kept is not None and (type(node[name]) is not type(kept) or node[name] != kept):
                    raise ConfigError(
                        f"{section}.{name} is retired: only {json.dumps(kept)} is supported, got {node[name]!r}"
                    )
                kw[section] = {k: v for k, v in node.items() if k != name}
        return cls(**kw)


#: The test a value of each scalar field type passes, and its name in errors.
_SCALARS = {
    float: (lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)
            and (isinstance(x, int) or math.isfinite(x)), "a finite number"),
    int: (lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool), "an integer"),
    bool: (lambda x: isinstance(x, bool), "true or false"),
    str: (lambda x: isinstance(x, str), "a string"),
}


def _reject(message: str):
    raise ConfigError(message)


def _kind(hint):
    """The check a field of type ``hint`` (a scalar, ``T | None``, ``tuple[T, T]``
    or a record class) implies: a function of its dotted name and value that
    returns the value, a list as a tuple and an object as a record."""
    args = typing.get_args(hint)
    if hint in _SCALARS:
        test, noun = _SCALARS[hint]
        return lambda name, v: v if test(v) else _reject(f"{name} must be {noun}, got {v!r}")
    if type(None) in args:
        (inner,) = (_kind(a) for a in args if a is not type(None))
        return lambda name, v: v if v is None else inner(name, v)
    if typing.get_origin(hint) is tuple:
        items = [_kind(a) for a in args]

        def pair(name, v):
            if not isinstance(v, (list, tuple)) or len(v) != len(items):
                raise ConfigError(f"{name} must be a list of {len(items)} entries, got {v!r}")
            return tuple(item(name, x) for item, x in zip(items, v))

        return pair

    def record(name, v):
        if isinstance(v, dict):
            return _from_dict(hint, v, name)
        return v if isinstance(v, hint) else _reject(f"{name} must be an object, got {v!r}")

    return record


@functools.cache
def _plan(cls) -> tuple[tuple[str, Any, dict], ...]:
    """(name, check, bound) of each field of record class ``cls``. Cached:
    resolving a class's type hints costs far more than checking values."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("check") or _kind(hints[f.name]), {k: v for k, v in f.metadata.items() if k != "check"})
        for f in dataclasses.fields(cls)
    )


def _check(obj, section: str, ordered: tuple[str, ...]) -> None:
    """Check each field of record ``obj`` against its type and bound, naming
    it ``section.field`` (``field`` at the top level "") in the
    :class:`ConfigError`, then that the ``ordered`` fields (low, high) do not
    cross, naming both; lists are stored as tuples, objects as records."""
    for name, check, bound in _plan(type(obj)):
        path = f"{section}.{name}" if section else name
        v = getattr(obj, name)
        checked = check(path, v)
        if checked is not v:
            object.__setattr__(obj, name, checked)
        if bound and checked is not None:
            for x in checked if isinstance(checked, tuple) else (checked,):
                if not _within(x, bound):
                    raise ConfigError(f"{path} must be {_bound_text(bound)}, got {v!r}")
    if ordered:
        (lo, a), (hi, b) = ((f"{section}.{name}", getattr(obj, name)) for name in ordered)
        if a > b:
            raise ConfigError(f"{lo} must be at most {hi}, got {a!r} > {b!r}")


def _within(x, bound: dict) -> bool:
    if "choices" in bound:
        return x in bound["choices"]
    least = x > 0 if "positive" in bound else x >= bound.get("min", x)
    return least and x <= bound.get("max", x) and x < bound.get("below", math.inf)


def _bound_text(bound: dict) -> str:
    if "choices" in bound:
        return "one of " + ", ".join(bound["choices"])
    if "positive" in bound:
        return "positive"
    if "max" in bound:
        return f"in [{bound['min']}, {bound['max']}]" if "min" in bound else f"at most {bound['max']}"
    if "below" in bound:
        return f"in [{bound['min']}, {bound['below']})"
    return f"at least {bound['min']}"


def _check_keys(cls, data: dict[str, Any]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object for {cls.__name__}, got {type(data).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) for {cls.__name__}: {', '.join(map(repr, unknown))}")


def _from_dict(cls, data: dict[str, Any], section: str):
    """Record ``cls`` built from ``data``, which must hold every field
    without a default and no other key."""
    _check_keys(cls, data)
    missing = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"{section} lacks {', '.join(missing)}")
    return cls(**data)


def to_dict(cfg) -> dict[str, Any]:
    """``dataclasses.asdict(cfg)`` without its deep copies: only the
    dataclass levels become new dicts; the leaves (numbers, strings,
    tuples) are immutable and are shared."""
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = to_dict(v) if dataclasses.is_dataclass(v) else v
    return out


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, no whitespace, tuples as lists.
    Configs and checkpoints hold no cycles, so the circular-reference check
    is skipped; the text is the same."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def model_identity(cfg: RunConfig) -> dict[str, Any]:
    """The config as it defines a model: every field but ``out_dir``.

    Where a run writes its files is not part of what it computes, so the
    same experiment written to two directories is one model. Checkpoints
    store this dict and :func:`config_hash` digests it.
    """
    data = to_dict(cfg)
    del data["out_dir"]
    return data


def config_hash(cfg: RunConfig) -> str:
    """Digest of a model's identity, the config's cached
    :attr:`RunConfig.identity_text`. ``out_dir`` is not part of it, so two
    configs that differ only in their output directory hash the same."""
    return hashlib.sha256(cfg.identity_text.encode()).hexdigest()


def with_disabled(cfg: RunConfig, *mechanisms: str) -> RunConfig:
    """``cfg`` with ``mechanisms`` appended to ``disabled``, each listed once."""
    return dataclasses.replace(cfg, disabled=tuple(dict.fromkeys(cfg.disabled + mechanisms)))


def apply_variant(cfg: RunConfig, name: str) -> RunConfig:
    """``cfg`` with the config edit of the ablation variant ``name``."""
    edit = dict(VARIANTS[name])
    if "disable" in edit:
        cfg = with_disabled(cfg, edit.pop("disable"))
    return dataclasses.replace(cfg, **edit)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {e}")
    return RunConfig.from_dict(data)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")


def apply_overrides(cfg: RunConfig, assignments: list[str]) -> RunConfig:
    """Overlay ``section.key=value`` assignments onto a config.

    Values are parsed as JSON when possible (numbers, booleans, lists) and
    fall back to bare strings. Paths must name existing keys or retired
    fields; there is no implicit key creation.
    """
    data = to_dict(cfg)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path_str, _, raw = item.partition("=")
        keys = path_str.strip().split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"unknown config path: {path_str}")
            node = node[k]
        if not isinstance(node, dict) or (keys[-1] not in node and tuple(keys) not in RETIRED_FIELDS):
            raise ConfigError(f"unknown config path: {path_str}")
        node[keys[-1]] = value
    return RunConfig.from_dict(data)
