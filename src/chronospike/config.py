"""Configuration records for the delay-learning spiking network stack.

Every tunable constant lives in one of the frozen dataclasses below. A run
is fully described by a :class:`RunConfig`, which serializes to JSON and
back without loss; unknown keys are rejected so that a config file cannot
silently drift from the code, and retired ones are migrated (see
:data:`RETIRED_FIELDS`). CLI flags overlay a loaded config through
:func:`apply_overrides`, and :func:`config_hash` gives the digest that all
output artifacts embed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import operator
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
#: learning off.
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

#: Time constants, as (section, name): the leak and the rule kernels divide
#: by them, so each must be positive.
POSITIVE_FIELDS = {
    ("lif", "tau_m"),
    ("plasticity", "tau_plus"),
    ("plasticity", "tau_minus"),
    ("plasticity", "sigma_plus"),
    ("plasticity", "sigma_minus"),
}

#: Least allowed value of a field, as (section, name). Every int field is
#: listed but ``topology.n_classes``, ``n_per_class`` and ``stride``, which
#: the network checks when it is built.
MINIMA = {
    ("", "seed"): 0,
    ("", "synthetic_train_per_class"): 1,
    ("", "synthetic_test_per_class"): 1,
    ("lif", "t_ref"): 0,
    ("topology", "n_maps"): 1,
    ("plasticity", "d_max"): 0,
    ("regulation", "dc_upper"): 1,
    ("regulation", "activity_window"): 1,
    ("regulation", "long_window"): 1,
    ("regulation", "decision_window_per_class"): 1,
    ("harness", "max_epochs_l1"): 0,
    ("harness", "max_epochs_l2"): 0,
    ("harness", "freeze_window"): 0,
    ("synthetic", "n_classes"): 1,
    ("synthetic", "pattern_length"): 1,
    ("synthetic", "seed"): 0,
}


@dataclass(frozen=True)
class LIFParams:
    """Leaky integrate-and-fire constants, shared by both layers.

    Time is measured in input frame bins; the simulation advances one bin
    per step, so ``tau_m`` is a decay horizon in bins. ``theta_floor`` and
    ``theta_ceil`` bound the adaptive threshold.
    """

    tau_m: float = 10.0
    t_ref: int = 1
    v_reset: float = 0.0
    theta_floor: float = 0.1
    theta_ceil: float = 10.0


@dataclass(frozen=True)
class TopologyParams:
    """Shape of the two-layer network.

    The convolutional sheet has ``n_maps`` feature maps with one shared
    weight kernel and one shared delay kernel each. Earliest-spike pooling
    with a non-overlapping ``pool`` window follows. The decision layer holds
    ``n_classes * n_per_class`` neurons, densely connected from the pooled
    units and sparsely connected among themselves with probability ``p_lat``.
    Roughly ``inh_fraction`` of the decision neurons are tagged inhibitory;
    their outgoing lateral weights stay at or below zero.
    """

    n_maps: int = 16
    kernel: tuple[int, int] = (5, 5)
    stride: int = 1
    pool: tuple[int, int] = (4, 4)
    n_classes: int = 10
    n_per_class: int = 8
    p_lat: float = 0.1
    inh_fraction: float = 0.2
    conv_theta: float = 1.0
    decision_theta: float = 1.0
    w_conv_init: tuple[float, float] = (0.3, 0.7)
    w_forward_init: tuple[float, float] = (0.2, 0.5)
    w_lateral_init: tuple[float, float] = (0.1, 0.4)


@dataclass(frozen=True)
class PlasticityParams:
    """Constants of the six spike-pair update rules plus parameter bounds.

    ``a_plus``/``a_minus`` with ``tau_plus``/``tau_minus`` shape the weight
    kernels; ``b_plus``/``b_minus`` with ``sigma_plus``/``sigma_minus`` shape
    the delay kernels. ``epsilon`` is the target arrival lead: the excitatory
    delay rule moves each delay toward (post - pre - epsilon). Excitatory
    weights live in [0, w_max], inhibitory in [w_inh_min, 0], delays in
    [0, d_max].
    """

    a_plus: float = 0.05
    a_minus: float = 0.05
    tau_plus: float = 5.0
    tau_minus: float = 5.0
    b_plus: float = 0.1
    b_minus: float = 0.1
    sigma_plus: float = 5.0
    sigma_minus: float = 5.0
    epsilon: float = 1.0
    w_max: float = 1.0
    w_inh_min: float = -1.0
    d_max: float = 20.0


@dataclass(frozen=True)
class RegulationParams:
    """Constants of the four regulation mechanisms.

    Per-presentation spike counts are tracked as exponential moving averages
    (span ``activity_window`` for homeostasis, ``long_window`` for threshold
    adaptation). Activity outside [r_min, r_max] produces a corrective gain,
    scaled by ``k_min``/``k_max`` and applied with step sizes ``lambda_w``
    and ``lambda_d``. Decision balance is tracked over a sliding window of
    ``decision_window_per_class * n_classes`` decided presentations. At most
    ``dc_upper`` neurons per class group may emit during one presentation.
    """

    r_min: float = 1.0
    r_max: float = 6.0
    k_min: float = 1.0
    k_max: float = 0.5
    lambda_w: float = 0.02
    lambda_d: float = 0.1
    theta_inc: float = 0.02
    theta_dec: float = 0.02
    dc_upper: int = 2
    activity_window: int = 20
    long_window: int = 100
    decision_window_per_class: int = 10


@dataclass(frozen=True)
class HarnessParams:
    """Training loop constants.

    Reward is ``kappa * (target spikes - non-target spikes)`` clipped to
    [-reward_clip, reward_clip]. A neuron freezes (stops delay updates) when
    the moving average of its mean absolute per-presentation delay change
    stays below ``freeze_scale * d_max`` after at least ``freeze_window``
    observations. Each epoch presents the samples in an order drawn from the
    network's RNG.
    """

    kappa: float = 0.05
    reward_clip: float = 1.0
    max_epochs_l1: int = 20
    max_epochs_l2: int = 30
    freeze_scale: float = 1e-3
    freeze_window: int = 50


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator description for labeled spatio-temporal spike patterns.

    ``embedded_delays[k]`` lists the class-k structure as edges
    ``((p, y, x), (p, y, x), lag)``: whenever the source cell spikes, the
    target cell spikes ``lag`` bins later. Edges form a DAG; root cells fire
    at a per-sample onset and times propagate along edges. ``noise_rate`` is
    the per-cell per-bin probability of a spurious spike.
    """

    n_classes: int
    pattern_length: int
    grid: tuple[int, int]
    embedded_delays: tuple[tuple[tuple[tuple[int, int, int], tuple[int, int, int], int], ...], ...]
    noise_rate: float = 0.01
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SyntheticSpec":
        """The spec ``data`` describes. A missing field, a ``grid`` that is
        not a list of two entries, an edge that is not ``[[p, y, x],
        [p, y, x], lag]`` of ints, or a field that fails the checks a
        config's ``synthetic`` section gets (:func:`_check_numbers`) raises
        :class:`ConfigError` naming it."""
        _check_keys(cls, data)
        required = (f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING)
        missing = [name for name in required if name not in data]
        if missing:
            raise ConfigError(f"synthetic spec lacks {', '.join(missing)}")
        kw = dict(data)
        if not (isinstance(kw["grid"], (list, tuple)) and len(kw["grid"]) == 2):
            raise ConfigError(f"synthetic.grid must be a list of two ints, got {kw['grid']!r}")
        kw["grid"] = tuple(kw["grid"])
        if not isinstance(kw["embedded_delays"], (list, tuple)):
            raise ConfigError("synthetic.embedded_delays must be a list with one list of edges per class")
        kw["embedded_delays"] = tuple(_edges(k, edges) for k, edges in enumerate(kw["embedded_delays"]))
        spec = cls(**kw)
        _check_section("synthetic", spec)
        return spec


def _edges(k: int, edges) -> tuple:
    """Class ``k``'s edges as tuples. Raises :class:`ConfigError` unless each
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
        raise ConfigError(f"synthetic.embedded_delays[{k}]: an edge is not [[p, y, x], [p, y, x], lag] of ints")
    return tuple(zip(src, tgt, map(int, lag)))


@dataclass(frozen=True)
class RunConfig:
    """One experiment: data source, all constants, seed, and ablations.

    ``out_dir`` says where a run writes and is not part of the model's
    identity (see :func:`model_identity`). ``inh_rules_shared`` is the
    pathology ablation of the inhibitory rules: lateral edges from
    inhibitory neurons get the excitatory delay rule and the excitatory
    weight domain [0, w_max] instead of [w_inh_min, 0], so nothing keeps
    them inhibitory once learning moves them.
    """

    seed: int = 0
    out_dir: str = "runs/out"
    train_data: str | None = None
    test_data: str | None = None
    synthetic: SyntheticSpec | None = None
    synthetic_train_per_class: int = 50
    synthetic_test_per_class: int = 20
    lif: LIFParams = field(default_factory=LIFParams)
    topology: TopologyParams = field(default_factory=TopologyParams)
    plasticity: PlasticityParams = field(default_factory=PlasticityParams)
    regulation: RegulationParams = field(default_factory=RegulationParams)
    harness: HarnessParams = field(default_factory=HarnessParams)
    disabled: tuple[str, ...] = ()
    inh_rules_shared: bool = False
    delay_mode: str = "learned"
    fixed_delay_value: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "disabled", tuple(self.disabled))
        for name in self.disabled:
            if name not in DISABLE_CHOICES:
                raise ConfigError(
                    f"unknown mechanism in disabled: {name!r} "
                    f"(choices: {', '.join(DISABLE_CHOICES)})"
                )
        if self.delay_mode not in DELAY_MODES:
            raise ConfigError(
                f"unknown delay_mode: {self.delay_mode!r} (choices: {', '.join(DELAY_MODES)})"
            )
        _check_numbers(self)

    def is_disabled(self, mechanism: str) -> bool:
        return mechanism in self.disabled

    @property
    def delay_learning_on(self) -> bool:
        return self.delay_mode == "learned" and not self.is_disabled("delay-learning")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """The config ``data`` describes, without :data:`RETIRED_FIELDS`; ``data`` is not modified."""
        _check_keys(cls, data)
        kw = dict(data)
        sections = {
            "lif": (LIFParams, ()),
            "topology": (TopologyParams, ("kernel", "pool", "w_conv_init", "w_forward_init", "w_lateral_init")),
            "plasticity": (PlasticityParams, ()),
            "regulation": (RegulationParams, ()),
            "harness": (HarnessParams, ()),
        }
        for name in (*sections, "synthetic"):
            if name in kw and not isinstance(kw[name], dict) and not (name == "synthetic" and kw[name] is None):
                raise ConfigError(f"{name} must be an object, got {kw[name]!r}")
        disabled = kw.get("disabled", ())
        if not isinstance(disabled, (list, tuple)) or not all(isinstance(x, str) for x in disabled):
            raise ConfigError(f"disabled must be a list of mechanism names, got {disabled!r}")
        for (section, name), kept in RETIRED_FIELDS.items():
            node = kw.get(section, {})
            if name in node:
                if kept is not None and (type(node[name]) is not type(kept) or node[name] != kept):
                    raise ConfigError(
                        f"{section}.{name} is retired: only {json.dumps(kept)} is supported, got {node[name]!r}"
                    )
                kw[section] = {k: v for k, v in node.items() if k != name}
        for name, (section_cls, tuple_fields) in sections.items():
            if name in kw:
                kw[name] = _plain_from_dict(section_cls, kw[name], tuple_fields)
        if kw.get("synthetic") is not None:
            kw["synthetic"] = SyntheticSpec.from_dict(kw["synthetic"])
        kw["disabled"] = tuple(disabled)
        return cls(**kw)


def _check_numbers(cfg: RunConfig) -> None:
    """Reject, naming the field, a float field of ``cfg`` or of one of its
    sections that is not a finite number (or is a bool), an int field that
    holds no int (or a bool), a time constant of :data:`POSITIVE_FIELDS`
    that is not positive and a field below its entry in :data:`MINIMA`."""
    _check_section("", cfg)
    for f in dataclasses.fields(cfg):
        obj = getattr(cfg, f.name)
        if dataclasses.is_dataclass(obj):
            _check_section(f.name, obj)


def _check_section(section: str, obj) -> None:
    """The checks of :func:`_check_numbers` on the fields of one dataclass,
    named ``section.field`` (``field`` for the top-level section "")."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        name = f"{section}.{f.name}" if section else f.name
        values = v if isinstance(v, tuple) and f.type.startswith("tuple") else (v,)
        real = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
        finite = all(not isinstance(x, float) or math.isfinite(x) for x in values)
        if ("float" in f.type and not real) or not finite:
            raise ConfigError(f"{name} must be a finite number, got {v!r}")
        if f.type in ("int", "tuple[int, int]") and not all(
            isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in values
        ):
            raise ConfigError(f"{name} must be an integer, got {v!r}")
        if (section, f.name) in POSITIVE_FIELDS and not v > 0:
            raise ConfigError(f"{name} must be positive, got {v!r}")
        if (section, f.name) in MINIMA and not v >= MINIMA[section, f.name]:
            raise ConfigError(f"{name} must be at least {MINIMA[section, f.name]}, got {v!r}")


def _check_keys(cls, data: dict[str, Any]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object for {cls.__name__}, got {type(data).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) for {cls.__name__}: {', '.join(unknown)}")


def _plain_from_dict(cls, data: dict[str, Any], tuple_fields=()):
    _check_keys(cls, data)
    kw = dict(data)
    for name in tuple_fields:
        if name in kw and kw[name] is not None:
            kw[name] = tuple(kw[name])
    return cls(**kw)


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
    """Stable serialization: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def _json_default(obj):
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


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
    """Digest of a model's identity. ``out_dir`` is not part of it, so two
    configs that differ only in their output directory hash the same."""
    return hashlib.sha256(canonical_json(model_identity(cfg)).encode()).hexdigest()


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
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2, default=_json_default) + "\n")


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
