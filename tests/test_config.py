"""Config loading: retired fields, value checks, and fields the package reads."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from conftest import tiny_cfg

from chronospike.config import (
    ConfigError,
    RunConfig,
    TopologyParams,
    apply_overrides,
    canonical_json,
    config_hash,
    load_config,
    model_identity,
    to_dict,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "chronospike"

#: The retired fields at the values every config held while they existed.
OLD_DEFAULTS = {
    "lif": {"theta_init": 1.0},
    "harness": {"checkpoint_every": 0, "shuffle": True, "flush_factor": 4},
    "regulation": {"gate_in_eval": True, "threshold_rule_as_printed": False},
}


def with_old_fields(data: dict, **changes) -> dict:
    """A JSON copy of config dict ``data`` holding the retired fields at
    their old defaults, with ``changes`` ({"section.name": value}) on top."""
    out = json.loads(json.dumps(data))
    for section, fields in OLD_DEFAULTS.items():
        out[section].update(fields)
    for path, value in changes.items():
        section, name = path.split(".")
        out[section][name] = value
    return out


def test_retired_fields_at_old_defaults_are_dropped(tmp_path):
    cfg = tiny_cfg()
    data = with_old_fields(to_dict(cfg))
    stored = json.dumps(data, sort_keys=True)
    path = tmp_path / "old.json"
    path.write_text(stored)
    for loaded in (RunConfig.from_dict(data), load_config(path)):
        assert loaded == cfg
        assert config_hash(loaded) == config_hash(cfg)
        fields = to_dict(loaded)
        assert not any(name in fields[section] for section, names in OLD_DEFAULTS.items() for name in names)
    # the caller's dict is not rewritten, so a stored hash can still digest it
    assert json.dumps(data, sort_keys=True) == stored


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("harness.shuffle", False, id="harness.shuffle"),
        pytest.param("regulation.gate_in_eval", False, id="regulation.gate_in_eval"),
        pytest.param("regulation.threshold_rule_as_printed", True, id="regulation.threshold_rule_as_printed"),
        pytest.param("regulation.threshold_rule_as_printed", 0, id="regulation.threshold_rule_as_printed=0"),
        pytest.param("harness.flush_factor", 8, id="harness.flush_factor=8"),
        pytest.param("harness.flush_factor", 4.0, id="harness.flush_factor=4.0"),
        pytest.param("harness.flush_factor", False, id="harness.flush_factor=false"),
    ],
)
def test_retired_switch_off_is_rejected(field, value):
    """A retired field at any value but the one it kept, or of another type
    (``0 == False`` and ``4.0 == 4`` in Python), names the field."""
    with pytest.raises(ConfigError, match=re.escape(field)):
        RunConfig.from_dict(with_old_fields(to_dict(tiny_cfg()), **{field: value}))


def test_overrides_reach_the_migration():
    cfg = tiny_cfg()
    kept = [
        "harness.shuffle=true", "lif.theta_init=3.5", "harness.flush_factor=4",
        "regulation.threshold_rule_as_printed=false",
    ]
    assert apply_overrides(cfg, kept) == cfg
    for bad in ("harness.shuffle=false", "harness.flush_factor=5", "regulation.threshold_rule_as_printed=true"):
        with pytest.raises(ConfigError, match=re.escape(bad.split("=")[0])):
            apply_overrides(cfg, [bad])


@pytest.mark.parametrize(
    "section, value",
    [("lif", 5), ("topology", "x"), ("plasticity", [1.0]), ("regulation", None), ("harness", True),
     ("synthetic", 5), ("synthetic", [])],
)
def test_sections_must_be_objects(section, value):
    data = to_dict(tiny_cfg())
    data[section] = value
    with pytest.raises(ConfigError, match=f"{section} must be an object"):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("value", [5, "homeo", None, {"homeo": 1}, ["homeo", 2]])
def test_disabled_must_be_a_list_of_names(value):
    data = {**to_dict(tiny_cfg()), "disabled": value}
    with pytest.raises(ConfigError, match="disabled must be a list of mechanism names"):
        RunConfig.from_dict(data)
    assert RunConfig.from_dict({**data, "disabled": ["homeo"]}).disabled == ("homeo",)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0"])
def test_fixed_delay_value_must_be_a_finite_number(value):
    with pytest.raises(ConfigError, match="fixed_delay_value"):
        dataclasses.replace(tiny_cfg(), fixed_delay_value=value)


@pytest.mark.parametrize("path", ["lif.tau_m", "plasticity.tau_plus", "plasticity.tau_minus",
                                  "plasticity.sigma_plus", "plasticity.sigma_minus"])
@pytest.mark.parametrize("value", ["0", "-2.5"])
def test_time_constants_must_be_positive(path, value):
    with pytest.raises(ConfigError, match=re.escape(f"{path} must be positive")):
        apply_overrides(tiny_cfg(), [f"{path}={value}"])


def _float_fields(obj, prefix=""):
    """(dotted path, value) of every float leaf of ``obj``, tuples of floats included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _float_fields(value, f"{prefix}{f.name}.")
        elif isinstance(value, float) or (value and isinstance(value, tuple) and all(isinstance(x, float) for x in value)):
            yield prefix + f.name, value


def test_every_float_field_must_be_finite():
    cfg = tiny_cfg()
    paths = dict(_float_fields(cfg))
    assert {"plasticity.d_max", "topology.w_conv_init", "synthetic.noise_rate", "fixed_delay_value"} <= set(paths)
    for path, value in paths.items():
        for bad in ("NaN", "Infinity", "-Infinity", "true", "false"):
            raw = f"[{bad}, {bad}]" if isinstance(value, tuple) else bad
            with pytest.raises(ConfigError, match=re.escape(f"{path} must be a finite number")):
                apply_overrides(cfg, [f"{path}={raw}"])


def _int_fields(obj, prefix=""):
    """(dotted path, value) of every int field of ``obj`` and its sections."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _int_fields(value, f"{prefix}{f.name}.")
        elif f.type == "int":
            yield prefix + f.name, value


def test_every_int_field_must_hold_an_int():
    paths = dict(_int_fields(tiny_cfg()))
    assert {"seed", "lif.t_ref", "topology.n_maps", "harness.max_epochs_l1", "synthetic.pattern_length"} <= set(paths)
    for path in paths:
        for bad in ('"x"', "true", "1.5", "null"):
            with pytest.raises(ConfigError, match=re.escape(f"{path} must be an integer")):
                apply_overrides(tiny_cfg(), [f"{path}={bad}"])
    for path in ("topology.kernel", "topology.pool"):
        with pytest.raises(ConfigError, match=re.escape(f"{path} must be an integer")):
            apply_overrides(tiny_cfg(), [f"{path}=[2, 2.0]"])


def _bounds(obj, prefix=""):
    """(dotted path, (bound, value)) of every field of ``obj`` and its
    sections whose metadata states a bound, as ``config.bounded`` writes it."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _bounds(value, f"{prefix}{f.name}.")
        elif f.metadata.keys() - {"check"}:
            yield prefix + f.name, (dict(f.metadata), value)


def _raw(value, like):
    """``value`` as an override, in both entries when the field ``like`` is a pair."""
    return f"[{value}, {value}]" if isinstance(like, tuple) else json.dumps(value)


def test_minima_bound_every_int_field_the_network_does_not():
    """Every int field states its least value in its metadata, so none is
    left for the network to check. The least value passes and one less
    fails naming the field, for pairs such as the kernel too."""
    cfg = tiny_cfg()
    minima = {path: (b["min"], value) for path, (b, value) in _bounds(cfg) if b.keys() == {"min"}}
    assert set(dict(_int_fields(cfg))) - set(minima) == set()
    assert {"topology.n_classes", "topology.stride", "topology.kernel", "topology.pool", "synthetic.grid"} <= set(minima)
    for path, (least, value) in minima.items():
        apply_overrides(cfg, [f"{path}={_raw(least, value)}"])
        with pytest.raises(ConfigError, match=re.escape(f"{path} must be at least {least}")):
            apply_overrides(cfg, [f"{path}={_raw(least - 1, value)}"])


def test_ranges_and_choices_are_bounds_of_their_fields():
    cfg = tiny_cfg()
    bounds = {path: b for path, (b, _value) in _bounds(cfg)}
    ranged = {path for path, b in bounds.items() if "min" in b and {"max", "below"} & b.keys()}
    assert ranged == {"topology.p_lat", "topology.inh_fraction", "synthetic.noise_rate"}
    for path in ranged:
        text = "in [0, 1)" if "below" in bounds[path] else "in [0, 1]"
        apply_overrides(cfg, [f"{path}=0"])
        for bad in ("-0.5", "1.5") + (("1",) if "below" in bounds[path] else ()):
            with pytest.raises(ConfigError, match=re.escape(f"{path} must be {text}")):
                apply_overrides(cfg, [f"{path}={bad}"])
    assert {path for path, b in bounds.items() if "positive" in b} == {
        "lif.tau_m", "plasticity.tau_plus", "plasticity.tau_minus", "plasticity.sigma_plus", "plasticity.sigma_minus"
    }
    for path, bad in (("delay_mode", '"x"'), ("disabled", '["homeo", "x"]')):
        with pytest.raises(ConfigError, match=re.escape(f"{path} must be one of")):
            apply_overrides(cfg, [f"{path}={bad}"])
    assert {path for path, b in bounds.items() if b.keys() == {"max"}} == {"plasticity.w_inh_min"}
    apply_overrides(cfg, ["plasticity.w_inh_min=0"])
    with pytest.raises(ConfigError, match=re.escape("plasticity.w_inh_min must be at most 0, got 0.5")):
        apply_overrides(cfg, ["plasticity.w_inh_min=0.5"])


@pytest.mark.parametrize("low, high", [("lif.theta_floor", "lif.theta_ceil"), ("regulation.r_min", "regulation.r_max")])
def test_range_ends_may_not_cross(low, high):
    """The least end of a range may equal its greatest but not exceed it,
    whichever end an override moves and however the record is built."""
    cfg = tiny_cfg()
    apply_overrides(cfg, [f"{low}=2", f"{high}=2"])
    apply_overrides(cfg, [f"{low}=20", f"{high}=30"])
    with pytest.raises(ConfigError, match=re.escape(f"{low} must be at most {high}, got 3 > 2")):
        apply_overrides(cfg, [f"{low}=3", f"{high}=2"])
    section, lo = low.split(".")
    record = type(getattr(cfg, section))
    with pytest.raises(ConfigError, match=re.escape(f"{low} must be at most {high}")):
        record(**{lo: 1e6})


def test_records_check_themselves_however_built():
    """A record built directly, not from a dict, gets the same checks, and
    stores lists as tuples."""
    with pytest.raises(ConfigError, match=re.escape("topology.kernel must be a list of 2 entries")):
        TopologyParams(kernel=5)
    with pytest.raises(ConfigError, match=re.escape("inh_rules_shared must be true or false")):
        RunConfig(inh_rules_shared="false")
    with pytest.raises(ConfigError, match=re.escape("lif must be an object")):
        RunConfig(lif=5)
    assert TopologyParams(kernel=[3, 3]).kernel == (3, 3)


def test_to_dict_equals_asdict():
    cfg = tiny_cfg()
    assert cfg.synthetic is not None and cfg.synthetic.embedded_delays
    assert to_dict(cfg) == dataclasses.asdict(cfg)


def test_config_hash_of_a_replaced_config_is_its_own():
    """The identity text is cached on the config object. A replaced config,
    at the top level or in a section, is a new object with its own text, so
    once the original's text is cached the copy's hash still differs."""
    cfg = tiny_cfg()
    before = config_hash(cfg)
    assert "identity_text" in vars(cfg)
    for other in (
        dataclasses.replace(cfg, seed=cfg.seed + 1),
        dataclasses.replace(cfg, topology=dataclasses.replace(cfg.topology, n_maps=5)),
    ):
        assert config_hash(other) != before
        assert config_hash(other) == hashlib.sha256(canonical_json(model_identity(other)).encode()).hexdigest()
    assert config_hash(dataclasses.replace(cfg, out_dir="elsewhere")) == before
    assert config_hash(cfg) == before


def test_apply_overrides_leaves_the_source_config_unchanged():
    cfg = tiny_cfg()
    before = dataclasses.asdict(cfg)
    out = apply_overrides(
        cfg, ["seed=3", "topology.kernel=[2, 2]", "harness.max_epochs_l1=5", "synthetic.embedded_delays=[[], [], []]"]
    )
    assert dataclasses.asdict(cfg) == before and cfg == tiny_cfg()
    assert (out.seed, out.topology.kernel, out.synthetic.embedded_delays) == (3, (2, 2), ((), (), ()))


def _leaf_fields(cls, prefix=""):
    """(dotted path, name) of every settable leaf field under ``cls``."""
    for f in dataclasses.fields(cls):
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            yield from _leaf_fields(type(default), f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f.name


def test_every_config_field_is_read_by_the_package():
    """A field nothing reads is a knob that changes nothing but the hash."""
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    unread = [path for path, name in _leaf_fields(RunConfig) if not re.search(rf"\.{name}\b", text)]
    assert unread == []
