"""Network construction, convolution plumbing, pooling, checkpoints."""

import base64
import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import tiny_cfg

from chronospike.config import (
    VARIANTS,
    ConfigError,
    PlasticityParams,
    RunConfig,
    TopologyParams,
    apply_variant,
    canonical_json,
    config_hash,
)
from chronospike.core import lif_step
from chronospike.harness import train, train_layer1
from chronospike.presets import moving_bars_acceptance_config
from chronospike.synthetic import gen_synthetic, moving_bars_spec
from chronospike.topology import (
    Network,
    _payload_text,
    StateError,
    build_network,
    conv_forward_currents,
    conv_output_shape,
    inhibitory_flags,
    layer1_hash,
    load_checkpoint,
    network_payload,
    pool_earliest,
    pool_output_shape,
    save_checkpoint,
    state_hash,
)


def small_cfg(**top_kw) -> RunConfig:
    top = dict(
        n_maps=3,
        kernel=(3, 3),
        stride=1,
        pool=(2, 2),
        n_classes=2,
        n_per_class=4,
        p_lat=0.3,
        inh_fraction=0.25,
    )
    top.update(top_kw)
    return RunConfig(seed=7, topology=TopologyParams(**top), plasticity=PlasticityParams(d_max=6.0))


def test_output_shapes():
    assert conv_output_shape((20, 20), (5, 5), 1) == (16, 16)
    assert conv_output_shape((20, 20), (5, 5), 2) == (8, 8)
    assert pool_output_shape((16, 16), (4, 4)) == (4, 4)
    with pytest.raises(ConfigError):
        pool_output_shape((15, 16), (4, 4))  # does not tile
    with pytest.raises(ConfigError):
        conv_output_shape((4, 4), (5, 5), 1)  # kernel larger than input


def test_inhibitory_flags_exact_count_and_placement():
    flags = inhibitory_flags(10, 8, 0.2)
    assert flags.sum() == 16  # round(0.2 * 80)
    per_group = flags.reshape(10, 8).sum(axis=1)
    # 16 over 10 groups: earlier groups absorb the remainder
    assert per_group.tolist() == [2] * 6 + [1] * 4
    # within each group the highest indices carry the tag
    grid = flags.reshape(10, 8)
    for g in range(10):
        k = int(per_group[g])
        assert grid[g, 8 - k :].all()
        assert not grid[g, : 8 - k].any()


def test_inhibitory_flags_remainder_goes_to_early_groups():
    flags = inhibitory_flags(3, 3, 0.5)  # round(4.5) = 4 over 3 groups
    per_group = flags.reshape(3, 3).sum(axis=1)
    assert per_group.tolist() == [2, 1, 1]
    assert flags.sum() == 4


def test_network_shapes_and_signs():
    cfg = small_cfg()
    net = build_network(cfg, (2, 10, 10))
    assert net.conv_hw == (8, 8)
    assert net.pool_hw == (4, 4)
    assert net.n_pool == 3 * 16
    assert net.n_dec == 8
    assert net.conv_w.shape == (3, 2, 3, 3)
    assert (net.conv_w >= 0).all()
    assert (net.conv_d >= 0).all() and (net.conv_d <= 6.0).all()
    assert net.wf.shape == (8, 48)
    assert net.is_inh.sum() == 2
    # lateral signs follow the source's type, delays floored at one bin
    if net.lat_src.size:
        inh_e = net.is_inh[net.lat_src]
        assert (net.lat_w[inh_e] <= 0).all()
        assert (net.lat_w[~inh_e] >= 0).all()
        assert (net.lat_d >= 1.0).all()
        assert (net.lat_src != net.lat_tgt).all()


def test_lateral_disable_and_zero_probability():
    for cfg in (
        small_cfg(p_lat=0.0),
        dataclasses.replace(small_cfg(), disabled=("lateral",)),
    ):
        net = build_network(cfg, (2, 10, 10))
        assert net.lat_src.size == 0
        assert net.lat_w.size == 0


def test_invalid_configs_rejected():
    """Bounds on one field fail when the config is built, the fit of kernel
    and pool to an input shape when the network is; each names its field."""
    with pytest.raises(ConfigError, match="topology.n_classes"):
        build_network(small_cfg(n_classes=1), (2, 10, 10))
    with pytest.raises(ConfigError, match="topology.n_per_class"):
        build_network(small_cfg(n_per_class=0), (2, 10, 10))
    with pytest.raises(ConfigError, match="topology.p_lat"):
        build_network(small_cfg(p_lat=1.5), (2, 10, 10))
    with pytest.raises(ConfigError, match="topology.pool"):
        build_network(small_cfg(pool=(3, 2)), (2, 10, 10))  # 8 % 3 != 0
    with pytest.raises(ConfigError, match="topology.kernel"):
        build_network(small_cfg(), (2, 2, 10))  # a 3x3 kernel on 2 rows


def test_build_deterministic_in_seed():
    a = build_network(small_cfg(), (2, 10, 10))
    b = build_network(small_cfg(), (2, 10, 10))
    np.testing.assert_array_equal(a.conv_w, b.conv_w)
    np.testing.assert_array_equal(a.df, b.df)
    np.testing.assert_array_equal(a.lat_src, b.lat_src)
    c = build_network(dataclasses.replace(small_cfg(), seed=8), (2, 10, 10))
    assert (a.conv_w != c.conv_w).any()


def test_fixed_delay_mode_sets_constant():
    cfg = dataclasses.replace(small_cfg(), delay_mode="fixed", fixed_delay_value=2.0)
    net = build_network(cfg, (2, 10, 10))
    assert (net.conv_d == 2.0).all()
    assert (net.df == 2.0).all()
    if net.lat_d.size:
        assert (net.lat_d == 2.0).all()


def test_fixed_delay_mode_respects_lateral_floor():
    cfg = dataclasses.replace(small_cfg(), delay_mode="fixed", fixed_delay_value=0.0)
    net = build_network(cfg, (2, 10, 10))
    assert (net.df == 0.0).all()
    if net.lat_d.size:
        assert (net.lat_d == 1.0).all()


def test_random_frozen_mode_keeps_draws():
    cfg_l = small_cfg()
    cfg_r = apply_variant(cfg_l, "random-frozen-delays")
    assert not cfg_r.delay_learning_on
    a = build_network(cfg_l, (2, 10, 10))
    b = build_network(cfg_r, (2, 10, 10))
    np.testing.assert_array_equal(a.conv_d, b.conv_d)
    np.testing.assert_array_equal(a.df, b.df)
    np.testing.assert_array_equal(a.lat_d, b.lat_d)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_build_leaves_the_generator_where_the_full_model_does(variant):
    """Every variant draws what the full model draws, whatever it keeps, so
    the generator that orders both phases' samples starts in one state."""
    for cfg, shape in ((small_cfg(), (2, 10, 10)), (tiny_cfg(), (2, 6, 6))):
        full = build_network(cfg, shape)
        net = build_network(apply_variant(cfg, variant), shape)
        assert net.rng.bit_generator.state == full.rng.bit_generator.state


def test_no_lateral_trains_the_full_models_layer1():
    """Lateral wiring is a decision-layer mechanism: without it, layer 1
    trains on the same sample order to the same kernels."""
    cfg = tiny_cfg()
    samples = gen_synthetic(cfg.synthetic, cfg.synthetic_train_per_class)
    hashes = []
    for c in (cfg, apply_variant(cfg, "no-lateral")):
        net = build_network(c, samples[0].frames.shape[1:])
        train_layer1(net, samples)
        hashes.append(layer1_hash(net))
    assert hashes[0] == hashes[1]


# -- convolution currents -------------------------------------------------------


def brute_force_currents(net, frames):
    """Reference: add every input spike's weight to each conv neuron it
    reaches, at its bin plus the delay quantized to the nearest bin."""
    top = net.cfg.topology
    d_max_int = int(round(net.cfg.plasticity.d_max))
    t_in = frames.shape[0]
    hc, wc = net.conv_hw
    kh, kw = top.kernel
    st = top.stride
    dint = np.clip(np.rint(net.conv_d), 0, d_max_int).astype(np.int64)
    out = np.zeros((t_in + d_max_int + 1, net.n_maps, hc, wc))
    t_idx, p_idx, y_idx, x_idx = np.nonzero(frames)
    for t, p, y, x in zip(t_idx, p_idx, y_idx, x_idx):
        for m in range(net.n_maps):
            for cy in range(hc):
                for cx in range(wc):
                    ky = y - cy * st
                    kx = x - cx * st
                    if 0 <= ky < kh and 0 <= kx < kw:
                        d = dint[m, p, ky, kx]
                        out[t + d, m, cy, cx] += net.conv_w[m, p, ky, kx]
    return out


def test_conv_currents_match_brute_force():
    rng = np.random.default_rng(2)
    cfg = small_cfg()
    net = build_network(cfg, (2, 8, 8))
    frames = (rng.random((9, 2, 8, 8)) < 0.15).astype(np.uint8)
    fast = conv_forward_currents(net, frames)
    slow = brute_force_currents(net, frames)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)


def test_conv_currents_match_brute_force_stride_2():
    rng = np.random.default_rng(3)
    cfg = small_cfg(kernel=(3, 3), stride=2, pool=(1, 1))
    net = build_network(cfg, (2, 9, 9))
    frames = (rng.random((6, 2, 9, 9)) < 0.2).astype(np.uint8)
    np.testing.assert_allclose(
        conv_forward_currents(net, frames), brute_force_currents(net, frames), rtol=1e-12, atol=0
    )


def tap_loop_currents(net, frames):
    """Reference: the dense formulation, one whole [T, Hc, Wc] frame slice
    added per tap and map, taps in (p, ky, kx) order."""
    top = net.cfg.topology
    d_max_int = int(round(net.cfg.plasticity.d_max))
    t_in = frames.shape[0]
    hc, wc = net.conv_hw
    st = top.stride
    kh, kw = top.kernel
    dint = np.clip(np.rint(net.conv_d), 0, d_max_int).astype(np.int64)
    out = np.zeros((t_in + d_max_int + 1, net.n_maps, hc, wc))
    for p in range(frames.shape[1]):
        for ky in range(kh):
            for kx in range(kw):
                sl = frames[:, p, ky : ky + hc * st : st, kx : kx + wc * st : st]
                if not sl.any():
                    continue
                slf = sl.astype(float)
                for m in range(net.n_maps):
                    dd = dint[m, p, ky, kx]
                    out[dd : dd + t_in, m] += net.conv_w[m, p, ky, kx] * slf
    return out


@given(
    stride=hst.integers(min_value=1, max_value=3),
    kernel=hst.tuples(hst.integers(min_value=1, max_value=4), hst.integers(min_value=1, max_value=4)),
    extra=hst.tuples(hst.integers(min_value=0, max_value=6), hst.integers(min_value=0, max_value=6)),
    n_maps=hst.integers(min_value=1, max_value=4),
    n_pol=hst.integers(min_value=1, max_value=2),
    n_bins=hst.integers(min_value=1, max_value=8),
    d_max=hst.sampled_from([0.0, 1.0, 2.5, 6.0]),
    density=hst.floats(min_value=0.0, max_value=0.7),
    dtype=hst.sampled_from([np.uint8, np.bool_]),
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_conv_currents_equal_tap_loop(stride, kernel, extra, n_maps, n_pol, n_bins, d_max, density, dtype, seed):
    """Exact equality with the dense tap loop, over strides, kernels, maps,
    inputs the stride does not tile, delays at 0 and at d_max, uint8 frames
    holding counts and bool frames. Weights span six decades and both signs,
    so a change in the order of any sum would show in the last bits."""
    rng = np.random.default_rng(seed)
    h, w = kernel[0] + extra[0], kernel[1] + extra[1]
    top = TopologyParams(n_maps=n_maps, kernel=kernel, stride=stride, pool=(1, 1), n_classes=2, n_per_class=1)
    net = build_network(RunConfig(seed=1, topology=top, plasticity=PlasticityParams(d_max=d_max)), (n_pol, h, w))
    shape = net.conv_w.shape
    net.conv_w[:] = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-3, 3, shape)
    at_bound = rng.integers(0, 2, shape) * d_max
    net.conv_d[:] = np.where(rng.random(shape) < 0.5, at_bound, rng.uniform(0.0, d_max, shape))
    frames = rng.random((n_bins, n_pol, h, w)) < density
    if dtype is np.uint8:
        frames = frames * rng.integers(1, 4, frames.shape).astype(np.uint8)
    cur = conv_forward_currents(net, frames)
    assert cur.dtype == np.float64
    assert np.array_equal(cur, tap_loop_currents(net, frames))


def _sheet_32x32():
    """The preset constants on a 32x32 moving-bars grid, as the event-camera
    benchmark evaluates them, and one of its samples."""
    spec = moving_bars_spec(grid=(32, 32), pattern_length=50, noise_rate=0.01, seed=0, step_bins=1)
    frames = gen_synthetic(spec, 1)[0].frames
    cfg = moving_bars_acceptance_config(0, synthetic=spec)
    return build_network(cfg, frames.shape[1:]), frames


def test_conv_currents_memory_stays_near_the_output():
    """At 32x32 the currents are a [71, 16, 28, 28] float64 array of 6.8
    MiB. Finding each input event once keeps the working set beside it
    below the 9.1 MiB the frame-slice scan per tap peaked at."""
    net, frames = _sheet_32x32()
    tracemalloc.start()
    try:
        cur = conv_forward_currents(net, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cur.nbytes == 71 * 16 * 28 * 28 * 8
    assert peak < 9.1 * 2**20


def test_conv_currents_of_empty_frames_are_zero():
    net = build_network(small_cfg(), (2, 8, 8))
    cur = conv_forward_currents(net, np.zeros((5, 2, 8, 8), np.uint8))
    assert cur.shape == (5 + 6 + 1, 3, 6, 6) and cur.dtype == np.float64
    assert not cur.any()


def test_conv_translation_equivariance():
    """The same spatio-temporal motif shifted by the stride produces the
    same response column, shifted: weight and delay sharing in action."""
    cfg = small_cfg(kernel=(3, 3), stride=1, pool=(2, 2))
    net = build_network(cfg, (2, 8, 8))
    base = np.zeros((8, 2, 8, 8), np.uint8)
    base[1, 0, 2, 2] = 1
    base[3, 0, 3, 3] = 1
    shifted = np.zeros_like(base)
    shifted[1, 0, 2, 4] = 1
    shifted[3, 0, 3, 5] = 1
    cur_a = conv_forward_currents(net, base)
    cur_b = conv_forward_currents(net, shifted)
    # interior columns, two cells apart
    np.testing.assert_allclose(cur_a[:, :, 1:3, 1:3], cur_b[:, :, 1:3, 3:5], rtol=1e-12)


def test_pool_earliest_takes_minimum():
    first = np.full((1, 4, 4), np.inf)
    first[0, 0, 0] = 9.0
    first[0, 1, 1] = 5.0
    first[0, 2, 3] = 2.0
    pooled = pool_earliest(first, (2, 2))
    assert pooled.shape == (1, 2, 2)
    assert pooled[0, 0, 0] == 5.0
    assert pooled[0, 1, 1] == 2.0
    assert np.isinf(pooled[0, 0, 1])
    assert np.isinf(pooled[0, 1, 0])


# -- checkpoints -----------------------------------------------------------------


def _mutate_traces(net):
    net.conv_w[0, 0, 0, 0] = 0.123456789
    net.df[2, 3] = 4.25
    net.theta[1] = 1.75
    net.act_short[:] = 0.3
    net.frozen[0] = True
    net.decision_window.extend([0, 1, 1])
    net.phase = "layer2"


def test_checkpoint_round_trip_exact(tmp_path):
    net = build_network(small_cfg(), (2, 10, 10))
    _mutate_traces(net)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net)
    loaded = load_checkpoint(path)
    for name in (
        "conv_w", "conv_d", "conv_theta", "conv_act", "wf", "df", "lat_w", "lat_d",
        "theta", "act_short", "act_long", "freeze_ema",
    ):
        np.testing.assert_array_equal(getattr(net, name), getattr(loaded, name), err_msg=name)
    np.testing.assert_array_equal(net.frozen, loaded.frozen)
    np.testing.assert_array_equal(net.is_inh, loaded.is_inh)
    assert list(net.decision_window) == list(loaded.decision_window)
    assert loaded.phase == "layer2"
    assert config_hash(loaded.cfg) == config_hash(net.cfg)


def test_checkpoint_bytes_identical_across_saves(tmp_path):
    net = build_network(small_cfg(), (2, 10, 10))
    _mutate_traces(net)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_checkpoint(p1, net)
    save_checkpoint(p2, net)
    assert p1.read_bytes() == p2.read_bytes()
    # save -> load -> save is also byte-stable
    p3 = tmp_path / "c.json"
    save_checkpoint(p3, load_checkpoint(p1))
    assert p3.read_bytes() == p1.read_bytes()


def test_out_dir_is_not_part_of_model_identity(tmp_path):
    nets = []
    for name in ("a", "b"):
        cfg = dataclasses.replace(small_cfg(), out_dir=str(tmp_path / name))
        net = build_network(cfg, (2, 10, 10))
        _mutate_traces(net)
        save_checkpoint(tmp_path / f"{name}.json", net)
        nets.append(net)
    assert nets[0].cfg.out_dir != nets[1].cfg.out_dir
    assert config_hash(nets[0].cfg) == config_hash(nets[1].cfg)
    assert state_hash(nets[0]) == state_hash(nets[1])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_checkpoint_with_retired_fields_loads(tmp_path):
    net = build_network(small_cfg(), (2, 10, 10))
    _mutate_traces(net)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net)
    assert "checkpoint_every" not in path.read_text()
    payload = json.loads(path.read_text())
    payload["config"]["lif"]["theta_init"] = 1.0
    payload["config"]["harness"].update(checkpoint_every=0, shuffle=True, flush_factor=4)
    payload["config"]["regulation"].update(gate_in_eval=True, threshold_rule_as_printed=False)
    # the hash a writer of that time stored: over the fields it wrote
    payload["config_hash"] = hashlib.sha256(canonical_json(payload["config"]).encode()).hexdigest()
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    loaded = load_checkpoint(old)
    before, after = network_payload(net), network_payload(loaded)
    for key in ("arrays", "rng", "decision_window", "phase", "input_shape"):
        assert after[key] == before[key], key
    save_checkpoint(tmp_path / "resaved.json", loaded)
    assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()


def test_checkpoint_rng_state_survives(tmp_path):
    net = build_network(small_cfg(), (2, 10, 10))
    net.rng.random(17)  # advance
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(net.rng.random(5), loaded.rng.random(5))


def test_checkpoint_rejects_wrong_format(tmp_path):
    net = build_network(small_cfg(), (2, 10, 10))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net)
    payload = json.loads(path.read_text())
    payload["format"] = "something-else"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(StateError):
        load_checkpoint(bad)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    bad.write_text(json.dumps(payload))
    with pytest.raises(StateError):
        load_checkpoint(bad)


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    """The loader makes no network of its own: its generator only takes the
    stored state, and no array is derived from the config."""

    class NoDraws:
        """A generator stand-in that holds a state and cannot draw."""

        def __init__(self, seed):
            self.bit_generator = np.random.PCG64(seed)

    net = build_network(small_cfg(), (2, 10, 10))
    _mutate_traces(net)
    save_checkpoint(tmp_path / "a.json", net)
    monkeypatch.setattr(np.random, "default_rng", NoDraws)
    monkeypatch.setattr("chronospike.topology.inhibitory_flags", None)
    save_checkpoint(tmp_path / "b.json", load_checkpoint(tmp_path / "a.json"))
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


@pytest.mark.parametrize("name", ["lat_tgt", "lat_w", "lat_d"])
def test_checkpoint_rejects_lateral_arrays_of_unequal_length(tmp_path, name):
    """Each lat_* array holds one entry per edge, as many as lat_src."""
    net = build_network(small_cfg(), (2, 10, 10))
    assert net.lat_src.size > 1
    setattr(net, name, getattr(net, name)[:-1])
    save_checkpoint(tmp_path / "ckpt.json", net)
    with pytest.raises(StateError, match=rf"array {name} is \w+ \({net.lat_src.size - 1},\), expected"):
        load_checkpoint(tmp_path / "ckpt.json")


@pytest.mark.parametrize(
    "edit",
    [lambda c: c.update(disabled=["lateral"]), lambda c: c["topology"].update(p_lat=0.0)],
    ids=["lateral disabled", "p_lat 0"],
)
def test_checkpoint_rejects_edges_a_config_without_lateral_wiring_holds(tmp_path, edit):
    net = build_network(small_cfg(), (2, 10, 10))
    assert net.lat_src.size
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net)
    payload = json.loads(path.read_text())
    edit(payload["config"])
    payload["config_hash"] = hashlib.sha256(canonical_json(payload["config"]).encode()).hexdigest()
    path.write_text(json.dumps(payload))
    with pytest.raises(StateError, match=f"lat_src holds {net.lat_src.size} edges, but the config has no lateral"):
        load_checkpoint(path)


def test_checkpoint_rejects_tampered_shape(tmp_path):
    net = build_network(small_cfg(), (2, 10, 10))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net)
    payload = json.loads(path.read_text())
    payload["arrays"]["theta"]["shape"] = [3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(StateError):
        load_checkpoint(bad)


@pytest.mark.parametrize("name", ["frozen", "conv_frozen", "is_inh"])
def test_checkpoint_rejects_a_bool_byte_above_1(tmp_path, name):
    """A bool array is stored one byte per entry; a byte of 2 would load as
    True and the loaded state would no longer hash to what the file holds."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, build_network(small_cfg(), (2, 10, 10)))
    payload = json.loads(path.read_text())
    spec = payload["arrays"][name]
    raw = bytearray(base64.b64decode(spec["data"]))
    raw[0] = 2
    spec["data"] = base64.b64encode(bytes(raw)).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(StateError, match=f"array {name} holds a byte other than 0 or 1"):
        load_checkpoint(path)


def test_state_hash_tracks_state():
    net = build_network(small_cfg(), (2, 10, 10))
    h0 = state_hash(net)
    assert h0 == state_hash(net)
    net.wf[0, 0] += 1e-9
    assert state_hash(net) != h0


def _one_shot_text(net) -> str:
    """Reference: the checkpoint text as one ``json.dumps`` of the whole payload."""
    return json.dumps(network_payload(net), sort_keys=True, separators=(",", ":"))


def _trained_tiny():
    cfg = tiny_cfg()
    return train(cfg, gen_synthetic(cfg.synthetic, 2)).net


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_network(moving_bars_acceptance_config(0), (2, 8, 8)),
        lambda: _sheet_32x32()[0],
        _trained_tiny,
        lambda: build_network(dataclasses.replace(small_cfg(), train_data="données/ジェスチャ.cspk"), (2, 10, 10)),
    ],
    ids=["preset", "untrained 32x32", "trained", "non-ASCII train_data"],
)
def test_payload_text_equals_one_shot_dump(make):
    """The payload text, written value by value with the config's cached
    text, is the one-shot dump, and so is the digest ``state_hash`` takes."""
    net = make()
    ref = _one_shot_text(net)
    assert _payload_text(net) == ref
    assert state_hash(net) == hashlib.sha256(ref.encode()).hexdigest()
    assert ref.isascii()


def test_layer1_hash_ignores_decision_layer():
    net = build_network(small_cfg(), (2, 10, 10))
    h0 = layer1_hash(net)
    net.wf[0, 0] += 0.5
    net.theta[0] += 0.5
    assert layer1_hash(net) == h0
    net.conv_w[0, 0, 0, 0] += 0.5
    assert layer1_hash(net) != h0


# -- spiking sanity through the stack -------------------------------------------


def test_single_input_spike_drives_expected_conv_cell():
    cfg = small_cfg(n_maps=1, kernel=(3, 3), pool=(2, 2))
    net = build_network(cfg, (2, 4, 4))
    net.conv_w.fill(2.0)  # every delivery alone crosses theta=1
    net.conv_d.fill(3.0)
    frames = np.zeros((2, 2, 4, 4), np.uint8)
    frames[0, 0, 1, 1] = 1
    cur = conv_forward_currents(net, frames)
    # the spike reaches conv cell (0,0) through kernel tap (1,1) at t=3
    assert cur[3, 0, 0, 0] == 2.0
    v = np.zeros((1, 2, 2))
    refr = np.full((1, 2, 2), -(1 << 30), np.int64)
    fired = []
    for t in range(cur.shape[0]):
        v, refr, spk = lif_step(v, cur[t], t, np.array([[1.0]])[:, :, None], refr, net.cfg.lif)
        if spk.any():
            fired.append((t, *np.argwhere(spk)[0]))
    assert (3, 0, 0, 0) in fired
