"""End-to-end command line flows and exit codes, all in-process."""

import base64
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import tiny_cfg
from test_events import _write_recording

from chronospike import cli
from chronospike.cli import REFERENCE_DELTAS_PP, main
from chronospike.config import VARIANTS, canonical_json, config_hash, load_config, save_config, to_dict
from chronospike.core import DelayBuffer, DelayOutOfRange
from chronospike.events import FrameSequence, load_dataset, save_dataset
from chronospike.harness import run_presentation, train
from chronospike.topology import StateError, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Ingest a tiny synthetic task to files, then train once from them."""
    root = tmp_path_factory.mktemp("cli")
    base = tiny_cfg()

    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(dataclasses.asdict(base.synthetic)))
    train_ds = root / "train.cspk"
    test_ds = root / "test.cspk"
    rc_ingest = main(
        [
            "ingest",
            "--synthetic", str(spec_path),
            "--output", str(train_ds),
            "--output-test", str(test_ds),
            "--train-per-class", "6",
            "--test-per-class", "3",
        ]
    )

    cfg = dataclasses.replace(
        base, synthetic=None, train_data=str(train_ds), test_data=str(test_ds)
    )
    cfg_path = root / "run.json"
    save_config(cfg, cfg_path)
    out1 = root / "out1"
    rc_train = main(["train", "--config", str(cfg_path), "--out", str(out1)])
    return {
        "root": root,
        "spec_path": spec_path,
        "train_ds": train_ds,
        "test_ds": test_ds,
        "cfg": cfg,
        "cfg_path": cfg_path,
        "out1": out1,
        "rc_ingest": rc_ingest,
        "rc_train": rc_train,
    }


# -- ingest -----------------------------------------------------------------


def test_ingest_writes_both_splits(ws):
    assert ws["rc_ingest"] == 0
    train_s, meta = load_dataset(ws["train_ds"])
    test_s, _ = load_dataset(ws["test_ds"])
    assert len(train_s) == 18
    assert len(test_s) == 9
    assert meta["meta"]["source"] == "synthetic"
    assert sorted({s.label for s in train_s}) == [0, 1, 2]


def test_ingest_report_contents(ws, tmp_path, capsys):
    rc = main(
        [
            "ingest",
            "--synthetic", str(ws["spec_path"]),
            "--output", str(tmp_path / "t.cspk"),
            "--train-per-class", "2",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["train_samples"] == 6
    assert report["train_per_class"] == {"0": 2, "1": 2, "2": 2}
    assert 0.0 <= report["oracle_train_accuracy"] <= 1.0
    assert "output_test" not in report


def test_ingest_requires_one_source(ws, tmp_path):
    assert main(["ingest", "--output", str(tmp_path / "x.cspk")]) == 2
    assert (
        main(
            [
                "ingest",
                "--input", str(tmp_path),
                "--synthetic", str(ws["spec_path"]),
                "--output", str(tmp_path / "x.cspk"),
            ]
        )
        == 2
    )


def test_ingest_missing_input_dir(tmp_path):
    rc = main(
        ["ingest", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "x.cspk")]
    )
    assert rc == 2


def test_ingest_bad_spec_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["ingest", "--synthetic", str(bad), "--output", str(tmp_path / "x.cspk")])
    assert rc == 2


# -- train --------------------------------------------------------------------


def test_train_exit_code_reports_unconverged_delays(ws):
    # freeze needs at least harness.freeze_window observations per unit and
    # the epoch budget of this config provides fewer, so the run must end
    # with partial results and the non-convergence code
    assert ws["rc_train"] == 4


def test_train_artifacts_exist(ws):
    out = ws["out1"]
    for name in (
        "effective_config.json",
        "metrics.jsonl",
        "checkpoint_layer1.json",
        "checkpoint_final.json",
        "summary.json",
    ):
        assert (out / name).exists(), name


def test_export_kernels_csv(ws):
    net = load_checkpoint(ws["out1"] / "checkpoint_final.json")
    for name, arr in (("conv_weights.csv", net.conv_w), ("conv_delays.csv", net.conv_d)):
        lines = (ws["out1"] / name).read_text().strip().split("\n")
        assert lines[0] == "map,polarity,ky,kx,value"
        assert len(lines) == 1 + arr.size
        # values survive a text round trip exactly
        row = lines[1].split(",")
        assert float(row[4]) == arr[0, 0, 0, 0]


def test_train_summary_fields(ws):
    summary = json.loads((ws["out1"] / "summary.json").read_text())
    assert summary["config_hash"] == config_hash(ws["cfg"])
    assert summary["layer1_frozen_in_phase2"] is True
    assert summary["gate_violations"] == 0
    assert 0.0 <= summary["train_accuracy"] <= 1.0
    assert 0.0 <= summary["test_accuracy"] <= 1.0
    assert summary["epochs_layer1"] == 2
    assert summary["epochs_layer2"] == 3
    assert not summary["converged_layer1"]
    assert not summary["converged_layer2"]


def test_train_metrics_stream(ws):
    lines = (ws["out1"] / "metrics.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"config_hash": config_hash(ws["cfg"]), "n_train": 18}
    rows = [json.loads(x) for x in lines[1:]]
    phases = {r["phase"] for r in rows}
    assert phases == {"layer1", "layer2"}
    # 2 epochs x 18 presentations, then 3 x 18
    assert sum(r["phase"] == "layer1" for r in rows) == 36
    assert sum(r["phase"] == "layer2" for r in rows) == 54
    l2 = [r for r in rows if r["phase"] == "layer2"]
    assert all("reward" in r and "verdict" in r for r in l2)


def test_train_rerun_byte_identical(ws, tmp_path):
    rc = main(["train", "--config", str(ws["cfg_path"]), "--out", str(tmp_path)])
    assert rc == ws["rc_train"]
    a = (ws["out1"] / "checkpoint_final.json").read_bytes()
    b = (tmp_path / "checkpoint_final.json").read_bytes()
    assert a == b
    sa = json.loads((ws["out1"] / "summary.json").read_text())
    sb = json.loads((tmp_path / "summary.json").read_text())
    assert sa == sb


def test_train_effective_config_roundtrip(ws):
    eff = load_config(ws["out1"] / "effective_config.json")
    assert config_hash(eff) == config_hash(ws["cfg"])
    assert eff.out_dir == str(ws["out1"])


def test_train_checkpoints_match_library_train(ws, tmp_path):
    # the command and the library share one training path: same bytes
    samples, _ = load_dataset(ws["train_ds"])
    layer1 = tmp_path / "layer1.json"
    res = train(ws["cfg"], samples, after_layer1=lambda net: save_checkpoint(layer1, net))
    save_checkpoint(tmp_path / "final.json", res.net)
    assert (tmp_path / "final.json").read_bytes() == (ws["out1"] / "checkpoint_final.json").read_bytes()
    assert layer1.read_bytes() == (ws["out1"] / "checkpoint_layer1.json").read_bytes()


def test_train_disable_and_override_land_in_effective_config(ws, tmp_path):
    rc = main(
        [
            "train",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--disable", "delay-learning",
            "--max-epochs", "1",
            "--set", "harness.kappa=0.2",
        ]
    )
    assert rc == 0  # nothing to converge when delay learning is off
    eff = load_config(tmp_path / "effective_config.json")
    assert "delay-learning" in eff.disabled
    assert eff.harness.kappa == 0.2
    assert eff.harness.max_epochs_l1 == 1
    assert eff.harness.max_epochs_l2 == 1


def test_train_seed_override_changes_hash(ws, tmp_path):
    rc = main(
        [
            "train",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--seed", "99",
            "--max-epochs", "1",
        ]
    )
    assert rc in (0, 4)
    sa = json.loads((ws["out1"] / "summary.json").read_text())
    sb = json.loads((tmp_path / "summary.json").read_text())
    assert sb["seed"] == 99
    assert sa["state_hash"] != sb["state_hash"]


def test_train_forced_nonconvergence_exits_4(ws, tmp_path):
    rc = main(
        [
            "train",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--max-epochs", "1",
            "--set", "harness.freeze_window=1000000",
        ]
    )
    assert rc == 4
    # partial results still land on disk
    assert (tmp_path / "checkpoint_final.json").exists()
    assert (tmp_path / "summary.json").exists()


def test_train_rejects_unknown_override(ws, tmp_path):
    rc = main(
        [
            "train",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--set", "harness.bogus_knob=1",
        ]
    )
    assert rc == 2


def test_train_rejects_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": 1, "not_a_field": True}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "section, name, via_set",
    [("harness", "shuffle", False), ("regulation", "gate_in_eval", False), ("harness", "shuffle", True)],
)
def test_train_rejects_retired_switch_turned_off(ws, tmp_path, capsys, section, name, via_set):
    data = to_dict(ws["cfg"])
    extra = []
    if via_set:
        extra = ["--set", f"{section}.{name}=false"]
    else:
        data[section][name] = False
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps(data))
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{section}.{name}" in err
    assert not (tmp_path / "out").exists()


def test_internal_delay_fault_is_not_an_input_error(ws, tmp_path, monkeypatch):
    """A delay outside [0, d_max] can only come from a bug, so it must not
    be reported as bad input (exit 2)."""

    def out_of_range(self, *args):
        raise DelayOutOfRange("delay 99 outside [0, 8]")

    monkeypatch.setattr(DelayBuffer, "schedule", out_of_range)
    with pytest.raises(DelayOutOfRange):
        main(["train", "--config", str(ws["cfg_path"]), "--out", str(tmp_path / "out"), "--max-epochs", "1"])


def test_train_missing_config_file(tmp_path):
    rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_train_missing_dataset_file(ws, tmp_path):
    cfg = dataclasses.replace(ws["cfg"], train_data=str(tmp_path / "gone.cspk"))
    cfg_path = tmp_path / "run.json"
    save_config(cfg, cfg_path)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_unknown_disable_choice_is_input_error(ws, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--disable", "gravity",
        ]
    )
    capsys.readouterr()
    assert rc == 2


def test_no_subcommand_is_input_error(capsys):
    rc = main([])
    capsys.readouterr()
    assert rc == 2


# -- eval ---------------------------------------------------------------------


def test_eval_report_and_outputs(ws, tmp_path, capsys):
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(ws["test_ds"]),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 9
    assert 0.0 <= report["accuracy"] <= 1.0
    assert len(report["confusion"]) == 3
    assert report["state_hash"] == report["state_hash_after"]
    on_disk = json.loads((tmp_path / "eval.json").read_text())
    assert on_disk == report


def test_eval_falls_back_to_config_test_data(ws, capsys):
    rc = main(["eval", "--checkpoint", str(ws["out1"] / "checkpoint_final.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"] == str(ws["test_ds"])


def test_eval_matching_config_accepted(ws, capsys):
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--config", str(ws["cfg_path"]),
        ]
    )
    capsys.readouterr()
    assert rc == 0


def test_eval_config_hash_mismatch_is_state_error(ws, tmp_path):
    other = dataclasses.replace(ws["cfg"], seed=123)
    other_path = tmp_path / "other.json"
    save_config(other, other_path)
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--config", str(other_path),
        ]
    )
    assert rc == 3


def test_eval_tampered_checkpoint_is_state_error(ws, tmp_path):
    payload = json.loads((ws["out1"] / "checkpoint_final.json").read_text())
    payload["arrays"]["wf"]["shape"] = [1, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--checkpoint", str(bad), "--data", str(ws["test_ds"])]) == 3


def _set_first(payload, name, value, every=False):
    """Set the first entry, or every entry, of checkpoint array ``name`` to ``value``."""
    spec = payload["arrays"][name]
    a = np.frombuffer(base64.b64decode(spec["data"]), dtype=spec["dtype"]).copy()
    a[slice(None) if every else 0] = value
    spec["data"] = base64.b64encode(a.tobytes()).decode("ascii")


def _set_config(payload, edit):
    """Edit the stored config and recompute its hash, so that only the
    config's content is wrong."""
    edit(payload["config"])
    payload["config_hash"] = hashlib.sha256(canonical_json(payload["config"]).encode()).hexdigest()


HOSTILE_CHECKPOINTS = {
    "missing arrays": lambda p: p.pop("arrays"),
    "missing rng": lambda p: p.pop("rng"),
    "missing input_shape": lambda p: p.pop("input_shape"),
    "missing frozen": lambda p: p["arrays"].pop("frozen"),
    "phase 5": lambda p: p.update(phase=5),
    "lat_tgt 999": lambda p: _set_first(p, "lat_tgt", 999),
    "lat_src -1": lambda p: _set_first(p, "lat_src", -1),
    "NaN in wf": lambda p: _set_first(p, "wf", float("nan")),
    "every conv_d -5": lambda p: _set_first(p, "conv_d", -5.0, every=True),
    "every df 1e9": lambda p: _set_first(p, "df", 1e9, every=True),
    "df above d_max": lambda p: _set_first(p, "df", p["config"]["plasticity"]["d_max"] + 0.5),
    "lat_d below its floor of 1": lambda p: _set_first(p, "lat_d", 0.5),
    "zeroed config_hash": lambda p: p.update(config_hash="0" * 64),
    "decision_window [99]": lambda p: p.update(decision_window=[99]),
    "config.lif 5": lambda p: _set_config(p, lambda c: c.update(lif=5)),
    "n_classes 1": lambda p: _set_config(p, lambda c: c["topology"].update(n_classes=1)),
    "input_shape [2, 2, 2] under a 3x3 kernel": lambda p: p.update(input_shape=[2, 2, 2]),
    "kernel [5]": lambda p: _set_config(p, lambda c: c["topology"].update(kernel=[5])),
    "kernel 5": lambda p: _set_config(p, lambda c: c["topology"].update(kernel=5)),
    "w_forward_init [0.2]": lambda p: _set_config(p, lambda c: c["topology"].update(w_forward_init=[0.2])),
    "decision_window of 37 in a window of 30": lambda p: p.update(decision_window=[0] * 37),
    "config key with a newline": lambda p: _set_config(p, lambda c: c["topology"].update({"a\nb": 1})),
    "frozen byte 2": lambda p: _set_first(p, "frozen", 2),
    "n_classes 10**30": lambda p: _set_config(p, lambda c: c["topology"].update(n_classes=10**30)),
}


@pytest.mark.parametrize("probe", list(HOSTILE_CHECKPOINTS))
def test_eval_rejects_hostile_checkpoint(ws, tmp_path, capsys, probe):
    payload = json.loads((ws["out1"] / "checkpoint_final.json").read_text())
    HOSTILE_CHECKPOINTS[probe](payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(ws["test_ds"])])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("field, array", [("n_maps", "conv_w"), ("n_per_class", "wf")])
def test_eval_rejects_hostile_checkpoint_size(ws, tmp_path, capsys, field, array):
    """A stored config asking for 10**12 maps or neurons per class is refused
    by the shape check of the first array it sizes, before anything of that
    size is allocated, in one error line naming the array."""
    payload = json.loads((ws["out1"] / "checkpoint_final.json").read_text())
    _set_config(payload, lambda c: c["topology"].update({field: 10**12}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(ws["test_ds"])])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and f"array {array} " in lines[0]


def _leaf_paths(node, path=()):
    """Key paths of the leaves of JSON object ``node``: its values that are
    not objects, lists included."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


_small_number = hst.integers(-3, 3) | hst.floats(-3, 3)
#: Small JSON values of each kind but a bare number, whose size could ask for
#: arbitrary memory (a ``d_max`` of 1e12 does).
OTHER_KINDS = hst.one_of(
    hst.text(max_size=3),
    hst.booleans(),
    hst.none(),
    hst.lists(_small_number, min_size=1, max_size=1),
    hst.lists(_small_number, min_size=3, max_size=3),
    hst.dictionaries(hst.text(max_size=2), _small_number, max_size=2),
)


def _eval_mutant(ws, text: bytes) -> None:
    """``eval`` of a checkpoint holding ``text`` ends in exit 3, or in 2 (the
    dataset is missing) when the checkpoint loads; it prints one ``error:``
    line, nothing on stdout, and raises nothing."""
    bad = ws["root"] / "mutant.json"
    bad.write_bytes(text)
    try:
        load_checkpoint(bad)
        loads = True
    except StateError:
        loads = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(ws["root"] / "no-such.cspk")])
    assert rc == (2 if loads else 3)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=hst.data())
def test_eval_fuzzed_config_leaf(ws, data):
    """One leaf of the stored config replaced by a small value of any JSON
    kind but a bare number, with ``config_hash`` recomputed to match."""
    payload = json.loads((ws["out1"] / "checkpoint_final.json").read_text())
    path = data.draw(hst.sampled_from(sorted(_leaf_paths(payload["config"]))))
    node = payload["config"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(OTHER_KINDS)
    payload["config_hash"] = hashlib.sha256(canonical_json(payload["config"]).encode()).hexdigest()
    _eval_mutant(ws, json.dumps(payload).encode())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=hst.data())
def test_eval_fuzzed_checkpoint_byte(ws, data):
    """One byte of the checkpoint file changed to any other byte."""
    text = bytearray((ws["out1"] / "checkpoint_final.json").read_bytes())
    i = data.draw(hst.integers(0, len(text) - 1))
    text[i] = data.draw(hst.integers(0, 255).filter(lambda b: b != text[i]))
    _eval_mutant(ws, bytes(text))


def test_eval_checkpoint_not_utf8_is_state_error(ws, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff"}')
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(ws["test_ds"])])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(lines) == 1 and lines[0].startswith("error:") and "bad.json" in lines[0]


def test_eval_missing_checkpoint(ws, tmp_path):
    rc = main(["eval", "--checkpoint", str(tmp_path / "nope.json"), "--data", str(ws["test_ds"])])
    assert rc == 2


def test_eval_missing_dataset(ws, tmp_path):
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(tmp_path / "gone.cspk"),
        ]
    )
    assert rc == 2


def _with_header(blob: bytes, edit=None, raw: bytes | None = None, tail: bytes = b"") -> bytes:
    """Dataset file ``blob`` with its JSON header changed by ``edit`` (or
    replaced by the bytes ``raw``) and ``tail`` appended."""
    (hlen,) = struct.unpack_from("<I", blob, 5)
    header = json.loads(blob[9 : 9 + hlen])
    if edit is not None:
        edit(header)
    new = raw if raw is not None else json.dumps(header).encode()
    return blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + hlen :] + tail


HOSTILE_DATASETS = {
    "no p": ("p", lambda h: h.pop("p"), None, b""),
    "p -1": ("p", lambda h: h.update(p=-1), None, b""),
    "h 0": ("h", lambda h: h.update(h=0), None, b""),
    "w 6.0": ("w", lambda h: h.update(w=6.0), None, b""),
    "t 0": ("samples[0].t", lambda h: h["samples"][0].update(t=0), None, b""),
    "t true": ("samples[1].t", lambda h: h["samples"][1].update(t=True), None, b""),
    "label x": ("samples[0].label", lambda h: h["samples"][0].update(label="x"), None, b""),
    "subject 1.5": ("samples[2].subject", lambda h: h["samples"][2].update(subject=1.5), None, b""),
    "no subject": ("samples[0].subject", lambda h: h["samples"][0].pop("subject"), None, b""),
    "bin width NaN": ("bin_width_ms", lambda h: h.update(bin_width_ms=float("nan")), None, b""),
    "bin width 0": ("bin_width_ms", lambda h: h.update(bin_width_ms=0), None, b""),
    "samples null": ("samples", lambda h: h.update(samples=None), None, b""),
    "header a list": ("JSON object", None, b"[1, 2]", b""),
    "header not UTF-8": ("UTF-8", None, b'{"p": "\xff"}', b""),
    "trailing bytes": ("trailing", None, None, b"\x00"),
}


@pytest.mark.parametrize("probe", list(HOSTILE_DATASETS))
def test_eval_rejects_hostile_dataset(ws, tmp_path, capsys, probe):
    field, edit, raw, tail = HOSTILE_DATASETS[probe]
    bad = tmp_path / "bad.cspk"
    bad.write_bytes(_with_header(ws["test_ds"].read_bytes(), edit, raw, tail))
    rc = main(["eval", "--checkpoint", str(ws["out1"] / "checkpoint_final.json"), "--data", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]


@pytest.mark.parametrize("hw", [(8, 8), (4, 4)])
def test_eval_rejects_dataset_of_another_frame_shape(ws, tmp_path, capsys, hw):
    data = tmp_path / "other.cspk"
    frames = np.zeros((5, 2) + hw, dtype=np.uint8)
    frames[1, 0, 1, 1] = 1
    save_dataset(data, [FrameSequence(frames, bin_width_ms=1.0, label=0)])
    rc = main(["eval", "--checkpoint", str(ws["out1"] / "checkpoint_final.json"), "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str((2,) + hw) in lines[0] and "(2, 6, 6)" in lines[0]


def test_eval_dump_spikes_csv(ws, tmp_path, capsys):
    csv_path = tmp_path / "spikes.csv"
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(ws["test_ds"]),
            "--dump-spikes", str(csv_path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "sample,layer,neuron,t_bin"
    # every spike of every sample's presentation, conv neurons as (m * Hc + y) * Wc + x
    net = load_checkpoint(ws["out1"] / "checkpoint_final.json")
    hc, wc = net.conv_hw
    want = []
    for i, s in enumerate(load_dataset(ws["test_ds"])[0]):
        rec = run_presentation(net, s.frames)
        for t, m, y, x in zip(*np.nonzero(rec.conv_spikes)):
            want.append(f"{i},conv,{(m * hc + y) * wc + x},{t}")
        want += [f"{i},pooled,{u},{t}" for t, u in zip(rec.pooled_t, rec.pooled_unit)]
        want += [f"{i},decision,{j},{t}" for t, j in zip(rec.decision_t, rec.decision_neuron)]
    assert {line.split(",")[1] for line in want} == {"conv", "pooled", "decision"}
    assert lines[1:] == want


def test_eval_limit_frames_curve(ws, tmp_path, capsys):
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(ws["test_ds"]),
            "--limit-frames", "4,12,24",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert [x for x, _ in report["curve"]] == [4, 12, 24]
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "limit_frames,accuracy"
    assert len(lines) == 4


def test_eval_single_limit(ws, capsys):
    rc = main(
        [
            "eval",
            "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(ws["test_ds"]),
            "--limit-frames", "6",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["limit_frames"] == 6
    assert "accuracy" in report


def test_eval_bad_limit_values(ws):
    ckpt = str(ws["out1"] / "checkpoint_final.json")
    data = str(ws["test_ds"])
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--limit-frames", "0"]) == 2
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--limit-frames", "abc"]) == 2


# -- ablate ---------------------------------------------------------------


def test_ablate_small_grid(ws, tmp_path, capsys):
    rc = main(
        [
            "ablate",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--max-epochs", "1",
            "--variants", "full,no-lateral,fixed-delays",
        ]
    )
    out_text = capsys.readouterr().out
    assert rc == 0
    lines = (tmp_path / "ablation_summary.csv").read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "variant"
    assert {x.split(",")[0] for x in lines[1:]} == {"full", "no-lateral", "fixed-delays"}
    rows = json.loads((tmp_path / "ablation_summary.json").read_text())
    by_name = {r["variant"]: r for r in rows}
    assert by_name["full"]["delta_test_pp"] == 0.0
    assert "delta_test_pp" in by_name["no-lateral"]
    assert "reference_delta_test_pp" in by_name["fixed-delays"]
    assert all("error" not in r for r in rows)
    # fixed delays have nothing to converge, so train would exit 0 for them
    assert by_name["fixed-delays"]["converged"] is True
    assert "full" in out_text
    for name in ("full", "no-lateral", "fixed-delays"):
        for file in ("checkpoint_final.json", "summary.json", "effective_config.json"):
            assert (tmp_path / name / file).exists(), (name, file)


def test_ablate_csv_keeps_a_failed_variants_message_in_one_field(ws, tmp_path, monkeypatch):
    real = cli._train_run

    def failing(cfg, train_samples, test_samples, out):
        if out.name == "no-lateral":
            raise ValueError("delay 5 outside [0, 3]")
        return real(cfg, train_samples, test_samples, out)

    monkeypatch.setattr(cli, "_train_run", failing)
    rc = main(
        [
            "ablate",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--max-epochs", "1",
            "--variants", "full,no-lateral",
        ]
    )
    assert rc == 1
    with open(tmp_path / "ablation_summary.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert [len(r) for r in rows] == [len(header)] * 2
    by_name = {r[0]: dict(zip(header, r)) for r in rows}
    assert by_name["no-lateral"]["error"] == "ValueError: delay 5 outside [0, 3]"
    assert by_name["full"]["error"] == ""


def test_ablate_unknown_variant(ws, tmp_path):
    rc = main(
        [
            "ablate",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--variants", "full,wrong-name",
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_ablate_rejects_non_finite_fixed_delay(ws, tmp_path, capsys, value):
    rc = main(
        [
            "ablate",
            "--config", str(ws["cfg_path"]),
            "--out", str(tmp_path),
            "--variants", "full,fixed-delays",
            "--set", f"fixed_delay_value={value}",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "fixed_delay_value" in lines[0]


@pytest.mark.parametrize(
    "override",
    [
        "plasticity.d_max=NaN", "lif.tau_m=0", "plasticity.tau_plus=NaN", "plasticity.sigma_minus=-1",
        'harness.max_epochs_l1="x"', "topology.n_maps=0", "lif.t_ref=-5", "plasticity.d_max=-3",
        "lif=5", "synthetic=5", 'disabled="homeo"',
        "topology.kernel=5", "topology.kernel=[5]", "topology.kernel=[5, 5, 5]", "topology.kernel=[-1, 5]",
        "topology.kernel=[0, 0]", "topology.pool=[2]", "topology.w_forward_init=[0.2]",
        'inh_rules_shared="false"', "train_data=5", "out_dir=5", "plasticity.w_inh_min=0.5",
        "harness.reward_clip=-1",
    ],
)
def test_train_rejects_bad_numbers(ws, tmp_path, capsys, override):
    rc = main(["train", "--config", str(ws["cfg_path"]), "--out", str(tmp_path / "t"), "--set", override])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and override.split("=")[0] in lines[0]
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "overrides",
    [("lif.theta_floor=5", "lif.theta_ceil=1"), ("regulation.r_min=9", "regulation.r_max=2")],
)
def test_train_rejects_crossed_range_ends(ws, tmp_path, capsys, overrides):
    """A range whose least end lies above its greatest is refused before
    anything runs, with one error line naming both fields."""
    argv = ["train", "--config", str(ws["cfg_path"]), "--out", str(tmp_path / "t")]
    rc = main(argv + [arg for o in overrides for arg in ("--set", o)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert all(o.split("=")[0] in lines[0] for o in overrides)
    assert not (tmp_path / "t").exists()


def test_reference_deltas_name_variants():
    assert set(REFERENCE_DELTAS_PP) <= set(VARIANTS)


def test_ablate_needs_test_data(ws, tmp_path):
    cfg = dataclasses.replace(ws["cfg"], test_data=None)
    cfg_path = tmp_path / "no_test.json"
    save_config(cfg, cfg_path)
    rc = main(
        [
            "ablate",
            "--config", str(cfg_path),
            "--out", str(tmp_path),
            "--variants", "full",
        ]
    )
    assert rc == 2


# -- input faults are named; anything else propagates --------------------------


def _recording(tmp_path, rows=((2, 0, 1_000_000),), header="class,startTime_usec,endTime_usec"):
    _write_recording(tmp_path, "user07_led", rows, [(1, 1, 1, 10_000, True)])
    if header != "class,startTime_usec,endTime_usec":
        csv_path = tmp_path / "user07_led_labels.csv"
        csv_path.write_text(csv_path.read_text().replace("class,startTime_usec,endTime_usec", header))
    return ["ingest", "--input", str(tmp_path), "--output", str(tmp_path / "x.cspk"), "--max-frames", "4"]


def _spec_file(tmp_path, ws, edit):
    spec = json.loads(ws["spec_path"].read_text())
    edit(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def _config_with_spec(tmp_path, ws, edit):
    cfg = json.loads(ws["cfg_path"].read_text())
    cfg["synthetic"] = json.loads(_spec_file(tmp_path, ws, edit).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["train", "--config", str(path), "--out", str(tmp_path / "t")]


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


def _bad_edge(spec):
    spec["embedded_delays"][0][0] = [[0, 1, 1], 3]


def _relabelled(tmp_path, ws, label):
    """The test set, its second sample relabelled ``label``, as labels.cspk."""
    samples, _ = load_dataset(ws["test_ds"])
    samples[1] = dataclasses.replace(samples[1], label=label)
    path = tmp_path / "labels.cspk"
    save_dataset(path, samples)
    return path


def _on_labels(tmp_path, ws, command, label):
    """``command`` on a config whose training set has one sample labelled ``label``."""
    cfg = json.loads(ws["cfg_path"].read_text())
    cfg["train_data"] = str(_relabelled(tmp_path, ws, label))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return [command, "--config", str(path), "--out", str(tmp_path / "t")]


def _eval_on_labels(tmp_path, ws, label):
    data = _relabelled(tmp_path, ws, label)
    return ["eval", "--checkpoint", str(ws["out1"] / "checkpoint_final.json"), "--data", str(data)]


def _on_test_set(tmp_path, ws, command, shape):
    """``command`` on a config whose test set, other.cspk, has frames of (P, H, W) ``shape``."""
    frames = np.zeros((5,) + shape, dtype=np.uint8)
    frames[1, 0, 1, 1] = 1
    save_dataset(tmp_path / "other.cspk", [FrameSequence(frames, bin_width_ms=1.0, label=0)])
    cfg = json.loads(ws["cfg_path"].read_text())
    cfg["test_data"] = str(tmp_path / "other.cspk")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "t")]
    return argv + ["--variants", "full"] if command == "ablate" else argv


# name: (argv built from tmp_path and ws, a text the error line must hold)
INPUT_PROBES = {
    "ingest --fps 0": (lambda tmp, ws: _recording(tmp) + ["--fps", "0"], "fps"),
    "ingest --fps inf": (lambda tmp, ws: _recording(tmp) + ["--fps", "inf"], "fps"),
    "ingest --max-frames 0": (lambda tmp, ws: _recording(tmp) + ["--max-frames", "0"], "max_frames"),
    "raw label 12": (lambda tmp, ws: _recording(tmp, rows=((12, 0, 1_000_000),)), "raw label 12"),
    "labels without class": (
        lambda tmp, ws: _recording(tmp, header="kind,startTime_usec,endTime_usec"), "user07_led_labels.csv"
    ),
    "class x": (
        lambda tmp, ws: _recording(tmp, rows=(("x", 0, 1_000_000),)), "user07_led_labels.csv"
    ),
    "--limit-frames abc": (
        lambda tmp, ws: [
            "eval", "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(ws["test_ds"]), "--limit-frames", "abc",
        ],
        "--limit-frames",
    ),
    "spec without grid": (
        lambda tmp, ws: [
            "ingest", "--synthetic", str(_spec_file(tmp, ws, lambda s: s.pop("grid"))),
            "--output", str(tmp / "x.cspk"),
        ],
        "grid",
    ),
    "spec edge [[p, y, x], lag]": (
        lambda tmp, ws: [
            "ingest", "--synthetic", str(_spec_file(tmp, ws, _bad_edge)), "--output", str(tmp / "x.cspk")
        ],
        "embedded_delays[0]",
    ),
    "config edge [[p, y, x], lag]": (lambda tmp, ws: _config_with_spec(tmp, ws, _bad_edge), "embedded_delays[0]"),
    "spec n_classes \"3\"": (
        lambda tmp, ws: [
            "ingest", "--synthetic", str(_spec_file(tmp, ws, lambda s: s.update(n_classes="3"))),
            "--output", str(tmp / "x.cspk"),
        ],
        "n_classes",
    ),
    "spec grid [-1, 3]": (
        lambda tmp, ws: [
            "ingest", "--synthetic", str(_spec_file(tmp, ws, lambda s: s.update(grid=[-1, 3]))),
            "--output", str(tmp / "x.cspk"),
        ],
        "synthetic.grid",
    ),
    "train label 7": (lambda tmp, ws: _on_labels(tmp, ws, "train", 7), "labels.cspk: sample 1 has label 7"),
    "train label -1": (lambda tmp, ws: _on_labels(tmp, ws, "train", -1), "labels.cspk: sample 1 has label -1"),
    "ablate label 7": (lambda tmp, ws: _on_labels(tmp, ws, "ablate", 7), "labels.cspk: sample 1 has label 7"),
    "eval label 7": (lambda tmp, ws: _eval_on_labels(tmp, ws, 7), "labels.cspk: sample 1 has label 7"),
    "eval label -1": (lambda tmp, ws: _eval_on_labels(tmp, ws, -1), "labels.cspk: sample 1 has label -1"),
    "train test set of another (H, W)": (
        lambda tmp, ws: _on_test_set(tmp, ws, "train", (2, 10, 10)), "other.cspk: sample 0 has frames"
    ),
    "train test set of another P": (
        lambda tmp, ws: _on_test_set(tmp, ws, "train", (1, 6, 6)), "other.cspk: sample 0 has frames"
    ),
    "ablate test set of another (H, W)": (
        lambda tmp, ws: _on_test_set(tmp, ws, "ablate", (2, 10, 10)), "other.cspk: sample 0 has frames"
    ),
    "3-class spec, 2 classes": (
        lambda tmp, ws: _config_with_spec(tmp, ws, lambda s: None) + ["--set", "topology.n_classes=2"],
        "synthetic spec: sample 12 has label 2",
    ),
    "train --out names a file": (
        lambda tmp, ws: ["train", "--config", str(ws["cfg_path"]), "--out", str(_write(tmp / "taken", b""))],
        "taken",
    ),
    "eval --out names a file": (
        lambda tmp, ws: [
            "eval", "--checkpoint", str(ws["out1"] / "checkpoint_final.json"),
            "--data", str(ws["test_ds"]), "--out", str(_write(tmp / "taken", b"")),
        ],
        "taken",
    ),
    "ablate --out names a file": (
        lambda tmp, ws: [
            "ablate", "--config", str(ws["cfg_path"]), "--out", str(_write(tmp / "taken", b"")),
            "--variants", "full",
        ],
        "taken",
    ),
    "config not UTF-8": (
        lambda tmp, ws: ["train", "--config", str(_write(tmp / "cfg.json", b"{\xff}")), "--out", str(tmp / "t")],
        "cfg.json",
    ),
    "spec not UTF-8": (
        lambda tmp, ws: [
            "ingest", "--synthetic", str(_write(tmp / "spec.json", b"{\xff}")), "--output", str(tmp / "x.cspk")
        ],
        "spec.json",
    ),
}


@pytest.mark.parametrize("probe", list(INPUT_PROBES))
def test_input_faults_exit_2_naming_field_or_file(ws, tmp_path, capsys, probe):
    argv, named = INPUT_PROBES[probe]
    rc = main(argv(tmp_path, ws))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]
    assert not (tmp_path / "x.cspk").exists()
    assert not (tmp_path / "t").exists()  # a refused train or ablate writes no --out directory


def test_internal_value_error_is_not_an_input_error(ws, tmp_path, monkeypatch):
    """A bare ValueError from inside training is a bug: it propagates as a
    traceback instead of reading as bad input (exit 2)."""

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("chronospike.cli.train", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["train", "--config", str(ws["cfg_path"]), "--out", str(tmp_path / "out")])
