"""Command line entry points and the report files they write.

Four subcommands: ``ingest`` turns raw recordings or a synthetic generator
spec into the dataset files ``--output`` and ``--output-test``; ``train``
runs the two training phases and writes ``effective_config.json``,
``metrics.jsonl``, ``checkpoint_layer1.json``, ``checkpoint_final.json``,
``conv_weights.csv``, ``conv_delays.csv`` and ``summary.json``; ``eval``
scores a checkpoint on a dataset and writes ``eval.json`` and, for several
``--limit-frames``, ``curve.csv`` to ``--out``, and the ``--dump-spikes``
CSV; ``ablate`` trains a grid of mechanism-removal variants, each like
``train`` into ``<out>/<variant>``, and tabulates the accuracy drops in
``ablation_summary.json`` and ``ablation_summary.csv``. A run's
``gate_violations`` counts the phase-2 presentations in which some class
group had more than ``dc_upper`` distinct neurons fire, counted from the
spikes. One writer,
:func:`_write_csv`, writes every CSV file; it quotes a field only where the
field holds a separator or a quote.

Exit codes: 0 success, 1 an internal fault (a traceback) or an ``ablate``
variant raised (the other variants and the table are still written), 2
input problem (missing or malformed files, bad config keys or values, or a
sample set that the one check, :func:`~chronospike.harness.check_samples`,
refuses: an empty set, frames of another (P, H, W) than the network takes,
which for ``eval`` is the checkpoint's and for ``train`` and ``ablate`` the
training set's, test set included, or a label outside the classes), 3 state
mismatch (checkpoint format, version, stored config or config hash
conflicts), 4 training finished without delay convergence (all results are
still written). Input faults are the named errors of ``_INPUT_ERRORS``:
``ConfigError`` (a config, override or spec field), ``InvalidSpec`` (a
synthetic spec's edges), ``DatasetFormatError``, ``DecodeError``,
``IngestError`` and ``UnknownSubject`` (datasets and recordings), and the
file-system errors of a missing or misplaced path, ``FileExistsError`` (an
``--out`` that names a file) among them. Any other exception, a bare
``ValueError`` included, is a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    DISABLE_CHOICES,
    VARIANTS,
    ConfigError,
    RunConfig,
    SyntheticSpec,
    apply_overrides,
    apply_variant,
    config_hash,
    load_config,
    save_config,
    with_disabled,
)
from .events import (
    DatasetFormatError,
    DecodeError,
    IngestError,
    UnknownSubject,
    load_dataset,
    read_gesture_dir,
    save_dataset,
    split_dataset,
)
from .harness import TrainResult, check_samples, evaluate, frames_sweep, train
from .synthetic import InvalidSpec, gen_synthetic, oracle_accuracy
from .topology import StateError, load_checkpoint, save_checkpoint, state_hash

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STATE = 3
EXIT_NO_CONVERGENCE = 4

_INPUT_ERRORS = (
    ConfigError,
    InvalidSpec,
    DatasetFormatError,
    DecodeError,
    IngestError,
    UnknownSubject,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    FileExistsError,
)

# Accuracy drops (train pp, test pp) reported by the reference experiments on
# the gesture benchmark. Shown next to measured drops for orientation only;
# nothing asserts against them.
REFERENCE_DELTAS_PP: dict[str, tuple[float, float]] = {
    "no-interval-homeostasis": (0.5, 2.1),
    "no-threshold-adaptation": (1.45, 3.16),
    "shared-inhibitory-rules": (1.98, 1.58),
    "no-decision-homeostasis": (2.50, 3.68),
    "no-lateral": (1.53, 1.58),
    "fixed-delays": (1.85, 3.15),
    "random-frozen-delays": (3.3, 3.68),
    "no-decentralization": (4.88, 7.39),
}

# The summary.json fields an ablation row copies, and the ablation CSV's columns.
ABLATION_FIELDS = ("train_accuracy", "test_accuracy", "gate_violations", "epochs_layer1", "epochs_layer2")
ABLATION_CSV_COLUMNS = (
    "variant", "train_accuracy", "test_accuracy", "delta_train_pp", "delta_test_pp",
    "reference_delta_train_pp", "reference_delta_test_pp", "converged", "gate_violations", "error",
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV: ``str`` of each
    field (``repr`` for a float), ``None`` as an empty field, and quotes only
    around a field that holds a separator or a quote."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_data(cfg: RunConfig):
    """Training and test samples from whichever source the config names,
    each set checked by :func:`check_samples`: the test set against the
    training set's frame shape, before any training starts."""
    n = cfg.topology.n_classes
    if cfg.synthetic is not None:
        train_src = test_src = "synthetic spec"
        train_s = gen_synthetic(cfg.synthetic, cfg.synthetic_train_per_class, seed_offset=0)
        test_s = gen_synthetic(cfg.synthetic, cfg.synthetic_test_per_class, seed_offset=1)
    elif cfg.train_data is None:
        raise ConfigError("config names neither a synthetic spec nor train_data")
    else:
        train_src, test_src = cfg.train_data, cfg.test_data
        train_s = load_dataset(train_src)[0]
        test_s = None if test_src is None else load_dataset(test_src)[0]
    check_samples(train_s, None, n, train_src)
    if test_s is not None:
        check_samples(test_s, train_s[0].frames.shape[1:], n, test_src)
    return train_s, test_s


def _with_cli_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    cfg = with_disabled(cfg, *getattr(args, "disable", ()))
    if getattr(args, "set", None):
        cfg = apply_overrides(cfg, args.set)
    if getattr(args, "max_epochs", None) is not None:
        cfg = apply_overrides(
            cfg,
            [
                f"harness.max_epochs_l1={args.max_epochs}",
                f"harness.max_epochs_l2={args.max_epochs}",
            ],
        )
    return cfg


def _class_histogram(samples) -> dict[str, int]:
    hist: dict[str, int] = {}
    for s in samples:
        hist[str(s.label)] = hist.get(str(s.label), 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0])))


# -- ingest -------------------------------------------------------------------


def cmd_ingest(args) -> int:
    if bool(args.input) == bool(args.synthetic):
        return _fail("exactly one of --input and --synthetic is required", EXIT_INPUT)
    report: dict = {}
    if args.synthetic:
        try:
            spec = SyntheticSpec.from_dict(json.loads(Path(args.synthetic).read_text()))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            return _fail(f"spec file {args.synthetic} is not valid UTF-8 JSON: {e}", EXIT_INPUT)
        train_s = gen_synthetic(spec, args.train_per_class, seed_offset=0)
        save_dataset(args.output, train_s, meta={"source": "synthetic"})
        report.update(
            {
                "output": str(args.output),
                "train_samples": len(train_s),
                "train_per_class": _class_histogram(train_s),
                "oracle_train_accuracy": float(oracle_accuracy(spec, train_s)),
            }
        )
        if args.output_test:
            test_s = gen_synthetic(spec, args.test_per_class, seed_offset=1)
            save_dataset(args.output_test, test_s, meta={"source": "synthetic", "split": "test"})
            report["output_test"] = str(args.output_test)
            report["test_samples"] = len(test_s)
            report["oracle_test_accuracy"] = float(oracle_accuracy(spec, test_s))
    else:
        root = Path(args.input)
        if not root.is_dir():
            return _fail(f"input directory not found: {root}", EXIT_INPUT)
        samples = read_gesture_dir(root, args.fps, args.max_frames)
        train_s, test_s = split_dataset(samples)
        save_dataset(args.output, train_s, meta={"source": str(root), "split": "train"})
        report.update(
            {
                "output": str(args.output),
                "recordings": len(samples),
                "train_samples": len(train_s),
                "test_samples": len(test_s),
                "train_per_class": _class_histogram(train_s),
                "test_per_class": _class_histogram(test_s),
            }
        )
        if args.output_test:
            save_dataset(args.output_test, test_s, meta={"source": str(root), "split": "test"})
            report["output_test"] = str(args.output_test)
        else:
            report["note"] = "test split not written (no --output-test)"
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# -- train --------------------------------------------------------------------


def _converged(cfg: RunConfig, res: TrainResult) -> bool:
    """False when delay learning is on and a phase that ran did not freeze
    every unit's delays: the condition for exit code 4."""
    if not cfg.delay_learning_on:
        return True
    return (res.converged_l1 or res.epochs_l1 == 0) and (res.converged_l2 or res.epochs_l2 == 0)


def _train_run(cfg: RunConfig, train_samples, test_samples, out: Path) -> tuple[dict, bool]:
    """Train ``cfg`` and write the run's files to ``out``.

    The files are ``effective_config.json`` (with ``out_dir`` set to
    ``out``), ``metrics.jsonl``, ``checkpoint_layer1.json``,
    ``checkpoint_final.json``, the conv kernel CSVs and ``summary.json``.
    Returns the summary and whether the delays converged.
    """
    out.mkdir(parents=True, exist_ok=True)
    save_config(dataclasses.replace(cfg, out_dir=str(out)), out / "effective_config.json")
    ch = config_hash(cfg)
    with open(out / "metrics.jsonl", "w") as mf:
        mf.write(json.dumps({"config_hash": ch, "n_train": len(train_samples)}, sort_keys=True) + "\n")

        def write_row(row: dict) -> None:
            mf.write(json.dumps(row, sort_keys=True) + "\n")

        res = train(
            cfg,
            train_samples,
            metrics=write_row,
            after_layer1=lambda net: save_checkpoint(out / "checkpoint_layer1.json", net),
        )
    net = res.net
    save_checkpoint(out / "checkpoint_final.json", net)
    for name, arr in (("weights", net.conv_w), ("delays", net.conv_d)):
        cells = zip(np.ndindex(arr.shape), arr.ravel().tolist())  # one row per kernel cell
        _write_csv(out / f"conv_{name}.csv", ("map", "polarity", "ky", "kx", "value"), ((*i, v) for i, v in cells))

    train_eval = evaluate(net, train_samples)
    summary = {
        "config_hash": ch,
        "seed": cfg.seed,
        "epochs_layer1": res.epochs_l1,
        "epochs_layer2": res.epochs_l2,
        "converged_layer1": res.converged_l1,
        "converged_layer2": res.converged_l2,
        "presentations": res.presentations,
        "gate_violations": res.gate_violations,
        "layer1_frozen_in_phase2": res.layer1_hash_after_phase1 == res.layer1_hash_final,
        "train_accuracy": train_eval.accuracy,
        "train_abstained": int(train_eval.abstained.sum()),
        "state_hash": state_hash(net),
    }
    if test_samples:
        test_eval = evaluate(net, test_samples)
        summary["test_accuracy"] = test_eval.accuracy
        summary["test_abstained"] = int(test_eval.abstained.sum())
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary, _converged(cfg, res)


def cmd_train(args) -> int:
    cfg = _with_cli_overrides(load_config(args.config), args)
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    train_samples, test_samples = _load_data(cfg)
    summary, converged = _train_run(cfg, train_samples, test_samples, out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


# -- eval ---------------------------------------------------------------------


def _parse_limits(text: str | None):
    if text is None:
        return None
    try:
        limits = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        limits = []
    if not limits or any(x <= 0 for x in limits):
        raise ConfigError(f"bad --limit-frames value: {text!r}")
    return limits


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        return _fail(f"checkpoint not found: {ckpt}", EXIT_INPUT)
    net = load_checkpoint(ckpt)
    if args.config:
        other = load_config(args.config)
        if config_hash(other) != config_hash(net.cfg):
            return _fail(
                "config hash mismatch: --config does not describe the checkpointed network",
                EXIT_STATE,
            )
    data_path = args.data or net.cfg.test_data
    if not data_path:
        return _fail("no evaluation data: pass --data or set test_data in the config", EXIT_INPUT)
    if not Path(data_path).exists():
        return _fail(f"dataset not found: {data_path}", EXIT_INPUT)
    samples, _meta = load_dataset(data_path)
    check_samples(samples, net.input_shape, net.n_classes, data_path)

    limits = _parse_limits(args.limit_frames)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    hash_before = state_hash(net)
    report: dict = {
        "checkpoint": str(ckpt),
        "data": str(data_path),
        "n": len(samples),
        "state_hash": hash_before,
    }
    rows = [] if args.dump_spikes else None
    if limits is not None and len(limits) > 1:
        curve = frames_sweep(net, samples, limits)
        report["curve"] = [[x, acc] for x, acc in curve]
        if out_dir:
            _write_csv(out_dir / "curve.csv", ("limit_frames", "accuracy"), curve)
            report["curve_csv"] = str(out_dir / "curve.csv")
        if rows is not None:
            # a curve's spikes are those of the whole stimulus
            evaluate(net, samples, spike_rows=rows)
    else:
        limit = limits[0] if limits else None
        res = evaluate(net, samples, limit_frames=limit, spike_rows=rows)
        report.update(
            {
                "accuracy": res.accuracy,
                "correct": res.correct,
                "abstained": res.abstained.tolist(),
                "confusion": res.confusion.tolist(),
                "decision_totals": res.decision_totals.tolist(),
            }
        )
        if limit is not None:
            report["limit_frames"] = limit
    if rows is not None:
        _write_csv(args.dump_spikes, ("sample", "layer", "neuron", "t_bin"), rows)
        report["spikes_csv"] = str(args.dump_spikes)
    report["state_hash_after"] = state_hash(net)
    if out_dir:
        (out_dir / "eval.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# -- ablate ---------------------------------------------------------------


def cmd_ablate(args) -> int:
    base = _with_cli_overrides(load_config(args.config), args)
    names = tuple(x.strip() for x in args.variants.split(",")) if args.variants else tuple(VARIANTS)
    unknown = [n for n in names if n not in VARIANTS]
    if unknown:
        return _fail(
            f"unknown variant(s): {', '.join(unknown)} "
            f"(choices: {', '.join(sorted(VARIANTS))})",
            EXIT_INPUT,
        )
    train_samples, test_samples = _load_data(base)
    if test_samples is None:
        return _fail("ablation needs a test set (synthetic config or test_data)", EXIT_INPUT)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for name in names:
        row = {"variant": name}
        try:
            summary, row["converged"] = _train_run(apply_variant(base, name), train_samples, test_samples, out / name)
            row.update((k, summary[k]) for k in ABLATION_FIELDS)
        except Exception as exc:  # keep the grid going; report the failure
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    full = next((r for r in rows if r["variant"] == "full" and "error" not in r), None)
    for row in rows:
        if "error" not in row and full is not None:
            row["delta_train_pp"] = 100.0 * (full["train_accuracy"] - row["train_accuracy"])
            row["delta_test_pp"] = 100.0 * (full["test_accuracy"] - row["test_accuracy"])
        ref = REFERENCE_DELTAS_PP.get(row["variant"])
        if ref is not None:
            row["reference_delta_train_pp"], row["reference_delta_test_pp"] = ref

    table = ([row.get(c) for c in ABLATION_CSV_COLUMNS] for row in rows)
    _write_csv(out / "ablation_summary.csv", ABLATION_CSV_COLUMNS, table)
    (out / "ablation_summary.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")

    width = max(len(n) for n in names)
    print(f"{'variant':<{width}}  {'train':>7}  {'test':>7}  {'d_test':>7}  {'ref':>6}  {'viol':>6}")
    for row in rows:
        name = row["variant"]
        if "error" in row:
            print(f"{name:<{width}}  failed: {row['error']}")
            continue
        d, ref = (f"{row[k]:.2f}" if k in row else "" for k in ("delta_test_pp", "reference_delta_test_pp"))
        acc = f"{row['train_accuracy']:>7.3f}  {row['test_accuracy']:>7.3f}"
        print(f"{name:<{width}}  {acc}  {d:>7}  {ref:>6}  {row['gate_violations']:>6}")
    return 1 if any("error" in row for row in rows) else EXIT_OK


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chronospike",
        description="Spiking network with learned synaptic delays for event-based action recognition.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ingest", help="convert recordings or a synthetic spec into dataset files")
    g.add_argument("--input", help="directory of .aedat recordings with *_labels.csv files")
    g.add_argument("--synthetic", help="JSON file with a synthetic generator spec")
    g.add_argument("--output", required=True, help="training dataset file to write")
    g.add_argument("--output-test", help="test dataset file to write")
    g.add_argument("--fps", type=float, default=33.0, help="frame rate for event binning")
    g.add_argument("--max-frames", type=int, default=200, help="frames kept per recording")
    g.add_argument("--train-per-class", type=int, default=50, help="synthetic: train samples per class")
    g.add_argument("--test-per-class", type=int, default=20, help="synthetic: test samples per class")
    g.set_defaults(func=cmd_ingest)

    t = sub.add_parser("train", help="run both training phases and write checkpoints")
    t.add_argument("--config", required=True, help="run config JSON")
    t.add_argument("--out", help="output directory (default: out_dir from the config)")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--max-epochs", type=int, help="cap both phases at this many epochs")
    t.add_argument(
        "--disable",
        action="append",
        choices=list(DISABLE_CHOICES),
        default=[],
        help="turn a mechanism off (repeatable)",
    )
    t.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry, value parsed as JSON (repeatable)",
    )
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", help="dataset file (default: test_data from the checkpointed config)")
    e.add_argument("--config", help="config JSON that must match the checkpoint")
    e.add_argument(
        "--limit-frames",
        help="only show the first N frames; a comma list evaluates each limit and writes a curve",
    )
    e.add_argument("--dump-spikes", help="CSV path for per-sample spike times")
    e.add_argument("--out", help="directory for eval.json and curve.csv")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="train mechanism-removal variants and tabulate drops")
    a.add_argument("--config", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--seed", type=int)
    a.add_argument("--max-epochs", type=int)
    a.add_argument("--variants", help=f"comma list (default: {','.join(VARIANTS)})")
    a.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    a.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except StateError as exc:
        return _fail(str(exc), EXIT_STATE)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
