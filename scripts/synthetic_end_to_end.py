#!/usr/bin/env python3
"""Full synthetic pipeline: generate, train, evaluate, ablate, sweep frames.

Writes everything under --out (default runs/synthetic): dataset files, the
trained checkpoint with metrics, an evaluation report, the ablation table,
and the accuracy-versus-frames curves of the ablation's full and
no-lateral checkpoints side by side in <out>/sweep.csv (the eval reports
behind them go to <out>/sweep/). Pass --quick for a small-epoch smoke
version of the same flow, which ablates only those two variants and
no-decentralization, whose activity gate is capped at the layer size;
--skip-ablate skips the ablation and the sweep.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from chronospike.cli import main as cli
from chronospike.config import save_config
from chronospike.presets import moving_bars_acceptance_config

# frame limits of the accuracy-versus-frames sweep
SWEEP_LIMITS = (5, 10, 15, 20, 25, 30, 40, 50)


def sweep(out: Path, test_ds: Path) -> int:
    """Evaluate the ablation's full and no-lateral checkpoints at every frame
    limit and write the two curves side by side to <out>/sweep.csv."""
    curves = {}
    for name, variant in (("full", "full"), ("no_lateral", "no-lateral")):
        eval_dir = out / "sweep" / name
        rc = cli(
            [
                "eval",
                "--checkpoint", str(out / "ablate" / variant / "checkpoint_final.json"),
                "--data", str(test_ds),
                "--limit-frames", ",".join(map(str, SWEEP_LIMITS)),
                "--out", str(eval_dir),
            ]
        )
        if rc != 0:
            return rc
        report = json.loads((eval_dir / "eval.json").read_text())
        curves[name] = dict(report["curve"])

    with open(out / "sweep.csv", "w") as f:
        f.write("limit_frames,full,no_lateral\n")
        for x in SWEEP_LIMITS:
            f.write(f"{x},{curves['full'][x]!r},{curves['no_lateral'][x]!r}\n")
    print(f"wrote {out / 'sweep.csv'}")
    for x in SWEEP_LIMITS:
        print(f"{x:4d}  full={curves['full'][x]:.3f}  no_lateral={curves['no_lateral'][x]:.3f}")
    return 0


def run(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/synthetic")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="2-epoch smoke run")
    ap.add_argument("--skip-ablate", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = moving_bars_acceptance_config(seed=args.seed)
    if args.quick:
        cfg = dataclasses.replace(
            cfg,
            harness=dataclasses.replace(cfg.harness, max_epochs_l1=2, max_epochs_l2=2),
        )

    spec_path = out / "generator_spec.json"
    spec_path.write_text(json.dumps(dataclasses.asdict(cfg.synthetic), indent=2) + "\n")
    train_ds = out / "train.cspk"
    test_ds = out / "test.cspk"
    rc = cli(
        [
            "ingest",
            "--synthetic", str(spec_path),
            "--output", str(train_ds),
            "--output-test", str(test_ds),
            "--train-per-class", str(cfg.synthetic_train_per_class),
            "--test-per-class", str(cfg.synthetic_test_per_class),
        ]
    )
    if rc != 0:
        return rc

    cfg = dataclasses.replace(
        cfg, synthetic=None, train_data=str(train_ds), test_data=str(test_ds)
    )
    cfg_path = out / "run_config.json"
    save_config(cfg, cfg_path)

    rc = cli(["train", "--config", str(cfg_path), "--out", str(out / "train")])
    if rc not in (0, 4):
        return rc

    rc_eval = cli(
        [
            "eval",
            "--checkpoint", str(out / "train" / "checkpoint_final.json"),
            "--data", str(test_ds),
            "--out", str(out / "eval"),
        ]
    )
    if rc_eval != 0:
        return rc_eval

    if not args.skip_ablate:
        ablate_args = ["ablate", "--config", str(cfg_path), "--out", str(out / "ablate")]
        if args.quick:
            ablate_args += ["--max-epochs", "2", "--variants", "full,no-lateral,no-decentralization"]
        rc_abl = cli(ablate_args)
        if rc_abl != 0:
            return rc_abl
        rc_sweep = sweep(out, test_ds)
        if rc_sweep != 0:
            return rc_sweep
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
