"""Command-line surface: synthetic data generation, training, grid search,
experiments, baselines, and CSV exports.

Exit codes: 0 success, 1 validation/input error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import datasets, harness, models
from .datasets import SequenceParseError, ValidationError


def _given(args, cls):
    """The fields of dataclass ``cls`` set by flags (a missing flag sets none)."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _load_config(args) -> harness.TrainConfig:
    d = {}
    if getattr(args, "config", None):
        d.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
    d.update(_given(args, harness.TrainConfig))   # flags win over the config file
    return harness.TrainConfig.from_dict(d)


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_config_flags(p, include_model=True):
    p.add_argument("--config", help="JSON file of TrainConfig fields")
    if include_model:
        p.add_argument("--model", choices=models.KINDS + harness.BASELINE_MODELS)
    for f in fields(harness.TrainConfig):
        if f.name != "model":
            p.add_argument(_flag(f.name), type=type(f.default))


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


def _add_grid_flags(p):
    for f in fields(harness.GridSpec):
        p.add_argument(_flag(f.name), type=_int_list,
                       help=f"comma-separated grid of {f.name.replace('_', ' ')}")


def _grid_from_args(args):
    """The GridSpec the grid flags set, or None when none was given."""
    given = _given(args, harness.GridSpec)
    return harness.GridSpec(**given) if given else None


def cmd_gen_synthetic(args):
    # unset flags keep SyntheticConfig's defaults
    ds, gt = datasets.generate_synthetic(
        datasets.SyntheticConfig(**_given(args, datasets.SyntheticConfig)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datasets.save_sequences(ds, out / "synthetic.txt")
    datasets.write_ground_truth(gt, out)
    print(f"wrote {len(ds.sequences)} sequences to {out / 'synthetic.txt'}")


def cmd_train(args):
    cfg = _load_config(args)
    ds = datasets.load_sequences(args.data)
    params, log = harness.train(cfg, ds)
    models.save_checkpoint(params, args.out, seed=cfg.seed)
    print(f"final train loss {log[-1]:.4f}" if log else "no epochs run")
    print(f"checkpoint written to {args.out}")


def cmd_grid(args):
    cfg = _load_config(args)
    ds = datasets.load_sequences(args.data)
    train_ds, _ = datasets.split_train_test(ds, cfg.test_fraction, cfg.seed)
    grid = _grid_from_args(args) or harness.GridSpec()
    _, table = harness.grid_search(grid, cfg, train_ds)
    for row in table:
        print(f"{row['point']}  cv_loss={row['cv_loss']:.4f}  "
              f"params={row['num_params']}")
    print(f"best: {cfg.model} {harness.select_best(table)['point']}")


def cmd_experiment(args):
    cfg = _load_config(args)
    ds = datasets.load_sequences(args.data)
    grid = _grid_from_args(args)
    doc = harness.run_experiment(cfg, grid, ds)
    Path(args.report).write_text(harness.report_json(doc), encoding="utf-8")
    print(f"AUC {doc['mean']['auc']:.4f} +- {doc['std']['auc']:.4f}  "
          f"acc {doc['mean']['acc']:.4f}  loss {doc['mean']['loss']:.4f}")
    print(f"report written to {args.report}")


def cmd_baseline(args):
    """``experiment`` restricted to the classical baselines."""
    args.model = {"item": "item_analysis"}.get(args.model, args.model)
    cmd_experiment(args)


def _read_difficulty_csv(path):
    out = {}
    name = None
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            name = row["source"]
            out.setdefault(name, {})[int(row["question_id"])] = float(row["difficulty"])
    return out


def cmd_export_difficulty(args):
    params = models.load_checkpoint(args.ckpt)
    joins = {}
    for path in args.join or []:
        joins.update(_read_difficulty_csv(path))
    rows, pairs = harness.export_difficulty(params, joins)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["question_id", "source", "difficulty"])
        for q, source, value in rows:
            w.writerow([q, source, repr(value)])
    for (a, b), r in sorted(pairs.items()):
        print(f"pearson({a}, {b}) = {r:.4f}")
    print(f"difficulty table written to {args.out}")


def cmd_export_trajectory(args):
    params = models.load_checkpoint(args.ckpt)
    ds = datasets.load_sequences(args.data)
    match = [s for s in ds.sequences if s.student_id == args.student]
    if not match:
        raise ValidationError(f"student {args.student!r} not found in {args.data}")
    rows = harness.export_trajectory(params, match[0])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=["t", "q", "a", "theta", "beta", "p"])
        w.writeheader()
        w.writerows(rows)
    print(f"trajectory ({len(rows)} steps) written to {args.out}")


def build_parser():
    p = argparse.ArgumentParser(prog="deepkt",
                                description="Knowledge-tracing experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synthetic", help="regenerate the synthetic dataset")
    g.add_argument("--out", required=True)
    # each flag sets the SyntheticConfig field named by its dest
    g.add_argument("--students", dest="num_students", type=int)
    g.add_argument("--questions", dest="num_questions", type=int)
    g.add_argument("--concepts", dest="num_concepts", type=int)
    g.add_argument("--guess", dest="guess_c", type=float)
    g.add_argument("--ability-std", dest="ability_std", type=float)
    g.add_argument("--difficulty-std", dest="difficulty_std", type=float)
    g.add_argument("--seed", type=int)
    g.set_defaults(func=cmd_gen_synthetic)

    t = sub.add_parser("train", help="train one model and save a checkpoint")
    _add_config_flags(t)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    gr = sub.add_parser("grid", help="cross-validated grid search")
    _add_config_flags(gr)
    _add_grid_flags(gr)
    gr.add_argument("--data", required=True)
    gr.set_defaults(func=cmd_grid)

    e = sub.add_parser("experiment", help="split, search, retrain, evaluate")
    _add_config_flags(e)
    _add_grid_flags(e)
    e.add_argument("--data", required=True)
    e.add_argument("--report", required=True)
    e.set_defaults(func=cmd_experiment)

    b = sub.add_parser("baseline", help="evaluate a classical baseline")
    _add_config_flags(b, include_model=False)
    b.add_argument("--model", required=True, choices=["pfa", "lfa", "irt", "item"])
    b.add_argument("--data", required=True)
    b.add_argument("--report", required=True)
    b.set_defaults(func=cmd_baseline)

    d = sub.add_parser("export-difficulty", help="per-question difficulty CSV")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--join", action="append",
                   help="difficulty CSV from another source (repeatable)")
    d.set_defaults(func=cmd_export_difficulty)

    tr = sub.add_parser("export-trajectory", help="one student's per-step trace")
    tr.add_argument("--ckpt", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--student", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_export_trajectory)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, SequenceParseError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
