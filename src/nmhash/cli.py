"""Command-line interface.

Subcommands: gen-data, train, evaluate, ablate, profile, export-curves.
Training options can come from a flat key=value config file (--config);
explicit flags always win over file values, which win over defaults.
Errors exit nonzero with a single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from .data import generate_synthetic, load_features, save_features
from .errors import ConfigError, NmhashError
from .metrics import (mean_average_precision, pr_curve,
                      precision_at_hamming_radius, precision_at_top_n)
from .network import SgdConfig
from .training import (ExperimentConfig, RunReport, TrainingRun, VARIANTS,
                       VARIANT_BASELINE, VARIANT_DROPOUT, VARIANT_FULL,
                       leave_one_out, load_checkpoint, save_checkpoint)

_DEFAULT_TOP_N = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


def _parse_hidden_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"hidden_dims must be comma-separated ints, got {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated ints, got {text!r}") from None


_CONFIG_PARSERS = {
    "b_in": int, "b_out": int, "m": int,
    "n0_epochs": int, "n1_epochs": int, "base_epochs": int,
    "batch_size": int, "learning_rate": float, "weight_decay": float,
    "nm_learning_rate": float, "eta": float, "seed": int, "variant": str,
    "dropout_rate": float, "hidden_dims": _parse_hidden_dims,
    "n_validation": int, "n_query": int, "score_every": int,
}

_CONFIG_ALIASES = {"n0": "n0_epochs", "n1": "n1_epochs",
                   "lr": "learning_rate", "nm_lr": "nm_learning_rate"}


def read_config_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(
                    f"config file line {lineno}: expected key=value, got {text!r}"
                )
            key, _, raw = text.partition("=")
            key = key.strip().replace("-", "_")
            key = _CONFIG_ALIASES.get(key, key)
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"config file line {lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](raw.strip())
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(
                    f"config file line {lineno}: bad value for {key!r}: {raw.strip()!r}"
                ) from None
    return values


def _add_training_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--b-in", type=int, dest="b_in")
    p.add_argument("--b-out", type=int, dest="b_out")
    p.add_argument("--m", type=int)
    p.add_argument("--n0", type=int, dest="n0_epochs")
    p.add_argument("--n1", type=int, dest="n1_epochs")
    p.add_argument("--base-epochs", type=int, dest="base_epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--nm-lr", type=float, dest="nm_learning_rate")
    p.add_argument("--eta", type=float)
    p.add_argument("--dropout-rate", type=float, dest="dropout_rate")
    p.add_argument("--hidden-dims", dest="hidden_dims",
                   help="comma-separated hidden layer sizes, e.g. 256 or 128,64")
    p.add_argument("--n-validation", type=int, dest="n_validation")
    p.add_argument("--n-query", type=int, dest="n_query")
    p.add_argument("--score-every", type=int, dest="score_every")
    p.add_argument("--seed", type=int)


def build_experiment_config(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    for key in _CONFIG_PARSERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            if key == "hidden_dims":
                flag_value = _parse_hidden_dims(flag_value)
            values[key] = flag_value
    lr = values.pop("learning_rate", None)
    wd = values.pop("weight_decay", None)
    sgd = SgdConfig(
        learning_rate=lr if lr is not None else SgdConfig().learning_rate,
        weight_decay=wd if wd is not None else SgdConfig().weight_decay,
    )
    return ExperimentConfig(backbone_sgd=sgd, **values)


def cmd_gen_data(args) -> int:
    ds = generate_synthetic(args.classes, args.dim, args.per_class,
                            args.noise, args.seed)
    save_features(ds, args.out)
    print(f"wrote {ds.n_items} items ({args.classes} classes x "
          f"{args.per_class}, dim {args.dim}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = build_experiment_config(args)
    ds = load_features(args.data)
    run = TrainingRun(cfg, ds).run()
    report = run.report()
    if args.out_checkpoint:
        save_checkpoint(run.to_checkpoint(), args.out_checkpoint)
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    print(f"variant={cfg.variant} final_map={report.final['map']:.6f} "
          f"effective_bits={report.final['effective_bits']}")
    return 0


def _run_from_checkpoint(checkpoint_path, data_path) -> TrainingRun:
    ckpt = load_checkpoint(checkpoint_path)
    ds = load_features(data_path)
    return TrainingRun.from_checkpoint(ckpt, ds)


def cmd_evaluate(args) -> int:
    run = _run_from_checkpoint(args.checkpoint, args.data)
    q, q_labels = run.codes("query")
    g, g_labels = run.codes("gallery")
    if args.top_r is not None and not 1 <= args.top_r <= g.shape[0]:
        raise ConfigError(
            f"--top-r must be in [1, {g.shape[0]}], got {args.top_r}"
        )
    if args.top_n is not None:
        n_values = _parse_int_list(args.top_n)
        for n in n_values:
            if not 1 <= n <= g.shape[0]:
                raise ConfigError(
                    f"--top-n value {n} outside gallery size {g.shape[0]}"
                )
    else:
        n_values = [n for n in _DEFAULT_TOP_N if n <= g.shape[0]]
    metrics = {
        "schema_version": 1,
        "effective_bits": int(q.shape[1]),
        "map": mean_average_precision(q, q_labels, g, g_labels,
                                      top_r=args.top_r),
        "top_r": args.top_r,
        "precision_at_radius": {
            "radius": args.radius,
            "value": precision_at_hamming_radius(q, q_labels, g, g_labels,
                                                 radius=args.radius),
        },
        "precision_at_top_n": {
            "n": n_values,
            "value": precision_at_top_n(q, q_labels, g, g_labels, n_values),
        },
    }
    text = json.dumps(metrics, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    return 0


def cmd_profile(args) -> int:
    run = _run_from_checkpoint(args.checkpoint, args.data)
    p, std = leave_one_out(*run.codes("query"), *run.codes("gallery"))
    out = {"schema_version": 1,
           "map_without_bit": [float(v) for v in p],
           "std": std}
    text = json.dumps(out, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    return 0


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def cmd_export_curves(args) -> int:
    run = _run_from_checkpoint(args.checkpoint, args.data)
    with open(args.report, "r", encoding="utf-8") as fh:
        report = RunReport.from_json(fh.read())
    q, q_labels = run.codes("query")
    g, g_labels = run.codes("gallery")
    os.makedirs(args.out_dir, exist_ok=True)

    points = pr_curve(q, q_labels, g, g_labels)
    _write_csv(os.path.join(args.out_dir, "pr_curve.csv"),
               "threshold,precision,recall",
               [(p.threshold, p.precision, p.recall) for p in points])

    n_values = [n for n in _DEFAULT_TOP_N if n <= g.shape[0]]
    precs = precision_at_top_n(q, q_labels, g, g_labels, n_values)
    _write_csv(os.path.join(args.out_dir, "topn.csv"), "n,precision",
               list(zip(n_values, precs)))

    _write_csv(os.path.join(args.out_dir, "bit_reduction.csv"),
               "effective_bits,map",
               [(int(b), float(v)) for b, v in report.bit_trace])

    try:
        p, _ = leave_one_out(q, q_labels, g, g_labels)
        loo_rows = [(bit, float(v)) for bit, v in enumerate(p)]
    except ConfigError:  # a 1-bit code has no profile
        loo_rows = []
    _write_csv(os.path.join(args.out_dir, "loo_profile.csv"),
               "bit,map_without_bit", loo_rows)

    print(f"wrote pr_curve.csv, topn.csv, bit_reduction.csv, "
          f"loo_profile.csv to {args.out_dir}")
    return 0


def _matched_epoch_config(base: ExperimentConfig, variant: str,
                          seed: int) -> ExperimentConfig:
    """Per-variant config with epoch budgets matched to the full schedule."""
    d = base.to_dict()
    d["variant"] = variant
    d["seed"] = seed
    rounds = base.planned_merge_rounds()
    if variant in (VARIANT_BASELINE, VARIANT_DROPOUT):
        d["base_epochs"] = base.base_epochs + rounds * (base.n0_epochs +
                                                        base.n1_epochs)
    if variant == VARIANT_BASELINE:
        d["b_in"] = base.b_out
    return ExperimentConfig.from_dict(d)


def cmd_ablate(args) -> int:
    cfg = build_experiment_config(args)
    ds = load_features(args.data)
    seeds = _parse_int_list(args.seeds)
    if not seeds:
        raise ConfigError("--seeds must list at least one seed")
    if args.variants:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        for v in variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r} in --variants")
    else:
        variants = list(VARIANTS)
    if VARIANT_FULL in variants:  # full leads the table
        variants = [VARIANT_FULL] + [v for v in variants if v != VARIANT_FULL]
    rows = []
    for variant in variants:
        maps = []
        for seed in seeds:
            vcfg = _matched_epoch_config(cfg, variant, seed)
            report = TrainingRun(vcfg, ds).run().report()
            maps.append(report.final["map"])
        rows.append({"variant": variant,
                     "median_map": float(statistics.median(maps)),
                     "maps": [float(v) for v in maps]})
    table = {"schema_version": 1, "seeds": seeds, "rows": rows}
    text = json.dumps(table, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.write("\n")
    for row in rows:
        print(f"{row['variant']:<10} median_map={row['median_map']:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmhash",
        description="Train, shrink, and evaluate binary hashing codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic clustered dataset")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--per-class", type=int, default=250, dest="per_class")
    p.add_argument("--noise", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant end to end")
    p.add_argument("--data", required=True)
    p.add_argument("--out-checkpoint", dest="out_checkpoint")
    p.add_argument("--out-report", dest="out_report")
    _add_training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="retrieval metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--top-r", type=int, dest="top_r")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--top-n", dest="top_n",
                   help="comma-separated list, default caps at gallery size")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("profile",
                       help="per-bit leave-one-out MAP of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("export-curves",
                       help="write pr/top-n/bit-reduction/profile CSVs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_export_curves)

    p = sub.add_parser("ablate",
                       help="median MAP per variant over a seed list")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", required=True,
                   help="comma-separated seed list, e.g. 1,2,3")
    p.add_argument("--variants",
                   help="comma-separated subset; default runs all six")
    p.add_argument("--out")
    _add_training_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NmhashError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
