"""Command-line interface.

Subcommands: gen-data, train, evaluate, ablate, profile, export-curves.
Training options can come from a flat key=value config file (--config);
explicit flags always win over file values, which win over defaults.
Every refused value, whether from a flag or the file, exits 1 with a single
`error: ...` line on stderr; argparse's own usage errors (an unknown flag,
a missing --data) keep argparse's format and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import typing
from dataclasses import fields, is_dataclass, replace

from .data import generate_synthetic, load_features, save_features
from .errors import ConfigError, NmhashError
from .merging import score_neurons
from .metrics import (mean_average_precision, pr_curve,
                      precision_at_hamming_radius, precision_at_top_n)
from .network import SgdConfig
from .training import (ExperimentConfig, TrainingRun, VARIANTS, VARIANT_FULL,
                       load_checkpoint, save_checkpoint)

_DEFAULT_TOP_N = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


def _parse_hidden_dims(text: str) -> tuple[int, ...]:
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


def _training_fields(cls=ExperimentConfig) -> list:
    """(field, type) of every training key, in declaration order; a
    dataclass-typed field (backbone_sgd) stands for its own fields."""
    kinds = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = kinds[f.name]
        out += _training_fields(kind) if is_dataclass(kind) else [(f, kind)]
    return out


_TRAINING_FIELDS = _training_fields()
_TYPE_PARSERS = {int: int, float: float, str: str, int | None: int}
_CONFIG_PARSERS = {
    f.name: _parse_hidden_dims if f.name == "hidden_dims"
    else _TYPE_PARSERS[kind] for f, kind in _TRAINING_FIELDS}

_CONFIG_ALIASES = {"n0": "n0_epochs", "n1": "n1_epochs",
                   "lr": "learning_rate", "nm_lr": "nm_learning_rate"}
# training key -> its flag, named after the key's short alias if it has one
_FLAGS = {key: "--" + key.replace("_", "-") for key in _CONFIG_PARSERS} | {
    key: "--" + alias.replace("_", "-") for alias, key in _CONFIG_ALIASES.items()}


def _parse_value(key: str, text: str, where: str):
    """Parse text as the training key's value; a refusal names where the
    text came from (a flag, or a config file line)."""
    text = text.strip()
    try:
        return _CONFIG_PARSERS[key](text)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{where}: bad value for {key!r}: {text!r}") from None


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
            values[key] = _parse_value(key, raw, f"config file line {lineno}")
    return values


def _add_training_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    for key, flag in _FLAGS.items():
        p.add_argument(flag, dest=key)


def build_experiment_config(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    for key, flag in _FLAGS.items():
        text = getattr(args, key, None)
        if text is not None:
            values[key] = _parse_value(key, text, flag)
    sgd = SgdConfig(**{f.name: values.pop(f.name) for f in fields(SgdConfig)
                       if f.name in values})
    return ExperimentConfig(backbone_sgd=sgd, **values)


def _write_file(path, text: str) -> None:
    """Write text and a final newline to path, when a path is given."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


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
    _write_file(args.out_report, report.to_json())
    print(f"variant={cfg.variant} final_map={report.final['map']:.6f} "
          f"effective_bits={report.final['effective_bits']}")
    return 0


def _checkpoint_codes(args) -> tuple:
    """(run, query codes, query labels, gallery codes, gallery labels) of
    the --checkpoint run on the --data set."""
    ckpt = load_checkpoint(args.checkpoint)
    run = TrainingRun.from_checkpoint(ckpt, load_features(args.data))
    return (run, *run.codes("query"), *run.codes("gallery"))


def cmd_evaluate(args) -> int:
    _, q, q_labels, g, g_labels = _checkpoint_codes(args)
    # retrieve and precision_at_top_n refuse depths outside the gallery
    if args.top_n is not None:
        n_values = _parse_int_list(args.top_n)
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
    _write_file(args.out, text)
    print(text)
    return 0


def cmd_profile(args) -> int:
    _, q, q_labels, g, g_labels = _checkpoint_codes(args)
    p = score_neurons(g, g_labels, q, q_labels)
    out = {"schema_version": 1,
           "map_without_bit": [float(v) for v in p],
           "std": float(p.std())}
    text = json.dumps(out, sort_keys=True, indent=1)
    _write_file(args.out, text)
    print(text)
    return 0


def _write_csv(path, header: str, rows) -> None:
    _write_file(path, "\n".join(
        [header] + [",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in row) for row in rows]))


def cmd_export_curves(args) -> int:
    run, q, q_labels, g, g_labels = _checkpoint_codes(args)
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
               [(int(b), float(v)) for b, v in run.bit_trace])

    try:
        p = score_neurons(g, g_labels, q, q_labels)
        loo_rows = [(bit, float(v)) for bit, v in enumerate(p)]
    except ConfigError:  # a 1-bit code has no profile
        loo_rows = []
    _write_csv(os.path.join(args.out_dir, "loo_profile.csv"),
               "bit,map_without_bit", loo_rows)

    print(f"wrote pr_curve.csv, topn.csv, bit_reduction.csv, "
          f"loo_profile.csv to {args.out_dir}")
    return 0


def cmd_ablate(args) -> int:
    cfg = build_experiment_config(args)
    ds = load_features(args.data)
    seeds = _parse_int_list(args.seeds)
    if not seeds:
        raise ConfigError("--seeds must list at least one seed")
    if args.variants:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    else:
        variants = list(VARIANTS)
    if VARIANT_FULL in variants:  # full leads the table
        variants = [VARIANT_FULL] + [v for v in variants if v != VARIANT_FULL]
    # every config is built, and so checked, before the first run trains
    runs = [(variant, [replace(cfg.budget_matched(variant), seed=seed)
                       for seed in seeds]) for variant in variants]
    rows = []
    for variant, configs in runs:
        maps = [TrainingRun(vcfg, ds).run().report().final["map"]
                for vcfg in configs]
        rows.append({"variant": variant,
                     "median_map": float(statistics.median(maps)),
                     "maps": [float(v) for v in maps]})
    table = {"schema_version": 1, "seeds": seeds, "rows": rows}
    _write_file(args.out, json.dumps(table, sort_keys=True, indent=1))
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
