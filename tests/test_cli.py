"""Command-line interface: all six subcommands, config precedence, errors."""

import copy
import functools
import itertools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmhash
from nmhash.cli import (_CONFIG_PARSERS, build_experiment_config,
                        build_parser, main, read_config_file)
from nmhash.data import load_features
from nmhash.errors import ConfigError, NmhashError
from nmhash.training import (CHECKPOINT_MAGIC, VARIANTS, TrainingRun,
                             load_checkpoint, save_checkpoint)

TRAIN_FLAGS = ["--b-in", "8", "--b-out", "6", "--m", "2",
               "--base-epochs", "2", "--n0", "2", "--n1", "2",
               "--batch-size", "64", "--hidden-dims", "32",
               "--lr", "1e-7", "--seed", "3"]


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "feats.csv"
    rc = main(["gen-data", "--classes", "3", "--dim", "6",
               "--per-class", "40", "--noise", "2.0", "--seed", "0",
               "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_file):
    out = tmp_path_factory.mktemp("run")
    ckpt = out / "full.ckpt"
    report = out / "full.report.json"
    rc = main(["train", "--data", str(data_file), "--variant", "full",
               *TRAIN_FLAGS, "--out-checkpoint", str(ckpt),
               "--out-report", str(report)])
    assert rc == 0
    return {"ckpt": ckpt, "report": report, "data": data_file}


def _err_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # exactly one diagnostic line
    return err


# --- gen-data -----------------------------------------------------------------

def test_gen_data_writes_expected_rows(data_file, capsys):
    ds = load_features(data_file)
    assert ds.n_items == 120
    assert ds.dim == 6


def test_gen_data_is_deterministic(tmp_path, data_file):
    again = tmp_path / "again.csv"
    assert main(["gen-data", "--classes", "3", "--dim", "6",
                 "--per-class", "40", "--noise", "2.0", "--seed", "0",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == data_file.read_bytes()


def test_gen_data_defaults(tmp_path, capsys):
    out = tmp_path / "default.csv"
    assert main(["gen-data", "--out", str(out)]) == 0
    assert "wrote 2000 items (8 classes x 250, dim 16)" in \
        capsys.readouterr().out


def test_gen_data_rejects_bad_arguments(tmp_path, capsys):
    assert main(["gen-data", "--classes", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1
    _err_line(capsys)
    assert main(["gen-data", "--out", str(tmp_path / "no_dir" / "x.csv")]) == 1
    _err_line(capsys)
    assert main(["gen-data", "--noise", "nan",
                 "--out", str(tmp_path / "nan.csv")]) == 1
    assert "noise_sigma" in _err_line(capsys)
    assert not (tmp_path / "nan.csv").exists()


# --- train ----------------------------------------------------------------------

def test_train_writes_checkpoint_and_report(trained, capsys):
    first_line = trained["ckpt"].read_text().splitlines()[0]
    assert first_line == CHECKPOINT_MAGIC
    report = json.loads(trained["report"].read_text())
    assert report["variant"] == "full"
    assert report["final"]["effective_bits"] == 6
    assert 0.0 <= report["final"]["map"] <= 1.0


def test_train_stdout_summary(data_file, capsys):
    assert main(["train", "--data", str(data_file), "--variant", "baseline",
                 "--b-in", "6", "--b-out", "6", "--base-epochs", "2",
                 "--batch-size", "64", "--hidden-dims", "32",
                 "--lr", "1e-7", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("variant=baseline final_map=0.")
    assert "effective_bits=6" in out


def test_train_validation_failure_exits_nonzero(data_file, capsys):
    assert main(["train", "--data", str(data_file),
                 "--b-in", "8", "--b-out", "9"]) == 1
    _err_line(capsys)


@pytest.mark.parametrize("flag, value, key", [
    ("--lr", "nan", "learning_rate"), ("--weight-decay", "nan", "weight_decay"),
    ("--eta", "nan", "eta"), ("--eta", "inf", "eta"),
    ("--nm-lr", "nan", "nm_learning_rate")])
def test_train_refuses_non_finite_hyperparameters(tmp_path, capsys, flag,
                                                  value, key):
    # refused while the config is built: the data file is never opened
    assert main(["train", "--data", str(tmp_path / "absent.csv"),
                 flag, value]) == 1
    assert _err_line(capsys).startswith(f"error: {key} must be finite")


def test_train_parses_hidden_dims(tmp_path, capsys):
    # an empty list is no hidden layer, which dropout refuses; both
    # refusals come while the config is built, before the data is read
    absent = str(tmp_path / "absent.csv")
    args = build_parser().parse_args(["train", "--data", absent,
                                      "--hidden-dims", ""])
    assert build_experiment_config(args).hidden_dims == ()
    assert main(["train", "--data", absent, "--hidden-dims", "",
                 "--variant", "dropout"]) == 1
    assert "dropout variant needs at least one hidden layer" in \
        _err_line(capsys)
    assert main(["train", "--data", absent, "--hidden-dims", "32,x"]) == 1
    assert "hidden_dims must be comma-separated ints, got '32,x'" in \
        _err_line(capsys)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("hidden_dims = 32,x\n")
    assert main(["train", "--data", absent, "--config", str(cfg)]) == 1
    assert "hidden_dims must be comma-separated ints, got '32,x'" in \
        _err_line(capsys)


def test_train_missing_data_file(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope.csv")]) == 1
    _err_line(capsys)


def test_train_refuses_a_label_id_beyond_int64(data_file, tmp_path, capsys):
    lines = data_file.read_text().splitlines()
    lines[0] = "1180591620717411303424" + lines[0][lines[0].index(","):]
    bad = tmp_path / "big-label.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["train", "--data", str(bad), *TRAIN_FLAGS]) == 1
    assert ("line 1: label id 1180591620717411303424 does not fit in int64"
            in _err_line(capsys))


def test_train_names_the_line_of_a_non_finite_feature(data_file, tmp_path,
                                                      capsys):
    lines = data_file.read_text().splitlines()
    lines[6] = lines[6].rsplit(",", 1)[0] + ",nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["train", "--data", str(bad), *TRAIN_FLAGS]) == 1
    assert "line 7: features must be finite" in _err_line(capsys)


# --- config files ------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "b-in = 8   # dashes normalize to underscores\n"
        "n0 = 3\n"
        "lr = 1e-6\n"
        "hidden_dims = 16,8\n"
        "\n")
    values = read_config_file(path)
    assert values == {"b_in": 8, "n0_epochs": 3, "learning_rate": 1e-6,
                      "hidden_dims": (16, 8)}


def test_config_file_unknown_key_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("b_in = 8\nwat = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        read_config_file(path)
    path.write_text("b_in at 8\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(path)
    path.write_text("b_in = eight\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(path)


def test_flags_override_config_file(tmp_path, data_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = baseline\nb_in = 6\nb_out = 6\n"
                   "base-epochs = 2\nbatch_size = 64\nhidden_dims = 32\n"
                   "lr = 1e-7\nseed = 3\n")
    report_path = tmp_path / "r.json"
    assert main(["train", "--data", str(data_file), "--config", str(cfg),
                 "--seed", "5", "--out-report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["seed"] == 5  # flag beat the file
    assert report["config"]["base_epochs"] == 2  # file beat the default
    assert report["config"]["backbone_sgd"]["learning_rate"] == 1e-7


def test_every_config_key_has_a_flag_that_matches_the_file(tmp_path):
    # config-file key -> (its flag, a value that differs from the default)
    given = {
        "b_in": ("--b-in", "10"), "b_out": ("--b-out", "4"),
        "m": ("--m", "3"), "n0_epochs": ("--n0", "2"),
        "n1_epochs": ("--n1", "3"), "base_epochs": ("--base-epochs", "4"),
        "batch_size": ("--batch-size", "32"),
        "learning_rate": ("--lr", "1e-6"),
        "weight_decay": ("--weight-decay", "1e-4"),
        "nm_learning_rate": ("--nm-lr", "0.5"), "eta": ("--eta", "10"),
        "seed": ("--seed", "7"), "variant": ("--variant", "select"),
        "dropout_rate": ("--dropout-rate", "0.25"),
        "hidden_dims": ("--hidden-dims", "16,8"),
        "n_validation": ("--n-validation", "5"),
        "n_query": ("--n-query", "6"), "score_every": ("--score-every", "2"),
    }
    assert set(given) == set(_CONFIG_PARSERS)
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {value}\n"
                            for key, (_, value) in given.items()))
    flags = [tok for flag, value in given.values() for tok in (flag, value)]
    for command in ("train", "ablate"):
        fixed = [command, "--data", "x.csv"] + \
            (["--seeds", "1"] if command == "ablate" else [])
        parser = build_parser()
        from_file = build_experiment_config(
            parser.parse_args([*fixed, "--config", str(path)]))
        from_flags = build_experiment_config(parser.parse_args(fixed + flags))
        assert from_flags == from_file
        assert from_flags.hidden_dims == (16, 8)
        assert from_flags.backbone_sgd.learning_rate == 1e-6
    args = build_parser().parse_args(["train", "--data", "x.csv",
                                      "--variant", "nonsense"])
    with pytest.raises(ConfigError, match="unknown variant 'nonsense'"):
        build_experiment_config(args)


# a value that does not parse is refused naming its flag or its file line;
# any variant parses, and ExperimentConfig.validate names every variant
@pytest.mark.parametrize("flag, text, message", [
    ("--b-in", "x", "--b-in: bad value for 'b_in': 'x'"),
    ("--lr", "x", "--lr: bad value for 'learning_rate': 'x'"),
    ("--n0", "1.5", "--n0: bad value for 'n0_epochs': '1.5'"),
    ("--variant", "bogus",
     f"unknown variant 'bogus'; expected one of {VARIANTS}"),
    ("--hidden-dims", "3,x",
     "--hidden-dims: hidden_dims must be comma-separated ints, got '3,x'"),
])
def test_a_flag_and_a_file_line_are_refused_alike(tmp_path, capsys, flag,
                                                  text, message):
    # refused while the config is built: the data file is never opened
    absent = str(tmp_path / "absent.csv")
    assert main(["train", "--data", absent, flag, text]) == 1
    assert _err_line(capsys) == f"error: {message}\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 1\n{flag[2:]} = {text}\n")
    assert main(["train", "--data", absent, "--config", str(cfg)]) == 1
    assert _err_line(capsys) == \
        f"error: {message.replace(flag, 'config file line 2')}\n"


# --- evaluate -------------------------------------------------------------------------

def test_evaluate_reproduces_report_map(trained, capsys):
    assert main(["evaluate", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"])]) == 0
    metrics = json.loads(capsys.readouterr().out)
    report = json.loads(trained["report"].read_text())
    assert metrics["map"] == report["final"]["map"]
    assert metrics["effective_bits"] == 6
    assert metrics["precision_at_radius"]["radius"] == 2.0
    assert metrics["precision_at_radius"]["value"] == \
        report["final"]["precision_at_radius2"]
    assert metrics["top_r"] is None
    # default top-n grid capped at the 96-item gallery
    assert metrics["precision_at_top_n"]["n"] == [1, 2, 5, 10, 20, 50]


def test_evaluate_top_r_and_out_file(trained, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"]), "--top-r", "10",
                 "--top-n", "1,5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    metrics = json.loads(printed)
    assert metrics["top_r"] == 10
    assert metrics["precision_at_top_n"]["n"] == [1, 5]


@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_evaluate_refuses_a_radius_that_is_not_finite(trained, capsys,
                                                      radius):
    assert main(["evaluate", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"]), "--radius", radius]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no document
    assert captured.err.startswith("error: radius must be finite")
    assert captured.err.count("\n") == 1


def test_evaluate_rejects_oversized_top_r(trained, capsys):
    assert main(["evaluate", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"]), "--top-r", "5000"]) == 1
    _err_line(capsys)


def test_evaluate_rejects_foreign_checkpoint(trained, capsys):
    assert main(["evaluate", "--checkpoint", str(trained["data"]),
                 "--data", str(trained["data"])]) == 1
    _err_line(capsys)


def test_evaluate_rejects_checkpoint_missing_a_section(data_file, tmp_path,
                                                     capsys):
    ckpt = tmp_path / "bare.ckpt"
    ckpt.write_text('HMRG1\n{"format_version": 3}\n')
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(data_file)]) == 1
    assert "'config'" in _err_line(capsys)


def test_evaluate_refuses_a_version_2_checkpoint(data_file, tmp_path,
                                                 capsys):
    ckpt = tmp_path / "v2.ckpt"
    ckpt.write_text('HMRG1\n{"format_version": 2}\n')
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(data_file)]) == 1
    assert "unsupported checkpoint version 2 (this build reads 3)" in \
        _err_line(capsys)


def _edited_checkpoint(src, dst, edit):
    magic, body = src.read_text().split("\n", 1)
    body = json.loads(body)
    edit(body)
    dst.write_text(magic + "\n" + json.dumps(body) + "\n")
    return dst


def test_evaluate_rejects_unknown_config_key(trained, tmp_path, capsys):
    ckpt = _edited_checkpoint(trained["ckpt"], tmp_path / "bogus.ckpt",
                              lambda b: b["config"].update(bogus=1))
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(trained["data"])]) == 1
    assert "unknown config keys: 'bogus'" in _err_line(capsys)


@pytest.mark.parametrize("edit, message", [
    (lambda b: b.update(progress={}), "'progress' section"),
    (lambda b: b.update(counters={}), "'counters' section"),
    (lambda b: b["counters"].update(stage="bogus"), "unknown stage 'bogus'"),
    (lambda b: b["counters"].update(global_epoch="x"),
     "'counters' section must hold exactly the entries ['epoch_in_stage', "
     "'stage'], got ['epoch_in_stage', 'global_epoch', 'stage']"),
    (lambda b: b["progress"].update(round_adjacency={}),
     "progress.round_adjacency must be a float64 array"),
    (lambda b: b.update(net="x"), "'net' section must be an object"),
    (lambda b: b.update(graph="x"), "'graph' section must be an object"),
    (lambda b: b.update(rng_state="x"), "'rng_state' is not a PCG64 state"),
    (lambda b: b["rng_state"].update(uinteger=-1),
     "'rng_state' is not a PCG64 state"),
    (lambda b: b["graph"].update(groups=None),
     "'graph' section is malformed"),
    (lambda b: b["graph"].update(n_nodes="x"),
     "'graph' section is malformed"),
    (lambda b: b["net"].update(layer_dims=None), "'net' section is malformed"),
    (lambda b: b["net"].update(weights=None), "'net' section is malformed"),
    (lambda b: b["net"].update(biases=None), "'net' section is malformed"),
    (lambda b: b["net"]["weights"][0]["shape"].reverse(),
     "weights and biases do not fit layer_dims"),
    (lambda b: b["progress"]["bit_trace"].__setitem__(0, None),
     "progress.bit_trace must be list[tuple[int, float]], got list"),
    (lambda b: b["progress"]["base_loss_per_epoch"].__setitem__(0, None),
     "progress.base_loss_per_epoch must be list[float], got list"),
    (lambda b: b["counters"].update(epoch_in_stage=-3),
     "counters.epoch_in_stage must be in range(1) in stage 'done', got -3"),
    (lambda b: b["counters"].update(global_epoch=-50),
     "'counters' section must hold exactly the entries ['epoch_in_stage', "
     "'stage'], got ['epoch_in_stage', 'global_epoch', 'stage']"),
    (lambda b: b["counters"].update(round_index=-4),
     "'counters' section must hold exactly the entries ['epoch_in_stage', "
     "'stage'], got ['epoch_in_stage', 'round_index', 'stage']"),
    (lambda b: b["progress"].update(bit_trace=[]),
     "progress.bit_trace's length must be 2 in stage 'done' with 1 "
     "progress.rounds_done, got 0"),
    (lambda b: b["progress"].update(bit_trace=[[8, 0.5]]),
     "progress.bit_trace's length must be 2 in stage 'done' with 1 "
     "progress.rounds_done, got 1"),
    (lambda b: b["progress"]["bit_trace"].pop(1),
     "progress.bit_trace's length must be 2 in stage 'done' with 1 "
     "progress.rounds_done, got 1"),
    (lambda b: b["progress"]["bit_trace"].insert(
        0, b["progress"]["bit_trace"][0]),
     "progress.bit_trace's length must be 2 in stage 'done' with 1 "
     "progress.rounds_done, got 3"),
    (lambda b: b["progress"]["rounds_done"].pop(0),
     "progress.bit_trace's length must be 1 in stage 'done' with 0 "
     "progress.rounds_done, got 2"),
    (lambda b: b["progress"].update(base_map=0.5),
     "'progress' section must hold exactly the entries"),
    (lambda b: b["progress"].update(selected_bits=[0, 1]),
     "progress.selected_bits must be null in stage 'done', got [0, 1]"),
], ids=["empty-progress", "empty-counters", "unknown-stage",
        "str-global-epoch", "empty-adjacency-object", "str-net", "str-graph",
        "str-rng-state", "negative-rng-state-entry", "null-graph-groups",
        "str-graph-n-nodes", "null-net-layer-dims", "null-net-weights",
        "null-net-biases", "transposed-weight", "null-bit-trace-item",
        "null-base-loss-item", "negative-epoch-in-stage",
        "negative-global-epoch", "negative-round-index", "empty-bit-trace",
        "bit-trace-of-another-width", "dropped-bit-trace-entry",
        "duplicated-bit-trace-entry", "dropped-round-record",
        "base-map-entry", "selected-bits-outside-select"])
def test_evaluate_rejects_malformed_counters_or_progress(trained, tmp_path,
                                                         capsys, edit,
                                                         message):
    ckpt = _edited_checkpoint(trained["ckpt"], tmp_path / "bad.ckpt", edit)
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(trained["data"])]) == 1
    assert message in _err_line(capsys)


@pytest.mark.parametrize("picks", [None, [0], [9, 10, 11, 12, 13, 14]],
                         ids=["null", "one-id", "ids-beyond-the-width"])
def test_evaluate_rejects_selected_bits_that_do_not_fit(data_file, tmp_path,
                                                        capsys, picks):
    # a finished select run picks b_out sorted, distinct ids of its 8 bits
    ckpt = tmp_path / "select.ckpt"
    assert main(["train", "--data", str(data_file), "--variant", "select",
                 *TRAIN_FLAGS, "--out-checkpoint", str(ckpt)]) == 0
    edited = _edited_checkpoint(
        ckpt, tmp_path / "picks.ckpt",
        lambda b: b["progress"].update(selected_bits=picks))
    assert main(["evaluate", "--checkpoint", str(edited),
                 "--data", str(data_file)]) == 1
    assert "progress.selected_bits must be 6 sorted, distinct ids below 8 " \
        f"in stage 'done', got {picks}" in _err_line(capsys)


@pytest.mark.parametrize("variant, stop, stage, arrays", [
    ("baseline", None, "score", {"score_sum": (6,)}),
    ("select", None, "fc", {"fc_w": (6, 6), "fc_b": (6,)}),
    ("random", 2, "active", {"round_adjacency": (6, 6)})],
    ids=["baseline-score", "select-fc", "random-active"])
def test_evaluate_rejects_a_stage_the_variant_never_runs(
        data_file, tmp_path, capsys, variant, stop, stage, arrays):
    # each checkpoint holds what the other variant's stage needs, so only
    # the variant's schedule can refuse it
    widths = ["--b-in", "6"] if variant == "baseline" else []
    args = build_parser().parse_args(["train", "--data", str(data_file),
                                      *TRAIN_FLAGS, *widths,
                                      "--variant", variant])
    run = TrainingRun(build_experiment_config(args),
                      load_features(data_file)).run(stop_after=stop)
    run.stage = stage
    for name, shape in arrays.items():
        setattr(run, name, np.zeros(shape))
    ckpt = tmp_path / "foreign.ckpt"
    save_checkpoint(run.to_checkpoint(), ckpt)
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(data_file)]) == 1
    assert f"unknown stage {stage!r} for variant {variant!r}" in \
        _err_line(capsys)


def _key_paths(value, path=()):
    """Every key path inside a JSON value, each parent before its children."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _walk_cases(body, skip=()):
    """(case name, edited copy of body) for every key path outside the
    top-level keys in skip: each deleted, then set to one of five values."""
    paths = [p for p in _key_paths(body) if p[0] not in skip]
    delete = object()
    for path, value in itertools.product(paths,
                                         (delete, "x", None, {}, [], -1)):
        edited = copy.deepcopy(body)
        *parents, last = path
        target = functools.reduce(operator.getitem, parents, edited)
        if value is delete:
            del target[last]
        else:
            target[last] = value
        yield ".".join(map(str, path)) + (
            " deleted" if value is delete else f" = {value!r}"), edited


@pytest.mark.parametrize("variant, stop, stage", [
    ("full", 3, "active"), ("full", 5, "frozen"), ("select", 3, "score"),
    ("fclayer", 3, "fc"), ("fclayer", 1, "base")],
    ids=["mid-active", "mid-frozen", "mid-score", "mid-fc", "mid-base"])
def test_mutation_walk_never_ends_in_a_traceback(data_file, tmp_path, capsys,
                                                 variant, stop, stage):
    # a checkpoint in the middle of each stage that holds more than the
    # base stage's entries, and one in fclayer's base stage, whose head is
    # drawn only when the fc stage starts; the config section is left out,
    # as its checks have tests of their own
    args = build_parser().parse_args(["train", "--data", str(data_file),
                                      *TRAIN_FLAGS, "--variant", variant])
    dataset = load_features(data_file)
    run = TrainingRun(build_experiment_config(args), dataset).run(
        stop_after=stop)
    assert run.stage == stage
    source = tmp_path / "mid.ckpt"
    save_checkpoint(run.to_checkpoint(), source)
    body = json.loads(source.read_text().split("\n", 1)[1])
    for case, edited in _walk_cases(body, skip={"config"}):
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_text(CHECKPOINT_MAGIC + "\n" + json.dumps(edited) + "\n")
        try:
            rc = main(["evaluate", "--checkpoint", str(ckpt),
                       "--data", str(data_file)])
            # evaluate accepted it, so it must resume to a report at b_out
            if rc == 0:
                report = TrainingRun.from_checkpoint(load_checkpoint(ckpt),
                                                     dataset).run().report()
                assert report.final["effective_bits"] == run.cfg.b_out
        except Exception as exc:  # name the case in the failure
            raise AssertionError(f"{case} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert rc == 0 or err.startswith("error: ") \
            and err.count("\n") == 1, case


def test_evaluate_rejects_wrong_typed_config_value(trained, tmp_path,
                                                   capsys):
    ckpt = _edited_checkpoint(trained["ckpt"], tmp_path / "typed.ckpt",
                              lambda b: b["config"].update(b_in="x"))
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(trained["data"])]) == 1
    assert "config key 'b_in' must be int, got 'x'" in _err_line(capsys)


def test_evaluate_rejects_checkpoint_of_another_dataset(trained, tmp_path,
                                                        capsys):
    # same shape as the training data, another seed
    other = tmp_path / "seed9.csv"
    assert main(["gen-data", "--classes", "3", "--dim", "6",
                 "--per-class", "40", "--noise", "2.0", "--seed", "9",
                 "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(other)]) == 1
    assert "different dataset" in _err_line(capsys)


# --- profile --------------------------------------------------------------------------

def test_profile_matches_report_values(trained, capsys):
    assert main(["profile", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"])]) == 0
    profile = json.loads(capsys.readouterr().out)
    report = json.loads(trained["report"].read_text())
    assert profile["map_without_bit"] == \
        report["leave_one_out"]["map_without_bit"]
    assert profile["std"] == report["leave_one_out"]["std"]
    assert len(profile["map_without_bit"]) == 6


def test_profile_refuses_one_bit_checkpoint(data_file, tmp_path, capsys):
    ckpt = tmp_path / "one_bit.ckpt"
    assert main(["train", "--data", str(data_file), "--variant", "baseline",
                 "--b-in", "1", "--b-out", "1", "--base-epochs", "1",
                 "--batch-size", "64", "--hidden-dims", "32",
                 "--lr", "1e-7", "--seed", "3",
                 "--out-checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["profile", "--checkpoint", str(ckpt),
                 "--data", str(data_file)]) == 1
    assert "at least 2 effective bits" in _err_line(capsys)
    # export-curves still writes every file; the profile has no rows
    out_dir = tmp_path / "curves"
    assert main(["export-curves", "--checkpoint", str(ckpt),
                 "--data", str(data_file), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "loo_profile.csv").read_text() == "bit,map_without_bit\n"


# --- export-curves ----------------------------------------------------------------------

def test_export_curves_files(trained, tmp_path):
    out_dir = tmp_path / "curves"
    assert main(["export-curves", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"]),
                 "--out-dir", str(out_dir)]) == 0

    pr = (out_dir / "pr_curve.csv").read_text().splitlines()
    assert pr[0] == "threshold,precision,recall"
    assert len(pr) == 1 + 13  # thresholds 0, 0.5, ..., 6 for 6 bits

    topn = (out_dir / "topn.csv").read_text().splitlines()
    assert topn[0] == "n,precision"
    assert [row.split(",")[0] for row in topn[1:]] == \
        ["1", "2", "5", "10", "20", "50"]

    bits = (out_dir / "bit_reduction.csv").read_text().splitlines()
    assert bits[0] == "effective_bits,map"
    bit_col = [int(row.split(",")[0]) for row in bits[1:]]
    assert bit_col == sorted(bit_col, reverse=True)
    assert bit_col[0] == 8 and bit_col[-1] == 6
    report = json.loads(trained["report"].read_text())
    assert len(bits) - 1 == len(report["bit_trace"])

    loo = (out_dir / "loo_profile.csv").read_text().splitlines()
    assert loo[0] == "bit,map_without_bit"
    assert len(loo) == 1 + 6


def test_export_curves_deterministic(trained, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir in (a, b):
        assert main(["export-curves", "--checkpoint", str(trained["ckpt"]),
                     "--data", str(trained["data"]),
                     "--out-dir", str(out_dir)]) == 0
    for name in ("pr_curve.csv", "topn.csv", "bit_reduction.csv",
                 "loo_profile.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _bit_reduction_rows(out_dir) -> list:
    lines = (out_dir / "bit_reduction.csv").read_text().splitlines()
    assert lines[0] == "effective_bits,map"
    return [[int(b), float(v)] for b, v in
            (line.split(",") for line in lines[1:])]


@pytest.mark.parametrize("variant", VARIANTS)
def test_bit_reduction_is_the_report_bit_trace(data_file, tmp_path, variant):
    ckpt, report = tmp_path / "run.ckpt", tmp_path / "report.json"
    widths = ["--b-in", "6"] if variant == "baseline" else []
    assert main(["train", "--data", str(data_file), "--variant", variant,
                 *TRAIN_FLAGS, *widths, "--out-checkpoint", str(ckpt),
                 "--out-report", str(report)]) == 0
    assert main(["export-curves", "--checkpoint", str(ckpt),
                 "--data", str(data_file),
                 "--out-dir", str(tmp_path / "curves")]) == 0
    # exact: the CSV writes each map with repr, which round-trips
    assert _bit_reduction_rows(tmp_path / "curves") == \
        json.loads(report.read_text())["bit_trace"]


def test_export_curves_after_the_base_stage(data_file, tmp_path):
    # a mid-run checkpoint gives the trace so far: the base stage's one row
    args = build_parser().parse_args(["train", "--data", str(data_file),
                                      *TRAIN_FLAGS])
    cfg = build_experiment_config(args)
    run = TrainingRun(cfg, load_features(data_file)).run(
        stop_after=cfg.base_epochs)
    assert run.stage == "active"
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(run.to_checkpoint(), ckpt)
    assert main(["export-curves", "--checkpoint", str(ckpt),
                 "--data", str(data_file),
                 "--out-dir", str(tmp_path / "curves")]) == 0
    assert _bit_reduction_rows(tmp_path / "curves") == \
        [[cfg.b_in, run.bit_trace[0][1]]]


# --- ablate ----------------------------------------------------------------------------

def test_ablate_table(data_file, tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["ablate", "--data", str(data_file), "--seeds", "1,2",
                 "--variants", "baseline,full", *TRAIN_FLAGS,
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    table = json.loads(out.read_text())
    assert table["seeds"] == [1, 2]
    variants = [row["variant"] for row in table["rows"]]
    assert variants == ["full", "baseline"]  # full always leads
    assert printed[0].startswith("full")
    for row in table["rows"]:
        assert len(row["maps"]) == 2
        assert 0.0 <= row["median_map"] <= 1.0


def test_ablate_runs_every_variant_without_variants_flag(data_file, tmp_path,
                                                        capsys):
    out = tmp_path / "table.json"
    assert main(["ablate", "--data", str(data_file), "--seeds", "1",
                 *TRAIN_FLAGS, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    variants = [row["variant"] for row in json.loads(out.read_text())["rows"]]
    assert variants == list(VARIANTS)  # full leads VARIANTS already
    assert [line.split()[0] for line in printed] == variants


def test_ablate_budget_is_full_whatever_the_variant_flag(data_file, tmp_path):
    # --variant random alone would plan 4 epochs here, full plans 6
    tables = []
    for variant in ([], ["--variant", "random"]):
        out = tmp_path / f"table{len(tables)}.json"
        assert main(["ablate", "--data", str(data_file), "--seeds", "1",
                     "--variants", "baseline", *TRAIN_FLAGS, *variant,
                     "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_ablate_rejects_bad_seed_and_variant(data_file, capsys):
    assert main(["ablate", "--data", str(data_file), "--seeds", "x"]) == 1
    _err_line(capsys)
    assert main(["ablate", "--data", str(data_file), "--seeds", "1",
                 "--variants", "full,bogus"]) == 1
    _err_line(capsys)
    assert main(["ablate", "--data", str(data_file), "--seeds", ""]) == 1
    _err_line(capsys)


def test_ablate_checks_every_config_before_training(data_file, monkeypatch,
                                                    capsys):
    def no_training(run, stop_after=None):
        raise AssertionError("a run trained before every config was built")

    monkeypatch.setattr(TrainingRun, "run", no_training)
    assert main(["ablate", "--data", str(data_file), "--seeds", "1,2",
                 "--variants", "full,bogus", *TRAIN_FLAGS]) == 1
    assert "unknown variant 'bogus'" in _err_line(capsys)


# --- console entry point -----------------------------------------------------------------

@pytest.fixture(scope="module")
def script_env(tmp_path_factory):
    """Environment in which the bare command `nmhash` runs the package under test.

    An installer turns `[project.scripts] nmhash = "module:attr"` into a
    launcher on PATH; this fixture writes the same launcher from the entry
    point that pyproject.toml declares, so no install is needed.  PYTHONPATH
    points at the package this suite imported, never at a stale install.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "nmhash" in scripts, "pyproject.toml declares no nmhash script"
    module, _, attr = scripts["nmhash"].partition(":")
    bin_dir = tmp_path_factory.mktemp("launcher") / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "nmhash"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    launcher.chmod(0o755)
    return dict(os.environ,
                PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
                PYTHONPATH=str(Path(nmhash.__file__).parents[1]))


def test_installed_script_runs(tmp_path, script_env):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        ["nmhash", "gen-data", "--classes", "2", "--dim", "3",
         "--per-class", "5", "--out", str(out)],
        capture_output=True, text=True, env=script_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_module_invocation_matches_script(tmp_path, script_env):
    args = ["gen-data", "--classes", "0", "--out", str(tmp_path / "x.csv")]
    runs = [subprocess.run(cmd + args, capture_output=True, text=True,
                           env=script_env, cwd=tmp_path)
            for cmd in (["nmhash"], [sys.executable, "-m", "nmhash.cli"])]
    for proc in runs:
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1  # exactly one diagnostic line
    script, module = runs
    assert script.stderr == module.stderr


def test_blas_threads_do_not_change_the_report(tmp_path):
    # numpy has no runtime API for the BLAS thread count: OpenBLAS reads
    # it from the environment when numpy is imported, so each setting
    # runs in its own process.  Hidden width 256 and batch 128 make the
    # backward GEMMs large enough for OpenBLAS to split them over threads.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(nmhash.__file__).parents[1])
    cli = [sys.executable, "-m", "nmhash.cli"]
    data = tmp_path / "feats.csv"
    subprocess.run(cli + ["gen-data", "--classes", "8", "--dim", "16",
                          "--per-class", "100", "--out", str(data)],
                   check=True, capture_output=True, env=env)
    reports = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"report{len(reports)}.json"
        proc = subprocess.run(
            cli + ["train", "--data", str(data), "--b-in", "24",
                   "--b-out", "20", "--m", "4", "--base-epochs", "3",
                   "--n0", "1", "--n1", "1", "--batch-size", "128",
                   "--hidden-dims", "256", "--lr", "1e-7", "--seed", "1",
                   "--out-report", str(out)],
            capture_output=True, text=True, env={**env, **threads})
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
