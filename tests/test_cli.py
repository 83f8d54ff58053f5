"""Command-line interface: all six subcommands, config precedence, errors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nmhash
from nmhash.cli import main, read_config_file
from nmhash.data import load_features
from nmhash.errors import ConfigError
from nmhash.training import CHECKPOINT_MAGIC, RunReport

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


# --- train ----------------------------------------------------------------------

def test_train_writes_checkpoint_and_report(trained, capsys):
    first_line = trained["ckpt"].read_text().splitlines()[0]
    assert first_line == CHECKPOINT_MAGIC
    report = RunReport.from_json(trained["report"].read_text())
    assert report.variant == "full"
    assert report.final["effective_bits"] == 6
    assert 0.0 <= report.final["map"] <= 1.0


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


def test_train_missing_data_file(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope.csv")]) == 1
    _err_line(capsys)


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
    report = RunReport.from_json(report_path.read_text())
    assert report.seed == 5  # flag beat the file
    assert report.config["base_epochs"] == 2  # file beat the default
    assert report.config["backbone_sgd"]["learning_rate"] == 1e-7


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


def test_evaluate_rejects_oversized_top_r(trained, capsys):
    assert main(["evaluate", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"]), "--top-r", "5000"]) == 1
    _err_line(capsys)


def test_evaluate_rejects_foreign_checkpoint(trained, capsys):
    assert main(["evaluate", "--checkpoint", str(trained["data"]),
                 "--data", str(trained["data"])]) == 1
    _err_line(capsys)


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
    report = tmp_path / "one_bit.report.json"
    assert main(["train", "--data", str(data_file), "--variant", "baseline",
                 "--b-in", "1", "--b-out", "1", "--base-epochs", "1",
                 "--batch-size", "64", "--hidden-dims", "32",
                 "--lr", "1e-7", "--seed", "3", "--out-checkpoint", str(ckpt),
                 "--out-report", str(report)]) == 0
    capsys.readouterr()
    assert main(["profile", "--checkpoint", str(ckpt),
                 "--data", str(data_file)]) == 1
    assert "at least 2 effective bits" in _err_line(capsys)
    # export-curves still writes every file; the profile has no rows
    out_dir = tmp_path / "curves"
    assert main(["export-curves", "--checkpoint", str(ckpt),
                 "--data", str(data_file), "--report", str(report),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "loo_profile.csv").read_text() == "bit,map_without_bit\n"


# --- export-curves ----------------------------------------------------------------------

def test_export_curves_files(trained, tmp_path):
    out_dir = tmp_path / "curves"
    assert main(["export-curves", "--checkpoint", str(trained["ckpt"]),
                 "--data", str(trained["data"]),
                 "--report", str(trained["report"]),
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
                     "--report", str(trained["report"]),
                     "--out-dir", str(out_dir)]) == 0
    for name in ("pr_curve.csv", "topn.csv", "bit_reduction.csv",
                 "loo_profile.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


def test_ablate_rejects_bad_seed_and_variant(data_file, capsys):
    assert main(["ablate", "--data", str(data_file), "--seeds", "x"]) == 1
    _err_line(capsys)
    assert main(["ablate", "--data", str(data_file), "--seeds", "1",
                 "--variants", "full,bogus"]) == 1
    _err_line(capsys)
    assert main(["ablate", "--data", str(data_file), "--seeds", ""]) == 1
    _err_line(capsys)


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
