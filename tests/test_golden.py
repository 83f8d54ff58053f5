"""Pinned output bytes: reports, checkpoints and metric outputs at fixed seeds.

tests/golden.json holds the sha256 of:
- the README CLI run (gen-data defaults; train 24 -> 16 bits, m 4, base 30,
  lr 1e-7, seed 1): its data file, report and checkpoint, the `evaluate
  --radius 2.0`, `evaluate --top-r 50 --top-n 1,5,10` and `profile`
  documents and the four `export-curves` files;
- the report and checkpoint of each variant on the small config
  (generate_synthetic(4, 8, 40, 2.0, 0), 8 -> 5 bits, m 2, base 3, n0 2,
  n1 2, batch 32, hidden 16, lr 1e-6; baseline at 5 bits), at seed 1
  and at seed 2, which draws other frozen choices.

The bytes depend on the numpy and BLAS builds, so the file also records
the environment they were taken in.  Under another environment the test
fails and names what differs.  A change that alters these bytes on
purpose regenerates the file in the same commit:

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from nmhash.cli import main as cli
from nmhash.data import generate_synthetic
from nmhash.network import SgdConfig
from nmhash.training import (VARIANT_BASELINE, VARIANTS, ExperimentConfig,
                             TrainingRun, save_checkpoint)

GOLDEN = Path(__file__).with_name("golden.json")
CURVES = ("pr_curve.csv", "topn.csv", "bit_reduction.csv",
          "loo_profile.csv")
SEEDS = (1, 2)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"),
            "blas_version": blas.get("version")}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli([str(a) for a in argv]) == 0, argv


def readme_run(work: Path) -> dict:
    data, ckpt = work / "bench.csv", work / "run.ckpt"
    files = {"data": data, "report": work / "report.json", "checkpoint": ckpt,
             "evaluate": work / "evaluate.json",
             "evaluate_top": work / "evaluate_top.json",
             "profile": work / "profile.json"}
    _cli("gen-data", "--out", data)
    _cli("train", "--data", data, "--b-in", 24, "--b-out", 16, "--m", 4,
         "--base-epochs", 30, "--lr", 1e-7, "--seed", 1,
         "--out-checkpoint", ckpt, "--out-report", files["report"])
    _cli("evaluate", "--checkpoint", ckpt, "--data", data, "--radius", 2.0,
         "--out", files["evaluate"])
    _cli("evaluate", "--checkpoint", ckpt, "--data", data, "--top-r", 50,
         "--top-n", "1,5,10", "--out", files["evaluate_top"])
    _cli("profile", "--checkpoint", ckpt, "--data", data,
         "--out", files["profile"])
    _cli("export-curves", "--checkpoint", ckpt, "--data", data,
         "--out-dir", work / "curves")
    files.update({name: work / "curves" / name for name in CURVES})
    return {f"readme/{name}": _sha256(path) for name, path in files.items()}


def variant_runs(work: Path) -> dict:
    dataset = generate_synthetic(4, 8, 40, 2.0, 0)
    out = {}
    for seed, variant in itertools.product(SEEDS, VARIANTS):
        cfg = ExperimentConfig(
            b_in=5 if variant == VARIANT_BASELINE else 8, b_out=5, m=2,
            base_epochs=3, n0_epochs=2, n1_epochs=2, batch_size=32,
            hidden_dims=(16,), backbone_sgd=SgdConfig(learning_rate=1e-6),
            seed=seed, variant=variant)
        run = TrainingRun(cfg, dataset).run()
        # seed 1 keeps the unsuffixed names it was first pinned under
        name = variant if seed == 1 else f"{variant}/seed{seed}"
        ckpt = work / f"{variant}-{seed}.ckpt"
        save_checkpoint(run.to_checkpoint(), ckpt)
        report = run.report().to_json().encode()
        out[f"{name}/report"] = hashlib.sha256(report).hexdigest()
        out[f"{name}/checkpoint"] = _sha256(ckpt)
    return out


def output_hashes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return {**readme_run(work), **variant_runs(work)}


def test_outputs_match_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    differs = [f"{key}: pinned {golden['environment'].get(key)!r}, "
               f"here {value!r}" for key, value in env.items()
               if golden["environment"].get(key) != value]
    assert not differs, (
        "the golden hashes were taken in another environment ("
        + "; ".join(differs) + "); check the outputs by hand and rewrite")
    got = output_hashes()
    assert sorted(got) == sorted(golden["sha256"])
    changed = sorted(name for name in got if got[name] != golden["sha256"][name])
    assert not changed, f"output bytes changed: {', '.join(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: python {sys.argv[0]} --rewrite")
    GOLDEN.write_text(json.dumps({"environment": environment(),
                                  "sha256": output_hashes()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
