"""tools/bench_file.py: perfbench records in, one BENCH file out."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"


def _record(workload, trace, metrics, **env):
    return {"workload": workload, "seed": 1, "seconds": 50.0,
            "trace": trace,
            "environment": {"numpy": "2.4.6", "OPENBLAS_NUM_THREADS": None,
                            "OMP_NUM_THREADS": None, **env},
            "samples": {"train_s": [1.0, 2.0]},
            "result": {"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "s"}
                                   for name, value in metrics.items()}}}


def _write(out_dir, name, record):
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(json.dumps(record))


def test_bench_file_from_fabricated_records(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t",
           "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"],
                   check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    out, one_thread = tmp_path / "out", tmp_path / "out-1t"
    _write(out, "desk-full-seed1-trace0.json",
           _record("desk-full", 0, {"train_s": 5.5}))
    _write(out, "desk-full-seed1-trace1.json",
           _record("desk-full", 1, {"network.forward.s": 0.25}))
    _write(out, "search-seed1-trace0.json",
           _record("search", 0, {"query_ms_mean": 12.0}))
    _write(one_thread, "desk-full-seed1-trace0.json",
           _record("desk-full", 0, {"train_s": 4.5},
                   OPENBLAS_NUM_THREADS="1"))
    (out / "notes.txt").write_text("not a record")

    done = subprocess.run([sys.executable, str(SCRIPT), "t", str(out),
                           str(one_thread), "--repo", str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert bench["tag"] == "t" and bench["commit"] == head
    entries = bench["workloads"]
    assert sorted(entries) == ["desk-full",
                               "desk-full@OPENBLAS_NUM_THREADS=1", "search"]
    desk = entries["desk-full"]
    assert desk["end_to_end"]["metrics"] == \
        {"train_s": {"value": 5.5, "unit": "s"}}
    assert desk["per_layer"]["metrics"] == \
        {"network.forward.s": {"value": 0.25, "unit": "s"}}
    assert desk["end_to_end"]["environment"]["numpy"] == "2.4.6"
    assert (desk["end_to_end"]["attempted"],
            desk["end_to_end"]["failed"]) == (3, 0)
    assert "samples" not in desk["end_to_end"]
    assert entries["desk-full@OPENBLAS_NUM_THREADS=1"]["end_to_end"][
        "metrics"]["train_s"]["value"] == 4.5
    assert "per_layer" not in entries["search"]

    # the same workload and trace twice is refused, not silently merged
    _write(one_thread, "desk-full-seed2-trace1.json",
           _record("desk-full", 1, {}))
    _write(one_thread, "desk-full-seed3-trace1.json",
           _record("desk-full", 1, {}))
    again = subprocess.run([sys.executable, str(SCRIPT), "t2",
                            str(one_thread), "--repo", str(tmp_path)],
                           capture_output=True, text=True)
    assert again.returncode != 0
    assert "a second per_layer record" in again.stderr
    assert not (tmp_path / "BENCH_t2.json").exists()
