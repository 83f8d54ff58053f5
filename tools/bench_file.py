"""Collect perfbench records into one BENCH_<tag>.json file.

    python3 tools/bench_file.py TAG [OUT_DIR ...] [--repo DIR]

Reads every perfbench record (`<workload>-seed<seed>-trace<0|1>.json`) in
the given directories (default: perfbench/out) and writes
`<repo>/BENCH_<tag>.json` with, per workload:
- the end-to-end metrics of its `--trace 0` run;
- the per-layer metrics of its `--trace 1` run;
- each run's seed, length, operation counts and environment record.

A run made with OPENBLAS_NUM_THREADS or OMP_NUM_THREADS set is filed under
its own key, for example `desk-full@OPENBLAS_NUM_THREADS=1`, so one file
can hold a workload under both thread settings.  The file also records
`git rev-parse HEAD` of the repository it is written to.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SECTIONS = {0: "end_to_end", 1: "per_layer"}


def entry_key(record: dict) -> str:
    """The workload's name, plus every thread variable the run had set."""
    env = record["environment"]
    pinned = [f"{name}={env[name]}" for name in THREAD_VARIABLES
              if env.get(name) is not None]
    return "@".join([record["workload"], *pinned])


def collect(out_dirs) -> dict:
    """{entry key: {section: run}} over every record in out_dirs."""
    entries: dict = {}
    for out_dir in out_dirs:
        for path in sorted(Path(out_dir).glob("*-trace[01].json")):
            record = json.loads(path.read_text())
            section = SECTIONS[record["trace"]]
            entry = entries.setdefault(entry_key(record), {})
            if section in entry:
                raise SystemExit(f"{path}: a second {section} record for "
                                 f"{entry_key(record)}")
            result = record["result"]
            entry[section] = {
                "source": path.name,
                "seed": record["seed"],
                "seconds": record["seconds"],
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "environment": record["environment"],
                "metrics": result["metrics"],
            }
    if not entries:
        raise SystemExit("no perfbench records found in "
                         + ", ".join(map(str, out_dirs)))
    return entries


def head_commit(repo: Path) -> str:
    return subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag")
    parser.add_argument("out_dirs", nargs="*",
                        default=[ROOT / "perfbench" / "out"])
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    bench = {"tag": args.tag, "commit": head_commit(args.repo),
             "workloads": collect(args.out_dirs)}
    dest = args.repo / f"BENCH_{args.tag}.json"
    dest.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {dest}: " + ", ".join(sorted(bench["workloads"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
