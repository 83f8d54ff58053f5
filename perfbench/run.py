"""nmhash benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload desk-full --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
repetitions and prints the per-layer metrics.  Every output is checked
(see checks.py); the last line of standard output is the result JSON and
the exit code is 1 if any check failed.  The full record, with the
environment and, when traced, every span, goes to perfbench/out/.

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (needs nmhash on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 2            # trainings per run, at least
SERVE_REQUESTS = 200    # at least; p95 then has 10 samples beyond it
HARD_STOP_SECONDS = 150
TRACED_REQUESTS = 32
CHECK_EVERY = 8         # brute-force re-rank every 8th request

now = time.perf_counter


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = re.search(r"MAX_THREADS=(\d+)",
                        blas.get("openblas configuration", ""))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_max_threads": int(threads.group(1)) if threads else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Operations attempted and failed; a failure is a problem or an exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def crash(self, what: str):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {traceback.format_exc()}")


def _phases(recorder):
    """recorder.span, or a no-op when nothing is traced."""
    return recorder.span if recorder else (lambda name: nullcontext())


def repetition(wl, samples, tally, reference, recorder=None):
    """Set up, train and report once; returns (state, report JSON)."""
    phase = _phases(recorder)
    with phase("bench.setup"):
        t = now()
        state = wl.setup()
        samples["setup_s"].append(now() - t)
    try:
        with phase(spans.TRAIN_SPAN):
            t = now()
            wl.train(state, recorder)
            samples["train_s"].append(now() - t)
        with phase("bench.report"):
            t = now()
            report_json = wl.report(state)
            samples["report_s"].append(now() - t)
    except Exception:
        tally.crash(f"{wl.name} repetition")
        return None, reference
    tally.record(f"{wl.name} report",
                 checks.report_problems(report_json, reference, wl.b_out))
    return state, reference or report_json


def serve(index, requests, tally, recorder=None):
    """Closed loop, one client, over (request id, rows) pairs.

    Returns (latencies in s, loop wall time).  Every CHECK_EVERY-th
    request is re-ranked by brute force once the loop is done.
    """
    phase = _phases(recorder)
    latencies, kept = [], []
    loop_start = now()
    for i, rows in requests:
        t = now()
        try:
            with phase("bench.request"):
                codes, result = workloads.request(index, rows)
        except Exception:
            tally.crash(f"request {i}")
            continue
        latencies.append(now() - t)
        if i % CHECK_EVERY == 0:
            kept.append((i, rows, codes, result))
        else:
            tally.record(f"request {i}", [])
    wall = now() - loop_start
    for i, rows, codes, result in kept:
        tally.record(f"request {i}", checks.ranking_problems(
            result, codes, [index.pool_labels[r] for r in rows],
            index.gallery_codes, index.gallery_labels, workloads.TOP_R))
    return latencies, wall


def trimmed_mean(values):
    """Mean without the lowest and the highest tenth of the values.

    The machine runs in a fast and a slow phase, so the samples of a short
    operation fall into two clusters.  The median of such a run jumps from
    one cluster to the other as their shares pass one half; a mean moves
    only in proportion to the shares.  Trimming keeps a rare stall out.
    """
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def run_end_to_end(wl, seed, seconds, tally):
    """Repeated training, with set-ups, reports and requests in between.

    The machine's speed drifts in phases of a few seconds.  A short
    operation timed in a few bursts would sample only a few phases, so
    after every training segment the run sets up once, reports once and
    serves a burst of requests against the latest trained model.  Every
    metric's samples then spread evenly over the whole run.
    """
    start = now()
    deadline = start + seconds
    samples = defaultdict(list)
    latencies, serve_wall = [], 0.0
    try:
        served = wl.warm_up()
        reference = wl.report(served)
    except Exception:
        tally.crash(f"{wl.name} warm-up")
        return None, samples
    tally.record(f"{wl.name} report",
                 checks.report_problems(reference, None, wl.b_out))
    index = wl.index(served)
    stream = enumerate(workloads.request_stream(seed,
                                                len(index.pool_labels)))

    def interlude():
        nonlocal serve_wall
        t = now()
        wl.setup()
        samples["setup_s"].append(now() - t)
        t = now()
        report_json = wl.report(served)
        samples["report_s"].append(now() - t)
        tally.record(f"{wl.name} report", checks.report_problems(
            report_json, reference, wl.b_out))
        # the requests should not pay for collecting earlier garbage
        gc.collect()
        lat, wall = serve(index, islice(stream, wl.requests_per_step), tally)
        latencies.extend(lat)
        serve_wall += wall

    cycle_times = []
    while now() < start + HARD_STOP_SECONDS and (
            len(cycle_times) < MIN_REPS or len(latencies) < SERVE_REQUESTS
            or now() + max(cycle_times) <= deadline):
        t_cycle = now()
        try:
            t = now()
            state = wl.setup()
            samples["setup_s"].append(now() - t)
            train_s, done = 0.0, False
            while not done:
                t = now()
                done = wl.train_segment(state)
                train_s += now() - t
                if done:
                    samples["train_s"].append(train_s)
                    served, index = state, wl.index(state)
                interlude()
        except Exception:
            tally.crash(f"{wl.name} cycle")
        cycle_times.append(now() - t_cycle)
    # too little time is left for another training: fill it with the rest
    while now() < deadline and samples["train_s"]:
        try:
            interlude()
        except Exception:
            tally.crash(f"{wl.name} interlude")
    if not samples["train_s"] or len(latencies) < SERVE_REQUESTS:
        return None, samples

    report = json.loads(reference)
    rows = len(latencies) * workloads.REQUEST_ROWS
    metrics = {
        "setup_s": (trimmed_mean(samples["setup_s"]), "s"),
        "train_s": (trimmed_mean(samples["train_s"]), "s"),
        "report_s": (trimmed_mean(samples["report_s"]), "s"),
        "final_map": (report["final"]["map"], "MAP"),
        "loo_std": (report["leave_one_out"]["std"], "MAP"),
        "query_ms_mean": (1000 * trimmed_mean(latencies), "ms"),
        "query_ms_p95": (1000 * statistics.quantiles(latencies, n=20)[-1],
                         "ms"),
        "queries_per_s": (rows / serve_wall, "query_rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    samples["query_s"] = latencies
    return metrics, samples


def traced_repetition(wl, seed, samples, tally, reference):
    """One repetition plus TRACED_REQUESTS requests, every layer traced."""
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        state, reference = repetition(wl, samples, tally, reference, recorder)
        if state is not None:
            index = wl.index(state)
            requests = enumerate(workloads.request_stream(
                seed, len(index.pool_labels)))
            serve(index, islice(requests, TRACED_REQUESTS), tally, recorder)
    return recorder, reference


def run_traced(wl, seed, seconds, tally):
    """Untraced and traced repetitions in turn; per-layer medians.

    The two swap order every pair, so slow drift of the machine's speed
    does not bias the tracing overhead.
    """
    deadline = now() + seconds
    wl.warm_up()
    untraced, traced = defaultdict(list), defaultdict(list)
    per_rep, recorders, pair_times = [], [], []
    reference = None
    while not pair_times or now() + max(pair_times) <= deadline:
        t = now()
        traced_first = len(pair_times) % 2 == 1
        for is_traced in (traced_first, not traced_first):
            if is_traced:
                recorder, reference = traced_repetition(wl, seed, traced,
                                                        tally, reference)
                per_rep.append(spans.layer_metrics(recorder))
                recorders.append(recorder)
            else:
                _, reference = repetition(wl, untraced, tally, reference)
        pair_times.append(now() - t)
    if not traced["train_s"] or not untraced["train_s"]:
        return None, recorders

    counts = [{k: v for k, v in m.items() if not k.endswith(".s")}
              for m in per_rep]
    tally.record("traced work counts",
                 [] if all(c == counts[0] for c in counts)
                 else ["work counts differ between traced repetitions"])
    metrics = {name: (statistics.median(m[name] for m in per_rep),
                      "s" if name.endswith(".s") else "count")
               for name in per_rep[0]}
    metrics["trace.overhead.s"] = (statistics.median(traced["train_s"])
                                   - statistics.median(untraced["train_s"]),
                                   "s")
    return metrics, recorders


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nmhash" / "__init__.py").is_file():
        print(f"nmhash sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    tally = Tally()
    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env}
    if args.trace:
        metrics, recorders = run_traced(wl, args.seed, args.seconds, tally)
        record["accounting"] = [spans.stage_accounting(r) for r in recorders]
        record["spans"] = [r.to_json() for r in recorders]
        for i, acc in enumerate(record["accounting"]):
            if acc["stage_s"]:
                print(f"traced repetition {i}: " + ", ".join(
                    f"{k} {v:.6f}" for k, v in acc.items()))
    else:
        metrics, samples = run_end_to_end(wl, args.seed, args.seconds, tally)
        record["samples"] = samples

    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    ok = metrics is not None and tally.failed == 0
    result = {"correct": ok, "attempted": max(tally.attempted, 1),
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in (metrics or {}).items()}}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True))
    for name, (value, unit) in (metrics or {}).items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
