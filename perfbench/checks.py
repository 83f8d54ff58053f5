"""Correctness checks the benchmark applies to the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct.  The reference computations are written here, apart from the
library, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

import json

import numpy as np


def brute_force_ranking(query_codes, gallery_codes, top_r: int) -> np.ndarray:
    """Per query row, the first top_r gallery indices by (distance, index).

    Codes are over {-1, 0, +1}, so twice the Hamming distance,
    K - q.g, is an exact integer and the sort has no float ties.
    """
    q = np.rint(np.asarray(query_codes, dtype=np.float64)).astype(np.int64)
    g = np.rint(np.asarray(gallery_codes, dtype=np.float64)).astype(np.int64)
    twice_distance = q.shape[1] - q @ g.T
    index = np.arange(g.shape[0])
    return np.stack([np.lexsort((index, row))[:top_r]
                     for row in twice_distance])


def _average_precision(flags) -> float:
    hits, total = 0, 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def ranking_problems(result, query_codes, query_labels, gallery_codes,
                     gallery_labels, top_r: int) -> list[str]:
    """Compare one `retrieve` result with the brute-force ranking."""
    expected = brute_force_ranking(query_codes, gallery_codes, top_r)
    got = np.asarray(result.ranked_indices)
    if got.shape != expected.shape:
        return [f"ranking shape {got.shape}, expected {expected.shape}"]
    problems = []
    for i, (row_got, row_expected) in enumerate(zip(got, expected)):
        if not np.array_equal(row_got, row_expected):
            first = int(np.flatnonzero(row_got != row_expected)[0])
            problems.append(f"query row {i}: rank {first} holds gallery item "
                            f"{int(row_got[first])}, expected "
                            f"{int(row_expected[first])}")
            continue
        qset = set(query_labels[i])
        flags = [bool(qset & set(gallery_labels[j])) for j in row_expected]
        if list(np.asarray(result.ranked_relevance[i], dtype=bool)) != flags:
            problems.append(f"query row {i}: relevance flags differ")
        elif abs(float(result.average_precisions[i])
                 - _average_precision(flags)) > 1e-12:
            problems.append(f"query row {i}: average precision differs")
    return problems


def report_problems(report_json: str, reference_json: str | None,
                    b_out: int) -> list[str]:
    """Check one repetition's report against the workload's invariants.

    reference_json is the report of the run's first repetition; every
    later repetition must reproduce it byte for byte.
    """
    problems = []
    if reference_json is not None and report_json != reference_json:
        problems.append("report JSON differs from the first repetition")
    report = json.loads(report_json)
    if report["final"]["effective_bits"] != b_out:
        problems.append(f"final.effective_bits is "
                        f"{report['final']['effective_bits']}, not {b_out}")
    if report["bit_trace"][-1][0] != b_out:
        problems.append(f"bit_trace ends at {report['bit_trace'][-1][0]}, "
                        f"not {b_out}")
    n_loo = len(report["leave_one_out"]["map_without_bit"])
    if n_loo != b_out:
        problems.append(f"leave-one-out vector has {n_loo} entries, "
                        f"not {b_out}")
    return problems
