"""Independent reference implementations used to check the library.

Everything here is written in the most literal way possible (python loops,
no shared code with the package) so a bug in the library cannot hide in its
own test oracle.
"""

from __future__ import annotations

import numpy as np


def ap_from_flags(flags) -> float:
    """Average precision of one ranked 0/1 relevance list."""
    hits = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def ranking_for_query(query_code, gallery_codes) -> list[int]:
    """Gallery indices by ascending Hamming distance, ties by index."""
    keyed = []
    for j, g in enumerate(gallery_codes):
        mismatches = sum(1 for a, b in zip(query_code, g) if a != b)
        keyed.append((mismatches, j))
    return [j for _, j in sorted(keyed)]


def brute_force_map(query_codes, query_labels, gallery_codes,
                    gallery_labels):
    """(MAP, per-query rankings) for strictly {-1,+1} codes."""
    rankings = []
    aps = []
    for q, qlab in zip(query_codes, query_labels):
        order = ranking_for_query(q, gallery_codes)
        rankings.append(order)
        flags = [1 if set(qlab) & set(gallery_labels[j]) else 0
                 for j in order]
        aps.append(ap_from_flags(flags))
    return sum(aps) / len(aps), rankings


def naive_propagate(p, adjacency) -> np.ndarray:
    """Score propagation written as the literal per-node sum."""
    p = list(p)
    n = len(p)
    out = []
    for i in range(n):
        acc = p[i]
        for j in range(n):
            acc += 0.5 * adjacency[i][j] * (p[j] - p[i])
        out.append(acc)
    return np.array(out)


def central_difference(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, any shape."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += h
        lo[idx] -= h
        grad[idx] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


def relative_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def top_m_components(adjacency, m: int) -> list[list[int]]:
    """Components of the graph on the m strongest edges, found by BFS.

    Edges (i < j) are ranked by (-a_ij, i, j); exactly m of them are
    built.  Groups come out sorted, and ordered by their first member.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    ranked = sorted((-a[i, j], i, j) for i in range(n) for j in range(i + 1, n))
    neighbours = {i: [] for i in range(n)}
    built = 0
    for _, i, j in ranked[:m]:
        neighbours[i].append(j)
        neighbours[j].append(i)
        built += 1
    assert built == m, f"asked for {m} edges, built {built}"
    seen = set()
    groups = []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue, group = [start], []
        while queue:
            node = queue.pop(0)
            group.append(node)
            for nb in neighbours[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        groups.append(sorted(group))
    return groups
