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


def float64_ap_per_query(rel_ranked) -> np.ndarray:
    """Per-row AP with the hit counts kept in float64 as they are summed.

    The library's former AP kernel, kept to pin that its narrow integer
    counts give the same float64 values bit for bit.
    """
    prec = np.cumsum(rel_ranked, axis=1, dtype=np.float64)
    hits = prec[:, -1].copy()
    prec /= np.arange(1, prec.shape[1] + 1)
    prec *= rel_ranked
    return prec.sum(axis=1) / np.maximum(hits, 1.0)


def code_distance(a, b) -> float:
    """Hamming distance of two {-1, 0, +1} codes, one bit at a time.

    Equal signs cost 0 and opposite signs 1.  A 0 entry on either side
    costs 1/2, against a sign or against another 0.
    """
    total = 0.0
    for x, y in zip(a, b):
        if x == 0 or y == 0:
            total += 0.5
        elif x != y:
            total += 1.0
    return total


def ranking_for_query(query_code, gallery_codes) -> list[int]:
    """Gallery indices by ascending Hamming distance, ties by index."""
    keyed = []
    for j, g in enumerate(gallery_codes):
        keyed.append((code_distance(query_code, g), j))
    return [j for _, j in sorted(keyed)]


def relevant(labels_a, labels_b) -> bool:
    """Two items are relevant to each other when their label sets meet."""
    return bool(set(labels_a) & set(labels_b))


def brute_force_map(query_codes, query_labels, gallery_codes,
                    gallery_labels):
    """(MAP, per-query rankings) for {-1, 0, +1} codes and label sets."""
    rankings = []
    aps = []
    for q, qlab in zip(query_codes, query_labels):
        order = ranking_for_query(q, gallery_codes)
        rankings.append(order)
        flags = [1 if relevant(qlab, gallery_labels[j]) else 0
                 for j in order]
        aps.append(ap_from_flags(flags))
    return sum(aps) / len(aps), rankings


def brute_force_radius_precision(query_codes, query_labels, gallery_codes,
                                 gallery_labels, radius) -> float:
    """Mean per-query precision of the gallery items within the radius.

    A query with nothing inside the radius scores 0.
    """
    per_query = []
    for q, qlab in zip(query_codes, query_labels):
        inside = [j for j, g in enumerate(gallery_codes)
                  if code_distance(q, g) <= radius]
        good = sum(1 for j in inside if relevant(qlab, gallery_labels[j]))
        per_query.append(good / len(inside) if inside else 0.0)
    return sum(per_query) / len(per_query)


def brute_force_pr_curve(query_codes, query_labels, gallery_codes,
                         gallery_labels) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) at thresholds 0, 0.5, .., K.

    Counts are pooled over every (query, gallery) pair.  Precision is 0
    when nothing is retrieved; recall is 0 when no pair is relevant.
    """
    pairs = [(code_distance(q, g), relevant(qlab, glab))
             for q, qlab in zip(query_codes, query_labels)
             for g, glab in zip(gallery_codes, gallery_labels)]
    n_relevant = sum(1 for _, rel in pairs if rel)
    points = []
    for half_steps in range(2 * len(query_codes[0]) + 1):
        t = half_steps / 2
        retrieved = [rel for dist, rel in pairs if dist <= t]
        good = sum(1 for rel in retrieved if rel)
        points.append((t, good / len(retrieved) if retrieved else 0.0,
                       good / n_relevant if n_relevant else 0.0))
    return points


def brute_force_top_n(query_codes, query_labels, gallery_codes,
                      gallery_labels, n_values) -> list[float]:
    """Per n: mean over queries of the relevant share of the top n."""
    _, rankings = brute_force_map(query_codes, query_labels, gallery_codes,
                                  gallery_labels)
    out = []
    for n in n_values:
        shares = [sum(1 for j in order[:n]
                      if relevant(qlab, gallery_labels[j])) / n
                  for order, qlab in zip(rankings, query_labels)]
        out.append(sum(shares) / len(shares))
    return out


def discrete_hash_loss(codes, similarity, n_bits) -> float:
    """Sum of (b_i . b_j - K s_ij)^2 over ordered pairs of rows i != j."""
    total = 0.0
    for i, b_i in enumerate(codes):
        for j, b_j in enumerate(codes):
            if i != j:
                dot = sum(x * y for x, y in zip(b_i, b_j))
                total += (dot - n_bits * similarity[i][j]) ** 2
    return total


def loop_frozen_loss(groups, u, choices) -> float:
    """The frozen tie penalty with one column sum per free member.

    The sums are added in group/member order, the order that fixes how
    the library's reported loss rounds.
    """
    v = np.atleast_2d(np.asarray(u, dtype=np.float64))
    total = 0.0
    for members, choice in zip(groups, choices):
        c = int(choice)
        target = np.where(v[:, c] >= 0.0, 1.0, -1.0)  # sign(0) = +1
        for i in members:
            if i != c:
                total += float(((v[:, i] - target) ** 2).sum())
    return total


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


def joined_components(adjacency, joins: int) -> list[list[int]]:
    """The components of the fewest strongest edges that leave
    n - joins groups: top_m_components for the smallest such m.

    The reference for the library's join-count truncation, found by
    building edges one more at a time instead of skipping redundant ones.
    """
    n = np.asarray(adjacency).shape[0]
    m = 0
    while True:
        groups = top_m_components(adjacency, m)
        if len(groups) == n - joins:
            return groups
        m += 1
