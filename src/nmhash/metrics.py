"""Retrieval metrics over binary hash codes.

Codes are row vectors with entries in {-1, 0, +1}; a 0 entry can only come
from a tied majority vote of a merged bit group.  Every ranking used here
sorts by the inner-product form of the Hamming distance,

    d(a, b) = (K - a.b) / 2,

which is exact in float64 for this alphabet (a 0-valued bit contributes 1/2
against either sign).  Ties are broken by ascending gallery index, so all
metrics are deterministic functions of their inputs.  Each part of this
comparison rule is written once, and every entry point here and
merging.score_neurons use it: _pairing (code alphabet, one code length,
one label set per row), _distance, _ranked_relevance and _ap_per_query.

Labels are multi-label: each item carries a non-empty set of integer label
ids, and two items count as relevant to each other when the sets intersect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidCodeError

_CODE_VALUES = (-1.0, 0.0, 1.0)


def sign_pm1(x):
    """Elementwise sign with the repo-wide convention sign(0) = +1."""
    return np.where(np.asarray(x, dtype=np.float64) >= 0.0, 1.0, -1.0)


def as_code_matrix(codes) -> np.ndarray:
    """Validate and return a 2-D float64 code matrix over {-1, 0, +1}."""
    arr = np.asarray(codes, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidCodeError("code matrix must be non-empty and 2-D")
    if not np.isin(arr, _CODE_VALUES).all():
        raise InvalidCodeError("code entries must be -1, 0, or +1")
    return arr


def _pairing(query_codes, gallery_codes, rel=None):
    """(q, g) code matrices of one code length, checked against rel.

    rel, when given, is the relevance matrix built from the two label
    sequences; it must hold one row per query and one column per gallery
    item.
    """
    q = as_code_matrix(query_codes)
    g = as_code_matrix(gallery_codes)
    if q.shape[1] != g.shape[1]:
        raise ValueError(
            f"code length mismatch: {q.shape[1]} vs {g.shape[1]}"
        )
    if rel is not None and rel.shape != (q.shape[0], g.shape[0]):
        raise ValueError("label counts do not match code matrix rows")
    return q, g


def _distance(dots, k):
    """Hamming distances of K-bit codes from their inner products."""
    return (k - dots) / 2.0


def pairwise_hamming(query_codes, gallery_codes) -> np.ndarray:
    """Distance matrix (n_query, n_gallery) between two code matrices."""
    q, g = _pairing(query_codes, gallery_codes)
    return _distance(q @ g.T, q.shape[1])


def _label_sets(labels) -> list[frozenset]:
    out = []
    for i, item in enumerate(labels):
        s = frozenset(int(v) for v in item)
        if not s:
            raise ValueError(f"item {i} has an empty label set")
        out.append(s)
    if not out:
        raise ValueError("empty label sequence")
    return out


def relevance_matrix(query_labels, gallery_labels) -> np.ndarray:
    """Boolean (n_query, n_gallery) matrix of label-set intersection."""
    qs = _label_sets(query_labels)
    gs = _label_sets(gallery_labels)
    vocab = {lab: k for k, lab in enumerate(sorted(set().union(*qs, *gs)))}
    lq = np.zeros((len(qs), len(vocab)))
    lg = np.zeros((len(gs), len(vocab)))
    for i, s in enumerate(qs):
        for lab in s:
            lq[i, vocab[lab]] = 1.0
    for j, s in enumerate(gs):
        for lab in s:
            lg[j, vocab[lab]] = 1.0
    return (lq @ lg.T) > 0.0


def _ap_per_query(rel_ranked: np.ndarray) -> np.ndarray:
    """AP of each row of ranked 0/1 flags: the mean precision@k over the
    relevant ranks k, and 0 for a row with no hit."""
    flags = rel_ranked.astype(np.float64)
    prec = np.cumsum(flags, axis=1) / np.arange(1, flags.shape[1] + 1)
    return (prec * flags).sum(axis=1) / np.maximum(flags.sum(axis=1), 1.0)


@dataclass
class RetrievalResult:
    """Per-query ranking of the gallery.

    ranked_indices[i] lists gallery indices for query i by ascending
    Hamming distance (ties by gallery index); ranked_relevance holds the
    matching 0/1 flags; average_precisions[i] is the AP of that list.
    """

    ranked_indices: np.ndarray
    ranked_relevance: np.ndarray
    average_precisions: np.ndarray


def _ranked_relevance(dist, rel):
    """Per query: gallery order by (distance, gallery index), and its flags."""
    # stable sort keeps ascending gallery index among equal distances
    order = np.argsort(dist, axis=1, kind="stable")
    return order, np.take_along_axis(rel, order, axis=1)


def retrieve(query_codes, query_labels, gallery_codes, gallery_labels,
             top_r: int | None = None) -> RetrievalResult:
    """Rank the gallery for every query and score each ranking with AP.

    With top_r set, each ranking is cut to its first top_r entries and AP
    is computed on the truncated list alone.
    """
    rel = relevance_matrix(query_labels, gallery_labels)
    q, g = _pairing(query_codes, gallery_codes, rel)
    if top_r is not None and not 1 <= top_r <= g.shape[0]:
        raise ValueError(
            f"top_r must be in [1, {g.shape[0]}], got {top_r}"
        )
    order, rel_ranked = _ranked_relevance(_distance(q @ g.T, q.shape[1]), rel)
    if top_r is not None:
        order = order[:, :top_r]
        rel_ranked = rel_ranked[:, :top_r]
    return RetrievalResult(order, rel_ranked.astype(np.int64),
                           _ap_per_query(rel_ranked))


def mean_average_precision(query_codes, query_labels, gallery_codes,
                           gallery_labels, top_r: int | None = None) -> float:
    """Mean AP over all queries, ranking by Hamming distance."""
    res = retrieve(query_codes, query_labels, gallery_codes, gallery_labels,
                   top_r=top_r)
    return float(res.average_precisions.mean())


def precision_at_hamming_radius(query_codes, query_labels, gallery_codes,
                                gallery_labels, radius: float = 2.0) -> float:
    """Mean per-query precision of everything within the given radius.

    A query that retrieves nothing inside the radius contributes 0.
    """
    if not 0 <= radius < np.inf:  # NaN fails this too
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    rel = relevance_matrix(query_labels, gallery_labels)
    q, g = _pairing(query_codes, gallery_codes, rel)
    inside = _distance(q @ g.T, q.shape[1]) <= radius
    n_inside = inside.sum(axis=1).astype(np.float64)
    n_good = (inside & rel).sum(axis=1).astype(np.float64)
    # nothing inside means nothing relevant inside either: 0 / 1
    return float((n_good / np.maximum(n_inside, 1.0)).mean())


class PrPoint(NamedTuple):
    threshold: float
    precision: float
    recall: float


def pr_curve(query_codes, query_labels, gallery_codes,
             gallery_labels) -> list[PrPoint]:
    """Micro-averaged precision/recall over Hamming thresholds 0, .5, .. K.

    At each threshold t the retrieved set is every (query, gallery) pair at
    distance <= t, pooled over all queries.  Precision is 0 when nothing is
    retrieved; recall is 0 when no relevant pair exists at all.
    """
    rel = relevance_matrix(query_labels, gallery_labels)
    q, g = _pairing(query_codes, gallery_codes, rel)
    k = q.shape[1]
    dist = _distance(q @ g.T, k)
    n_rel_total = float(rel.sum())
    points = []
    for t in np.arange(0.0, k + 0.5, 0.5):
        retrieved = dist <= t
        n_ret = float(retrieved.sum())
        n_good = float((retrieved & rel).sum())
        precision = n_good / n_ret if n_ret > 0 else 0.0
        recall = n_good / n_rel_total if n_rel_total > 0 else 0.0
        points.append(PrPoint(float(t), precision, recall))
    return points


def precision_at_top_n(query_codes, query_labels, gallery_codes,
                       gallery_labels, n_values: Sequence[int]) -> list[float]:
    """Mean fraction of relevant items among the top n ranked, per n."""
    rel = relevance_matrix(query_labels, gallery_labels)
    q, g = _pairing(query_codes, gallery_codes, rel)
    for n in n_values:
        if not 1 <= int(n) <= g.shape[0]:
            raise ValueError(
                f"top-n value {n} outside gallery size {g.shape[0]}"
            )
    _, rel_ranked = _ranked_relevance(_distance(q @ g.T, q.shape[1]), rel)
    cum = np.cumsum(rel_ranked.astype(np.float64), axis=1)
    return [float((cum[:, int(n) - 1] / float(n)).mean()) for n in n_values]
