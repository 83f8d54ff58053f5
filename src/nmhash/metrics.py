"""Retrieval metrics over binary hash codes.

Codes are row vectors with entries in {-1, 0, +1}; a 0 entry can only come
from a tied majority vote of a merged bit group.  The Hamming distance
d(a, b) = (K - a.b) / 2 counts a 0-valued bit as 1/2 against either sign,
so every ranking and threshold here uses the exact integer key 2d = K - a.b
(_keys); pairwise_hamming alone returns the float d.  Ties are broken by
ascending gallery index, so all metrics are deterministic functions of
their inputs.  A ranking is one plain integer sort: _packed folds each
pair into key * 2G + 2 * gallery index + relevance flag, over a gallery of
G items, and these distinct values ascend by (key, gallery index).  Each
part of this comparison rule is written once, and every entry point here
and merging.score_neurons (which ranks equal query rows once) use it:
_pairing (code alphabet, one code length, one label set per row), _keys,
_packed, _ranked_relevance (sorts packed values), _hit_counts and
_ap_per_query; precision_at_hamming_radius and pr_curve count keys.
_keys and _indicator_relevance take their products through _products,
which runs a small one in blocks for one BLAS thread.

Labels are multi-label: each item carries a non-empty set of integer label
ids that fit in int64, and two items count as relevant to each other when
the sets intersect.  Relevance is computed one way: _label_indicator
builds the item x label 0/1 matrix over one vocabulary, and
_indicator_relevance marks the pairs of its rows with a positive product.
relevance_matrix builds the indicator of its two sequences per call; a
training run builds its dataset's once and takes each batch's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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
    """(q, g) code matrices of one code length, checked against rel, the
    relevance matrix of the two label sequences when given: it must hold
    one row per query and one column per gallery item."""
    q = as_code_matrix(query_codes)
    g = as_code_matrix(gallery_codes)
    if q.shape[1] != g.shape[1]:
        raise ValueError(
            f"code length mismatch: {q.shape[1]} vs {g.shape[1]}"
        )
    if rel is not None and rel.shape != (q.shape[0], g.shape[0]):
        raise ValueError("label counts do not match code matrix rows")
    return q, g


# OpenBLAS runs a product of at most 4 * 65,536 multiply-adds on the calling
# thread and may split a larger one with a worker thread.  On a busy
# machine that hand-off can stall for a millisecond, many times what a
# retrieval request's product takes on one thread (about 50 us for 32
# queries over 1,600 items of 16 bits).  So a product that fits in
# _MAX_BLOCKS blocks of gallery rows of at most that size runs block by
# block; a larger one runs whole, long enough for its threads to pay.
_ONE_THREAD = 4 * 65536
_MAX_BLOCKS = 16


def _products(a, b):
    """a @ b.T by blocks of b's rows: (column slice, product) pairs."""
    n = b.shape[0]
    step = _ONE_THREAD // (a.shape[0] * a.shape[1])
    if step * _MAX_BLOCKS < n:
        step = n
    for start in range(0, n, max(step, 1)):
        cols = slice(start, start + step)
        yield cols, a @ b[cols].T


def _keys(q, g):
    """Exact integer keys 2d = K - a.b between the rows of two K-bit code
    matrices: int16 while 2K <= 32767, else int32; K alone decides."""
    k = q.shape[1]
    keys = np.empty((q.shape[0], g.shape[0]),
                    np.int16 if 2 * k <= 32767 else np.int32)
    for cols, dots in _products(q, g):
        np.subtract(k, dots, out=keys[:, cols], casting="unsafe")
    return keys


def pairwise_hamming(query_codes, gallery_codes) -> np.ndarray:
    """Distance matrix (n_query, n_gallery) between two code matrices."""
    q, g = _pairing(query_codes, gallery_codes)
    return _keys(q, g) / 2.0


def _label_ids(labels):
    """Flat int64 label ids of a label sequence, and the count per item."""
    counts = np.fromiter(map(len, labels), np.int64)
    if counts.size == 0:
        raise ValueError("empty label sequence")
    if not counts.all():
        raise ValueError(f"item {counts.argmin()} has an empty label set")
    try:
        ids = np.fromiter(chain.from_iterable(labels), np.int64, counts.sum())
    except OverflowError:
        i = next(i for i, item in enumerate(labels)
                 if not all(-2**63 <= int(v) < 2**63 for v in item))
        raise ValueError(f"item {i} has a label id beyond int64") from None
    return ids, counts


def _label_indicator(*label_seqs):
    """Item x label 0/1 float64 matrix over the items of the label
    sequences, in order, with one column per label id they hold."""
    ids, counts = zip(*map(_label_ids, label_seqs))
    vocab, column = np.unique(np.concatenate(ids), return_inverse=True)
    counts = np.concatenate(counts)
    ind = np.zeros((counts.size, vocab.size))
    ind[np.repeat(np.arange(counts.size), counts), column] = 1.0
    return ind


def _indicator_relevance(a, b):
    """Boolean matrix of label-set intersection between the rows of two
    float64 indicators over one vocabulary: a shared label makes a
    positive product."""
    rel = np.empty((a.shape[0], b.shape[0]), dtype=bool)
    for cols, shared in _products(a, b):
        np.greater(shared, 0, out=rel[:, cols])
    return rel


def relevance_matrix(query_labels, gallery_labels) -> np.ndarray:
    """Boolean (n_query, n_gallery) matrix of label-set intersection."""
    ind = _label_indicator(query_labels, gallery_labels)
    n_query = len(query_labels)
    return _indicator_relevance(ind[:n_query], ind[n_query:])


def _hit_counts(flags):
    """Running count of hits along each row of ranked 0/1 flags: int16
    while the row length G <= 32767, else int32; G alone decides."""
    return np.cumsum(flags, axis=1,
                     dtype=np.int16 if flags.shape[1] <= 32767 else np.int32)


def _ap_per_query(rel_ranked: np.ndarray) -> np.ndarray:
    """AP of each row of ranked 0/1 flags: the mean precision@k over the
    relevant ranks k, and 0 for a row with no hit."""
    counts = _hit_counts(rel_ranked)
    hits = counts[:, -1].astype(np.float64)
    counts *= rel_ranked
    # each entry is the float64 c / k of a hit and +0.0 elsewhere, and the
    # row sum keeps its length and order, so every AP rounds as before
    prec = counts / np.arange(1, counts.shape[1] + 1, dtype=np.float64)
    return prec.sum(axis=1) / np.maximum(hits, 1.0)


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


def _packed(keys, k, rel):
    """key * 2G + 2 * gallery index + rel per pair, over a gallery of G.

    The values in a row are distinct and ascend by (key, gallery index),
    so a plain sort ranks the row; v & 1 is the flag and (v >> 1) % G the
    gallery index.  int32 while (2K + 1) * 2G < 2**31, else int64: K and G
    alone decide.
    """
    g = keys.shape[1]
    packed = keys.astype(np.int32 if (2 * k + 1) * 2 * g < 2**31
                         else np.int64)
    packed *= 2 * g
    packed += np.arange(0, 2 * g, 2, dtype=packed.dtype)
    packed += rel
    return packed


def _ranked_relevance(keys, k, rel, top_r=None):
    """Per query: gallery order by (key, gallery index), and its flags.

    keys are those of K-bit codes.  With top_r, a row keeps its first top_r
    entries: a partition at top_r - 1 gathers them, and only they are
    sorted.
    """
    packed = _packed(keys, k, rel)
    if top_r is not None:
        packed = np.partition(packed, top_r - 1, axis=1)[:, :top_r]
    packed.sort(axis=1)
    order = (packed >> 1) % keys.shape[1]
    return order.astype(np.intp), packed & 1


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
    k = q.shape[1]
    order, rel_ranked = _ranked_relevance(_keys(q, g), k, rel, top_r)
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
    inside = _keys(q, g) <= 2 * radius
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
    keys = _keys(q, g)
    # pairs retrieved, and relevant pairs retrieved, at each key 0 .. 2K
    n_ret = np.bincount(keys.ravel(), minlength=2 * k + 1).cumsum().tolist()
    n_good = np.bincount(keys[rel], minlength=2 * k + 1).cumsum().tolist()
    return [PrPoint(t / 2, good / ret if ret else 0.0,
                    good / n_good[-1] if n_good[-1] else 0.0)
            for t, (ret, good) in enumerate(zip(n_ret, n_good))]


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
    k = q.shape[1]
    _, rel_ranked = _ranked_relevance(_keys(q, g), k, rel,
                                      max(map(int, n_values), default=1))
    cum = _hit_counts(rel_ranked)
    return [float((cum[:, int(n) - 1] / float(n)).mean()) for n in n_values]
