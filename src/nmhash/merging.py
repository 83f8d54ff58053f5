"""Progressive merging of redundant code bits.

Merging happens in rounds on top of the encoder outputs.  Each round has
two phases:

* Active: every current group is one node and the round learns a
  symmetric adjacency matrix A over those nodes.  Per minibatch, each bit k
  gets a score p_k (the retrieval MAP with bit k deleted, so redundant bits
  score high; score_neurons ranks each distinct pair of query code row and
  relevance row once, as trained codes repeat), the scores diffuse one
  step along A to p', and A takes one step of active_grad, the pair terms
  of the score-gap loss sum_{i != j} |p'_i - p'_j|.  That step raises
  A_ij by nm_learning_rate * |p_i - p_j| while p' keeps the order of p_i
  and p_j (always from A = 0, where p' = p) and lowers it by as much where
  p' has reversed that order; bits with equal scores get no change.  So an edge
  grows with the gap between two bits' scores, not with their likeness.
  A is a plain array; the caller owns it.

* Frozen: the round joins min(m, k - b_out) pairs of its k groups along
  the strongest adjacency edges that join two groups, skipping an edge
  inside one group, and the joined groups become merge groups (truncate).
  That join count is the round's m_used.  During training each group
  forwards one randomly chosen member bit and pulls the other members
  toward the sign of the chosen one; at evaluation a group emits the
  majority-vote sign of its members (0 on ties).

A MergeGraph is the cumulative partition of the encoder bits into groups.
Group lists are always sorted (members ascending, groups by first member),
so everything downstream is deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .metrics import (_ap_per_query, _keys, _packed, _pairing,
                      relevance_matrix, sign_pm1)


def _sorted_groups(groups):
    canon = [sorted(int(i) for i in g) for g in groups]
    if any(not g for g in canon):
        raise ValueError("merge groups must be non-empty")
    canon.sort(key=lambda g: g[0])
    return canon


class MergeGraph:
    """A partition of n_nodes encoder bits into merge groups.

    group_of[i] is the group of bit i and membership is the 0/1 matrix M
    (n_nodes x n_groups) with M[i, group_of[i]] = 1.  Both are derived once
    on construction; a MergeGraph is never mutated afterwards.
    """

    def __init__(self, n_nodes: int, groups):
        groups = _sorted_groups(groups)
        if sorted(i for g in groups for i in g) != list(range(n_nodes)):
            raise ValueError(f"groups must partition range({n_nodes})")
        self.n_nodes = n_nodes
        self.groups = groups
        self.group_of = np.empty(n_nodes, dtype=np.intp)
        for gid, members in enumerate(groups):
            self.group_of[members] = gid
        self.membership = np.zeros((n_nodes, len(groups)))
        self.membership[np.arange(n_nodes), self.group_of] = 1.0

    @classmethod
    def from_partition(cls, n_nodes: int, groups) -> "MergeGraph":
        """The partition given by `groups`; rejects anything else."""
        return cls(n_nodes, groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        return f"MergeGraph(n_nodes={self.n_nodes}, groups={self.groups})"


def score_neurons(gallery_codes, gallery_labels, query_codes,
                  query_labels) -> np.ndarray:
    """Leave-one-bit-out MAP score per bit.

    p_k is the MAP of the queries against the gallery with column k deleted
    from both code matrices.  A bit whose deletion leaves MAP high is
    redundant.  Needs at least 2 columns (ConfigError otherwise).

    A query's AP depends only on its code row and its relevance row, so
    equal query rows are ranked once per bit and their AP is reused.
    """
    rel = relevance_matrix(query_labels, gallery_labels)
    q, g = _pairing(query_codes, gallery_codes, rel)
    k = q.shape[1]
    if k < 2:
        raise ConfigError("scoring needs at least 2 effective bits")
    # one void item per (code, relevance) row: np.unique sorts these bytes
    # far faster than rows under axis=0.  Each score gathers its APs back
    # into query order, so the mean sums the same values in the same order.
    rows = np.hstack([q.astype(np.int8), rel])
    _, first, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    q, rel = q[first], rel[first]
    # without bit b the key K - a.b becomes key - 1 + q_b g_b.  The packed
    # values shift by exact integers, so every ranking, ties included, is
    # the direct computation's bit for bit.
    packed = _packed(_keys(q, g), k, rel)
    step = 2 * g.shape[0]
    packed -= step
    # C order: astype keeps the transposed layout by default, and a bit's
    # shift below would then read its row with a K-element stride
    q_bits = q.T.astype(packed.dtype, order="C")
    g_steps = (step * g.T).astype(packed.dtype, order="C")
    ranked = np.empty_like(packed)
    scores = np.empty(k)
    for bit in range(k):
        np.multiply.outer(q_bits[bit], g_steps[bit], out=ranked)
        ranked += packed
        ranked.sort(axis=1)
        ranked &= 1
        scores[bit] = _ap_per_query(ranked)[inverse].mean()
    return scores


def propagate_scores(scores, adjacency) -> np.ndarray:
    """One diffusion step: p'_i = p_i + 1/2 sum_j a_ij (p_j - p_i).

    Symmetry of A makes the step conservative: sum(p') == sum(p).
    """
    p = np.asarray(scores, dtype=np.float64).ravel()
    a = np.asarray(adjacency, dtype=np.float64)
    if a.shape != (p.size, p.size):
        raise ValueError(
            f"adjacency shape {a.shape} does not match {p.size} scores"
        )
    return p + 0.5 * (a @ p - p * a.sum(axis=1))


def active_loss(propagated) -> float:
    """Total score gap after diffusion: sum over ordered i != j of |p'_i - p'_j|."""
    p = np.asarray(propagated, dtype=np.float64).ravel()
    return float(np.abs(p[:, None] - p[None, :]).sum())


def active_grad(scores, propagated) -> np.ndarray:
    """Adjacency gradient of active_loss.

    For i < j:  dA_ij = dA_ji = sign(p'_i - p'_j) * (p_j - p_i), with
    sign(0) = +1.  Cross-pair dependencies through the diffusion are
    ignored on purpose; this is the update rule the layer is defined by.

    A step A - lr * dA therefore raises A_ij by lr * |p_i - p_j| where
    p' keeps the order of p_i and p_j (everywhere at A = 0, where the
    gradient is exactly -|p_i - p_j|) and lowers it by as much where p'
    reverses that order.  Equal scores p_i == p_j give exactly 0.
    """
    p = np.asarray(scores, dtype=np.float64).ravel()
    pp = np.asarray(propagated, dtype=np.float64).ravel()
    if p.size != pp.size:
        raise ValueError("scores and propagated scores differ in length")
    signs = sign_pm1(pp[:, None] - pp[None, :])
    gaps = p[None, :] - p[:, None]
    upper = np.triu(signs * gaps, k=1)
    return upper + upper.T


def apply_active_step(adjacency, adjacency_grad,
                      nm_learning_rate: float) -> np.ndarray:
    """A - nm_learning_rate * dA, as a new array."""
    a = np.asarray(adjacency, dtype=np.float64)
    da = np.asarray(adjacency_grad, dtype=np.float64)
    if da.shape != a.shape:
        raise ValueError(
            f"gradient shape {da.shape} does not match adjacency {a.shape}"
        )
    if not np.array_equal(da, da.T) or np.any(np.diagonal(da) != 0.0):
        raise ValueError("adjacency gradient must be symmetric, zero diagonal")
    return a - nm_learning_rate * da


def groups_after_truncation(adjacency, joins: int) -> list[list[int]]:
    """Connected components after `joins` joins along the strongest edges.

    Edges are ranked by adjacency value, ties by lexicographically
    smallest (i, j).  An edge inside one component is skipped, and the
    walk stops after `joins` edges have each joined two components, so
    exactly `joins` groups go.  Pure function of (A, joins); the only
    place edges are ranked.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    if not 0 <= joins <= n - 1:
        raise ValueError(f"joins must be in [0, {n - 1}], got {joins}")
    rows, cols = np.triu_indices(n, 1)
    # highest value first; equal values stay in lexicographic (i, j) order
    ranked = np.argsort(-a[rows, cols], kind="stable")
    # each node -> the smallest node of its component
    first = list(range(n))
    for i, j in zip(rows[ranked].tolist(), cols[ranked].tolist()):
        if joins == 0:
            break
        joined = (first[i], first[j])
        if joined[0] != joined[1]:
            first = [min(joined) if f in joined else f for f in first]
            joins -= 1
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(first[i], []).append(i)
    return _sorted_groups(groups.values())


def truncate(graph: MergeGraph, adjacency, joins: int) -> MergeGraph:
    """Merge the groups of `graph` by `joins` joins along a round adjacency.

    The adjacency has one node per current group.  Each component left by
    groups_after_truncation becomes one group of the returned partition,
    holding every bit of the groups it joins.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.shape != (graph.n_groups, graph.n_groups):
        raise ValueError(
            f"adjacency shape {a.shape} does not match {graph.n_groups} groups"
        )
    return MergeGraph.from_partition(graph.n_nodes, [
        [bit for node in component for bit in graph.groups[node]]
        for component in groups_after_truncation(a, joins)])


def draw_choices(graph: MergeGraph, rng) -> list[int]:
    """One uniformly chosen member per group (shared by a whole batch).

    Singleton groups choose their sole member without consuming randomness.
    """
    return [members[0] if len(members) == 1 else
            members[int(rng.integers(len(members)))]
            for members in graph.groups]


def _checked_route(graph: MergeGraph, u, choices):
    """Checked (outputs, chosen indices) for the frozen route's functions."""
    v = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if v.shape[-1] != graph.n_nodes:
        raise ValueError(
            f"got {v.shape[-1]} values for {graph.n_nodes} nodes"
        )
    chosen = np.asarray(choices, dtype=np.intp)
    if chosen.shape != (graph.n_groups,):
        raise ValueError("one choice per group required")
    for gid, c in enumerate(chosen.tolist()):
        if c not in graph.groups[gid]:
            raise ValueError(f"choice {c} is not a member of group {gid}")
    return v, chosen


def _tie_residual(graph: MergeGraph, rows, chosen) -> np.ndarray:
    """R_i = u_i - sign(u_c(g)) for every bit i, g its group, per row."""
    return rows - sign_pm1(rows[..., chosen])[..., graph.group_of]


def apply_choices(graph: MergeGraph, outputs, choices) -> np.ndarray:
    """Merged outputs: each group forwards the value of its chosen member.

    Accepts a single vector or a batch (rows).
    """
    v, chosen = _checked_route(graph, outputs, choices)
    return v[..., chosen]


def frozen_loss(graph: MergeGraph, u, choices) -> float:
    """Tie-members-together penalty for one vector (or a batch).

    sum over groups g, members i != c(g) of (u_i - sign(u_c(g)))^2, where
    c(g) is the chosen member of g.
    """
    v, chosen = _checked_route(graph, u, choices)
    resid = _tie_residual(graph, v, chosen).reshape(-1, graph.n_nodes)
    free = [i for g, c in zip(graph.groups, chosen) for i in g if i != c]
    total = 0.0
    # one column sum per free member, added in group/member order: the
    # order fixes the rounding of the reported loss
    for column in np.ascontiguousarray((resid[:, free] ** 2).T).sum(axis=1):
        total += float(column)
    return total


def frozen_grads(graph: MergeGraph, u, choices, d_merged) -> np.ndarray:
    """Route gradients from merged outputs back to the member nodes.

    The chosen member c of each group receives the upstream gradient; every
    other member i receives 2 (u_i - sign(u_c)), the gradient of
    frozen_loss with the sign treated as constant.  Accepts a single
    vector or a batch (rows).
    """
    v, chosen = _checked_route(graph, u, choices)
    d = np.asarray(d_merged, dtype=np.float64)
    if d.shape != v.shape[:-1] + (graph.n_groups,):
        raise ValueError(
            f"merged gradient shape {d.shape} does not match "
            f"{v.shape[:-1] + (graph.n_groups,)}"
        )
    out = 2.0 * _tie_residual(graph, v, chosen)
    out[..., chosen] = d
    return out


_EVAL_BLOCK_ROWS = 2048


def eval_forward(graph: MergeGraph, u) -> np.ndarray:
    """Evaluation-mode codes: per group, the majority-vote sign.

    code_g = sign(sum over members of sign(u_i)) with inner sign(0) = +1;
    the outer sign keeps 0 for exact ties, so outputs live in {-1, 0, +1}.
    The member sums are sums of +-1 values, so sign(U) @ M is exact.
    Accepts a single vector or a batch (rows).
    """
    v = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if v.shape[-1] != graph.n_nodes:
        raise ValueError(
            f"got {v.shape[-1]} values for {graph.n_nodes} nodes"
        )
    rows = v.reshape(-1, graph.n_nodes)
    codes = np.empty((rows.shape[0], graph.n_groups))
    # blocks of rows keep the temporaries small: one product over a
    # 20k-row gallery raised peak RSS by about 17 MB
    for start in range(0, rows.shape[0], _EVAL_BLOCK_ROWS):
        block = slice(start, start + _EVAL_BLOCK_ROWS)
        codes[block] = np.sign(sign_pm1(rows[block]) @ graph.membership)
    return codes.reshape(v.shape[:-1] + (graph.n_groups,))
