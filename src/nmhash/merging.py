"""Progressive merging of redundant code bits.

Merging happens in rounds on top of the encoder outputs.  Each round has
two phases:

* Active: every current group is one node and the round learns a
  symmetric adjacency matrix A over those nodes.  Per minibatch, each bit k
  gets a score p_k (the retrieval MAP with bit k deleted, so redundant bits
  score high), scores diffuse one step along A, and A descends the pairwise
  score-gap loss sum_{i != j} |p'_i - p'_j|.  Bits whose scores the
  diffusion can equalize cheaply end up strongly connected.  A is a plain
  array; the caller owns it.

* Frozen: the top-m adjacency entries are kept and their connected
  components become merge groups (truncate).  During training each group
  forwards one randomly chosen member bit and pulls the other members
  toward the sign of the chosen one; at evaluation a group emits the
  majority-vote sign of its members (0 on ties).

A MergeGraph is the cumulative partition of the encoder bits into groups.
Group lists are always sorted (members ascending, groups by first member),
so everything downstream is deterministic.
"""

from __future__ import annotations

import numpy as np

from .metrics import _ap_per_query, as_code_matrix, relevance_matrix, sign_pm1


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
    redundant.  Needs at least 2 columns.
    """
    g = as_code_matrix(gallery_codes)
    q = as_code_matrix(query_codes)
    if g.shape[1] != q.shape[1]:
        raise ValueError(
            f"code length mismatch: {g.shape[1]} vs {q.shape[1]}"
        )
    k = g.shape[1]
    if k < 2:
        raise ValueError("scoring needs at least 2 bits")
    rel = relevance_matrix(query_labels, gallery_labels)
    if rel.shape != (q.shape[0], g.shape[0]):
        raise ValueError("label counts do not match code matrix rows")
    # dot products of {-1,0,1} codes are exact, so removing one column by
    # subtracting its outer product reproduces the direct computation
    # bit for bit, ranking ties included.
    dots = q @ g.T
    scores = np.empty(k)
    for bit in range(k):
        dots_k = dots - np.outer(q[:, bit], g[:, bit])
        dist = ((k - 1) - dots_k) / 2.0
        order = np.argsort(dist, axis=1, kind="stable")
        rel_ranked = np.take_along_axis(rel, order, axis=1)
        scores[bit] = _ap_per_query(rel_ranked).mean()
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


def _ranked_pairs(adjacency):
    n = adjacency.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # highest value first; equal values fall back to lexicographic (i, j)
    pairs.sort(key=lambda ij: (-adjacency[ij[0], ij[1]], ij[0], ij[1]))
    return pairs


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def groups_after_truncation(adjacency, m: int) -> list[list[int]]:
    """Connected components after keeping only the m largest edges.

    Edges are ranked by adjacency value, ties by lexicographically smallest
    (i, j).  Pure function of (A, m); the only place edges are ranked.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise ValueError(f"m must be in [0, {max_edges}], got {m}")
    uf = _UnionFind(n)
    for i, j in _ranked_pairs(a)[:m]:
        uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return _sorted_groups(groups.values())


def truncate(graph: MergeGraph, adjacency, m: int) -> MergeGraph:
    """Merge the groups of `graph` along the top-m edges of a round adjacency.

    The adjacency has one node per current group.  Each component of its
    top-m edges becomes one group of the returned partition, holding every
    bit of the groups it joins.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.shape != (graph.n_groups, graph.n_groups):
        raise ValueError(
            f"adjacency shape {a.shape} does not match {graph.n_groups} groups"
        )
    return MergeGraph.from_partition(graph.n_nodes, [
        [bit for node in component for bit in graph.groups[node]]
        for component in groups_after_truncation(a, m)])


def draw_choices(graph: MergeGraph, rng) -> list[int]:
    """One uniformly chosen member per group (shared by a whole batch).

    Singleton groups choose their sole member without consuming randomness.
    """
    return [members[0] if len(members) == 1 else
            members[int(rng.integers(len(members)))]
            for members in graph.groups]


def apply_choices(graph: MergeGraph, outputs, choices) -> np.ndarray:
    """Merged outputs: each group forwards the value of its chosen member.

    Accepts a single vector or a batch (rows).
    """
    u = np.asarray(outputs, dtype=np.float64)
    if len(choices) != graph.n_groups:
        raise ValueError("one choice per group required")
    return u[..., list(choices)]


def frozen_loss(graph: MergeGraph, u, choices) -> float:
    """Tie-members-together penalty for one vector (or a batch).

    sum over groups g, members i != c(g) of (u_i - sign(u_c(g)))^2, where
    c(g) is the chosen member of g.
    """
    v = np.atleast_2d(np.asarray(u, dtype=np.float64))
    total = 0.0
    # one column sum per free member, added in group/member order: the
    # order fixes the rounding of the reported loss
    for members, choice in zip(graph.groups, choices):
        c = int(choice)
        target = sign_pm1(v[:, c])
        for i in members:
            if i != c:
                total += float(((v[:, i] - target) ** 2).sum())
    return total


def frozen_grads(graph: MergeGraph, u, choices, d_merged) -> np.ndarray:
    """Route gradients from merged outputs back to the member nodes.

    The chosen member c of each group receives the upstream gradient; every
    other member i receives 2 (u_i - sign(u_c)), the gradient of
    frozen_loss with the sign treated as constant.  Accepts a single
    vector or a batch (rows).
    """
    v = np.asarray(u, dtype=np.float64)
    single = v.ndim == 1
    v2 = np.atleast_2d(v)
    d2 = np.atleast_2d(np.asarray(d_merged, dtype=np.float64))
    if d2.shape != (v2.shape[0], graph.n_groups):
        raise ValueError(
            f"merged gradient shape {d2.shape} does not match "
            f"({v2.shape[0]}, {graph.n_groups})"
        )
    chosen = np.asarray(choices, dtype=np.intp)
    if chosen.shape != (graph.n_groups,):
        raise ValueError("one choice per group required")
    for gid, c in enumerate(chosen.tolist()):
        if c not in graph.groups[gid]:
            raise ValueError(f"choice {c} is not a member of group {gid}")
    target = sign_pm1(v2[:, chosen])
    out = 2.0 * (v2 - target[:, graph.group_of])
    out[:, chosen] = d2
    return out[0] if single else out


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
