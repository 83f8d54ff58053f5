"""Merge partition: scoring, diffusion, truncation, frozen phase, voting."""

import itertools

import numpy as np
import pytest

from nmhash.data import generate_synthetic
from nmhash.merging import (
    MergeGraph,
    active_grad,
    active_loss,
    apply_active_step,
    apply_choices,
    draw_choices,
    eval_forward,
    frozen_grads,
    frozen_loss,
    groups_after_truncation,
    propagate_scores,
    score_neurons,
    truncate,
)
from nmhash.network import SgdConfig
from nmhash.training import ExperimentConfig, TrainingRun
from oracles import brute_force_map, naive_propagate, top_m_components


def _random_symmetric(n, rng, scale=0.1):
    a = rng.uniform(0, scale, size=(n, n))
    a = np.triu(a, 1)
    return a + a.T


# --- graph construction and validation --------------------------------------

def _singletons(n):
    return MergeGraph.from_partition(n, [[i] for i in range(n)])


def test_initial_graph_is_active_singletons():
    # the first active round starts from singleton groups and a zero
    # adjacency over them
    cfg = ExperimentConfig(b_in=6, b_out=4, m=2, base_epochs=1, n0_epochs=1,
                           n1_epochs=1, batch_size=32, hidden_dims=(8,),
                           backbone_sgd=SgdConfig(learning_rate=1e-7),
                           n_validation=10, n_query=10, seed=0)
    run = TrainingRun(cfg, generate_synthetic(2, 4, 30, 1.0, seed=0))
    assert run.round_adjacency is None
    run.run(stop_after=1)
    assert run.stage == "active"
    assert run.graph.groups == [[i] for i in range(6)]
    np.testing.assert_array_equal(run.graph.membership, np.eye(6))
    np.testing.assert_array_equal(run.round_adjacency, np.zeros((6, 6)))


def test_from_partition_builds_binary_components():
    g = MergeGraph.from_partition(4, [[0, 2], [1], [3]])
    assert g.groups == [[0, 2], [1], [3]]
    assert g.n_groups == 3
    np.testing.assert_array_equal(g.group_of, [0, 1, 0, 2])
    np.testing.assert_array_equal(g.membership, [[1, 0, 0],
                                                 [0, 1, 0],
                                                 [1, 0, 0],
                                                 [0, 0, 1]])


def test_validate_rejects_inconsistent_graphs():
    for n, groups in [(2, [[0], [0]]),       # repeated node
                      (2, [[0]]),            # missing node
                      (2, [[0], [1], [2]]),  # node out of range
                      (2, [[0, 1], []])]:    # empty group
        with pytest.raises(ValueError):
            MergeGraph.from_partition(n, groups)


def test_groups_are_canonically_sorted():
    g = MergeGraph.from_partition(4, [[3], [2, 0], [1]])
    assert g.groups == [[0, 2], [1], [3]]


# --- per-bit scores ----------------------------------------------------------

def test_score_constant_bit_higher_than_separating_bit():
    # bit 0 splits the two classes, bit 1 carries nothing; deleting bit 0
    # must hurt retrieval more
    gallery = np.array([[1, 1], [1, 1], [-1, 1], [-1, 1]], dtype=float)
    labels = [{0}, {0}, {1}, {1}]
    p = score_neurons(gallery, labels, gallery, labels)
    assert p[0] < p[1]
    assert p[1] == 1.0  # bit 0 alone ranks perfectly


def test_scores_match_explicit_column_deletion():
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        ng = int(rng.integers(2, 7))
        nq = int(rng.integers(1, 5))
        g = np.where(rng.random((ng, k)) < 0.5, -1, 1)
        q = np.where(rng.random((nq, k)) < 0.5, -1, 1)
        gl = [{int(rng.integers(0, 2))} for _ in range(ng)]
        ql = [{int(rng.integers(0, 2))} for _ in range(nq)]
        p = score_neurons(g, gl, q, ql)
        assert ((p >= 0) & (p <= 1)).all()
        for bit in range(k):
            keep = [c for c in range(k) if c != bit]
            expected, _ = brute_force_map(q[:, keep], ql, g[:, keep], gl)
            assert p[bit] == pytest.approx(expected, abs=1e-12)


def test_score_needs_two_bits():
    with pytest.raises(ValueError):
        score_neurons([[1]], [{0}], [[1]], [{0}])


# --- score diffusion ---------------------------------------------------------

def test_propagate_two_node_hand_value():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(propagate_scores([0.6, 0.4], a), [0.5, 0.5])


def test_propagate_identity_at_zero_adjacency():
    p = np.array([0.9, 0.1, 0.5])
    np.testing.assert_array_equal(propagate_scores(p, np.zeros((3, 3))), p)


def test_propagate_matches_loop_oracle_and_conserves_sum():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        p = rng.random(n)
        a = _random_symmetric(n, rng, scale=0.3)
        pp = propagate_scores(p, a)
        np.testing.assert_allclose(pp, naive_propagate(p, a), atol=1e-14)
        assert abs(pp.sum() - p.sum()) < 1e-12


# --- active-phase loss and adjacency update ----------------------------------

def test_active_loss_hand_values():
    assert active_loss([0.6, 0.4]) == pytest.approx(0.4)
    assert active_loss([1.0, 0.0, 0.0]) == pytest.approx(4.0)
    assert active_loss([0.3, 0.3, 0.3]) == 0.0


def test_active_grad_hand_value():
    p = np.array([0.6, 0.4])
    da = active_grad(p, p)  # zero adjacency: diffusion is the identity
    assert da[0, 1] == pytest.approx(-0.2)
    np.testing.assert_array_equal(da, da.T)
    assert not np.diagonal(da).any()


def test_active_grad_negative_off_ties():
    # at A = 0 the rule reduces to -|p_i - p_j|: merging pressure only
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.random(int(rng.integers(2, 7)))
        da = active_grad(p, p)
        off = da[np.triu_indices(p.size, 1)]
        assert (off <= 0).all()


def test_active_grad_matches_pair_term_finite_difference():
    # d|p'_i - p'_j| / d a_ij, holding the symmetric tie a_ji = a_ij
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 6))
        p = rng.random(n)
        a = _random_symmetric(n, rng)
        pp = propagate_scores(p, a)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if abs(pp[i] - pp[j]) < 1e-3 or abs(p[i] - p[j]) < 1e-3:
            continue  # keep away from the |.| kink and from sign flips
        analytic = active_grad(p, pp)[i, j]

        def pair_term(val):
            trial = a.copy()
            trial[i, j] = trial[j, i] = val
            q = propagate_scores(p, trial)
            return abs(q[i] - q[j])

        h = 1e-6
        numeric = (pair_term(a[i, j] + h) - pair_term(a[i, j] - h)) / (2 * h)
        assert analytic == pytest.approx(numeric, rel=1e-6)
        checked += 1


def test_apply_active_step_hand_value():
    a = np.zeros((2, 2))
    da = np.array([[0.0, -0.2], [-0.2, 0.0]])
    stepped = apply_active_step(a, da, 0.01)
    assert stepped[0, 1] == pytest.approx(0.002)
    assert not a.any()  # returns a new array


def test_apply_active_step_zero_grad_is_identity():
    a = _random_symmetric(3, np.random.default_rng(2))
    np.testing.assert_array_equal(
        apply_active_step(a, np.zeros((3, 3)), 0.01), a)


def test_apply_active_step_rejects_bad_inputs():
    a = np.zeros((2, 2))
    with pytest.raises(ValueError):  # asymmetric
        apply_active_step(a, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.01)
    with pytest.raises(ValueError):  # nonzero diagonal
        apply_active_step(a, np.eye(2), 0.01)
    with pytest.raises(ValueError):  # shape mismatch
        apply_active_step(a, np.zeros((3, 3)), 0.01)


# --- truncation ---------------------------------------------------------------

def test_truncation_three_node_hand_case():
    a = np.array([[0.0, 0.5, 0.1],
                  [0.5, 0.0, 0.3],
                  [0.1, 0.3, 0.0]])
    assert groups_after_truncation(a, 1) == [[0, 1], [2]]
    assert groups_after_truncation(a, 2) == [[0, 1, 2]]
    assert groups_after_truncation(a, 0) == [[0], [1], [2]]


def test_truncate_snaps_exactly_m_edges():
    # the oracle builds exactly m edges and takes their components by BFS
    rng = np.random.default_rng(9)
    for n in (2, 3, 5, 7):
        for m in range(n * (n - 1) // 2 + 1):
            a = _random_symmetric(n, rng, scale=1.0)
            a[0, n - 1] = a[n - 1, 0] = a[0, 1]  # one tied pair of values
            expected = top_m_components(a, m)
            assert groups_after_truncation(a, m) == expected
            assert truncate(_singletons(n), a, m).groups == expected


def test_truncate_tie_break_is_lexicographic():
    # all edges equal: m=2 must pick (0,1) and (0,2), never (1,2)
    a = np.ones((4, 4)) - np.eye(4)
    assert groups_after_truncation(a, 1) == [[0, 1], [2], [3]]
    assert groups_after_truncation(a, 2) == [[0, 1, 2], [3]]


def test_truncate_rejects_bad_m_and_shape():
    g = _singletons(3)
    with pytest.raises(ValueError):
        truncate(g, np.zeros((3, 3)), 4)
    with pytest.raises(ValueError):
        truncate(g, np.zeros((3, 3)), -1)
    merged = MergeGraph.from_partition(3, [[0, 1], [2]])
    with pytest.raises(ValueError):  # one adjacency node per group
        truncate(merged, np.zeros((3, 3)), 1)


def test_truncation_matches_pure_function():
    rng = np.random.default_rng(31)
    a = _random_symmetric(6, rng, scale=1.0)
    expected = groups_after_truncation(a, 4)
    assert truncate(_singletons(6), a, 4).groups == expected


def test_truncate_composes_round_groups_onto_partition():
    # nodes of the round adjacency are the current groups, in order
    g = MergeGraph.from_partition(6, [[0, 3], [1], [2, 5], [4]])
    a = np.zeros((4, 4))
    a[0, 2] = a[2, 0] = 1.0
    merged = truncate(g, a, 1)
    assert merged.groups == [[0, 2, 3, 5], [1], [4]]
    assert merged.n_nodes == 6
    assert g.groups == [[0, 3], [1], [2, 5], [4]]  # input untouched

    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        perm = rng.permutation(n).tolist()
        cuts = sorted(set(rng.integers(1, n, size=2).tolist()))
        parts = [perm[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
        g = MergeGraph.from_partition(n, parts)
        k = g.n_groups
        a = _random_symmetric(k, rng, scale=1.0)
        m = int(rng.integers(0, k * (k - 1) // 2 + 1))
        expected = sorted((sorted(bit for node in comp for bit in g.groups[node])
                           for comp in top_m_components(a, m)),
                          key=lambda grp: grp[0])
        assert truncate(g, a, m).groups == expected


# --- frozen phase -------------------------------------------------------------

def test_apply_choices_emits_chosen_member():
    g = MergeGraph.from_partition(3, [[0, 1], [2]])
    u = np.array([0.7, -0.2, 0.9])
    choices = draw_choices(g, np.random.default_rng(0))
    merged = apply_choices(g, u, choices)
    assert merged.shape == (2,)
    assert choices[0] in (0, 1)
    assert merged[0] == u[choices[0]]
    assert choices[1] == 2
    assert merged[1] == pytest.approx(0.9)
    with pytest.raises(ValueError):
        apply_choices(g, u, [0])


def test_draw_choices_singletons_skip_rng():
    g = MergeGraph.from_partition(3, [[0], [1], [2]])
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    choices = draw_choices(g, rng)
    assert rng.bit_generator.state == before
    assert choices == [0, 1, 2]
    np.testing.assert_allclose(apply_choices(g, [0.1, 0.2, 0.3], choices),
                               [0.1, 0.2, 0.3])
    # a mixed partition draws exactly one number per non-singleton group
    mixed = MergeGraph.from_partition(5, [[0, 3], [1], [2, 4]])
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    draw_choices(mixed, rng_a)
    rng_b.integers(2)
    rng_b.integers(2)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_choice_frequency_is_uniform():
    g = MergeGraph.from_partition(2, [[0, 1]])
    rng = np.random.default_rng(123)
    picks = [draw_choices(g, rng)[0] for _ in range(10_000)]
    share = picks.count(0) / len(picks)
    assert 0.48 <= share <= 0.52


def test_apply_choices_matches_forward():
    g = MergeGraph.from_partition(4, [[0, 3], [1], [2]])
    u = np.random.default_rng(6).normal(size=(5, 4))
    choices = draw_choices(g, np.random.default_rng(2))
    merged = apply_choices(g, u, choices)
    assert merged.shape == (5, 3)
    for row in range(5):
        np.testing.assert_array_equal(merged[row], u[row][choices])


def test_frozen_loss_and_grads_hand_case():
    # group {0,1}, chosen 0: the free member is pulled toward sign(0.7) = 1
    g = MergeGraph.from_partition(2, [[0, 1]])
    u = np.array([0.7, -0.2])
    upstream = np.array([3.3])
    assert frozen_loss(g, u, [0]) == pytest.approx((-0.2 - 1.0) ** 2)
    du = frozen_grads(g, u, [0], upstream)
    assert du[0] == pytest.approx(3.3)
    assert du[1] == pytest.approx(2 * (-0.2 - 1.0))  # -2.4


def test_frozen_grads_all_singletons_pass_upstream_verbatim():
    g = MergeGraph.from_partition(3, [[0], [1], [2]])
    u = np.array([[0.5, -0.5, 2.0]])
    upstream = np.array([[1.0, -2.0, 0.25]])
    np.testing.assert_array_equal(
        frozen_grads(g, u, [0, 1, 2], upstream), upstream)


def test_frozen_grads_batch_matches_vector_form():
    g = MergeGraph.from_partition(3, [[0, 2], [1]])
    rng = np.random.default_rng(14)
    u = rng.normal(size=(4, 3)) + 0.3
    d = rng.normal(size=(4, 2))
    batch = frozen_grads(g, u, [2, 1], d)
    for row in range(4):
        np.testing.assert_array_equal(
            batch[row], frozen_grads(g, u[row], [2, 1], d[row]))


def test_frozen_grads_rejects_non_member_choice():
    g = MergeGraph.from_partition(3, [[0, 2], [1]])
    u = np.array([0.5, -0.5, 2.0])
    d = np.zeros(2)
    for bad in ([1, 1], [0, 2], [-1, 1], [3, 1]):
        with pytest.raises(ValueError, match="not a member"):
            frozen_grads(g, u, bad, d)
    with pytest.raises(ValueError):
        frozen_grads(g, u, [0], d)


def test_frozen_loss_grad_matches_finite_differences():
    # with zero upstream the routed gradient is exactly the penalty grad
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        cut = int(rng.integers(1, n))
        groups = [list(range(cut)), *[[i] for i in range(cut, n)]]
        g = MergeGraph.from_partition(n, groups)
        u = rng.uniform(0.2, 1.5, size=n) * \
            np.where(rng.random(n) < 0.5, -1.0, 1.0)
        choices = draw_choices(g, rng)
        analytic = frozen_grads(g, u, choices, np.zeros(g.n_groups))
        h = 1e-6
        for i in range(n):
            hi, lo = u.copy(), u.copy()
            hi[i] += h
            lo[i] -= h
            numeric = (frozen_loss(g, hi, choices) -
                       frozen_loss(g, lo, choices)) / (2 * h)
            assert analytic[i] == pytest.approx(numeric, abs=1e-6)


# --- evaluation-mode voting ----------------------------------------------------

def test_vote_agreeing_signs_pass_through():
    g = MergeGraph.from_partition(2, [[0, 1]])
    assert eval_forward(g, [0.3, 0.8]) == [1.0]
    assert eval_forward(g, [-0.3, -0.8]) == [-1.0]


def test_vote_disagreeing_pair_is_zero():
    g = MergeGraph.from_partition(2, [[0, 1]])
    assert eval_forward(g, [0.3, -0.8]) == [0.0]


def test_vote_majority_of_three():
    g = MergeGraph.from_partition(3, [[0, 1, 2]])
    assert eval_forward(g, [-0.1, -0.9, 0.5]) == [-1.0]


def test_vote_exhaustive_small_groups():
    # every sign pattern for group sizes 1..4: the vote is the sign of the
    # vote sum, 0 exactly on ties (even sizes only)
    for size in range(1, 5):
        g = MergeGraph.from_partition(size, [list(range(size))])
        for pattern in itertools.product((-1.0, 1.0), repeat=size):
            total = sum(pattern)
            expected = 0.0 if total == 0 else (1.0 if total > 0 else -1.0)
            assert eval_forward(g, np.array(pattern) * 0.5) == [expected]


def test_vote_is_odd_away_from_zero():
    g = MergeGraph.from_partition(4, [[0, 1], [2], [3]])
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.uniform(0.1, 2.0, size=4) * \
            np.where(rng.random(4) < 0.5, -1.0, 1.0)
        np.testing.assert_array_equal(eval_forward(g, -u), -eval_forward(g, u))


def test_vote_batch_rows_independent():
    g = MergeGraph.from_partition(2, [[0, 1]])
    batch = np.array([[0.3, 0.8], [0.3, -0.8], [-1.0, -1.0]])
    np.testing.assert_array_equal(eval_forward(g, batch),
                                  [[1.0], [0.0], [-1.0]])
    # a batch long enough to be encoded in several row blocks
    g = MergeGraph.from_partition(5, [[0, 3], [1, 2, 4]])
    batch = np.random.default_rng(10).normal(size=(4101, 5))
    np.testing.assert_array_equal(
        eval_forward(g, batch), np.stack([eval_forward(g, row) for row in batch]))


def test_vote_on_singletons_is_sign():
    g = _singletons(3)
    np.testing.assert_array_equal(eval_forward(g, [0.5, -0.5, 0.0]),
                                  [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        eval_forward(g, [0.5, -0.5])  # width must match n_nodes
