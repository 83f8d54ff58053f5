"""Pairwise hashing losses: hand-derived values, identities, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmhash.losses import relaxed_hash_loss, relaxed_hash_loss_grad
from oracles import central_difference, discrete_hash_loss, relative_error


# --- discrete loss on binary codes --------------------------------------------

def test_discrete_self_mode_counts_ordered_pairs():
    # an antipodal pair marked similar appears as (0,1) and (1,0), each
    # giving (-8 - 8)^2; on binary codes the relaxed loss is the same sum
    k = 8
    codes = np.vstack([np.ones(k), -np.ones(k)])
    s = np.ones((2, 2))
    assert discrete_hash_loss(codes, s, k) == 512.0
    assert relaxed_hash_loss(codes, s, eta=1200.0).total == 512.0


def test_discrete_loss_zero_at_perfect_codes():
    codes = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    s = np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]], dtype=float)
    assert discrete_hash_loss(codes, s, 2) == 0.0
    assert relaxed_hash_loss(codes, s, eta=1200.0).total == 0.0


# --- relaxed loss -----------------------------------------------------------

def test_relaxed_two_row_hand_value():
    # u1 = u2 = (1,1) but s = -1: each ordered pair gives (2 - (-2))^2
    u = np.ones((2, 2))
    s = -np.ones((2, 2))
    val = relaxed_hash_loss(u, s, eta=0.0)
    assert val.pairwise_term == 32.0
    assert val.quantization_term == 0.0
    assert val.total == 32.0


def test_relaxed_single_row_quantization_only():
    val = relaxed_hash_loss([[0.5]], [[1]], eta=1.0)
    assert val.pairwise_term == 0.0
    assert val.quantization_term == pytest.approx(0.25)
    assert val.total == pytest.approx(0.25)


def test_relaxed_total_combines_terms():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(4, 3))
    s = np.where(rng.random((4, 4)) < 0.5, -1.0, 1.0)
    s = np.triu(s) + np.triu(s, 1).T  # symmetric
    for eta in (0.0, 1.0, 1200.0):
        val = relaxed_hash_loss(u, s, eta)
        assert val.total == pytest.approx(
            val.pairwise_term + eta * val.quantization_term)
        assert val.pairwise_term >= 0.0
        assert val.quantization_term >= 0.0


def test_relaxed_loss_shape_checks():
    with pytest.raises(ValueError):
        relaxed_hash_loss([[1, 1]], [[1, 1]], eta=0.0)  # S must be 1x1
    with pytest.raises(ValueError):
        relaxed_hash_loss([[1, 1]], [[0]], eta=0.0)


def test_relaxed_rejects_bad_eta_and_nonfinite():
    for fn in (relaxed_hash_loss, relaxed_hash_loss_grad):
        for eta in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be finite"):
                fn([[0.5, -0.2]], [[1]], eta=eta)
        with pytest.raises(ValueError):
            fn([[np.inf]], [[1]], eta=1.0)
        with pytest.raises(ValueError):
            fn(np.zeros((2, 0)), np.ones((2, 2)), eta=1.0)  # K = 0


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.sampled_from([-1.0, 1.0]),
                          min_size=k, max_size=k),
                 min_size=1, max_size=5))),
    st.randoms(use_true_random=False))
def test_relaxed_equals_discrete_on_binary_codes(codes_k, rnd):
    k, rows = codes_k
    codes = np.array(rows)
    n = codes.shape[0]
    s = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s[i, j] = s[j, i] = rnd.choice([-1.0, 1.0])
    val = relaxed_hash_loss(codes, s, eta=1200.0)
    # sign(u) == u on the hypercube corners, so eta drops out entirely
    assert val.quantization_term == 0.0
    assert val.total == discrete_hash_loss(codes, s, k)


# --- relaxed loss gradient --------------------------------------------------

def test_grad_single_row_quantization_hand_value():
    # d/du eta*(u - sign u)^2 = 2*(2 - 1) at u = 2, eta = 1
    g = relaxed_hash_loss_grad([[2.0]], [[1]], eta=1.0)
    np.testing.assert_allclose(g, [[2.0]])


def test_grad_zero_at_exact_solution():
    u = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    s = np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]], dtype=float)
    np.testing.assert_array_equal(
        relaxed_hash_loss_grad(u, s, eta=5.0), np.zeros((3, 2)))


def test_grad_matches_finite_differences():
    # central differences; coordinates held away from 0 so sign() is flat
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        u = rng.uniform(0.2, 1.5, size=(n, k)) * \
            np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
        s = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        s = np.triu(s) + np.triu(s, 1).T
        eta = float(rng.choice([0.0, 1.0, 1200.0]))
        analytic = relaxed_hash_loss_grad(u, s, eta)
        numeric = central_difference(
            lambda x: relaxed_hash_loss(x, s, eta).total, u)
        assert relative_error(analytic, numeric) < 1e-6


def test_grad_handles_asymmetric_similarity():
    # the (R + R^T) U form stays the exact derivative even when S is not
    # symmetric, which the row-wise textbook form would miss
    rng = np.random.default_rng(99)
    u = rng.uniform(0.3, 1.2, size=(3, 2))
    s = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
    analytic = relaxed_hash_loss_grad(u, s, eta=2.0)
    numeric = central_difference(
        lambda x: relaxed_hash_loss(x, s, eta=2.0).total, u)
    assert relative_error(analytic, numeric) < 1e-6
