"""Encoder network: init, forward/backward, dropout, SGD update rule."""

import copy

import numpy as np
import pytest

from nmhash.errors import ConfigError
from nmhash.network import (
    HashNet,
    SgdConfig,
    backward,
    forward,
    init_network,
    sgd_step,
)
from oracles import central_difference, relative_error


# --- initialization ---------------------------------------------------------

def test_init_shapes_and_bounds():
    net = init_network([8, 16, 6], seed=1)
    assert net.n_layers == 2
    assert net.input_dim == 8
    assert net.n_bits == 6
    assert net.weights[0].shape == (8, 16)
    assert net.weights[1].shape == (16, 6)
    assert abs(net.weights[0]).max() <= 1 / np.sqrt(8)
    assert abs(net.weights[1]).max() <= 1 / np.sqrt(16)
    for b in net.biases:
        assert not b.any()


def test_init_is_deterministic_per_seed():
    a = init_network([4, 7, 3], seed=42)
    b = init_network([4, 7, 3], seed=42)
    c = init_network([4, 7, 3], seed=43)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))


def test_init_rejects_bad_dims():
    with pytest.raises(ConfigError):
        init_network([5], seed=0)
    with pytest.raises(ConfigError):
        init_network([5, 0, 3], seed=0)


def test_net_refuses_arrays_that_do_not_fit_layer_dims():
    net = init_network([3, 4, 2], seed=0)
    w, b = net.weights, net.biases
    for dims, weights, biases in [
            ((3, 4, 2), [w[0].T, w[1]], b),
            ((3, 4, 2), w, [b[0], b[0]]),
            ((3, 4, 2), w[:1], b[:1]),
            ((3, 4), w, b),
            ((3,), [], [])]:
        with pytest.raises(ValueError, match="do not fit layer_dims"):
            HashNet(dims, weights, biases)
    # arrays can fit a layer of width 0, which no net has
    with pytest.raises(ValueError, match="layer sizes must be >= 1"):
        HashNet((3, 0), [np.zeros((3, 0))], [np.zeros(0)])


# --- forward pass -----------------------------------------------------------

def test_forward_shapes_and_finiteness():
    rng = np.random.default_rng(3)
    net = init_network([8, 16, 6], seed=1)
    out, cache = forward(net, rng.normal(size=(10, 8)))
    assert out.shape == (10, 6)
    assert np.isfinite(out).all()
    assert len(cache["hidden_acts"]) == 1
    assert cache["masks"] == [None]


def test_forward_matches_manual_composition():
    net = init_network([3, 5, 2], seed=7)
    x = np.random.default_rng(0).normal(size=(4, 3))
    out, _ = forward(net, x)
    h = np.tanh(x @ net.weights[0] + net.biases[0])
    np.testing.assert_allclose(out, h @ net.weights[1] + net.biases[1])


def test_forward_input_validation():
    net = init_network([3, 4, 2], seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        forward(net, np.zeros(3))


# --- dropout ----------------------------------------------------------------

def test_dropout_zero_rate_draws_nothing():
    net = init_network([4, 6, 3], seed=2)
    x = np.random.default_rng(5).normal(size=(7, 4))
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    out_dropped, _ = forward(net, x, dropout_rate=0.0, rng=rng)
    assert rng.bit_generator.state == before
    out_plain, _ = forward(net, x)
    np.testing.assert_array_equal(out_dropped, out_plain)


def test_dropout_masks_only_last_hidden_layer():
    net = init_network([4, 6, 6, 3], seed=2)
    x = np.random.default_rng(5).normal(size=(20, 4))
    out, cache = forward(net, x, dropout_rate=0.5,
                         rng=np.random.default_rng(0))
    assert cache["masks"][0] is None
    mask = cache["masks"][1]
    assert mask is not None
    assert set(np.unique(mask)) <= {0.0, 2.0}  # inverted scaling at rate .5
    assert np.isfinite(out).all()


def test_dropout_requires_rng_and_hidden_layer():
    net = init_network([4, 6, 3], seed=2)
    x = np.zeros((2, 4))
    with pytest.raises(ConfigError):
        forward(net, x, dropout_rate=0.5)
    shallow = init_network([4, 3], seed=2)
    with pytest.raises(ConfigError):
        forward(shallow, x, dropout_rate=0.5, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        forward(net, x, dropout_rate=1.0, rng=np.random.default_rng(0))


def test_dropout_deterministic_given_rng_seed():
    net = init_network([4, 6, 3], seed=2)
    x = np.random.default_rng(5).normal(size=(9, 4))
    a, _ = forward(net, x, dropout_rate=0.3, rng=np.random.default_rng(77))
    b, _ = forward(net, x, dropout_rate=0.3, rng=np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)


# --- backward pass ----------------------------------------------------------

def _flatten_params(net):
    return np.concatenate([w.ravel() for w in net.weights] +
                          [b.ravel() for b in net.biases])


def _net_with_params(template, flat):
    net = copy.deepcopy(template)
    pos = 0
    for w in net.weights:
        w[...] = flat[pos:pos + w.size].reshape(w.shape)
        pos += w.size
    for b in net.biases:
        b[...] = flat[pos:pos + b.size]
        pos += b.size
    return net


def test_backward_matches_finite_differences():
    # scalar head: fixed random projection of the outputs
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 5)) for _ in range(3)]
        net = init_network(dims, seed=seed)
        x = rng.normal(size=(4, dims[0]))
        proj = rng.normal(size=(4, dims[-1]))

        out, cache = forward(net, x)
        grads = backward(net, cache, proj)
        analytic = np.concatenate(
            [dw.ravel() for dw, _ in grads] + [db.ravel() for _, db in grads])

        def scalar(flat):
            o, _ = forward(_net_with_params(net, flat), x)
            return float((o * proj).sum())

        numeric = central_difference(scalar, _flatten_params(net))
        assert relative_error(analytic, numeric) < 1e-6


def test_backward_through_dropout_mask():
    net = init_network([3, 5, 2], seed=4)
    x = np.random.default_rng(1).normal(size=(6, 3))
    out, cache = forward(net, x, dropout_rate=0.4,
                         rng=np.random.default_rng(8))
    proj = np.random.default_rng(2).normal(size=out.shape)
    grads = backward(net, cache, proj)
    analytic = np.concatenate(
        [dw.ravel() for dw, _ in grads] + [db.ravel() for _, db in grads])

    mask = cache["masks"][0]

    def scalar(flat):
        # replay the same mask: dropout as a fixed diagonal map
        trial = _net_with_params(net, flat)
        h = np.tanh(x @ trial.weights[0] + trial.biases[0]) * mask
        o = h @ trial.weights[1] + trial.biases[1]
        return float((o * proj).sum())

    numeric = central_difference(scalar, _flatten_params(net))
    assert relative_error(analytic, numeric) < 1e-6


def test_backward_rejects_wrong_gradient_shape():
    net = init_network([3, 4, 2], seed=0)
    _, cache = forward(net, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        backward(net, cache, np.zeros((5, 3)))


# --- SGD update -------------------------------------------------------------

def test_sgd_decay_only_hand_value():
    # w = 1, grad = 0, lr = 0.1, decay = 0.5: w - 0.1*0.5*1
    net = HashNet((1, 1), [np.array([[1.0]])], [np.array([0.0])])
    sgd_step(net, [(np.zeros((1, 1)), np.zeros(1))],
             SgdConfig(learning_rate=0.1, weight_decay=0.5))
    assert net.weights[0][0, 0] == pytest.approx(0.95)


def test_sgd_zero_grad_zero_decay_is_identity():
    net = init_network([3, 4, 2], seed=9)
    ref = copy.deepcopy(net)
    zero = [(np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(net.weights, net.biases)]
    sgd_step(net, zero, SgdConfig(learning_rate=0.5, weight_decay=0.0))
    for w, r in zip(net.weights, ref.weights):
        np.testing.assert_array_equal(w, r)


def test_sgd_updates_biases_too():
    net = HashNet((1, 1), [np.array([[0.0]])], [np.array([2.0])])
    sgd_step(net, [(np.zeros((1, 1)), np.array([1.0]))],
             SgdConfig(learning_rate=0.1, weight_decay=0.0))
    assert net.biases[0][0] == pytest.approx(1.9)


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        SgdConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        SgdConfig(learning_rate=1e-4, weight_decay=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="learning_rate"):
            SgdConfig(learning_rate=bad)
        with pytest.raises(ConfigError, match="weight_decay"):
            SgdConfig(weight_decay=bad)


def test_sgd_rejects_mismatched_grads():
    net = init_network([3, 4, 2], seed=0)
    with pytest.raises(ValueError):
        sgd_step(net, [(np.zeros((3, 4)), np.zeros(4))],
                 SgdConfig())  # one pair short
    (dw0, db0), (dw1, db1) = [(np.zeros_like(w), np.zeros_like(b))
                              for w, b in zip(net.weights, net.biases)]
    with pytest.raises(ValueError,
                       match="weight gradient shape mismatch at layer 1"):
        sgd_step(net, [(dw0, db0), (dw1.T, db1)], SgdConfig())
    with pytest.raises(ValueError,
                       match="bias gradient shape mismatch at layer 0"):
        sgd_step(net, [(dw0, db1), (dw1, db1)], SgdConfig())
