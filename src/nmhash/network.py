"""Feedforward hashing encoder with explicit forward and backward passes.

The network is a stack of affine layers; every layer except the last is
followed by tanh.  The final layer is pure affine and its width is the
code length: codes are recovered as the sign of the outputs.  All
arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class SgdConfig:
    """Plain SGD with decoupled-by-formula L2: step = lr*(grad + wd*theta)."""

    learning_rate: float = 1e-4
    weight_decay: float = 1e-5

    def __post_init__(self):
        # written so that NaN fails each range check
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )


@dataclass
class HashNet:
    """Parameters of the encoder.

    weights[l] has shape (layer_dims[l], layer_dims[l+1]); biases[l] has
    shape (layer_dims[l+1],).  tanh applies after every layer except the
    last.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        dims = self.layer_dims
        pairs = list(zip(dims, dims[1:]))
        if not pairs or list(map(np.shape, self.weights)) != pairs \
                or list(map(np.shape, self.biases)) != [p[1:] for p in pairs]:
            raise ValueError(f"weights and biases do not fit layer_dims {dims}")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_bits(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_network(layer_dims, seed) -> HashNet:
    """Seeded initialization: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0.

    Same (layer_dims, seed) always yields bitwise-identical parameters.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError("layer_dims needs at least input and output sizes")
    if any(d < 1 for d in dims):
        raise ConfigError(f"all layer sizes must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return HashNet(dims, weights, biases)


def forward(net: HashNet, batch, dropout_rate: float = 0.0, rng=None):
    """Run a batch through the encoder; returns (outputs, cache).

    dropout_rate > 0 applies inverted dropout to the last hidden
    activation (the layer feeding the code outputs) and needs an rng;
    rate 0 draws nothing, so the caller's rng stream is untouched.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("batch must be 2-D (rows are items)")
    if x.shape[1] != net.input_dim:
        raise ValueError(
            f"batch width {x.shape[1]} does not match input dim "
            f"{net.input_dim}"
        )
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if dropout_rate > 0.0 and net.n_layers < 2:
        raise ConfigError("dropout needs at least one hidden layer")
    if dropout_rate > 0.0 and rng is None:
        raise ConfigError("dropout needs an rng")

    layer_inputs = [x]
    hidden_acts = []
    masks = [None] * (net.n_layers - 1)
    h = x
    for layer in range(net.n_layers - 1):
        z = h @ net.weights[layer] + net.biases[layer]
        h = np.tanh(z)
        hidden_acts.append(h)
        if dropout_rate > 0.0 and layer == net.n_layers - 2:
            keep = 1.0 - dropout_rate
            masks[layer] = (rng.random(h.shape) < keep) / keep
            h = h * masks[layer]
        layer_inputs.append(h)
    outputs = h @ net.weights[-1] + net.biases[-1]
    cache = {"layer_inputs": layer_inputs, "hidden_acts": hidden_acts,
             "masks": masks}
    return outputs, cache


def backward(net: HashNet, cache, d_outputs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate d_outputs; returns [(dW, db)] aligned with the layers."""
    d = np.asarray(d_outputs, dtype=np.float64)
    layer_inputs = cache["layer_inputs"]
    if d.shape != (layer_inputs[0].shape[0], net.n_bits):
        raise ValueError(
            f"gradient shape {d.shape} does not match outputs "
            f"({layer_inputs[0].shape[0]}, {net.n_bits})"
        )
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * net.n_layers
    for layer in range(net.n_layers - 1, -1, -1):
        a = layer_inputs[layer]
        grads[layer] = (a.T @ d, d.sum(axis=0))
        if layer == 0:
            break
        da = d @ net.weights[layer].T
        if cache["masks"][layer - 1] is not None:
            da = da * cache["masks"][layer - 1]
        h = cache["hidden_acts"][layer - 1]
        # tanh' expressed through the activation value itself
        d = da * (1.0 - h ** 2)
    return grads


def sgd_step(net: HashNet, grads, cfg: SgdConfig) -> HashNet:
    """In-place SGD update of every weight and bias; returns the net."""
    if len(grads) != net.n_layers:
        raise ValueError(
            f"got {len(grads)} gradient pairs for {net.n_layers} layers"
        )
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for layer, (dw, db) in enumerate(grads):
        if dw.shape != net.weights[layer].shape:
            raise ValueError(f"weight gradient shape mismatch at layer {layer}")
        if db.shape != net.biases[layer].shape:
            raise ValueError(f"bias gradient shape mismatch at layer {layer}")
        net.weights[layer] -= lr * (dw + wd * net.weights[layer])
        net.biases[layer] -= lr * (db + wd * net.biases[layer])
    return net
