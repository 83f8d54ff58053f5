"""Pairwise similarity loss for hash code learning.

The loss pushes the inner product of two code vectors toward K * s_ij,
where s_ij is +1 for similar pairs and -1 for dissimilar ones and K is the
code length.  It works on the real-valued network outputs (the relaxation
of finished {-1, +1} codes, on which it equals the discrete loss) and adds
a quantization penalty eta * sum_i ||sign(u_i) - u_i||^2 that pulls
outputs toward the corners of the hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import sign_pm1


def _check_similarity(s, n_rows):
    sm = np.asarray(s, dtype=np.float64)
    if sm.shape != (n_rows, n_rows):
        raise ValueError(
            f"similarity matrix shape {sm.shape} does not match codes "
            f"({n_rows}, {n_rows})"
        )
    if not np.isin(sm, (-1.0, 1.0)).all():
        raise ValueError("similarity entries must be -1 or +1")
    return sm


def _check_outputs(u, n_bits):
    arr = np.asarray(u, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("output matrix must be non-empty and 2-D")
    if n_bits <= 0:
        raise ValueError(f"code length must be positive, got {n_bits}")
    if arr.shape[1] != n_bits:
        raise ValueError(
            f"output width {arr.shape[1]} does not match code length {n_bits}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("outputs contain non-finite values")
    return arr


@dataclass
class LossValue:
    """Relaxed loss split into its two terms; total = pairwise + eta*quant."""

    total: float
    pairwise_term: float
    quantization_term: float


def relaxed_hash_loss(outputs, similarity, n_bits: int,
                      eta: float) -> LossValue:
    """Relaxed pairwise loss on real outputs U (one batch, K columns).

    pairwise_term     = sum over ordered pairs i != j of
                        (u_i . u_j - K s_ij)^2
    quantization_term = sum_i ||sign(u_i) - u_i||^2
    total             = pairwise_term + eta * quantization_term
    """
    u = _check_outputs(outputs, n_bits)
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    s = _check_similarity(similarity, u.shape[0])
    resid = u @ u.T - n_bits * s
    np.fill_diagonal(resid, 0.0)
    pairwise = float((resid ** 2).sum())
    quant = float(((sign_pm1(u) - u) ** 2).sum())
    return LossValue(pairwise + eta * quant, pairwise, quant)


def relaxed_hash_loss_grad(outputs, similarity, n_bits: int,
                           eta: float) -> np.ndarray:
    """Gradient of relaxed_hash_loss w.r.t. the outputs, same shape as U.

    For symmetric S this is row-wise
        dU_i = sum_{j != i} 4 (u_i . u_j - K s_ij) u_j
               + 2 eta (u_i - sign(u_i)),
    the sign() treated as a constant.  The implementation uses the exact
    form (R + R^T) U so an asymmetric S still differentiates correctly.
    """
    u = _check_outputs(outputs, n_bits)
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    s = _check_similarity(similarity, u.shape[0])
    resid = u @ u.T - n_bits * s
    np.fill_diagonal(resid, 0.0)
    grad = 2.0 * ((resid + resid.T) @ u)
    grad += 2.0 * eta * (u - sign_pm1(u))
    return grad
