"""Pairwise similarity loss for hash code learning.

The loss pushes the inner product of two code vectors toward K * s_ij,
where s_ij is +1 for similar pairs and -1 for dissimilar ones and K is the
code length.  It works on the real-valued network outputs (the relaxation
of finished {-1, +1} codes, on which it equals the discrete loss) and adds
a quantization penalty eta * sum_i ||sign(u_i) - u_i||^2 that pulls
outputs toward the corners of the hypercube.  K is the width of the
outputs passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import sign_pm1


def _residual(outputs, similarity, eta):
    """Checked (U, R): R = U U^T - K S with a zero diagonal, K = U's width."""
    u = np.asarray(outputs, dtype=np.float64)
    if u.ndim == 1:
        u = u[np.newaxis, :]
    if u.ndim != 2 or 0 in u.shape:
        raise ValueError("output matrix must be non-empty and 2-D")
    if not np.isfinite(u).all():
        raise ValueError("outputs contain non-finite values")
    # written so that NaN fails the range check
    if not 0 <= eta < np.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    s = np.asarray(similarity, dtype=np.float64)
    if s.shape != (u.shape[0], u.shape[0]):
        raise ValueError(
            f"similarity matrix shape {s.shape} does not match codes "
            f"({u.shape[0]}, {u.shape[0]})"
        )
    if not np.isin(s, (-1.0, 1.0)).all():
        raise ValueError("similarity entries must be -1 or +1")
    resid = u @ u.T - u.shape[1] * s
    np.fill_diagonal(resid, 0.0)
    return u, resid


@dataclass
class LossValue:
    """Relaxed loss split into its two terms; total = pairwise + eta*quant."""

    total: float
    pairwise_term: float
    quantization_term: float


def relaxed_hash_loss(outputs, similarity, eta: float) -> LossValue:
    """Relaxed pairwise loss on real outputs U (one batch, K columns).

    pairwise_term     = sum over ordered pairs i != j of
                        (u_i . u_j - K s_ij)^2
    quantization_term = sum_i ||sign(u_i) - u_i||^2
    total             = pairwise_term + eta * quantization_term
    """
    u, resid = _residual(outputs, similarity, eta)
    pairwise = float((resid ** 2).sum())
    quant = float(((sign_pm1(u) - u) ** 2).sum())
    return LossValue(pairwise + eta * quant, pairwise, quant)


def relaxed_hash_loss_grad(outputs, similarity, eta: float) -> np.ndarray:
    """Gradient of relaxed_hash_loss w.r.t. the outputs, same shape as U.

    For symmetric S this is row-wise
        dU_i = sum_{j != i} 4 (u_i . u_j - K s_ij) u_j
               + 2 eta (u_i - sign(u_i)),
    the sign() treated as a constant.  The implementation uses the exact
    form (R + R^T) U so an asymmetric S still differentiates correctly.
    """
    u, resid = _residual(outputs, similarity, eta)
    grad = 2.0 * ((resid + resid.T) @ u)
    grad += 2.0 * eta * (u - sign_pm1(u))
    return grad
