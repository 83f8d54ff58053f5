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

from dataclasses import dataclass, field

import numpy as np

from .metrics import sign_pm1


@dataclass
class LossValue:
    """Relaxed loss split into its two terms; total = pairwise + eta*quant."""

    total: float
    pairwise_term: float
    quantization_term: float
    grad: np.ndarray = field(repr=False, compare=False)  # d total / d U


def relaxed_hash_loss(outputs, similarity, eta: float) -> LossValue:
    """Relaxed pairwise loss on real outputs U (one batch, K columns).

    pairwise_term     = sum over ordered pairs i != j of
                        (u_i . u_j - K s_ij)^2
    quantization_term = sum_i ||sign(u_i) - u_i||^2
    total             = pairwise_term + eta * quantization_term

    The gradient w.r.t. U, same shape as U (2-D), is row-wise
        dU_i = sum_{j != i} 4 (u_i . u_j - K s_ij) u_j
               + 2 eta (u_i - sign(u_i))
    for symmetric S, the sign() treated as a constant.  The
    implementation uses the exact form (R + R^T) U, R = U U^T - K S with
    a zero diagonal, so an asymmetric S still differentiates correctly.
    """
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
    if not (np.abs(s) == 1.0).all():
        raise ValueError("similarity entries must be -1 or +1")
    resid = u @ u.T - u.shape[1] * s
    np.fill_diagonal(resid, 0.0)
    quant_gap = u - sign_pm1(u)
    pairwise = float((resid ** 2).sum())
    quant = float((quant_gap ** 2).sum())
    grad = 2.0 * ((resid + resid.T) @ u)
    grad += 2.0 * eta * quant_gap
    return LossValue(pairwise + eta * quant, pairwise, quant, grad)


def relaxed_hash_loss_grad(outputs, similarity, eta: float) -> np.ndarray:
    """Gradient of relaxed_hash_loss w.r.t. the outputs (see there)."""
    return relaxed_hash_loss(outputs, similarity, eta).grad
