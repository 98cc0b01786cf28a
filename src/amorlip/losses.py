"""Representation-learning objectives: the ranking NCE loss, the amortized
maximum-likelihood loss, the gradient-equivalence check between the two at
exact partitions, and temperature rescaling with the rho regularizer.

Sign and scale conventions:
  - The NCE log terms use the SUM over in-batch candidates (standard CLIP),
    while partition semantics elsewhere use the MEAN; the two differ by a
    constant log(n) absorbed by the temperature and the amortizer.
  - The amortized loss's double expectation is the full n^2 sum divided by
    n^2, diagonal included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amortization import exact_partition
from .encoders import EmbeddingBatch, scaled_similarity
from .errors import ContractError, DomainError
from .numerics import Array, max_relative_discrepancy, row_logsumexp


@dataclass
class LossOutput:
    """A scalar loss with analytic gradients on both embedding batches and tau."""

    value: float
    grad_a: Array
    grad_b: Array
    tau_grad: float


def _loss_tail(
    emb_a: EmbeddingBatch, emb_b: EmbeddingBatch, s: Array, tau: float, spread: float,
    w: Array, div: int,
) -> LossOutput:
    """The tail both stage-II losses share: value -(2 tau / n) tr S + spread,
    where the spread term has gradient (tau / div) W on S and sum(S * W) / div
    on tau. NCE passes W = p_rows + p_cols over n, the amortized loss
    W = e_a + e_b over n^2. W is the caller's fresh C-ordered temporary and
    becomes the gradient on S in place."""
    n = s.shape[0]
    trace = float(np.trace(s))
    s_dot_w = float(np.add.reduce(s * w, axis=None))
    d_s = w
    d_s *= tau / div
    d_s.reshape(-1)[:: n + 1] -= 2.0 * tau / n  # C order makes this a view of the diagonal
    return LossOutput(
        value=-(2.0 * tau / n) * trace + spread,
        grad_a=d_s @ emb_b.data,
        grad_b=d_s.T @ emb_a.data,
        tau_grad=-(2.0 / n) * trace + s_dot_w / div,
    )


def nce_loss(emb_a: EmbeddingBatch, emb_b: EmbeddingBatch, tau: float) -> LossOutput:
    """Two-directional ranking NCE over in-batch candidates.

    value = -(2 tau / n) sum_i S[i, i]
            + (1 / n) sum_i [log sum_j exp(tau S[i, j]) + log sum_j exp(tau S[j, i])]

    An all-identical batch gives exactly 2 log(n), independent of tau.
    """
    n, s, ts = scaled_similarity(emb_a, emb_b, tau, min_n=2)
    lse_rows = row_logsumexp(ts)
    lse_cols = row_logsumexp(ts.T)
    spread = float(np.add.reduce(lse_rows) + np.add.reduce(lse_cols)) / n
    p_sum = ts - lse_rows[:, None]
    np.exp(p_sum, out=p_sum)
    p_cols = ts - lse_cols[None, :]
    np.exp(p_cols, out=p_cols)
    p_sum += p_cols
    return _loss_tail(emb_a, emb_b, s, tau, spread, p_sum, n)


def amortized_mle_loss(
    emb_a: EmbeddingBatch,
    emb_b: EmbeddingBatch,
    tau: float,
    log_lambda_a: Array,
    log_lambda_b: Array,
) -> LossOutput:
    """Maximum-likelihood loss with amortized partition values.

    value = -(2 tau / n) sum_i S[i, i]
            + (1 / n^2) sum_ij exp(tau S[i, j] - log lambda_a[i])
            + (1 / n^2) sum_ij exp(tau S[i, j] - log lambda_b[j])

    The lambda values come from a frozen target network and receive no
    gradient. Each (i, j) term is computable independently of the others;
    when lambda matches the mean-form batch partition exactly, each
    direction's sum equals 1 and the second term is exactly 2.
    """
    n, s, ts = scaled_similarity(emb_a, emb_b, tau)
    la = np.asarray(log_lambda_a, dtype=np.float64).ravel()
    lb = np.asarray(log_lambda_b, dtype=np.float64).ravel()
    if la.shape[0] != n or lb.shape[0] != n:
        raise ContractError(f"lambda vectors must have length {n}")
    if not (np.isfinite(la).all() and np.isfinite(lb).all()):
        raise DomainError("log lambda values must be finite")

    e_a = ts - la[:, None]
    e_b = ts - lb[None, :]
    np.exp(e_a, out=e_a)
    np.exp(e_b, out=e_b)
    for name, mat in (("a", e_a), ("b", e_b)):
        if not np.isfinite(mat).all():
            i, j = np.argwhere(~np.isfinite(mat))[0]
            raise DomainError(
                f"exp overflow in direction {name} at sample pair ({int(i)}, {int(j)}); "
                "the amortizer has diverged from the partition scale"
            )
    spread = float(np.add.reduce(e_a, axis=None) + np.add.reduce(e_b, axis=None)) / (n * n)
    e_a += e_b
    return _loss_tail(emb_a, emb_b, s, tau, spread, e_a, n * n)


def mle_gradient_equivalence_check(
    emb_a: EmbeddingBatch, emb_b: EmbeddingBatch, tau: float
) -> float:
    """Max relative discrepancy between the gradients, on both embedding
    batches and on tau, of the two stage-II losses: nce_loss (logsumexp
    softmax weights) and amortized_mle_loss with each lambda held at its
    direction's exact mean-form batch partition (raw exponentials over a
    constant partition). The two are algebraically identical
    (grad log Z = grad Z / Z); verify gradcheck checks each loss against
    finite differences.
    """
    nce = nce_loss(emb_a, emb_b, tau)
    mle = amortized_mle_loss(
        emb_a, emb_b, tau,
        exact_partition(emb_a, emb_b, tau).log_z_exact,
        exact_partition(emb_b, emb_a, tau).log_z_exact,
    )
    return max(
        max_relative_discrepancy(nce.grad_a, mle.grad_a),
        max_relative_discrepancy(nce.grad_b, mle.grad_b),
        max_relative_discrepancy(nce.tau_grad, mle.tau_grad),
    )


def usable_tau(tau: float) -> bool:
    """Whether tau has a finite, non-zero square and inverse square: the
    rescaled loss divides by tau and its tau gradient by tau^2, and
    Temperature has no lower clamp to keep either finite."""
    square = tau * tau
    return 0.0 < square < math.inf and 0.0 < 1.0 / square < math.inf


def temperature_rescale(raw: LossOutput, tau: float, rho: float) -> LossOutput:
    """loss / stop_grad(tau) + rho / tau.

    The divisor is treated as a constant, so embedding gradients scale by
    1 / tau and the numerator's own tau-dependence still differentiates;
    the regularizer contributes -rho / tau^2 to the tau gradient.
    """
    if not usable_tau(tau):
        raise DomainError(f"tau must have a finite, non-zero square and inverse square, got {tau:.3g}")
    return LossOutput(
        value=raw.value / tau + rho / tau,
        grad_a=raw.grad_a / tau,
        grad_b=raw.grad_b / tau,
        tau_grad=raw.tau_grad / tau - rho / (tau * tau),
    )


def rho_at(
    epoch: int, total: int, rho_main: float, rho_anneal: float, anneal_start_fraction: float
) -> float:
    """Piecewise-constant regularizer for a 1-based epoch index: rho_main,
    then rho_anneal once the epoch fraction passes anneal_start_fraction.
    The switch uses a strict comparison, so a fraction of 1.0 never anneals
    and with total = 30, fraction = 0.75 the boundary falls between epochs
    22 and 23."""
    if epoch / total > anneal_start_fraction:
        return rho_anneal
    return rho_main
