"""Representation-learning objectives: the ranking NCE loss, the amortized
maximum-likelihood loss, the gradient-equivalence check between the two
maximum-likelihood forms, and temperature rescaling with the rho regularizer.

Sign and scale conventions:
  - The NCE log terms use the SUM over in-batch candidates (standard CLIP),
    while partition semantics elsewhere use the MEAN; the two differ by a
    constant log(n) absorbed by the temperature and the amortizer.
  - The amortized loss's double expectation is the full n^2 sum divided by
    n^2, diagonal included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    W = e_a + e_b over n^2."""
    n = s.shape[0]
    trace = float(np.trace(s))
    d_s = (tau / div) * w
    d_s[np.diag_indices(n)] -= 2.0 * tau / n
    return LossOutput(
        value=-(2.0 * tau / n) * trace + spread,
        grad_a=d_s @ emb_b.data,
        grad_b=d_s.T @ emb_a.data,
        tau_grad=-(2.0 / n) * trace + float(np.sum(s * w)) / div,
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
    spread = float(np.sum(lse_rows) + np.sum(lse_cols)) / n
    p_sum = np.exp(ts - lse_rows[:, None]) + np.exp(ts - lse_cols[None, :])
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
    if not (np.all(np.isfinite(la)) and np.all(np.isfinite(lb))):
        raise DomainError("log lambda values must be finite")

    with np.errstate(over="ignore"):  # overflow is detected and reported below
        e_a = np.exp(ts - la[:, None])
        e_b = np.exp(ts - lb[None, :])
    for name, mat in (("a", e_a), ("b", e_b)):
        if not np.all(np.isfinite(mat)):
            i, j = np.argwhere(~np.isfinite(mat))[0]
            raise DomainError(
                f"exp overflow in direction {name} at sample pair ({int(i)}, {int(j)}); "
                "the amortizer has diverged from the partition scale"
            )
    spread = (float(np.sum(e_a)) + float(np.sum(e_b))) / (n * n)
    return _loss_tail(emb_a, emb_b, s, tau, spread, e_a + e_b, n * n)


def mle_gradient_equivalence_check(
    emb_a: EmbeddingBatch, emb_b: EmbeddingBatch, tau: float
) -> float:
    """Max relative discrepancy between embedding gradients of the two
    maximum-likelihood forms:

      (a) sum over modalities of the mean log batch partition, and
      (b) the same with exp(tau s) divided by the partition held constant.

    The two are algebraically identical (grad log Z = grad Z / Z); the check
    evaluates both through deliberately different numerical paths.
    """
    n, _, ts = scaled_similarity(emb_a, emb_b, tau, min_n=2)

    # path (a): softmax weights via logsumexp, mean-form normalizer cancels
    lse_rows = row_logsumexp(ts)
    lse_cols = row_logsumexp(ts.T)
    d_s_a = (tau / n) * (np.exp(ts - lse_rows[:, None]) + np.exp(ts - lse_cols[None, :]))
    grad_a_1 = d_s_a @ emb_b.data
    grad_b_1 = d_s_a.T @ emb_a.data

    # path (b): raw exponentials against frozen mean-form partitions
    e = np.exp(ts)
    z_rows = e.mean(axis=1)
    z_cols = e.mean(axis=0)
    d_s_b = (tau / (n * n)) * (e / z_rows[:, None] + e / z_cols[None, :])
    grad_a_2 = d_s_b @ emb_b.data
    grad_b_2 = d_s_b.T @ emb_a.data

    return max(
        max_relative_discrepancy(grad_a_1, grad_a_2),
        max_relative_discrepancy(grad_b_1, grad_b_2),
    )


def temperature_rescale(raw: LossOutput, tau: float, rho: float) -> LossOutput:
    """loss / stop_grad(tau) + rho / tau.

    The divisor is treated as a constant, so embedding gradients scale by
    1 / tau and the numerator's own tau-dependence still differentiates;
    the regularizer contributes -rho / tau^2 to the tau gradient.
    """
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
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
    if not 0.0 <= anneal_start_fraction <= 1.0:
        raise DomainError(f"anneal_start_fraction must lie in [0, 1], got {anneal_start_fraction}")
    if not 1 <= epoch <= total:
        raise DomainError(f"epoch {epoch} outside [1, {total}]")
    if epoch / total > anneal_start_fraction:
        return rho_anneal
    return rho_main
