"""Partition-function amortization: exact batch partitions, the log-space
amortizer MLPs, target-network EMA, the beta-weighted combined target, and
the amortization objectives (divergence-weighted and squared log error).

Conventions used throughout:
  - The per-sample batch partition is the MEAN of exponentiated scaled
    similarities, Z(i) = mean_j exp(tau * S[i, j]), carried in log space.
  - The amortizer predicts log(lambda) directly; lambda = exp(MLP(psi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .encoders import EmbeddingBatch, similarity_matrix
from .errors import ContractError, DegenerateInputError, DomainError
from .net import Mlp
from .numerics import Array, ParamStore, row_logsumexp_inplace


# ---------------------------------------------------------------------------
# amortizer networks


@dataclass
class TargetAmortizer:
    """EMA-tracked copy of the online amortizer plus the frozen snapshot
    carried over from the previous epoch."""

    ema: Mlp
    prev_epoch: Mlp


def amortizer_hidden_dim(embed_dim: int, dim_factor: float) -> int:
    return max(1, math.ceil(dim_factor * embed_dim))


def init_amortizer(
    embed_dim: int,
    dim_factor: float,
    modality: str,
    seed_key: tuple[int, ...],
    prefix: str = "amortizer",
) -> Mlp:
    """A three-layer MLP (d -> h -> h -> 1) predicting log(lambda) per sample.
    Draws keyed by seed_key; the blocks are named '{prefix}_{modality}/...'."""
    h = amortizer_hidden_dim(embed_dim, dim_factor)
    return Mlp([embed_dim, h, h, 1], f"{prefix}_{modality}", seed_key=seed_key)


def amortize_forward(theta: Mlp, emb: EmbeddingBatch):
    """Per-sample log(lambda) predictions. Returns (vector of length n,
    backward): backward(upstream) accumulates d(loss)/d(log lambda) into
    the amortizer's ParamBlocks."""
    out, acts = theta.forward(emb.data)
    log_lam = out.ravel()
    if not np.isfinite(log_lam).all():
        bad = int(np.argmax(~np.isfinite(log_lam)))
        raise DomainError(f"amortizer produced a non-finite log-value at sample {bad}")

    def backward(upstream) -> None:
        theta.backward(acts, np.asarray(upstream, dtype=np.float64).reshape(-1, 1))

    return log_lam, backward


def amortize_backward(backward, upstream) -> None:
    """Run the backward that amortize_forward returned on d(loss)/d(log lambda)."""
    backward(upstream)


def ema_update(target: ParamStore, online: ParamStore, alpha: float) -> None:
    """theta_hat <- alpha * theta_hat + (1 - alpha) * theta, elementwise over
    two stores of the same layout."""
    target.check_layout(online)
    target.value *= alpha
    target.value += (1.0 - alpha) * online.value


# ---------------------------------------------------------------------------
# exact partitions and combined targets


@dataclass
class PartitionEstimate:
    """Per-sample log partition values over one batch direction."""

    log_z_exact: Array


def exact_partition(
    emb_l: EmbeddingBatch,
    emb_lp: EmbeddingBatch,
    tau: float,
    include_positive: bool = True,
) -> PartitionEstimate:
    """log Z(i) = logsumexp_j(tau * S[i, j]) - log(count).

    count is n with the positive (diagonal) term included, n - 1 with the
    diagonal dropped; mean semantics keep the value scale-consistent when
    the same definition is evaluated over slices of different sizes.
    """
    # one n x n buffer: S, scaled in place (the bits of tau * S), then the logsumexp's
    scaled = similarity_matrix(emb_l, emb_lp)
    n = scaled.shape[0]
    if n < 1:
        raise DegenerateInputError(f"batch of {n} below the minimum of 1")
    scaled *= tau
    if include_positive:
        log_z = row_logsumexp_inplace(scaled) - math.log(n)
    else:
        if n < 2:
            raise DegenerateInputError("cannot exclude the positive from a one-sample batch")
        np.fill_diagonal(scaled, -np.inf)
        log_z = row_logsumexp_inplace(scaled) - math.log(n - 1)
    return PartitionEstimate(log_z_exact=log_z)


def beta_schedule(t: float, total: int, beta_final: float) -> float:
    """Cosine ramp beta_t = beta_final - 0.5 * beta_final * (1 + cos(pi t / T)).

    Zero at t = 0, beta_final / 2 at t = T / 2, beta_final at t = T;
    monotone nondecreasing in between.
    """
    return beta_final - 0.5 * beta_final * (1.0 + math.cos(math.pi * t / total))


def combined_target(
    log_z_exact: Array,
    prev_epoch: Mlp,
    emb: EmbeddingBatch,
    beta_t: float,
) -> Array:
    """log of the convex blend beta * lambda_prev + (1 - beta) * Z, computed
    stably in log space via a max shift.

    beta = 0 returns log_z_exact exactly; beta = 1 returns the frozen
    previous-epoch prediction exactly.
    """
    z = np.asarray(log_z_exact, dtype=np.float64).ravel()
    if z.shape[0] != emb.n:
        raise ContractError(f"log_z length {z.shape[0]} != batch size {emb.n}")
    if beta_t == 0.0:
        return z.copy()
    pred, _ = amortize_forward(prev_epoch, emb)
    if beta_t == 1.0:
        return pred
    m = np.maximum(pred, z)
    return m + np.log(beta_t * np.exp(pred - m) + (1.0 - beta_t) * np.exp(z - m))


# ---------------------------------------------------------------------------
# divergence generators


@dataclass(frozen=True)
class DivergenceGenerator:
    """Convex generator f with f(1) = 0, plus its derivative.

    kl        : f(t) = t log t            (pointwise minimum of t f(1/t)-style
                weighting sits at lambda = e * Z; kept for fidelity)
    kl_affine : f(t) = t log t - t + 1    (same divergence on normalized
                distributions, nonnegative, minimized at lambda = Z)
    js        : f(t) = (t log t - (t+1) log((t+1)/2)) / 2
    l2log     : f(t) = (log t)^2 / 2
    """

    name: str
    f: Callable[[Array], Array]
    f_prime: Callable[[Array], Array]


def _f_kl(t):
    return t * np.log(t)


def _fp_kl(t):
    return np.log(t) + 1.0


def _f_kl_affine(t):
    return t * np.log(t) - t + 1.0


def _fp_kl_affine(t):
    return np.log(t)


def _f_js(t):
    return 0.5 * (t * np.log(t) - (t + 1.0) * np.log(0.5 * (t + 1.0)))


def _fp_js(t):
    return 0.5 * np.log(2.0 * t / (t + 1.0))


def _f_l2log(t):
    lt = np.log(t)
    return 0.5 * lt * lt


def _fp_l2log(t):
    return np.log(t) / t


GENERATORS: dict[str, DivergenceGenerator] = {
    g.name: g
    for g in (
        DivergenceGenerator("kl", _f_kl, _fp_kl),
        DivergenceGenerator("kl_affine", _f_kl_affine, _fp_kl_affine),
        DivergenceGenerator("js", _f_js, _fp_js),
        DivergenceGenerator("l2log", _f_l2log, _fp_l2log),
    )
}


# ---------------------------------------------------------------------------
# amortization losses


def fdiv_weights(sim: Array, tau: float, log_z_target: Array) -> Array:
    """Constant weight matrix W[i, j] = exp(tau * S[i, j] - log_z_target[i]).

    With the mean-form exact partition as the target, each row of W sums
    to n; the weights carry no gradient.
    """
    s = np.asarray(sim, dtype=np.float64)
    z = np.asarray(log_z_target, dtype=np.float64).ravel()
    if s.ndim != 2 or s.shape[0] != z.shape[0]:
        raise ContractError(f"similarity shape {s.shape} incompatible with targets {z.shape}")
    w = np.exp(tau * s - z[:, None])
    if not np.isfinite(w).all():
        i, j = np.argwhere(~np.isfinite(w))[0]
        raise DomainError(f"divergence weight overflow at sample pair ({int(i)}, {int(j)})")
    return w


def loss_fdiv_values(
    log_lambda: Array,
    log_z_target: Array,
    gen: DivergenceGenerator,
    weights: Array,
) -> tuple[float, Array]:
    """Divergence-weighted amortization loss for given log(lambda) values.

    loss = (1 / n^2) sum_ij W[i, j] * f(r_i), with r_i = Z_i / lambda_i.
    Returns (loss, d loss / d log_lambda). With a constant ratio r across
    samples and mean-form weights, the loss reduces to f(r).
    """
    m = np.asarray(log_lambda, dtype=np.float64).ravel()
    z = np.asarray(log_z_target, dtype=np.float64).ravel()
    if m.shape != z.shape:
        raise ContractError(f"log_lambda shape {m.shape} != target shape {z.shape}")
    n = m.shape[0]
    if weights.shape[0] != n:
        raise ContractError(f"weight rows {weights.shape[0]} != batch size {n}")
    gap = z - m
    if (np.abs(gap) > 700.0).any():
        bad = int(np.argmax(np.abs(gap)))
        raise DomainError(
            f"partition/amortizer ratio overflows at sample {bad} (log gap {gap[bad]:.1f})"
        )
    r = np.exp(gap)
    row_w = weights.sum(axis=1) / float(weights.shape[0] * weights.shape[1])
    loss = float(np.dot(row_w, gen.f(r)))
    grad = -row_w * gen.f_prime(r) * r
    return loss, grad


def loss_l2log_values(log_lambda: Array, log_z_target: Array) -> tuple[float, Array]:
    """Squared log-gap loss (1 / 2n) sum_i (log lambda_i - log Z_i)^2.

    Returns (loss, d loss / d log_lambda) with gradient (log lambda - log Z) / n.
    """
    m = np.asarray(log_lambda, dtype=np.float64).ravel()
    z = np.asarray(log_z_target, dtype=np.float64).ravel()
    if m.shape != z.shape:
        raise ContractError(f"log_lambda shape {m.shape} != target shape {z.shape}")
    if not np.isfinite(z).all():
        raise DomainError("log_z_target contains non-finite entries")
    n = m.shape[0]
    diff = m - z
    loss = float(0.5 * np.dot(diff, diff) / n)
    return loss, diff / n


def loss_l2log(theta: Mlp, emb_l: EmbeddingBatch, log_z_target: Array) -> float:
    """Squared log-gap amortization loss; gradients flow only to theta."""
    log_lam, backward = amortize_forward(theta, emb_l)
    loss, grad = loss_l2log_values(log_lam, log_z_target)
    amortize_backward(backward, grad)
    return loss


def loss_fdiv(theta: Mlp, emb_l: EmbeddingBatch, log_z_target: Array, gen: DivergenceGenerator,
              weights: Array, l2log_coef: float) -> float:
    """Divergence-weighted amortization loss, plus l2log_coef times the
    squared log-gap loss when l2log_coef > 0; gradients flow only to theta."""
    log_lam, backward = amortize_forward(theta, emb_l)
    loss, grad = loss_fdiv_values(log_lam, log_z_target, gen, weights)
    if l2log_coef > 0.0:
        loss_l2, grad_l2 = loss_l2log_values(log_lam, log_z_target)
        loss += l2log_coef * loss_l2
        grad = grad + l2log_coef * grad_l2
    amortize_backward(backward, grad)
    return loss
