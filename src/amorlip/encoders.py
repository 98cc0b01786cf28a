"""Two modality-specific MLP encoders producing unit-norm embeddings in a
shared space, plus the learnable softmax temperature."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DegenerateInputError
from .net import Mlp
from .numerics import Array, ParamBlock, l2_normalize_rows

MODALITIES = ("a", "b")

ENCODER_SEED_SALT = 1001


class Temperature:
    """Learnable scalar temperature stored as log(tau) with an upper clamp.

    The exposed value is exp(log_tau) clamped to (0, tau_max]; clamp() is
    applied by the trainer after every optimizer step. Both temperatures
    come from a TrainConfig, which checks them with losses.usable_tau, and
    load_eval_model holds a stored log_tau to the clamp and the same rule.
    """

    def __init__(self, init_tau: float, tau_max: float):
        self.block = ParamBlock("temperature/log_tau", np.array([[math.log(init_tau)]]))
        self.tau_max = float(tau_max)

    @property
    def log_tau(self) -> float:
        return float(self.block.value[0, 0])

    @property
    def tau(self) -> float:
        return min(math.exp(self.log_tau), self.tau_max)

    def clamp(self) -> None:
        cap = math.log(self.tau_max)
        if self.block.value[0, 0] > cap:
            self.block.value[0, 0] = cap

    def accumulate_tau_grad(self, tau_grad: float) -> None:
        """Chain a d(loss)/d(tau) value through tau = exp(log_tau)."""
        self.block.grad[0, 0] += tau_grad * self.tau


@dataclass
class EmbeddingBatch:
    """A batch of unit-norm rows for one modality."""

    data: Array

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ContractError(f"embeddings must be 2-D, got shape {self.data.shape}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class EncoderParams:
    """One MLP per modality; both output the same embedding dimension."""

    nets: dict[str, Mlp]

    def blocks(self) -> list[ParamBlock]:
        out = []
        for m in MODALITIES:
            out.extend(self.nets[m].blocks())
        return out


def init_encoders(
    input_dims: dict[str, int],
    hidden: int,
    depth: int,
    embed_dim: int,
    seed: int,
) -> EncoderParams:
    """Fresh encoder parameters; draws are keyed by (seed, salt, modality, layer)."""
    nets = {}
    for idx, m in enumerate(MODALITIES):
        dims = [input_dims[m]] + [hidden] * depth + [embed_dim]
        nets[m] = Mlp(dims, f"encoder_{m}", seed_key=(seed, ENCODER_SEED_SALT, idx))
    return EncoderParams(nets=nets)


@dataclass
class EncodeCache:
    net: Mlp
    acts: list[Array]
    norm_backward: Callable[[Array], Array]


def encode(params: EncoderParams, inputs, modality: str):
    """Map raw inputs to unit-norm embeddings. Returns (EmbeddingBatch, cache).

    Pure function of (params, inputs): repeated calls agree bitwise. The
    network checks the input's shape, so the row count is checked on its
    output.
    """
    net = params.nets[modality]
    raw, acts = net.forward(inputs)
    if raw.shape[0] < 1:
        raise ContractError("encode requires at least one row")
    emb, norm_backward = l2_normalize_rows(raw)
    cache = EncodeCache(net=net, acts=acts, norm_backward=norm_backward)
    return EmbeddingBatch(emb), cache


def encoder_backward(cache: EncodeCache, upstream) -> None:
    """Backpropagate an embedding gradient into the encoder's ParamBlocks.

    Gradients accumulate additively; the gradient on the raw inputs is not
    formed.
    """
    cache.net.backward(cache.acts, cache.norm_backward(upstream))


def similarity_matrix(emb_a: EmbeddingBatch, emb_b: EmbeddingBatch) -> Array:
    """Pairwise dot products S[i, j] = <row_i(emb_a), row_j(emb_b)>."""
    if emb_a.dim != emb_b.dim:
        raise ContractError(f"embedding dims differ: {emb_a.dim} vs {emb_b.dim}")
    if emb_a.n != emb_b.n:
        raise ContractError(f"batch sizes differ: {emb_a.n} vs {emb_b.n}")
    return emb_a.data @ emb_b.data.T


def scaled_similarity(
    emb_a: EmbeddingBatch, emb_b: EmbeddingBatch, tau: float, min_n: int = 1
) -> tuple[int, Array, Array]:
    """(n, S, tau * S) for two batches of at least min_n rows: the one checked
    score matrix that the losses start from."""
    s = similarity_matrix(emb_a, emb_b)
    n = emb_a.n
    if n < min_n:
        raise DegenerateInputError(f"batch of {n} below the minimum of {min_n}")
    return n, s, tau * s
