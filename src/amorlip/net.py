"""Small fully-connected networks with hand-written backward passes.

Both the modality encoders and the partition amortizers are tanh MLPs
built from this class; gradients accumulate into the ParamBlocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .numerics import Array, ParamBlock, seeded_rng


class Mlp:
    """Dense network: tanh on hidden layers, linear output layer.

    Weights start uniform in +/- sqrt(6 / (fan_in + fan_out)) keyed by
    (seed_key..., layer index); biases start at zero. Re-creating with the
    same key reproduces the draws bit for bit.
    """

    def __init__(self, dims: list[int], name: str, seed_key: tuple[int, ...]):
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ContractError(f"{name}: invalid layer dims {dims}")
        self.dims = [int(d) for d in dims]
        self.name = name
        shapes = list(zip(self.dims[:-1], self.dims[1:]))
        self.weights: list[ParamBlock] = [None] * len(shapes)  # type: ignore[list-item]
        # largest first, so a network too large to allocate fails before any
        # layer is drawn; each layer has its own generator, so the order changes
        # no draw, and each draw is dropped once its block holds a copy
        for i in sorted(range(len(shapes)), key=lambda i: -shapes[i][0] * shapes[i][1]):
            limit = math.sqrt(6.0 / sum(shapes[i]))
            rng = seeded_rng(*seed_key, i)
            self.weights[i] = ParamBlock(f"{name}/w{i}", rng.uniform(-limit, limit, size=shapes[i]))
        self.biases = [ParamBlock(f"{name}/b{i}", np.zeros((1, d))) for i, d in enumerate(self.dims[1:])]

    def blocks(self) -> list[ParamBlock]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x) -> tuple[Array, list[Array]]:
        """Returns (output, activations). activations[0] is the input, then
        each layer's post-activation output; the cache feeds backward().

        The bias add and tanh run in place on each fresh matmul output,
        which gives the bits of np.tanh(h @ w + b)."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ContractError(
                f"{self.name}: input shape {h.shape} incompatible with dim {self.dims[0]}"
            )
        acts = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.value
            h += b.value
            if i < last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[Array], upstream) -> None:
        """Accumulate parameter gradients. The gradient on the input is not
        formed: no caller uses it.

        Each layer's chain product is formed in place and gives the bits of
        (g @ w.T) * (1 - a ** 2); neither acts nor upstream is written."""
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != acts[-1].shape:
            raise ContractError(
                f"{self.name}: upstream shape {g.shape} != output shape {acts[-1].shape}"
            )
        for i in range(len(self.weights) - 1, -1, -1):
            self.weights[i].grad += acts[i].T @ g
            self.biases[i].grad += np.add.reduce(g, axis=0, keepdims=True)
            if i > 0:
                slope = acts[i] * acts[i]
                np.subtract(1.0, slope, out=slope)
                g = g @ self.weights[i].value.T
                g *= slope
