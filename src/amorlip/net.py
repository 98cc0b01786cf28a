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
        self.weights: list[ParamBlock] = []
        self.biases: list[ParamBlock] = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            rng = seeded_rng(*seed_key, i)
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            self.weights.append(ParamBlock(f"{name}/w{i}", w))
            self.biases.append(ParamBlock(f"{name}/b{i}", np.zeros((1, fan_out))))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def blocks(self) -> list[ParamBlock]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x) -> tuple[Array, list[Array]]:
        """Returns (output, activations). activations[0] is the input, then
        each layer's post-activation output; the cache feeds backward()."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ContractError(
                f"{self.name}: input shape {h.shape} incompatible with dim {self.dims[0]}"
            )
        acts = [h]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.value + b.value
            h = np.tanh(z) if i < last else z
            acts.append(h)
        return h, acts

    def backward(self, acts: list[Array], upstream) -> None:
        """Accumulate parameter gradients. The gradient on the input is not
        formed: no caller uses it."""
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != acts[-1].shape:
            raise ContractError(
                f"{self.name}: upstream shape {g.shape} != output shape {acts[-1].shape}"
            )
        for i in range(self.n_layers - 1, -1, -1):
            self.weights[i].grad += acts[i].T @ g
            self.biases[i].grad += g.sum(axis=0, keepdims=True)
            if i > 0:
                g = (g @ self.weights[i].value.T) * (1.0 - acts[i] ** 2)
