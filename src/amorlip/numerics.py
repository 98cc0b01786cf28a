"""Dense float64 numerics: stable reductions, parameter/gradient storage,
an AdamW optimizer over a flat parameter store, and the finite-difference
gradient oracle.

All verification arithmetic runs in 64-bit. Reductions use numpy's
deterministic summation, so repeated runs on the same platform with the
same inputs are bitwise-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, DomainError, OracleError

Array = np.ndarray


def seeded_rng(*key: int) -> np.random.Generator:
    """PCG64 generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def row_logsumexp(mat: Array) -> Array:
    """row_logsumexp_inplace on a copy of mat, which is not written."""
    return row_logsumexp_inplace(np.array(mat, dtype=np.float64))


def row_logsumexp_inplace(mat: Array) -> Array:
    """Row-wise logsumexp of a float64 2-D array, which it overwrites.

    -inf entries are allowed as masks, as long as no row is entirely -inf.
    The shift, exp and log run in place, which gives the bits of
    m + log(sum(exp(mat - m), axis=1)).
    """
    m = np.maximum.reduce(mat, axis=1, keepdims=True)
    if not np.isfinite(m).all():
        raise DomainError("row_logsumexp: a row has no finite entry")
    mat -= m
    np.exp(mat, out=mat)
    out = np.add.reduce(mat, axis=1, keepdims=True)
    np.log(out, out=out)
    out += m
    return out.ravel()


def l2_normalize_rows(mat) -> tuple[Array, Callable[[Array], Array]]:
    """Normalize each row to unit length. Returns (output, backward).

    backward maps an upstream gradient on the output to the gradient on
    the input through the per-row Jacobian (I - u u^T) / ||z||, where u is
    the normalized row and z the raw row. The row norms take the path that
    np.linalg.norm(m, axis=1) takes for real input, sqrt(add.reduce(m * m)),
    and backward works in place, so both give numpy's bits.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ContractError(f"l2_normalize_rows expects a 2-D array, got shape {m.shape}")
    norms = np.add.reduce(m * m, axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    if not np.isfinite(norms).all():
        bad = int(np.argmax(~np.isfinite(norms)))
        raise DomainError(f"row {bad} has norm {float(norms[bad, 0])}, which is not finite")
    if (norms <= 1e-12).any():
        bad = int(np.argmin(norms))
        raise DegenerateInputError(f"row {bad} has norm {float(norms[bad, 0]):.3e} <= 1e-12")
    out = m / norms

    def backward(upstream) -> Array:
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != out.shape:
            raise ContractError(
                f"upstream gradient shape {g.shape} != output shape {out.shape}"
            )
        # (g - radial * out) / norms, in one buffer
        grad = g * out
        radial = np.add.reduce(grad, axis=1, keepdims=True)
        np.multiply(radial, out, out=grad)
        np.subtract(g, grad, out=grad)
        grad /= norms
        return grad

    return out, backward


@dataclass
class ParamBlock:
    """A named 2-D parameter matrix with an explicitly managed gradient.

    Gradients accumulate additively; they are cleared only by the
    zero_grad() of the ParamStore that holds the block.
    """

    name: str
    value: Array
    grad: Array = field(init=False)

    def __post_init__(self):
        self.value = np.array(self.value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ContractError(f"{self.name}: parameter must be 2-D, got shape {self.value.shape}")
        self.grad = np.zeros_like(self.value)


class ParamStore:
    """Flat float64 value and grad arrays over a fixed list of ParamBlocks.

    On construction each block's value and grad are copied in, and the
    block is rebound to views of the flat arrays, so arithmetic over the
    whole group (an optimizer step, an EMA, a copy between stores of the
    same layout) is a handful of vectorized operations. layout maps each
    name to its (offset, shape). Blocks outside no_decay are laid out
    first, so weight decay touches the leading n_decay entries. blocks
    keeps the given order.
    """

    def __init__(self, blocks: Sequence[ParamBlock], no_decay: Iterable[str] = ()):
        self.blocks = list(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ContractError(f"duplicate parameter block names in {names}")
        no_decay = set(no_decay)
        ordered = sorted(self.blocks, key=lambda b: b.name in no_decay)  # decayed first, stable
        self.n_decay = sum(b.value.size for b in self.blocks if b.name not in no_decay)
        total = sum(b.value.size for b in self.blocks)
        self.value = np.empty(total)
        self.grad = np.empty(total)
        self.layout: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._grads: list[tuple[ParamBlock, Array]] = []
        off = 0
        for b in ordered:
            self.layout[b.name] = (off, b.value.shape)
            off += b.value.size
            value, grad = self.view(self.value, b.name), self.view(self.grad, b.name)
            value[...] = b.value
            grad[...] = b.grad
            b.value, b.grad = value, grad
            self._grads.append((b, grad))

    def view(self, flat: Array, name: str) -> Array:
        """Block name's slice of a flat array laid out like this store."""
        off, shape = self.layout[name]
        return flat[off : off + math.prod(shape)].reshape(shape)

    def check_layout(self, other: "ParamStore") -> None:
        """Require the same block shapes at the same offsets; names may differ."""
        mine = [shape for _, shape in self.layout.values()]
        theirs = [shape for _, shape in other.layout.values()]
        if mine != theirs:
            raise ContractError(f"parameter store layouts differ: {mine} vs {theirs}")

    def load(self, other: "ParamStore") -> None:
        """Copy the values of a store with the same layout."""
        self.check_layout(other)
        self.value[...] = other.value

    def check_views(self) -> None:
        """Require every block's grad to still be its view of the store."""
        for b, grad in self._grads:
            if b.grad is not grad:
                raise ContractError(f"{b.name}: grad was rebound away from its parameter store")

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class AdamW:
    """Adam with decoupled weight decay over a ParamStore.

    weight_decay = 0 reproduces plain Adam; otherwise decay applies to the
    store's leading n_decay entries, the blocks outside its no_decay set.
    m[name] and v[name] are views of flat moment arrays laid out like the
    store, so a step is a handful of vectorized operations over the whole
    group. A step that overflows raises DomainError.
    """

    def __init__(
        self,
        store: ParamStore,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.store = store
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        total = store.value.size
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._s1 = np.empty(total)
        self._s2 = np.empty(total)
        self.m = {name: store.view(self._m, name) for name in store.layout}
        self.v = {name: store.view(self._v, name) for name in store.layout}
        self.t = 0

    @property
    def blocks(self) -> list[ParamBlock]:
        return self.store.blocks

    def reset(self) -> None:
        """Zero the moments and the step count, the state of a new optimizer."""
        self._m.fill(0.0)
        self._v.fill(0.0)
        self.t = 0

    def step(self) -> None:
        self.store.check_views()
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        value, g, m, v = self.store.value, self.store.grad, self._m, self._v
        s1, s2 = self._s1, self._s2
        d = self.store.n_decay if self.weight_decay != 0.0 else 0
        try:
            with np.errstate(over="raise", invalid="raise"):
                if d:
                    np.multiply(value[:d], self.lr * self.weight_decay, out=s1[:d])
                    value[:d] -= s1[:d]
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=s1)
                m += s1
                v *= self.beta2
                np.multiply(g, g, out=s1)
                s1 *= 1.0 - self.beta2
                v += s1
                # value -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
                np.divide(m, c1, out=s1)
                s1 *= self.lr
                np.divide(v, c2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += self.eps
                s1 /= s2
                value -= s1
        except FloatingPointError as exc:
            raise DomainError(f"optimizer step {self.t} is not finite ({exc})") from None


def finite_difference_gradient(f: Callable[[Array], float | Array], x, h: float = 1e-6) -> Array:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2 h) per coordinate.
    A scalar f gives a (P,) gradient; f with k values gives (k, P), one row each."""
    x = np.asarray(x, dtype=np.float64).ravel()
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp = np.asarray(f(xp), dtype=np.float64)
        fm = np.asarray(f(xm), dtype=np.float64)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise OracleError(f"non-finite evaluation while perturbing coordinate {i}")
        cols.append((fp - fm) / (2.0 * h))
    return np.array(cols, dtype=np.float64).T


def gradcheck_error(analytic, numeric) -> float:
    """Norm-relative gradient-check metric: max|a - n| / max(max|a|, max|n|, 1e-12)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != n.shape:
        raise ContractError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    peak = np.maximum.reduce
    scale = max(float(peak(np.abs(a))), float(peak(np.abs(n))), 1e-12)
    return float(peak(np.abs(a - n))) / scale


def max_relative_discrepancy(a, b, floor: float = 1e-6) -> float:
    """Elementwise relative discrepancy max|a - b| / max(|a|, |b|, floor).

    The floor suppresses spurious blow-ups on entries that are zero up to
    rounding; both arrays are expected to carry O(1)-scale entries.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ContractError(f"shapes differ: {a.shape} vs {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.maximum.reduce(np.abs(a - b) / denom))
