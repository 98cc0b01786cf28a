"""The per-step kernels, checked bit for bit against the plain numpy
expressions they replace.

Each kernel writes into buffers it allocates itself and calls the ufunc
reductions directly; each test writes the plain expression inline and
compares bytes, so a change in operation order shows even where it moves
only the last bit. Every test also checks that no array passed in, no
weight and no cached activation is written by the call.
"""

import numpy as np
import pytest

from amorlip.encoders import EmbeddingBatch
from amorlip.losses import amortized_mle_loss, nce_loss
from amorlip.net import Mlp
from amorlip.numerics import (
    gradcheck_error,
    l2_normalize_rows,
    max_relative_discrepancy,
    row_logsumexp,
    seeded_rng,
)

# (rows, columns): one row, square, and rows on either side of columns
SHAPES = [(1, 3), (2, 2), (4, 4), (7, 3), (3, 9), (64, 32)]
PAIR_SHAPES = [s for s in SHAPES if s[0] >= 2]


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def snapshot(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def unit_rows(rng, n, d):
    raw = rng.standard_normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def make_mlp(dims, seed):
    net = Mlp(dims, "k", seed_key=(seed, 1))
    rng = seeded_rng(seed, 2)
    for b in net.biases:
        b.value[...] = rng.standard_normal(b.value.shape)
    return net


MLP_CASES = [
    (1, [3, 5, 2]),
    (4, [6, 3]),
    (5, [4, 4, 4]),
    (7, [5, 8, 8, 4]),
    (64, [64, 32, 32, 16]),
]


@pytest.mark.parametrize("n, dims", MLP_CASES)
def test_mlp_forward(n, dims):
    net = make_mlp(dims, n)
    x = seeded_rng(n, 3).standard_normal((n, dims[0]))
    params = [b.value for b in net.blocks()]
    before = snapshot(x, *params)

    out, acts = net.forward(x)

    expected = [x]
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.value + b.value
        h = np.tanh(z) if i < len(net.weights) - 1 else z
        expected.append(h)
    assert same_bits(out, expected[-1])
    assert len(acts) == len(expected)
    for a, e in zip(acts, expected):
        assert same_bits(a, e)
    assert snapshot(x, *params) == before


@pytest.mark.parametrize("n, dims", MLP_CASES)
def test_mlp_backward(n, dims):
    net = make_mlp(dims, n)
    rng = seeded_rng(n, 4)
    _, acts = net.forward(rng.standard_normal((n, dims[0])))
    upstream = rng.standard_normal((n, dims[-1]))
    # gradients accumulate, so start them away from zero
    for blk in net.blocks():
        blk.grad[...] = rng.standard_normal(blk.grad.shape)
    expected = {blk.name: blk.grad.copy() for blk in net.blocks()}
    params = [b.value for b in net.blocks()]
    before = snapshot(upstream, *acts, *params)

    net.backward(acts, upstream)

    g = upstream
    for i in range(len(net.weights) - 1, -1, -1):
        expected[net.weights[i].name] += acts[i].T @ g
        expected[net.biases[i].name] += g.sum(axis=0, keepdims=True)
        if i > 0:
            g = (g @ net.weights[i].value.T) * (1.0 - acts[i] ** 2)
    for blk in net.blocks():
        assert same_bits(blk.grad, expected[blk.name]), blk.name
    assert snapshot(upstream, *acts, *params) == before


@pytest.mark.parametrize("n, d", SHAPES)
def test_l2_normalize_rows_and_backward(n, d):
    rng = seeded_rng(n, d, 5)
    x = 3.0 * rng.standard_normal((n, d))
    upstream = rng.standard_normal((n, d))
    before = snapshot(x, upstream)

    out, backward = l2_normalize_rows(x)
    out_bytes = out.tobytes()
    grad = backward(upstream)

    norms = np.linalg.norm(x, axis=1, keepdims=True)
    expected_out = x / norms
    radial = np.sum(upstream * expected_out, axis=1, keepdims=True)
    assert same_bits(out, expected_out)
    assert same_bits(grad, (upstream - radial * expected_out) / norms)
    assert snapshot(x, upstream) == before
    assert out.tobytes() == out_bytes
    # a second backward through the same closure repeats the first
    assert same_bits(backward(upstream), grad)


@pytest.mark.parametrize("n, d", SHAPES)
@pytest.mark.parametrize("layout", ["c", "transposed", "masked"])
def test_row_logsumexp(n, d, layout):
    rng = seeded_rng(n, d, 6)
    mat = 20.0 * rng.standard_normal((n, d))
    if layout == "transposed":
        mat = np.ascontiguousarray(mat.T).T  # same values, column-major
    elif layout == "masked" and d > 1:
        mat[np.arange(n), np.arange(n) % d] = -np.inf
    before = snapshot(mat)

    got = row_logsumexp(mat)

    m = np.max(mat, axis=1, keepdims=True)
    expected = (m + np.log(np.sum(np.exp(mat - m), axis=1, keepdims=True))).ravel()
    assert same_bits(got, expected)
    assert snapshot(mat) == before


def old_loss_tail(emb_a, emb_b, s, tau, spread, w, div):
    n = s.shape[0]
    trace = float(np.trace(s))
    d_s = (tau / div) * w
    d_s[np.diag_indices(n)] -= 2.0 * tau / n
    return (
        -(2.0 * tau / n) * trace + spread,
        d_s @ emb_b.data,
        d_s.T @ emb_a.data,
        -(2.0 / n) * trace + float(np.sum(s * w)) / div,
    )


def assert_loss_matches(out, value, grad_a, grad_b, tau_grad):
    assert out.value.hex() == value.hex()
    assert same_bits(out.grad_a, grad_a)
    assert same_bits(out.grad_b, grad_b)
    assert out.tau_grad.hex() == tau_grad.hex()


@pytest.mark.parametrize("n, d", PAIR_SHAPES)
@pytest.mark.parametrize("tau", [0.7, 13.0])
def test_nce_loss(n, d, tau):
    rng = seeded_rng(n, d, 7)
    emb_a, emb_b = EmbeddingBatch(unit_rows(rng, n, d)), EmbeddingBatch(unit_rows(rng, n, d))
    before = snapshot(emb_a.data, emb_b.data)

    out = nce_loss(emb_a, emb_b, tau)

    s = emb_a.data @ emb_b.data.T
    ts = tau * s
    lse_rows = row_logsumexp(ts)
    lse_cols = row_logsumexp(ts.T)
    spread = float(np.sum(lse_rows) + np.sum(lse_cols)) / n
    p_sum = np.exp(ts - lse_rows[:, None]) + np.exp(ts - lse_cols[None, :])
    assert_loss_matches(out, *old_loss_tail(emb_a, emb_b, s, tau, spread, p_sum, n))
    assert snapshot(emb_a.data, emb_b.data) == before


@pytest.mark.parametrize("n, d", SHAPES)
@pytest.mark.parametrize("tau", [0.7, 13.0])
def test_amortized_mle_loss(n, d, tau):
    rng = seeded_rng(n, d, 8)
    emb_a, emb_b = EmbeddingBatch(unit_rows(rng, n, d)), EmbeddingBatch(unit_rows(rng, n, d))
    la, lb = 2.0 * rng.standard_normal(n), 2.0 * rng.standard_normal(n)
    before = snapshot(emb_a.data, emb_b.data, la, lb)

    out = amortized_mle_loss(emb_a, emb_b, tau, la, lb)

    s = emb_a.data @ emb_b.data.T
    ts = tau * s
    e_a = np.exp(ts - la[:, None])
    e_b = np.exp(ts - lb[None, :])
    spread = (float(np.sum(e_a)) + float(np.sum(e_b))) / (n * n)
    assert_loss_matches(out, *old_loss_tail(emb_a, emb_b, s, tau, spread, e_a + e_b, n * n))
    assert snapshot(emb_a.data, emb_b.data, la, lb) == before


@pytest.mark.parametrize("size", [1, 5, 40])
def test_error_metrics(size):
    rng = seeded_rng(size, 9)
    a, b = rng.standard_normal(size), rng.standard_normal(size)
    b[0] = 1e-9  # below the discrepancy floor
    before = snapshot(a, b)

    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-12)
    assert gradcheck_error(a, b).hex() == (float(np.max(np.abs(a - b))) / scale).hex()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    expected = float(np.max(np.abs(a - b) / denom))
    assert max_relative_discrepancy(a, b).hex() == expected.hex()
    assert snapshot(a, b) == before
