import math

import numpy as np
import pytest

from amorlip.encoders import (
    EmbeddingBatch,
    Temperature,
    encode,
    encoder_backward,
    init_encoders,
    similarity_matrix,
)
from amorlip.errors import ContractError
from amorlip.net import Mlp
from amorlip.numerics import ParamStore, finite_difference_gradient, gradcheck_error, seeded_rng


def make_params(dim_a=5, dim_b=4, hidden=6, depth=1, d=3, seed=0):
    return init_encoders({"a": dim_a, "b": dim_b}, hidden=hidden, depth=depth, embed_dim=d, seed=seed)


class TestMlp:
    def test_seeded_init_reproducible(self):
        net1 = Mlp([3, 4, 2], "m", seed_key=(5, 1))
        net2 = Mlp([3, 4, 2], "m", seed_key=(5, 1))
        for b1, b2 in zip(net1.blocks(), net2.blocks()):
            assert np.array_equal(b1.value, b2.value)
        net3 = Mlp([3, 4, 2], "m", seed_key=(5, 2))
        assert not np.array_equal(net1.weights[0].value, net3.weights[0].value)

    def test_from_arrays_round_trip(self):
        net = Mlp([3, 4, 2], "m", seed_key=(5, 1))
        rebuilt = Mlp.from_arrays("m", [b.value.copy() for b in net.blocks()])
        assert rebuilt.dims == net.dims
        out1, _ = net.forward(np.ones((2, 3)))
        out2, _ = rebuilt.forward(np.ones((2, 3)))
        assert np.array_equal(out1, out2)

    def test_backward_matches_finite_differences(self):
        rng = seeded_rng(21)
        net = Mlp([4, 5, 3], "m", seed_key=(21, 0))
        x = rng.standard_normal((3, 4))
        probe = rng.standard_normal((3, 3))
        store = ParamStore(net.blocks())
        x0 = store.value.copy()

        def f(flat):
            store.value[...] = flat
            out, _ = net.forward(x)
            return float(np.sum(out * probe))

        store.zero_grad()
        _, acts = net.forward(x)
        net.backward(acts, probe)
        numeric = finite_difference_gradient(f, x0, 1e-6)
        assert gradcheck_error(store.grad, numeric) < 1e-6


class TestEncode:
    def test_rows_unit_norm(self):
        params = make_params()
        rng = seeded_rng(31)
        emb, _ = encode(params, rng.standard_normal((9, 5)), "a")
        np.testing.assert_allclose(np.linalg.norm(emb.data, axis=1), 1.0, atol=1e-9)

    def test_pure_function_bitwise(self):
        params = make_params()
        x = seeded_rng(32).standard_normal((4, 5))
        e1, _ = encode(params, x, "a")
        e2, _ = encode(params, x, "a")
        assert np.array_equal(e1.data, e2.data)

    def test_identical_inputs_identical_outputs(self):
        params = make_params()
        x = np.tile(seeded_rng(33).standard_normal((1, 5)), (6, 1))
        emb, _ = encode(params, x, "a")
        assert np.array_equal(emb.data, np.tile(emb.data[:1], (6, 1)))

    def test_zero_weights_with_bias_collapse_to_bias_direction(self):
        params = make_params(depth=0, d=3)
        net = params.nets["a"]
        net.weights[0].value[...] = 0.0
        net.biases[0].value[...] = np.array([[1.0, 2.0, 2.0]])
        emb, _ = encode(params, seeded_rng(34).standard_normal((5, 5)), "a")
        np.testing.assert_allclose(emb.data, np.tile([[1 / 3, 2 / 3, 2 / 3]], (5, 1)), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = make_params()
        with pytest.raises(ContractError):
            encode(params, np.ones((2, 7)), "a")
        with pytest.raises(ContractError):
            encode(params, np.ones((2, 5)), "c")


class TestEncoderBackward:
    def test_zero_upstream_zero_grads(self):
        params = make_params()
        _, cache = encode(params, seeded_rng(41).standard_normal((3, 5)), "a")
        encoder_backward(cache, np.zeros((3, 3)))
        for blk in params.nets["a"].blocks():
            np.testing.assert_allclose(blk.grad, 0.0)

    def test_single_linear_layer_matches_hand_jacobian(self):
        # one sample through a bare linear layer: dW = x (g - (g.u) u)^T / ||z||
        params = make_params(dim_a=3, depth=0, d=2, seed=5)
        net = params.nets["a"]
        x = np.array([[0.5, -1.0, 2.0]])
        emb, cache = encode(params, x, "a")
        g = np.array([[0.7, -0.2]])
        encoder_backward(cache, g)

        z = x @ net.weights[0].value + net.biases[0].value
        u = z / np.linalg.norm(z)
        dz = (g - (g @ u.T) * u) / np.linalg.norm(z)
        np.testing.assert_allclose(net.weights[0].grad, x.T @ dz, rtol=1e-12)
        np.testing.assert_allclose(net.biases[0].grad, dz, rtol=1e-12)

    def test_matches_finite_differences(self):
        params = make_params(seed=6)
        rng = seeded_rng(42)
        x = rng.standard_normal((4, 5))
        probe = rng.standard_normal((4, 3))
        store = ParamStore(params.nets["a"].blocks())
        x0 = store.value.copy()

        def f(flat):
            store.value[...] = flat
            emb, _ = encode(params, x, "a")
            return float(np.sum(emb.data * probe))

        store.zero_grad()
        _, cache = encode(params, x, "a")
        encoder_backward(cache, probe)
        numeric = finite_difference_gradient(f, x0, 1e-6)
        assert gradcheck_error(store.grad, numeric) < 1e-5

    def test_upstream_shape_mismatch_rejected(self):
        params = make_params()
        _, cache = encode(params, np.ones((3, 5)), "a")
        with pytest.raises(ContractError):
            encoder_backward(cache, np.zeros((3, 4)))


class TestSimilarityMatrix:
    def test_orthonormal_self_similarity_is_identity(self):
        emb = EmbeddingBatch(np.eye(4), "a")
        np.testing.assert_allclose(similarity_matrix(emb, EmbeddingBatch(np.eye(4), "b")), np.eye(4))

    def test_negated_batch_flips_sign(self):
        rng = seeded_rng(51)
        a = rng.standard_normal((5, 6))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        ea = EmbeddingBatch(a, "a")
        s_self = similarity_matrix(ea, EmbeddingBatch(a, "b"))
        s_neg = similarity_matrix(ea, EmbeddingBatch(-a, "b"))
        np.testing.assert_allclose(s_neg, -s_self, atol=1e-15)

    def test_two_by_two_against_brute_force(self):
        a = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
        b = np.array([[0.0, 1.0], [math.sqrt(0.5), -math.sqrt(0.5)]])
        s = similarity_matrix(EmbeddingBatch(a, "a"), EmbeddingBatch(b, "b"))
        expected = np.array(
            [[sum(a[i][k] * b[j][k] for k in range(2)) for j in range(2)] for i in range(2)]
        )
        np.testing.assert_allclose(s, expected, atol=1e-15)

    def test_entries_bounded(self):
        rng = seeded_rng(52)
        a = rng.standard_normal((8, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((8, 5))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        s = similarity_matrix(EmbeddingBatch(a, "a"), EmbeddingBatch(b, "b"))
        assert np.all(np.abs(s) <= 1.0 + 1e-9)

    def test_mismatch_rejected(self):
        with pytest.raises(ContractError):
            similarity_matrix(EmbeddingBatch(np.eye(3), "a"), EmbeddingBatch(np.eye(4), "b"))


class TestTemperature:
    def test_standard_init(self):
        t = Temperature()
        assert abs(t.tau - 1.0 / 0.07) < 1e-9
        assert abs(t.log_tau - math.log(1.0 / 0.07)) < 1e-12

    def test_clamp_caps_at_max(self):
        t = Temperature(init_tau=50.0, tau_max=100.0)
        t.block.value[0, 0] = math.log(250.0)
        assert t.tau == 100.0
        t.clamp()
        assert abs(t.block.value[0, 0] - math.log(100.0)) < 1e-12
        assert 0.0 < t.tau <= 100.0

    def test_grad_accumulation_chains_through_exp(self):
        t = Temperature(init_tau=2.0)
        t.accumulate_tau_grad(3.0)
        assert abs(t.block.grad[0, 0] - 3.0 * 2.0) < 1e-12
