import math
import os
import subprocess
import sys

import numpy as np
import pytest

import amorlip
from amorlip.amortization import exact_partition
from amorlip.encoders import (
    EmbeddingBatch,
    Temperature,
    encode,
    encoder_backward,
    init_encoders,
    similarity_matrix,
)
from amorlip.errors import ContractError, DegenerateInputError
from amorlip.evaluation import _partner_ranks
from amorlip.losses import amortized_mle_loss, mle_gradient_equivalence_check, nce_loss
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

    def test_too_large_network_fails_before_drawing_a_layer(self):
        # the 8 TB second layer is drawn before the 64 MB first one, so the
        # MemoryError leaves the child's peak RSS where the imports left it
        code = (
            "import resource\n"
            "from amorlip.net import Mlp\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "try:\n"
            "    Mlp([8, 10**6, 10**6, 1], 'm', seed_key=(0,))\n"
            "except MemoryError:\n"
            "    print((peak() - before) // 1024)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amorlip.__file__)))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 32  # MiB; drawing the first layer adds over 128


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
        emb = EmbeddingBatch(np.eye(4))
        np.testing.assert_allclose(similarity_matrix(emb, EmbeddingBatch(np.eye(4))), np.eye(4))

    def test_negated_batch_flips_sign(self):
        rng = seeded_rng(51)
        a = rng.standard_normal((5, 6))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        ea = EmbeddingBatch(a)
        s_self = similarity_matrix(ea, EmbeddingBatch(a))
        s_neg = similarity_matrix(ea, EmbeddingBatch(-a))
        np.testing.assert_allclose(s_neg, -s_self, atol=1e-15)

    def test_two_by_two_against_brute_force(self):
        a = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
        b = np.array([[0.0, 1.0], [math.sqrt(0.5), -math.sqrt(0.5)]])
        s = similarity_matrix(EmbeddingBatch(a), EmbeddingBatch(b))
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
        s = similarity_matrix(EmbeddingBatch(a), EmbeddingBatch(b))
        assert np.all(np.abs(s) <= 1.0 + 1e-9)

    def test_mismatch_rejected(self):
        with pytest.raises(ContractError):
            similarity_matrix(EmbeddingBatch(np.eye(3)), EmbeddingBatch(np.eye(4)))


# Every all-pairs computation, with the smallest batch it accepts; each
# checks its two batches through the same code. Tau is checked where it
# enters (TrainConfig, load_eval_model, the loop's check after each update).
PAIR_CALLERS = [
    pytest.param(nce_loss, 2, id="nce_loss"),
    pytest.param(
        lambda a, b, tau: amortized_mle_loss(a, b, tau, np.zeros(a.n), np.zeros(a.n)),
        1, id="amortized_mle_loss",
    ),
    pytest.param(exact_partition, 1, id="exact_partition"),
    pytest.param(mle_gradient_equivalence_check, 2, id="mle_gradient_equivalence_check"),
    pytest.param(lambda a, b, tau: _partner_ranks(a, b), 1, id="_partner_ranks"),
]


@pytest.mark.parametrize("call, min_n", PAIR_CALLERS)
def test_all_pairs_callers_share_one_check(call, min_n):
    rows = np.eye(4)[:3]
    ea = EmbeddingBatch(rows)
    with pytest.raises(ContractError, match=r"^embedding dims differ: 4 vs 3$"):
        call(ea, EmbeddingBatch(rows[:, :3]), 1.0)
    with pytest.raises(ContractError, match=r"^batch sizes differ: 3 vs 2$"):
        call(ea, EmbeddingBatch(rows[:2]), 1.0)
    one = EmbeddingBatch(rows[:1]), EmbeddingBatch(rows[:1])
    if min_n == 2:
        with pytest.raises(DegenerateInputError, match=r"^batch of 1 below the minimum of 2$"):
            call(*one, 1.0)
    else:
        call(*one, 1.0)


class TestTemperature:
    def test_standard_init(self):
        t = Temperature(1.0 / 0.07, 100.0)
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
        t = Temperature(init_tau=2.0, tau_max=100.0)
        t.accumulate_tau_grad(3.0)
        assert abs(t.block.grad[0, 0] - 3.0 * 2.0) < 1e-12
