import math

import numpy as np
import pytest

from amorlip.amortization import (
    GENERATORS,
    amortize_backward,
    amortize_forward,
    beta_schedule,
    combined_target,
    ema_update,
    exact_partition,
    fdiv_weights,
    init_amortizer,
    loss_fdiv_values,
    loss_l2log,
    loss_l2log_values,
)
from amorlip.encoders import EmbeddingBatch
from amorlip.errors import ContractError, DegenerateInputError, DomainError
from amorlip.numerics import ParamStore, seeded_rng


def unit_batch(rng, n, d):
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return EmbeddingBatch(raw)


def brute_force_log_partition(emb_l, emb_lp, tau, include_positive):
    """Independent oracle: explicit double loop over exponentiated dots."""
    n = emb_l.n
    out = []
    for i in range(n):
        total, count = 0.0, 0
        for j in range(n):
            if not include_positive and i == j:
                continue
            s = float(np.dot(emb_l.data[i], emb_lp.data[j]))
            total += math.exp(tau * s)
            count += 1
        out.append(math.log(total / count))
    return np.array(out)


class TestExactPartition:
    def test_identical_embeddings_give_tau(self):
        row = np.zeros(6)
        row[0] = 1.0
        emb = EmbeddingBatch(np.tile(row, (5, 1)))
        for tau in (0.5, 3.0, 20.0):
            pe = exact_partition(emb, emb, tau)
            np.testing.assert_allclose(pe.log_z_exact, tau, rtol=1e-13)

    def test_two_sample_orthogonal_case(self):
        emb = EmbeddingBatch(np.eye(2))
        pe = exact_partition(emb, EmbeddingBatch(np.eye(2)), 1.0, include_positive=True)
        expected = math.log((math.e + 1.0) / 2.0)
        assert abs(pe.log_z_exact[0] - expected) < 1e-12
        assert abs(expected - 0.620114507) < 1e-9

    def test_two_sample_excluding_positive(self):
        emb = EmbeddingBatch(np.eye(2))
        pe = exact_partition(emb, EmbeddingBatch(np.eye(2)), 1.0, include_positive=False)
        # only the off-diagonal term survives and its similarity is zero
        np.testing.assert_allclose(pe.log_z_exact, 0.0, atol=1e-15)

    @pytest.mark.parametrize("include_positive", [True, False])
    def test_against_brute_force(self, include_positive):
        rng = seeded_rng(61)
        for _ in range(6):
            n = int(rng.integers(2, 17))
            d = int(rng.integers(2, 9))
            tau = float(rng.uniform(0.3, 5.0))
            emb_l = unit_batch(rng, n, d)
            emb_lp = unit_batch(rng, n, d)
            pe = exact_partition(emb_l, emb_lp, tau, include_positive)
            oracle = brute_force_log_partition(emb_l, emb_lp, tau, include_positive)
            np.testing.assert_allclose(pe.log_z_exact, oracle, rtol=1e-12)

    def test_values_within_similarity_bounds(self):
        rng = seeded_rng(62)
        emb_l = unit_batch(rng, 9, 5)
        emb_lp = unit_batch(rng, 9, 5)
        tau = 7.0
        pe = exact_partition(emb_l, emb_lp, tau)
        assert np.all(pe.log_z_exact >= -tau - 1e-9)
        assert np.all(pe.log_z_exact <= tau + 1e-9)

    def test_single_sample_without_positive_rejected(self):
        emb = EmbeddingBatch(np.array([[1.0, 0.0]]))
        with pytest.raises(DegenerateInputError):
            exact_partition(emb, emb, 1.0, include_positive=False)


class TestAmortizeForward:
    def test_zero_final_layer_returns_bias(self):
        theta = init_amortizer(4, 0.5, "a", (1, 2))
        theta.weights[-1].value[...] = 0.0
        theta.biases[-1].value[0, 0] = -2.75
        emb = unit_batch(seeded_rng(71), 6, 4)
        log_lam, _ = amortize_forward(theta, emb)
        np.testing.assert_allclose(log_lam, -2.75)

    def test_identical_rows_identical_outputs(self):
        theta = init_amortizer(4, 0.5, "a", (1, 3))
        row = np.zeros(4)
        row[1] = 1.0
        log_lam, _ = amortize_forward(theta, EmbeddingBatch(np.tile(row, (5, 1))))
        assert np.all(log_lam == log_lam[0])

    def test_hidden_width_from_dimension_factor(self):
        assert init_amortizer(32, 0.5, "a", (0,)).dims == [32, 16, 16, 1]
        assert init_amortizer(3, 0.4, "a", (0,)).dims == [3, 2, 2, 1]

    def test_dim_mismatch_rejected(self):
        theta = init_amortizer(4, 0.5, "a", (1, 4))
        with pytest.raises(ContractError):
            amortize_forward(theta, unit_batch(seeded_rng(72), 3, 5))

    def test_backward_wrong_length_upstream_rejected(self):
        theta = init_amortizer(4, 0.5, "a", (1, 5))
        _, cache = amortize_forward(theta, unit_batch(seeded_rng(73), 4, 4))
        with pytest.raises(ContractError, match=r"upstream shape \(5, 1\) != output shape \(4, 1\)"):
            amortize_backward(cache, np.zeros(5))


class TestBetaSchedule:
    def test_endpoints_and_midpoint(self):
        assert beta_schedule(0, 10, 0.8) == 0.0
        assert beta_schedule(10, 10, 0.8) == 0.8
        assert abs(beta_schedule(5, 10, 0.8) - 0.4) < 1e-12

    def test_monotone_nondecreasing(self):
        values = [beta_schedule(t, 30, 0.8) for t in range(31)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 0.8 for v in values)


class TestCombinedTarget:
    def setup_method(self):
        self.rng = seeded_rng(81)
        self.emb = unit_batch(self.rng, 6, 4)
        self.prev = init_amortizer(4, 0.5, "a", (8, 1))
        self.log_z = self.rng.standard_normal(6)

    def test_beta_zero_returns_exact(self):
        out = combined_target(self.log_z, self.prev, self.emb, 0.0)
        assert np.array_equal(out, self.log_z)

    def test_beta_one_returns_prediction(self):
        pred, _ = amortize_forward(self.prev, self.emb)
        out = combined_target(self.log_z, self.prev, self.emb, 1.0)
        assert np.array_equal(out, pred)

    def test_equal_inputs_fixed_point(self):
        pred, _ = amortize_forward(self.prev, self.emb)
        out = combined_target(pred, self.prev, self.emb, 0.37)
        np.testing.assert_allclose(out, pred, rtol=1e-14)

    def test_monotone_in_beta_between_endpoints(self):
        pred, _ = amortize_forward(self.prev, self.emb)
        betas = np.linspace(0.0, 1.0, 21)
        values = np.stack([combined_target(self.log_z, self.prev, self.emb, b) for b in betas])
        for i in range(6):
            col = values[:, i]
            lo, hi = min(self.log_z[i], pred[i]), max(self.log_z[i], pred[i])
            assert np.all(col >= lo - 1e-12) and np.all(col <= hi + 1e-12)
            diffs = np.diff(col)
            assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


class TestEmaUpdate:
    def make_pair(self):
        # the online and EMA stores of the trainer: both modalities, one layout
        online, target = (
            ParamStore(
                [
                    b
                    for i, m in enumerate("ab")
                    for b in init_amortizer(5, 0.5, m, (9, 1, i), prefix).blocks()
                ]
            )
            for prefix in ("amortizer", "target")
        )
        return online, target

    def test_basic_blend(self):
        online, target = self.make_pair()
        target.value.fill(0.0)
        online.value.fill(1.0)
        ema_update(target, online, 0.999)
        np.testing.assert_allclose(target.value, 0.001, rtol=1e-12)

    def test_alpha_zero_copies(self):
        online, target = self.make_pair()
        online.value += 3.0
        ema_update(target, online, 0.0)
        assert np.array_equal(target.value, online.value)

    def test_alpha_one_freezes(self):
        online, target = self.make_pair()
        before = target.value.copy()
        online.value += 3.0
        ema_update(target, online, 1.0)
        assert np.array_equal(target.value, before)

    @pytest.mark.parametrize("alpha", [0.92, 0.999])
    def test_geometric_convergence(self, alpha):
        online, target = self.make_pair()
        target.value.fill(0.0)
        online.value.fill(1.0)
        k = 40
        for _ in range(k):
            ema_update(target, online, alpha)
        np.testing.assert_allclose(np.abs(target.value - 1.0), alpha**k, rtol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.92, 0.999, 1.0])
    def test_matches_per_block_loop_bitwise(self, alpha):
        online, target = self.make_pair()
        rng = seeded_rng(12)
        online.value[...] = rng.standard_normal(online.value.size)
        target.value[...] = rng.standard_normal(target.value.size)
        # the per-block loop the store replaced, on copies of each block
        ref = {b.name: b.value.copy() for b in target.blocks}
        for _ in range(3):
            for t_blk, o_blk in zip(target.blocks, online.blocks):
                ref[t_blk.name] *= alpha
                ref[t_blk.name] += (1.0 - alpha) * o_blk.value
            ema_update(target, online, alpha)
        for b in target.blocks:
            assert b.value.tobytes() == ref[b.name].tobytes(), b.name

    def test_shape_mismatch_rejected(self):
        online, target = self.make_pair()
        other = ParamStore(init_amortizer(6, 0.5, "a", (9, 2)).blocks())
        with pytest.raises(ContractError):
            ema_update(target, other, 0.5)


def _f1(gen, t: float) -> float:
    return float(gen.f(np.array([t]))[0])


class TestDivergenceGenerators:
    def test_zero_at_one(self):
        for gen in GENERATORS.values():
            assert abs(_f1(gen, 1.0)) < 1e-15

    def test_midpoint_convexity(self):
        # the squared-log generator is convex only up to t = e
        # (its second derivative (1 - log t) / t^2 changes sign there)
        for gen in GENERATORS.values():
            hi = math.e if gen.name == "l2log" else math.exp(2.0)
            ts = np.exp(np.linspace(-2.0, math.log(hi), 41))
            for i in range(len(ts) - 2):
                a, b = ts[i], ts[i + 2]
                mid = 0.5 * (a + b)
                assert _f1(gen, mid) <= 0.5 * (_f1(gen, a) + _f1(gen, b)) + 1e-12

    def test_derivative_consistent_with_f(self):
        ts = np.linspace(0.2, 4.0, 25)
        h = 1e-7
        for gen in GENERATORS.values():
            numeric = (gen.f(ts + h) - gen.f(ts - h)) / (2 * h)
            np.testing.assert_allclose(gen.f_prime(ts), numeric, atol=1e-6)

    def test_curvature_at_one(self):
        # both the affine KL form and the squared-log form have f''(1) = 1
        h = 1e-4
        for name, expected in (("kl", 1.0), ("kl_affine", 1.0), ("l2log", 1.0), ("js", 0.25)):
            gen = GENERATORS[name]
            second = (_f1(gen, 1 + h) - 2 * _f1(gen, 1.0) + _f1(gen, 1 - h)) / h**2
            assert abs(second - expected) < 1e-5

    def test_second_order_agreement_of_affine_kl_and_squared_log(self):
        # |(t log t - t + 1) - (log t)^2 / 2| <= 0.5 |t - 1|^3 near t = 1
        kl_affine = GENERATORS["kl_affine"]
        l2log = GENERATORS["l2log"]
        for eps in (0.1, 0.01, 0.001):
            for t in (1.0 + eps, 1.0 - eps):
                gap = abs(_f1(kl_affine, t) - _f1(l2log, t))
                assert gap / eps**3 <= 0.5


class TestFdivLoss:
    def setup_case(self, n=4, d=6, tau=1.3, seed=91):
        rng = seeded_rng(seed)
        emb_l = unit_batch(rng, n, d)
        emb_lp = unit_batch(rng, n, d)
        sim = emb_l.data @ emb_lp.data.T
        log_z = exact_partition(emb_l, emb_lp, tau).log_z_exact
        weights = fdiv_weights(sim, tau, log_z)
        return emb_l, sim, log_z, weights, tau

    def test_weights_rows_sum_to_n(self):
        _, _, _, weights, _ = self.setup_case()
        np.testing.assert_allclose(weights.sum(axis=1), 4.0, rtol=1e-12)

    def test_zero_loss_at_exact_lambda(self):
        _, _, log_z, weights, _ = self.setup_case()
        for gen in GENERATORS.values():
            loss, grad = loss_fdiv_values(log_z, log_z, gen, weights)
            assert abs(loss) <= 1e-12
            # the affine and squared-log forms are stationary there as well
            if gen.name in ("kl_affine", "js", "l2log"):
                np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_constant_ratio_reduces_to_generator_value(self):
        emb_l, sim, log_z, weights, tau = self.setup_case()
        for gen in GENERATORS.values():
            for ln_c in (-0.8, 0.4, 1.0):
                loss, _ = loss_fdiv_values(log_z + ln_c, log_z, gen, weights)
                expected = _f1(gen, math.exp(-ln_c))
                assert abs(loss - expected) < 1e-12

    def test_kl_generator_against_brute_force_double_sum(self):
        emb_l, sim, log_z, weights, tau = self.setup_case()
        n = 4
        for c in (math.e, 0.5, 2.0):
            log_lam = log_z + math.log(c)
            loss, _ = loss_fdiv_values(log_lam, log_z, GENERATORS["kl"], weights)
            oracle = 0.0
            for i in range(n):
                for j in range(n):
                    w = math.exp(tau * sim[i, j] - log_z[i])
                    r = math.exp(log_z[i] - log_lam[i])
                    oracle += w * (r * math.log(r))
            oracle /= n * n
            assert abs(loss - oracle) < 1e-12
            if c == math.e:
                assert abs(loss - (-1.0 / math.e)) < 1e-12

    def test_js_nonnegative_and_zero_only_at_match(self):
        _, _, log_z, weights, _ = self.setup_case()
        gen = GENERATORS["js"]
        for ln_c in np.linspace(-2.0, 2.0, 17):
            loss, _ = loss_fdiv_values(log_z + ln_c, log_z, gen, weights)
            if abs(ln_c) < 1e-12:
                assert abs(loss) < 1e-12
            else:
                assert loss > 0.0

    def test_scalar_minimizers(self):
        _, _, log_z, weights, _ = self.setup_case()
        ln_grid = np.linspace(-2.0, 2.0, 41)
        for name, expected_ln_c in (("kl_affine", 0.0), ("js", 0.0), ("l2log", 0.0), ("kl", 1.0)):
            gen = GENERATORS[name]
            losses = [loss_fdiv_values(log_z + lc, log_z, gen, weights)[0] for lc in ln_grid]
            best = ln_grid[int(np.argmin(losses))]
            assert abs(best - expected_ln_c) <= 0.1 + 1e-12

    def test_ratio_overflow_reports_sample(self):
        _, _, log_z, weights, _ = self.setup_case()
        bad = log_z.copy()
        bad[2] -= 800.0
        with pytest.raises(DomainError, match="sample 2"):
            loss_fdiv_values(bad, log_z, GENERATORS["kl"], weights)


class TestL2LogLoss:
    def test_zero_at_match(self):
        z = seeded_rng(95).standard_normal(6)
        loss, grad = loss_l2log_values(z.copy(), z)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_uniform_offset_value(self):
        z = seeded_rng(96).standard_normal(8)
        loss, grad = loss_l2log_values(z + 0.3, z)
        assert abs(loss - 0.045) < 1e-12
        np.testing.assert_allclose(grad, 0.3 / 8, rtol=1e-12)

    def test_gradients_accumulate_into_theta(self):
        rng = seeded_rng(97)
        emb = unit_batch(rng, 5, 4)
        theta = init_amortizer(4, 0.5, "a", (97, 0))
        log_z = rng.standard_normal(5)
        loss_l2log(theta, emb, log_z)
        assert any(np.any(blk.grad != 0.0) for blk in theta.blocks())

    def test_non_finite_target_rejected(self):
        with pytest.raises(DomainError):
            loss_l2log_values(np.zeros(3), np.array([0.0, np.nan, 0.0]))
