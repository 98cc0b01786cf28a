import math

import numpy as np
import pytest

from amorlip.errors import ContractError, DegenerateInputError, DomainError, OracleError
from amorlip.numerics import (
    AdamW,
    ParamBlock,
    ParamStore,
    finite_difference_gradient,
    gradcheck_error,
    l2_normalize_rows,
    max_relative_discrepancy,
    row_logsumexp,
    seeded_rng,
)


def one_row_logsumexp(values) -> float:
    (value,) = row_logsumexp(np.array([values], dtype=np.float64))
    return float(value)


class TestLogsumexp:
    def test_symmetric_two_terms(self):
        assert abs(one_row_logsumexp([0.0, 0.0]) - math.log(2.0)) < 1e-15

    def test_shift_of_large_inputs(self):
        # max-subtraction keeps huge inputs finite
        assert abs(one_row_logsumexp([1000.0, 1000.0]) - (1000.0 + math.log(2.0))) < 1e-12

    def test_three_terms_against_direct_sum(self):
        oracle = math.log(1.0 + math.e + math.e**2)
        value = one_row_logsumexp([0.0, 1.0, 2.0])
        assert abs(value - oracle) < 1e-12
        assert abs(value - 2.40760596) < 1e-7

    def test_shift_invariance(self):
        rng = seeded_rng(11)
        for _ in range(30):
            v = rng.standard_normal(int(rng.integers(1, 12))) * 5.0
            c = float(rng.uniform(-40, 40))
            assert abs(one_row_logsumexp(v + c) - (one_row_logsumexp(v) + c)) <= 1e-12

    def test_non_finite_rejected(self):
        # -inf masks an entry, but a row needs a finite maximum
        assert one_row_logsumexp([0.0, -np.inf]) == 0.0
        for row in ([0.0, np.inf], [0.0, np.nan], [-np.inf, -np.inf]):
            with pytest.raises(DomainError):
                one_row_logsumexp(row)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out, _ = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_unit_norm_rows(self):
        rng = seeded_rng(12)
        out, _ = l2_normalize_rows(rng.standard_normal((20, 7)) * 3.0)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_radial_upstream_annihilated(self):
        # gradient parallel to a unit-norm row lies in the projected-out direction
        row = np.array([[0.6, 0.8]])
        out, back = l2_normalize_rows(row)
        grad = back(2.5 * out)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_backward_matches_finite_differences(self):
        rng = seeded_rng(13)
        x0 = rng.standard_normal((4, 3))
        probe = rng.standard_normal((4, 3))

        def f(flat):
            out, _ = l2_normalize_rows(flat.reshape(4, 3))
            return float(np.sum(out * probe))

        _, back = l2_normalize_rows(x0)
        analytic = back(probe).ravel()
        numeric = finite_difference_gradient(f, x0.ravel(), 1e-6)
        assert gradcheck_error(analytic, numeric) < 1e-6

    def test_near_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 1e-13]]))


class TestParamBlock:
    def test_grad_zeroed_only_explicitly(self):
        blk = ParamBlock("w", np.ones((2, 2)))
        blk.grad += 1.0
        blk.grad += 1.0
        np.testing.assert_allclose(blk.grad, 2.0)
        ParamStore([blk]).zero_grad()
        np.testing.assert_allclose(blk.grad, 0.0)

    def test_non_2d_rejected(self):
        with pytest.raises(ContractError):
            ParamBlock("w", np.ones(3))


class TestAdamW:
    def test_first_step_is_signed_lr(self):
        blk = ParamBlock("w", np.array([[1.0, -2.0]]))
        blk.grad[...] = np.array([[0.5, -3.0]])
        opt = AdamW(ParamStore([blk]), lr=0.1, eps=1e-12)
        opt.step()
        np.testing.assert_allclose(blk.value, [[1.0 - 0.1, -2.0 + 0.1]], atol=1e-9)

    def test_zero_gradient_leaves_values(self):
        blk = ParamBlock("w", np.array([[1.5, -0.5]]))
        opt = AdamW(ParamStore([blk]), lr=0.1)
        for _ in range(3):
            opt.step()
        np.testing.assert_allclose(blk.value, [[1.5, -0.5]])

    def test_decoupled_decay_scales_values(self):
        blk = ParamBlock("w", np.array([[2.0]]))
        opt = AdamW(ParamStore([blk]), lr=0.1, weight_decay=0.5)
        expected = 2.0
        for _ in range(4):
            opt.step()
            expected *= 1.0 - 0.1 * 0.5
        np.testing.assert_allclose(blk.value, [[expected]], rtol=1e-12)

    def test_no_decay_names_skip_decay(self):
        blk = ParamBlock("b", np.array([[2.0]]))
        opt = AdamW(ParamStore([blk], no_decay={"b"}), lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(blk.value, [[2.0]])

    def test_bitwise_reproducible_without_decay(self):
        def run():
            rng = seeded_rng(99)
            blk = ParamBlock("w", rng.standard_normal((3, 4)))
            opt = AdamW(ParamStore([blk]), lr=0.01)
            for _ in range(25):
                opt.store.zero_grad()
                blk.grad += rng.standard_normal((3, 4))
                opt.step()
            return blk.value.copy()

        first, second = run(), run()
        assert np.array_equal(first, second)

    def test_flat_store_matches_per_block_reference_bitwise(self):
        rng = seeded_rng(7)
        shapes = {"w0": (5, 3), "b0": (1, 3), "w1": (3, 4), "b1": (1, 4), "s": (1, 1)}
        no_decay = {"b0", "b1", "s"}
        hyper = dict(lr=0.05, beta1=0.85, beta2=0.995, eps=1e-7, weight_decay=0.05)
        # small values against large steps, so a last-bit change in an
        # update is not rounded away when it lands on the value
        init = {n: 1e-3 * rng.standard_normal(shape) for n, shape in shapes.items()}
        grads = [{n: rng.standard_normal(shape) for n, shape in shapes.items()} for _ in range(25)]

        # the reference: one update per block, in the per-element order the
        # optimizer promises to keep
        ref = {n: v.copy() for n, v in init.items()}
        ref_m = {n: np.zeros(shape) for n, shape in shapes.items()}
        ref_v = {n: np.zeros(shape) for n, shape in shapes.items()}
        lr, b1, b2, eps, wd = (hyper[k] for k in ("lr", "beta1", "beta2", "eps", "weight_decay"))
        for t, step_grads in enumerate(grads, start=1):
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for n in shapes:
                g, m, v = step_grads[n], ref_m[n], ref_v[n]
                if n not in no_decay:
                    ref[n] -= lr * wd * ref[n]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                ref[n] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

        blocks = [ParamBlock(n, init[n]) for n in shapes]
        opt = AdamW(ParamStore(blocks, no_decay), **hyper)
        for step_grads in grads:
            opt.store.zero_grad()
            for b in blocks:
                b.grad += step_grads[b.name]
            opt.step()
        for b in blocks:
            assert np.array_equal(b.value, ref[b.name]), b.name
            assert np.array_equal(opt.m[b.name], ref_m[b.name]), b.name
            assert np.array_equal(opt.v[b.name], ref_v[b.name]), b.name

    def test_blocks_and_moments_alias_the_flat_store(self):
        blocks = [ParamBlock("w", np.ones((2, 3))), ParamBlock("b", np.zeros((1, 3)))]
        opt = AdamW(ParamStore(blocks, no_decay={"b"}), lr=0.1, weight_decay=0.1)
        for b in blocks:
            assert np.shares_memory(b.value, opt.store.value)
            assert np.shares_memory(b.grad, opt.store.grad)
            assert np.shares_memory(opt.m[b.name], opt._m)
            assert np.shares_memory(opt.v[b.name], opt._v)
        blocks[0].grad += 1.0
        blocks[1].grad += 2.0
        opt.step()
        assert np.all(opt.m["w"] != 0.0) and np.all(opt.v["b"] != 0.0)
        opt.store.zero_grad()
        assert not np.any(blocks[0].grad) and not np.any(blocks[1].grad)

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ContractError):
            ParamStore([ParamBlock("w", np.ones((1, 1))), ParamBlock("w", np.ones((1, 1)))])

    def test_state_shape_mismatch_rejected(self):
        blk = ParamBlock("w", np.ones((2, 2)))
        opt = AdamW(ParamStore([blk]), lr=0.1)
        blk.grad = np.zeros((2, 3))
        with pytest.raises(ContractError):
            opt.step()


    def test_reset_equals_fresh_optimizer(self):
        rng = seeded_rng(8)
        shapes = {"w": (4, 3), "b": (1, 3)}
        init = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
        used = AdamW(ParamStore([ParamBlock(n, init[n]) for n in shapes]), lr=0.05)
        for _ in range(4):
            used.store.grad[...] = rng.standard_normal(used.store.grad.size)
            used.step()
        used.store.value[...] = np.concatenate([init[n].ravel() for n in shapes])
        used.reset()
        fresh = AdamW(ParamStore([ParamBlock(n, init[n]) for n in shapes]), lr=0.05)
        assert used.t == fresh.t == 0
        for _ in range(3):
            g = rng.standard_normal(fresh.store.grad.size)
            for opt in (used, fresh):
                opt.store.grad[...] = g
                opt.step()
        assert used.t == fresh.t
        assert used.store.value.tobytes() == fresh.store.value.tobytes()
        for n in shapes:
            assert used.m[n].tobytes() == fresh.m[n].tobytes()
            assert used.v[n].tobytes() == fresh.v[n].tobytes()

    def test_overflowing_step_raises_domain_error(self):
        blk = ParamBlock("w", np.ones((1, 2)))
        opt = AdamW(ParamStore([blk]), lr=0.1)
        blk.grad[...] = 1e200  # its square overflows
        with pytest.raises(DomainError, match="optimizer step 1"):
            opt.step()


class TestParamStore:
    def blocks(self, prefix):
        return [
            ParamBlock(f"{prefix}/w", np.full((2, 3), 1.5)),
            ParamBlock(f"{prefix}/b", np.ones((1, 3))),
        ]

    def test_views_in_given_order_with_decayed_first(self):
        blocks = self.blocks("x")
        store = ParamStore(blocks, no_decay={"x/w"})
        assert [b.name for b in store.blocks] == ["x/w", "x/b"]
        assert store.layout == {"x/b": (0, (1, 3)), "x/w": (3, (2, 3))}
        assert store.n_decay == 3
        assert np.array_equal(store.value, [1.0] * 3 + [1.5] * 6)
        store.value += 1.0
        assert np.all(blocks[0].value == 2.5) and np.all(blocks[1].value == 2.0)

    def test_load_copies_values(self):
        src, dst = ParamStore(self.blocks("src")), ParamStore(self.blocks("dst"))
        src.value[...] = np.arange(src.value.size)
        dst.load(src)
        assert np.array_equal(dst.value, src.value)
        src.value += 1.0  # the copy is independent of its source
        assert not np.array_equal(dst.value, src.value)

    @pytest.mark.parametrize(
        "shapes",
        [[(2, 3)], [(3, 2), (1, 3)], [(1, 3), (2, 3)], [(2, 3), (1, 3), (1, 1)]],
        ids=["fewer", "transposed", "reordered", "longer"],
    )
    def test_different_layout_rejected(self, shapes):
        store = ParamStore(self.blocks("x"))
        other = ParamStore([ParamBlock(f"y{i}", np.zeros(s)) for i, s in enumerate(shapes)])
        with pytest.raises(ContractError, match="layouts differ"):
            store.load(other)
        with pytest.raises(ContractError, match="layouts differ"):
            other.check_layout(store)


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        g = finite_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-6)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_function(self):
        g = finite_difference_gradient(lambda x: 4.2, np.zeros(5), 1e-6)
        np.testing.assert_allclose(g, 0.0)

    def test_non_finite_reports_coordinate(self):
        def f(x):
            return math.inf if x[1] > 0.5 else 0.0

        with pytest.raises(OracleError, match="coordinate 1"):
            finite_difference_gradient(f, np.array([0.0, 0.5, 0.0]), 1e-3)

    def test_scalar_f_without_coordinates(self):
        g = finite_difference_gradient(lambda x: 1.0, np.zeros(0), 1e-6)
        assert g.shape == (0,) and g.dtype == np.float64

    @pytest.mark.parametrize("p", [1, 2, 7])
    def test_vector_f_rows_equal_scalar_sweeps(self, p):
        rng = seeded_rng(71, p)
        x0 = rng.standard_normal(p)
        w = rng.standard_normal((3, p))
        parts = [
            lambda x: float(np.sum(np.sin(w[0] * x))),
            lambda x: float(np.dot(w[1], x) ** 2),
            lambda x: float(np.exp(np.dot(w[2], x) / p)),
        ]
        g = finite_difference_gradient(lambda x: [f(x) for f in parts], x0, 1e-6)
        assert g.shape == (3, p)
        for row, f in zip(g, parts):
            assert row.tobytes() == finite_difference_gradient(f, x0, 1e-6).tobytes()

    @pytest.mark.parametrize("entry", [0, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_vector_f_non_finite_entry_reports_coordinate(self, entry, bad):
        def f(x):
            out = [0.0, float(x[0]), 1.0]
            if x[2] < -0.5:
                out[entry] = bad
            return out

        with pytest.raises(OracleError, match="coordinate 2"):
            finite_difference_gradient(f, np.array([0.0, 0.5, -0.5]), 1e-3)


class TestErrorMetrics:
    def test_gradcheck_error_is_norm_relative(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0 + 2e-5])
        assert gradcheck_error(a, b) == pytest.approx(2e-5 / 2.00002, rel=1e-12)

    def test_max_relative_discrepancy_floor(self):
        a = np.array([0.0, 1.0])
        b = np.array([1e-9, 1.0])
        # the tiny entry is measured against the floor, not against itself
        assert max_relative_discrepancy(a, b, floor=1e-6) == pytest.approx(1e-3)
