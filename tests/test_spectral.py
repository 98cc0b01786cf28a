import math
import tracemalloc

import numpy as np
import pytest

from amorlip.amortization import exact_partition
from amorlip.encoders import EmbeddingBatch
from amorlip.errors import ContractError, DomainError
from amorlip.numerics import seeded_rng
from amorlip.spectral import (
    CHUNK,
    KernelEstimate,
    imaginary_part_estimate,
    kernel_estimate,
    partition_estimate_mc,
    sample_features,
)


def pair_with_similarity(d, s):
    u1 = np.zeros(d)
    u1[0] = 1.0
    u2 = np.zeros(d)
    u2[0] = s
    u2[1] = math.sqrt(max(0.0, 1.0 - s * s))
    return u1, u2


class TestSampleFeatures:
    def test_same_seed_identical(self):
        f1 = sample_features(500, 4, 1.0, seed=3)
        f2 = sample_features(500, 4, 1.0, seed=3)
        assert np.array_equal(f1.omegas, f2.omegas)

    def test_different_seeds_differ(self):
        f1 = sample_features(500, 4, 1.0, seed=3)
        f2 = sample_features(500, 4, 1.0, seed=4)
        assert not np.array_equal(f1.omegas, f2.omegas)

    def test_coordinate_means_within_clt_bound(self):
        m = 100_000
        fmap = sample_features(m, 4, 1.0, seed=11)
        bound = 3.0 / math.sqrt(m)
        assert np.all(np.abs(fmap.omegas.mean(axis=0)) <= bound)

    def test_coordinate_variances_near_one(self):
        fmap = sample_features(100_000, 4, 1.0, seed=12)
        np.testing.assert_allclose(fmap.omegas.var(axis=0), 1.0, atol=0.02)

    def test_invalid_args_rejected(self):
        with pytest.raises(DomainError):
            sample_features(0, 4, 1.0, seed=1)
        with pytest.raises(DomainError):
            sample_features(10, 4, -1.0, seed=1)


class TestKernelEstimate:
    def test_identical_inputs_exact_with_zero_stderr(self):
        fmap = sample_features(64, 6, 3.0, seed=21)
        u = np.zeros(6)
        u[2] = 1.0
        est = kernel_estimate(u, u.copy(), fmap)
        assert est.value == math.exp(3.0)
        assert est.stderr == 0.0

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_within_three_stderr(self, s):
        # s = 0 targets exp(0) = 1; s = 0.5 at tau = 2 targets e
        tau, m = 2.0, 200_000
        u1, u2 = pair_with_similarity(5, s)
        est = kernel_estimate(u1, u2, sample_features(m, 5, tau, seed=22))
        assert abs(est.value - math.exp(tau * s)) <= 3.0 * est.stderr

    def test_one_feature_has_infinite_stderr(self):
        # a single sample says nothing about the spread, even though its
        # range is zero
        fmap = sample_features(1, 2, 1.0, seed=25)
        est = kernel_estimate(*pair_with_similarity(2, 0.5), fmap)
        assert math.isfinite(est.value) and est.stderr == math.inf
        (part,) = partition_estimate_mc(
            np.array([[1.0, 0.0]]), EmbeddingBatch(np.array([[0.0, 1.0]])), fmap
        )
        assert part.stderr == math.inf
        # identical inputs are still answered exactly, without a projection
        u = np.array([1.0, 0.0])
        assert kernel_estimate(u, u.copy(), fmap).stderr == 0.0

    def test_non_unit_input_rejected(self):
        fmap = sample_features(16, 3, 1.0, seed=23)
        with pytest.raises(ContractError):
            kernel_estimate(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), fmap)

    def test_dim_mismatch_rejected(self):
        fmap = sample_features(16, 3, 1.0, seed=24)
        with pytest.raises(ContractError):
            kernel_estimate(np.array([1.0, 0.0]), np.array([1.0, 0.0]), fmap)


class TestPartitionEstimate:
    def test_single_matching_reference_is_exact(self):
        fmap = sample_features(256, 4, 2.0, seed=31)
        u = np.zeros(4)
        u[1] = 1.0
        others = EmbeddingBatch(u[None, :].copy())
        [est] = partition_estimate_mc(u[None, :], others, fmap)
        assert est.value == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_repeated_references_by_linearity(self):
        fmap = sample_features(256, 4, 2.0, seed=32)
        u = np.zeros(4)
        u[1] = 1.0
        others = EmbeddingBatch(np.tile(u, (7, 1)))
        [est] = partition_estimate_mc(u[None, :], others, fmap)
        assert est.value == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_equals_mean_of_kernel_estimates(self):
        rng = seeded_rng(33)
        fmap = sample_features(4000, 5, 1.5, seed=34)
        raw = rng.standard_normal((6, 5))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        others = EmbeddingBatch(raw)
        u, _ = pair_with_similarity(5, 1.0)
        [combined] = partition_estimate_mc(u[None, :], others, fmap)
        per_ref = [kernel_estimate(u, raw[j], fmap).value for j in range(6)]
        assert abs(combined.value - float(np.mean(per_ref))) <= 1e-12

    def test_matches_exact_partition_within_three_stderr(self):
        tau, m = 1.0, 200_000
        rng = seeded_rng(35)
        raw_q = rng.standard_normal((8, 4))
        raw_q /= np.linalg.norm(raw_q, axis=1, keepdims=True)
        raw_r = rng.standard_normal((8, 4))
        raw_r /= np.linalg.norm(raw_r, axis=1, keepdims=True)
        queries = EmbeddingBatch(raw_q)
        refs = EmbeddingBatch(raw_r)
        pe = exact_partition(queries, refs, tau)
        fmap = sample_features(m, 4, tau, seed=36)
        estimates = partition_estimate_mc(queries.data, refs, fmap)
        assert len(estimates) == 8
        for est, log_z in zip(estimates, pe.log_z_exact):
            assert abs(est.value - math.exp(log_z)) <= 3.0 * est.stderr

    def test_non_unit_reference_rejected(self):
        fmap = sample_features(16, 3, 1.0, seed=37)
        u = np.array([1.0, 0.0, 0.0])
        bad = EmbeddingBatch(np.array([[0.5, 0.5, 0.0]]))
        with pytest.raises(ContractError):
            partition_estimate_mc(u[None, :], bad, fmap)

    def test_queries_must_be_unit_rows(self):
        fmap = sample_features(16, 3, 1.0, seed=38)
        u = np.array([1.0, 0.0, 0.0])
        others = EmbeddingBatch(u[None, :].copy())
        with pytest.raises(ContractError, match="query row 1"):
            partition_estimate_mc(np.array([u, [0.5, 0.5, 0.0]]), others, fmap)
        with pytest.raises(ContractError, match=r"\(k, d\) array"):
            partition_estimate_mc(u, others, fmap)


class TestConvergence:
    def test_rmse_halves_when_features_quadruple(self):
        tau, s = 2.0, 0.5
        u1, u2 = pair_with_similarity(4, s)
        truth = math.exp(tau * s)
        sq0, sq1 = [], []
        for seed in range(50):
            e0 = kernel_estimate(u1, u2, sample_features(2000, 4, tau, seed=400 + seed))
            e1 = kernel_estimate(u1, u2, sample_features(8000, 4, tau, seed=900 + seed))
            sq0.append((e0.value - truth) ** 2)
            sq1.append((e1.value - truth) ** 2)
        ratio = math.sqrt(np.mean(sq1)) / math.sqrt(np.mean(sq0))
        assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5

    def test_imaginary_part_vanishes(self):
        m = 50_000
        u1, u2 = pair_with_similarity(4, 0.3)
        fmap = sample_features(m, 4, 2.0, seed=41)
        assert abs(imaginary_part_estimate(u1, u2, fmap)) <= 3.0 / math.sqrt(m)


# ---------------------------------------------------------------------------
# The estimators work in place and in CHUNK-row steps. These are the
# whole-array formulas they replaced; each figure must match them to the bit.


def reference_estimate(per_feature, scale):
    m = per_feature.shape[0]
    value = scale * float(per_feature.mean())
    if m < 2:
        return KernelEstimate(value, math.inf)
    if float(np.ptp(per_feature)) == 0.0:
        return KernelEstimate(value, 0.0)
    return KernelEstimate(value, scale * float(per_feature.std(ddof=1)) / math.sqrt(m))


def reference_partition(u, others, fmap):
    sqrt_tau = math.sqrt(fmap.tau)
    proj_u = (fmap.omegas @ u) * sqrt_tau
    proj_o = (fmap.omegas @ others.T) * sqrt_tau
    mean_cos = np.cos(proj_o).mean(axis=1)
    mean_sin = np.sin(proj_o).mean(axis=1)
    per_feature = np.cos(proj_u) * mean_cos + np.sin(proj_u) * mean_sin
    return reference_estimate(per_feature, math.exp(fmap.tau))


def unit_rows(seed, n, d):
    raw = seeded_rng(seed).standard_normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# feature counts on either side of one and two chunks of rows
BOUNDARY_M = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


OMEGA_SHAPES = [
    (1, 1), (3, 5), (CHUNK - 1, 1), (CHUNK, 1), (CHUNK + 1, 1),
    (2 * CHUNK - 1, 1), (2 * CHUNK, 1), (2 * CHUNK + 1, 1), (200_000, 4),
]


def same_bits(a: KernelEstimate, b: KernelEstimate) -> bool:
    return (a.value.hex(), float(a.stderr).hex()) == (b.value.hex(), float(b.stderr).hex())


class TestBitIdentity:
    @pytest.mark.parametrize("m, d", OMEGA_SHAPES)
    def test_omegas(self, m, d):
        # the (d, m) ziggurat draw, transposed: one contiguous column per coordinate
        omegas = sample_features(m, d, 1.0, seed=51).omegas
        assert omegas.shape == (m, d)
        assert omegas.flags.f_contiguous
        assert omegas.tobytes() == seeded_rng(51).standard_normal((d, m)).T.tobytes()

    @pytest.mark.parametrize("m, d", OMEGA_SHAPES)
    def test_omegas_drawn_into_out(self, m, d):
        out = np.empty((d, m))
        omegas = sample_features(m, d, 1.0, seed=51, out=out).omegas
        assert np.shares_memory(omegas, out)
        assert omegas.tobytes() == sample_features(m, d, 1.0, seed=51).omegas.tobytes()

    @pytest.mark.parametrize(
        "out",
        [np.empty((2, 9)), np.empty((3, 8)), np.empty((2, 8), np.float32), np.empty((2, 8), order="F")],
        ids=["shape", "transposed", "dtype", "f-order"],
    )
    def test_wrong_out_rejected(self, out):
        with pytest.raises(ContractError, match="C-contiguous float64"):
            sample_features(8, 2, 1.0, seed=51, out=out)

    @pytest.mark.parametrize("m", BOUNDARY_M)
    def test_kernel_into_work(self, m):
        fmap = sample_features(m, 4, 2.0, seed=52)
        u1, u2 = unit_rows(53, 2, 4)
        work = np.empty(m)
        assert same_bits(kernel_estimate(u1, u2, fmap, work=work), kernel_estimate(u1, u2, fmap))

    @pytest.mark.parametrize("work", [np.empty(15), np.empty(16, np.float32)], ids=["shape", "dtype"])
    def test_wrong_work_rejected(self, work):
        fmap = sample_features(16, 2, 1.0, seed=59)
        u = np.array([1.0, 0.0])
        with pytest.raises(ContractError, match="work must be"):
            kernel_estimate(u, u.copy(), fmap, work=work)

    @pytest.mark.parametrize("m", [m for m, _ in OMEGA_SHAPES])
    def test_two_coordinate_draw_is_leading_columns(self, m):
        # the (d, m) draw fills row by row, so fewer coordinates are a prefix
        two = sample_features(m, 2, 1.0, seed=57).omegas
        four = sample_features(m, 4, 1.0, seed=57).omegas
        assert two.tobytes() == four[:, :2].tobytes()

    @pytest.mark.parametrize("m", [1, CHUNK + 1, 200_000])
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5])
    def test_planar_pair_matches_zero_padded_pair(self, m, s):
        u1, u2 = pair_with_similarity(2, s)
        p1, p2 = pair_with_similarity(4, s)
        est2 = kernel_estimate(u1, u2, sample_features(m, 2, 2.0, seed=58))
        est4 = kernel_estimate(p1, p2, sample_features(m, 4, 2.0, seed=58))
        assert same_bits(est2, est4)

    def test_identical_inputs_still_checked(self):
        fmap = sample_features(16, 2, 1.0, seed=59)
        v = np.array([1.0, 1.0])
        with pytest.raises(ContractError, match="unit-norm"):
            kernel_estimate(v, v.copy(), fmap)
        w = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ContractError, match="feature dim"):
            kernel_estimate(w, w.copy(), fmap)

    @pytest.mark.parametrize("m", BOUNDARY_M)
    def test_kernel_and_imaginary_part(self, m):
        fmap = sample_features(m, 4, 2.0, seed=52)
        u1, u2 = unit_rows(53, 2, 4)
        for a, b in ((u1, u2), (u1, u1.copy())):
            proj = (fmap.omegas @ (a - b)) * math.sqrt(fmap.tau)
            assert same_bits(
                kernel_estimate(a, b, fmap), reference_estimate(np.cos(proj), math.exp(2.0))
            )
            assert imaginary_part_estimate(a, b, fmap) == float(np.sin(proj).mean())

    @pytest.mark.parametrize("m", BOUNDARY_M)
    @pytest.mark.parametrize("n", [1, 8])
    def test_partition(self, m, n):
        fmap = sample_features(m, 4, 1.0, seed=54)
        queries, refs = unit_rows(55, 8, 4), unit_rows(56, n, 4)
        estimates = partition_estimate_mc(queries, EmbeddingBatch(refs), fmap)
        assert estimates == [reference_partition(u, refs, fmap) for u in queries]


def traced_peak(fn):
    """fn's result and the most memory it held above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


MIB = 1 << 20


class TestMemory:
    def test_sample_features_holds_little_beyond_its_output(self):
        sample_features(1, 1, 1.0, seed=60)  # numpy.random's first seeding sets up ~1 MiB once
        fmap, peak = traced_peak(lambda: sample_features(200_000, 4, 1.0, seed=61))
        assert peak <= fmap.omegas.nbytes + MIB

    def test_partition_estimate_holds_four_feature_vectors(self):
        m = 200_000
        fmap = sample_features(m, 4, 1.0, seed=62)
        queries, refs = unit_rows(63, 8, 4), EmbeddingBatch(unit_rows(64, 8, 4))
        estimates, peak = traced_peak(lambda: partition_estimate_mc(queries, refs, fmap))
        assert len(estimates) == 8
        assert peak <= 4 * m * 8 + MIB
