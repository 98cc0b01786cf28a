import dataclasses
import math
import re

import numpy as np
import pytest

from amorlip import losses
from amorlip.amortization import exact_partition
from amorlip.encoders import EmbeddingBatch
from amorlip.errors import ConfigError, DegenerateInputError, DomainError
from amorlip.losses import (
    amortized_mle_loss,
    mle_gradient_equivalence_check,
    nce_loss,
    rho_at,
    temperature_rescale,
)
from amorlip.numerics import seeded_rng
from amorlip.trainer import TrainConfig
from amorlip.verify import suite_equivalence


def unit_batch(rng, n, d):
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return EmbeddingBatch(raw)


def identical_batch(n, d):
    row = np.zeros(d)
    row[0] = 1.0
    return EmbeddingBatch(np.tile(row, (n, 1)))


def nce_direct_sum(a, b, tau):
    """Independent oracle: literal double loops over the definition."""
    n = a.shape[0]
    value = 0.0
    for i in range(n):
        value += -(2.0 * tau / n) * float(np.dot(a[i], b[i]))
    for i in range(n):
        value += math.log(sum(math.exp(tau * float(np.dot(a[i], b[j]))) for j in range(n))) / n
        value += math.log(sum(math.exp(tau * float(np.dot(a[j], b[i]))) for j in range(n))) / n
    return value


class TestNceLoss:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("tau", [1.0, 10.0, 50.0])
    def test_identical_batch_closed_form(self, n, tau):
        out = nce_loss(identical_batch(n, 5), identical_batch(n, 5), tau)
        assert abs(out.value - 2.0 * math.log(n)) < 1e-9

    def test_orthogonal_pair_pattern(self):
        a = EmbeddingBatch(np.eye(2))
        b = EmbeddingBatch(np.eye(2))
        out = nce_loss(a, b, 1.0)
        expected = -2.0 + 2.0 * math.log(math.e + 1.0)
        assert abs(out.value - expected) < 1e-12
        assert abs(expected - 0.626523375) < 1e-8

    def test_value_matches_direct_sum_oracle(self):
        rng = seeded_rng(101)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            a = unit_batch(rng, n, 6)
            b = unit_batch(rng, n, 6)
            tau = float(rng.uniform(0.5, 5.0))
            out = nce_loss(a, b, tau)
            assert abs(out.value - nce_direct_sum(a.data, b.data, tau)) < 1e-10

    def test_invariant_under_joint_permutation(self):
        rng = seeded_rng(102)
        a = unit_batch(rng, 6, 5)
        b = unit_batch(rng, 6, 5)
        perm = rng.permutation(6)
        base = nce_loss(a, b, 2.0).value
        shuffled = nce_loss(
            EmbeddingBatch(a.data[perm]), EmbeddingBatch(b.data[perm]), 2.0
        ).value
        assert abs(base - shuffled) < 1e-12

    def test_single_pair_rejected(self):
        with pytest.raises(DegenerateInputError):
            nce_loss(identical_batch(1, 4), identical_batch(1, 4), 1.0)


class TestAmortizedMleLoss:
    def test_exact_partition_gives_second_term_two(self):
        rng = seeded_rng(111)
        for tau in (0.7, 3.0):
            a = unit_batch(rng, 5, 6)
            b = unit_batch(rng, 5, 6)
            lz_a = exact_partition(a, b, tau).log_z_exact
            lz_b = exact_partition(b, a, tau).log_z_exact
            out = amortized_mle_loss(a, b, tau, lz_a, lz_b)
            trace = float(np.trace(a.data @ b.data.T))
            assert abs(out.value + (2.0 * tau / 5) * trace - 2.0) < 1e-12

    def test_identical_batch_with_scale_matched_lambda(self):
        tau = 2.5
        a = identical_batch(4, 5)
        b = identical_batch(4, 5)
        log_lam = np.full(4, tau)
        out = amortized_mle_loss(a, b, tau, log_lam, log_lam)
        assert abs(out.value - (-2.0 * tau + 2.0)) < 1e-12

    def test_per_pair_independence(self):
        # the double sum can be evaluated pair by pair and reassembled
        rng = seeded_rng(112)
        n, tau = 6, 1.7
        a = unit_batch(rng, n, 4)
        b = unit_batch(rng, n, 4)
        la = rng.standard_normal(n)
        lb = rng.standard_normal(n)
        out = amortized_mle_loss(a, b, tau, la, lb)
        acc = 0.0
        for i in range(n):
            acc += -(2.0 * tau / n) * float(np.dot(a.data[i], b.data[i]))
        for i in range(n):
            for j in range(n):
                s = float(np.dot(a.data[i], b.data[j]))
                acc += (math.exp(tau * s - la[i]) + math.exp(tau * s - lb[j])) / (n * n)
        assert abs(out.value - acc) < 1e-12

    def test_overflow_reports_pair(self):
        a = identical_batch(3, 4)
        b = identical_batch(3, 4)
        log_lam = np.array([0.0, -800.0, 0.0])
        # the callers run it with numpy warnings off, as run_training does
        with np.errstate(over="ignore"), pytest.raises(DomainError, match=r"\(1, 0\)"):
            amortized_mle_loss(a, b, 1.0, log_lam, np.zeros(3))


class TestGradientEquivalence:
    def test_random_batches_tau_one(self):
        rng = seeded_rng(121)
        for _ in range(5):
            a = unit_batch(rng, 4, 8)
            b = unit_batch(rng, 4, 8)
            assert mle_gradient_equivalence_check(a, b, 1.0) < 1e-10

    def test_identical_embeddings(self):
        a = identical_batch(4, 8)
        b = identical_batch(4, 8)
        assert mle_gradient_equivalence_check(a, b, 1.0) < 1e-10

    def test_large_temperature_looser(self):
        rng = seeded_rng(122)
        a = unit_batch(rng, 8, 8)
        b = unit_batch(rng, 8, 8)
        assert mle_gradient_equivalence_check(a, b, 10.0) < 1e-8

    @pytest.mark.parametrize("field", ["tau_grad", "grad_b"])
    def test_reads_the_production_loss(self, monkeypatch, field):
        # a relative error of 1e-6 in one gradient of the trainer's amortized
        # loss must fail both checks: the check runs that loss, not a copy
        production = losses.amortized_mle_loss

        def skewed(*args):
            out = production(*args)
            return dataclasses.replace(out, **{field: getattr(out, field) * (1.0 + 1e-6)})

        monkeypatch.setattr(losses, "amortized_mle_loss", skewed)
        assert [c["status"] for c in suite_equivalence(batches=2)] == ["fail", "fail"]


class TestTemperatureRescale:
    def test_scales_value_and_gradients(self):
        rng = seeded_rng(131)
        a = unit_batch(rng, 4, 5)
        b = unit_batch(rng, 4, 5)
        tau = 4.0
        raw = nce_loss(a, b, tau)
        out = temperature_rescale(raw, tau, rho=0.0)
        assert abs(out.value - raw.value / tau) < 1e-14
        np.testing.assert_allclose(out.grad_a, raw.grad_a / tau)
        np.testing.assert_allclose(out.grad_b, raw.grad_b / tau)

    def test_regularizer_arithmetic(self):
        raw = nce_loss(identical_batch(2, 4), identical_batch(2, 4), 13.0)
        zeroed = type(raw)(value=0.0, grad_a=raw.grad_a * 0, grad_b=raw.grad_b * 0, tau_grad=0.0)
        out = temperature_rescale(zeroed, 13.0, rho=6.5)
        assert abs(out.value - 0.5) < 1e-15
        assert abs(out.tau_grad - (-6.5 / 169.0)) < 1e-15

    def test_non_positive_tau_rejected(self):
        raw = nce_loss(identical_batch(2, 4), identical_batch(2, 4), 1.0)
        with pytest.raises(DomainError):
            temperature_rescale(raw, 0.0, 1.0)


class TestRhoSchedule:
    def test_boundary_epochs(self):
        assert rho_at(22, 30, 6.5, -8.0, 0.75) == 6.5
        assert rho_at(23, 30, 6.5, -8.0, 0.75) == -8.0
        assert rho_at(30, 30, 6.5, -8.0, 0.75) == -8.0

    def test_fraction_one_never_anneals(self):
        assert all(rho_at(e, 30, 6.5, -8.0, 1.0) == 6.5 for e in range(1, 31))

    def test_bad_fraction_rejected(self):
        # rho_at takes its fraction from a TrainConfig, which checks it
        message = "config key 'anneal_start_fraction' must lie in [0, 1], got 1.5"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainConfig(anneal_start_fraction=1.5)
