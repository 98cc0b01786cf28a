import math

import numpy as np
import pytest

from amorlip.data import PairedDataset, generate_synthetic, split_eval
from amorlip.encoders import EmbeddingBatch
from amorlip.errors import ContractError
from amorlip.evaluation import (
    _partner_ranks,
    class_prototypes,
    evaluate_model,
    partition_gap_stats,
    zero_shot_accuracy,
)
from amorlip.numerics import seeded_rng
from amorlip.trainer import TrainConfig, init_train_state, run_clip_baseline


def unit_rows(rng, n, d):
    raw = rng.standard_normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def brute_force_recall(scores, k):
    """Exhaustive ranking oracle with lower-index tie preference."""
    m = scores.shape[0]
    hits = 0
    for i in range(m):
        order = sorted(range(m), key=lambda j: (-scores[i, j], j))
        if i in order[:k]:
            hits += 1
    return hits / m


def recall(a, b, k):
    """Recall@k in both directions from the partner ranks evaluate_model uses."""
    ranks_ab, ranks_ba = _partner_ranks(EmbeddingBatch(a, "a"), EmbeddingBatch(b, "b"))
    return float(np.mean(ranks_ab <= k)), float(np.mean(ranks_ba <= k))


class TestRecallAtK:
    def test_identical_batches_full_recall(self):
        rng = seeded_rng(201)
        e = unit_rows(rng, 6, 5)
        ab, ba = recall(e, e.copy(), 1)
        assert ab == 1.0 and ba == 1.0

    def test_reversed_rows_zero_recall(self):
        # even count: reversal leaves no row in place
        rng = seeded_rng(202)
        e = unit_rows(rng, 6, 6)
        ab, ba = recall(e, e[::-1].copy(), 1)
        assert ab == 0.0 and ba == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = seeded_rng(203)
        a = unit_rows(rng, 5, 4)
        b = unit_rows(rng, 5, 4)
        scores = a @ b.T
        for k in (1, 2, 5):
            ab, ba = recall(a, b, k)
            assert ab == brute_force_recall(scores, k)
            assert ba == brute_force_recall(scores.T, k)

    def test_ties_break_toward_lower_index(self):
        # rows 0 and 1 of b are identical: query 1 ties and loses at k = 1
        b = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ranks_ab, _ = _partner_ranks(EmbeddingBatch(a, "a"), EmbeddingBatch(b, "b"))
        assert ranks_ab.tolist() == [1, 2, 1]
        assert recall(a, b, 1)[0] == pytest.approx(2.0 / 3.0)

    def test_invariant_under_joint_permutation(self):
        rng = seeded_rng(204)
        a = unit_rows(rng, 8, 5)
        b = unit_rows(rng, 8, 5)
        perm = rng.permutation(8)
        assert recall(a, b, 2) == recall(a[perm], b[perm], 2)


class TestZeroShot:
    def test_aligned_prototypes_perfect(self):
        protos = np.eye(4)
        labels = np.array([0, 1, 2, 3, 2])
        emb = EmbeddingBatch(protos[labels], "a")
        assert zero_shot_accuracy(emb, protos, labels) == 1.0

    def test_orthogonal_prototypes_chance_level(self):
        rng = seeded_rng(211)
        n = 4000
        emb = EmbeddingBatch(unit_rows(rng, n, 8), "a")
        protos = np.zeros((2, 8))
        protos[0, 0] = 1.0
        protos[1, 1] = 1.0
        labels = rng.integers(0, 2, size=n)
        acc = zero_shot_accuracy(emb, protos, labels)
        assert abs(acc - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_matches_exhaustive_oracle(self):
        rng = seeded_rng(212)
        emb_data = unit_rows(rng, 10, 5)
        protos = unit_rows(rng, 4, 5)
        labels = rng.integers(0, 4, size=10)
        oracle = np.mean(
            [
                max(range(4), key=lambda c: (emb_data[i] @ protos[c], -c)) == labels[i]
                for i in range(10)
            ]
        )
        assert zero_shot_accuracy(EmbeddingBatch(emb_data, "a"), protos, labels) == oracle

    def test_invariant_under_increasing_transform(self):
        # scaling all similarities by a positive temperature keeps the argmax
        rng = seeded_rng(213)
        emb_data = unit_rows(rng, 20, 6)
        protos = unit_rows(rng, 5, 6)
        labels = rng.integers(0, 5, size=20)
        base = zero_shot_accuracy(EmbeddingBatch(emb_data, "a"), protos, labels)
        for tau in (0.1, 7.0, 50.0):
            scaled = zero_shot_accuracy(EmbeddingBatch(emb_data, "a"), protos * tau, labels)
            assert scaled == base

    def test_label_out_of_range_rejected(self):
        rng = seeded_rng(214)
        emb = EmbeddingBatch(unit_rows(rng, 3, 4), "a")
        with pytest.raises(ContractError):
            zero_shot_accuracy(emb, np.eye(4), np.array([0, 1, 9]))


class TestPrototypes:
    def test_prototypes_unit_norm_and_aligned(self):
        rng = seeded_rng(221)
        protos = class_prototypes(
            EmbeddingBatch(np.tile(np.eye(3), (4, 1)), "b"),
            np.tile(np.arange(3), 4),
            3,
        )
        np.testing.assert_allclose(protos, np.eye(3), atol=1e-12)

    def test_absent_class_keeps_zero_prototype(self):
        emb = EmbeddingBatch(np.eye(2), "b")
        protos = class_prototypes(emb, np.array([0, 0]), 3)
        assert np.all(protos[1] == 0.0) and np.all(protos[2] == 0.0)


class TestPartitionStats:
    def test_gap_stats_basic(self):
        z = {"a": seeded_rng(231).standard_normal(9), "b": seeded_rng(233).standard_normal(4)}
        med, mean = partition_gap_stats(z, z)
        assert med == 0.0 and mean == 0.0
        med, mean = partition_gap_stats({m: v + 0.2 for m, v in z.items()}, z)
        assert abs(med - 0.2) < 1e-15 and abs(mean - 0.2) < 1e-15
        # pooled over both modalities: the median spans the a and b gaps
        med, mean = partition_gap_stats({"a": z["a"] + 0.1, "b": z["b"] + 0.3}, z)
        assert abs(med - 0.1) < 1e-15 and abs(mean - (9 * 0.1 + 4 * 0.3) / 13) < 1e-15

    def test_shift_invariance(self):
        rng = seeded_rng(232)
        lam = {"a": rng.standard_normal(20), "b": rng.standard_normal(20)}
        z = {"a": rng.standard_normal(20), "b": rng.standard_normal(20)}
        base = partition_gap_stats(lam, z)
        shifted = partition_gap_stats(
            {m: v + 3.7 for m, v in lam.items()}, {m: v + 3.7 for m, v in z.items()}
        )
        np.testing.assert_allclose(shifted, base, rtol=1e-12)

    def test_partition_error_exact_amortizer(self):
        # identical slice rows give a constant partition, which a zeroed
        # amortizer with a bias head can match analytically
        from amorlip.amortization import exact_partition
        from amorlip.encoders import encode

        cfg = TrainConfig(epochs=1, batch_size=4, embed_dim=6, encoder_hidden=8, seed=2)
        row_a = np.ones((12, 5), dtype=np.float32)
        row_b = np.ones((12, 4), dtype=np.float32)
        ds = PairedDataset(row_a, row_b, np.zeros(12, dtype=np.uint32), num_classes=2)
        state = init_train_state(cfg, ds)
        tau = state.temperature.tau
        emb = {
            m: encode(state.encoders, arr.astype(np.float64), m)[0]
            for m, arr in (("a", row_a), ("b", row_b))
        }
        constant_log_z = {
            "a": exact_partition(emb["a"], emb["b"], tau).log_z_exact[0],
            "b": exact_partition(emb["b"], emb["a"], tau).log_z_exact[0],
        }
        for m in ("a", "b"):
            net = state.targets[m].ema
            for w in net.weights:
                w.value[...] = 0.0
            for b in net.biases:
                b.value[...] = 0.0
            net.biases[-1].value[0, 0] = constant_log_z[m]
        report = evaluate_model(state, ds)
        assert report.median_abs_log_z_err < 1e-12 and report.mean_abs_log_z_err < 1e-12
        for m in ("a", "b"):
            state.targets[m].ema.biases[-1].value[0, 0] = constant_log_z[m] + 0.2
        report = evaluate_model(state, ds)
        assert abs(report.median_abs_log_z_err - 0.2) < 1e-12
        assert abs(report.mean_abs_log_z_err - 0.2) < 1e-12

    def test_partition_error_requires_amortizers(self):
        ds = generate_synthetic(60, 3, 6, 5, 0.05, seed=4)
        cfg = TrainConfig(method="clip", epochs=1, batch_size=8, embed_dim=6, encoder_hidden=8, seed=4)
        state = run_clip_baseline(cfg, ds)
        report = evaluate_model(state, ds)
        assert report.median_abs_log_z_err is None and report.mean_abs_log_z_err is None


class TestEvaluateModel:
    def test_report_fields(self):
        ds = generate_synthetic(300, 4, 8, 7, 0.05, seed=5)
        cfg = TrainConfig(epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=5)
        from amorlip.trainer import run_amorlip

        state = run_amorlip(cfg, ds)
        _, eval_ds = split_eval(ds, cfg.eval_fraction, cfg.seed)
        report = evaluate_model(state, eval_ds)
        payload = report.to_json_dict()
        assert set(payload) == {
            "recall_at_1",
            "recall_at_5",
            "zero_shot_accuracy",
            "n_eval",
            "median_abs_log_z_err",
            "mean_abs_log_z_err",
        }
        assert 0.0 <= payload["zero_shot_accuracy"] <= 1.0
        assert payload["n_eval"] == eval_ds.n

    def test_clip_report_omits_partition_fields(self):
        ds = generate_synthetic(300, 4, 8, 7, 0.05, seed=5)
        cfg = TrainConfig(method="clip", epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=5)
        state = run_clip_baseline(cfg, ds)
        _, eval_ds = split_eval(ds, cfg.eval_fraction, cfg.seed)
        payload = evaluate_model(state, eval_ds).to_json_dict()
        assert "median_abs_log_z_err" not in payload
        assert "mean_abs_log_z_err" not in payload
