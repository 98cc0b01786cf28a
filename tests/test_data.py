import math

import numpy as np
import pytest

from amorlip.data import (
    MAGIC,
    PairedDataset,
    dataset_file_size,
    generate_synthetic,
    load_dataset,
    make_batch_plan,
    save_dataset,
    split_eval,
)
from amorlip.errors import ConfigError, FormatError


class TestGenerateSynthetic:
    def test_zero_noise_collapses_classes(self):
        ds = generate_synthetic(60, 5, 8, 6, noise_sigma=0.0, seed=1)
        for c in range(5):
            rows = ds.mod_a[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_same_seed_bitwise_identical(self):
        d1 = generate_synthetic(100, 4, 8, 6, 0.05, seed=9)
        d2 = generate_synthetic(100, 4, 8, 6, 0.05, seed=9)
        assert np.array_equal(d1.mod_a, d2.mod_a)
        assert np.array_equal(d1.mod_b, d2.mod_b)
        assert np.array_equal(d1.labels, d2.labels)

    def test_class_counts_within_binomial_bound(self):
        n, c = 1000, 10
        ds = generate_synthetic(n, c, 8, 6, 0.05, seed=2)
        p = 1.0 / c
        bound = 3.0 * math.sqrt(n * p * (1 - p))
        counts = np.bincount(ds.labels, minlength=c)
        assert np.all(np.abs(counts - n * p) <= bound)

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            generate_synthetic(1, 2, 8, 6, 0.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(10, 1, 8, 6, 0.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(10, 2, 1, 6, 0.0, seed=0)

    def test_linear_probe_recovers_classes(self):
        # with small noise a linear readout separates the classes, so a
        # perfect encoder exists for the pairing task
        ds = generate_synthetic(2000, 10, 16, 12, noise_sigma=0.05, seed=3)
        half = 1000
        onehot = np.eye(10)[ds.labels[:half]]
        for feats in (ds.mod_a, ds.mod_b):
            x = np.concatenate([feats, np.ones((2000, 1))], axis=1).astype(np.float64)
            w, *_ = np.linalg.lstsq(x[:half], onehot, rcond=None)
            pred = np.argmax(x[half:] @ w, axis=1)
            accuracy = float(np.mean(pred == ds.labels[half:]))
            assert accuracy > 0.95


class TestFileFormat:
    def make(self):
        return generate_synthetic(50, 4, 7, 5, 0.05, seed=4)

    def test_round_trip_byte_identical(self, tmp_path):
        ds = self.make()
        p1, p2 = tmp_path / "a.apds", tmp_path / "b.apds"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_formula(self, tmp_path):
        ds = self.make()
        path = tmp_path / "d.apds"
        save_dataset(ds, path)
        expected = 6 + 16 + 4 * ds.n * (ds.dim_a + ds.dim_b) + 4 * ds.n
        assert path.stat().st_size == expected == dataset_file_size(ds.n, ds.dim_a, ds.dim_b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.apds"
        path.write_bytes(b"NOPE!\n" + b"\x00" * 64)
        with pytest.raises(FormatError) as err:
            load_dataset(path)
        assert err.value.offset == 0

    def test_truncated_payload_rejected(self, tmp_path):
        ds = self.make()
        path = tmp_path / "t.apds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = self.make()
        path = tmp_path / "t.apds"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        import struct

        path = tmp_path / "e.apds"
        path.write_bytes(MAGIC + struct.pack("<4I", 0, 3, 3, 2))
        with pytest.raises(FormatError, match="empty"):
            load_dataset(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        ds = self.make()
        path = tmp_path / "l.apds"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (99).to_bytes(4, "little")  # corrupt the last label
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="label"):
            load_dataset(path)


class TestBatchIterator:
    def test_counts_and_distinctness(self):
        ds = generate_synthetic(10, 2, 4, 4, 0.0, seed=5)
        plan = make_batch_plan(ds.n, 4, seed=0, epoch=1)
        assert plan.shape == (2, 4)
        assert len(set(plan.ravel().tolist())) == 8

    def test_deterministic_per_seed_epoch(self):
        ds = generate_synthetic(30, 2, 4, 4, 0.0, seed=5)
        b1 = make_batch_plan(ds.n, 8, seed=3, epoch=2)
        b2 = make_batch_plan(ds.n, 8, seed=3, epoch=2)
        assert b1.shape == (3, 8)
        assert np.array_equal(b1, b2)

    def test_epochs_use_different_permutations(self):
        plan1 = make_batch_plan(200, 8, seed=3, epoch=1)
        plan2 = make_batch_plan(200, 8, seed=3, epoch=2)
        assert sorted(plan1.ravel().tolist()) == sorted(plan2.ravel().tolist()) == list(range(200))
        assert not np.array_equal(plan1, plan2)

    def test_no_index_repeats_within_epoch(self):
        plan = make_batch_plan(100, 7, seed=1, epoch=4)
        assert plan.shape == (14, 7)
        assert len(set(plan.ravel().tolist())) == plan.size

    def test_bad_batch_sizes_rejected(self):
        ds = generate_synthetic(10, 2, 4, 4, 0.0, seed=5)
        with pytest.raises(ConfigError):
            make_batch_plan(ds.n, 1, 0, 1)
        with pytest.raises(ConfigError):
            make_batch_plan(ds.n, 11, 0, 1)


class TestSplitEval:
    def test_sizes_and_disjointness(self):
        ds = generate_synthetic(100, 4, 6, 5, 0.05, seed=6)
        train, held = split_eval(ds, 0.1, seed=7)
        assert train.n == 90 and held.n == 10
        # no shared rows: compare raw bytes of each sample
        train_rows = {r.tobytes() for r in train.mod_a}
        held_rows = {r.tobytes() for r in held.mod_a}
        assert not train_rows & held_rows

    def test_deterministic(self):
        ds = generate_synthetic(100, 4, 6, 5, 0.05, seed=6)
        t1, e1 = split_eval(ds, 0.1, seed=7)
        t2, e2 = split_eval(ds, 0.1, seed=7)
        assert np.array_equal(t1.mod_a, t2.mod_a)
        assert np.array_equal(e1.labels, e2.labels)

    def test_bad_fraction_rejected(self):
        ds = generate_synthetic(20, 2, 4, 4, 0.0, seed=5)
        with pytest.raises(ConfigError):
            split_eval(ds, 0.0, seed=1)


class TestPairedDatasetValidation:
    def test_label_range_enforced(self):
        with pytest.raises(Exception):
            PairedDataset(
                mod_a=np.zeros((3, 2), dtype=np.float32),
                mod_b=np.zeros((3, 2), dtype=np.float32),
                labels=np.array([0, 1, 5], dtype=np.uint32),
                num_classes=2,
            )

    def test_subset_copies(self):
        ds = generate_synthetic(20, 2, 4, 4, 0.0, seed=5)
        sub = ds.subset([0, 3, 5])
        sub.mod_a[0, 0] = 42.0
        assert ds.mod_a[0, 0] != 42.0
