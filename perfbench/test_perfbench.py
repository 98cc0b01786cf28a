"""Tests of the benchmark itself: span arithmetic, and that every output
check passes on real outputs and fails on a deliberately corrupted one.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from amorlip import (  # noqa: E402
    MetricsWriter,
    TrainConfig,
    checkpoint_save,
    evaluate_model,
    generate_synthetic,
    init_train_state,
    load_eval_model,
    run_training,
    save_dataset,
    split_eval,
)


class ScriptedClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    clock = ScriptedClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spans.Tracer(clock)
    root = tracer.begin("root")
    a = tracer.begin("a")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(root)

    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    summary = spans.summarize(tracer.spans)
    assert set(summary) == {"root"}
    assert sum(e["self_s"] for e in summary["root"].values()) == summary["root"]["root"]["incl_s"] == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["x", 1.0, 5.0, 0, 0],
        ["y", 4.0, 7.0, 0, 0],
        ["z", 9.0, 12.0, 0, 0],  # runs past its parent; only [9, 10] is covered
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_groups_by_top_level_span():
    tree = [
        ["run", 0.0, 4.0, -1, 0],
        ["f", 1.0, 2.0, 0, 64],
        ["eval", 5.0, 8.0, -1, 0],
        ["f", 6.0, 7.0, 2, 9],
    ]
    summary = spans.summarize(tree)
    assert summary["run"]["f"] == {"self_s": 1.0, "incl_s": 1.0, "calls": 1, "pairs": 64}
    assert summary["eval"]["f"]["pairs"] == 9


def test_wrap_records_pairs_and_patched_restores_after_error():
    class Owner:
        @staticmethod
        def f(x, y):
            raise RuntimeError("boom")

    original = Owner.f
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.patched([(Owner, "f", tracer.wrap("owner.f", Owner.f, lambda x, y: x * y))]):
            Owner.f(3, 4)
    assert Owner.f is original
    assert tracer.spans[0][0] == "owner.f" and tracer.spans[0][4] == 12
    assert tracer.spans[0][2] is not None


# ---------------------------------------------------------------------------
# output checks


SMALL_CFG = TrainConfig(epochs=2, batch_size=32, t_online=2, log_every=4)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    ds = generate_synthetic(n=400, num_classes=4, dim_a=6, dim_b=5, noise_sigma=0.05, seed=3)
    data_path = str(tmp / "data.apds")
    save_dataset(ds, data_path)
    metrics = MetricsWriter()
    state = run_training(SMALL_CFG, ds, metrics)
    ckpt = str(tmp / "model.ckpt")
    checkpoint_save(state, ckpt)
    with open(ckpt, "rb") as fh:
        blob = fh.read()
    _, eval_ds = split_eval(ds, SMALL_CFG.eval_fraction, SMALL_CFG.seed)
    report = evaluate_model(load_eval_model(ckpt), eval_ds)
    return {
        "ds": ds,
        "data_path": data_path,
        "state": state,
        "records": metrics.records,
        "blob": blob,
        "eval_ds": eval_ds,
        "report": {
            "recall_at_1_ab": report.recall_at_1_ab,
            "recall_at_1_ba": report.recall_at_1_ba,
            "zero_shot_accuracy": report.zero_shot_accuracy,
            "median_abs_log_z_err": report.median_abs_log_z_err,
        },
    }


def test_apds1_size_check(small_run):
    size = os.path.getsize(small_run["data_path"])
    assert checks.check_apds1_size(size, 400, 6, 5) == []
    assert checks.check_apds1_size(size + 1, 400, 6, 5)
    assert checks.check_apds1_size(size, 400, 6, 6)


def test_gather_count_check(small_run):
    per_epoch, total = checks.train_steps(400, SMALL_CFG.eval_fraction, 32, SMALL_CFG.epochs)
    assert (per_epoch, total) == (11, 22)
    expected = checks.expected_gather_count("amorlip", per_epoch, SMALL_CFG.epochs, SMALL_CFG.t_online)
    assert expected == 2 * (11 // 2)
    assert checks.check_gather_count(small_run["state"].gather_count, expected) == []
    assert checks.check_gather_count(small_run["state"].gather_count + 1, expected)
    assert checks.expected_gather_count("clip", per_epoch, SMALL_CFG.epochs, SMALL_CFG.t_online) == total


def test_acceptance_schedule_arithmetic():
    cfg = workloads.train_config("amorlip-l2log")
    per_epoch, total = workloads.planned_steps(cfg)
    assert (per_epoch, total) == (140, 1400)
    assert checks.expected_gather_count("amorlip", per_epoch, cfg.epochs, cfg.t_online) == 170


def test_log_steps_check(small_run):
    records = small_run["records"]
    assert [r["step"] for r in records] == [1, 4, 8, 12, 16, 20, 22]
    assert checks.check_log_steps(records, 22, SMALL_CFG.log_every) == []
    assert checks.check_log_steps(records[:-1], 22, SMALL_CFG.log_every)
    assert checks.check_log_steps(records + [dict(records[-1], step=23)], 22, SMALL_CFG.log_every)


def test_loss_decrease_check(small_run):
    records = small_run["records"]
    assert checks.check_loss_decreased(records) == []
    assert checks.check_loss_decreased(records[::-1])
    assert checks.check_loss_decreased([])


def test_stream_check_ignores_only_wall_ms(small_run):
    records = small_run["records"]
    slower = [dict(r, wall_ms=r["wall_ms"] + 1) for r in records]
    assert checks.check_same_stream(records, slower, "repeat") == []
    moved = [dict(r) for r in records]
    moved[3]["tau"] = np.nextafter(moved[3]["tau"], np.inf)
    assert checks.check_same_stream(records, moved, "repeat")


def test_checkpoint_check(small_run):
    expected = workloads.state_arrays(small_run["state"])
    blocks = checks.read_amck1(small_run["blob"])
    assert checks.check_checkpoint(blocks, expected) == []

    name = "encoder_a/w0"
    flipped = dict(blocks)
    flipped[name] = blocks[name].copy()
    flipped[name][0, 0] = -flipped[name][0, 0]
    assert checks.check_checkpoint(flipped, expected)

    # a flipped low mantissa bit in the file itself, in the block's first value
    blob = bytearray(small_run["blob"])
    blob[blob.index(name.encode()) + len(name) + 8] ^= 0x01
    assert checks.check_checkpoint(checks.read_amck1(bytes(blob)), expected)

    assert checks.check_checkpoint({k: v for k, v in blocks.items() if k != name}, expected)
    with pytest.raises(ValueError):
        checks.read_amck1(small_run["blob"] + b"\0")


def test_eval_check(small_run):
    eval_ds = small_run["eval_ds"]
    recomputed = checks.recompute_eval(
        checks.read_amck1(small_run["blob"]),
        eval_ds.mod_a.astype(np.float64),
        eval_ds.mod_b.astype(np.float64),
        eval_ds.labels,
        eval_ds.num_classes,
    )
    report = small_run["report"]
    assert checks.check_eval(report, recomputed) == []
    for key, delta in (
        ("zero_shot_accuracy", 1.0 / eval_ds.n),
        ("recall_at_1_ab", 1.0 / eval_ds.n),
        ("median_abs_log_z_err", 1e-6),
    ):
        assert checks.check_eval(dict(report, **{key: report[key] - delta}), recomputed)


def test_eval_check_catches_a_changed_parameter(small_run):
    eval_ds = small_run["eval_ds"]
    blocks = checks.read_amck1(small_run["blob"])
    blocks["target_a/b2"] = blocks["target_a/b2"] + 0.5
    recomputed = checks.recompute_eval(
        blocks,
        eval_ds.mod_a.astype(np.float64),
        eval_ds.mod_b.astype(np.float64),
        eval_ds.labels,
        eval_ds.num_classes,
    )
    assert checks.check_eval(small_run["report"], recomputed)


def test_verify_check():
    results = [
        {"check": "x", "status": "pass", "value": 0.0, "tolerance": 1.0},
        {"check": "y", "status": "fail", "value": 2.0, "tolerance": 1.0},
    ]
    assert checks.check_verify(results[:1]) == []
    assert checks.check_verify(results) == ["verify check y reports fail"]


def test_traced_training_changes_no_arithmetic():
    cfg = dataclasses.replace(SMALL_CFG, t_online=1)
    ds = generate_synthetic(n=300, num_classes=4, dim_a=6, dim_b=5, noise_sigma=0.05, seed=5)
    plain = MetricsWriter()
    run_training(cfg, ds, plain, start_state=init_train_state(cfg, ds))
    tracer = spans.Tracer()
    traced = MetricsWriter()
    with spans.patched(workloads.training_patches(tracer)):
        run_training(cfg, ds, traced, start_state=init_train_state(cfg, ds))
    assert checks.stream_bytes(plain.records) == checks.stream_bytes(traced.records)
    names = {s[0] for s in tracer.spans}
    assert {"amortization.loss_l2log", "numerics.adamw_amortizer", "numerics.adamw_encoder"} <= names
    row = workloads.layer_metrics(
        [["trainer.run_training", tracer.spans[0][1], tracer.spans[-1][2], -1, 0]]
        + [[n, a, b, p + 1, q] for n, a, b, p, q in tracer.spans],
        steps=plain.records[-1]["step"],
    )
    assert row["amortization.loss_l2log_calls"] == 2.0 * cfg.t_lambda
    assert row["encoders.pairwise_products"] == 3 * 32 * 32


def test_declared_metrics_match_the_produced_ones():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(workloads.layer_metrics([], steps=0)) | {
        "trainer.gather_count",
        "trace.overhead_s",
        "trace.overhead_ms_per_step",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced
