"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the module is self-contained and uses only fixed seeds.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from amorlip.amortization import (
    GENERATORS,
    exact_partition,
    fdiv_weights,
    loss_fdiv_values,
    loss_l2log_values,
)
from amorlip.data import generate_synthetic, split_eval
from amorlip.encoders import EmbeddingBatch
from amorlip.evaluation import evaluate_model
from amorlip.losses import nce_loss
from amorlip.numerics import seeded_rng
from amorlip.trainer import (
    MetricsWriter,
    TrainConfig,
    amortizer_fidelity_experiment,
    run_amorlip,
    run_clip_baseline,
)
from amorlip.verify import suite_equivalence, suite_gradcheck, suite_schedules, suite_spectral

GRID_LN_C = np.linspace(-2.0, 2.0, 41)  # c in [e^-2, e^2], 41 points


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def identical_batch(n, d):
    row = np.zeros(d)
    row[0] = 1.0
    return EmbeddingBatch(np.tile(row, (n, 1)))


@pytest.fixture(scope="module")
def default_dataset():
    return generate_synthetic(10000, 32, 64, 48, noise_sigma=0.05, seed=7)


@pytest.fixture(scope="module")
def directional_runs(default_dataset):
    """Both trainers on the default configuration at seed 7, with metrics."""
    cfg = TrainConfig(seed=7)
    amor_metrics = MetricsWriter()
    t0 = time.perf_counter()
    amor_state = run_amorlip(cfg, default_dataset, amor_metrics)
    clip_metrics = MetricsWriter()
    clip_state = run_clip_baseline(
        dataclasses.replace(cfg, method="clip"), default_dataset, clip_metrics
    )
    elapsed = time.perf_counter() - t0
    return {
        "cfg": cfg,
        "amor_state": amor_state,
        "clip_state": clip_state,
        "amor_metrics": amor_metrics.records,
        "clip_metrics": clip_metrics.records,
        "elapsed": elapsed,
    }


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    checks = suite_gradcheck(instances=20)
    elapsed = time.perf_counter() - t0
    worst = max(c["value"] for c in checks)
    ok = all(c["status"] == "pass" for c in checks) and elapsed < 60.0
    report(
        1,
        "gradient suite",
        ok,
        f"{len(checks)} loss families x 20 instances, worst rel err {worst:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_nce():
    worst = 0.0
    for n in (2, 4, 8):
        for tau in (1.0, 10.0, 50.0):
            value = nce_loss(identical_batch(n, 6), identical_batch(n, 6), tau).value
            worst = max(worst, abs(value - 2.0 * math.log(n)))
    report(2, "closed-form NCE", worst < 1e-9, f"max |value - 2 ln n| = {worst:.2e} (tol 1e-9)")


def test_criterion_3_amortization_optimum():
    rng = seeded_rng(301)
    raw = rng.standard_normal((4, 8))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    emb_l = EmbeddingBatch(raw)
    raw2 = rng.standard_normal((4, 8))
    raw2 /= np.linalg.norm(raw2, axis=1, keepdims=True)
    emb_lp = EmbeddingBatch(raw2)
    tau = 1.5
    log_z = exact_partition(emb_l, emb_lp, tau).log_z_exact
    weights = fdiv_weights(emb_l.data @ emb_lp.data.T, tau, log_z)

    worst_zero = 0.0
    for gen in GENERATORS.values():
        worst_zero = max(worst_zero, abs(loss_fdiv_values(log_z, log_z, gen, weights)[0]))
    worst_zero = max(worst_zero, abs(loss_l2log_values(log_z, log_z)[0]))
    ok_zero = worst_zero <= 1e-12

    minimizers = {}
    for name, gen in GENERATORS.items():
        losses = [loss_fdiv_values(log_z + lc, log_z, gen, weights)[0] for lc in GRID_LN_C]
        minimizers[name] = GRID_LN_C[int(np.argmin(losses))]
    l2_direct = [loss_l2log_values(log_z + lc, log_z)[0] for lc in GRID_LN_C]
    minimizers["l2log_direct"] = GRID_LN_C[int(np.argmin(l2_direct))]

    step = GRID_LN_C[1] - GRID_LN_C[0]
    ok_min = (
        abs(minimizers["kl_affine"]) < 1e-12
        and abs(minimizers["js"]) < 1e-12
        and abs(minimizers["l2log"]) < 1e-12
        and abs(minimizers["l2log_direct"]) < 1e-12
        and abs(minimizers["kl"] - 1.0) <= step + 1e-12
    )
    report(
        3,
        "amortization optimum",
        ok_zero and ok_min,
        f"loss at match <= {worst_zero:.1e} (tol 1e-12); grid minimizers ln c = "
        + ", ".join(f"{k}:{v:.2f}" for k, v in minimizers.items()),
    )


def test_criterion_4_second_order_agreement():
    kl_affine = GENERATORS["kl_affine"].f
    l2log = GENERATORS["l2log"].f
    worst = 0.0
    for eps in (0.1, 0.01, 0.001):
        for t in (1.0 + eps, 1.0 - eps):
            gap = abs(float(kl_affine(np.array([t]))[0] - l2log(np.array([t]))[0]))
            worst = max(worst, gap / eps**3)
    report(4, "second-order agreement", worst <= 0.5, f"max |gap| / |t-1|^3 = {worst:.4f} (tol 0.5)")


def test_criterion_5_gradient_equivalence():
    checks = suite_equivalence(batches=20)
    ok = all(c["status"] == "pass" for c in checks)
    detail = ", ".join(f"{c['check'].split('/')[-1]}={c['value']:.2e}" for c in checks)
    report(5, "maximum-likelihood gradient equivalence", ok, detail)


def test_criterion_6_spectral_suite():
    t0 = time.perf_counter()
    checks = suite_spectral(m_features=200_000, trials=100)
    elapsed = time.perf_counter() - t0
    ok = all(c["status"] == "pass" for c in checks) and elapsed < 120.0
    detail = "; ".join(f"{c['check'].split('/')[-1]}={c['value']:.4g}" for c in checks)
    report(6, "spectral suite", ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_7_schedule_exactness():
    checks = suite_schedules()
    ok = all(c["status"] == "pass" for c in checks)
    detail = "; ".join(f"{c['check'].split('/')[-1]}={c['value']:.3g}" for c in checks)
    report(7, "schedule exactness", ok, detail)


@pytest.mark.parametrize("t_online", [1, 2, 8, 32])
def test_criterion_8_gather_cadence(t_online):
    ds = generate_synthetic(2400, 8, 16, 12, 0.05, seed=7)
    cfg = TrainConfig(
        epochs=1, batch_size=64, embed_dim=12, encoder_hidden=16, seed=7, t_online=t_online
    )
    steps = (2400 - 240) // 64
    amor = run_amorlip(cfg, ds)
    clip = run_clip_baseline(dataclasses.replace(cfg, method="clip"), ds)
    ok = amor.gather_count == steps // t_online and clip.gather_count == steps
    report(
        8,
        f"gather cadence (interval {t_online})",
        ok,
        f"amortized {amor.gather_count} == {steps}//{t_online}, baseline {clip.gather_count} == {steps}",
    )


def test_criterion_9_amortizer_fidelity(default_dataset):
    t0 = time.perf_counter()
    result = amortizer_fidelity_experiment(
        TrainConfig(seed=7), default_dataset, pretrain_epochs=2, invocations=500
    )
    elapsed = time.perf_counter() - t0
    ok = result["median_abs_log_z_err"] < 0.1 and elapsed < 300.0
    report(
        9,
        "amortizer fidelity",
        ok,
        f"median |log gap| = {result['median_abs_log_z_err']:.4f} (tol 0.1), "
        f"tau = {result['tau']:.2f}, {elapsed:.1f}s",
    )


def test_criterion_10_directional_experiment(default_dataset, directional_runs):
    cfg = directional_runs["cfg"]
    _, eval_ds = split_eval(default_dataset, cfg.eval_fraction, cfg.seed)
    amor = evaluate_model(directional_runs["amor_state"], eval_ds)
    clip = evaluate_model(directional_runs["clip_state"], eval_ds)

    amor_recall1 = 0.5 * (amor.recall_at_1_ab + amor.recall_at_1_ba)
    clip_recall1 = 0.5 * (clip.recall_at_1_ab + clip.recall_at_1_ba)
    amor_first = directional_runs["amor_metrics"][0]["stage2_loss_raw"]
    amor_last = directional_runs["amor_metrics"][-1]["stage2_loss_raw"]
    clip_first = directional_runs["clip_metrics"][0]["stage2_loss_raw"]
    clip_last = directional_runs["clip_metrics"][-1]["stage2_loss_raw"]

    ok = (
        amor.zero_shot_accuracy >= clip.zero_shot_accuracy
        and amor_recall1 >= clip_recall1 - 0.01
        and amor_last < amor_first
        and clip_last < clip_first
        and directional_runs["elapsed"] < 900.0
    )
    report(
        10,
        "desk-scale directional experiment",
        ok,
        f"zero-shot {amor.zero_shot_accuracy:.3f} vs {clip.zero_shot_accuracy:.3f}; "
        f"recall@1 {amor_recall1:.3f} vs {clip_recall1:.3f} (-0.01 allowed); "
        f"losses {amor_first:.2f}->{amor_last:.2f} and {clip_first:.2f}->{clip_last:.2f}; "
        f"{directional_runs['elapsed']:.0f}s",
    )


def test_criterion_11_determinism(default_dataset, directional_runs):
    cfg = directional_runs["cfg"]
    amor_again = MetricsWriter()
    run_amorlip(cfg, default_dataset, amor_again)
    clip_again = MetricsWriter()
    run_clip_baseline(dataclasses.replace(cfg, method="clip"), default_dataset, clip_again)

    def frozen(records):
        return "\n".join(
            json.dumps({k: v for k, v in r.items() if k != "wall_ms"}) for r in records
        ).encode()

    ok = frozen(directional_runs["amor_metrics"]) == frozen(amor_again.records) and frozen(
        directional_runs["clip_metrics"]
    ) == frozen(clip_again.records)
    report(
        11,
        "metrics determinism",
        ok,
        f"amortized stream {len(amor_again.records)} records and baseline stream "
        f"{len(clip_again.records)} records reproduce byte-for-byte (wall clock excluded)",
    )
