"""The benchmark's workloads, driven through the package's public API.

A run repeats whole rounds of one workload until its time is up. A
training round generates the seeded dataset, writes and reads it as
APDS1, initialises the training state, trains, saves the checkpoint and
evaluates the held-out split; a verify round runs the four verification
suites at their command-line defaults. Every round's outputs are checked
(see checks.py).

Import this module only after the BLAS thread variables are set: it
imports numpy.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import amorlip
from amorlip import amortization, evaluation, numerics, trainer, verify
from amorlip import (
    AmorlipError,
    MetricsWriter,
    TrainConfig,
    checkpoint_save,
    evaluate_model,
    generate_synthetic,
    init_train_state,
    load_dataset,
    load_eval_model,
    run_training,
    save_dataset,
    split_eval,
)

import checks
from spans import NullTracer, Tracer, patched, summarize

DATA = {"n": 10000, "num_classes": 32, "dim_a": 64, "dim_b": 48, "noise_sigma": 0.05}

# Overrides of the default TrainConfig (the acceptance config) per workload.
TRAINING = {
    "amorlip-l2log": {},
    "clip": {"method": "clip"},
}
SUITES = ("gradcheck", "spectral", "schedules", "equivalence")

# Spans inside run_training, reported per training step as "<span>_ms"
# (self time) and "<span>_calls".
STEP_SPANS = (
    "encoders.encode",
    "encoders.encoder_backward",
    "amortization.exact_partition",
    "amortization.combined_target",
    "amortization.amortize_forward",
    "amortization.amortize_backward",
    "amortization.loss_l2log",
    "amortization.ema_update",
    "losses.amortized_mle_loss",
    "losses.nce_loss",
    "losses.temperature_rescale",
    "numerics.adamw_encoder",
    "numerics.adamw_amortizer",
)
# Top-level spans, once per round, reported as "<span>_ms" (inclusive time).
ROUND_SPANS = (
    "data.generate_synthetic",
    "data.save_dataset",
    "data.load_dataset",
    "trainer.init_train_state",
    "trainer.checkpoint_save",
    "trainer.load_eval_model",
    "evaluation.evaluate_model",
)
# Spans inside a verify suite, reported as "<span>_s" and "<span>_calls" totals.
VERIFY_SPANS = {
    "numerics.finite_difference_gradient": "verify.gradcheck",
    "spectral.sample_features": "verify.spectral",
    "spectral.kernel_estimate": "verify.spectral",
    "spectral.partition_estimate_mc": "verify.spectral",
}


def machine_record(threads: dict[str, str]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "amorlip": amorlip.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": threads,
        "machine": platform.machine(),
    }


def fresh_import_seconds(root: str) -> float:
    """Wall time for a new interpreter to start and import numpy and the package."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # no timeout: with one, subprocess polls the child with sleeps of up to
    # 50 ms, which would quantize the measurement
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, amorlip"], cwd=root, env=env, check=True)
    return time.perf_counter() - t0


def train_config(workload: str) -> TrainConfig:
    return dataclasses.replace(TrainConfig(), **TRAINING[workload])


def planned_steps(cfg: TrainConfig) -> tuple[int, int]:
    return checks.train_steps(DATA["n"], cfg.eval_fraction, cfg.batch_size, cfg.epochs)


def state_arrays(state) -> dict[str, np.ndarray]:
    """What the checkpoint must hold, read from the in-memory state:
    parameters, optimizer moments and step counters."""
    blocks = list(state.encoders.blocks()) + [state.temperature.block]
    for m in state.online or {}:
        blocks += state.online[m].blocks()
        blocks += state.targets[m].ema.blocks()
        blocks += state.targets[m].prev_epoch.blocks()
    out = {b.name: b.value for b in blocks}
    for tag, opt in (("opt_enc", state.opt_encoder), ("opt_amor", state.opt_amortizer)):
        if opt is None:
            continue
        for b in opt.blocks:
            out[f"{tag}/m/{b.name}"] = opt.m[b.name]
            out[f"{tag}/v/{b.name}"] = opt.v[b.name]
        out[f"{tag}/t"] = np.array([[float(opt.t)]])
    for key in ("epoch", "step_in_epoch", "global_step", "gather_count"):
        out[f"meta/{key}"] = np.array([[float(getattr(state, key))]])
    return out


@dataclass
class Round:
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # output checks that did not hold
    error: str | None = None  # why the round's operations failed, if they did
    setup_s: float = 0.0
    work_s: float = 0.0
    eval_s: float | None = None
    steps: int = 0
    gather_count: int = 0
    stream: list[dict] | None = None
    evaluation: dict | None = None


def training_round(workload: str, seed: int, workdir: str, tracer) -> Round:
    cfg = train_config(workload)
    per_epoch, total = planned_steps(cfg)
    rnd = Round(attempted=total + 2)  # the steps, the checkpoint save, the evaluation
    data_path = os.path.join(workdir, "data.apds")
    ckpt_path = os.path.join(workdir, "model.ckpt")
    call = tracer.call
    try:
        t0 = time.perf_counter()
        ds = call("data.generate_synthetic", generate_synthetic, seed=seed, **DATA)
        call("data.save_dataset", save_dataset, ds, data_path)
        ds = call("data.load_dataset", load_dataset, data_path)
        state = call("trainer.init_train_state", init_train_state, cfg, ds)
        t1 = time.perf_counter()
        metrics = MetricsWriter()
        state = call("trainer.run_training", run_training, cfg, ds, metrics, start_state=state)
        t2 = time.perf_counter()
        call("trainer.checkpoint_save", checkpoint_save, state, ckpt_path)
        _, eval_ds = split_eval(ds, cfg.eval_fraction, cfg.seed)
        t3 = time.perf_counter()
        model = call("trainer.load_eval_model", load_eval_model, ckpt_path)
        report = call("evaluation.evaluate_model", evaluate_model, model, eval_ds)
        t4 = time.perf_counter()
    except AmorlipError as exc:
        rnd.failed = rnd.attempted
        rnd.error = f"{type(exc).__name__}: {exc}"
        return rnd
    rnd.setup_s, rnd.work_s, rnd.eval_s = t1 - t0, t2 - t1, t4 - t3
    rnd.steps, rnd.gather_count, rnd.stream = state.global_step, state.gather_count, metrics.records
    rnd.evaluation = {
        "recall_at_1_ab": report.recall_at_1_ab,
        "recall_at_1_ba": report.recall_at_1_ba,
        "zero_shot_accuracy": report.zero_shot_accuracy,
        "median_abs_log_z_err": report.median_abs_log_z_err,
    }

    with open(ckpt_path, "rb") as fh:
        blocks = checks.read_amck1(fh.read())
    expected_gathers = checks.expected_gather_count(cfg.method, per_epoch, cfg.epochs, cfg.t_online)
    rnd.failures += checks.check_apds1_size(os.path.getsize(data_path), DATA["n"], DATA["dim_a"], DATA["dim_b"])
    if state.global_step != total:
        rnd.failures.append(f"trained {state.global_step} steps, the schedule gives {total}")
    rnd.failures += checks.check_gather_count(state.gather_count, expected_gathers)
    rnd.failures += checks.check_log_steps(metrics.records, total, cfg.log_every)
    rnd.failures += checks.check_loss_decreased(metrics.records)
    rnd.failures += checks.check_checkpoint(blocks, state_arrays(state))
    recomputed = checks.recompute_eval(
        blocks,
        eval_ds.mod_a.astype(np.float64),
        eval_ds.mod_b.astype(np.float64),
        eval_ds.labels,
        eval_ds.num_classes,
    )
    rnd.failures += checks.check_eval(rnd.evaluation, recomputed)
    return rnd


def verify_round(tracer) -> Round:
    t0 = time.perf_counter()
    results = []
    for suite in SUITES:
        results += tracer.call(f"verify.{suite}", verify.run_suite, suite)
    rnd = Round(attempted=len(results), work_s=time.perf_counter() - t0)
    rnd.failed = len(checks.check_verify(results))
    return rnd


def _pairs(x, y, *args, **kwargs) -> int:
    return x.n * y.n


def training_patches(tracer: Tracer) -> list[tuple]:
    """Spans around the calls the training loop and evaluation make, replaced
    where each caller looks the name up."""
    wrap = tracer.wrap
    out = []
    for name in ("encode", "encoder_backward"):
        out.append((trainer, name, wrap(f"encoders.{name}", getattr(trainer, name))))
    for name, pairs in (
        ("exact_partition", _pairs),
        ("combined_target", None),
        ("amortize_forward", None),
        ("amortize_backward", None),
        ("loss_l2log", None),
        ("ema_update", None),
    ):
        out.append((trainer, name, wrap(f"amortization.{name}", getattr(trainer, name), pairs)))
    for name, pairs in (
        ("amortized_mle_loss", _pairs),
        ("nce_loss", _pairs),
        ("temperature_rescale", None),
    ):
        out.append((trainer, name, wrap(f"losses.{name}", getattr(trainer, name), pairs)))
    # nested calls inside combined_target and loss_l2log
    for name in ("amortize_forward", "amortize_backward"):
        out.append((amortization, name, wrap(f"amortization.{name}", getattr(amortization, name))))
    out.append((evaluation, "encode", wrap("encoders.encode", evaluation.encode)))
    for name in ("exact_partition", "amortize_forward"):
        out.append((evaluation, name, wrap(f"amortization.{name}", getattr(evaluation, name))))

    adamw_step = numerics.AdamW.step

    def step(opt):
        group = "encoder" if opt.blocks[0].name.startswith("encoder_") else "amortizer"
        idx = tracer.begin(f"numerics.adamw_{group}")
        try:
            adamw_step(opt)
        finally:
            tracer.end(idx)

    out.append((numerics.AdamW, "step", step))
    return out


def verify_patches(tracer: Tracer) -> list[tuple]:
    """Spans around the oracle and estimator calls the verify suites make."""
    out = []
    for span in VERIFY_SPANS:
        name = span.split(".")[1]
        out.append((verify, name, tracer.wrap(span, getattr(verify, name))))
    return out


def layer_metrics(spans: list[list], steps: int) -> dict[str, float]:
    """Per-module figures of one traced round: self ms and calls per step
    inside run_training, inclusive ms of the once-per-round calls, and
    seconds inside the verify suites."""
    summary = summarize(spans)
    train = summary.get("trainer.run_training", {})
    zero = {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "pairs": 0}
    per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)
    out = {
        "trainer.self_ms_per_step": per_step(train.get("trainer.run_training", zero)["self_s"] * 1000.0),
        "encoders.pairwise_products": per_step(sum(e["pairs"] for e in train.values())),
    }
    for span in STEP_SPANS:
        entry = train.get(span, zero)
        out[f"{span}_ms"] = per_step(entry["self_s"] * 1000.0)
        out[f"{span}_calls"] = per_step(entry["calls"])
    for span in ROUND_SPANS:
        out[f"{span}_ms"] = summary.get(span, {}).get(span, zero)["incl_s"] * 1000.0
    for suite in SUITES:
        span = f"verify.{suite}"
        out[f"{span}_s"] = summary.get(span, {}).get(span, zero)["incl_s"]
    for span, suite in VERIFY_SPANS.items():
        entry = summary.get(suite, {}).get(span, zero)
        out[f"{span}_s"] = entry["self_s"]
        out[f"{span}_calls"] = entry["calls"]
    return out


def step_accounting(row: dict[str, float], traced_step_ms: float) -> dict[str, float]:
    """How much of a traced step the module self times and the trainer's own
    time cover; what is left is time outside the run_training span."""
    modules_ms = sum(row[f"{span}_ms"] for span in STEP_SPANS)
    trainer_ms = row["trainer.self_ms_per_step"]
    return {
        "traced_step_ms": traced_step_ms,
        "modules_self_ms": modules_ms,
        "trainer_self_ms": trainer_ms,
        "trainer_self_share": trainer_ms / traced_step_ms,
        "unaccounted_share": 1.0 - (modules_ms + trainer_ms) / traced_step_ms,
    }


def _median_dicts(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def _median(values):
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, workdir: str) -> dict:
    """Rounds of one workload for `seconds`; returns the result and a report.

    With trace, rounds alternate untraced and traced, so the traced pass
    runs apart from the timed one and the two can be compared."""
    start = time.perf_counter()
    is_training = workload in TRAINING
    import_s = statistics.median(fresh_import_seconds(root) for _ in range(5))
    rounds: list[Round] = []
    traced: list[tuple[Round, Tracer]] = []
    min_rounds = 2 if (trace or is_training) else 1
    while True:
        tracer = Tracer() if trace and (len(rounds) + len(traced)) % 2 == 1 else NullTracer()
        patches = []
        if isinstance(tracer, Tracer):
            patches = training_patches(tracer) if is_training else verify_patches(tracer)
        with patched(patches):
            rnd = training_round(workload, seed, workdir, tracer) if is_training else verify_round(tracer)
        if isinstance(tracer, Tracer):
            traced.append((rnd, tracer))
        else:
            rounds.append(rnd)
        done = len(rounds) + len(traced)
        if done >= min_rounds and done % (2 if trace else 1) == 0 and time.perf_counter() - start >= seconds:
            break

    every = rounds + [r for r, _ in traced]
    failures = [f for r in every for f in r.failures]
    first = next((r for r in rounds if r.stream is not None), None)
    if first is not None:
        for i, r in enumerate(rounds[1:], start=2):
            if r.stream is not None:
                failures += checks.check_same_stream(first.stream, r.stream, f"repeat {i}")
        for i, (r, _) in enumerate(traced, start=1):
            if r.stream is not None:
                failures += checks.check_same_stream(first.stream, r.stream, f"traced round {i}")

    ok = [r for r in rounds if r.failed == 0]
    work_s = _median([r.work_s for r in ok])
    setup_s = import_s + _median([r.setup_s for r in ok]) if ok else None
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "work_s": (work_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "import_s": import_s,
        "failures": failures,
    }
    if is_training and ok:
        steps = ok[0].steps
        report.update(
            steps=steps,
            gather_count=ok[0].gather_count,
            train_step_ms=work_s * 1000.0 / steps,
            eval_ms=_median([r.eval_s for r in ok]) * 1000.0,
            zero_shot_acc=ok[0].evaluation["zero_shot_accuracy"],
            recall_at_1_ab=ok[0].evaluation["recall_at_1_ab"],
        )
        if ok[0].evaluation["median_abs_log_z_err"] is not None:
            report["log_z_gap_median"] = ok[0].evaluation["median_abs_log_z_err"]
    elif ok:
        report["verify_s"] = work_s
        report["verify_checks"] = ok[0].attempted

    per_layer = {}
    good = [(r, t) for r, t in traced if r.failed == 0]
    if good and work_s is not None:
        steps = good[0][0].steps
        rows = [layer_metrics(t.spans, steps) for _, t in good]
        per_layer = _median_dicts(rows)
        traced_work = statistics.median(r.work_s for r, _ in good)
        per_layer["trainer.gather_count"] = good[0][0].gather_count
        per_layer["trace.overhead_s"] = traced_work - work_s
        per_layer["trace.overhead_ms_per_step"] = (traced_work - work_s) * 1000.0 / steps if steps else 0.0
        if steps:
            report["step_accounting"] = _median_dicts(
                [step_accounting(row, r.work_s * 1000.0 / steps) for row, (r, _) in zip(rows, good)]
            )
    report["errors"] = [r.error for r in every if r.error]
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report": report,
        "spans": [t.spans for _, t in traced],
    }
