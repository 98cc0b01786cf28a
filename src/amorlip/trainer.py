"""One training loop for both methods (the two-stage amortized method and
the NCE/CLIP baseline), gather-invocation accounting, JSONL metrics, and the
AMCK1 checkpoint format.

Single-process execution; distributed gathers are modeled by a counter:
the baseline gathers every step, the amortized trainer only when the
amortization stage runs (once per trigger, regardless of inner iterations).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import time
from dataclasses import dataclass
from typing import IO

import numpy as np

# perfbench's traced pass patches the names imported below on this module and
# counts, per amortizing step, 3 n^2 pairwise products (exact_partition twice,
# amortized_mle_loss once) and 2 t_lambda loss_l2log calls: the loop must keep
# calling them through these module globals.
from .amortization import (
    GENERATORS,
    TargetAmortizer,
    amortize_backward,
    amortize_forward,
    amortizer_hidden_dim,
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
from .data import PairedDataset, make_batch_plan, split_eval, write_atomic
from .encoders import (
    MODALITIES,
    EmbeddingBatch,
    EncoderParams,
    Temperature,
    encode,
    encoder_backward,
    init_encoders,
    similarity_matrix,
)
from .errors import ConfigError, ContractError, DomainError, FormatError, TrainingDivergence
from .evaluation import partition_gap_stats
from .losses import amortized_mle_loss, nce_loss, rho_at, temperature_rescale, usable_tau
from .net import Mlp
from .numerics import AdamW, Array, ParamStore

AMORTIZER_INIT_SALT = 2001
AMORTIZER_REINIT_SALT = 5501
FIDELITY_SALT = 6601

METHODS = ("amorlip", "clip")
OBJECTIVES = ("l2log", "fdiv")
TRAIN_GENERATORS = ("kl", "kl_affine", "js")

# the config fields that take one of a fixed set of values; a checkpoint
# stores a value's index in its tuple
CONFIG_CHOICES = {
    "method": METHODS,
    "objective": OBJECTIVES,
    "generator": TRAIN_GENERATORS,
    "include_positive": (False, True),
}

CKPT_MAGIC = b"AMCK1\n"
# a checkpoint stores every config field as a float64, which holds every
# integer below this exactly
INT_LIMIT = 2**53
COUNTERS = ("epoch", "step_in_epoch", "global_step", "gather_count")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts to an int
        raise ConfigError(
            f"config file holds an integer of {len(text.lstrip('-'))} digits,"
            " more than any config key takes"
        ) from None


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of the training loop. The JSON config file is a flat
    object mirroring these field names; CLI flags override file values.
    A config is validated when it is built, dataclasses.replace included,
    and cannot be changed afterwards."""

    method: str = "amorlip"
    objective: str = "l2log"
    generator: str = "kl_affine"
    epochs: int = 10
    batch_size: int = 64
    embed_dim: int = 32
    encoder_hidden: int = 64
    encoder_depth: int = 2
    f_d: float = 0.5
    t_lambda: int = 3
    t_online: int = 8
    t_target: int = 2
    alpha: float = 0.999
    beta_final: float = 0.8
    include_positive: bool = True
    lr_encoder: float = 1e-3
    lr_amortizer: float = 1e-3
    weight_decay: float = 0.01
    fdiv_l2log_coef: float = 0.1
    rho_main: float = 6.5
    rho_anneal: float = -8.0
    anneal_start_fraction: float = 0.75
    tau_init: float = 1.0 / 0.07
    tau_max: float = 100.0
    eval_fraction: float = 0.1
    seed: int = 7
    log_every: int = 10

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            # every comparison with NaN is false, so the range checks below
            # would pass it; an infinity would pass the one-sided ones. A
            # float field takes ints, which may not fit a float64 at all.
            value = getattr(self, field.name)
            if isinstance(value, float) or type(field.default) is float:
                try:
                    finite = math.isfinite(value)
                except OverflowError:
                    raise ConfigError(
                        f"config key {field.name!r} must fit a float64 (magnitude at most"
                        " 1.8e308), got a larger integer"
                    ) from None
                if not finite:
                    raise ConfigError(f"config key {field.name!r} must be finite, got {value!r}")
            if type(field.default) is int and value >= INT_LIMIT:
                raise ConfigError(
                    f"config key {field.name!r} must be below 2**53, since a checkpoint stores"
                    f" it as a float64, got {value}"
                )
        for key, choices in CONFIG_CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")
        if self.epochs < 1 or self.batch_size < 2:
            raise ConfigError(f"need epochs >= 1 and batch_size >= 2, got {self.epochs}, {self.batch_size}")
        if min(self.t_lambda, self.t_online, self.t_target) < 1:
            raise ConfigError("t_lambda, t_online and t_target must all be >= 1")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta_final <= 1.0):
            raise ConfigError("alpha and beta_final must lie in [0, 1]")
        if self.embed_dim < 1 or self.encoder_hidden < 1 or self.encoder_depth < 0:
            raise ConfigError("invalid encoder sizes")
        if self.f_d <= 0 or not math.isfinite(float(self.f_d) * self.embed_dim):
            raise ConfigError(
                f"f_d must be positive, with a finite width f_d * embed_dim, got {self.f_d}"
            )
        widths = {
            "embed_dim": self.embed_dim,
            "encoder_hidden": self.encoder_hidden,
            "f_d": amortizer_hidden_dim(self.embed_dim, self.f_d),
        }
        for key, width in widths.items():
            if width >= 2**32:  # a checkpoint packs each block's shape as two u32
                raise ConfigError(
                    f"config key {key!r} gives a layer width of {width:.4g}, but a checkpoint"
                    " stores widths below 2**32"
                )
        if self.lr_encoder <= 0 or self.lr_amortizer <= 0:
            raise ConfigError("learning rates must be positive")
        if self.weight_decay < 0 or self.fdiv_l2log_coef < 0:
            raise ConfigError("weight_decay and fdiv_l2log_coef must be >= 0")
        if not 0.0 <= self.anneal_start_fraction <= 1.0:
            raise ConfigError("anneal_start_fraction must lie in [0, 1]")
        if self.tau_init <= 0 or self.tau_max <= 0:
            raise ConfigError("temperatures must be positive")
        for key in ("tau_init", "tau_max"):
            tau = float(getattr(self, key))
            if not usable_tau(tau):
                raise ConfigError(
                    f"config key {key!r} must have a finite, non-zero square and inverse square,"
                    f" got {tau!r}"
                )
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError("eval_fraction must lie in (0, 1)")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"config key 'seed' must be a non-negative integer, got {self.seed}")

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(values) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in values.items():
            # each default has its field's type; nothing is coerced, a float
            # field takes ints, and only a bool field takes bools
            kind = type(fields[name].default)
            accepted = (int, float) if kind is float else kind
            if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
                raise ConfigError(f"config key {name!r} must be {kind.__name__}, got {value!r}")
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(os.fspath(path), encoding="utf-8") as fh:
            try:
                values = json.load(fh, parse_int=_parse_int)
            # ValueError covers bad syntax and bytes that are not UTF-8;
            # RecursionError, nesting too deep to parse
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a flat JSON object")
        return cls.from_dict(values)


@dataclass
class TrainState:
    """All mutable training state, owned by a single logical thread."""

    config: TrainConfig
    encoders: EncoderParams
    temperature: Temperature
    online: dict[str, Mlp] | None
    targets: dict[str, TargetAmortizer] | None
    opt_encoder: AdamW
    # the online amortizers of both modalities share opt_amortizer's store;
    # the EMA and previous-epoch amortizers have stores of the same layout
    opt_amortizer: AdamW | None
    ema_store: ParamStore | None
    prev_store: ParamStore | None
    epoch: int = 0
    step_in_epoch: int = 0
    global_step: int = 0
    gather_count: int = 0


class MetricsWriter:
    """Collects metric records in memory and optionally appends JSONL."""

    def __init__(self, path=None):
        self.records: list[dict] = []
        self._fh: IO[str] | None = open(os.fspath(path), "w") if path is not None else None

    def emit(self, record: dict) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _draw_amortizers(cfg: TrainConfig, prefix: str, *key: int) -> dict[str, Mlp]:
    return {
        m: init_amortizer(cfg.embed_dim, cfg.f_d, m, (cfg.seed, *key, i), prefix)
        for i, m in enumerate(MODALITIES)
    }


def _store(amortizers: dict[str, Mlp]) -> ParamStore:
    return ParamStore([b for m in MODALITIES for b in amortizers[m].blocks()])


def init_train_state(cfg: TrainConfig, ds: PairedDataset) -> TrainState:
    """Fresh encoders, temperature, amortizers (for the amortized method)
    and their optimizers, all seeded from cfg.seed."""
    return _new_state(cfg, {"a": ds.dim_a, "b": ds.dim_b})


def _new_state(cfg: TrainConfig, input_dims: dict[str, int]) -> TrainState:
    encoders = init_encoders(
        input_dims,
        hidden=cfg.encoder_hidden,
        depth=cfg.encoder_depth,
        embed_dim=cfg.embed_dim,
        seed=cfg.seed,
    )
    temperature = Temperature(cfg.tau_init, cfg.tau_max)
    no_decay = {b.name for net in encoders.nets.values() for b in net.biases}
    no_decay.add(temperature.block.name)
    opt_encoder = AdamW(
        ParamStore(encoders.blocks() + [temperature.block], no_decay),
        lr=cfg.lr_encoder,
        weight_decay=cfg.weight_decay,
    )
    online = targets = opt_amortizer = ema_store = prev_store = None
    if cfg.method == "amorlip":
        # three identical draws: the previous-epoch snapshot of epoch 1
        # holds them, the epoch-1 rotation overwrites the other two
        online, ema, prev = (
            _draw_amortizers(cfg, prefix, AMORTIZER_INIT_SALT)
            for prefix in ("amortizer", "target", "prev")
        )
        targets = {m: TargetAmortizer(ema=ema[m], prev_epoch=prev[m]) for m in MODALITIES}
        opt_amortizer = AdamW(_store(online), lr=cfg.lr_amortizer)
        ema_store, prev_store = _store(ema), _store(prev)
    return TrainState(
        config=cfg,
        encoders=encoders,
        temperature=temperature,
        online=online,
        targets=targets,
        opt_encoder=opt_encoder,
        opt_amortizer=opt_amortizer,
        ema_store=ema_store,
        prev_store=prev_store,
    )


def _rotate_and_reinit(state: TrainState, epoch: int) -> None:
    """Epoch boundary: freeze the EMA target as the previous-epoch snapshot,
    write fresh draws keyed by (seed, epoch) into the online amortizers,
    restart the EMA target from them and reset the amortizer optimizer."""
    online = state.opt_amortizer.store
    state.prev_store.load(state.ema_store)
    online.load(_store(_draw_amortizers(state.config, "amortizer", AMORTIZER_REINIT_SALT, epoch)))
    state.ema_store.load(online)
    state.opt_amortizer.reset()


def _embed(state: TrainState, ds: PairedDataset, idx: Array):
    """Encode rows idx of both modalities; encode converts them to float64."""
    emb = {}
    caches = {}
    batches = {"a": ds.mod_a.take(idx, axis=0), "b": ds.mod_b.take(idx, axis=0)}
    for m in MODALITIES:
        emb[m], caches[m] = encode(state.encoders, batches[m], m)
    return emb, caches


def _exact_log_z(emb: dict[str, EmbeddingBatch], tau: float, include_positive: bool):
    return {
        m: exact_partition(emb[m], emb[mp], tau, include_positive).log_z_exact
        for m, mp in (("a", "b"), ("b", "a"))
    }


def _target_log_lam(state: TrainState, emb: dict[str, EmbeddingBatch]) -> dict[str, Array]:
    return {m: amortize_forward(state.targets[m].ema, emb[m])[0] for m in MODALITIES}


def _amortization_stage(
    state: TrainState,
    emb: dict[str, EmbeddingBatch],
    log_z: dict[str, Array],
    tau: float,
    beta_t: float,
) -> float:
    """Stage I: blend the exact partitions with the frozen previous-epoch
    prediction via beta_t, then take t_lambda optimizer steps of the online
    amortizers on the configured objective. Returns the last step's loss."""
    cfg = state.config
    gen = GENERATORS[cfg.generator]
    log_zema = {
        m: combined_target(log_z[m], state.targets[m].prev_epoch, emb[m], beta_t)
        for m in MODALITIES
    }
    weights = {}
    if cfg.objective == "fdiv":
        s_ab = similarity_matrix(emb["a"], emb["b"])
        weights = {
            "a": fdiv_weights(s_ab, tau, log_zema["a"]),
            "b": fdiv_weights(s_ab.T, tau, log_zema["b"]),
        }
    for _ in range(cfg.t_lambda):
        total = 0.0
        state.opt_amortizer.store.zero_grad()
        for m in MODALITIES:
            if cfg.objective == "l2log":
                total += loss_l2log(state.online[m], emb[m], log_zema[m])
            else:
                log_lam, cache = amortize_forward(state.online[m], emb[m])
                val, grad = loss_fdiv_values(log_lam, log_zema[m], gen, weights[m])
                if cfg.fdiv_l2log_coef > 0.0:
                    val_l2, grad_l2 = loss_l2log_values(log_lam, log_zema[m])
                    val += cfg.fdiv_l2log_coef * val_l2
                    grad = grad + cfg.fdiv_l2log_coef * grad_l2
                amortize_backward(cache, grad)
                total += val
        state.opt_amortizer.step()
    return total


def _steps(n: int, cfg: TrainConfig, start: int, stop: int):
    """Yield (step, epoch, batch, idx) for the global steps start..stop over
    the seeded batch plans of n samples. Step s is batch (s - 1) % K + 1 of
    epoch (s - 1) // K + 1, with K = n // batch_size; both count from 1."""
    per_epoch = max(1, n // cfg.batch_size)  # n below batch_size: make_batch_plan raises
    for step in range(start, stop + 1):
        epoch, k = divmod(step - 1, per_epoch)
        if k == 0 or step == start:
            plan = make_batch_plan(n, cfg.batch_size, cfg.seed, epoch + 1)
        yield step, epoch + 1, k + 1, plan[k]


def run_training(
    cfg: TrainConfig,
    ds: PairedDataset,
    metrics: MetricsWriter | None = None,
    start_state: TrainState | None = None,
    max_steps: int | None = None,
) -> TrainState:
    """Train cfg.method over the held-in split of ds, walking the global
    steps after start_state's up to max_steps or the last step.

    Step s is batch (s - 1) % K + 1 of epoch (s - 1) // K + 1, for K steps
    per epoch, and beta_t and rho follow that epoch: the global step is the
    whole position, so a run stopped by max_steps stops before the next
    epoch's rotation and run_training(start_state=...) continues it exactly.

    Both methods share every step's scaffolding: the seeded batch plan per
    epoch, the encoder and temperature update on the temperature-rescaled
    stage-II loss, the divergence checks and the metrics record. They differ
    in the stage-II loss only:

    - "clip": the in-batch NCE loss, with a gather on every step.
    - "amorlip": on each epoch's first step the previous target network is
      frozen and the online and target amortizers are re-initialized; every
      t_online batches the amortization stage runs (one gather); every
      t_target batches the target EMA advances; the stage-II loss is the
      amortized maximum-likelihood loss against the target amortizers.

    The all-pairs bookkeeping of the amortized method runs only where it is
    used: the exact partitions in both directions on amortization steps and
    on logged steps, the blend on amortization steps, and the median
    log-gap diagnostic on logged steps (and on the way out of a divergence,
    so the snapshot carries it). None of it feeds the stage-II update, so
    the trajectory does not depend on what is logged.

    A non-finite loss, a DomainError anywhere in a step (an overflowing
    encoder output, optimizer step, divergence weight or amortizer output),
    or an update that leaves tau failing usable_tau ends the run with a
    TrainingDivergence carrying the step's record; these checks, not numpy
    warnings, report non-finite values. For "amorlip", t_online and
    t_target above the steps per epoch, and alpha 1, are a ConfigError.
    """
    amortized = cfg.method == "amorlip"
    train_ds, _ = split_eval(ds, cfg.eval_fraction, cfg.seed)
    if train_ds.n < cfg.batch_size:
        raise ConfigError("training split smaller than one batch")
    steps_per_epoch = train_ds.n // cfg.batch_size
    for key in ("t_online", "t_target"):
        # a longer cadence never fires: the amortizers or the EMA never move
        if amortized and getattr(cfg, key) > steps_per_epoch:
            raise ConfigError(
                f"config key {key!r} must be at most the {steps_per_epoch} steps per epoch,"
                f" got {getattr(cfg, key)}"
            )
    if amortized and cfg.alpha == 1:
        # the same waste: the EMA target never leaves each epoch's fresh draw
        raise ConfigError(f"config key 'alpha' must be below 1 for amorlip, got {cfg.alpha}")
    state = start_state if start_state is not None else init_train_state(cfg, ds)
    total_steps = steps_per_epoch * cfg.epochs
    stop = total_steps if max_steps is None else min(max_steps, total_steps)
    wall_start = time.perf_counter()

    def diverged(message: str) -> TrainingDivergence:
        # reads the failing step's locals; a step that did not log the gap
        # computes it here, or null where it cannot
        if amortized and emb is not None and record["median_abs_log_z_err"] is None:
            try:
                exact = log_z or _exact_log_z(emb, tau, cfg.include_positive)
                lam = log_lam or _target_log_lam(state, emb)
                record["median_abs_log_z_err"] = partition_gap_stats(lam, exact)[0]
            except DomainError:
                pass
        return TrainingDivergence(message, record)

    with np.errstate(all="ignore"):
        for step, epoch, k, idx in _steps(train_ds.n, cfg, state.global_step + 1, stop):
            if amortized and k == 1:
                _rotate_and_reinit(state, epoch)
            state.global_step, state.epoch, state.step_in_epoch = step, epoch, k
            beta_t = beta_schedule(epoch, cfg.epochs, cfg.beta_final) if amortized else None
            rho = rho_at(epoch, cfg.epochs, cfg.rho_main, cfg.rho_anneal, cfg.anneal_start_fraction)
            tau = state.temperature.tau
            # the step's one record, in metrics order; tau is the value the
            # losses use (pre-update), and a field not yet reached is None
            record = dict(step=step, epoch=epoch, stage2_loss_raw=None, stage2_loss_rescaled=None,
                          amor_loss=None, tau=tau, beta_t=beta_t, rho=rho,
                          median_abs_log_z_err=None, gather_count=None)
            logged = metrics is not None and (step in (1, total_steps) or step % cfg.log_every == 0)
            emb = log_z = log_lam = None
            try:
                emb, caches = _embed(state, train_ds, idx)
                if amortized:
                    amortizing = k % cfg.t_online == 0
                    # exact partitions feed the amortization stage and the logged gap only
                    if amortizing or logged:
                        log_z = _exact_log_z(emb, tau, cfg.include_positive)
                    if amortizing:
                        record["amor_loss"] = _amortization_stage(state, emb, log_z, tau, beta_t)
                        state.gather_count += 1
                    if k % cfg.t_target == 0:
                        ema_update(state.ema_store, state.opt_amortizer.store, cfg.alpha)
                    log_lam = _target_log_lam(state, emb)
                    if logged:
                        record["median_abs_log_z_err"] = partition_gap_stats(log_lam, log_z)[0]
                    raw = amortized_mle_loss(emb["a"], emb["b"], tau, log_lam["a"], log_lam["b"])
                else:
                    state.gather_count += 1
                    raw = nce_loss(emb["a"], emb["b"], tau)
                record.update(stage2_loss_raw=raw.value, gather_count=state.gather_count)
                rescaled = temperature_rescale(raw, tau, rho)
                record["stage2_loss_rescaled"] = rescaled.value
                losses = ((raw.value, "stage-II loss"), (record["amor_loss"], "amortization loss"))
                for value, what in losses:
                    if value is not None and not math.isfinite(value):
                        raise diverged(f"non-finite {what} at step {step}")

                state.opt_encoder.store.zero_grad()
                encoder_backward(caches["a"], rescaled.grad_a)
                encoder_backward(caches["b"], rescaled.grad_b)
                state.temperature.accumulate_tau_grad(rescaled.tau_grad)
                state.opt_encoder.step()
            except DomainError as exc:
                # a numerical failure anywhere in the step, an optimizer overflow included
                raise diverged(str(exc)) from exc
            state.temperature.clamp()
            if not usable_tau(state.temperature.tau):
                raise diverged(
                    "tau must have a finite, non-zero square and inverse square,"
                    f" got {state.temperature.tau:.3g} after the update at step {step}"
                )

            if logged:
                # the divergence snapshot is the same record without wall_ms
                record["wall_ms"] = int((time.perf_counter() - wall_start) * 1000.0)
                metrics.emit(record)
    return state


def run_amorlip(
    cfg: TrainConfig,
    ds: PairedDataset,
    metrics: MetricsWriter | None = None,
    start_state: TrainState | None = None,
    max_steps: int | None = None,
) -> TrainState:
    """Amortized two-stage training: run_training for method 'amorlip'."""
    if cfg.method != "amorlip":
        raise ConfigError(f"run_amorlip requires method='amorlip', got {cfg.method!r}")
    return run_training(cfg, ds, metrics, start_state, max_steps)


def run_clip_baseline(
    cfg: TrainConfig,
    ds: PairedDataset,
    metrics: MetricsWriter | None = None,
    start_state: TrainState | None = None,
    max_steps: int | None = None,
) -> TrainState:
    """NCE baseline with in-batch candidates: run_training for method 'clip'."""
    if cfg.method != "clip":
        raise ConfigError(f"run_clip_baseline requires method='clip', got {cfg.method!r}")
    return run_training(cfg, ds, metrics, start_state, max_steps)


# ---------------------------------------------------------------------------
# checkpoints (AMCK1)


def _scalar(value: float) -> Array:
    return np.array([[float(value)]])


def _optimizers(state: TrainState) -> list[tuple[str, AdamW]]:
    out = [("opt_enc", state.opt_encoder)]
    if state.opt_amortizer is not None:
        out.append(("opt_amor", state.opt_amortizer))
    return out


def state_blocks(state: TrainState) -> list[tuple[str, Array]]:
    """Named 2-D float64 payloads, in a fixed order: the encoders and the
    temperature, the online, EMA and previous-epoch amortizers, each
    optimizer's moments and step, the counters, then the config (see
    load_eval_model). Parameters and moments are views into the state."""
    stores = [state.opt_encoder.store]
    if state.opt_amortizer is not None:
        stores += [state.opt_amortizer.store, state.ema_store, state.prev_store]
    out: list[tuple[str, Array]] = [(b.name, b.value) for store in stores for b in store.blocks]
    for tag, opt in _optimizers(state):
        for b in opt.blocks:
            out.append((f"{tag}/m/{b.name}", opt.m[b.name]))
            out.append((f"{tag}/v/{b.name}", opt.v[b.name]))
        out.append((f"{tag}/t", _scalar(opt.t)))
    out += [(f"meta/{key}", _scalar(getattr(state, key))) for key in COUNTERS]
    # duplicates cfg/tau_max: the benchmark's own AMCK1 reader clamps tau with it
    out.append(("meta/tau_max", _scalar(state.config.tau_max)))
    for key, value in dataclasses.asdict(state.config).items():
        if key in CONFIG_CHOICES:
            value = CONFIG_CHOICES[key].index(value)
        out.append((f"cfg/{key}", _scalar(value)))
    return out


def checkpoint_save(state: TrainState, path) -> None:
    blocks = state_blocks(state)
    parts = [CKPT_MAGIC, struct.pack("<I", len(blocks))]
    for name, value in blocks:
        raw = np.ascontiguousarray(value, dtype="<f8")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<II", raw.shape[0], raw.shape[1]))
        parts.append(raw.tobytes())
    write_atomic(path, b"".join(parts))


def checkpoint_load_blocks(path) -> dict[str, Array]:
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CKPT_MAGIC) or blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError("bad magic, not an AMCK1 checkpoint", offset=0)
    off = len(CKPT_MAGIC)
    if len(blob) < off + 4:
        raise FormatError("truncated block count", offset=len(blob))
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    blocks: dict[str, Array] = {}
    for _ in range(count):
        if len(blob) < off + 4:
            raise FormatError("truncated name length", offset=off)
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        if len(blob) < off + name_len + 8:
            raise FormatError("truncated block header", offset=off)
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("block name is not valid UTF-8", offset=off) from None
        if name in blocks:
            raise FormatError(f"duplicate block name {name!r}", offset=off)
        off += name_len
        rows, cols = struct.unpack_from("<II", blob, off)
        off += 8
        nbytes = rows * cols * 8
        if len(blob) < off + nbytes:
            raise FormatError(f"truncated payload for block {name!r}", offset=off)
        payload = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=off)
        finite = np.isfinite(payload)
        if not finite.all():
            first = int(np.argmin(finite))
            raise FormatError(f"non-finite value in block {name!r}", offset=off + 8 * first)
        blocks[name] = payload.reshape(rows, cols).copy()
        off += nbytes
    if off != len(blob):
        raise FormatError("trailing bytes after final block", offset=off)
    return blocks


def _block(blocks: dict[str, Array], name: str, shape: tuple[int, ...] | None = None) -> Array:
    if name not in blocks:
        raise ContractError(f"checkpoint is missing block {name!r}")
    if shape is not None and blocks[name].shape != shape:
        raise ContractError(
            f"block {name!r}: checkpoint shape {blocks[name].shape} != expected {shape}"
        )
    return blocks[name]


def _stored_config(blocks: dict[str, Array]) -> TrainConfig:
    """The cfg/<field> blocks, decoded field by field for TrainConfig to validate."""
    values = {}
    for field in dataclasses.fields(TrainConfig):
        name = f"cfg/{field.name}"
        raw = float(_block(blocks, name, (1, 1))[0, 0])
        choices = CONFIG_CHOICES.get(field.name)
        if type(field.default) is float:
            values[field.name] = raw
        elif not raw.is_integer() or (choices is not None and not 0 <= raw < len(choices)):
            what = "an integer" if choices is None else f"an index into {choices}"
            raise ConfigError(f"checkpoint block {name!r} holds {raw!r}, not {what}")
        else:
            values[field.name] = int(raw) if choices is None else choices[int(raw)]
    return TrainConfig(**values)


def _stored_count(blocks: dict[str, Array], name: str) -> int:
    """A counter or optimizer step, checked to be an integer in [0, 2**53)."""
    raw = float(blocks[name][0, 0])
    if not (raw.is_integer() and 0 <= raw < INT_LIMIT):
        raise ConfigError(f"checkpoint block {name!r} holds {raw!r}, not an integer in [0, 2**53)")
    return int(raw)


def _input_dims(cfg: TrainConfig, blocks: dict[str, Array]) -> dict[str, int]:
    """The encoder input dims, from the encoder_*/w0 rows, once every weight
    shape that cfg's network sizes imply is found in the blocks: no size is
    allocated that the checkpoint does not hold."""
    dims = {}
    for m in MODALITIES:
        dims[m] = _block(blocks, f"encoder_{m}/w0").shape[0]
        hidden = itertools.repeat(cfg.encoder_hidden, cfg.encoder_depth)
        widths = {f"encoder_{m}": itertools.chain([dims[m]], hidden, [cfg.embed_dim])}
        if cfg.method == "amorlip":
            h = amortizer_hidden_dim(cfg.embed_dim, cfg.f_d)
            widths[f"target_{m}"] = [cfg.embed_dim, h, h, 1]
        for prefix, layers in widths.items():
            for i, shape in enumerate(itertools.pairwise(layers)):
                _block(blocks, f"{prefix}/w{i}", shape)
    return dims


def load_eval_model(path) -> TrainState:
    """Rebuild the TrainState a checkpoint holds, from the checkpoint alone:
    the stored config fixes every size and seed, the encoder_*/w0 rows give
    the input dims, and every block that state_blocks lists is loaded in
    place. A missing or misshapen block is a ContractError naming it; a
    stored log(tau) above the log(tau_max) that Temperature.clamp writes, or
    one whose tau fails usable_tau, is a ConfigError naming its block, and
    so is a meta/tau_max that differs from cfg/tau_max."""
    blocks = checkpoint_load_blocks(path)
    cfg = _stored_config(blocks)
    state = _new_state(cfg, _input_dims(cfg, blocks))
    for name, dest in state_blocks(state):
        dest[...] = _block(blocks, name, dest.shape)
    # state_blocks copies meta/tau_max out of the config, so it is checked here
    tau_max = float(blocks["meta/tau_max"][0, 0])
    if tau_max != cfg.tau_max:
        raise ConfigError(
            f"checkpoint block 'meta/tau_max' holds {tau_max!r}, not cfg/tau_max's {cfg.tau_max!r}"
        )
    temperature = state.temperature
    if temperature.log_tau > math.log(cfg.tau_max) or not usable_tau(temperature.tau):
        raise ConfigError(
            f"checkpoint block {temperature.block.name!r} holds {temperature.log_tau!r}: tau must"
            " be at most cfg/tau_max, with a finite, non-zero square and inverse square"
        )
    for tag, opt in _optimizers(state):
        opt.t = _stored_count(blocks, f"{tag}/t")
    for key in COUNTERS:
        setattr(state, key, _stored_count(blocks, f"meta/{key}"))
    return state


def restore_train_state(cfg: TrainConfig, ds: PairedDataset, path) -> TrainState:
    """The checkpoint's TrainState, for resuming the run that wrote it: cfg
    must equal the stored config field by field (ConfigError naming the
    first that differs), and ds must have the stored input dims."""
    state = load_eval_model(path)
    for key, stored in dataclasses.asdict(state.config).items():
        if getattr(cfg, key) != stored:
            raise ConfigError(
                f"config key {key!r} is {getattr(cfg, key)!r}, the checkpoint stores {stored!r}"
            )
    for m, dim in (("a", ds.dim_a), ("b", ds.dim_b)):
        rows = state.encoders.nets[m].dims[0]
        if rows != dim:
            raise ContractError(
                f"block 'encoder_{m}/w0': {rows} input rows, the dataset's modality {m!r} has {dim}"
            )
    return state


# ---------------------------------------------------------------------------
# amortizer fidelity (frozen encoders)


def amortizer_fidelity_experiment(
    cfg: TrainConfig,
    ds: PairedDataset,
    pretrain_epochs: int = 2,
    invocations: int = 500,
    amortizer_lr: float = 0.12,
) -> dict:
    """How well can the lightweight amortizers represent the partition
    function of a fixed encoder?

    Freezes the encoders after a short NCE pretrain, embeds the held-out
    slice, computes its slice-level log partitions (the empirical marginal,
    as evaluate_model does), and fits fresh amortizers to them with the
    squared log-gap objective over seeded minibatches. The reported gap is
    measured against the same partitions.

    Each amortization round performs t_lambda optimizer iterations, as in
    the full training loop. The output bias warm-starts at the first
    batch's target mean, and the step size decays on a cosine from a value
    large enough to carve the per-sample structure within the budget;
    batch-level partitions are not used as targets here because at this
    batch size the guaranteed diagonal term biases them upward relative to
    the slice-level marginal.
    """
    clip_cfg = dataclasses.replace(cfg, method="clip", epochs=pretrain_epochs)
    pre_state = run_clip_baseline(clip_cfg, ds)
    _, eval_ds = split_eval(ds, cfg.eval_fraction, cfg.seed)
    tau = pre_state.temperature.tau

    emb, _ = _embed(pre_state, eval_ds, np.arange(eval_ds.n))
    targets = _exact_log_z(emb, tau, include_positive=True)

    online = _draw_amortizers(cfg, "amortizer", FIDELITY_SALT)
    opt = AdamW(_store(online), lr=amortizer_lr)

    total_steps = invocations * cfg.t_lambda
    loss = math.nan
    for step, _, _, idx in _steps(eval_ds.n, cfg, 1, total_steps):
        if step == 1:
            for m in MODALITIES:
                online[m].biases[-1].value[0, 0] = float(np.mean(targets[m][idx]))
        opt.lr = amortizer_lr * 0.5 * (1.0 + math.cos(math.pi * (step - 1) / total_steps))
        loss = 0.0
        opt.store.zero_grad()
        for m in MODALITIES:
            view = EmbeddingBatch(emb[m].data[idx])
            loss += loss_l2log(online[m], view, targets[m][idx])
        opt.step()

    median, mean = partition_gap_stats(
        {m: amortize_forward(online[m], emb[m])[0] for m in MODALITIES}, targets
    )
    return {
        "median_abs_log_z_err": median,
        "mean_abs_log_z_err": mean,
        "tau": tau,
        "optimizer_steps": total_steps,
        "final_l2log_loss": loss,
    }
