import dataclasses
import json
import math

import numpy as np
import pytest

import amorlip.trainer as trainer_mod
from amorlip.amortization import init_amortizer
from amorlip.data import generate_synthetic
from amorlip.errors import ConfigError, ContractError, TrainingDivergence
from amorlip.numerics import AdamW, ParamStore
from amorlip.trainer import (
    AMORTIZER_REINIT_SALT,
    INT_LIMIT,
    MetricsWriter,
    TrainConfig,
    checkpoint_load_blocks,
    checkpoint_save,
    init_train_state,
    load_eval_model,
    restore_train_state,
    run_amorlip,
    run_clip_baseline,
    run_training,
    state_blocks,
)


def small_cfg(**kw):
    base = dict(
        method="amorlip",
        epochs=2,
        batch_size=16,
        embed_dim=8,
        encoder_hidden=16,
        seed=11,
        log_every=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_ds(n=200, seed=11):
    return generate_synthetic(n, 4, 10, 9, 0.05, seed=seed)


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


def assert_same_blocks(got, want):
    got, want = state_blocks(got), state_blocks(want)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, g), (_, w) in zip(got, want):
        assert np.array_equal(g, w), name


class TestTrainConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            TrainConfig.from_dict({"lr": 0.1})

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="sgd").validate()
        with pytest.raises(ConfigError):
            TrainConfig(t_online=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(beta_final=1.5).validate()
        # the amortizer width ceil(f_d * embed_dim) must be a finite number
        with pytest.raises(ConfigError, match="f_d must be positive, with a finite width"):
            TrainConfig(f_d=1e308).validate()
        # a checkpoint packs each layer width as a u32
        for key, values in [
            ("embed_dim", {"embed_dim": 2**32}),
            ("encoder_hidden", {"encoder_hidden": 2**32}),
            ("f_d", {"f_d": 2**32, "embed_dim": 1}),
        ]:
            with pytest.raises(ConfigError, match=f"'{key}' gives a layer width of 4.295e"):
                TrainConfig(**values).validate()
        TrainConfig(f_d=2**32 - 1, embed_dim=1, encoder_hidden=2**32 - 1).validate()
        # a float field takes ints, but only ones a float64 can hold
        for field in dataclasses.fields(TrainConfig):
            if type(field.default) is float:
                with pytest.raises(ConfigError, match=f"'{field.name}' must fit a float64"):
                    TrainConfig(**{field.name: -(10**400)}).validate()

    def test_valid_by_construction(self):
        with pytest.raises(ConfigError, match="t_online"):
            TrainConfig(t_online=0)
        with pytest.raises(ConfigError, match="epochs >= 1"):
            dataclasses.replace(TrainConfig(), epochs=0)
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        assert cfg.seed == 7

    def test_value_types(self):
        # float fields take ints; nothing is coerced
        assert TrainConfig.from_dict({"tau_init": 14, "alpha": 1}).tau_init == 14
        with pytest.raises(ConfigError, match="'t_online' must be int"):
            TrainConfig.from_dict({"t_online": 8.0})

    def test_json_round_trip(self, tmp_path):
        cfg = small_cfg(alpha=0.92)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert TrainConfig.from_file(path) == cfg


class TestCadence:
    @pytest.mark.parametrize("t_online", [1, 2, 8, 32])
    def test_gather_counts_per_epoch(self, t_online):
        ds = small_ds(600)  # train split 540 -> K = 33 at batch 16
        cfg = small_cfg(epochs=1, t_online=t_online)
        k = (600 - 60) // cfg.batch_size
        state = run_amorlip(cfg, ds)
        assert state.gather_count == k // t_online
        clip_state = run_clip_baseline(dataclasses.replace(cfg, method="clip"), ds)
        assert clip_state.gather_count == k

    def test_stage_one_runs_t_lambda_iterations(self):
        ds = small_ds(600)
        cfg = small_cfg(epochs=1, t_online=8, t_lambda=3)
        k = 540 // cfg.batch_size
        state = run_amorlip(cfg, ds)
        assert state.opt_amortizer.t == (k // 8) * 3

    def test_target_ema_cadence(self, monkeypatch):
        calls = {"n": 0}
        real = trainer_mod.ema_update

        def counting(target, online, alpha):
            calls["n"] += 1
            return real(target, online, alpha)

        monkeypatch.setattr(trainer_mod, "ema_update", counting)
        ds = small_ds(600)
        cfg = small_cfg(epochs=1, t_target=2)
        run_amorlip(cfg, ds)
        k = 540 // cfg.batch_size
        assert calls["n"] == k // 2  # one call over the store of both modalities

    def test_degenerate_cadence_without_stage_one(self):
        ds = small_ds(200)  # 11 steps per epoch
        with pytest.raises(ConfigError, match="'t_online' must be at most the 11 steps per epoch"):
            run_amorlip(small_cfg(epochs=1, t_online=1000), ds)
        # a budget of no steps runs nothing, the epoch-1 rotation included
        cfg = small_cfg(epochs=1)
        state = run_amorlip(cfg, ds, max_steps=0)
        assert_same_blocks(state, init_train_state(cfg, ds))


class TestTrainingRuns:
    def test_amorlip_loss_decreases(self):
        ds = generate_synthetic(512, 8, 24, 20, 0.05, seed=3)
        cfg = TrainConfig(
            epochs=2, batch_size=64, embed_dim=16, encoder_hidden=32, seed=3, log_every=1,
            t_online=2,
        )
        mw = MetricsWriter()
        run_amorlip(cfg, ds, mw)
        assert mw.records[-1]["stage2_loss_raw"] < mw.records[0]["stage2_loss_raw"]

    @pytest.mark.parametrize("generator", ["kl", "kl_affine", "js"])
    def test_fdiv_objective_fits_amortizers(self, generator):
        ds = generate_synthetic(600, 6, 16, 12, 0.05, seed=5)
        cfg = TrainConfig(
            objective="fdiv", generator=generator, epochs=2, batch_size=32,
            embed_dim=12, encoder_hidden=24, seed=5, t_online=2, log_every=1,
        )
        mw = MetricsWriter()
        run_amorlip(cfg, ds, mw)
        amor = [r["amor_loss"] for r in mw.records if r["amor_loss"] is not None]
        assert amor[-1] < amor[0]
        assert mw.records[-1]["stage2_loss_raw"] < mw.records[0]["stage2_loss_raw"]

    def test_fdiv_regularizer_coefficient_changes_trajectory(self):
        ds = generate_synthetic(400, 4, 12, 10, 0.05, seed=6)
        base = dict(
            objective="fdiv", generator="js", epochs=1, batch_size=32,
            embed_dim=8, encoder_hidden=16, seed=6, t_online=2, log_every=1,
        )
        mw0, mw1 = MetricsWriter(), MetricsWriter()
        run_amorlip(TrainConfig(**base, fdiv_l2log_coef=0.0), ds, mw0)
        run_amorlip(TrainConfig(**base, fdiv_l2log_coef=0.5), ds, mw1)
        a0 = [r["amor_loss"] for r in mw0.records if r["amor_loss"] is not None]
        a1 = [r["amor_loss"] for r in mw1.records if r["amor_loss"] is not None]
        assert a0 != a1

    def test_clip_loss_decreases(self):
        ds = generate_synthetic(512, 8, 24, 20, 0.05, seed=3)
        cfg = TrainConfig(
            method="clip", epochs=2, batch_size=64, embed_dim=16, encoder_hidden=32,
            seed=3, log_every=1,
        )
        mw = MetricsWriter()
        run_clip_baseline(cfg, ds, mw)
        assert mw.records[-1]["stage2_loss_raw"] < mw.records[0]["stage2_loss_raw"]

    def test_clip_identical_batch_closed_form(self):
        # every sample identical: the NCE value is pinned at 2 log(batch)
        row_a = np.ones((120, 6), dtype=np.float32)
        row_b = np.ones((120, 5), dtype=np.float32)
        from amorlip.data import PairedDataset

        ds = PairedDataset(row_a, row_b, np.zeros(120, dtype=np.uint32), num_classes=2)
        cfg = small_cfg(method="clip", epochs=1, batch_size=16)
        mw = MetricsWriter()
        run_clip_baseline(cfg, ds, mw)
        for rec in mw.records:
            assert abs(rec["stage2_loss_raw"] - 2.0 * math.log(16)) < 1e-9
            expected = 2.0 * math.log(16) / rec["tau"] + rec["rho"] / rec["tau"]
            assert abs(rec["stage2_loss_rescaled"] - expected) < 1e-9

    def test_tau_stays_clamped(self):
        ds = small_ds(200)
        cfg = small_cfg(epochs=2, tau_init=95.0, tau_max=100.0)
        state = run_amorlip(cfg, ds)
        assert 0.0 < state.temperature.tau <= 100.0

    def test_full_run_deterministic(self):
        ds = small_ds(300)
        cfg = small_cfg(epochs=2)
        m1, m2 = MetricsWriter(), MetricsWriter()
        run_amorlip(cfg, ds, m1)
        run_amorlip(cfg, ds, m2)
        assert strip_wall(m1.records) == strip_wall(m2.records)

    def test_divergence_aborts_with_snapshot(self):
        ds = small_ds(200)
        cfg = small_cfg(epochs=1, t_online=11, t_target=11)  # 11 steps per epoch
        state = init_train_state(cfg, ds)
        # amortizer forced far below the partition scale: exp overflows;
        # resuming after step 1 keeps the epoch rotation from re-initializing
        # it, and the failing step 2 runs neither the amortization stage nor the EMA
        for m in ("a", "b"):
            state.targets[m].ema.weights[-1].value[...] = 0.0
            state.targets[m].ema.biases[-1].value[0, 0] = -800.0
        state.global_step = 1
        with pytest.raises(TrainingDivergence) as err:
            run_amorlip(cfg, ds, start_state=state)
        assert "step" in err.value.snapshot and "tau" in err.value.snapshot
        # the step is neither logged nor an amortization step, so the gap
        # is computed on the way out; the amortizer sits ~800 below log Z
        gap = err.value.snapshot["median_abs_log_z_err"]
        assert math.isfinite(gap) and gap > 700.0

    def test_amortizer_optimizer_overflow_diverges(self, monkeypatch):
        real = trainer_mod.loss_l2log

        def overflowing(theta, emb, log_z_target):
            loss = real(theta, emb, log_z_target)
            theta.weights[0].grad[...] = 1e200  # its square overflows
            return loss

        monkeypatch.setattr(trainer_mod, "loss_l2log", overflowing)
        ds = small_ds(200)
        cfg = small_cfg(epochs=1, t_online=2, log_every=10)
        with pytest.raises(TrainingDivergence, match="optimizer step 1 is not finite") as err:
            run_amorlip(cfg, ds, MetricsWriter())
        # the first amortization step; the gap comes from the untouched targets
        assert err.value.snapshot["step"] == 2
        assert math.isfinite(err.value.snapshot["median_abs_log_z_err"])

    def test_epoch_rotation_freezes_previous_target(self):
        ds = small_ds(200)
        cfg = small_cfg(epochs=2)
        recorded = {}
        real = trainer_mod._rotate_and_reinit

        def spying(state, epoch):
            if epoch == 2:
                recorded["pre"] = [b.value.copy() for b in state.targets["a"].ema.blocks()]
            real(state, epoch)
            if epoch == 2:
                recorded["post"] = [b.value.copy() for b in state.targets["a"].prev_epoch.blocks()]

        trainer_mod._rotate_and_reinit = spying
        try:
            run_amorlip(cfg, ds)
        finally:
            trainer_mod._rotate_and_reinit = real
        for pre, post in zip(recorded["pre"], recorded["post"]):
            assert np.array_equal(pre, post)

    def test_rotation_resets_amortizer_optimizer(self):
        ds = small_ds(200)
        cfg = small_cfg(epochs=2, t_online=2)
        state = run_amorlip(cfg, ds, max_steps=9)
        assert state.opt_amortizer.t > 0
        trainer_mod._rotate_and_reinit(state, 2)
        fresh = {
            m: init_amortizer(cfg.embed_dim, cfg.f_d, m, (cfg.seed, AMORTIZER_REINIT_SALT, 2, i))
            for i, m in enumerate(("a", "b"))
        }
        blocks = [b for m in ("a", "b") for b in fresh[m].blocks()]
        want = AdamW(ParamStore(blocks), lr=cfg.lr_amortizer)
        got = state.opt_amortizer
        assert got.t == want.t == 0
        for g, w in zip(got.blocks, want.blocks):
            assert g.value.tobytes() == w.value.tobytes()
            assert got.m[g.name].tobytes() == want.m[w.name].tobytes()
            assert got.v[g.name].tobytes() == want.v[w.name].tobytes()
        # the EMA target restarts from the fresh draws
        assert state.ema_store.value.tobytes() == want.store.value.tobytes()


class TestObservation:
    """What is logged must not change what is trained."""

    # the clip method ignores objective and t_online, so one case covers it
    @pytest.mark.parametrize(
        "method, objective, t_online",
        [
            pytest.param("amorlip", objective, t_online, id=f"{t_online}-{objective}")
            for t_online in (1, 2, 8, 32)
            for objective in ("l2log", "fdiv")
        ]
        + [pytest.param("clip", "l2log", 8, id="clip")],
    )
    def test_checkpoint_independent_of_logging(self, tmp_path, method, objective, t_online):
        ds = small_ds(600)  # 33 steps per epoch at batch 16
        stored, payloads = [], []
        for log_every in (None, 10, 1):
            cfg = small_cfg(
                method=method, objective=objective, t_online=t_online, log_every=log_every or 10
            )
            state = run_training(cfg, ds, MetricsWriter() if log_every else None)
            path = tmp_path / f"{log_every}.ckpt"
            checkpoint_save(state, path)
            blocks = checkpoint_load_blocks(path)
            # the stored config records log_every; every other block must agree
            stored.append(blocks.pop("cfg/log_every")[0, 0])
            payloads.append({name: value.tobytes() for name, value in blocks.items()})
        assert stored == [10, 10, 1]
        assert payloads[0] == payloads[1] == payloads[2]

    @pytest.mark.parametrize("with_metrics", [True, False])
    def test_bookkeeping_runs_on_amortization_and_logged_steps(self, monkeypatch, with_metrics):
        counts = {"exact_partition": 0, "combined_target": 0}
        for name in counts:
            real = getattr(trainer_mod, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(trainer_mod, name, counting)
        ds = small_ds(600)
        cfg = small_cfg(epochs=2, t_online=8, log_every=10)
        run_amorlip(cfg, ds, MetricsWriter() if with_metrics else None)

        per_epoch = 540 // cfg.batch_size
        total = per_epoch * cfg.epochs
        steps = range(1, total + 1)
        amortizing = {g for g in steps if ((g - 1) % per_epoch + 1) % cfg.t_online == 0}
        logged = {g for g in steps if g in (1, total) or g % cfg.log_every == 0}
        if not with_metrics:
            logged = set()
        assert len(amortizing) == 2 * (per_epoch // cfg.t_online)
        assert counts["exact_partition"] == 2 * len(amortizing | logged)
        assert counts["combined_target"] == 2 * len(amortizing)


class TestCheckpoints:
    def test_save_load_resave_byte_identical(self, tmp_path):
        ds = small_ds(200)
        cfg = small_cfg(epochs=1)
        state = run_amorlip(cfg, ds)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint_save(state, p1)
        restored = restore_train_state(cfg, ds, p1)
        checkpoint_save(restored, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mismatched_config_names_block(self, tmp_path):
        ds = small_ds(200)
        cfg = small_cfg(epochs=1)
        state = run_amorlip(cfg, ds)
        path = tmp_path / "c.ckpt"
        checkpoint_save(state, path)
        wrong = dataclasses.replace(cfg, embed_dim=12)
        with pytest.raises(ConfigError, match="config key 'embed_dim' is 12, the checkpoint stores 8"):
            restore_train_state(wrong, ds, path)

    def test_mismatched_dataset_dims_name_block(self, tmp_path):
        cfg = small_cfg(epochs=1)
        path = tmp_path / "c.ckpt"
        checkpoint_save(init_train_state(cfg, small_ds(200)), path)
        other = generate_synthetic(200, 4, 10, 7, 0.05, seed=11)
        with pytest.raises(ContractError, match="block 'encoder_b/w0': 9 input rows"):
            restore_train_state(cfg, other, path)

    @pytest.mark.parametrize("method", ["amorlip", "clip"])
    def test_load_eval_model_resaves_byte_identical(self, tmp_path, method):
        state = run_training(small_cfg(method=method, epochs=1), small_ds(200))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint_save(state, p1)
        checkpoint_save(load_eval_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_survives_round_trip(self, tmp_path):
        # every field but method off its default; f_d = 29/7 gives width
        # ceil(29/7 * 7) = 30, so f_d could not be recovered from the shapes
        cfg = TrainConfig(
            objective="fdiv", generator="js", epochs=3, batch_size=8, embed_dim=7,
            encoder_hidden=5, encoder_depth=1, f_d=29 / 7, t_lambda=2, t_online=3,
            t_target=1, alpha=0.9, beta_final=0.5, include_positive=False, lr_encoder=2e-3,
            lr_amortizer=3e-3, weight_decay=0.0, fdiv_l2log_coef=0.2, rho_main=5.0,
            rho_anneal=-7.0, anneal_start_fraction=0.5, tau_init=10.0, tau_max=50.0,
            eval_fraction=0.2, seed=INT_LIMIT - 1, log_every=3,
        )
        fields = dataclasses.fields(cfg)
        assert [f.name for f in fields if getattr(cfg, f.name) == f.default] == ["method"]
        path = tmp_path / "s.ckpt"
        checkpoint_save(init_train_state(cfg, small_ds(200)), path)
        model = load_eval_model(path)
        assert model.config == cfg
        assert model.targets["a"].ema.dims == [7, 30, 30, 1]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNK!\n" + b"\x00" * 16)
        with pytest.raises(Exception, match="magic"):
            checkpoint_load_blocks(path)

    # 270 training samples at batch 16: 16 steps per epoch
    @pytest.mark.parametrize(
        "method, stop",
        [
            pytest.param(method, stop, id=f"{method}-{name}")
            for method in ("amorlip", "clip")
            for name, stop in (("mid-epoch", 20), ("one-epoch", 16), ("two-epochs", 32), ("no-step", 0))
        ],
    )
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, method, stop):
        ds = small_ds(300)
        cfg = small_cfg(method=method, epochs=3)
        full = MetricsWriter()
        final_full = run_training(cfg, ds, full)

        part1 = MetricsWriter()
        state = run_training(cfg, ds, part1, max_steps=stop)
        assert state.global_step == stop
        path = tmp_path / "stop.ckpt"
        checkpoint_save(state, path)
        restored = restore_train_state(cfg, ds, path)
        part2 = MetricsWriter()
        final_resumed = run_training(cfg, ds, part2, start_state=restored)

        assert strip_wall(part1.records + part2.records) == strip_wall(full.records)
        assert_same_blocks(final_resumed, final_full)

    def test_resume_clip_baseline(self, tmp_path):
        ds = small_ds(300)
        cfg = small_cfg(method="clip", epochs=2)
        full = MetricsWriter()
        run_clip_baseline(cfg, ds, full)
        state = run_clip_baseline(cfg, ds, max_steps=9)
        path = tmp_path / "clip.ckpt"
        checkpoint_save(state, path)
        restored = restore_train_state(cfg, ds, path)
        part2 = MetricsWriter()
        run_clip_baseline(cfg, ds, part2, start_state=restored)
        assert strip_wall(part2.records) == strip_wall(full.records)[9:]

    def test_eval_model_round_trip(self, tmp_path):
        ds = small_ds(200)
        cfg = small_cfg(epochs=1)
        state = run_amorlip(cfg, ds)
        path = tmp_path / "m.ckpt"
        checkpoint_save(state, path)
        model = load_eval_model(path)
        assert model.config.seed == cfg.seed
        assert model.targets is not None
        assert model.temperature.tau == state.temperature.tau
        x = ds.mod_a[:5].astype(np.float64)
        from amorlip.encoders import encode

        e1, _ = encode(state.encoders, x, "a")
        e2, _ = encode(model.encoders, x, "a")
        assert np.array_equal(e1.data, e2.data)

    def test_largest_seed_round_trips(self, tmp_path):
        # AMCK1 stores the seed as float64; the config stops where that is exact
        with pytest.raises(ConfigError, match=r"'seed' must be below 2\*\*53"):
            small_cfg(seed=INT_LIMIT).validate()
        with pytest.raises(ConfigError, match=r"'log_every' must be below 2\*\*53"):
            small_cfg(log_every=INT_LIMIT).validate()
        cfg = small_cfg(seed=INT_LIMIT - 1)
        path = tmp_path / "s.ckpt"
        checkpoint_save(init_train_state(cfg, small_ds(200)), path)
        assert load_eval_model(path).config.seed == INT_LIMIT - 1

    def test_clip_checkpoint_has_no_amortizers(self, tmp_path):
        ds = small_ds(200)
        cfg = small_cfg(method="clip", epochs=1)
        state = run_clip_baseline(cfg, ds)
        path = tmp_path / "c.ckpt"
        checkpoint_save(state, path)
        model = load_eval_model(path)
        assert model.targets is None


class TestRunTraining:
    def test_dispatch(self):
        ds = small_ds(200)
        st1 = run_training(small_cfg(epochs=1), ds)
        assert st1.online is not None
        st2 = run_training(small_cfg(method="clip", epochs=1), ds)
        assert st2.online is None

    def test_method_mismatch_rejected(self):
        ds = small_ds(200)
        with pytest.raises(ConfigError):
            run_amorlip(small_cfg(method="clip"), ds)
        with pytest.raises(ConfigError):
            run_clip_baseline(small_cfg(method="amorlip"), ds)

    def test_dataset_smaller_than_batch_rejected(self):
        ds = small_ds(200)
        with pytest.raises(ConfigError):
            run_amorlip(small_cfg(batch_size=190), ds)


class TestFidelityExperiment:
    def test_smoke_returns_stats(self):
        ds = generate_synthetic(600, 6, 16, 12, 0.05, seed=5)
        cfg = TrainConfig(
            epochs=2, batch_size=32, embed_dim=12, encoder_hidden=24, seed=5, eval_fraction=0.2
        )
        res = trainer_mod.amortizer_fidelity_experiment(cfg, ds, pretrain_epochs=1, invocations=40)
        assert set(res) >= {"median_abs_log_z_err", "mean_abs_log_z_err", "tau", "optimizer_steps"}
        assert res["optimizer_steps"] == 40 * cfg.t_lambda
        assert math.isfinite(res["median_abs_log_z_err"])

    def test_eval_split_smaller_than_batch_rejected(self):
        # 200 samples hold out 20, fewer than one batch of 64
        cfg = small_cfg(batch_size=64)
        with pytest.raises(ConfigError, match="batch_size 64 exceeds dataset size 20"):
            trainer_mod.amortizer_fidelity_experiment(cfg, small_ds(200), pretrain_epochs=1)
