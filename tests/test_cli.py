import json
import math
import struct

import pytest

from amorlip.cli import main
from amorlip.data import dataset_file_size, generate_synthetic, save_dataset
from amorlip.trainer import TrainConfig, checkpoint_save, init_train_state
from amorlip.verify import MAX_FEATURES


def stderr_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json_lines(text):
    """Parse JSON lines, rejecting the Infinity and NaN that json.dumps allows."""
    return [json.loads(line, parse_constant=_reject_constant) for line in text.strip().splitlines()]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


@pytest.fixture()
def data_path(tmp_path):
    ds = generate_synthetic(300, 4, 10, 9, 0.05, seed=11)
    path = tmp_path / "train.apds"
    save_dataset(ds, path)
    return path


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = dict(
        epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=11, log_every=5
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenData:
    def test_writes_expected_size_and_summary(self, tmp_path, capsys):
        out = tmp_path / "d.apds"
        code = main(
            ["gen-data", "--out", str(out), "--n", "120", "--classes", "4",
             "--dim-a", "10", "--dim-b", "8", "--noise", "0.05", "--seed", "3"]
        )
        assert code == 0
        assert out.stat().st_size == dataset_file_size(120, 10, 8)
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary == {"n": 120, "classes": 4, "dims": [10, 8], "path": str(out)}

    def test_repeated_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.apds", tmp_path / "b.apds"
        args = ["--n", "80", "--classes", "4", "--dim-a", "6", "--dim-b", "5", "--seed", "9"]
        assert main(["gen-data", "--out", str(a)] + args) == 0
        assert main(["gen-data", "--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_3_without_partial_file(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.apds"
        assert main(["gen-data", "--out", str(target)]) == 3
        assert not target.exists()

    def test_bad_params_exit_1(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x.apds"), "--classes", "1"]) == 1

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.apds"
        assert main(["gen-data", "--out", str(out), "--seed", "-3"]) == 1
        assert "seed must be a non-negative integer, got -3" in stderr_line(capsys)
        assert not out.exists()


class TestTrain:
    def test_missing_data_flag_exits_1(self, capsys):
        assert main(["train"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, data_path):
        assert main(["train", "--data", str(data_path), "--frobnicate"]) == 1

    def test_clip_warns_on_amortization_flags(self, data_path, tiny_config, tmp_path, capsys):
        code = main(
            ["train", "--data", str(data_path), "--config", str(tiny_config),
             "--method", "clip", "--objective", "l2log",
             "--metrics", str(tmp_path / "m.jsonl")]
        )
        assert code == 0
        assert "ignores amortization flags" in capsys.readouterr().err

    def test_train_writes_metrics_and_checkpoint(self, data_path, tiny_config, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        ckpt = tmp_path / "c.ckpt"
        code = main(
            ["train", "--data", str(data_path), "--config", str(tiny_config),
             "--metrics", str(metrics), "--checkpoint", str(ckpt)]
        )
        assert code == 0
        records = read_jsonl(metrics)
        assert records and ckpt.exists()
        expected_keys = {
            "step", "epoch", "stage2_loss_raw", "stage2_loss_rescaled", "amor_loss",
            "tau", "beta_t", "rho", "median_abs_log_z_err", "gather_count", "wall_ms",
        }
        assert set(records[0]) == expected_keys
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["method"] == "amorlip"

    def test_identical_invocations_identical_metrics(self, data_path, tiny_config, tmp_path):
        m1, m2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        for m in (m1, m2):
            assert (
                main(["train", "--data", str(data_path), "--config", str(tiny_config),
                      "--metrics", str(m)])
                == 0
            )
        assert strip_wall(read_jsonl(m1)) == strip_wall(read_jsonl(m2))

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.apds")]) == 3

    def test_corrupt_dataset_exits_3(self, tmp_path):
        bad = tmp_path / "bad.apds"
        bad.write_bytes(b"garbage")
        assert main(["train", "--data", str(bad)]) == 3

    def test_bad_config_json_exits_1(self, data_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--data", str(data_path), "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", "3"), ("batch_size", 64.5), ("seed", True), ("include_positive", 1),
         ("method", 0), ("tau_init", "14.3")],
    )
    def test_mistyped_config_value_exits_1(self, data_path, tmp_path, capsys, key, value):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["train", "--data", str(data_path), "--config", str(cfg)]) == 1
        assert f"config key {key!r} must be" in stderr_line(capsys)

    @pytest.mark.parametrize(
        "key, value", [("lr_encoder", math.nan), ("tau_max", math.inf), ("f_d", -math.inf)]
    )
    def test_non_finite_config_value_exits_1(self, data_path, tmp_path, capsys, key, value):
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text(json.dumps({key: value}))  # NaN, Infinity, -Infinity literals
        assert main(["train", "--data", str(data_path), "--config", str(cfg)]) == 1
        assert f"config key {key!r} must be finite" in stderr_line(capsys)

    def test_negative_seed_flag_exits_1(self, data_path, capsys):
        assert main(["train", "--data", str(data_path), "--seed", "-1"]) == 1
        assert "config key 'seed' must be a non-negative integer, got -1" in stderr_line(capsys)

    def test_negative_seed_in_config_exits_1(self, data_path, tmp_path, capsys):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": -1}))
        assert main(["train", "--data", str(data_path), "--config", str(cfg)]) == 1
        assert "config key 'seed' must be a non-negative integer, got -1" in stderr_line(capsys)

    def test_seed_beyond_float64_integers_exits_1(self, data_path, capsys):
        # meta/seed is float64 in AMCK1: 2**53 + 1 would read back as 2**53,
        # and eval would hold out a different split
        assert main(["train", "--data", str(data_path), "--seed", "9007199254740993"]) == 1
        line = stderr_line(capsys)
        assert "config key 'seed' must be below 2**53" in line and "9007199254740993" in line

    @pytest.mark.parametrize("key", ["tau_init", "tau_max"])
    @pytest.mark.parametrize("value", [1e-300, 1e200])  # tau^2 underflows / overflows
    def test_extreme_temperature_exits_1(self, data_path, tmp_path, capsys, key, value):
        cfg = tmp_path / "tau.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["train", "--data", str(data_path), "--config", str(cfg)]) == 1
        line = stderr_line(capsys)
        assert f"config key {key!r} must have a finite, non-zero square" in line

    def test_non_finite_feature_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nan.apds"
        save_dataset(generate_synthetic(300, 4, 10, 9, 0.05, seed=11), path)
        blob = bytearray(path.read_bytes())
        offset = 6 + 16 + 4 * (300 * 10 + 7 * 9 + 2)  # modality b, sample 7, feature 2
        blob[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        assert main(["train", "--data", str(path)]) == 3
        line = stderr_line(capsys)
        assert "non-finite feature" in line and f"(byte offset {offset})" in line

    @pytest.mark.parametrize("key", ["t_online", "t_target"])
    def test_cadence_longer_than_epoch_exits_1(self, data_path, tmp_path, capsys, key):
        # 270 training samples at batch 16: 16 steps per epoch
        cfg = tmp_path / "cadence.json"
        cfg.write_text(json.dumps({"batch_size": 16, "epochs": 1, key: 17}))
        assert main(["train", "--data", str(data_path), "--config", str(cfg)]) == 1
        line = stderr_line(capsys)
        assert f"config key {key!r} must be at most the 16 steps per epoch, got 17" in line
        # the baseline has no cadence to miss
        clip = ["--method", "clip"]
        assert main(["train", "--data", str(data_path), "--config", str(cfg), *clip]) == 0

    def test_optimizer_overflow_exits_2(self, data_path, tmp_path, capsys):
        # an accepted but huge temperature: the squared encoder gradient overflows
        cfg = tmp_path / "hot.json"
        hot = {"tau_init": 1000.0, "tau_max": 1000.0, "batch_size": 16, "epochs": 1}
        cfg.write_text(json.dumps(hot))
        assert main(["train", "--data", str(data_path), "--config", str(cfg)]) == 2
        message, snapshot = capsys.readouterr().err.strip().splitlines()
        assert message.startswith("amorlip: training diverged: optimizer step ")
        assert "overflow" in message
        assert json.loads(snapshot)["step"] >= 1


class TestEval:
    def run_train(self, data_path, tiny_config, tmp_path, method="amorlip"):
        ckpt = tmp_path / f"{method}.ckpt"
        assert (
            main(["train", "--data", str(data_path), "--config", str(tiny_config),
                  "--method", method, "--checkpoint", str(ckpt)])
            == 0
        )
        return ckpt

    def test_eval_report(self, data_path, tiny_config, tmp_path):
        ckpt = self.run_train(data_path, tiny_config, tmp_path)
        report_path = tmp_path / "report.json"
        assert (
            main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                  "--report", str(report_path)])
            == 0
        )
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["zero_shot_accuracy"] <= 1.0
        assert "median_abs_log_z_err" in report
        assert report["n_eval"] == 30

    def test_clip_report_omits_partition_fields(self, data_path, tiny_config, tmp_path):
        ckpt = self.run_train(data_path, tiny_config, tmp_path, method="clip")
        report_path = tmp_path / "r.json"
        assert (
            main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                  "--report", str(report_path)])
            == 0
        )
        report = json.loads(report_path.read_text())
        assert "median_abs_log_z_err" not in report

    def test_untrained_checkpoint_near_chance(self, tmp_path):
        # 32 classes, fresh random encoders: zero-shot sits near 1/32
        ds = generate_synthetic(4000, 32, 24, 20, 0.05, seed=13)
        data = tmp_path / "big.apds"
        save_dataset(ds, data)
        cfg = TrainConfig(epochs=1, batch_size=32, embed_dim=16, encoder_hidden=24, seed=13)
        state = init_train_state(cfg, ds)
        ckpt = tmp_path / "fresh.ckpt"
        checkpoint_save(state, ckpt)
        report_path = tmp_path / "r.json"
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        p = 1.0 / 32
        n_eval = report["n_eval"]
        assert abs(report["zero_shot_accuracy"] - p) <= 3.0 * math.sqrt(p * (1 - p) / n_eval)

    @pytest.mark.parametrize("corrupt", ["invalid_utf8", "duplicate"])
    def test_bad_block_name_exits_3(self, data_path, tmp_path, capsys, corrupt):
        cfg = TrainConfig(epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=11)
        ckpt = tmp_path / "bad.ckpt"
        ds = generate_synthetic(300, 4, 10, 9, 0.05, seed=11)
        checkpoint_save(init_train_state(cfg, ds), ckpt)
        blob = bytearray(ckpt.read_bytes())
        if corrupt == "invalid_utf8":
            offset = 6 + 4 + 4  # magic, block count, first name length
            blob[offset] = 0xFF
            message = "block name is not valid UTF-8"
        else:
            offset = blob.index(b"encoder_a/b0")  # the block after encoder_a/w0
            blob[offset : offset + 12] = b"encoder_a/w0"
            message = "duplicate block name 'encoder_a/w0'"
        ckpt.write_bytes(bytes(blob))
        assert (
            main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                  "--report", str(tmp_path / "r.json")])
            == 3
        )
        line = stderr_line(capsys)
        assert message in line and f"(byte offset {offset})" in line

    def test_non_finite_payload_exits_3(self, data_path, tmp_path, capsys):
        cfg = TrainConfig(epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=11)
        ckpt = tmp_path / "nan.ckpt"
        ds = generate_synthetic(300, 4, 10, 9, 0.05, seed=11)
        checkpoint_save(init_train_state(cfg, ds), ckpt)
        blob = bytearray(ckpt.read_bytes())
        name = b"temperature/log_tau"
        offset = blob.index(name) + len(name) + 8  # past the name and the (rows, cols) header
        blob[offset : offset + 8] = struct.pack("<d", math.nan)
        ckpt.write_bytes(bytes(blob))
        assert (
            main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                  "--report", str(tmp_path / "r.json")])
            == 3
        )
        line = stderr_line(capsys)
        assert "non-finite value in block 'temperature/log_tau'" in line
        assert f"(byte offset {offset})" in line

    @pytest.mark.parametrize("block", ["meta/seed", "meta/eval_fraction", "meta/tau_max"])
    def test_missing_meta_block_exits_1(self, data_path, tmp_path, capsys, block):
        # eval holds out the split and clamps tau from these blocks: no defaults
        cfg = TrainConfig(epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=5)
        ckpt = tmp_path / "meta.ckpt"
        checkpoint_save(init_train_state(cfg, generate_synthetic(300, 4, 10, 9, 0.05, seed=11)), ckpt)
        blob = ckpt.read_bytes()
        start = blob.index(block.encode()) - 4  # its name length
        end = start + 4 + len(block) + 8 + 8  # name, (1, 1) header, one float64
        (count,) = struct.unpack_from("<I", blob, 6)
        ckpt.write_bytes(blob[:6] + struct.pack("<I", count - 1) + blob[10:start] + blob[end:])
        assert (
            main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                  "--report", str(tmp_path / "r.json")])
            == 1
        )
        assert stderr_line(capsys) == f"amorlip: checkpoint is missing block {block!r}"

    def test_missing_checkpoint_exits_3(self, data_path, tmp_path):
        assert (
            main(["eval", "--data", str(data_path), "--checkpoint", str(tmp_path / "no.ckpt"),
                  "--report", str(tmp_path / "r.json")])
            == 3
        )


class TestVerify:
    def test_schedules_suite_passes(self, capsys):
        assert main(["verify", "schedules"]) == 0
        lines = strict_json_lines(capsys.readouterr().out)
        assert all(c["status"] == "pass" for c in lines)
        assert {"check", "status", "value", "tolerance"} <= set(lines[0])

    def test_equivalence_suite_passes(self, capsys):
        assert main(["verify", "equivalence"]) == 0
        lines = strict_json_lines(capsys.readouterr().out)
        assert all(c["status"] == "pass" for c in lines)

    def test_spectral_tiny_feature_count_fails(self, capsys):
        assert main(["verify", "spectral", "--features", "10"]) == 2
        lines = strict_json_lines(capsys.readouterr().out)
        assert any(c["status"] == "fail" for c in lines)

    def test_spectral_single_feature_fails_without_traceback(self, capsys):
        # one feature has no spread to measure: infinite standard errors
        assert main(["verify", "spectral", "--features", "1"]) == 2
        out, err = capsys.readouterr()
        relative_se = {c["check"]: c for c in strict_json_lines(out)}["spectral/relative_se"]
        assert relative_se["status"] == "fail" and relative_se["value"] == "inf"
        assert err == ""

    @pytest.mark.parametrize("features", ["0", "-5"])
    def test_spectral_no_features_exits_1(self, capsys, features):
        assert main(["verify", "spectral", "--features", features]) == 1
        assert stderr_line(capsys) == (
            f"amorlip: need m_features >= 1 and dim >= 1, got {features}, 2"
        )

    def test_spectral_feature_bound_exits_1(self, capsys):
        # rejected before the first frequency draw
        assert main(["verify", "spectral", "--features", str(MAX_FEATURES + 1)]) == 1
        assert f"at most {MAX_FEATURES} features" in stderr_line(capsys)

    def test_unknown_suite_exits_1(self):
        assert main(["verify", "nonsense"]) == 1
