import json
import math
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

import amorlip
from amorlip.cli import main
from amorlip.data import dataset_file_size, generate_synthetic, save_dataset
from amorlip.trainer import (
    CKPT_MAGIC,
    TrainConfig,
    checkpoint_load_blocks,
    checkpoint_save,
    init_train_state,
)
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


def rewrite_blocks(path, edit):
    """Apply edit to a checkpoint's {name: array} blocks and write them back
    as AMCK1, in their order."""
    blocks = checkpoint_load_blocks(path)
    edit(blocks)
    parts = [CKPT_MAGIC, struct.pack("<I", len(blocks))]
    for name, value in blocks.items():
        raw = name.encode()
        parts += [struct.pack("<I", len(raw)), raw, struct.pack("<II", *value.shape)]
        parts.append(np.ascontiguousarray(value, dtype="<f8").tobytes())
    path.write_bytes(b"".join(parts))


def fresh_checkpoint(edit=None, method="amorlip"):
    """A writer of an untrained checkpoint for write_data's dims, its blocks changed by edit."""

    def write(path):
        cfg = TrainConfig(method=method, epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16)
        ds = generate_synthetic(300, 4, 10, 9, 0.05, seed=11)
        checkpoint_save(init_train_state(cfg, ds), path)
        if edit is not None:
            rewrite_blocks(path, edit)

    return write


def patched(write, find: bytes, skip: int, raw: bytes):
    """A writer of write's file with raw put skip bytes past the first find."""

    def write_patched(path):
        write(path)
        blob = bytearray(path.read_bytes())
        offset = blob.index(find) + skip
        blob[offset : offset + len(raw)] = raw
        path.write_bytes(bytes(blob))

    return write_patched


def write_data(path):
    save_dataset(generate_synthetic(300, 4, 10, 9, 0.05, seed=11), path)


def write_other_data(path):
    """The data of `gen-data --n 300 --classes 4 --dim-a 6 --dim-b 5 --seed 5`."""
    save_dataset(generate_synthetic(300, 4, 6, 5, 0.05, seed=5), path)


def drop_blocks(prefix):
    def edit(blocks):
        for name in [name for name in blocks if name.startswith(prefix)]:
            del blocks[name]

    return edit


def set_block(name, value):
    def edit(blocks):
        blocks[name][0, 0] = value

    return edit


def to_old_format(blocks):
    # the format before the config was stored: meta/* in place of cfg/*
    drop_blocks("cfg/")(blocks)
    for name, value in (("seed", 7.0), ("eval_fraction", 0.1), ("method", 1.0)):
        blocks[f"meta/{name}"] = np.array([[value]])


TINY = json.dumps(
    dict(epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=11, log_every=5)
)


@pytest.fixture()
def data_path(tmp_path):
    path = tmp_path / "train.apds"
    write_data(path)
    return path


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(TINY)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "noise, message",
        [("nan", "noise_sigma must be finite and >= 0, got nan"),
         ("1e300", "noise_sigma 1e+300 gives features not finite in float32")],
    )
    def test_bad_noise_exits_1(self, tmp_path, capsys, noise, message):
        out = tmp_path / "x.apds"
        assert main(["gen-data", "--out", str(out), "--n", "100", "--noise", noise]) == 1
        assert stderr_line(capsys) == f"amorlip: {message}"
        assert not out.exists()

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

    def test_unwritable_checkpoint_exits_3_before_training(self, data_path, tiny_config, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        ckpt = tmp_path / "missing-dir" / "c.ckpt"
        code = main(
            ["train", "--data", str(data_path), "--config", str(tiny_config),
             "--metrics", str(metrics), "--checkpoint", str(ckpt)]
        )
        assert code == 3
        assert stderr_line(capsys).startswith("amorlip: cannot write checkpoint: ")
        assert not metrics.exists()

    def test_identical_invocations_identical_metrics(self, data_path, tiny_config, tmp_path):
        m1, m2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        for m in (m1, m2):
            assert (
                main(["train", "--data", str(data_path), "--config", str(tiny_config),
                      "--metrics", str(m)])
                == 0
            )
        assert strip_wall(read_jsonl(m1)) == strip_wall(read_jsonl(m2))

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

    def test_interrupt_exits_130_with_one_line(self, data_path, tmp_path):
        # a run far longer than the test, stopped by SIGINT once it has
        # written a metrics line
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"epochs": 100_000, "batch_size": 16, "t_online": 2}))
        metrics = tmp_path / "m.jsonl"
        src = str(Path(amorlip.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "amorlip", "train", "--data", str(data_path),
             "--config", str(cfg), "--metrics", str(metrics)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            # a job a shell puts in the background inherits SIGINT ignored
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 60
            while not (metrics.exists() and "\n" in metrics.read_text()):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "no metrics line within 60 s"
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once the run has exited
        assert proc.returncode == 130
        assert err.splitlines() == ["amorlip: interrupted"]
        assert out == ""


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

    def eval_edited(self, data_path, tmp_path, edit, method="amorlip"):
        """Exit code of eval on a fresh checkpoint whose blocks edit changed."""
        ckpt = tmp_path / "edited.ckpt"
        fresh_checkpoint(edit, method)(ckpt)
        return main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                     "--report", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("block", ["cfg/seed", "cfg/eval_fraction", "meta/tau_max"])
    def test_missing_meta_block_exits_1(self, data_path, tmp_path, capsys, block):
        # eval holds out the split and clamps tau from these blocks: no defaults
        assert self.eval_edited(data_path, tmp_path, lambda blocks: blocks.pop(block)) == 1
        assert stderr_line(capsys) == f"amorlip: checkpoint is missing block {block!r}"

    @pytest.mark.parametrize("method", ["amorlip", "clip"])
    def test_checkpoint_without_config_exits_1(self, data_path, tmp_path, capsys, method):
        assert self.eval_edited(data_path, tmp_path, to_old_format, method) == 1
        assert stderr_line(capsys) == "amorlip: checkpoint is missing block 'cfg/method'"

    def test_missing_target_net_exits_1(self, data_path, tmp_path, capsys):
        # one modality's target amortizer gone: not read as a clip checkpoint
        assert self.eval_edited(data_path, tmp_path, drop_blocks("target_b/")) == 1
        assert stderr_line(capsys) == "amorlip: checkpoint is missing block 'target_b/w0'"

    @pytest.mark.parametrize(
        "block, value, message",
        [
            ("cfg/method", 5.0, "holds 5.0, not an index into ('amorlip', 'clip')"),
            ("cfg/include_positive", 0.5, "holds 0.5, not an index into (False, True)"),
            ("cfg/epochs", 2.5, "holds 2.5, not an integer"),
        ],
    )
    def test_undecodable_config_exits_1(self, data_path, tmp_path, capsys, block, value, message):
        assert self.eval_edited(data_path, tmp_path, set_block(block, value)) == 1
        assert stderr_line(capsys) == f"amorlip: checkpoint block {block!r} {message}"

    def test_inflated_config_size_exits_1_without_allocating(self, data_path, tmp_path, capsys):
        # the stored sizes are checked against the block shapes first: a
        # 1e9-wide encoder (a width a checkpoint can store) is never allocated
        tracemalloc.start()
        try:
            code = self.eval_edited(data_path, tmp_path, set_block("cfg/encoder_hidden", 1e9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert stderr_line(capsys) == (
            "amorlip: block 'encoder_a/w0': checkpoint shape (10, 16) != expected (10, 1000000000)"
        )
        assert peak < 64 * 2**20


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


# The CLI failure matrix: every bad input run through `main`, with its exit
# code and its exact stderr lines. "{tmp}" stands for the row's directory,
# which holds DATA (300 samples, 4 classes, dims 10 and 9) and an empty
# directory "dir". A dict stands for a JSON line; ANY matches any value.
DATA = "{tmp}/train.apds"
USAGE_TRAIN = [
    "usage: amorlip train [-h] --data DATA [--method {amorlip,clip}]",
    "                     [--objective {l2log,fdiv}]",
    "                     [--generator {kl,kl_affine,js}] [--config CONFIG]",
    "                     [--metrics METRICS] [--checkpoint CHECKPOINT]",
    "                     [--seed SEED]",
]
USAGE_VERIFY = [
    "usage: amorlip verify [-h] [--features FEATURES]",
    "                      {gradcheck,spectral,schedules,equivalence}",
]


def row(name, argv, code, *err, files=None, absent=()):
    """A matrix row; files maps a name in the row's directory to str, bytes
    or a writer of the file, and absent names files that must not exist."""
    return pytest.param(argv.split(), code, list(err), files or {}, absent, id=name)


def config_row(name, values, *err):
    """A train row with a config file of values; exit 1 unless err starts with a code."""
    code, err = (err[0], err[1:]) if isinstance(err[0], int) else (1, err)
    content = values if isinstance(values, (str, bytes)) else json.dumps(values)
    argv = f"train --data {DATA} --config {{tmp}}/c.json"
    return row(name, argv, code, *err, files={"c.json": content})


def eval_row(name, code, err, write):
    argv = f"eval --data {DATA} --checkpoint {{tmp}}/c.ckpt --report {{tmp}}/r.json"
    return row(name, argv, code, err, files={"c.ckpt": write}, absent=("r.json",))


FAILURES = [
    # gen-data
    row("gen-data-missing-dir", "gen-data --out {tmp}/missing/x.apds", 3,
        "amorlip: cannot write {tmp}/missing/x.apds: "
        "[Errno 2] No such file or directory: '{tmp}/missing/x.apds.tmp'"),
    row("gen-data-out-directory", "gen-data --out {tmp}/dir --n 100", 3,
        "amorlip: cannot write {tmp}/dir: "
        "[Errno 21] Is a directory: '{tmp}/dir.tmp' -> '{tmp}/dir'"),
    row("gen-data-one-class", "gen-data --out {tmp}/x.apds --classes 1", 1,
        "amorlip: need n >= num_classes >= 2, got n=10000, classes=1", absent=("x.apds",)),
    row("gen-data-nan-noise", "gen-data --out {tmp}/x.apds --n 100 --noise nan", 1,
        "amorlip: noise_sigma must be finite and >= 0, got nan", absent=("x.apds",)),
    row("gen-data-huge-noise", "gen-data --out {tmp}/x.apds --n 100 --noise 1e300", 1,
        "amorlip: noise_sigma 1e+300 gives features not finite in float32", absent=("x.apds",)),
    row("gen-data-negative-seed", "gen-data --out {tmp}/x.apds --seed -3", 1,
        "amorlip: seed must be a non-negative integer, got -3", absent=("x.apds",)),
    # rejected before the first draw: 2**32 samples of dims 64 and 48 would
    # be about 3.8 TB of float64
    row("gen-data-n-beyond-u32", "gen-data --out {tmp}/x.apds --n 4294967296", 1,
        "amorlip: n must be below 2**32, since APDS1 stores it as a u32, got 4294967296",
        absent=("x.apds",)),
    # train: flags, files and outputs
    row("train-no-data-flag", "train", 1,
        *USAGE_TRAIN, "amorlip train: error: the following arguments are required: --data"),
    row("train-unknown-flag", f"train --data {DATA} --frobnicate", 1,
        "usage: amorlip [-h] {gen-data,train,eval,verify} ...",
        "amorlip: error: unrecognized arguments: --frobnicate"),
    row("train-missing-dataset", "train --data {tmp}/nope.apds", 3,
        "amorlip: cannot read dataset: [Errno 2] No such file or directory: '{tmp}/nope.apds'"),
    row("train-corrupt-dataset", "train --data {tmp}/bad.apds", 3,
        "amorlip: bad magic, not an APDS1 file (byte offset 0)", files={"bad.apds": b"garbage"}),
    row("train-non-finite-feature", "train --data {tmp}/nan.apds", 3,
        "amorlip: non-finite feature value (byte offset 12282)",
        # modality b, sample 7, feature 2
        files={"nan.apds": patched(write_data, b"APDS1\n", 6 + 16 + 4 * (300 * 10 + 7 * 9 + 2),
                                   struct.pack("<f", math.nan))}),
    # a valid APDS1 file of one sample (dims 2 and 2, 2 classes): no eval split
    row("train-one-sample-dataset", "train --data {tmp}/one.apds", 1,
        "amorlip: need at least 2 samples to hold out an eval split, got n=1",
        files={"one.apds": b"APDS1\n" + struct.pack("<4I4fI", 1, 2, 2, 2, 1, 0, 0, 1, 0)}),
    row("train-missing-config", f"train --data {DATA} --config {{tmp}}/nope.json", 3,
        "amorlip: cannot read config: [Errno 2] No such file or directory: '{tmp}/nope.json'"),
    row("train-checkpoint-missing-dir",
        f"train --data {DATA} --config {{tmp}}/tiny.json --metrics {{tmp}}/m.jsonl"
        " --checkpoint {tmp}/missing/c.ckpt", 3,
        "amorlip: cannot write checkpoint: "
        "[Errno 2] No such file or directory: '{tmp}/missing/c.ckpt.tmp'",
        files={"tiny.json": TINY}, absent=("m.jsonl",)),
    row("train-checkpoint-directory",
        f"train --data {DATA} --config {{tmp}}/tiny.json --metrics {{tmp}}/m.jsonl"
        " --checkpoint {tmp}/dir", 3,
        "amorlip: cannot write checkpoint: [Errno 21] Is a directory: '{tmp}/dir'",
        files={"tiny.json": TINY}, absent=("m.jsonl",)),
    row("train-metrics-missing-dir", f"train --data {DATA} --metrics {{tmp}}/missing/m.jsonl", 3,
        "amorlip: cannot write metrics: "
        "[Errno 2] No such file or directory: '{tmp}/missing/m.jsonl'"),
    row("train-metrics-directory", f"train --data {DATA} --metrics {{tmp}}/dir", 3,
        "amorlip: cannot write metrics: [Errno 21] Is a directory: '{tmp}/dir'"),
    row("train-negative-seed-flag", f"train --data {DATA} --seed -1", 1,
        "amorlip: config key 'seed' must be a non-negative integer, got -1"),
    # meta/seed is float64 in AMCK1: 2**53 + 1 would read back as 2**53,
    # and eval would hold out a different split
    row("train-seed-beyond-2**53", f"train --data {DATA} --seed 9007199254740993", 1,
        "amorlip: config key 'seed' must be below 2**53, since a checkpoint stores it as a float64,"
        " got 9007199254740993"),
    # train: config files
    config_row("config-not-json", "{not json",
               "amorlip: config file is not valid JSON: "
               "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    config_row("config-not-utf8", b"\xff\xfe",
               "amorlip: config file is not valid JSON: "
               "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    config_row("config-too-deep", "[" * 100_000,
               "amorlip: config file is not valid JSON: maximum recursion depth exceeded"
               " while decoding a JSON array from a unicode string"),
    *[config_row(f"config-mistyped-{key}", {key: value},
                 f"amorlip: config key {key!r} must be {kind}, got {value!r}")
      for key, value, kind in [("epochs", "3", "int"), ("batch_size", 64.5, "int"),
                               ("seed", True, "int"), ("include_positive", 1, "bool"),
                               ("method", 0, "str"), ("tau_init", "14.3", "float")]],
    # NaN, Infinity and -Infinity literals
    *[config_row(f"config-non-finite-{key}", {key: value},
                 f"amorlip: config key {key!r} must be finite, got {value}")
      for key, value in [("lr_encoder", math.nan), ("tau_max", math.inf), ("f_d", -math.inf)]],
    # a float field takes ints, but only ones a float64 can hold
    *[config_row(f"config-{key}-beyond-float64", {key: 10**400},
                 f"amorlip: config key {key!r} must fit a float64 (magnitude at most 1.8e308),"
                 " got a larger integer")
      for key in ("f_d", "lr_encoder", "lr_amortizer", "weight_decay", "rho_anneal", "tau_init",
                  "tau_max")],
    # integers that fit a float64, but whose products with others do not
    config_row("config-f_d-integer-width-beyond-float64", {"f_d": 10**308},
               "amorlip: f_d must be positive, with a finite width f_d * embed_dim,"
               f" got {10**308}"),
    config_row("config-tau_max-integer-square-beyond-float64", {"tau_max": 10**200},
               "amorlip: config key 'tau_max' must have a finite, non-zero square"
               " and inverse square, got 1e+200"),
    config_row("config-integer-over-digit-limit", '{"seed": ' + "1" * 5000 + "}",
               "amorlip: config file holds an integer of 5000 digits,"
               " more than any config key takes"),
    config_row("config-negative-seed", {"seed": -1},
               "amorlip: config key 'seed' must be a non-negative integer, got -1"),
    # tau^2 underflows or overflows
    *[config_row(f"config-{key}-{value}", {key: value},
                 f"amorlip: config key {key!r} must have a finite, non-zero square"
                 f" and inverse square, got {value}")
      for key in ("tau_init", "tau_max") for value in (1e-300, 1e200)],
    # 270 training samples at batch 16: 16 steps per epoch
    *[config_row(f"config-{key}-beyond-epoch", {"batch_size": 16, "epochs": 1, key: 17},
                 f"amorlip: config key {key!r} must be at most the 16 steps per epoch, got 17")
      for key in ("t_online", "t_target")],
    # alpha 1 freezes the EMA target at each epoch's fresh draw
    config_row("config-alpha-1-amorlip", {"batch_size": 16, "epochs": 1, "alpha": 1},
               "amorlip: config key 'alpha' must be below 1 for amorlip, got 1"),
    # an accepted but huge temperature: the squared encoder gradient overflows
    config_row("train-optimizer-overflow",
               {"tau_init": 1000.0, "tau_max": 1000.0, "batch_size": 16, "epochs": 1}, 2,
               "amorlip: training diverged: "
               "optimizer step 13 is not finite (overflow encountered in multiply)",
               {"step": 13, "epoch": 1, "tau": ANY, "amor_loss": None, "median_abs_log_z_err": ANY,
                "stage2_loss_raw": ANY, "stage2_loss_rescaled": ANY, "beta_t": 0.8, "rho": -8.0,
                "gather_count": 1}),
    # step 1's update drives log(tau) to -1e200, so tau reads 0.0: the run
    # diverges at step 1, whose snapshot holds the tau its losses used
    config_row("train-diverged-at-tau-0", {"lr_encoder": 1e200, "batch_size": 16, "epochs": 1}, 2,
               "amorlip: training diverged: tau must have a finite, non-zero square and inverse"
               " square, got 0 after the update at step 1",
               {"step": 1, "epoch": 1, "tau": ANY, "amor_loss": None,
                "median_abs_log_z_err": ANY, "stage2_loss_raw": ANY,
                "stage2_loss_rescaled": ANY, "beta_t": 0.8, "rho": -8.0, "gather_count": 0}),
    # overflowing steps end in a divergence, with no numpy warning on stderr
    config_row("train-huge-lr_amortizer", {"lr_amortizer": 1e200, "batch_size": 16, "epochs": 1}, 2,
               "amorlip: training diverged: "
               "optimizer step 2 is not finite (overflow encountered in multiply)",
               {"step": 8, "epoch": 1, "tau": ANY, "median_abs_log_z_err": ANY, "amor_loss": None,
                "stage2_loss_raw": None, "stage2_loss_rescaled": None, "beta_t": 0.8, "rho": -8.0,
                "gather_count": None}),
    # step 1's decay leaves weights near 1e197, so step 2's encoder output
    # overflows: the step diverges before any loss reads its embeddings
    config_row("train-huge-weight_decay", {"weight_decay": 1e200, "batch_size": 16, "epochs": 1}, 2,
               "amorlip: training diverged: row 0 has norm inf, which is not finite",
               {"step": 2, "epoch": 1, "tau": ANY, "amor_loss": None, "median_abs_log_z_err": None,
                "stage2_loss_raw": None, "stage2_loss_rescaled": None, "beta_t": 0.8, "rho": -8.0,
                "gather_count": None}),
    # a checkpoint packs layer widths as u32; a width below that may still not fit in memory
    config_row("config-f_d-width-beyond-u32", {"f_d": 1e200, "batch_size": 16, "epochs": 1},
               "amorlip: config key 'f_d' gives a layer width of 3.2e+201, but a checkpoint"
               " stores widths below 2**32"),
    # the amortizer's 1e6 x 1e6 middle layer is its largest, so it is drawn, and fails, first
    config_row("train-amortizer-out-of-memory",
               {"f_d": 1e6, "embed_dim": 1, "batch_size": 16, "epochs": 1},
               "amorlip: out of memory: Unable to allocate 7.28 TiB for an array with shape"
               " (1000000, 1000000) and data type float64"),
    # on other data, step 6's encoder update drives tau below 1.5e-162, where
    # its square underflows: the rescaled loss could not divide by it
    *[row(f"train-tau-square-underflow-{method}",
          f"train --data {{tmp}}/other.apds --method {method} --config {{tmp}}/c.json", 2,
          "amorlip: training diverged: tau must have a finite, non-zero square and inverse square,"
          " got 1.15e-174 after the update at step 6",
          {"step": 6, "epoch": 1, "stage2_loss_raw": ANY, "stage2_loss_rescaled": ANY,
           "tau": ANY, "rho": -8.0, **snapshot},
          files={"other.apds": write_other_data,
                 "c.json": json.dumps({"epochs": 1, "batch_size": 16, "t_online": 2,
                                       "lr_encoder": 100})})
      for method, snapshot in [
          ("amorlip", {"beta_t": 0.8, "amor_loss": ANY, "median_abs_log_z_err": ANY,
                       "gather_count": 3}),
          ("clip", {"beta_t": None, "amor_loss": None, "median_abs_log_z_err": None,
                    "gather_count": 6}),
      ]],
    # eval
    row("eval-missing-checkpoint",
        f"eval --data {DATA} --checkpoint {{tmp}}/no.ckpt --report {{tmp}}/r.json", 3,
        "amorlip: cannot read inputs: [Errno 2] No such file or directory: '{tmp}/no.ckpt'"),
    row("eval-report-directory",
        f"eval --data {DATA} --checkpoint {{tmp}}/c.ckpt --report {{tmp}}/dir", 3,
        "amorlip: cannot write report: [Errno 21] Is a directory: '{tmp}/dir.tmp' -> '{tmp}/dir'",
        files={"c.ckpt": fresh_checkpoint()}),
    # the first block's name, the block after encoder_a/w0, and tau's payload
    eval_row("eval-block-name-not-utf8", 3,
             "amorlip: block name is not valid UTF-8 (byte offset 14)",
             patched(fresh_checkpoint(), b"encoder_a/w0", 0, b"\xff")),
    eval_row("eval-duplicate-block-name", 3,
             "amorlip: duplicate block name 'encoder_a/w0' (byte offset 1318)",
             patched(fresh_checkpoint(), b"encoder_a/b0", 0, b"encoder_a/w0")),
    eval_row("eval-non-finite-payload", 3,
             "amorlip: non-finite value in block 'temperature/log_tau' (byte offset 9545)",
             patched(fresh_checkpoint(), b"temperature/log_tau", len(b"temperature/log_tau") + 8,
                     struct.pack("<d", math.nan))),
    # eval holds out the split and clamps tau from these blocks: no defaults
    *[eval_row(f"eval-missing-{block}", 1, f"amorlip: checkpoint is missing block {block!r}",
               fresh_checkpoint(lambda blocks, block=block: blocks.pop(block)))
      for block in ("cfg/seed", "cfg/eval_fraction", "meta/tau_max")],
    # the benchmark's own reader clamps tau with meta/tau_max: it must be cfg/tau_max
    eval_row("eval-meta-tau_max-not-cfg", 1,
             "amorlip: checkpoint block 'meta/tau_max' holds -710.0, not cfg/tau_max's 100.0",
             fresh_checkpoint(set_block("meta/tau_max", -710.0))),
    *[eval_row(f"eval-old-format-{method}", 1, "amorlip: checkpoint is missing block 'cfg/method'",
               fresh_checkpoint(to_old_format, method))
      for method in ("amorlip", "clip")],
    # one modality's target amortizer gone: not read as a clip checkpoint
    eval_row("eval-missing-target-net", 1, "amorlip: checkpoint is missing block 'target_b/w0'",
             fresh_checkpoint(drop_blocks("target_b/"))),
    *[eval_row(f"eval-undecodable-{block}", 1, f"amorlip: checkpoint block {block!r} {message}",
               fresh_checkpoint(set_block(block, value)))
      for block, value, message in [
          ("cfg/method", 5.0, "holds 5.0, not an index into ('amorlip', 'clip')"),
          ("cfg/include_positive", 0.5, "holds 0.5, not an index into (False, True)"),
          ("cfg/epochs", 2.5, "holds 2.5, not an integer"),
      ]],
    # counters and optimizer steps must be counts: a resume continues from
    # them, and AdamW's bias correction divides by 1 - beta ** t
    *[eval_row(f"eval-undecodable-{block}", 1,
               f"amorlip: checkpoint block {block!r} holds {value!r}, not an integer in [0, 2**53)",
               fresh_checkpoint(set_block(block, value)))
      for block, value in [("meta/global_step", 2.5), ("opt_enc/t", -1.0), ("opt_amor/t", 1e300)]],
    # tau must be at most the clamp's cap, with a usable square; a clip
    # checkpoint is held to the rule too, though its eval reads no tau
    *[eval_row(f"eval-log_tau-{value}-{method}", 1,
               f"amorlip: checkpoint block 'temperature/log_tau' holds {value!r}: tau must be"
               " at most cfg/tau_max, with a finite, non-zero square and inverse square",
               fresh_checkpoint(set_block("temperature/log_tau", value), method))
      for method, value in [("amorlip", 1000.0), ("amorlip", -1000.0), ("clip", 1000.0)]],
    # an encoder output whose row norm overflows: no report from zeroed embeddings
    eval_row("eval-encoder-output-overflow", 1, "amorlip: row 0 has norm inf, which is not finite",
             fresh_checkpoint(set_block("encoder_a/w2", 1e300))),
    eval_row("eval-inflated-config-size", 1,
             "amorlip: block 'encoder_a/w0': "
             "checkpoint shape (10, 16) != expected (10, 1000000000)",
             fresh_checkpoint(set_block("cfg/encoder_hidden", 1e9))),
    eval_row("eval-config-width-beyond-u32", 1,
             "amorlip: config key 'encoder_hidden' gives a layer width of 1e+12, but a checkpoint"
             " stores widths below 2**32",
             fresh_checkpoint(set_block("cfg/encoder_hidden", 1e12))),
    # the encoder checks its input shape
    row("eval-other-input-dims",
        "eval --data {tmp}/other.apds --checkpoint {tmp}/c.ckpt --report {tmp}/r.json", 1,
        "amorlip: encoder_a: input shape (30, 6) incompatible with dim 10",
        files={"other.apds": write_other_data, "c.ckpt": fresh_checkpoint()}, absent=("r.json",)),
    # verify: a failing check exits 2 with its JSON on stdout and nothing on stderr
    row("verify-spectral-10-features", "verify spectral --features 10", 2),
    row("verify-spectral-1-feature", "verify spectral --features 1", 2),
    *[row(f"verify-spectral-{m}-features", f"verify spectral --features {m}", 1,
          f"amorlip: need m_features >= 1 and dim >= 1, got {m}, 2") for m in (0, -5)],
    row("verify-spectral-feature-bound", f"verify spectral --features {MAX_FEATURES + 1}", 1,
        f"amorlip: spectral suite takes at most {MAX_FEATURES} features, got {MAX_FEATURES + 1}"),
    # the other suites take no feature count: the flag is refused, not ignored
    row("verify-gradcheck-features", "verify gradcheck --features 5", 1,
        "amorlip: --features applies to the spectral suite only"),
    row("verify-unknown-suite", "verify nonsense", 1, *USAGE_VERIFY,
        "amorlip verify: error: argument suite: invalid choice: 'nonsense' "
        "(choose from 'gradcheck', 'spectral', 'schedules', 'equivalence')"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, err, files, absent", FAILURES)
def test_failure_matrix(tmp_path, monkeypatch, capsys, argv, code, err, files, absent):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps its usage to
    write_data(tmp_path / "train.apds")
    (tmp_path / "dir").mkdir()
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            content(path)

    def fill(text):
        return text.replace("{tmp}", str(tmp_path))

    assert main([fill(arg) for arg in argv]) == code
    want = [line if isinstance(line, dict) else fill(line) for line in err]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(want), lines
    assert [json.loads(got) if isinstance(w, dict) else got for got, w in zip(lines, want)] == want
    assert not list(tmp_path.rglob("*.tmp"))
    assert not [name for name in absent if (tmp_path / name).exists()]
