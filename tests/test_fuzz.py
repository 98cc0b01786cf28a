"""Byte-mutation fuzz of the two file formats: every mutation of a valid
APDS1 dataset or AMCK1 checkpoint is either rejected with a typed error or
loads into something valid, never an untyped exception. A sweep of edge
values over every checkpoint block, and a property test over configs, hold
evaluation and training to the same rule."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amorlip.data import MAGIC, generate_synthetic, load_dataset, save_dataset, split_eval
from amorlip.errors import AmorlipError, FormatError
from amorlip.evaluation import evaluate_model
from amorlip.trainer import (
    CKPT_MAGIC,
    CONFIG_CHOICES,
    TrainConfig,
    checkpoint_load_blocks,
    checkpoint_save,
    init_train_state,
    MetricsWriter,
    load_eval_model,
    run_training,
)

FUZZ = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def mutated(blob: bytes, fields: list[int]):
    """One to four edits: a byte set, inserted or cut anywhere, or a
    little-endian u32 field (a count, length, shape or label) overwritten."""
    byte_edit = st.tuples(
        st.sampled_from(["set", "insert", "truncate"]),
        st.integers(0, len(blob) - 1),
        st.integers(0, 255),
    )
    field_edit = st.tuples(
        st.just("field"),
        st.sampled_from(fields),
        st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)),
    )

    def apply(edits):
        out = bytearray(blob)
        for kind, at, value in edits:
            at = min(at, len(out))
            if kind == "field":
                out[at : at + 4] = struct.pack("<I", value)[: len(out) - at]
            elif kind == "set" and at < len(out):
                out[at] = value
            elif kind == "insert":
                out[at:at] = bytes([value])
            elif kind == "truncate":
                del out[at:]
        return bytes(out)

    return st.lists(st.one_of(byte_edit, field_edit), min_size=1, max_size=4).map(apply)


def amck1_blocks(blob: bytes):
    """Per block: the offsets of its name length and its shape, its name,
    and its payload's offset and value count."""
    off = len(CKPT_MAGIC) + 4
    while off < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, off)
        shape_at = off + 4 + name_len
        rows, cols = struct.unpack_from("<II", blob, shape_at)
        yield off, shape_at, blob[off + 4 : shape_at].decode(), shape_at + 8, rows * cols
        off = shape_at + 8 + 8 * rows * cols


def amck1_fields(blob: bytes) -> list[int]:
    """Offsets of the block count and of every block's name length and shape."""
    fields = [len(CKPT_MAGIC)]
    for off, shape_at, *_ in amck1_blocks(blob):
        fields += [off, shape_at, shape_at + 4]
    return fields


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(generate_synthetic(8, 3, 2, 2, 0.05, seed=1), root / "valid.apds")
    ds = generate_synthetic(24, 3, 4, 3, 0.05, seed=1)
    save_dataset(ds, root / "ckpt.apds")
    cfg = TrainConfig(embed_dim=3, encoder_hidden=4, encoder_depth=1, batch_size=4, seed=1)
    checkpoint_save(init_train_state(cfg, ds), root / "valid.ckpt")
    return root


def write(root, name: str, blob: bytes):
    path = root / name
    path.write_bytes(blob)
    return path


def test_apds1_mutations_rejected_or_valid(files):
    blob = (files / "valid.apds").read_bytes()
    # the four header fields, then the eight labels at the end
    header = range(len(MAGIC), len(MAGIC) + 16, 4)
    fields = [*header, *range(len(blob) - 4 * 8, len(blob), 4)]

    @FUZZ
    @given(mutated(blob, fields))
    def check(data: bytes):
        try:
            ds = load_dataset(write(files, "mutant.apds", data))
        except FormatError:
            return
        assert ds.mod_a.shape == (ds.n, ds.dim_a) and ds.mod_b.shape == (ds.n, ds.dim_b)
        assert np.all(np.isfinite(ds.mod_a)) and np.all(np.isfinite(ds.mod_b))
        assert ds.labels.shape == (ds.n,) and np.all(ds.labels < ds.num_classes)

    check()


def test_amck1_mutations_rejected_or_valid(files):
    blob = (files / "valid.ckpt").read_bytes()

    @FUZZ
    @given(mutated(blob, amck1_fields(blob)))
    def check(data: bytes):
        path = write(files, "mutant.ckpt", data)
        try:
            blocks = checkpoint_load_blocks(path)
        except FormatError:
            pass
        else:
            for value in blocks.values():
                assert value.ndim == 2 and value.dtype == np.float64
                assert np.all(np.isfinite(value))
        try:
            load_eval_model(path)
        except AmorlipError:
            pass

    check()


# float64 values whose square, exp or product with a weight overflows or
# underflows, and a zero
BLOCK_EDGES = [1e300, -1e300, 710.0, -710.0, 0.0, 5e-324]


@pytest.mark.filterwarnings("error")
def test_checkpoint_block_edges_evaluate_or_fail_typed(files):
    """Each block of a valid amorlip checkpoint, set whole to each edge
    value, loads and evaluates as `eval` does, or fails with a typed error;
    no numpy warning escapes."""
    blob = (files / "valid.ckpt").read_bytes()
    ds = load_dataset(files / "ckpt.apds")
    for _, _, name, at, count in amck1_blocks(blob):
        for value in BLOCK_EDGES:
            data = bytearray(blob)
            data[at : at + 8 * count] = np.full(count, value, dtype="<f8").tobytes()
            try:
                model = load_eval_model(write(files, "edge.ckpt", bytes(data)))
                evaluate_model(model, split_eval(ds, model.config.eval_fraction, model.config.seed)[1])
            except AmorlipError:
                pass
            except Exception as exc:  # a warning raised as an error included
                raise AssertionError(f"block {name!r} set to {value!r}") from exc


# Numbers at the edges of float64 (a zero, the subnormal extremes, values
# whose square or exp underflows or overflows) and small integers; an int
# field draws only the integers. The fields that set a layer's width or the
# amortizer's inner iterations take only the small integers, which keeps
# every example to milliseconds: 20 steps at a width of 2,840 take seconds.
SMALL = st.integers(-1, 4)
EDGES = [0, 5e-324, -5e-324, 1e-300, 1e-160, 700, 710, 1e200, 1e308]
COSTLY = {"embed_dim", "encoder_hidden", "encoder_depth", "f_d", "t_lambda"}
NUMERIC = {
    f.name: type(f.default)
    for f in dataclasses.fields(TrainConfig)
    if f.name not in CONFIG_CHOICES
}
# 16 steps per epoch on the 270 training samples
BASE = dict(epochs=1, batch_size=16, embed_dim=4, encoder_hidden=4, encoder_depth=1,
            t_online=2, log_every=5, seed=5)


@st.composite
def configs(draw) -> dict:
    values = dict(BASE)
    for key in draw(st.lists(st.sampled_from(sorted(NUMERIC)), min_size=1, max_size=3, unique=True)):
        edges = [x for x in EDGES if NUMERIC[key] is float or isinstance(x, int)]
        values[key] = draw(SMALL if key in COSTLY else st.one_of(st.sampled_from(edges), SMALL))
    for key, choices in CONFIG_CHOICES.items():
        values[key] = draw(st.sampled_from(choices))
    return values


@pytest.mark.filterwarnings("error")
def test_configs_train_and_evaluate_or_fail_typed():
    ds = generate_synthetic(300, 4, 6, 5, 0.05, seed=5)

    @settings(FUZZ, max_examples=100)
    @given(configs())
    # a learning rate that leaves tau positive, with a square that underflows
    @example(dict(BASE, lr_encoder=700, method="clip", objective="l2log", generator="kl",
                  include_positive=True))
    def check(values: dict):
        try:
            cfg = TrainConfig.from_dict(values)
            state = run_training(cfg, ds, MetricsWriter(), max_steps=20)
            evaluate_model(state, split_eval(ds, cfg.eval_fraction, cfg.seed)[1])
        except AmorlipError:
            pass

    check()
