"""Byte-mutation fuzz of the two file formats: every mutation of a valid
APDS1 dataset or AMCK1 checkpoint is either rejected with a typed error or
loads into something valid, never an untyped exception."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amorlip.data import MAGIC, generate_synthetic, load_dataset, save_dataset
from amorlip.errors import AmorlipError, FormatError
from amorlip.trainer import (
    CKPT_MAGIC,
    TrainConfig,
    checkpoint_load_blocks,
    checkpoint_save,
    init_train_state,
    load_eval_model,
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


def amck1_fields(blob: bytes) -> list[int]:
    """Offsets of the block count and of every block's name length and shape."""
    fields = [len(CKPT_MAGIC)]
    off = len(CKPT_MAGIC) + 4
    while off < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, off)
        shape_at = off + 4 + name_len
        fields += [off, shape_at, shape_at + 4]
        rows, cols = struct.unpack_from("<II", blob, shape_at)
        off = shape_at + 8 + 8 * rows * cols
    return fields


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(generate_synthetic(8, 3, 2, 2, 0.05, seed=1), root / "valid.apds")
    ds = generate_synthetic(24, 3, 4, 3, 0.05, seed=1)
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
