"""Synthetic paired-modality data, the APDS1 on-disk format, and
deterministic per-epoch batch plans.

APDS1 layout (little-endian): magic b"APDS1\\n", u32 fields n, dim_a,
dim_b, num_classes, then n * dim_a float32 (modality a, row-major),
n * dim_b float32 (modality b), n u32 labels. Total size is exactly
6 + 16 + 4 n (dim_a + dim_b) + 4 n bytes. Every feature must be finite.
"""

from __future__ import annotations

import errno
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .numerics import Array, seeded_rng

MAGIC = b"APDS1\n"
_HEADER = struct.Struct("<4I")

SPLIT_SEED_SALT = 7701
BATCH_SEED_SALT = 3001


@dataclass
class PairedDataset:
    """Paired feature rows for two modalities; pair i shares one latent sample."""

    mod_a: Array  # (n, dim_a) float32
    mod_b: Array  # (n, dim_b) float32
    labels: Array  # (n,) uint32 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.mod_a = np.ascontiguousarray(self.mod_a, dtype=np.float32)
        self.mod_b = np.ascontiguousarray(self.mod_b, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint32)
        if self.mod_a.ndim != 2 or self.mod_b.ndim != 2 or self.labels.ndim != 1:
            raise ContractError("dataset arrays have wrong ranks")
        n = self.mod_a.shape[0]
        if self.mod_b.shape[0] != n or self.labels.shape[0] != n or n < 1:
            raise ContractError("dataset arrays disagree on the sample count")
        if self.num_classes < 1 or np.any(self.labels >= self.num_classes):
            raise ContractError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.mod_a.shape[0]

    @property
    def dim_a(self) -> int:
        return self.mod_a.shape[1]

    @property
    def dim_b(self) -> int:
        return self.mod_b.shape[1]

    def subset(self, indices) -> "PairedDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return PairedDataset(
            mod_a=self.mod_a[idx],
            mod_b=self.mod_b[idx],
            labels=self.labels[idx],
            num_classes=self.num_classes,
        )


def generate_synthetic(
    n: int, num_classes: int, dim_a: int, dim_b: int, noise_sigma: float, seed: int
) -> PairedDataset:
    """Class-structured paired vectors.

    One unit-norm latent prototype per class (dim = min(dim_a, dim_b));
    each sample picks a class uniformly and emits the prototype pushed
    through a fixed random linear map per modality plus isotropic noise.
    Map entries are i.i.d. N(0, 1/latent_dim) so modality norms stay O(1).
    """
    if num_classes < 2 or n < num_classes:
        raise ConfigError(f"need n >= num_classes >= 2, got n={n}, classes={num_classes}")
    if dim_a < 2 or dim_b < 2:
        raise ConfigError(f"modality dims must be >= 2, got {dim_a}, {dim_b}")
    if not 0 <= noise_sigma < math.inf:
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    sizes = {"n": n, "num_classes": num_classes, "dim_a": dim_a, "dim_b": dim_b}
    for key, size in sizes.items():
        if size >= 2**32:  # APDS1 packs each in its header as a u32
            raise ConfigError(
                f"{key} must be below 2**32, since APDS1 stores it as a u32, got {size}"
            )
    rng = seeded_rng(seed)
    latent = min(dim_a, dim_b)
    protos = rng.standard_normal((num_classes, latent))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    map_a = rng.standard_normal((latent, dim_a)) / math.sqrt(latent)
    map_b = rng.standard_normal((latent, dim_b)) / math.sqrt(latent)
    labels = rng.integers(0, num_classes, size=n)
    # a large noise_sigma overflows here or in the float32 cast; that is
    # reported below, as a ConfigError, not as a warning
    with np.errstate(over="ignore"):
        mod_a = protos[labels] @ map_a + noise_sigma * rng.standard_normal((n, dim_a))
        mod_b = protos[labels] @ map_b + noise_sigma * rng.standard_normal((n, dim_b))
        mod_a, mod_b = mod_a.astype(np.float32), mod_b.astype(np.float32)
    if not (np.isfinite(mod_a).all() and np.isfinite(mod_b).all()):
        raise ConfigError(f"noise_sigma {noise_sigma} gives features not finite in float32")
    return PairedDataset(
        mod_a=mod_a, mod_b=mod_b, labels=labels.astype(np.uint32), num_classes=num_classes
    )


def dataset_file_size(n: int, dim_a: int, dim_b: int) -> int:
    return len(MAGIC) + _HEADER.size + 4 * n * (dim_a + dim_b) + 4 * n


def write_atomic(path, payload: bytes) -> None:
    """Write payload to path through a temporary file renamed over it, so
    that path holds either its old content or all of payload. The temporary
    file is removed if the write or the rename fails."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def check_writable(path) -> None:
    """Raise an OSError where write_atomic(path, ...) would fail, at its
    first step or at the rename onto a directory; leave no file behind."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    open(path + ".tmp", "wb").close()
    os.remove(path + ".tmp")


def save_dataset(ds: PairedDataset, path) -> None:
    """Write APDS1 atomically (full buffer, then write_atomic)."""
    payload = b"".join(
        [
            MAGIC,
            _HEADER.pack(ds.n, ds.dim_a, ds.dim_b, ds.num_classes),
            np.ascontiguousarray(ds.mod_a, dtype="<f4").tobytes(),
            np.ascontiguousarray(ds.mod_b, dtype="<f4").tobytes(),
            np.ascontiguousarray(ds.labels, dtype="<u4").tobytes(),
        ]
    )
    write_atomic(path, payload)


def load_dataset(path) -> PairedDataset:
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic, not an APDS1 file", offset=0)
    off = len(MAGIC)
    if len(blob) < off + _HEADER.size:
        raise FormatError("truncated header", offset=len(blob))
    n, dim_a, dim_b, num_classes = _HEADER.unpack_from(blob, off)
    off += _HEADER.size
    if n == 0:
        raise FormatError("empty dataset rejected (n = 0)", offset=len(MAGIC))
    if dim_a == 0 or dim_b == 0 or num_classes == 0:
        raise FormatError(
            f"invalid header fields n={n} dim_a={dim_a} dim_b={dim_b} classes={num_classes}",
            offset=len(MAGIC),
        )
    expected = dataset_file_size(n, dim_a, dim_b)
    if len(blob) < expected:
        raise FormatError(
            f"truncated payload, expected {expected} bytes, found {len(blob)}", offset=len(blob)
        )
    if len(blob) > expected:
        raise FormatError("trailing bytes after payload", offset=expected)
    features = np.frombuffer(blob, dtype="<f4", count=n * (dim_a + dim_b), offset=off)
    bad = np.flatnonzero(~np.isfinite(features))
    if bad.size:
        raise FormatError("non-finite feature value", offset=off + 4 * int(bad[0]))
    mod_a = features[: n * dim_a].reshape(n, dim_a)
    mod_b = features[n * dim_a :].reshape(n, dim_b)
    off += 4 * n * (dim_a + dim_b)
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=off)
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        raise FormatError(
            f"label {int(labels[bad[0]])} out of range [0, {num_classes})",
            offset=off + 4 * int(bad[0]),
        )
    return PairedDataset(
        mod_a=mod_a.copy(), mod_b=mod_b.copy(), labels=labels.copy(), num_classes=num_classes
    )


def make_batch_plan(n: int, batch_size: int, seed: int, epoch: int) -> Array:
    """The epoch's seeded permutation of range(n) as an (n // batch_size,
    batch_size) array of batch indices; the final incomplete batch is dropped."""
    if batch_size > n:
        raise ConfigError(f"batch_size {batch_size} exceeds dataset size {n}")
    perm = seeded_rng(seed, BATCH_SEED_SALT, epoch).permutation(n)
    return perm[: n - n % batch_size].reshape(-1, batch_size)


def split_eval(ds: PairedDataset, eval_fraction: float, seed: int):
    """Hold out a seeded permutation slice for evaluation; returns (train, eval)."""
    if ds.n < 2:
        raise ConfigError(f"need at least 2 samples to hold out an eval split, got n={ds.n}")
    n_eval = int(round(ds.n * eval_fraction))
    n_eval = min(max(n_eval, 1), ds.n - 1)
    perm = seeded_rng(seed, SPLIT_SEED_SALT).permutation(ds.n)
    return ds.subset(perm[n_eval:]), ds.subset(perm[:n_eval])
