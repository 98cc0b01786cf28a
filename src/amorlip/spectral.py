"""Random-Fourier-feature validation of the spectral form of the partition
function.

For unit vectors u, v the scaled-similarity kernel factorizes as

    exp(tau * <u, v>) = exp(tau) * E_w[cos(sqrt(tau) * <w, u - v>)],
    w ~ N(0, I_d),

so a per-sample partition value is a single inner product between the
sample's feature vector and the mean conjugate feature of the other
modality's batch. Only the real (cosine) part is carried; the exp(tau)
prefactor is applied once analytically.

`partition_estimate_mc` takes a (k, d) array of unit queries and returns
one estimate per query: the batch's mean conjugate feature is computed
once and shared by all k.

The frequencies come from numpy's ziggurat sampler as a (dim, m_features)
draw stored transposed, so `omegas` is an (m_features, dim) column-major
array: each coordinate is one contiguous column, which `omegas @ v` reads
once. The draw allocates only its output.

Every estimator works in place, or in steps of CHUNK frequency rows, so
no temporary grows with the feature count times the batch size: the
memory an estimate needs is a few feature-length vectors on top of the
frequency draw itself. Each step repeats the elementwise operations of
the whole-array form in the same order, so the figures are the same to
the bit.

Estimator variance grows like exp(2 tau); this module validates the
identity at moderate tau and is not the production partition estimator
(the learned amortizer is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoders import EmbeddingBatch
from .errors import ContractError, DomainError
from .numerics import Array, seeded_rng

UNIT_TOL = 1e-9
CHUNK = 4096  # frequency rows per in-place step


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen draw of frequency vectors with the temperature snapshot."""

    omegas: Array  # (m_features, dim) i.i.d. standard normal, column-major
    tau: float

    @property
    def m_features(self) -> int:
        return self.omegas.shape[0]

    @property
    def dim(self) -> int:
        return self.omegas.shape[1]


@dataclass(frozen=True)
class KernelEstimate:
    """Monte-Carlo estimate with its empirical standard error."""

    value: float
    stderr: float


def check_sizes(m_features: int, dim: int) -> None:
    """The size check of sample_features, for callers that allocate its
    `out` buffer first."""
    if m_features < 1 or dim < 1:
        raise DomainError(f"need m_features >= 1 and dim >= 1, got {m_features}, {dim}")


def sample_features(
    m_features: int, dim: int, tau: float, seed: int, *, out: Array | None = None
) -> RandomFeatureMap:
    """Draw m_features frequency vectors from N(0, I_dim), keyed by seed.

    With `out`, a C-contiguous float64 (dim, m_features) buffer, the draw is
    written into it and the map's frequencies are its transpose; the bits
    are those of the fresh draw."""
    check_sizes(m_features, dim)
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    rng = seeded_rng(seed)
    if out is None:
        draw = rng.standard_normal((dim, m_features))
    elif out.shape != (dim, m_features) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ContractError(
            f"out must be a C-contiguous float64 ({dim}, {m_features}) array,"
            f" got {out.dtype} {out.shape}"
        )
    else:
        draw = rng.standard_normal(out=out)
    return RandomFeatureMap(omegas=draw.T, tau=float(tau))


def _check_unit_rows(x: Array, what: str) -> None:
    norms = np.linalg.norm(x, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ContractError(f"{what} row {bad} is not unit-norm (||.|| = {norms[bad]:.12f})")


def _estimate_from_samples(per_feature: Array, scale: float) -> KernelEstimate:
    """Scaled mean and standard error of per_feature, which it overwrites.

    The deviations are formed in place, with the steps of numpy's own
    `mean` and `std(ddof=1)` in their order, so both figures are numpy's to
    the bit."""
    m = per_feature.shape[0]
    mean = np.add.reduce(per_feature) / m
    value = scale * float(mean)
    if m < 2:
        stderr = math.inf  # one sample says nothing about the spread
    elif float(np.ptp(per_feature)) == 0.0:
        stderr = 0.0  # all samples identical: genuinely zero variance
    else:
        per_feature -= mean
        np.multiply(per_feature, per_feature, out=per_feature)
        std = math.sqrt(np.add.reduce(per_feature) / (m - 1))
        stderr = scale * std / math.sqrt(m)
    return KernelEstimate(value=value, stderr=stderr)


def _check_pair(u1, u2, fmap: RandomFeatureMap) -> tuple[Array, Array]:
    """u1 and u2 as flat float64 unit vectors of the feature map's dim."""
    u1, u2 = (np.asarray(u, dtype=np.float64).ravel() for u in (u1, u2))
    if u1.shape[0] != fmap.dim or u2.shape[0] != fmap.dim:
        raise ContractError(f"vectors of dim {u1.shape[0]} do not match feature dim {fmap.dim}")
    _check_unit_rows(np.stack([u1, u2]), "pair (u1, u2)")
    return u1, u2


def _scaled_projection(
    u1: Array, u2: Array, fmap: RandomFeatureMap, out: Array | None = None
) -> Array:
    """sqrt(tau) <w, u1 - u2> for every frequency row w, in `out` or a
    fresh vector."""
    proj = np.matmul(fmap.omegas, u1 - u2, out=out)
    proj *= math.sqrt(fmap.tau)
    return proj


def kernel_estimate(
    u1, u2, fmap: RandomFeatureMap, *, work: Array | None = None
) -> KernelEstimate:
    """Monte-Carlo estimate of exp(tau * <u1, u2>) for unit vectors.

    Identical inputs give exactly exp(tau) with zero sampling variance,
    since every feature contributes cos(0); that answer is returned
    without a projection, and it is the full path's to the bit.

    `work`, a float64 (m_features,) vector, takes the projection in place
    of a fresh one; the figures are the same to the bit.
    """
    u1, u2 = _check_pair(u1, u2, fmap)
    if work is not None and (work.shape != (fmap.m_features,) or work.dtype != np.float64):
        raise ContractError(
            f"work must be a float64 ({fmap.m_features},) array, got {work.dtype} {work.shape}"
        )
    if np.array_equal(u1, u2):
        return KernelEstimate(value=math.exp(fmap.tau), stderr=0.0)
    proj = _scaled_projection(u1, u2, fmap, work)
    return _estimate_from_samples(np.cos(proj, out=proj), math.exp(fmap.tau))


def imaginary_part_estimate(u1, u2, fmap: RandomFeatureMap) -> float:
    """Mean of sin(sqrt(tau) <w, u1 - u2>); vanishes in expectation by the
    symmetry of the frequency distribution."""
    proj = _scaled_projection(*_check_pair(u1, u2, fmap), fmap)
    return float(np.sin(proj, out=proj).mean())


def partition_estimate_mc(
    queries, others: EmbeddingBatch, fmap: RandomFeatureMap
) -> list[KernelEstimate]:
    """Estimates of the mean-form partition (1/n) sum_j exp(tau <u, psi_j>)
    for each unit row u of the (k, d) array `queries`, one per row, each a
    single inner product against the mean conjugate feature of the batch.

    The mean conjugate feature is computed once for all k queries, CHUNK
    frequency rows at a time. By linearity each estimate equals the
    average of kernel_estimate over the batch (same feature map), up to
    rounding.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ContractError(f"queries must be a (k, d) array, got shape {queries.shape}")
    if others.n < 1:
        raise ContractError("the complementary batch must be non-empty")
    _check_unit_rows(queries, "query")
    _check_unit_rows(others.data, "batch")
    if queries.shape[1] != fmap.dim or others.dim != fmap.dim:
        raise ContractError(
            f"dims {queries.shape[1]}/{others.dim} do not match feature dim {fmap.dim}"
        )
    sqrt_tau = math.sqrt(fmap.tau)
    m = fmap.m_features
    mean_cos = np.empty(m)
    mean_sin = np.empty(m)
    for lo in range(0, m, CHUNK):
        proj_o = fmap.omegas[lo : lo + CHUNK] @ others.data.T  # (CHUNK, n)
        proj_o *= sqrt_tau
        trig = np.cos(proj_o)
        trig.mean(axis=1, out=mean_cos[lo : lo + CHUNK])
        np.sin(proj_o, out=trig)
        trig.mean(axis=1, out=mean_sin[lo : lo + CHUNK])
    scale = math.exp(fmap.tau)
    proj_u = np.empty(m)
    per_feature = np.empty(m)
    estimates = []
    for u in queries:
        np.matmul(fmap.omegas, u, out=proj_u)
        proj_u *= sqrt_tau
        np.cos(proj_u, out=per_feature)
        per_feature *= mean_cos
        np.sin(proj_u, out=proj_u)
        proj_u *= mean_sin
        per_feature += proj_u
        estimates.append(_estimate_from_samples(per_feature, scale))
    return estimates
