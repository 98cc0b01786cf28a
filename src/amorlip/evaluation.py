"""Held-out evaluation: cross-modal retrieval, zero-shot classification by
class prototype, and amortizer-quality statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amortization import TargetAmortizer, amortize_forward, exact_partition
from .data import PairedDataset
from .encoders import MODALITIES, EmbeddingBatch, encode
from .errors import ConfigError, ContractError
from .net import Mlp
from .numerics import Array


@dataclass
class EvalReport:
    """Retrieval, zero-shot and amortizer statistics for one model/split."""

    recall_at_1_ab: float
    recall_at_1_ba: float
    recall_at_5_ab: float
    recall_at_5_ba: float
    zero_shot_accuracy: float
    median_abs_log_z_err: float | None
    mean_abs_log_z_err: float | None
    n_eval: int

    def to_json_dict(self) -> dict:
        out = {
            "recall_at_1": {"a_to_b": self.recall_at_1_ab, "b_to_a": self.recall_at_1_ba},
            "recall_at_5": {"a_to_b": self.recall_at_5_ab, "b_to_a": self.recall_at_5_ba},
            "zero_shot_accuracy": self.zero_shot_accuracy,
            "n_eval": self.n_eval,
        }
        if self.median_abs_log_z_err is not None:
            out["median_abs_log_z_err"] = self.median_abs_log_z_err
            out["mean_abs_log_z_err"] = self.mean_abs_log_z_err
        return out


def _ranks_of_partners(scores: Array) -> Array:
    """Rank of the diagonal entry within each row, ties broken toward lower
    column index (a tie at a lower index outranks the partner)."""
    m = scores.shape[0]
    diag = np.diag(scores)
    better = (scores > diag[:, None]).sum(axis=1)
    cols = np.arange(m)[None, :]
    rows = np.arange(m)[:, None]
    tie_lower = ((scores == diag[:, None]) & (cols < rows)).sum(axis=1)
    return 1 + better + tie_lower


def _partner_ranks(emb_a: EmbeddingBatch, emb_b: EmbeddingBatch) -> tuple[Array, Array]:
    """Partner ranks for a querying b, then b querying a, from one score matrix."""
    if emb_a.n != emb_b.n or emb_a.dim != emb_b.dim:
        raise ContractError("embedding batches must share n and dim")
    scores = emb_a.data @ emb_b.data.T
    return _ranks_of_partners(scores), _ranks_of_partners(scores.T)


def class_prototypes(emb: EmbeddingBatch, labels: Array, num_classes: int) -> Array:
    """Unit-norm per-class mean embeddings. A class absent from the slice
    keeps a zero prototype (it can never be a query's own class)."""
    labels = np.asarray(labels)
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    if np.any(labels >= num_classes):
        raise ContractError("label out of range")
    protos = np.zeros((num_classes, emb.dim))
    for c in range(num_classes):
        members = emb.data[labels == c]
        if members.shape[0]:
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 1e-12:
                protos[c] = mean / norm
    return protos


def zero_shot_accuracy(sample_emb: EmbeddingBatch, prototype_emb: Array, labels: Array) -> float:
    """Fraction of samples whose highest-similarity prototype matches the
    label; ties resolve to the lower class id."""
    protos = np.asarray(prototype_emb, dtype=np.float64)
    labels = np.asarray(labels)
    if protos.ndim != 2 or protos.shape[0] < 2:
        raise ConfigError("need at least 2 prototype rows")
    if protos.shape[1] != sample_emb.dim:
        raise ContractError("prototype dim does not match embeddings")
    if labels.shape[0] != sample_emb.n:
        raise ContractError("labels length does not match embeddings")
    if np.any(labels >= protos.shape[0]):
        raise ContractError("label out of range")
    pred = np.argmax(sample_emb.data @ protos.T, axis=1)
    return float(np.mean(pred == labels))


def partition_gap_stats(log_lam: dict[str, Array], log_z: dict[str, Array]) -> tuple[float, float]:
    """(median, mean) of |log lambda - log Z| over the samples of both
    modalities, pooled in modality order."""
    lam, z = (np.concatenate([values[m] for m in MODALITIES]) for values in (log_lam, log_z))
    gaps = np.abs(lam - z)
    return float(np.median(gaps)), float(np.mean(gaps))


def _target_net(model, modality: str) -> Mlp:
    tgt = model.targets[modality]
    if isinstance(tgt, TargetAmortizer):
        return tgt.ema
    return tgt


def _embed_slice(model, ds_slice: PairedDataset) -> dict[str, EmbeddingBatch]:
    emb = {}
    for m in MODALITIES:
        batch = ds_slice.mod_a if m == "a" else ds_slice.mod_b
        emb[m], _ = encode(model.encoders, batch.astype(np.float64), m)
    return emb


def _partition_gaps(model, emb: dict[str, EmbeddingBatch]) -> tuple[float, float]:
    """Gap between the target amortizers' predictions and the exact
    slice-level log partitions; the slice serves as the empirical marginal."""
    tau = model.temperature.tau
    log_lam, log_z = {}, {}
    for m, mp in (("a", "b"), ("b", "a")):
        log_z[m] = exact_partition(emb[m], emb[mp], tau, include_positive=True).log_z_exact
        log_lam[m] = amortize_forward(_target_net(model, m), emb[m])[0]
    return partition_gap_stats(log_lam, log_z)


def evaluate_model(model, eval_ds: PairedDataset) -> EvalReport:
    """Full evaluation on a held-out slice: retrieval in both directions,
    zero-shot accuracy of modality-a samples against modality-b class
    prototypes, and amortizer statistics when the model carries amortizers.
    The slice is embedded once, and the partner ranks are computed once per
    direction for both recall cut-offs."""
    emb = _embed_slice(model, eval_ds)
    ranks_ab, ranks_ba = _partner_ranks(emb["a"], emb["b"])
    k5 = min(5, eval_ds.n)
    protos = class_prototypes(emb["b"], eval_ds.labels, eval_ds.num_classes)
    acc = zero_shot_accuracy(emb["a"], protos, eval_ds.labels)
    median = mean = None
    if getattr(model, "targets", None) is not None:
        median, mean = _partition_gaps(model, emb)
    return EvalReport(
        recall_at_1_ab=float(np.mean(ranks_ab <= 1)),
        recall_at_1_ba=float(np.mean(ranks_ba <= 1)),
        recall_at_5_ab=float(np.mean(ranks_ab <= k5)),
        recall_at_5_ba=float(np.mean(ranks_ba <= k5)),
        zero_shot_accuracy=acc,
        median_abs_log_z_err=median,
        mean_abs_log_z_err=mean,
        n_eval=eval_ds.n,
    )
