"""Held-out evaluation: cross-modal retrieval, zero-shot classification by
class prototype, and amortizer-quality statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench's traced pass looks encode, exact_partition and amortize_forward up
# on this module; evaluate_model reaches them through the trainer's helpers.
from .amortization import amortize_forward, exact_partition
from .data import PairedDataset
from .encoders import EmbeddingBatch, encode, similarity_matrix
from .errors import ConfigError
from .numerics import Array
from .trainer import _embed, _exact_log_z, _target_log_lam, partition_gap_stats


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
    scores = similarity_matrix(emb_a, emb_b)
    return _ranks_of_partners(scores), _ranks_of_partners(scores.T)


def class_prototypes(emb: EmbeddingBatch, labels: Array, num_classes: int) -> Array:
    """Unit-norm per-class mean embeddings. A class absent from the slice
    keeps a zero prototype, which zero_shot_accuracy never predicts."""
    labels = np.asarray(labels)
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
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
    label; ties resolve to the lower class id. A zero prototype (a class
    absent from the slice) is out of the running: its score of 0 would beat
    a sample's negative similarities to every present class."""
    scores = sample_emb.data @ prototype_emb.T
    scores[:, ~prototype_emb.any(axis=1)] = -np.inf
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred == labels))


def evaluate_model(model, eval_ds: PairedDataset) -> EvalReport:
    """Full evaluation of a trainer.TrainState (a trained one, or one that
    load_eval_model read back) on a held-out slice: retrieval in both
    directions, zero-shot accuracy of modality-a samples against modality-b
    class prototypes, and the EMA target amortizers' partition gaps when the
    state carries amortizers.
    The slice is embedded once, and the partner ranks are computed once per
    direction for both recall cut-offs. As in training, the checks that a
    non-finite value reaches (a row norm, an amortizer output) report it,
    not numpy warnings."""
    with np.errstate(all="ignore"):
        emb, _ = _embed(model, eval_ds, np.arange(eval_ds.n))
        ranks_ab, ranks_ba = _partner_ranks(emb["a"], emb["b"])
        k5 = min(5, eval_ds.n)
        protos = class_prototypes(emb["b"], eval_ds.labels, eval_ds.num_classes)
        acc = zero_shot_accuracy(emb["a"], protos, eval_ds.labels)
        median = mean = None
        if model.targets is not None:
            # the slice serves as the empirical marginal, positives included
            log_z = _exact_log_z(emb, model.temperature.tau, include_positive=True)
            median, mean = partition_gap_stats(_target_log_lam(model, emb), log_z)
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
