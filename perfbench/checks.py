"""Output checks for the benchmark, computed without the package.

Each check returns a list of failure messages; an empty list is a pass.
Expected values come from the file formats' definitions, the training
schedule's arithmetic, or an independent numpy recomputation, never from a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

AMCK1_MAGIC = b"AMCK1\n"


def apds1_size(n: int, dim_a: int, dim_b: int) -> int:
    """magic (6) + four u32 header fields (16) + float32 rows + u32 labels."""
    return 6 + 16 + 4 * n * (dim_a + dim_b) + 4 * n


def check_apds1_size(actual_bytes: int, n: int, dim_a: int, dim_b: int) -> list[str]:
    expected = apds1_size(n, dim_a, dim_b)
    if actual_bytes != expected:
        return [f"APDS1 file has {actual_bytes} bytes, the format gives {expected}"]
    return []


def train_steps(n: int, eval_fraction: float, batch_size: int, epochs: int) -> tuple[int, int]:
    """(steps per epoch, total steps) for a run over the held-in split: the
    eval slice takes round(n * eval_fraction) samples, clamped to [1, n - 1],
    and each epoch drops the incomplete final batch."""
    n_eval = min(max(int(round(n * eval_fraction)), 1), n - 1)
    per_epoch = (n - n_eval) // batch_size
    return per_epoch, per_epoch * epochs


def expected_gather_count(method: str, steps_per_epoch: int, epochs: int, t_online: int) -> int:
    if method == "clip":
        return steps_per_epoch * epochs
    return epochs * (steps_per_epoch // t_online)


def check_gather_count(actual: int, expected: int) -> list[str]:
    if actual != expected:
        return [f"gather_count {actual}, the schedule gives {expected}"]
    return []


def check_log_steps(records: list[dict], total_steps: int, log_every: int) -> list[str]:
    """Records appear exactly at step 1, each multiple of log_every and the last step."""
    expected = sorted({1, total_steps} | set(range(log_every, total_steps + 1, log_every)))
    steps = [r["step"] for r in records]
    if steps != expected:
        missing = sorted(set(expected) - set(steps))[:5]
        extra = sorted(set(steps) - set(expected))[:5]
        return [f"metrics records at wrong steps (missing {missing}, unexpected {extra})"]
    return []


def check_loss_decreased(records: list[dict]) -> list[str]:
    if not records:
        return ["no metrics records"]
    first, last = records[0]["stage2_loss_raw"], records[-1]["stage2_loss_raw"]
    if not last < first:
        return [f"stage2_loss_raw did not fall: first {first!r}, last {last!r}"]
    return []


def stream_bytes(records: list[dict]) -> bytes:
    """The metrics stream as JSONL, with the wall-clock field removed."""
    lines = [json.dumps({k: v for k, v in r.items() if k != "wall_ms"}) for r in records]
    return "\n".join(lines).encode()


def check_same_stream(reference: list[dict], other: list[dict], what: str) -> list[str]:
    if stream_bytes(reference) != stream_bytes(other):
        return [f"{what}: metrics stream (without wall_ms) differs from the first"]
    return []


def read_amck1(blob: bytes) -> dict[str, np.ndarray]:
    """Parse an AMCK1 checkpoint: magic, u32 block count, then per block a
    u32 name length, the UTF-8 name, u32 rows, u32 cols and rows * cols
    little-endian float64 values."""
    if blob[:6] != AMCK1_MAGIC:
        raise ValueError("not an AMCK1 checkpoint")
    (count,) = struct.unpack_from("<I", blob, 6)
    off = 10
    blocks = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        rows, cols = struct.unpack_from("<II", blob, off)
        off += 8
        values = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=off)
        blocks[name] = values.reshape(rows, cols).copy()
        off += 8 * rows * cols
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} bytes after the last block")
    return blocks


def check_checkpoint(blocks: dict[str, np.ndarray], expected: dict[str, np.ndarray]) -> list[str]:
    """Every expected array is in the checkpoint with the same bits."""
    failures = []
    for name, value in expected.items():
        got = blocks.get(name)
        if got is None:
            failures.append(f"checkpoint lacks block {name!r}")
        elif got.shape != value.shape or got.tobytes() != np.ascontiguousarray(value, "<f8").tobytes():
            failures.append(f"checkpoint block {name!r} differs from the in-memory value")
    return failures


def mlp_forward(blocks: dict[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """tanh MLP read from blocks prefix/w0, prefix/b0, ...; linear last layer."""
    depth = 0
    while f"{prefix}/w{depth}" in blocks:
        depth += 1
    h = np.asarray(x, dtype=np.float64)
    for i in range(depth):
        h = h @ blocks[f"{prefix}/w{i}"] + blocks[f"{prefix}/b{i}"]
        if i < depth - 1:
            h = np.tanh(h)
    return h


def embed(blocks: dict[str, np.ndarray], modality: str, x: np.ndarray) -> np.ndarray:
    raw = mlp_forward(blocks, f"encoder_{modality}", x)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    top = m.max(axis=1)
    return top + np.log(np.exp(m - top[:, None]).sum(axis=1))


def recompute_eval(
    blocks: dict[str, np.ndarray],
    mod_a: np.ndarray,
    mod_b: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
) -> dict[str, float | None]:
    """Recall@1 both ways, zero-shot accuracy of modality a against
    modality-b class prototypes, and the median |log lambda - log Z| of the
    target amortizers, all from the checkpoint's blocks."""
    ea, eb = embed(blocks, "a", mod_a), embed(blocks, "b", mod_b)
    s = ea @ eb.T
    partners = np.arange(s.shape[0])
    # argmax takes the first maximum, so a tie with a lower index is a miss
    out: dict[str, float | None] = {
        "recall_at_1_ab": float(np.mean(np.argmax(s, axis=1) == partners)),
        "recall_at_1_ba": float(np.mean(np.argmax(s.T, axis=1) == partners)),
    }
    protos = np.zeros((num_classes, ea.shape[1]))
    for c in range(num_classes):
        members = eb[labels == c]
        if len(members):
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 1e-12:
                protos[c] = mean / norm
    out["zero_shot_accuracy"] = float(np.mean(np.argmax(ea @ protos.T, axis=1) == labels))
    out["median_abs_log_z_err"] = None
    if "target_a/w0" in blocks:
        tau = min(math.exp(blocks["temperature/log_tau"][0, 0]), blocks["meta/tau_max"][0, 0])
        n = s.shape[0]
        gaps = []
        for emb, scores, prefix in ((ea, s, "target_a"), (eb, s.T, "target_b")):
            log_z = _logsumexp_rows(tau * scores) - math.log(n)
            log_lam = mlp_forward(blocks, prefix, emb).ravel()
            gaps.append(np.abs(log_lam - log_z))
        out["median_abs_log_z_err"] = float(np.median(np.concatenate(gaps)))
    return out


def check_eval(report: dict, recomputed: dict, rel_tol: float = 1e-9) -> list[str]:
    """Retrieval and accuracy must agree exactly; the partition gap, whose
    logsumexp sums in another order, to rel_tol."""
    failures = []
    for key in ("recall_at_1_ab", "recall_at_1_ba", "zero_shot_accuracy"):
        if report[key] != recomputed[key]:
            failures.append(f"{key}: evaluate_model {report[key]!r}, recomputed {recomputed[key]!r}")
    got, want = report["median_abs_log_z_err"], recomputed["median_abs_log_z_err"]
    if (got is None) != (want is None) or (
        got is not None and not math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)
    ):
        failures.append(f"median_abs_log_z_err: evaluate_model {got!r}, recomputed {want!r}")
    return failures


def check_verify(results: list[dict]) -> list[str]:
    return [f"verify check {r['check']} reports {r['status']}" for r in results if r["status"] != "pass"]
