"""Evaluation metrics: accuracy, macro-F1, one-vs-rest AUC, expected
calibration error, predictive entropy, precision@K, and Spearman rank
correlation.

All functions are deterministic pure functions; nothing here draws random
numbers.  Degenerate cases (a class with no positives or no negatives, a
zero-variance ranking) yield ``None`` rather than an exception.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_json
from .errors import ContractViolation

log = logging.getLogger(__name__)


def _check_preds(preds, labels, classes: int):
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.size == 0:
        raise ContractViolation("empty prediction set")
    if preds.shape != labels.shape:
        raise ContractViolation("preds and labels must be equal length")
    if labels.min() < 0 or labels.max() >= classes:
        raise ContractViolation("label out of range")
    return preds, labels


def accuracy(preds, labels, classes: int) -> float:
    preds, labels = _check_preds(preds, labels, classes)
    return float(np.mean(preds == labels))


def per_class_f1(preds, labels, classes: int) -> list[float]:
    """F1 per class; a class absent from preds and labels scores 0."""
    preds, labels = _check_preds(preds, labels, classes)
    out = []
    for c in range(classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        out.append(2.0 * tp / denom if denom else 0.0)
    return out


def macro_f1(preds, labels, classes: int) -> float:
    """Unweighted mean of per-class F1."""
    return float(np.mean(per_class_f1(preds, labels, classes)))


def _midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their midrank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc_ovr(probs, labels, classes: int) -> float | None:
    """Macro one-vs-rest ROC AUC via the Mann-Whitney rank statistic.

    Classes without both positives and negatives are skipped; if every
    class is degenerate the AUC is undefined and None is returned.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ContractViolation("probs must be (n, classes) aligned with labels")
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
        raise ContractViolation("probability rows must sum to 1")
    aucs = []
    for c in range(classes):
        pos = labels == c
        n_pos = int(pos.sum())
        n_neg = labels.size - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _midranks(probs[:, c])
        u = ranks[pos].sum() - 0.5 * n_pos * (n_pos + 1)
        aucs.append(u / (n_pos * n_neg))
    return float(np.mean(aucs)) if aucs else None


def ece(probs, labels, bins: int = 10) -> float:
    """Expected calibration error over equal-width confidence bins."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ContractViolation("probs must be (n, classes) aligned with labels")
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    total = labels.size
    out = 0.0
    for b in range(bins):
        sel = idx == b
        n_b = int(sel.sum())
        if n_b == 0:
            continue
        out += (n_b / total) * abs(float(correct[sel].mean()) - float(conf[sel].mean()))
    return out


def predictive_entropy(probs) -> float:
    """Mean Shannon entropy (nats) of predictive class distributions."""
    probs = np.asarray(probs, dtype=np.float64)
    safe = np.where(probs > 0, probs, 1.0)
    return float(np.mean(-(probs * np.log(safe)).sum(axis=1)))


def precision_at_k(
    scored_edges: list[tuple[str, str, float | tuple]],
    true_edges: set[tuple[str, str]],
    k: int = 5,
) -> float:
    """Fraction of the top-K scored directed edges in the true set.

    A score may be a tuple, compared in order; equal scores rank by
    (src, dst) so rankings are deterministic.  With fewer than K
    candidates the precision is computed over all of them.
    """
    if k < 1:
        raise ContractViolation("K must be >= 1")
    if not scored_edges:
        raise ContractViolation("no scored edges")
    by_id = sorted(scored_edges, key=lambda e: (e[0], e[1]))
    ranked = sorted(by_id, key=lambda e: e[2], reverse=True)  # stable: equal scores keep id order
    if len(ranked) < k:
        log.warning("precision_at_k: only %d candidates for K=%d", len(ranked), k)
    top = ranked[:k]
    return sum((s, d) in true_edges for s, d, _ in top) / len(top)


def rank_correlation(scores_a, scores_b) -> float | None:
    """Spearman rho with midrank ties; None when either list has no variance."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ContractViolation("need two equal-length lists of length >= 2")
    ra, rb = _midranks(a), _midranks(b)
    va = ra - ra.mean()
    vb = rb - rb.mean()
    denom = np.sqrt((va @ va) * (vb @ vb))
    if denom == 0.0:
        return None
    return float((va @ vb) / denom)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    macro_f1: float
    auc: float | None
    ece: float
    mean_entropy: float
    mean_vmf_entropy: float
    p_at_k: dict[int, float | None]
    per_class_f1: list[float]
    rank_corr: float | None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "auc": self.auc,
            "ece": self.ece,
            "mean_entropy": self.mean_entropy,
            "mean_vmf_entropy": self.mean_vmf_entropy,
            "p_at_k": {str(k): v for k, v in self.p_at_k.items()},
            "per_class_f1": self.per_class_f1,
            "rank_corr": self.rank_corr,
            "config": self.config,
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())
