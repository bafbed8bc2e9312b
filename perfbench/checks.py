"""Correctness checks the benchmark runs on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
A failed check counts as a failed operation in the benchmark's result.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager

import numpy as np

from causal_sphhn import granger

# Sizes of the seeded Granger oracle sample, on top of every planted pair
# and every pair the batched kernel handed to its single-pair fallback.
ORACLE_RANDOM_PAIRS = 200
ORACLE_FOUND_EDGES = 100
F_REL_TOL = 1e-9
PROB_SUM_TOL = 1e-12


def edge_fingerprint(pairs) -> str:
    """SHA-256 of the sorted (src, dst) pairs."""
    text = "\n".join(f"{s}\t{d}" for s, d in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


def array_checksum(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def edge_quality(found: set, planted: set) -> dict:
    return {
        "spurious_edges": len(found - planted),
        "planted_recall": len(found & planted) / len(planted) if planted else 1.0,
    }


@contextmanager
def recorded_fallbacks():
    """Record the (src, dst) pairs ``infer_causal_graph`` hands to ``granger_test``.

    The kernel calls ``granger_test`` only for pairs whose design is rank
    deficient, with the arrays of the series dict that ``reduce_features``
    returned; those arrays name the pair.  Costs one extra call per such pair.
    """
    pairs: list[tuple[str, str]] = []
    names: dict[int, str] = {}
    reduce, test = granger.reduce_features, granger.granger_test

    def reduce_recorder(*args, **kwargs):
        series = reduce(*args, **kwargs)
        names.update({id(v): nid for nid, v in series.items()})
        return series

    def test_recorder(source, target, *args, **kwargs):
        pairs.append((names[id(source)], names[id(target)]))
        return test(source, target, *args, **kwargs)

    granger.reduce_features, granger.granger_test = reduce_recorder, test_recorder
    try:
        yield pairs
    finally:
        granger.reduce_features, granger.granger_test = reduce, test


def granger_oracle(
    nodes,
    fit_ids,
    graph,
    planted: set,
    fallbacks: list,
    cfg,
    seed: int,
) -> tuple[list[str], dict]:
    """Re-test a seeded sample of ordered pairs with ``granger_test``.

    The sample holds every planted pair, every pair the kernel's fallback tested, a random
    set of pairs and a random set of found edges.  The edge decision must
    agree with ``graph``, and on edges F must agree to ``F_REL_TOL``.
    """
    series = granger.reduce_features(nodes, cfg.reduction, fit_ids)
    ids = sorted(series)
    n = len(ids)
    found = {(e.src, e.dst): e for e in graph.edges}
    rng = random.Random(seed)
    sample = set(planted) | set(fallbacks)
    target = min(len(sample) + ORACLE_RANDOM_PAIRS, n * (n - 1))
    while len(sample) < target:
        sample.add(tuple(rng.sample(ids, 2)))
    sample |= set(rng.sample(sorted(found), min(ORACLE_FOUND_EDGES, len(found))))
    failures = []
    for src, dst in sorted(sample):
        dec = granger.granger_test(series[src], series[dst], cfg, n_tests=n * (n - 1))
        edge = found.get((src, dst))
        if dec.is_edge != (edge is not None):
            failures.append(f"granger oracle: {src}->{dst} edge={dec.is_edge}, graph has it={edge is not None}")
        elif edge is not None and abs(edge.f_statistic - dec.f_statistic) > F_REL_TOL * abs(dec.f_statistic):
            failures.append(f"granger oracle: {src}->{dst} F {edge.f_statistic!r} != {dec.f_statistic!r}")
    return failures, {"oracle_pairs": len(sample), "fallback_pairs": len(fallbacks)}


def check_forward(logits, probs) -> list[str]:
    failures = []
    if not np.all(np.isfinite(logits)):
        failures.append("logits are not finite")
    err = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) if probs.size else 0.0
    if not err <= PROB_SUM_TOL:
        failures.append(f"probability rows sum to 1 only within {err:.3e}")
    return failures


def check_losses(history: list[dict]) -> list[str]:
    keys = ("train_loss", "val_loss", "pred", "entropy", "causal")
    bad = [(h["epoch"], k) for h in history for k in keys if not np.isfinite(float(h[k]))]
    return [f"nonfinite loss {k} at epoch {e}" for e, k in bad]
