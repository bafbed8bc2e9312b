"""Straight-line single-node reference operations for the model tests.

Each function computes, for one node or one hyperedge at a time and with
plain numpy loops, a quantity the batched ``causal_sphhn.model.run_model``
computes for the whole graph at once; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from causal_sphhn.errors import ContractViolation
from causal_sphhn.granger import CausalGraph
from causal_sphhn.hypergraph import Hyperedge
from causal_sphhn.model import _NORM_EPS, ModelParams
@dataclass(frozen=True)
class SphericalEmbedding:
    """Unit direction plus concentration; the node's belief state."""

    h: np.ndarray
    kappa: float

    def __post_init__(self):
        if abs(np.linalg.norm(self.h) - 1.0) > 1e-9:
            raise ContractViolation("embedding must be unit length within 1e-9")
        if self.kappa < 0:
            raise ContractViolation("kappa must be >= 0")


def project(x: np.ndarray, params: ModelParams) -> SphericalEmbedding:
    """Normalize W x + b onto the sphere; softplus concentration from it."""
    z = params.proj_w.data @ np.asarray(x, dtype=np.float64) + params.proj_b.data
    norm = np.linalg.norm(z)
    if norm <= _NORM_EPS:
        e1 = np.zeros(params.config.embed_dim)
        e1[0] = 1.0
        return SphericalEmbedding(e1, 0.0)
    raw = float(params.kappa_w.data @ z + params.kappa_b.data)
    return SphericalEmbedding(z / norm, float(np.logaddexp(0.0, raw)))


def edge_attention(
    e: Hyperedge,
    embeds: dict[str, SphericalEmbedding],
    attn_temp: float,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Angular attention within one hyperedge.

    Returns the member order and the row-stochastic matrix alpha with
    alpha[i, j] the weight node members[i] puts on members[j]; the self
    term is included.
    """
    if len(e.members) < 2:
        raise ContractViolation("hyperedge must have >= 2 members")
    hs = np.stack([embeds[m].h for m in e.members])
    logits = attn_temp * (hs @ hs.T)
    logits -= logits.max(axis=1, keepdims=True)
    expd = np.exp(logits)
    return tuple(e.members), expd / expd.sum(axis=1, keepdims=True)


def hyperedge_aggregate(
    node: str,
    embeds: dict[str, SphericalEmbedding],
    index,
    params: ModelParams,
    attention: dict[str, tuple[tuple[str, ...], np.ndarray]],
    edges: dict[str, Hyperedge],
) -> np.ndarray:
    """One node's updated embedding: attention-weighted, type-transformed
    sums over its incident hyperedges, then ReLU and renormalization."""
    d = params.config.embed_dim
    m = np.zeros(d)
    for eid in index.node_to_edges[node]:
        members, alpha = attention[eid]
        row = members.index(node)
        inner = np.zeros(d)
        for j, other in enumerate(members):
            inner += alpha[row, j] * embeds[other].h
        m += params.edge_w[edges[eid].context_type].data @ inner
    act = np.maximum(m, 0.0)
    norm = np.linalg.norm(act)
    if norm <= _NORM_EPS:
        e1 = np.zeros(d)
        e1[0] = 1.0
        return e1
    return act / norm


def causal_aggregate(
    node: str,
    h_prime: np.ndarray,
    causal_graph: CausalGraph,
    embeds: dict[str, np.ndarray],
    params: ModelParams,
) -> np.ndarray:
    """Blend causal parents into the final embedding via a softmax over
    Granger F statistics at the learned temperature."""
    parents = causal_graph.parents_of(node)
    if not parents:
        return h_prime
    parents = sorted(parents, key=lambda e: e.src)
    f_stats = np.array([e.f_statistic for e in parents])
    logits = float(params.gamma_temp.data) * f_stats
    logits -= logits.max()
    gamma = np.exp(logits)
    gamma /= gamma.sum()
    ctx = np.zeros_like(h_prime)
    for g, e in zip(gamma, parents):
        ctx += g * (params.causal_w.data @ embeds[e.src])
    combined = h_prime + ctx
    if params.config.euclidean:
        return combined
    norm = np.linalg.norm(combined)
    if norm <= _NORM_EPS:
        e1 = np.zeros_like(combined)
        e1[0] = 1.0
        return e1
    return combined / norm
