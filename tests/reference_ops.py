"""Reference operations the tests compare the package against.

Most functions compute, for one node or one hyperedge at a time and with
plain numpy loops, a quantity the batched ``causal_sphhn.model.run_model``
computes for the whole graph at once.  The autodiff ops after them (a
row scatter-add, the composite row normalisation, a flat gather, and the
softmax and log-sum-exp over the masked rows of a padded block) are the
oracles of the ops in ``causal_sphhn.autodiff``, as are the segment
softmax and log-sum-exp that read each element's segment off an ``ids``
array, which the segment ops, given the starts alone, must equal bit for
bit.  The last is the tie-walking midranks of ``causal_sphhn.metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from causal_sphhn.autodiff import Tensor
from causal_sphhn.errors import ContractViolation
from causal_sphhn.granger import CausalGraph
from causal_sphhn.hypergraph import Dataset, Hyperedge
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


def unit(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """v / |v| and True, or e_1 and False where |v|^2 <= eps^2: the
    package's degenerate-row test, with its squared norm summed the same way."""
    sq = float((v * v).sum())
    if sq > _NORM_EPS**2:
        return v / np.sqrt(sq), True
    e1 = np.zeros_like(v)
    e1[0] = 1.0
    return e1, False


def project(x: np.ndarray, params: ModelParams) -> SphericalEmbedding:
    """Normalize W x + b onto the sphere; softplus concentration from it,
    and kappa = 0 on a row that has no direction."""
    z = params.proj_w.data @ np.asarray(x, dtype=np.float64) + params.proj_b.data
    h, directed = unit(z)
    if not directed:
        return SphericalEmbedding(h, 0.0)
    raw = float(params.kappa_w.data @ z + params.kappa_b.data)
    return SphericalEmbedding(h, float(np.logaddexp(0.0, raw)))


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


def incidence(edges: list[Hyperedge]) -> dict[str, tuple[str, ...]]:
    """Node id -> the ids of its incident hyperedges, in edge order.

    Only nodes that belong to some edge appear.
    """
    out: dict[str, list[str]] = {}
    for e in edges:
        for m in e.members:
            out.setdefault(m, []).append(e.edge_id)
    return {k: tuple(v) for k, v in out.items()}


def hyperedge_aggregate(
    node: str,
    embeds: dict[str, SphericalEmbedding],
    node_edges: dict[str, tuple[str, ...]],
    params: ModelParams,
    attention: dict[str, tuple[tuple[str, ...], np.ndarray]],
    edges: dict[str, Hyperedge],
) -> np.ndarray:
    """One node's updated embedding: attention-weighted, type-transformed
    sums over its incident hyperedges (``node_edges``, as :func:`incidence`
    gives it), then ReLU and renormalization."""
    d = params.config.embed_dim
    m = np.zeros(d)
    for eid in node_edges.get(node, ()):
        members, alpha = attention[eid]
        row = members.index(node)
        inner = np.zeros(d)
        for j, other in enumerate(members):
            inner += alpha[row, j] * embeds[other].h
        m += params.edge_w[edges[eid].context_type].data @ inner
    return unit(np.maximum(m, 0.0))[0]


def causal_gamma(node: str, causal_graph: CausalGraph, gamma_temp: float) -> tuple[list, np.ndarray]:
    """One node's causal parent edges, sorted by parent id, and the softmax
    of their Granger F statistics at ``gamma_temp``."""
    parents = sorted((e for e in causal_graph.edges if e.dst == node), key=lambda e: e.src)
    if not parents:
        return parents, np.zeros(0)
    logits = gamma_temp * np.array([e.f_statistic for e in parents])
    gamma = np.exp(logits - logits.max())
    return parents, gamma / gamma.sum()


def causal_aggregate(
    node: str,
    h_prime: np.ndarray,
    causal_graph: CausalGraph,
    embeds: dict[str, np.ndarray],
    params: ModelParams,
) -> np.ndarray:
    """Blend causal parents into the final embedding via a softmax over
    Granger F statistics at the learned temperature."""
    parents, gamma = causal_gamma(node, causal_graph, float(params.gamma_temp.data))
    if not parents:
        return h_prime
    ctx = np.zeros_like(h_prime)
    for g, e in zip(gamma, parents):
        ctx += g * (params.causal_w.data @ embeds[e.src])
    combined = h_prime + ctx
    return combined if params.config.euclidean else unit(combined)[0]


def pairwise_expand(edges: list[Hyperedge]) -> list[Hyperedge]:
    """Replace every hyperedge by the 2-cliques of its members."""
    out = []
    for e in edges:
        members = sorted(e.members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                out.append(
                    Hyperedge(
                        f"{e.edge_id}:{i}-{j}",
                        (members[i], members[j]),
                        e.context_type,
                    )
                )
    return out


def member_pairs(ds: Dataset, pairwise: bool) -> dict:
    """The member and pair arrays of ``compile_structure``, built edge by edge.

    Expands edges with :func:`pairwise_expand`, fills the padded (E, K)
    member block one row at a time, lists the valid (e, i, j) slots of the
    (E, K, K) block grouped by context type, and walks them to find the
    softmax segments, one per (e, i) row.
    """
    index = ds.node_index()
    n = len(ds.nodes)
    edges = pairwise_expand(ds.hyperedges) if pairwise else list(ds.hyperedges)
    k = max((len(e.members) for e in edges), default=2)
    member_idx = np.zeros((len(edges), k), dtype=np.int64)
    member_mask = np.zeros((len(edges), k), dtype=bool)
    for row, e in enumerate(edges):
        mem = [index[m] for m in e.members]
        member_idx[row, : len(mem)] = mem
        member_mask[row, : len(mem)] = True
    types = sorted({e.context_type for e in edges})
    slots, cells, starts, type_pairs = [], [], [], {}
    for t in types:
        lo = len(slots)
        for row, e in enumerate(edges):
            if e.context_type != t:
                continue
            size = len(e.members)
            for i in range(size):
                starts.append(len(slots))
                for j in range(size):
                    slots.append((row * k + i) * k + j)
                    cells.append(member_idx[row, i] * n + member_idx[row, j])
        type_pairs[t] = slice(lo, len(slots))
    return {
        "member_idx": member_idx,
        "member_mask": member_mask,
        "pair_slot": np.asarray(slots, dtype=np.int64),
        "pair_cell": np.asarray(cells, dtype=np.int64),
        "seg_starts": np.asarray(starts, dtype=np.int64),
        "type_pairs": type_pairs,
    }


def causal_parents(ds: Dataset, causal_graph: CausalGraph) -> dict:
    """The causal arrays of ``compile_structure``, built edge by edge.

    Walks the children in id order and each child's parents in id order,
    appending one flat entry per edge, and fills the padded (P, Kc) parent
    mask one row at a time.
    """
    index = ds.node_index()
    children = sorted({e.dst for e in causal_graph.edges})
    rows, starts, seg, parent_rows, f_stats, lens = [], [], [], [], [], []
    for r, child in enumerate(children):
        starts.append(len(seg))
        rows.append(index[child])
        parents = sorted((e for e in causal_graph.edges if e.dst == child), key=lambda e: e.src)
        for e in parents:
            seg.append(r)
            parent_rows.append(index[e.src])
            f_stats.append(e.f_statistic)
        lens.append(len(parents))
    mask = np.zeros((len(children), max(lens, default=1)), dtype=bool)
    for r, k in enumerate(lens):
        mask[r, :k] = True
    return {
        "child_rows": np.asarray(rows, dtype=np.int64),
        "parent_starts": np.asarray(starts, dtype=np.int64),
        "parent_seg": np.asarray(seg, dtype=np.int64),
        "parent_rows": np.asarray(parent_rows, dtype=np.int64),
        "parent_f": np.asarray(f_stats, dtype=np.float64),
        "parent_mask": mask,
    }


def padded_alpha(alpha: np.ndarray, ds: Dataset, pairwise: bool) -> np.ndarray:
    """Flat pair weights placed in the padded (E, K, K) block, zero at padding."""
    pairs = member_pairs(ds, pairwise)
    e, k = pairs["member_mask"].shape
    block = np.zeros(e * k * k)
    block[pairs["pair_slot"]] = alpha
    return block.reshape(e, k, k)


def scatter_rows(idx: np.ndarray, src: np.ndarray, num_rows: int) -> np.ndarray:
    """out[i] = the sum of the rows src[p] with idx[p] == i, one row at a time."""
    out = np.zeros((num_rows,) + src.shape[1:])
    for p, i in enumerate(idx):
        out[i] += src[p]
    return out


def normalize_rows(x: np.ndarray, eps: float) -> np.ndarray:
    """The forward value of the generic-op chain that normalised rows before
    the fused op: a squared norm, a select of 1 at rows with norm <= eps, a
    square root, a division, and a select of e_1 at those rows."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    safe = sq > eps**2
    denom = np.sqrt(np.where(safe, sq, np.ones_like(sq)))
    e1 = np.zeros((1, x.shape[-1]))
    e1[0, 0] = 1.0
    return np.where(safe, x / denom, e1)


def masked_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to mask; masked entries get 0.

    Rows with no valid entry yield all zeros.
    """
    neg = np.where(mask, x.data, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.where(mask, np.exp(neg - mx), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    val = e / np.where(denom == 0.0, 1.0, denom)
    out = Tensor(val, parents=(x,))

    def bwd(g):
        inner = (g * val).sum(axis=-1, keepdims=True)
        x._accumulate((g - inner) * val)

    out._backward = bwd
    return out


def masked_logsumexp(x: Tensor, mask: np.ndarray) -> Tensor:
    """logsumexp over the last axis restricted to mask, keepdims."""
    neg = np.where(mask, x.data, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.where(mask, np.exp(neg - mx), 0.0)
    s = e.sum(axis=-1, keepdims=True)
    val = mx + np.log(np.where(s == 0.0, 1.0, s))
    out = Tensor(val, parents=(x,))
    soft = e / np.where(s == 0.0, 1.0, s)
    out._backward = lambda g: x._accumulate(g * soft)
    return out


def segment_softmax_by_ids(x: Tensor, starts: np.ndarray, ids: np.ndarray) -> Tensor:
    """Softmax within each contiguous segment of a 1-D tensor, where ``ids[p]``
    is the segment of element p and each per-segment value reaches its
    elements as ``value[ids]``."""
    mx = np.maximum.reduceat(x.data, starts)
    e = np.exp(x.data - mx[ids])
    val = e / np.add.reduceat(e, starts)[ids]

    def bwd(g):
        x._accumulate((g - np.add.reduceat(g * val, starts)[ids]) * val)

    return Tensor(val, parents=(x,), backward=bwd)


def segment_logsumexp_by_ids(x: Tensor, starts: np.ndarray, ids: np.ndarray) -> Tensor:
    """The log-sum-exp of each element's segment, laid out as in :func:`segment_softmax_by_ids`."""
    mx = np.maximum.reduceat(x.data, starts)
    e = np.exp(x.data - mx[ids])
    s = np.add.reduceat(e, starts)
    soft = e / s[ids]
    return Tensor(
        (mx + np.log(s))[ids], parents=(x,), backward=lambda g: x._accumulate(np.add.reduceat(g, starts)[ids] * soft)
    )


def midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), walking each run of ties in sorted order."""
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
