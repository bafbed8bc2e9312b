"""Spherical hypergraph network with causal aggregation.

Forward pass: project the last observed feature vector of every node onto
the unit hypersphere (keeping a softplus concentration read off the
unnormalized projection), run L rounds of angular attention within
hyperedges followed by per-context-type linear aggregation, inject causal
parents through a learned-temperature softmax over Granger F scores after
the final round, and classify with a linear head.

Ablation switches: ``euclidean`` skips all normalization (attention becomes
a plain dot product), ``pairwise`` expands hyperedges into 2-cliques,
``layers=0`` reduces to the projection, and an empty causal graph is
bit-identical to removing the causal path.

Message passing is a Gram-matrix kernel.  Each round computes G = h h^T
once, an (N, N) matrix, and gathers one scalar per member pair: the
attention logit of pair (i, j) in edge e is the temperature times
G[m_i, m_j], placed in the padded (E, K, K) block on which a masked softmax
runs within every edge.  Each valid pair's weight is then scattered onto a
dense (N, N) matrix A_t for its edge's context type t, so the round's
message is m = sum_t (A_t h) W_t^T and every d-wide step is a dense matmul.
Causal injection takes the same form: the gamma weights scatter onto a
(P, N) matrix of child rows by parent node, times h.  Only valid pairs and
parents are gathered and scattered, so padding never reaches a sum.

Memory: a layer holds G and the T matrices A_t, and the causal step one
(P, N) matrix with P <= N, so the dense buffers take at most
(T + 1) * N^2 * 8 bytes per layer: about 7 MB on ``small`` (N = 540) and
24 MB on ``medium`` (N = 1000) with T = 2 context types.  Backward adds
their gradients, the same size again.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation
from .granger import CausalGraph
from .hypergraph import Dataset, Hyperedge, build_index

log = logging.getLogger(__name__)

_NORM_EPS = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    layers: int = 2
    dropout: float = 0.2
    attn_temp_init: float = 20.0
    gamma_temp_init: float = 1.0
    kappa_init: float = 20.0
    euclidean: bool = False
    pairwise: bool = False

    def validate(self) -> None:
        if self.embed_dim < 2:
            raise ContractViolation("embed_dim must be >= 2")
        if self.layers < 0:
            raise ContractViolation("layers must be >= 0")
        if not (0.0 <= self.dropout < 1.0):
            raise ContractViolation("dropout must be in [0, 1)")
        if self.attn_temp_init <= 0 or self.gamma_temp_init <= 0:
            raise ContractViolation("temperatures must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ModelParams:
    """Learnable tensors plus the shape metadata needed to rebuild them."""

    config: ModelConfig
    in_dim: int
    classes: int
    edge_types: tuple[str, ...]
    proj_w: Tensor
    proj_b: Tensor
    kappa_w: Tensor
    kappa_b: Tensor
    edge_w: dict[str, Tensor]
    attn_temp: Tensor
    causal_w: Tensor
    gamma_temp: Tensor
    head_w: Tensor
    head_b: Tensor

    def named(self) -> dict[str, Tensor]:
        out = {
            "proj_w": self.proj_w,
            "proj_b": self.proj_b,
            "kappa_w": self.kappa_w,
            "kappa_b": self.kappa_b,
        }
        for t in self.edge_types:
            out[f"edge_w:{t}"] = self.edge_w[t]
        out.update(
            attn_temp=self.attn_temp,
            causal_w=self.causal_w,
            gamma_temp=self.gamma_temp,
            head_w=self.head_w,
            head_b=self.head_b,
        )
        return out

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named().items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, v in self.named().items():
            v.data = np.array(values[k], dtype=np.float64).reshape(v.data.shape)


def softplus_inverse(y: float) -> float:
    return float(np.log(np.expm1(y)))


def init_params(
    cfg: ModelConfig,
    in_dim: int,
    classes: int,
    edge_types: tuple[str, ...],
    rng: np.random.Generator,
) -> ModelParams:
    cfg.validate()
    d = cfg.embed_dim

    def glorot(rows, cols):
        std = np.sqrt(2.0 / (rows + cols))
        return Tensor(std * rng.standard_normal((rows, cols)), requires_grad=True)

    return ModelParams(
        config=cfg,
        in_dim=in_dim,
        classes=classes,
        edge_types=tuple(sorted(edge_types)),
        proj_w=glorot(d, in_dim),
        proj_b=Tensor(np.zeros(d), requires_grad=True),
        kappa_w=Tensor(np.zeros(d), requires_grad=True),
        kappa_b=Tensor(softplus_inverse(cfg.kappa_init), requires_grad=True),
        edge_w={t: glorot(d, d) for t in sorted(edge_types)},
        attn_temp=Tensor(cfg.attn_temp_init, requires_grad=True),
        causal_w=glorot(d, d),
        gamma_temp=Tensor(cfg.gamma_temp_init, requires_grad=True),
        head_w=Tensor(np.zeros((classes, d)), requires_grad=True),
        head_b=Tensor(np.zeros(classes), requires_grad=True),
    )


# --------------------------------------------------------------------------
# Compiled graph structure
# --------------------------------------------------------------------------


@dataclass
class GraphStructure:
    node_ids: list[str]
    features: np.ndarray  # (N, d) last observed timestep
    member_idx: np.ndarray  # (E, K) node rows, padded with 0
    member_mask: np.ndarray  # (E, K) bool, False at padding
    # Every valid member pair (e, i, j), grouped by context type: its flat
    # offset e*K*K + i*K + j in the (E, K, K) attention block, and its flat
    # offset m_i*N + m_j in an (N, N) matrix (the Gram matrix, or A_t).
    pair_slot: np.ndarray  # (Q,)
    pair_cell: np.ndarray  # (Q,)
    type_pairs: dict[str, slice]  # context type -> its range of the pair arrays
    child_rows: np.ndarray  # (P,) nodes with causal parents
    parent_idx: np.ndarray  # (P, Kc) parent rows, padded with 0
    parent_mask: np.ndarray  # (P, Kc)
    parent_f: np.ndarray  # (P, Kc) Granger F statistics
    ghat: np.ndarray  # (P, Kc) reference softmax of F at temperature 1
    # Every valid parent (r, c): its flat offset r*Kc + c in the (P, Kc)
    # gamma block, and its flat offset r*N + parent in a (P, N) matrix.
    parent_slot: np.ndarray
    parent_cell: np.ndarray
    classes: int
    plans: dict = field(default_factory=dict)  # "children": row scatter of the child rows


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


def compile_structure(
    ds: Dataset, causal_graph: CausalGraph | None, cfg: ModelConfig
) -> GraphStructure:
    build_index(ds)  # validates incidence consistency
    index = ds.node_index()
    node_ids = [n.node_id for n in ds.nodes]
    features = np.stack([n.features[-1] for n in ds.nodes])

    edges = list(ds.hyperedges)
    if cfg.pairwise:
        edges = pairwise_expand(edges)
    n_edges = len(edges)
    k = max((len(e.members) for e in edges), default=2)
    member_idx = np.zeros((n_edges, k), dtype=np.int64)
    member_mask = np.zeros((n_edges, k), dtype=bool)
    for row, e in enumerate(edges):
        mem = [index[m] for m in e.members]
        member_idx[row, : len(mem)] = mem
        member_mask[row, : len(mem)] = True
    types = sorted({e.context_type for e in edges})
    type_code = np.asarray([types.index(e.context_type) for e in edges], dtype=np.int64)
    n_nodes = len(node_ids)
    pair_mask = member_mask[:, :, None] & member_mask[:, None, :]
    pair_slot = np.flatnonzero(pair_mask)
    pair_slot = pair_slot[np.argsort(type_code[pair_slot // (k * k)], kind="stable")]
    pe, pi, pj = np.unravel_index(pair_slot, pair_mask.shape)
    pair_cell = member_idx[pe, pi] * n_nodes + member_idx[pe, pj]
    bounds = np.searchsorted(type_code[pe], np.arange(len(types) + 1))
    type_pairs = {t: slice(int(bounds[c]), int(bounds[c + 1])) for c, t in enumerate(types)}

    children: dict[str, list] = {}
    if causal_graph is not None:
        for e in causal_graph.edges:
            if e.src in index and e.dst in index:
                children.setdefault(e.dst, []).append(e)
    child_ids = sorted(children)
    p_rows = len(child_ids)
    kc = max((len(children[c]) for c in child_ids), default=1)
    child_rows = np.asarray([index[c] for c in child_ids], dtype=np.int64)
    parent_idx = np.zeros((p_rows, kc), dtype=np.int64)
    parent_mask = np.zeros((p_rows, kc), dtype=bool)
    parent_f = np.zeros((p_rows, kc))
    for r, cid in enumerate(child_ids):
        for c, edge in enumerate(sorted(children[cid], key=lambda e: e.src)):
            parent_idx[r, c] = index[edge.src]
            parent_mask[r, c] = True
            parent_f[r, c] = edge.f_statistic
    ghat = ad.masked_softmax(Tensor(parent_f), parent_mask).data
    parent_slot = np.flatnonzero(parent_mask)
    pr, pc = np.divmod(parent_slot, kc)
    parent_cell = pr * n_nodes + parent_idx[pr, pc]

    return GraphStructure(
        node_ids=node_ids,
        features=features,
        member_idx=member_idx,
        member_mask=member_mask,
        pair_slot=pair_slot,
        pair_cell=pair_cell,
        type_pairs=type_pairs,
        child_rows=child_rows,
        parent_idx=parent_idx,
        parent_mask=parent_mask,
        parent_f=parent_f,
        ghat=ghat,
        parent_slot=parent_slot,
        parent_cell=parent_cell,
        classes=ds.classes,
        plans={"children": ad.ScatterPlan(child_rows, n_nodes)},
    )


# --------------------------------------------------------------------------
# Batched forward
# --------------------------------------------------------------------------


@dataclass
class ModelRun:
    """Forward tensors kept alive so a loss can be built on top of them."""

    structure: GraphStructure
    kappa: Tensor
    layers: list[Tensor]
    alphas: list[Tensor]
    gamma: Tensor | None
    log_gamma: Tensor | None
    h_final: Tensor
    logits: Tensor
    log_probs: Tensor
    probs: Tensor
    entropy: Tensor


def _normalize_rows(t: Tensor, dim: int) -> Tensor:
    sq = (t * t).sum(axis=-1, keepdims=True)
    safe = sq.data > _NORM_EPS**2
    if not np.all(safe):
        log.debug("degenerate norm on %d rows; substituting basis vector", int((~safe).sum()))
    # Replace unsafe squared norms before the sqrt so its derivative stays
    # finite; the outer select routes those rows to the basis vector anyway.
    denom = ad.where(safe, sq, Tensor(np.ones_like(sq.data))).sqrt()
    e1 = np.zeros((1, dim))
    e1[0, 0] = 1.0
    return ad.where(safe, t / denom, Tensor(e1))


def run_model(
    structure: GraphStructure,
    params: ModelParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ModelRun:
    if mode not in ("train", "eval"):
        raise ContractViolation(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.config
    d = cfg.embed_dim
    n = len(structure.node_ids)
    if structure.features.shape[1] != params.in_dim:
        raise ContractViolation(
            f"feature dim {structure.features.shape[1]} != model in_dim {params.in_dim}"
        )
    if structure.classes != params.classes:
        raise ContractViolation("dataset classes do not match model head")
    missing = set(structure.type_pairs) - set(params.edge_types)
    if missing:
        raise ContractViolation(f"no edge weights for context types {sorted(missing)}")
    if mode == "train" and cfg.dropout > 0.0 and rng is None:
        raise ContractViolation("train mode with dropout needs a generator")

    x = Tensor(structure.features)
    z = x @ params.proj_w.transpose((1, 0)) + params.proj_b
    z_norm = np.linalg.norm(z.data, axis=1, keepdims=True)
    proj_safe = z_norm > _NORM_EPS
    kappa_raw = (z @ params.kappa_w.reshape(d, 1)).reshape(n) + params.kappa_b
    kappa = ad.where(proj_safe.reshape(n), kappa_raw.softplus(), Tensor(np.zeros(n)))

    h = z if cfg.euclidean else _normalize_rows(z, d)
    layers = [h]
    alphas: list[Tensor] = []

    n_edges, k = structure.member_idx.shape
    attn_mask = structure.member_mask[:, None, :]  # mask over j within each edge

    for _ in range(cfg.layers):
        m = Tensor(np.zeros((n, d)))
        if n_edges:
            gram = h @ h.transpose((1, 0))
            cos = ad.scatter_flat(
                ad.gather_flat(gram, structure.pair_cell), structure.pair_slot, n_edges * k * k
            ).reshape(n_edges, k, k)
            alpha = ad.masked_softmax(params.attn_temp * cos, attn_mask)
            alphas.append(alpha)
            for t, span in structure.type_pairs.items():
                a_t = ad.scatter_flat(
                    ad.gather_flat(alpha, structure.pair_slot[span]),
                    structure.pair_cell[span],
                    n * n,
                ).reshape(n, n)
                m = m + (a_t @ h) @ params.edge_w[t].transpose((1, 0))
        if mode == "train" and cfg.dropout > 0.0:
            keep = (rng.random((n, d)) >= cfg.dropout) / (1.0 - cfg.dropout)
            m = m * Tensor(keep)
        act = m.relu()
        h = act if cfg.euclidean else _normalize_rows(act, d)
        layers.append(h)

    gamma = log_gamma = None
    if structure.child_rows.size:
        glogits = params.gamma_temp * Tensor(structure.parent_f)
        gamma = ad.masked_softmax(glogits, structure.parent_mask)
        log_gamma = glogits - ad.masked_logsumexp(glogits, structure.parent_mask)
        p_rows = structure.child_rows.size
        weights = ad.scatter_flat(
            ad.gather_flat(gamma, structure.parent_slot), structure.parent_cell, p_rows * n
        ).reshape(p_rows, n)
        ctx = (weights @ h) @ params.causal_w.transpose((1, 0))
        base = ad.gather_rows(h, structure.child_rows, structure.plans["children"])
        combined = base + ctx
        if not cfg.euclidean:
            combined = _normalize_rows(combined, d)
        scattered = ad.scatter_add_rows(combined, structure.plans["children"])
        child_mask = np.zeros((n, 1), dtype=bool)
        child_mask[structure.child_rows] = True
        h_final = ad.where(child_mask, scattered, h)
    else:
        h_final = h

    logits = h_final @ params.head_w.transpose((1, 0)) + params.head_b
    log_probs = ad.log_softmax(logits)
    probs = log_probs.exp()
    ent = ad.vmf_entropy(kappa, d)

    return ModelRun(
        structure=structure,
        kappa=kappa,
        layers=layers,
        alphas=alphas,
        gamma=gamma,
        log_gamma=log_gamma,
        h_final=h_final,
        logits=logits,
        log_probs=log_probs,
        probs=probs,
        entropy=ent,
    )


# --------------------------------------------------------------------------
# Public forward with an inspectable trace
# --------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    node_ids: list[str]
    layer_embeddings: list[np.ndarray]
    attention: list[np.ndarray]
    member_idx: np.ndarray
    member_mask: np.ndarray
    gamma: np.ndarray
    gamma_children: list[str]
    logits: np.ndarray
    probs: np.ndarray
    entropy: np.ndarray
    kappa: np.ndarray
    run: ModelRun = field(repr=False, default=None)


def forward(
    ds: Dataset,
    causal_graph: CausalGraph | None,
    params: ModelParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    structure: GraphStructure | None = None,
) -> ForwardTrace:
    if structure is None:
        structure = compile_structure(ds, causal_graph, params.config)
    run = run_model(structure, params, mode=mode, rng=rng)
    child_ids = [structure.node_ids[i] for i in structure.child_rows]
    kc = structure.parent_idx.shape[1]
    return ForwardTrace(
        node_ids=list(structure.node_ids),
        layer_embeddings=[h.data.copy() for h in run.layers] + [run.h_final.data.copy()],
        attention=[a.data.copy() for a in run.alphas],
        member_idx=structure.member_idx.copy(),
        member_mask=structure.member_mask.copy(),
        gamma=run.gamma.data.copy() if run.gamma is not None else np.zeros((0, kc)),
        gamma_children=child_ids,
        logits=run.logits.data.copy(),
        probs=run.probs.data.copy(),
        entropy=run.entropy.data.copy(),
        kappa=run.kappa.data.copy(),
        run=run,
    )
