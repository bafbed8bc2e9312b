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

Message passing is a Gram-matrix kernel over flat member pairs.  Each
valid pair (i, j) of edge e is one entry of a flat array, grouped by
context type and then ordered by (e, i, j), so the pairs of one (e, i)
row form a contiguous segment.  Each round computes G = h h^T once, an
(N, N) matrix, and gathers one scalar per pair: the attention logit of
pair (i, j) in edge e is the temperature times G[m_i, m_j].  A softmax
runs within every segment, so alpha[e, i, :] is a distribution over the
members of e, with no padded entries to mask.  Each pair's weight is then
scattered onto a dense (N, N) matrix A_t for its edge's context type t,
so the round's message is m = sum_t (A_t h) W_t^T and every d-wide step
is a dense matmul.  Causal injection takes the same form: the causal
edges, sorted by (child, parent id), are one flat array whose segments
are the children, gamma is a segment softmax of the tempered F scores,
and it scatters onto a (P, N) matrix of child rows by parent node, times h.
That (P, d) context is scattered by flat element index onto the child rows
of h; a select keeps h bit for bit at the rows without causal parents.

``GraphStructure`` is the model's whole view of a dataset: it also holds
each node row's label, ``labels``, and each split's rows, ``splits``, so
the loss and its callers keep no dataset.  It keeps the padded (E, K)
member arrays, the (P, Kc) mask a padded parent block would have, and
``plans``, a dict that is always empty, too.  The forward pass reads none
of them: ``perfbench`` reports its padding and scatter-plan figures from
them.

Memory: a layer holds G and the T matrices A_t, and the causal step one
(P, N) matrix with P <= N, so the dense buffers take at most
(T + 1) * N^2 * 8 bytes per layer: about 7 MB on ``small`` (N = 540) and
24 MB on ``medium`` (N = 1000) with T = 2 context types.  G is freed once
its pairs are gathered; each A_t and the (P, N) matrix live as long as the
graph does.  Backward frees each of them, and its gradient, once its
consumer has been differentiated (see ``autodiff``), so one training step
peaks near the size of its forward graph: 24 MB against 21 MB on
``small`` with the default-alpha causal graph.  A forward pass that nothing
differentiates, ``eval``'s and training's per-epoch validation, runs on
``ModelParams.constants()`` (a loaded checkpoint's parameters are constants
already), so it keeps no graph: each dense buffer is freed once read.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, ValidationError
from .granger import CausalGraph
from .hypergraph import Dataset

log = logging.getLogger(__name__)

_NORM_EPS = 1e-12

# Initial attention and causal softmax temperatures.  Both are learned.
ATTN_TEMP_INIT = 20.0
GAMMA_TEMP_INIT = 1.0


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    layers: int = 2
    dropout: float = 0.2
    kappa_init: float = 20.0
    euclidean: bool = False
    pairwise: bool = False

    def __post_init__(self):
        # Each float check is written so that NaN fails it.
        if self.embed_dim < 2:
            raise ContractViolation("embed_dim must be >= 2")
        if self.layers < 0:
            raise ContractViolation("layers must be >= 0")
        if not (0.0 <= self.dropout < 1.0):
            raise ContractViolation("dropout must be in [0, 1)")
        if not (self.kappa_init > 0):
            raise ContractViolation("kappa_init must be positive")

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

    def constants(self) -> "ModelParams":
        """The same arrays as constant tensors: a forward pass over them builds no graph."""
        const = {k: Tensor(v.data) for k, v in self.named().items()}
        edge_w = {t: const.pop(f"edge_w:{t}") for t in self.edge_types}
        return replace(self, edge_w=edge_w, **const)

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
        attn_temp=Tensor(ATTN_TEMP_INIT, requires_grad=True),
        causal_w=glorot(d, d),
        gamma_temp=Tensor(GAMMA_TEMP_INIT, requires_grad=True),
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
    # Every valid member pair (e, i, j), grouped by context type and then
    # ordered by (e, i, j): its flat offset m_i*N + m_j in an (N, N) matrix
    # (the Gram matrix, or A_t), and that offset transposed, m_j*N + m_i.
    pair_cell: np.ndarray  # (Q,)
    pair_cell_t: np.ndarray  # (Q,)
    # The pairs of one (e, i) row are contiguous: a softmax segment.
    seg_starts: np.ndarray  # (S,) first pair of each segment
    seg_ids: np.ndarray  # (Q,) segment of each pair
    type_pairs: dict[str, slice]  # context type -> its range of the pair arrays
    # One entry per kept causal edge, sorted by (child id, parent id): each
    # child's parents form one contiguous softmax segment.
    child_rows: np.ndarray  # (P,) nodes with causal parents, one per segment
    parent_starts: np.ndarray  # (P,) first entry of each segment
    parent_seg: np.ndarray  # (F,) segment of each entry
    parent_cell: np.ndarray  # (F,) offset segment*N + parent row in a (P, N) matrix
    parent_f: np.ndarray  # (F,) Granger F statistics
    ghat: np.ndarray  # (F,) reference softmax of F at temperature 1
    # (P, Kc) mask of a padded per-child parent block.  The forward pass
    # never builds that block: only perfbench reads this, for its padding figure.
    parent_mask: np.ndarray
    classes: int
    labels: np.ndarray  # (N,) int64 class of each node row, in [0, classes)
    splits: dict[str, np.ndarray]  # split name -> its node rows, ascending int64
    plans: dict = field(default_factory=dict)  # always empty; only perfbench reads it


def _member_rows(
    ds: Dataset, index: dict[str, int], pairwise: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (E, K) member rows and mask of the edges the model attends over,
    and the hyperedge each of the E rows comes from.

    With ``pairwise`` every hyperedge becomes the 2-cliques of its members
    in sorted-id order, (a, b) for a before b, edge by edge.  Only the
    member ids are checked: an unknown one raises ValidationError.
    """
    flat = []
    for e in ds.hyperedges:
        for m in sorted(e.members) if pairwise else e.members:
            row = index.get(m)
            if row is None:
                raise ValidationError(f"hyperedge {e.edge_id} references unknown node {m}")
            flat.append(row)
    flat = np.asarray(flat, dtype=np.int64)
    sizes = np.fromiter((len(e.members) for e in ds.hyperedges), np.int64, len(ds.hyperedges))
    if not pairwise:
        mask = np.arange(sizes.max(initial=2)) < sizes[:, None]
        rows = np.zeros(mask.shape, dtype=np.int64)
        rows[mask] = flat
        return rows, mask, np.arange(sizes.size)
    first = np.cumsum(sizes) - sizes  # each edge's offset in flat
    n_pairs = sizes * (sizes - 1) // 2
    out_first = np.cumsum(n_pairs) - n_pairs  # each edge's first row
    rows = np.empty((int(n_pairs.sum()), 2), dtype=np.int64)
    for size in np.unique(sizes):
        edges = np.flatnonzero(sizes == size)
        a, b = np.triu_indices(size, 1)
        dest = out_first[edges, None] + np.arange(a.size)
        rows[dest, 0] = flat[first[edges, None] + a]
        rows[dest, 1] = flat[first[edges, None] + b]
    return rows, np.ones(rows.shape, dtype=bool), np.repeat(np.arange(sizes.size), n_pairs)


def compile_structure(
    ds: Dataset, causal_graph: CausalGraph | None, cfg: ModelConfig
) -> GraphStructure:
    """The arrays a forward pass and its loss read, for a dataset already validated.

    A label outside [0, classes) raises ContractViolation, since the loss
    would read a negative one as the last class.
    """
    index = ds.node_index()
    node_ids = [n.node_id for n in ds.nodes]
    features = np.stack([n.features[-1] for n in ds.nodes])
    n_nodes = len(node_ids)
    labels = np.fromiter((ds.labels[i] for i in node_ids), np.int64, n_nodes)
    if np.any((labels < 0) | (labels >= ds.classes)):
        raise ContractViolation("label out of range")
    splits = {name: np.sort([index[i] for i in ids]).astype(np.int64) for name, ids in ds.splits.items()}

    member_idx, member_mask, source = _member_rows(ds, index, cfg.pairwise)
    types, type_code = np.unique([e.context_type for e in ds.hyperedges], return_inverse=True)
    type_code = type_code[source]
    k = member_idx.shape[1]
    pair_mask = member_mask[:, :, None] & member_mask[:, None, :]
    slots = np.flatnonzero(pair_mask)  # offsets in the padded (E, K, K) block
    slots = slots[np.argsort(type_code[slots // (k * k)], kind="stable")]
    pe, pi, pj = np.unravel_index(slots, pair_mask.shape)
    rows_i, rows_j = member_idx[pe, pi], member_idx[pe, pj]
    new_segment = np.diff(slots // k, prepend=-1) != 0  # a new (e, i) row
    bounds = np.searchsorted(type_code[pe], np.arange(types.size + 1))
    type_pairs = {str(t): slice(int(bounds[c]), int(bounds[c + 1])) for c, t in enumerate(types)}

    kept = sorted(
        (e for e in (causal_graph.edges if causal_graph else ()) if e.src in index and e.dst in index),
        key=lambda e: (e.dst, e.src),
    )
    child, parent = np.array([(index[e.dst], index[e.src]) for e in kept], dtype=np.int64).reshape(-1, 2).T
    parent_f = np.array([e.f_statistic for e in kept], dtype=np.float64)
    new_child = np.diff(child, prepend=-1) != 0
    parent_starts = np.flatnonzero(new_child)
    parent_seg = np.cumsum(new_child) - 1
    parent_lens = np.diff(np.append(parent_starts, child.size))
    child_rows = child[parent_starts]

    return GraphStructure(
        node_ids=node_ids,
        features=features,
        member_idx=member_idx,
        member_mask=member_mask,
        pair_cell=rows_i * n_nodes + rows_j,
        pair_cell_t=rows_j * n_nodes + rows_i,
        seg_starts=np.flatnonzero(new_segment),
        seg_ids=np.cumsum(new_segment) - 1,
        type_pairs=type_pairs,
        child_rows=child_rows,
        parent_starts=parent_starts,
        parent_seg=parent_seg,
        parent_cell=parent_seg * n_nodes + parent,
        parent_f=parent_f,
        ghat=ad.segment_softmax(Tensor(parent_f), parent_starts, parent_seg).data,
        parent_mask=np.arange(parent_lens.max(initial=1)) < parent_lens[:, None],
        classes=ds.classes,
        labels=labels,
        splits=splits,
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
    alphas: list[Tensor]  # per layer, the flat pair weights in pair_cell order
    gamma: Tensor | None
    log_gamma: Tensor | None
    h_final: Tensor
    logits: Tensor
    log_probs: Tensor
    probs: Tensor
    entropy: Tensor


def _normalize_rows(t: Tensor) -> Tensor:
    degenerate = int(np.count_nonzero((t.data * t.data).sum(axis=-1) <= _NORM_EPS**2))
    if degenerate:
        log.debug("degenerate norm on %d rows; substituting basis vector", degenerate)
    return ad.normalize_rows(t, _NORM_EPS)


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

    h = z if cfg.euclidean else _normalize_rows(z)
    layers = [h]
    alphas: list[Tensor] = []

    for _ in range(cfg.layers):
        m = Tensor(np.zeros((n, d)))
        if structure.pair_cell.size:
            cos = ad.gram_gather(h, structure.pair_cell, structure.pair_cell_t)
            alpha = ad.segment_softmax(params.attn_temp * cos, structure.seg_starts, structure.seg_ids)
            alphas.append(alpha)
            for t, span in structure.type_pairs.items():
                a_t = ad.scatter_flat(alpha[span], structure.pair_cell[span], n * n).reshape(n, n)
                m = m + (a_t @ h) @ params.edge_w[t].transpose((1, 0))
        if mode == "train" and cfg.dropout > 0.0:
            keep = (rng.random((n, d)) >= cfg.dropout) / (1.0 - cfg.dropout)
            m = m * Tensor(keep)
        act = m.relu()
        h = act if cfg.euclidean else _normalize_rows(act)
        layers.append(h)

    gamma = log_gamma = None
    if structure.child_rows.size:
        segments = structure.parent_starts, structure.parent_seg
        glogits = params.gamma_temp * Tensor(structure.parent_f)
        gamma = ad.segment_softmax(glogits, *segments)
        log_gamma = glogits - ad.segment_logsumexp(glogits, *segments)
        p_rows = structure.child_rows.size
        weights = ad.scatter_flat(gamma, structure.parent_cell, p_rows * n).reshape(p_rows, n)
        ctx = (weights @ h) @ params.causal_w.transpose((1, 0))
        # Row r of ctx lands on node row child_rows[r]; every other row adds 0.
        cells = (structure.child_rows[:, None] * d + np.arange(d)).reshape(-1)
        combined = h + ad.scatter_flat(ctx, cells, n * d).reshape(n, d)
        if not cfg.euclidean:
            combined = _normalize_rows(combined)
        child_mask = np.zeros((n, 1), dtype=bool)
        child_mask[structure.child_rows] = True
        h_final = ad.where(child_mask, combined, h)
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
# Public forward
# --------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """The per-node outputs of one forward pass, as arrays."""

    logits: np.ndarray
    probs: np.ndarray
    entropy: np.ndarray


def forward(
    ds: Dataset,
    causal_graph: CausalGraph | None,
    params: ModelParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    structure = compile_structure(ds, causal_graph, params.config)
    run = run_model(structure, params, mode=mode, rng=rng)
    return ForwardTrace(logits=run.logits.data, probs=run.probs.data, entropy=run.entropy.data)
