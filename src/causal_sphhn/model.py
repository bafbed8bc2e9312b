"""Spherical hypergraph network with causal aggregation.

Forward pass: project the last observed feature vector of every node onto
the unit hypersphere (keeping a softplus concentration read off the
unnormalized projection), run L rounds of angular attention within
hyperedges followed by per-context-type linear aggregation, inject causal
parents through a learned-temperature softmax over Granger F scores after
the final round, and classify with a linear head whose logits, on the
sphere, are scaled by ``LOGIT_SCALE``.  A projected row z with
||z||^2 <= ``_NORM_EPS``^2 has no direction, so it has no concentration
either: on exactly those rows kappa = 0, the uniform vMF, and on the
sphere h = e_1, and neither passes z a gradient.  A nonfinite row of the
projection, of kappa, of a layer or of the causal injection raises
NumericalError naming the stage and the node: finite parameters whose
forward overflows diverged, they are not bad input.

Ablation switches: ``euclidean`` skips all normalization (attention becomes
a plain dot product), ``pairwise`` expands hyperedges into 2-cliques,
``layers=0`` reduces to the projection, and an empty causal graph is
bit-identical to removing the causal path.

Initial values are module constants, not settings.  ``ModelParams`` holds
the config and the arrays: the input dim, class count and context types
are the column count of ``proj_w``, the length of ``head_b`` and the keys
of ``edge_w``.

``ATTN_TEMP_INIT`` is small because every attention segment holds the
node's own pair, whose cosine is 1: at temperature tau the self pair
outweighs a neighbour at cosine c by exp(tau (1 - c)), about 10^6 at
tau = 20 and c = 0.3.  At 20 a node attends to itself alone, training
never leaves that basin, and the layers pass no messages; at 1 they mix
from the first step.  ``LOGIT_SCALE`` is the cosine-classifier scale
(NormFace, Wang et al., ACM MM 2017): over unit-norm h the logits
w_c.h + b_c are bounded by ||w_c|| + |b_c|, which a few hundred Adam steps
leave small, so an unscaled head is underconfident.  A constant serves:
learned from 10, the scale moved only to 10.1-10.2.  Under ``euclidean``
h is unnormalised, its norm already sets the logits' range, and the head
is left unscaled.

Message passing is a Gram-matrix kernel over flat member pairs.  Each
valid pair (i, j) of edge e is one entry of a flat array, grouped by
context type and then ordered by (e, i, j), so the pairs of one (e, i)
row form a contiguous segment.  Each round computes G = h h^T once, an
(N, N) matrix, and gathers one scalar per pair: the attention logit of
pair (i, j) in edge e is the temperature times G[m_i, m_j].  A softmax
runs within every segment, so alpha[e, i, :] is a distribution over the
members of e, with no padded entries to mask.  The round's message is
m = sum_t (A_t h) W_t^T, where A_t is the dense (N, N) matrix of the pair
weights of context type t, so every d-wide step is a dense matmul.  A_t
exists only inside one ``scatter_matmul`` op: forward scatters the
weights onto it and frees it once A_t h is taken, and backward rebuilds
it from the same weights.  Causal injection takes the same form: the
causal edges, sorted by (child, parent id), are one flat array whose
segments are the children, gamma is a segment softmax of the tempered F
scores, and one ``scatter_matmul`` takes the (P, N) matrix of gamma at
child rows and parent columns times h.  Only the P child rows change:
each is its row of h plus its (P, d) context row, renormalised, and one
row put writes them into h, which every other row keeps bit for bit.
Every causal edge must join two nodes of the dataset: a graph inferred on
another dataset is an input error, not a graph to apply in part.

``GraphStructure`` is the model's whole view of a dataset: it also holds
each node row's label, ``labels``, and each split's rows, ``splits``, so
the loss and its callers keep no dataset.  It keeps the padded (E, K)
member arrays, the (P, Kc) mask a padded parent block would have, and
``plans``, a dict that is always empty, too.  The forward pass reads none
of them: ``perfbench`` reports its padding and scatter-plan figures from
them.

Memory: the graph keeps no dense (N, N) or (P, N) matrix.  G is freed
once its pairs are gathered, and each A_t and the (P, N) matrix once its
product with h is taken.  Backward forms each dense matrix it needs, a
rebuilt A_t or (P, N) matrix or the gradient of one of them or of G,
inside one op call and frees it there, so a training step holds at most
one transient N^2 * 8-byte matrix at a time: 2.3 MB on ``small``
(N = 540) and 8 MB on ``medium`` (N = 1000).  Backward also frees each
node, and its gradient, once its consumer has been differentiated (see
``autodiff``), so one training step peaks near the size of its forward
graph: 11.1 MB against 8.2 MB on ``small`` with the default-alpha causal
graph.  A forward pass that nothing differentiates, ``eval``'s and
training's per-epoch validation, runs on ``ModelParams.constants()`` (a
loaded checkpoint's parameters are constants already), so it keeps no
graph: each dense buffer is freed once read.
"""

from __future__ import annotations

import functools
import logging
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, NumericalError, ValidationError
from .granger import EDGE_DTYPE, CausalGraph
from .hypergraph import Dataset

log = logging.getLogger(__name__)

_NORM_EPS = 1e-12

# Initial attention and causal softmax temperatures and concentration kappa.  All are learned.
ATTN_TEMP_INIT = 1.0
GAMMA_TEMP_INIT = 1.0
KAPPA_INIT = 20.0
# The constant scale of the head's logits on the sphere.
LOGIT_SCALE = 10.0


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    layers: int = 2
    dropout: float = 0.2
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


@dataclass
class ModelParams:
    """Learnable tensors and the config that shapes them."""

    config: ModelConfig
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
        """Every learnable tensor in field order, which is the checkpoint's order:
        a dict field gives one ``<field>:<key>`` entry per key."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[f.name] = value
            elif isinstance(value, dict):
                out.update((f"{f.name}:{k}", t) for k, t in value.items())
        return out

    def constants(self) -> "ModelParams":
        """The same arrays as constant tensors: a forward pass over them builds no graph."""
        const = {k: Tensor(v.data) for k, v in self.named().items()}
        edge_w = {t: const.pop(f"edge_w:{t}") for t in self.edge_w}
        return replace(self, edge_w=edge_w, **const)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named().items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, v in self.named().items():
            v.data = np.array(values[k], dtype=np.float64).reshape(v.data.shape)


def softplus_inverse(y: float) -> float:
    """log(expm1(y)), in a form that does not overflow for y > 709."""
    return float(y + np.log(-np.expm1(-y)))


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
        proj_w=glorot(d, in_dim),
        proj_b=Tensor(np.zeros(d), requires_grad=True),
        kappa_w=Tensor(np.zeros(d), requires_grad=True),
        kappa_b=Tensor(softplus_inverse(KAPPA_INIT), requires_grad=True),
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
    # ordered by (e, i, j): its flat offset m_i*N + m_j in an (N, N) matrix,
    # the Gram matrix whose cell it reads or the transient A_t it scatters
    # onto, and that offset transposed, m_j*N + m_i.
    pair_cell: np.ndarray  # (Q,)
    pair_cell_t: np.ndarray  # (Q,)
    # The pairs of one (e, i) row are contiguous: a softmax segment.
    seg_starts: np.ndarray  # (S,) first pair of each segment
    seg_ids: np.ndarray  # (Q,) segment of each pair
    type_pairs: dict[str, slice]  # context type -> its range of the pair arrays
    # One entry per causal edge, sorted by (child id, parent id): each
    # child's parents form one contiguous softmax segment.
    child_rows: np.ndarray  # (P,) nodes with causal parents, one per segment
    parent_starts: np.ndarray  # (P,) first entry of each segment
    parent_seg: np.ndarray  # (F,) segment of each entry
    parent_rows: np.ndarray  # (F,) node row of each entry's parent
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

    Each hyperedge is first one row of a padded (edges, K) block.  With
    ``pairwise`` its members are sorted by id, and its 2-cliques (a, b),
    a before b, are read off that block: slot pair (a, b) of the upper
    triangle is a pair of the edge wherever slot b is a member, since then
    so is a < b.  Boolean indexing keeps edge order, and the triangle's
    order within each edge.
    """
    flat = [index[m] for e in ds.hyperedges for m in (sorted(e.members) if pairwise else e.members)]
    sizes = np.fromiter((len(e.members) for e in ds.hyperedges), np.int64, len(ds.hyperedges))
    mask = np.arange(sizes.max(initial=2)) < sizes[:, None]
    rows = np.zeros(mask.shape, dtype=np.int64)
    rows[mask] = flat
    if not pairwise:
        return rows, mask, np.arange(sizes.size)
    a, b = np.triu_indices(mask.shape[1], 1)
    keep = mask[:, b]
    pairs = np.stack([rows[:, a][keep], rows[:, b][keep]], axis=1)
    return pairs, np.ones(pairs.shape, dtype=bool), np.nonzero(keep)[0]


def compile_structure(
    ds: Dataset, causal_graph: CausalGraph | None, cfg: ModelConfig
) -> GraphStructure:
    """The arrays a forward pass and its loss read.

    A dataset checks its own labels and members when built, so the one
    check here compares the two inputs: a causal edge endpoint that is not
    a node of the dataset raises ValidationError, naming the edge and the
    node.  The causal graph's record array is read as columns, in
    (child id, parent id) order.
    """
    index = ds.node_index()
    node_ids = ds.node_ids
    features = ds.features[:, -1].copy()  # the caller may free the block
    n_nodes = len(node_ids)
    labels = np.fromiter((ds.labels[i] for i in node_ids), np.int64, n_nodes)
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

    edges = causal_graph.edges if causal_graph else np.empty(0, EDGE_DTYPE).view(np.recarray)
    order = np.lexsort((edges.src, edges.dst))  # (child id, parent id)
    # A fancy index copies each column, so parent_f is contiguous, not a strided view of the records.
    src, dst, parent_f = edges.src[order], edges.dst[order], edges.f_statistic[order]
    parent, child = (np.fromiter((index.get(v, -1) for v in ids), np.int64, ids.size) for ids in (src, dst))
    unknown = (parent < 0) | (child < 0)
    if unknown.any():
        k = np.argmax(unknown)
        end = src[k] if parent[k] < 0 else dst[k]
        raise ValidationError(f"causal edge {src[k]} -> {dst[k]} references unknown node {end}")
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
        parent_rows=parent,
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


def _check_rows(values: np.ndarray, what: str, node_ids: list[str]) -> None:
    """Raise NumericalError naming the first node whose row of ``values`` is nonfinite."""
    finite = np.isfinite(values).reshape(len(node_ids), -1).all(axis=1)
    if not finite.all():
        raise NumericalError(f"{what} of node {node_ids[np.argmin(finite)]} is nonfinite")


# Overflow shows up as a nonfinite row, which _check_rows turns into a
# NumericalError; the float warnings on the way are noise.
@np.errstate(over="ignore", invalid="ignore")
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
    in_dim = params.proj_w.data.shape[1]
    if structure.features.shape[1] != in_dim:
        raise ContractViolation(f"feature dim {structure.features.shape[1]} != model in_dim {in_dim}")
    if structure.classes != params.head_b.data.size:
        raise ContractViolation("dataset classes do not match model head")
    missing = set(structure.type_pairs) - set(params.edge_w)
    if missing:
        raise ContractViolation(f"no edge weights for context types {sorted(missing)}")
    if mode == "train" and cfg.dropout > 0.0 and rng is None:
        raise ContractViolation("train mode with dropout needs a generator")

    x = Tensor(structure.features)
    z = x @ params.proj_w.transpose((1, 0)) + params.proj_b
    _check_rows(z.data, "projection", structure.node_ids)
    # The squared-norm test of ad.normalize_rows, so kappa is 0 where h is e_1.
    directed = (z.data * z.data).sum(axis=1) > _NORM_EPS**2
    kappa = ((z @ params.kappa_w.reshape(d, 1)).reshape(n) + params.kappa_b).softplus() * Tensor(directed)
    _check_rows(kappa.data, "kappa", structure.node_ids)

    h = z if cfg.euclidean else _normalize_rows(z)
    layers = [h]
    alphas: list[Tensor] = []

    for layer in range(1, cfg.layers + 1):
        if structure.pair_cell.size:
            cos = ad.gram_gather(h, structure.pair_cell, structure.pair_cell_t)
            alpha = ad.segment_softmax(params.attn_temp * cos, structure.seg_starts, structure.seg_ids)
            alphas.append(alpha)
            # The sum starts from the first context type's term, so it keeps no zero (N, d) tensor.
            m = functools.reduce(operator.add, (
                ad.scatter_matmul(alpha[span], h, structure.pair_cell[span], n) @ params.edge_w[t].transpose((1, 0))
                for t, span in structure.type_pairs.items()))
        else:
            m = Tensor(np.zeros((n, d)))
        if mode == "train" and cfg.dropout > 0.0:
            keep = (rng.random((n, d)) >= cfg.dropout) / (1.0 - cfg.dropout)
            m = m * Tensor(keep)
        act = m.relu()
        _check_rows(act.data, f"layer {layer}", structure.node_ids)
        h = act if cfg.euclidean else _normalize_rows(act)
        layers.append(h)

    gamma = log_gamma = None
    if structure.child_rows.size:
        segments = structure.parent_starts, structure.parent_seg
        glogits = params.gamma_temp * Tensor(structure.parent_f)
        gamma = ad.segment_softmax(glogits, *segments)
        log_gamma = glogits - ad.segment_logsumexp(glogits, *segments)
        # Entry k is cell (parent_seg[k], parent_rows[k]) of the (P, N) matrix of gamma.
        cells = structure.parent_seg * n + structure.parent_rows
        pooled = ad.scatter_matmul(gamma, h, cells, structure.child_rows.size)
        combined = ad.gather_rows(h, structure.child_rows) + pooled @ params.causal_w.transpose((1, 0))
        if not cfg.euclidean:
            combined = _normalize_rows(combined)
        h_final = ad.put_rows(h, structure.child_rows, combined)
        _check_rows(h_final.data, "causal injection", structure.node_ids)
    else:
        h_final = h

    logits = h_final @ params.head_w.transpose((1, 0)) + params.head_b
    if not cfg.euclidean:
        logits = logits * LOGIT_SCALE
    log_probs = ad.log_softmax(logits)
    probs = Tensor(np.exp(log_probs.data))
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
