"""Dynamic social hypergraph data model and dataset ingestion.

A dataset bundles per-node time-indexed feature matrices, hyperedges
(multi-party contexts), per-node class labels at a fixed prediction
horizon, and train/val/test node splits.  Hyperedges are static over time;
isolated nodes are legal.

File format (UTF-8 JSON)::

    {"dim": d, "timesteps": T, "classes": C, "horizon": h,
     "nodes": [{"id": str, "features": [[...] x T]}],
     "hyperedges": [{"id": str, "members": [...], "type": str}],
     "labels": {id: int},
     "splits": {"train": [...], "val": [...], "test": [...]}}

Feature matrices are row-per-timestep; numbers keep full double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_json, write_json
from .errors import ContractViolation, DanglingReference, ParseError, ValidationError

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class NodeFeatureSeries:
    """One node's T x d feature matrix, time-major."""

    node_id: str
    features: np.ndarray


@dataclass(frozen=True)
class Hyperedge:
    """A shared context joining >= 2 nodes."""

    edge_id: str
    members: tuple[str, ...]
    context_type: str


@dataclass
class Dataset:
    dim: int
    timesteps: int
    classes: int
    horizon: int
    nodes: list[NodeFeatureSeries]
    hyperedges: list[Hyperedge]
    labels: dict[str, int]
    splits: dict[str, list[str]]

    def node_index(self) -> dict[str, int]:
        return {n.node_id: i for i, n in enumerate(self.nodes)}

    def validate(self) -> None:
        if self.classes < 2:
            raise ValidationError(f"classes must be >= 2, got {self.classes}")
        if self.timesteps < 1:
            raise ValidationError("timesteps must be >= 1")
        ids = [n.node_id for n in self.nodes]
        idset = set(ids)
        if len(idset) != len(ids):
            raise ValidationError("duplicate node ids")
        for n in self.nodes:
            if n.features.shape != (self.timesteps, self.dim):
                raise ValidationError(
                    f"node {n.node_id}: features shape {n.features.shape} != "
                    f"({self.timesteps}, {self.dim})"
                )
            if not np.all(np.isfinite(n.features)):
                raise ValidationError(f"node {n.node_id}: nonfinite features")
        edge_ids = set()
        for e in self.hyperedges:
            if e.edge_id in edge_ids:
                raise ValidationError(f"duplicate hyperedge id {e.edge_id}")
            edge_ids.add(e.edge_id)
            if len(e.members) < 2:
                raise ValidationError(f"hyperedge {e.edge_id} has < 2 members")
            if len(set(e.members)) != len(e.members):
                raise ValidationError(f"hyperedge {e.edge_id} has duplicate members")
            for m in e.members:
                if m not in idset:
                    raise ValidationError(
                        f"hyperedge {e.edge_id} references unknown node {m}"
                    )
        if set(self.labels) != idset:
            raise ValidationError("labels must cover exactly the node set")
        for nid, lab in self.labels.items():
            if not (isinstance(lab, int) and 0 <= lab < self.classes):
                raise ValidationError(f"label {lab!r} of node {nid} out of range")
        seen: set[str] = set()
        for name in SPLIT_NAMES:
            if name not in self.splits:
                raise ValidationError(f"missing split {name!r}")
            part = self.splits[name]
            if seen & set(part):
                raise ValidationError("splits are not disjoint")
            seen.update(part)
        if seen != idset:
            raise ValidationError("splits must cover all labeled nodes")


@dataclass(frozen=True)
class IncidenceIndex:
    """Mutually consistent node->hyperedge and hyperedge->node adjacency."""

    node_to_edges: dict[str, tuple[str, ...]]
    edge_to_nodes: dict[str, tuple[str, ...]]


def build_index(ds: Dataset) -> IncidenceIndex:
    """O(sum |e|) incidence construction with id-sorted adjacency lists."""
    node_to_edges: dict[str, list[str]] = {n.node_id: [] for n in ds.nodes}
    edge_to_nodes: dict[str, tuple[str, ...]] = {}
    for e in ds.hyperedges:
        edge_to_nodes[e.edge_id] = tuple(sorted(e.members))
        for m in e.members:
            if m not in node_to_edges:
                raise DanglingReference(f"hyperedge {e.edge_id} -> unknown node {m}")
            node_to_edges[m].append(e.edge_id)
    return IncidenceIndex(
        node_to_edges={k: tuple(sorted(v)) for k, v in node_to_edges.items()},
        edge_to_nodes=edge_to_nodes,
    )


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "dim": ds.dim,
        "timesteps": ds.timesteps,
        "classes": ds.classes,
        "horizon": ds.horizon,
        "nodes": [
            {"id": n.node_id, "features": n.features.tolist()} for n in ds.nodes
        ],
        "hyperedges": [
            {"id": e.edge_id, "members": list(e.members), "type": e.context_type}
            for e in ds.hyperedges
        ],
        "labels": dict(ds.labels),
        "splits": {k: list(v) for k, v in ds.splits.items()},
    }


def dataset_from_dict(doc: dict) -> Dataset:
    def need(key, kind, where="top level"):
        if key not in doc:
            raise ParseError(f"missing field {key!r} at {where}")
        val = doc[key]
        if not isinstance(val, kind):
            raise ParseError(f"field {key!r} at {where} has wrong type")
        return val

    dim = need("dim", int)
    timesteps = need("timesteps", int)
    classes = need("classes", int)
    horizon = need("horizon", int)
    nodes = []
    for i, nd in enumerate(need("nodes", list)):
        if not isinstance(nd, dict) or "id" not in nd or "features" not in nd:
            raise ParseError(f"nodes[{i}] must have 'id' and 'features'")
        try:
            feats = np.asarray(nd["features"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"nodes[{i}].features is not numeric: {exc}") from exc
        if feats.ndim != 2:
            raise ParseError(f"nodes[{i}].features must be a 2-D list")
        nodes.append(NodeFeatureSeries(str(nd["id"]), feats))
    edges = []
    for i, ed in enumerate(need("hyperedges", list)):
        if not isinstance(ed, dict) or not {"id", "members", "type"} <= set(ed):
            raise ParseError(f"hyperedges[{i}] must have 'id', 'members', 'type'")
        edges.append(
            Hyperedge(str(ed["id"]), tuple(str(m) for m in ed["members"]), str(ed["type"]))
        )
    labels = {str(k): v for k, v in need("labels", dict).items()}
    splits_doc = need("splits", dict)
    splits = {}
    for name in SPLIT_NAMES:
        if name not in splits_doc:
            raise ParseError(f"missing split {name!r} in 'splits'")
        splits[name] = [str(x) for x in splits_doc[name]]
    ds = Dataset(dim, timesteps, classes, horizon, nodes, edges, labels, splits)
    ds.validate()
    return ds


def save_dataset(ds: Dataset, path: str) -> None:
    write_json(path, dataset_to_dict(ds))


def load_dataset(path: str) -> Dataset:
    return dataset_from_dict(read_json(path))


def feature_dropout(ds: Dataset, rate: float, rng: np.random.Generator) -> Dataset:
    """Zero each feature entry independently with probability ``rate``.

    Labels and structure are untouched; deterministic given the generator
    state.
    """
    if not (0.0 <= rate < 1.0):
        raise ContractViolation(f"dropout rate must be in [0, 1), got {rate}")
    nodes = []
    for n in ds.nodes:
        if rate == 0.0:
            nodes.append(NodeFeatureSeries(n.node_id, n.features.copy()))
            continue
        keep = rng.random(n.features.shape) >= rate
        nodes.append(NodeFeatureSeries(n.node_id, n.features * keep))
    return Dataset(
        dim=ds.dim,
        timesteps=ds.timesteps,
        classes=ds.classes,
        horizon=ds.horizon,
        nodes=nodes,
        hyperedges=list(ds.hyperedges),
        labels=dict(ds.labels),
        splits={k: list(v) for k, v in ds.splits.items()},
    )
