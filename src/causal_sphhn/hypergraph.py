"""Dynamic social hypergraph data model and dataset ingestion.

A dataset bundles per-node time-indexed feature matrices, hyperedges
(multi-party contexts), per-node class labels at a fixed prediction
horizon, and train/val/test node splits.  Hyperedges are static over time;
isolated nodes are legal.

File format, version 2: a JSON document and a ``.npy`` feature block.

``<stem>.json`` (UTF-8)::

    {"format": 2, "dim": d, "timesteps": T, "classes": C, "horizon": h,
     "features": {"file": "<stem>.npy", "sha256": hex},
     "nodes": [id, ...],
     "hyperedges": [{"id": str, "members": [...], "type": str}],
     "labels": {id: int},
     "splits": {"train": [...], "val": [...], "test": [...]}}

``<stem>.npy`` beside it holds every node's features as one float64
array of shape (N, T, d) in the NumPy ``.npy`` format: row i is node
``nodes[i]``, time-major.  The block is named after the document's stem,
so datasets saved into one directory keep separate blocks, and the
document records the block's SHA-256, so a digest of the document covers
the features.  ``save_dataset`` writes the block first and the document
second, each atomically; a block that does not match its document (stale,
swapped, another dtype or shape) fails to load.  A document without
``"format": 2`` is refused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .artifacts import check_fields, read_json, read_npy, write_json, write_npy
from .errors import ContractViolation, ParseError, ValidationError, naming

SPLIT_NAMES = ("train", "val", "test")
FORMAT = 2


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
            if not (type(lab) is int and 0 <= lab < self.classes):  # a bool is not a label
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


def block_path(path: str) -> str:
    """The feature block beside the dataset document at ``path``."""
    stem, ext = os.path.splitext(path)
    if ext == ".npy":
        raise ContractViolation(f"{path}: a dataset document cannot share its block's .npy name")
    return stem + ".npy"


def dataset_to_dict(ds: Dataset, block: dict) -> dict:
    """The dataset document; ``block`` is its feature block's {"file", "sha256"}."""
    return {
        "format": FORMAT,
        "dim": ds.dim,
        "timesteps": ds.timesteps,
        "classes": ds.classes,
        "horizon": ds.horizon,
        "features": block,
        "nodes": [n.node_id for n in ds.nodes],
        "hyperedges": [
            {"id": e.edge_id, "members": list(e.members), "type": e.context_type}
            for e in ds.hyperedges
        ],
        "labels": dict(ds.labels),
        "splits": {k: list(v) for k, v in ds.splits.items()},
    }


# The document's schema for ``check_fields``; ``_block_entry`` checks the format and features first.
_DOCUMENT = {"dim": int, "timesteps": int, "classes": int, "horizon": int, "nodes": list[str],
             "hyperedges": list, "labels": dict, "splits": dict.fromkeys(SPLIT_NAMES, list[str])}
_HYPEREDGE = {"id": str, "members": tuple[str, ...], "type": str}


def _block_entry(doc: dict) -> tuple[str, str]:
    """The (file name, SHA-256) of a document's feature block."""
    if doc.get("format") != FORMAT:
        raise ParseError(f"unsupported dataset format {doc.get('format')!r} (expected {FORMAT})")
    entry = check_fields({"features": {"file": str, "sha256": str}}, doc)["features"]
    name = entry["file"]
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ParseError(f"features file {name!r} must be a file name in the dataset's directory")
    return name, entry["sha256"]


def dataset_from_dict(doc: dict, features: np.ndarray) -> Dataset:
    """The dataset a document describes, with ``features`` as its (N, T, d) block."""
    doc = check_fields(_DOCUMENT, doc)
    ids, timesteps, dim = doc["nodes"], doc["timesteps"], doc["dim"]
    if features.dtype != np.float64:
        raise ParseError(f"features block has dtype {features.dtype}, expected float64")
    if features.shape != (len(ids), timesteps, dim):
        raise ParseError(
            f"features block has shape {features.shape}, expected "
            f"(nodes, timesteps, dim) = {(len(ids), timesteps, dim)}"
        )
    nodes = [NodeFeatureSeries(i, row) for i, row in zip(ids, features)]
    edges = []
    for i, ed in enumerate(doc["hyperedges"]):
        ed = check_fields(_HYPEREDGE, ed, f"hyperedges[{i}]")
        edges.append(Hyperedge(ed["id"], ed["members"], ed["type"]))
    splits = {name: doc["splits"][name] for name in SPLIT_NAMES}
    ds = Dataset(dim, timesteps, doc["classes"], doc["horizon"], nodes, edges, doc["labels"], splits)
    ds.validate()
    return ds


def _feature_block(ds: Dataset) -> np.ndarray:
    """The (N, T, d) float64 block whose row i is node i's features.

    ``generate`` and ``load_dataset`` give every node a row of one such
    block, in order; that block is returned as it is, with no copy.  Other
    features are stacked into a new block.
    """
    rows = [n.features for n in ds.nodes]
    block = rows[0].base if rows else None
    if (
        isinstance(block, np.ndarray)
        and block.dtype == np.float64
        and block.shape == (len(rows), ds.timesteps, ds.dim)
        and all(r.__array_interface__ == block[i].__array_interface__ for i, r in enumerate(rows))
    ):
        return block
    return np.stack(rows, dtype=np.float64) if rows else np.empty((0, ds.timesteps, ds.dim))


def save_dataset(ds: Dataset, path: str) -> str:
    """Write the feature block, then the document that records its digest.

    Returns the block's SHA-256.
    """
    block = block_path(path)
    sha256 = write_npy(block, _feature_block(ds))
    write_json(path, dataset_to_dict(ds, {"file": os.path.basename(block), "sha256": sha256}))
    return sha256


def load_dataset(path: str) -> Dataset:
    doc = read_json(path)
    with naming(path):
        name, sha256 = _block_entry(doc)
        features = read_npy(os.path.join(os.path.dirname(path), name), sha256)
        return dataset_from_dict(doc, features)


def feature_dropout(ds: Dataset, rate: float, rng: np.random.Generator) -> Dataset:
    """Zero each feature entry independently with probability ``rate``.

    Labels and structure are untouched; deterministic given the generator
    state.
    """
    if not (0.0 <= rate < 1.0):
        raise ContractViolation(f"dropout rate must be in [0, 1), got {rate}")
    nodes = [NodeFeatureSeries(n.node_id, n.features * (rng.random(n.features.shape) >= rate)) for n in ds.nodes]
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
