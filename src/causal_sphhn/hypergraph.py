"""Dynamic social hypergraph data model and dataset ingestion.

A dataset bundles its nodes' time-indexed features, hyperedges
(multi-party contexts), per-node class labels at a fixed prediction
horizon, and train/val/test node splits.  Hyperedges are static over time;
isolated nodes are legal.  In memory as on disk, the features are one
(N, T, d) float64 block whose row i is node i; a node's
``NodeFeatureSeries`` is a view of its row.

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
from dataclasses import dataclass, field

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
    """A dataset in memory: ``features`` is its one (N, T, d) float64 block,
    row i is node ``node_ids[i]``, time-major; ``dim`` and ``timesteps`` are
    read off its shape.

    ``nodes`` is built once, on construction, as the block's rows: each
    node's ``features`` is a view of ``features[i]``, not a copy.  Nothing
    reassigns ``features`` afterwards, so the views cannot go stale.
    """

    node_ids: list[str]
    features: np.ndarray
    classes: int
    horizon: int
    hyperedges: list[Hyperedge]
    labels: dict[str, int]
    splits: dict[str, list[str]]
    nodes: list[NodeFeatureSeries] = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.nodes = [NodeFeatureSeries(i, row) for i, row in zip(self.node_ids, self.features)]

    def node_index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    def validate(self) -> None:
        if self.classes < 2:
            raise ValidationError(f"classes must be >= 2, got {self.classes}")
        if self.features.ndim != 3 or self.features.shape[0] != len(self.node_ids):
            raise ValidationError(
                f"features shape {self.features.shape} is not (nodes, timesteps, dim) "
                f"for {len(self.node_ids)} nodes"
            )
        if self.features.shape[1] < 1:
            raise ValidationError("timesteps must be >= 1")
        ids = self.node_ids
        idset = set(ids)
        if len(idset) != len(ids):
            raise ValidationError("duplicate node ids")
        for nid, row in zip(ids, self.features):  # one row's mask at a time, not the block's
            if not np.all(np.isfinite(row)):
                raise ValidationError(f"node {nid}: nonfinite features")
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
    _, timesteps, dim = ds.features.shape
    return {
        "format": FORMAT,
        "dim": dim,
        "timesteps": timesteps,
        "classes": ds.classes,
        "horizon": ds.horizon,
        "features": block,
        "nodes": list(ds.node_ids),
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
    edges = []
    for i, ed in enumerate(doc["hyperedges"]):
        ed = check_fields(_HYPEREDGE, ed, f"hyperedges[{i}]")
        edges.append(Hyperedge(ed["id"], ed["members"], ed["type"]))
    splits = {name: doc["splits"][name] for name in SPLIT_NAMES}
    ds = Dataset(ids, features, doc["classes"], doc["horizon"], edges, doc["labels"], splits)
    ds.validate()
    return ds


def save_dataset(ds: Dataset, path: str) -> str:
    """Write the feature block, then the document that records its digest.

    Returns the block's SHA-256.
    """
    block = block_path(path)
    sha256 = write_npy(block, ds.features)
    write_json(path, dataset_to_dict(ds, {"file": os.path.basename(block), "sha256": sha256}))
    return sha256


def load_dataset(path: str) -> Dataset:
    doc = read_json(path)
    with naming(path):
        name, sha256 = _block_entry(doc)
        features = read_npy(os.path.join(os.path.dirname(path), name), sha256)
        return dataset_from_dict(doc, features)


def feature_dropout(last: np.ndarray, timesteps: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each entry of the (N, d) last-timestep features independently
    with probability ``rate``; deterministic given the generator state.

    Node by node, the mask is the last timestep of a (timesteps, d) draw.
    The draws take the generator's stream in the order the per-node masks of
    a whole feature block took it, so a seed keeps masking the entries it
    always masked, although only the timestep the model reads is kept, and
    no (N, timesteps, d) block is drawn.
    """
    if not (0.0 <= rate < 1.0):
        raise ContractViolation(f"dropout rate must be in [0, 1), got {rate}")
    n, d = last.shape
    draws = np.empty((n, d))
    for row in draws:  # one (timesteps, d) draw alive at a time
        row[:] = rng.random((timesteps, d))[-1]
    return last * (draws >= rate)
