"""Dynamic social hypergraph data model and dataset ingestion.

A dataset bundles its nodes' time-indexed features, hyperedges
(multi-party contexts), per-node class labels at a fixed prediction
horizon, and train/val/test node splits.  Hyperedges are static over time;
isolated nodes are legal.  In memory as on disk, the features are one
(N, T, d) float64 block whose row i is node i; a node's
``NodeFeatureSeries`` is a view of its row.

File format, version 3: a JSON document and a ``.npy`` feature block.

``<stem>.json`` (UTF-8)::

    {"format": 3, "classes": C, "horizon": h,
     "features": {"file": "<stem>.npy", "sha256": hex},
     "nodes": [id, ...],
     "hyperedges": [{"id": str, "members": [...], "type": str}],
     "labels": {id: int},
     "splits": {"train": [...], "val": [...], "test": [...]}}

``<stem>.npy`` beside it holds every node's features as one float64
array of shape (N, T, d) in the NumPy ``.npy`` format: row i is node
``nodes[i]``, time-major.  The block's header is the one statement of T
and d.  The block is named after the document's stem, so datasets saved
into one directory keep separate blocks, and the document records the
block's SHA-256, so a digest of the document covers the features.
``save_dataset`` writes the block first and the document second, each
atomically; a block that does not match its document (stale, swapped,
another dtype, or not one row per node) fails to load.  A document
without ``"format": 3``, or with a key, at any level, that this format does
not list, is refused.

A ``Dataset`` checks itself when built, so one that exists is valid: no
caller validates it, and the model does not check its labels or members again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .artifacts import check_fields, read_json, read_npy, write_json, write_npy
from .errors import ContractViolation, ParseError, ValidationError, naming

SPLIT_NAMES = ("train", "val", "test")
FORMAT = 3


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

    Building one checks each rule of a dataset and raises ValidationError
    on the first it breaks; ``dataclasses.replace`` builds, so checks, a new
    one.  ``np.asarray`` converts a block of another dtype rather than
    refusing it, so ``load_dataset`` checks that the file's block is float64.
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
        if self.classes < 2:
            raise ValidationError(f"classes must be >= 2, got {self.classes}")
        if self.features.ndim != 3 or self.features.shape[0] != len(self.node_ids):
            raise ValidationError(
                f"features shape {self.features.shape} is not (nodes, timesteps, dim) "
                f"for {len(self.node_ids)} nodes"
            )
        for name, size in zip(("timesteps", "dim"), self.features.shape[1:]):
            if size < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        self.nodes = [NodeFeatureSeries(i, row) for i, row in zip(self.node_ids, self.features)]
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
            if type(lab) is not int:  # a bool is not a label
                raise ValidationError(f"label {lab!r} of node {nid} must be an int")
            if not 0 <= lab < self.classes:
                raise ValidationError(f"label {lab!r} of node {nid} out of range")
        seen: dict[str, str] = {}  # node id -> the split that lists it
        for name in SPLIT_NAMES:
            if name not in self.splits:
                raise ValidationError(f"missing split {name!r}")
            for nid in self.splits[name]:
                if nid in seen:
                    raise ValidationError(f"split {name!r} lists node {nid} twice" if seen[nid] == name
                                          else "splits are not disjoint")
                seen[nid] = name
        if seen.keys() != idset:
            raise ValidationError("splits must cover all labeled nodes")

    def node_index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}


def block_path(path: str) -> str:
    """The feature block beside the dataset document at ``path``."""
    stem, ext = os.path.splitext(path)
    if ext == ".npy":
        raise ContractViolation(f"{path}: a dataset document cannot share its block's .npy name")
    return stem + ".npy"


# The document's schema for ``check_fields``; ``load_dataset`` checks the format value first.
_HYPEREDGE = {"id": str, "members": tuple[str, ...], "type": str}
_DOCUMENT = {"format": int, "classes": int, "horizon": int, "features": {"file": str, "sha256": str},
             "nodes": list[str], "hyperedges": list[_HYPEREDGE], "labels": dict,
             "splits": dict.fromkeys(SPLIT_NAMES, list[str])}


def save_dataset(ds: Dataset, path: str) -> str:
    """Write the feature block, then the document that records its digest.

    Returns the block's SHA-256.
    """
    block = block_path(path)
    sha256 = write_npy(block, ds.features)
    write_json(path, {
        "format": FORMAT,
        "classes": ds.classes,
        "horizon": ds.horizon,
        "features": {"file": os.path.basename(block), "sha256": sha256},
        "nodes": list(ds.node_ids),
        "hyperedges": [
            {"id": e.edge_id, "members": list(e.members), "type": e.context_type}
            for e in ds.hyperedges
        ],
        "labels": dict(ds.labels),
        "splits": {k: list(v) for k, v in ds.splits.items()},
    })
    return sha256


def load_dataset(path: str) -> Dataset:
    doc = read_json(path)
    with naming(path):
        if doc.get("format") != FORMAT:
            raise ParseError(f"unsupported dataset format {doc.get('format')!r} (expected {FORMAT})")
        doc = check_fields(_DOCUMENT, doc)
        name = doc["features"]["file"]
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ParseError(f"features file {name!r} must be a file name in the dataset's directory")
        features = read_npy(os.path.join(os.path.dirname(path), name), doc["features"]["sha256"])
        if features.dtype != np.float64:
            raise ParseError(f"features block has dtype {features.dtype}, expected float64")
        edges = [Hyperedge(e["id"], e["members"], e["type"]) for e in doc["hyperedges"]]
        splits = {split: doc["splits"][split] for split in SPLIT_NAMES}
        return Dataset(doc["nodes"], features, doc["classes"], doc["horizon"], edges, doc["labels"], splits)


def feature_dropout(features: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each entry of the model's (N, d) input features independently
    with probability ``rate``, in one (N, d) draw; deterministic given the
    generator state."""
    if not (0.0 <= rate < 1.0):
        raise ContractViolation(f"dropout rate must be in [0, 1), got {rate}")
    return features * (rng.random(features.shape) >= rate)
