import hashlib
import json
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn.cli import main
from causal_sphhn.errors import ContractViolation, ParseError, ValidationError
from causal_sphhn.hypergraph import (
    SPLIT_NAMES,
    Dataset,
    Hyperedge,
    NodeFeatureSeries,
    feature_dropout,
    load_dataset,
    save_dataset,
)


def make_dataset(rng=None, n=6, t=4, d=3, edges=None):
    rng = rng or np.random.default_rng(0)
    ids = [f"n{i}" for i in range(n)]
    nodes = [NodeFeatureSeries(i, rng.standard_normal((t, d))) for i in ids]
    if edges is None:
        edges = [
            Hyperedge("e0", ("n0", "n1", "n2"), "class"),
            Hyperedge("e1", ("n2", "n3"), "activity"),
        ]
    labels = {i: k % 2 for k, i in enumerate(ids)}
    splits = {"train": ids[:3], "val": ids[3:4], "test": ids[4:]}
    ds = Dataset(d, t, 2, 1, nodes, edges, labels, splits)
    ds.validate()
    return ds


def write_pair(path, doc, features):
    """Hand-write a format-2 dataset: ``doc`` at ``path`` and ``features``
    as the ``.npy`` block beside it, with its digest recorded."""
    path = pathlib.Path(path)
    block = path.with_suffix(".npy")
    np.save(block, features, allow_pickle=True)  # lets a test write an object block
    sha256 = hashlib.sha256(block.read_bytes()).hexdigest()
    path.write_text(json.dumps({"format": 2, **doc, "features": {"file": block.name, "sha256": sha256}}))
    return str(path)


class TestLoadSave:
    def test_minimal_file_loads(self, tmp_path):
        doc = {
            "dim": 2,
            "timesteps": 3,
            "classes": 2,
            "horizon": 1,
            "nodes": ["a", "b"],
            "hyperedges": [{"id": "e", "members": ["a", "b"], "type": "t"}],
            "labels": {"a": 0, "b": 1},
            "splits": {"train": ["a"], "val": ["b"], "test": []},
        }
        features = np.array([[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], [[1.0, 1.1], [1.2, 1.3], [1.4, 1.5]]])
        ds = load_dataset(write_pair(tmp_path / "ds.json", doc, features))
        assert len(ds.nodes) == 2 and ds.classes == 2

    def test_duplicate_member_rejected(self, tmp_path):
        doc = {
            "dim": 1, "timesteps": 1, "classes": 2, "horizon": 1,
            "nodes": ["a", "b"],
            "hyperedges": [{"id": "e", "members": ["a", "a"], "type": "t"}],
            "labels": {"a": 0, "b": 1},
            "splits": {"train": ["a"], "val": ["b"], "test": []},
        }
        path = write_pair(tmp_path / "bad.json", doc, np.array([[[0.0]], [[1.0]]]))
        with pytest.raises(ValidationError):
            load_dataset(path)

    @pytest.mark.parametrize("field, value, error", [
        ("horizon", False, ParseError),
        ("dim", True, ParseError),
        ("labels", {"a": True, "b": 0}, ValidationError),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, field, value, error):
        doc = {
            "dim": 1, "timesteps": 1, "classes": 2, "horizon": 1,
            "nodes": ["a", "b"],
            "hyperedges": [{"id": "e", "members": ["a", "b"], "type": "t"}],
            "labels": {"a": 0, "b": 1},
            "splits": {"train": ["a"], "val": ["b"], "test": []},
        }
        doc[field] = value
        path = write_pair(tmp_path / "bool.json", doc, np.array([[[0.0]], [[1.0]]]))
        with pytest.raises(error):
            load_dataset(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "nope"')
        with pytest.raises(ParseError, match="line"):
            load_dataset(str(path))

    def test_missing_field_reported(self, tmp_path):
        path = write_pair(tmp_path / "missing.json", {"dim": 2}, np.zeros((0, 1, 2)))
        with pytest.raises(ParseError, match="timesteps"):
            load_dataset(path)

    def test_round_trip_structural_equality(self, tmp_path):
        ds = make_dataset(np.random.default_rng(5))
        path = str(tmp_path / "ds.json")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert [n.node_id for n in back.nodes] == [n.node_id for n in ds.nodes]
        for a, b in zip(ds.nodes, back.nodes):
            assert np.array_equal(a.features, b.features)
        assert back.labels == ds.labels
        assert back.splits == ds.splits
        assert [(e.edge_id, e.members, e.context_type) for e in back.hyperedges] == [
            (e.edge_id, e.members, e.context_type) for e in ds.hyperedges
        ]

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = make_dataset(np.random.default_rng(6))
        # The document names its block, so the two copies go to two
        # directories under one name.
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(ds, str(a / "ds.json"))
        save_dataset(ds, str(b / "ds.json"))
        for name in ("ds.json", "ds.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert sorted(os.listdir(a)) == ["ds.json", "ds.npy"]


# Exact values a text format or a careless copy could change: signed zero,
# subnormals, and magnitudes near the float64 limits.
EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e300, -1e300])


@st.composite
def datasets(draw):
    """Valid datasets: N = 0 to 8, T and d from 1, ragged hyperedges of 2-6."""
    n = draw(st.integers(0, 8))
    t, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    values = st.one_of(EDGE_VALUES, st.floats(allow_nan=False, allow_infinity=False))
    flat = draw(st.lists(values, min_size=n * t * d, max_size=n * t * d))
    features = np.array(flat, dtype=np.float64).reshape(n, t, d)
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True))
    edges = []
    if n >= 2:
        for k in range(draw(st.integers(0, 5))):
            members = draw(st.permutations(ids))[: draw(st.integers(2, min(6, n)))]
            edges.append(Hyperedge(f"e{k}", tuple(members), draw(st.sampled_from(["class", "club"]))))
    classes = draw(st.integers(2, 4))
    labels = {i: draw(st.integers(0, classes - 1)) for i in ids}
    splits = {name: [] for name in SPLIT_NAMES}
    for i in ids:
        splits[draw(st.sampled_from(SPLIT_NAMES))].append(i)
    nodes = [NodeFeatureSeries(i, row) for i, row in zip(ids, features)]
    ds = Dataset(d, t, classes, draw(st.integers(0, 3)), nodes, edges, labels, splits)
    ds.validate()
    return ds


def assert_same_dataset(back, ds):
    assert (back.dim, back.timesteps, back.classes, back.horizon) == (
        ds.dim, ds.timesteps, ds.classes, ds.horizon)
    assert [n.node_id for n in back.nodes] == [n.node_id for n in ds.nodes]
    for a, b in zip(back.nodes, ds.nodes):
        assert a.features.dtype == np.float64 and a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
    assert [(e.edge_id, e.members, e.context_type) for e in back.hyperedges] == [
        (e.edge_id, e.members, e.context_type) for e in ds.hyperedges
    ]
    assert back.labels == ds.labels
    assert back.splits == ds.splits


EMPTY = Dataset(1, 1, 2, 0, [], [], {}, {name: [] for name in SPLIT_NAMES})
SINGLE = Dataset(1, 1, 2, 1, [NodeFeatureSeries("a", np.array([[-0.0]]))], [], {"a": 1},
                 {"train": ["a"], "val": [], "test": []})


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(datasets(), datasets())
    @example(EMPTY, SINGLE)
    def test_save_load_is_exact(self, first, second):
        # Two datasets side by side in one directory each load their own block.
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")]
            for ds, path in zip((first, second), paths):
                save_dataset(ds, path)
            for ds, path in zip((first, second), paths):
                assert_same_dataset(load_dataset(path), ds)

    def test_npy_name_is_refused(self, tmp_path):
        with pytest.raises(ContractViolation, match="npy"):
            save_dataset(make_dataset(), str(tmp_path / "ds.npy"))


def read_doc(path):
    return json.loads(pathlib.Path(path).read_text())


def break_v1(path, ds):
    doc = read_doc(path)
    del doc["format"], doc["features"]
    doc["nodes"] = [{"id": n.node_id, "features": n.features.tolist()} for n in ds.nodes]
    pathlib.Path(path).write_text(json.dumps(doc))


def break_missing(path, ds):
    os.remove(path.replace(".json", ".npy"))


def break_other_seed(path, ds):
    other = path.replace(".json", "_other.json")
    save_dataset(make_dataset(np.random.default_rng(1)), other)
    os.replace(other.replace(".json", ".npy"), path.replace(".json", ".npy"))


def rewrite_block(change):
    """Replace the block by ``change`` of the stacked features, digest updated."""
    def rewrite(path, ds):
        doc = read_doc(path)
        del doc["format"], doc["features"]
        write_pair(path, doc, change(np.stack([n.features for n in ds.nodes])))
    return rewrite


def set_file_entry(name):
    def rewrite(path, ds):
        doc = read_doc(path)
        doc["features"]["file"] = name
        pathlib.Path(path).write_text(json.dumps(doc))
    return rewrite


BROKEN_FILES = {
    "v1_inline_features": (break_v1, "unsupported dataset format"),
    "missing_block": (break_missing, "cannot read"),
    "other_seed_block": (break_other_seed, "SHA-256"),
    "wrong_shape": (rewrite_block(lambda f: f[:, :, :-1]), "shape"),
    "float32": (rewrite_block(lambda f: f.astype(np.float32)), "float32"),
    "object_dtype": (rewrite_block(lambda f: f.astype(object)), "not a loadable"),
    "parent_dir": (set_file_entry("../ds.npy"), "file name"),
    "sub_dir": (set_file_entry("sub/ds.npy"), "file name"),
    "dot_dot": (set_file_entry(".."), "file name"),
}


@pytest.mark.parametrize("name", list(BROKEN_FILES))
def test_broken_dataset_is_parse_error_naming_the_path(tmp_path, capsys, name):
    breaker, message = BROKEN_FILES[name]
    ds = make_dataset(np.random.default_rng(0))
    path = str(tmp_path / "ds.json")
    save_dataset(ds, path)
    breaker(path, ds)
    with pytest.raises(ParseError, match=re.escape(path) + ".*" + message):
        load_dataset(path)
    assert main(["granger", "--dataset", path, "--out", str(tmp_path / "out")]) == 1
    assert path in capsys.readouterr().err


class TestSplitsValidation:
    def test_overlapping_splits_rejected(self):
        ds = make_dataset()
        ds.splits["val"] = ds.splits["train"][:1]
        with pytest.raises(ValidationError):
            ds.validate()

    def test_uncovered_nodes_rejected(self):
        ds = make_dataset()
        ds.splits["test"] = []
        with pytest.raises(ValidationError):
            ds.validate()

    def test_label_out_of_range_rejected(self):
        ds = make_dataset()
        ds.labels["n0"] = 7
        with pytest.raises(ValidationError):
            ds.validate()


class TestFeatureDropout:
    def test_rate_zero_identical(self):
        ds = make_dataset(np.random.default_rng(7))
        out = feature_dropout(ds, 0.0, np.random.default_rng(1))
        for a, b in zip(ds.nodes, out.nodes):
            assert np.array_equal(a.features, b.features)

    def test_zeroed_fraction_concentrates(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, n=10, t=100, d=10, edges=[Hyperedge("e0", ("n0", "n1"), "c")])
        out = feature_dropout(ds, 0.4, np.random.default_rng(2))
        total = sum(n.features.size for n in out.nodes)
        zeroed = sum(int((n.features == 0.0).sum()) for n in out.nodes)
        assert abs(zeroed / total - 0.4) < 0.02

    def test_labels_and_structure_untouched(self):
        ds = make_dataset(np.random.default_rng(9))
        out = feature_dropout(ds, 0.5, np.random.default_rng(3))
        assert out.labels == ds.labels
        assert [e.members for e in out.hyperedges] == [e.members for e in ds.hyperedges]

    def test_same_seed_reproducible(self):
        ds = make_dataset(np.random.default_rng(10))
        a = feature_dropout(ds, 0.3, np.random.default_rng(42))
        b = feature_dropout(ds, 0.3, np.random.default_rng(42))
        for x, z in zip(a.nodes, b.nodes):
            assert np.array_equal(x.features, z.features)

    def test_invalid_rate_rejected(self):
        ds = make_dataset()
        with pytest.raises(ContractViolation):
            feature_dropout(ds, 1.0, np.random.default_rng(0))
