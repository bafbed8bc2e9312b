import dataclasses
import hashlib
import json
import os
import pathlib
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn import hypergraph
from causal_sphhn.artifacts import write_npy
from causal_sphhn.cli import main
from causal_sphhn.errors import ContractViolation, ParseError, ValidationError
from causal_sphhn.hypergraph import (
    SPLIT_NAMES,
    Dataset,
    Hyperedge,
    feature_dropout,
    load_dataset,
    save_dataset,
)
from causal_sphhn.synthgen import generate, preset


def make_dataset(rng=None, n=6, t=4, d=3, edges=None):
    rng = rng or np.random.default_rng(0)
    ids = [f"n{i}" for i in range(n)]
    features = rng.standard_normal((n, t, d))
    if edges is None:
        edges = [
            Hyperedge("e0", ("n0", "n1", "n2"), "class"),
            Hyperedge("e1", ("n2", "n3"), "activity"),
        ]
    labels = {i: k % 2 for k, i in enumerate(ids)}
    splits = {"train": ids[:3], "val": ids[3:4], "test": ids[4:]}
    return Dataset(ids, features, 2, 1, edges, labels, splits)


def write_pair(path, doc, features):
    """Hand-write a format-3 dataset: ``doc`` at ``path`` and ``features``
    as the ``.npy`` block beside it, with its digest recorded."""
    path = pathlib.Path(path)
    block = path.with_suffix(".npy")
    np.save(block, features, allow_pickle=True)  # lets a test write an object block
    sha256 = hashlib.sha256(block.read_bytes()).hexdigest()
    path.write_text(json.dumps({"format": 3, **doc, "features": {"file": block.name, "sha256": sha256}}))
    return str(path)


class TestLoadSave:
    def test_minimal_file_loads(self, tmp_path):
        doc = {
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
            "classes": 2, "horizon": 1,
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
        ("classes", True, ParseError),
        ("labels", {"a": True, "b": 0}, ValidationError),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, field, value, error):
        doc = {
            "classes": 2, "horizon": 1,
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
        path = write_pair(tmp_path / "missing.json", {"classes": 2}, np.zeros((0, 1, 2)))
        with pytest.raises(ParseError, match="horizon"):
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
    features = np.array(flat, dtype=np.float64).reshape(n, t, d).copy()  # owns its data, as a loaded block does
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
    # A block that owns its data, as a loaded one does, or a reversed view of
    # it, which save_dataset must write in the view's order.
    if draw(st.booleans()):
        ids, features = ids[::-1], features[::-1]
    return Dataset(ids, features, classes, draw(st.integers(1, 3)), edges, labels, splits)


def assert_same_dataset(back, ds):
    assert (back.features.shape, back.classes, back.horizon) == (ds.features.shape, ds.classes, ds.horizon)
    assert back.node_ids == ds.node_ids
    assert [n.node_id for n in back.nodes] == [n.node_id for n in ds.nodes]
    for a, b in zip(back.nodes, ds.nodes):
        assert a.features.dtype == np.float64 and a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
    assert [(e.edge_id, e.members, e.context_type) for e in back.hyperedges] == [
        (e.edge_id, e.members, e.context_type) for e in ds.hyperedges
    ]
    assert back.labels == ds.labels
    assert back.splits == ds.splits


EMPTY = Dataset([], np.empty((0, 1, 1)), 2, 1, [], {}, {name: [] for name in SPLIT_NAMES})
SINGLE = Dataset(["a"], np.array([[[-0.0]]]), 2, 1, [], {"a": 1}, {"train": ["a"], "val": [], "test": []})


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

    def test_a_block_of_rows_is_written_without_a_copy(self, tmp_path, monkeypatch):
        # A generated and a loaded dataset each hold their features as one
        # block, and save_dataset writes that block itself.
        written = []

        def recording(path, array):
            written.append(array)
            return write_npy(path, array)

        monkeypatch.setattr(hypergraph, "write_npy", recording)
        generated, _ = generate(preset("toy"))
        save_dataset(generated, str(tmp_path / "ds.json"))
        loaded = load_dataset(str(tmp_path / "ds.json"))
        save_dataset(loaded, str(tmp_path / "again.json"))
        assert written[0] is generated.features and written[1] is loaded.features
        assert np.shares_memory(written[0], generated.nodes[0].features)
        assert np.shares_memory(written[1], loaded.nodes[0].features)
        assert (tmp_path / "ds.npy").read_bytes() == (tmp_path / "again.npy").read_bytes()

    def test_a_float32_block_is_saved_as_float64(self, tmp_path):
        ds = make_dataset()
        narrow = Dataset(ds.node_ids, ds.features.astype(np.float32), ds.classes, ds.horizon,
                         ds.hyperedges, ds.labels, ds.splits)
        save_dataset(narrow, str(tmp_path / "ds.json"))
        back = load_dataset(str(tmp_path / "ds.json"))
        assert back.features.dtype == np.float64
        assert np.array_equal(back.features, ds.features.astype(np.float32))

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
        write_pair(path, doc, change(ds.features))
    return rewrite


def edit_doc(change):
    """Apply ``change`` to the document in place."""
    def rewrite(path, ds):
        doc = read_doc(path)
        change(doc)
        pathlib.Path(path).write_text(json.dumps(doc))
    return rewrite


def set_file_entry(name):
    return edit_doc(lambda doc: doc["features"].update(file=name))


def set_edge_field(**change):
    return edit_doc(lambda doc: doc["hyperedges"][0].update(change))


BROKEN_FILES = {
    "v1_inline_features": (break_v1, "unsupported dataset format"),
    "format_2": (edit_doc(lambda doc: doc.update(format=2, dim=3, timesteps=4)), "unsupported dataset format 2"),
    "missing_block": (break_missing, "cannot read"),
    "other_seed_block": (break_other_seed, "SHA-256"),
    "wrong_shape": (rewrite_block(lambda f: f[:-1]), "features shape (5, 4, 3)"),
    "scalar_block": (rewrite_block(lambda f: f[0, 0, 0]), "features shape ()"),
    "float32": (rewrite_block(lambda f: f.astype(np.float32)), "float32"),
    "object_dtype": (rewrite_block(lambda f: f.astype(object)), "not a loadable"),
    "parent_dir": (set_file_entry("../ds.npy"), "file name"),
    "sub_dir": (set_file_entry("sub/ds.npy"), "file name"),
    "dot_dot": (set_file_entry(".."), "file name"),
    "int_edge_id": (set_edge_field(id=5), "hyperedges[0].id must be str, got 5"),
    "list_edge_type": (set_edge_field(type=["x"]), "hyperedges[0].type must be str, got ['x']"),
    "str_members": (set_edge_field(members="n0n1"), "hyperedges[0].members must be a list"),
    "int_node_id": (edit_doc(lambda doc: doc["nodes"].__setitem__(0, 0)), "nodes[0] must be str, got 0"),
    "int_split_id": (edit_doc(lambda doc: doc["splits"]["train"].__setitem__(0, 0)),
                     "splits.train[0] must be str, got 0"),
}


@pytest.mark.parametrize("name", list(BROKEN_FILES))
def test_broken_dataset_is_parse_error_naming_the_path(tmp_path, capsys, name):
    breaker, message = BROKEN_FILES[name]
    ds = make_dataset(np.random.default_rng(0))
    path = str(tmp_path / "ds.json")
    save_dataset(ds, path)
    breaker(path, ds)
    # The block's header alone states its shape, which building the Dataset checks against the node list.
    error = ValidationError if name in ("wrong_shape", "scalar_block") else ParseError
    with pytest.raises(error, match=re.escape(path) + ".*" + re.escape(message)):
        load_dataset(path)
    assert main(["granger", "--dataset", path, "--out", str(tmp_path / "out")]) == 1
    assert path in capsys.readouterr().err


class TestFeatureBlock:
    def test_nodes_are_built_once_as_views_of_the_block(self):
        ds = make_dataset(n=5, t=3, d=2)
        assert ds.nodes is ds.nodes
        assert [n.node_id for n in ds.nodes] == ds.node_ids
        for i, node in enumerate(ds.nodes):
            assert np.shares_memory(node.features, ds.features)
            assert node.features.shape == (3, 2) and np.array_equal(node.features, ds.features[i])
        ds.features[2, 1, 0] = 7.5  # a write to the block shows in the node's row
        assert ds.nodes[2].features[1, 0] == 7.5

    def test_a_float64_block_is_held_as_it_is(self):
        block = np.random.default_rng(1).standard_normal((2, 3, 4))
        ds = Dataset(["a", "b"], block, 2, 1, [], {"a": 0, "b": 1}, {"train": ["a", "b"], "val": [], "test": []})
        assert ds.features is block

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_node_with_a_nonfinite_row_is_named(self, bad):
        ds = make_dataset(n=6)
        features = ds.features.copy()
        features[4, 0, 1] = bad
        features[2, 3, 2] = bad
        with pytest.raises(ValidationError, match="node n2: nonfinite features"):
            dataclasses.replace(ds, features=features)

    @pytest.mark.parametrize("shape", [(6, 4), (5, 4, 3), (7, 4, 3), (6, 4, 3, 1), ()])
    def test_a_block_of_the_wrong_shape_is_refused(self, shape):
        ds = make_dataset(n=6, t=4, d=3)
        with pytest.raises(ValidationError, match=re.escape(f"features shape {shape}")):
            dataclasses.replace(ds, features=np.zeros(shape))

    def test_no_timesteps_is_refused(self):
        ds = make_dataset(n=6, t=4, d=3)
        with pytest.raises(ValidationError, match="timesteps must be >= 1"):
            dataclasses.replace(ds, features=np.zeros((6, 0, 3)))

    def test_no_feature_dim_is_refused_at_load(self, tmp_path, capsys):
        # An (N, T, 0) block trained into a checkpoint that eval refused.
        ds = make_dataset(n=6, t=4, d=3)
        path = str(tmp_path / "ds.json")
        save_dataset(ds, path)
        rewrite_block(lambda f: np.zeros((6, 4, 0)))(path, ds)
        assert main(["train", "--dataset", path, "--no-causal", "--out", str(tmp_path / "t")]) == 1
        assert f"{path}: dim must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


class TestSplitsValidation:
    def test_overlapping_splits_rejected(self):
        ds = make_dataset()
        with pytest.raises(ValidationError, match="splits are not disjoint"):
            dataclasses.replace(ds, splits={**ds.splits, "val": ds.splits["train"][:1]})

    def test_uncovered_nodes_rejected(self):
        ds = make_dataset()
        with pytest.raises(ValidationError, match="splits must cover all labeled nodes"):
            dataclasses.replace(ds, splits={**ds.splits, "test": []})

    def test_label_out_of_range_rejected(self):
        ds = make_dataset()
        for label in (7, 2, -1):
            with pytest.raises(ValidationError, match=f"label {label} of node n0 out of range"):
                dataclasses.replace(ds, labels={**ds.labels, "n0": label})

    @pytest.mark.parametrize("label", [1.5, 1.0, True, "1", None])
    def test_label_that_is_not_an_int_is_named(self, label):
        ds = make_dataset()
        with pytest.raises(ValidationError, match=f"label {re.escape(repr(label))} of node n1 must be an int"):
            dataclasses.replace(ds, labels={**ds.labels, "n1": label})


class TestFeatureDropout:
    @staticmethod
    def last(rng, n=6, d=3):
        return rng.standard_normal((n, d))

    def test_rate_zero_identical(self):
        last = self.last(np.random.default_rng(7))
        assert np.array_equal(feature_dropout(last, 0.0, np.random.default_rng(1)), last)

    def test_zeroed_fraction_concentrates(self):
        out = feature_dropout(self.last(np.random.default_rng(8), n=100, d=100), 0.4, np.random.default_rng(2))
        assert abs(np.mean(out == 0.0) - 0.4) < 0.02

    def test_input_is_not_modified(self):
        last = self.last(np.random.default_rng(9))
        before = last.copy()
        out = feature_dropout(last, 0.5, np.random.default_rng(3))
        assert np.array_equal(last, before)
        assert out.shape == last.shape and out.dtype == np.float64
        assert np.array_equal(out[out != 0.0], last[out != 0.0])

    def test_same_seed_reproducible(self):
        last = self.last(np.random.default_rng(10))
        a = feature_dropout(last, 0.3, np.random.default_rng(42))
        b = feature_dropout(last, 0.3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_invalid_rate_rejected(self):
        for rate in (1.0, float("nan"), -0.1):
            with pytest.raises(ContractViolation):
                feature_dropout(self.last(np.random.default_rng(0)), rate, np.random.default_rng(0))

    def test_no_whole_block_is_drawn(self):
        # One (N, T, d) block of small is 20.7 MB; the mask needs only (N, d).
        n, t, d = 540, 200, 24
        last = self.last(np.random.default_rng(12), n=n, d=d)
        tracemalloc.start()
        try:
            feature_dropout(last, 0.2, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * t * d * 8 / 4

    def test_no_nodes(self):
        out = feature_dropout(np.empty((0, 5)), 0.2, np.random.default_rng(5))
        assert out.shape == (0, 5) and out.dtype == np.float64

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("t", [1, 3, 17])
    def test_mask_is_the_last_timestep_of_the_dataset_mask(self, t, seed):
        # The mask on a dataset's last timestep, the model's (N, d) input, is
        # the generator's next (N, d) uniforms entry for entry, so a seed
        # masks the same entries whatever the dataset's timesteps.
        ds = make_dataset(np.random.default_rng(seed), n=9, t=t, d=5)
        last = ds.features[:, -1]
        got = feature_dropout(last, 0.3, np.random.default_rng(seed + 100))
        want = last * (np.random.default_rng(seed + 100).random((9, 5)) >= 0.3)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
