import ast
import errno
import hashlib
import io
import os
import pathlib
import pickle
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_sphhn import artifacts
from causal_sphhn.artifacts import check_fields, doc_digest, file_digest, read_json, read_npy, write_json, write_npy
from causal_sphhn.errors import ContractViolation, ParseError

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "causal_sphhn"
FILE_CALLS = {
    "open", "json.load", "json.dump", "os.replace", "os.rename", "os.remove", "os.unlink", "os.makedirs", "os.mkdir",
    "np.save", "np.load", "np.savez", "np.savez_compressed", "np.fromfile", "np.memmap",
    "np.loadtxt", "np.savetxt", "np.genfromtxt", ".tofile",
}
MODULE_NAMES = {"json": "json", "os": "os", "numpy": "np", "np": "np"}


def callee(func: ast.expr) -> str:
    """``func`` as FILE_CALLS spells it: ``np.`` for numpy, ``.name`` for a method."""
    if isinstance(func, ast.Attribute):
        if "." + func.attr in FILE_CALLS:
            return "." + func.attr
        if isinstance(func.value, ast.Name) and func.value.id in MODULE_NAMES:
            return f"{MODULE_NAMES[func.value.id]}.{func.attr}"
    return ast.unparse(func)


def file_calls(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, callee) of each call in ``path`` that opens, parses or moves a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and callee(node.func) in FILE_CALLS:
            found.append((node.lineno, callee(node.func)))
        elif isinstance(node, ast.ImportFrom) and node.module in MODULE_NAMES:
            names = [f"{MODULE_NAMES[node.module]}.{a.name}" for a in node.names]
            found += [(node.lineno, name) for name in names if name in FILE_CALLS]
    return found


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.load('f.npy')",
    "import numpy\nnumpy.save('f.npy', x)",
    "from numpy import memmap",
    "x.tofile('f.bin')",
    "from os import replace",
])
def test_file_call_forms_are_found(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert file_calls(path)


def test_only_artifacts_touches_the_filesystem():
    calls = {p.name: file_calls(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert calls.pop("artifacts.py"), "the walk must find artifacts.py's own file calls"
    assert {name: found for name, found in calls.items() if found} == {}


@pytest.mark.parametrize(
    "content", [None, b'{"a": 1,', b"[1, 2]", b"\xff\xfe{}"],
    ids=["missing", "invalid_json", "not_an_object", "not_utf8"],
)
def test_read_failure_names_the_path(tmp_path, content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ParseError, match=re.escape(str(path))):
        read_json(str(path))


def test_write_creates_the_directory_and_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "new" / "doc.json")
    write_json(path, {"b": [1.5, None], "a": "x"})
    assert read_json(path) == {"b": [1.5, None], "a": "x"}
    assert os.listdir(tmp_path / "new") == ["doc.json"]


def test_write_failure_names_the_path(tmp_path):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / "file" / "doc.json")
    with pytest.raises(ContractViolation, match=re.escape(str(path))):
        write_json(path, {})


def test_failed_write_removes_the_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    write_json(str(path), {"a": 1})

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(artifacts, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
    with pytest.raises(ContractViolation, match=re.escape(str(path))):
        write_json(str(path), {"a": 2})
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["doc.json"]
    assert read_json(str(path)) == {"a": 1}


def test_npy_round_trip_is_exact(tmp_path):
    array = np.array([[0.0, -0.0], [5e-324, -1e300]])
    path = str(tmp_path / "new" / "a.npy")
    sha256 = write_npy(path, array)
    assert sha256 == file_digest(path)
    back = read_npy(path, sha256)
    assert back.dtype == array.dtype and back.tobytes() == array.tobytes()
    assert os.listdir(tmp_path / "new") == ["a.npy"]


VALUES = st.floats(width=64) | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6), elements=VALUES),
       st.booleans())
def test_npy_bytes_are_np_save_bytes(tmp_path_factory, array, fortran):
    if fortran:
        array = np.asfortranarray(array)
    path = str(tmp_path_factory.getbasetemp() / "property.npy")
    sha256 = write_npy(path, array)
    expected = io.BytesIO()
    np.save(expected, np.ascontiguousarray(array))
    written = pathlib.Path(path).read_bytes()
    assert written == expected.getvalue()
    assert sha256 == hashlib.sha256(written).hexdigest()
    back = read_npy(path, sha256)
    assert back.flags.c_contiguous and back.flags.writeable
    assert back.dtype == array.dtype and back.shape == array.shape and back.tobytes() == array.tobytes()


def _bytes(data):
    def write(path):
        pathlib.Path(path).write_bytes(data)
        return file_digest(path)
    return write


def _npz(path):
    np.savez(path, a=np.zeros(2))
    os.replace(path + ".npz", path)
    return file_digest(path)


def _edited(edit):
    """A block of 3 floats whose file bytes ``edit`` changes after its digest is recorded."""
    def write(path):
        digest = write_npy(path, np.arange(3.0))
        pathlib.Path(path).write_bytes(edit(pathlib.Path(path).read_bytes()))
        return digest
    return write


def _object_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.array([1, None], dtype=object), allow_pickle=True)
    return file_digest(path)


# Each writes a faulty file at the path and returns the digest to read it with.
NPY_FAULTS = {
    "missing": lambda path: "0" * 64,
    "digest_mismatch": lambda path: write_npy(path, np.zeros(3)) and "0" * 64,
    "not_npy": _bytes(b"not an array"),
    "truncated": _bytes(b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (9,), }"),
    "npz": _npz,
    "short_data": _edited(lambda data: data[:-8]),
    "trailing_bytes": _edited(lambda data: data + bytes(8)),
    "object_dtype": _object_array,
}


def _no_unpickling(*args, **kwargs):
    raise AssertionError("read_npy unpickled its input")


@pytest.mark.parametrize("fault", list(NPY_FAULTS))
def test_read_npy_failure_names_the_path(tmp_path, monkeypatch, fault):
    path = str(tmp_path / "a.npy")
    digest = NPY_FAULTS[fault](path)
    monkeypatch.setattr(pickle, "load", _no_unpickling)
    monkeypatch.setattr(pickle, "loads", _no_unpickling)
    with pytest.raises(ParseError, match=re.escape(path)):
        read_npy(path, digest)


def test_digests(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"abc")
    assert file_digest(str(path)) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert doc_digest({"a": 1, "b": [2]}) == doc_digest({"b": [2], "a": 1})
    with pytest.raises(ParseError, match=re.escape(str(tmp_path / "gone"))):
        file_digest(str(tmp_path / "gone"))


SCHEMA = {"n": int, "x": float, "pair": tuple[int, str], "rows": tuple[tuple[int, float], ...], "ids": list[str],
          "objs": list[{"id": str, "w": float}]}
VALID = {"n": 3, "x": 2, "pair": [1, "a"], "rows": [[0, 0.5], [1, 2]], "ids": ["a"], "objs": [{"id": "a", "w": 1}]}


def test_check_fields_converts_typed_lists_to_tuples():
    got = check_fields(SCHEMA, VALID)
    assert got == {"n": 3, "x": 2.0, "pair": (1, "a"), "rows": ((0, 0.5), (1, 2.0)), "ids": ["a"],
                   "objs": [{"id": "a", "w": 1.0}]}
    assert type(got["x"]) is float and type(got["rows"][1][1]) is float and type(got["objs"][0]["w"]) is float
    with pytest.raises(ParseError, match=re.escape("unknown field(s) cfg.other")):
        check_fields(SCHEMA, {**VALID, "other": [1]}, "cfg")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": True}, "cfg.n must be int, got True"),
        ({"x": "1.5"}, "cfg.x must be float"),
        ({"pair": [1]}, "cfg.pair must have 2 entries"),
        ({"pair": "ab"}, "cfg.pair must be a list"),
        ({"rows": [[0, 0.5], [0.5, 1.0]]}, "cfg.rows[1][0] must be int, got 0.5"),
        ({"rows": [[0, "0.5"]]}, "cfg.rows[0][1] must be float"),
        ({"ids": ["a", 2]}, "cfg.ids[1] must be str, got 2"),
        ({"n": None}, "missing field cfg.n"),
        ({"objs": [{"id": "a", "w": 1.0}, {"id": "b", "w": "2"}]}, "cfg.objs[1].w must be float"),
        ({"objs": [{"w": 1.0}]}, "missing field cfg.objs[0].id"),
        ({"z": 0, "q": 0}, "unknown field(s) cfg.q, cfg.z"),
        ({"objs": [{"id": "a", "w": 1.0, "q": 0}]}, "unknown field(s) cfg.objs[0].q"),
    ],
)
def test_check_fields_names_the_key_of_a_wrong_type(doc, message):
    """``doc`` changes a valid document; a key set to None is deleted."""
    doc = {k: v for k, v in {**VALID, **doc}.items() if v is not None}
    with pytest.raises(ParseError, match=re.escape(message)):
        check_fields(SCHEMA, doc, "cfg")


def test_check_fields_needs_an_object():
    with pytest.raises(ParseError, match="arch must be an object, not list"):
        check_fields({"n": int}, [1, 2], "arch")
