import ast
import os
import pathlib
import re

import pytest

from causal_sphhn.artifacts import doc_digest, file_digest, read_json, write_json
from causal_sphhn.errors import ContractViolation, ParseError

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "causal_sphhn"
FILE_CALLS = {"open", "json.load", "json.dump", "os.replace", "os.rename", "os.makedirs", "os.mkdir"}


def file_calls(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, callee) of each call in ``path`` that opens, parses or moves a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in FILE_CALLS:
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "os"):
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if f"{node.module}.{a.name}" in FILE_CALLS]
    return found


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


def test_digests(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"abc")
    assert file_digest(str(path)) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert doc_digest({"a": 1, "b": [2]}) == doc_digest({"b": [2], "a": 1})
    with pytest.raises(ParseError, match=re.escape(str(tmp_path / "gone"))):
        file_digest(str(tmp_path / "gone"))
