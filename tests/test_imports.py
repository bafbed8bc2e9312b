"""Importing the package or its CLI loads nothing it does not run.

The package namespace imports each public name from its home module on
first access, and each CLI command imports only the modules it calls, so
``synth`` and ``granger`` never build the model, autodiff, training, vMF or
metrics code.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import causal_sphhn

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

out = sys.argv[1]


def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("causal_sphhn."))


import causal_sphhn

package = loaded()

import causal_sphhn.cli

cli = loaded()
codes = [
    causal_sphhn.cli.main(["synth", "--preset", "toy", "--out", out]),
    causal_sphhn.cli.main(["granger", "--dataset", f"{out}/dataset.json", "--out", out]),
]
print(json.dumps({"package": package, "cli": cli, "codes": codes, "commands": loaded()}))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("run"))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module(loaded):
    assert loaded["package"] == []


def test_importing_the_cli_loads_neither_numpy_nor_a_working_module(loaded):
    assert loaded["cli"] == ["causal_sphhn.cli", "causal_sphhn.errors"]


def test_synth_and_granger_load_no_model_code(loaded):
    assert loaded["codes"] == [0, 0]
    assert "numpy" in loaded["commands"]
    unused = {f"causal_sphhn.{m}" for m in ("model", "autodiff", "training", "vmf", "metrics")}
    assert unused.isdisjoint(loaded["commands"])


@pytest.mark.parametrize("name", causal_sphhn.__all__)
def test_every_public_name_resolves_to_its_home_module(name):
    obj = getattr(causal_sphhn, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("causal_sphhn.")
    assert getattr(home, name) is obj


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        causal_sphhn.no_such_name


def test_from_import_of_a_module_returns_the_submodule():
    from causal_sphhn import granger

    assert granger is sys.modules["causal_sphhn.granger"]
    assert granger.infer_causal_graph is causal_sphhn.infer_causal_graph
