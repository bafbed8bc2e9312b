import ast
import dataclasses
import importlib
import inspect
import itertools
import pathlib
import typing

import numpy as np
import pytest

import causal_sphhn
from causal_sphhn import autodiff as ad
from causal_sphhn import cli, granger, synthgen, training
from causal_sphhn.model import ModelConfig, compile_structure, init_params

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "causal_sphhn"


def definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every non-dunder top-level def, class and method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{module}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return found


def references(tree: ast.Module) -> set[str]:
    """Every name the module loads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(package: pathlib.Path) -> set[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(package.glob("*.py"))}
    used = set().union(*(references(t) for t in trees.values()))
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name in definitions(tree, module)
        if name not in used
    }


def test_every_definition_is_used_or_exported():
    """Each definition in the package is referenced in it by name, or is in ``__all__``.

    A helper only its own tests call belongs in ``tests/`` or nowhere.  A
    name check cannot see two kinds of dead code: dunders (Python calls
    ``__pow__`` or ``__rsub__`` from an operator, and a module's
    ``__getattr__`` from the import system, so a missing name proves
    nothing), and methods whose name the package also reads as an
    attribute of something else, numpy arrays above all: ``Tensor.sum``
    counts as used wherever ``x.sum()`` appears, and so would a ``.log``.
    For the autodiff ops, :func:`test_every_autodiff_op_runs_in_training`
    closes that gap.
    """
    exported = {
        f"{getattr(causal_sphhn, name).__module__.rsplit('.', 1)[-1]}.{name}"
        for name in causal_sphhn.__all__
    }
    assert unreferenced(PACKAGE) - exported == set()


def test_unused_definitions_are_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "    def __add__(self, o): pass\n"
        "def helper(): return A().used()\n"
        "def orphan(): pass\n"
        "def __getattr__(name): pass\n"
        "helper()\n"
    )
    assert unreferenced(tmp_path) == {"mod.A.dead", "mod.orphan"}


def test_every_config_checks_itself_when_built():
    """Each frozen ``*Config`` dataclass, and each dataclass a loader
    (``load_*`` or ``<class>.load``) returns, checks its rules in ``__post_init__``.

    A config, dataset or graph that exists is valid: no caller has to remember a ``validate()``.
    """
    modules = [importlib.import_module(f"causal_sphhn.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    configs = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__name__.endswith("Config")
        and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    }
    assert {c.__name__ for c in configs} >= {"GrangerConfig", "ModelConfig", "SynthConfig", "TrainConfig"}
    loaders = [
        obj.load if isinstance(obj, type) else obj
        for module in modules
        for name, obj in vars(module).items()
        if getattr(obj, "__module__", None) == module.__name__
        and (inspect.isfunction(obj) and name.startswith("load_") or isinstance(obj, type) and "load" in vars(obj))
    ]
    returned = {typing.get_type_hints(load)["return"] for load in loaders}
    loaded = {cls for cls in returned if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert {c.__name__ for c in loaded} == {"Dataset", "CausalGraph"}
    for cls in configs | loaded:
        assert "__post_init__" in vars(cls), cls.__name__
        assert not hasattr(cls, "validate"), cls.__name__


def test_every_config_field_is_settable():
    """Each ``ModelConfig`` and ``TrainConfig`` field is set by ``train --config``,
    by its own flag, or by ``--seed``: a field no caller reaches is a constant."""
    assert {f.name for f in dataclasses.fields(ModelConfig)} == set(cli.MODEL_KEYS) | {"euclidean", "pairwise"}
    assert {f.name for f in dataclasses.fields(training.TrainConfig)} == set(cli.TRAIN_KEYS) | {"seed"}


# Ops the coverage run below need not reach, each with the reason.
NOT_ON_THE_TRAINING_PATH = {
    "Tensor.__repr__",  # for debugging output only
    "Tensor.item",  # training.gradient_check reads its finite-difference losses with it
}


def test_every_autodiff_op_runs_in_training():
    """Every ``Tensor`` and ``ScatterPlan`` method and every public
    ``autodiff`` function runs in ``training.gradients``.

    The name check above cannot see dead dunder ops, or a method whose name
    numpy shares.  This wraps each op and runs the training step over every
    combination of geometry, hyperedge expansion and causal graph, with
    dropout, so an op that nothing calls fails here.
    """
    ran: set[str] = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            ran.add(name)
            return fn(*args, **kwargs)

        return wrapper

    ops = {}
    with pytest.MonkeyPatch.context() as patch:
        for cls in (ad.Tensor, ad.ScatterPlan):
            for attr, value in list(vars(cls).items()):
                name = f"{cls.__name__}.{attr}"
                if isinstance(value, property):
                    ops[name] = property(counted(name, value.fget))
                elif inspect.isfunction(value):
                    ops[name] = counted(name, value)
                else:
                    continue
                patch.setattr(cls, attr, ops[name])
        for attr, value in list(vars(ad).items()):
            if inspect.isfunction(value) and value.__module__ == ad.__name__ and not attr.startswith("_"):
                ops[attr] = counted(attr, value)
                patch.setattr(ad, attr, ops[attr])

        ds, _ = synthgen.generate(synthgen.preset("toy", 0))
        graph = granger.infer_causal_graph(ds.nodes, granger.GrangerConfig(), fit_ids=ds.splits["train"])
        rows = np.arange(len(ds.nodes))
        for euclidean, pairwise, g in itertools.product((False, True), (False, True), (graph, None)):
            cfg = ModelConfig(embed_dim=4, layers=2, dropout=0.5, euclidean=euclidean, pairwise=pairwise)
            structure = compile_structure(ds, g, cfg)
            params = init_params(cfg, ds.features.shape[-1], ds.classes, tuple(structure.type_pairs), np.random.default_rng(0))
            training.gradients(params, structure, rows, training.TrainConfig(), rng=np.random.default_rng(1))
    assert set(ops) - ran - NOT_ON_THE_TRAINING_PATH == set()
