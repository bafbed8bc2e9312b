"""Causal spherical hypergraph networks on synthetic social dynamics.

Hyperspherical node embeddings with von Mises-Fisher uncertainty, causal
edges inferred by pairwise Granger tests and injected into angular
hypergraph message passing, trained end-to-end with an entropy- and
causality-regularized objective, and evaluated with calibration and
causal-recovery metrics against planted ground truth.

Importing the package loads none of its modules.  Each name in
``__all__`` is imported from its home module on first access (PEP 562),
so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "CausalGraph": "granger",
    "GrangerConfig": "granger",
    "granger_test": "granger",
    "infer_causal_graph": "granger",
    "Dataset": "hypergraph",
    "Hyperedge": "hypergraph",
    "NodeFeatureSeries": "hypergraph",
    "load_dataset": "hypergraph",
    "save_dataset": "hypergraph",
    "EvalReport": "metrics",
    "ForwardTrace": "model",
    "ModelConfig": "model",
    "ModelParams": "model",
    "forward": "model",
    "init_params": "model",
    "SynthConfig": "synthgen",
    "generate": "synthgen",
    "preset": "synthgen",
    "LossBreakdown": "training",
    "TrainConfig": "training",
    "gradient_check": "training",
    "train": "training",
    "log_norm_const": "vmf",
    "mean_resultant": "vmf",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
