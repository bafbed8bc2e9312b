"""Causal spherical hypergraph networks on synthetic social dynamics.

Hyperspherical node embeddings with von Mises-Fisher uncertainty, causal
edges inferred by pairwise Granger tests and injected into angular
hypergraph message passing, trained end-to-end with an entropy- and
causality-regularized objective, and evaluated with calibration and
causal-recovery metrics against planted ground truth.
"""

__version__ = "0.1.0"

from .granger import CausalEdge, CausalGraph, GrangerConfig, granger_test, infer_causal_graph
from .hypergraph import Dataset, Hyperedge, NodeFeatureSeries, load_dataset, save_dataset
from .metrics import EvalReport
from .model import ForwardTrace, ModelConfig, ModelParams, forward, init_params
from .synthgen import SynthConfig, generate, preset
from .training import LossBreakdown, TrainConfig, gradient_check, train
from .vmf import log_norm_const, mean_resultant

__all__ = [
    "CausalEdge",
    "CausalGraph",
    "Dataset",
    "EvalReport",
    "ForwardTrace",
    "GrangerConfig",
    "Hyperedge",
    "LossBreakdown",
    "ModelConfig",
    "ModelParams",
    "NodeFeatureSeries",
    "SynthConfig",
    "TrainConfig",
    "forward",
    "generate",
    "gradient_check",
    "granger_test",
    "infer_causal_graph",
    "init_params",
    "load_dataset",
    "log_norm_const",
    "mean_resultant",
    "preset",
    "save_dataset",
    "train",
]
