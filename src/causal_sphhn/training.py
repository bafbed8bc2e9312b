"""Joint objective, reverse-mode gradients, Adam loop, and gradient checking.

A batch is a set of node rows of one compiled ``GraphStructure``, and the
loss reads the batch's labels from that structure.  It combines batch-mean
cross-entropy, the batch-mean vMF entropy of per-node concentrations
(weight lambda1), and the mean KL divergence from the temperature-1
softmax of Granger F scores to the model's causal attention, over batch
nodes that have causal parents (weight lambda2).

Training takes one full-graph Adam (0.9 / 0.999 / 1e-8) step per epoch,
its loss over every train row, early-stops on validation loss, and returns
the best-validation checkpoint.  Everything is deterministic given the
config seed.

A checkpoint (format version 6; others are refused) holds the configs, the
causal graph and the arrays, and no other key.  The input dim, class count
and context types are read off ``params.proj_w``, ``params.head_b`` and the
``params.edge_w:<type>`` keys; initial values are ``model``'s constants.

``gradient_check`` runs on the pipeline's own data, the ``toy`` preset at
its seed and that dataset's Granger graph, and imports ``synthgen`` only
when called.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .artifacts import atomic_write, check_fields, read_json, write_json
from .autodiff import Tensor
from .errors import ContractViolation, NumericalError, ParseError, TrainingDiverged, naming
from .granger import CausalGraph
from .hypergraph import Dataset
from .model import (
    GraphStructure,
    ModelConfig,
    ModelParams,
    ModelRun,
    compile_structure,
    init_params,
    run_model,
    softplus_inverse,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Learned temperatures stay strictly positive after each update.
TEMP_FLOOR = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    lambda1: float = 0.1
    lambda2: float = 0.1
    lr: float = 1e-3
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        # Each float check is written so that NaN fails it.
        if not (self.lr >= 0):
            raise ContractViolation("lr must be >= 0")
        if not (self.lambda1 >= 0 and self.lambda2 >= 0):
            raise ContractViolation("loss weights must be >= 0")
        if self.patience < 1:
            raise ContractViolation("patience must be >= 1")
        if self.max_epochs < 1:
            raise ContractViolation("max_epochs must be >= 1")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    pred: float
    entropy: float
    causal: float


def build_loss(run: ModelRun, batch_rows: np.ndarray, cfg: TrainConfig) -> tuple[Tensor, LossBreakdown]:
    """Loss tensor over a batch of node rows plus its float breakdown."""
    structure = run.structure
    n_batch = batch_rows.size
    if n_batch == 0:
        raise ContractViolation("empty batch")

    logp = ad.gather_rows(run.log_probs, batch_rows)
    onehot = np.zeros((n_batch, structure.classes))
    onehot[np.arange(n_batch), structure.labels[batch_rows]] = 1.0
    pred = -(logp * Tensor(onehot)).sum() * (1.0 / n_batch)

    ent = ad.gather_rows(run.entropy, batch_rows).sum() * (1.0 / n_batch)

    causal = Tensor(0.0)
    sel = np.isin(structure.child_rows, batch_rows)  # empty without causal parents
    if np.any(sel):
        ghat = ad.segment_softmax(Tensor(structure.parent_f), structure.parent_starts).data  # temperature 1
        log_ghat = np.log(np.where(ghat > 0, ghat, 1.0))  # 0 log 0 = 0 where ghat underflows
        kl = Tensor(ghat * sel[structure.parent_seg]) * (Tensor(log_ghat) - run.log_gamma)
        causal = kl.sum() * (1.0 / sel.sum())

    total = pred + cfg.lambda1 * ent + cfg.lambda2 * causal
    breakdown = LossBreakdown(
        total=float(total.data),
        pred=float(pred.data),
        entropy=float(ent.data),
        causal=float(causal.data),
    )
    return total, breakdown


def gradients(
    params: ModelParams,
    structure: GraphStructure,
    batch_rows: np.ndarray,
    cfg: TrainConfig,
    mode: str = "train",
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, np.ndarray], LossBreakdown]:
    """Reverse-mode gradients of the loss for every parameter tensor."""
    for t in params.named().values():
        t.grad = None
    # Overflow shows up as nonfinite values, which the check below turns
    # into a NumericalError; the intermediate warnings are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        total, breakdown = build_loss(run_model(structure, params, mode=mode, rng=rng), batch_rows, cfg)
        total.backward()
    grads = {}
    for name, t in params.named().items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"nonfinite gradient in parameter {name}")
        grads[name] = g
    return grads, breakdown


class Adam:
    """Standard Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g * g
            p.data = np.asarray(
                p.data - self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + ADAM_EPS),
                dtype=np.float64,
            )


def train(
    ds: Dataset,
    causal_graph: CausalGraph | None,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
) -> tuple[ModelParams, list[dict]]:
    """Adam training with early stopping on validation loss.

    Returns the best-validation parameters and the per-epoch history.
    Raises :class:`TrainingDiverged` when the loss, a gradient or a
    parameter goes nonfinite.
    """
    rng = np.random.default_rng(cfg.seed)
    structure = compile_structure(ds, causal_graph, model_cfg)
    # The structure holds all the model and loss read, so the (N, T, d)
    # features are freed here unless the caller keeps the dataset.
    del ds
    params = init_params(model_cfg, structure.features.shape[1], structure.classes, tuple(structure.type_pairs), rng)
    opt = Adam(params.named(), cfg.lr)

    train_rows, val_rows = structure.splits["train"], structure.splits["val"]
    if train_rows.size == 0 or val_rows.size == 0:
        raise ContractViolation("train and val splits must be nonempty")

    history: list[dict] = []
    best_val = np.inf
    best_values = params.copy_values()
    bad_epochs = 0
    start = time.monotonic()

    for epoch in range(cfg.max_epochs):
        try:
            grads, breakdown = gradients(params, structure, train_rows, cfg, mode="train", rng=rng)
        except NumericalError as exc:
            raise TrainingDiverged(str(exc)) from exc
        if not np.isfinite(breakdown.total):
            raise TrainingDiverged(f"loss became {breakdown.total} at epoch {epoch}")
        # An overflowing step leaves nonfinite parameters, which no forward
        # pass may read; the float warnings are noise, as in gradients().
        with np.errstate(over="ignore", invalid="ignore"):
            opt.step(grads)
        for name, t in params.named().items():
            if not np.all(np.isfinite(t.data)):
                raise TrainingDiverged(f"parameter {name} became nonfinite at epoch {epoch}")
        params.attn_temp.data = np.asarray(np.maximum(params.attn_temp.data, TEMP_FLOOR))
        params.gamma_temp.data = np.asarray(np.maximum(params.gamma_temp.data, TEMP_FLOOR))

        # Over constant parameters the validation forward builds no graph.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                val_run = run_model(structure, params.constants(), mode="eval")
            except NumericalError as exc:
                raise TrainingDiverged(f"validation forward at epoch {epoch}: {exc}") from exc
            val_breakdown = build_loss(val_run, val_rows, cfg)[1]
        del val_run
        if not np.isfinite(val_breakdown.total):
            raise TrainingDiverged(f"validation loss became {val_breakdown.total} at epoch {epoch}")
        history.append(
            {
                "epoch": epoch,
                "train_loss": breakdown.total,
                "val_loss": val_breakdown.total,
                "pred": val_breakdown.pred,
                "entropy": val_breakdown.entropy,
                "causal": val_breakdown.causal,
                "wallclock_ms": int(1000 * (time.monotonic() - start)),
            }
        )
        if val_breakdown.total < best_val:
            best_val = val_breakdown.total
            best_values = params.copy_values()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    params.load_values(best_values)
    return params, history


HISTORY_COLUMNS = ("epoch", "train_loss", "val_loss", "pred", "entropy", "causal", "wallclock_ms")


def write_history_csv(history: list[dict], path: str) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in HISTORY_COLUMNS) + "\n")


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

CHECKPOINT_VERSION = 6
# A checkpoint's params schema less its edge_w:<type> keys: one array per tensor field of
# ModelParams.  proj_w and head_b are never scalars, since their last axes give in_dim and classes.
_PARAMS = {f.name: list if f.name in ("proj_w", "head_b") else list | float
           for f in fields(ModelParams) if f.name not in ("config", "edge_w")}


def save_checkpoint(
    path: str,
    params: ModelParams,
    train_cfg: TrainConfig,
    causal_graph: CausalGraph | None,
) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(params.config),
        "train_config": asdict(train_cfg),
        "causal_graph": causal_graph.to_dict() if causal_graph is not None else None,
        "params": {k: v.tolist() for k, v in params.copy_values().items()},
    }
    write_json(path, doc)


def _param_array(values: dict, name: str) -> np.ndarray:
    try:
        return np.array(values[name], dtype=np.float64)
    except (TypeError, ValueError) as exc:  # strings, or ragged nesting
        raise ParseError(f"params.{name} must be an array of numbers") from exc


def load_checkpoint(path: str) -> tuple[ModelParams, TrainConfig, CausalGraph | None]:
    """Parameters for inference, as constants, with the training config and causal graph."""
    doc = read_json(path)
    with naming(path):
        if doc.get("format_version") != CHECKPOINT_VERSION:
            raise ContractViolation(f"unsupported checkpoint version {doc.get('format_version')}")
        stored = doc.get("params")
        edge_keys = [k for k in stored if k.startswith("edge_w:")] if type(stored) is dict else []
        doc = check_fields({
            "format_version": int,
            "model_config": ModelConfig,
            "train_config": TrainConfig,
            "causal_graph": dict | None,
            "params": {**_PARAMS, **dict.fromkeys(edge_keys, list | float)},
        }, doc)
        model_cfg = ModelConfig(**doc["model_config"])
        train_cfg = TrainConfig(**doc["train_config"])
        # The arrays give the architecture: the last axes of proj_w and head_b, and the edge_w keys.
        values = doc["params"]
        shapes = {k: _param_array(values, k).shape for k in ("proj_w", "head_b")}
        for key, shape in shapes.items():
            if shape[-1] < 1:
                raise ParseError(f"params.{key} has shape {shape}, whose last axis is empty")
        edge_types = tuple(k.partition(":")[2] for k in edge_keys)
        params = init_params(model_cfg, shapes["proj_w"][-1], shapes["head_b"][-1], edge_types, np.random.default_rng(0))
        for name, tensor in params.named().items():
            values[name] = _param_array(values, name)
            if values[name].shape != tensor.data.shape:
                raise ParseError(f"params.{name} has shape {values[name].shape}, expected {tensor.data.shape}")
            if not np.isfinite(values[name]).all():
                raise ParseError(f"params.{name} must be finite")
        params.load_values(values)
        with naming("causal_graph"):
            graph = CausalGraph.from_dict(doc["causal_graph"]) if doc["causal_graph"] is not None else None
    return params.constants(), train_cfg, graph


# --------------------------------------------------------------------------
# Gradient verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    per_parameter: dict[str, float]
    passed: bool
    tolerance: float


# Central-difference step and the relative error gradient_check accepts.
_GRADCHECK_STEP = 1e-5
_GRADCHECK_TOLERANCE = 1e-4


def gradient_check(seed: int = 0) -> GradientCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    The instance is the pipeline's own: the ``toy`` preset generated at
    ``seed`` and its Granger graph at the default ``GrangerConfig``, fitted
    on the train split, so each seed draws another layout of hyperedges
    and causal parents, one-parent gamma segments (gamma = 1) among them.
    The model has d' = 4, two layers, randomized parameters, all loss
    terms active over every node, and no dropout.  Relative error uses
    max(|analytic|, |numeric|, 1e-3) as denominator so sub-noise
    gradients do not produce spurious ratios.
    """
    from . import granger, synthgen

    ds, _ = synthgen.generate(synthgen.preset("toy", seed=seed))
    graph = granger.infer_causal_graph(ds.nodes, granger.GrangerConfig(), fit_ids=ds.splits["train"])
    model_cfg = ModelConfig(embed_dim=4, layers=2, dropout=0.0)
    cfg = TrainConfig(lambda1=0.7, lambda2=0.9, seed=seed)
    structure = compile_structure(ds, graph, model_cfg)
    del ds
    rng = np.random.default_rng(seed)
    params = init_params(model_cfg, structure.features.shape[1], structure.classes, tuple(structure.type_pairs), rng)
    params.kappa_b.data = np.asarray(softplus_inverse(2.0))
    params.attn_temp.data = np.asarray(1.5)
    params.gamma_temp.data = np.asarray(0.7)
    # Randomize away from zero-init so every path carries signal.
    for name, t in params.named().items():
        if name in ("attn_temp", "gamma_temp"):
            continue
        t.data = np.asarray(t.data + 0.4 * rng.standard_normal(t.data.shape), dtype=np.float64)

    rows = np.arange(structure.labels.size, dtype=np.int64)
    grads, _ = gradients(params, structure, rows, cfg, mode="eval")

    def eval_loss() -> float:
        run = run_model(structure, params, mode="eval")
        return build_loss(run, rows, cfg)[0].item()

    per_param: dict[str, float] = {}
    for name, t in params.named().items():
        worst = 0.0
        flat = t.data.reshape(-1)
        gflat = np.asarray(grads[name]).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _GRADCHECK_STEP
            up = eval_loss()
            flat[i] = orig - _GRADCHECK_STEP
            down = eval_loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * _GRADCHECK_STEP)
            denom = max(abs(gflat[i]), abs(numeric), 1e-3)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
        per_param[name] = float(worst)
    max_err = float(max(per_param.values()))
    return GradientCheckReport(
        max_rel_error=max_err,
        per_parameter=per_param,
        passed=bool(max_err <= _GRADCHECK_TOLERANCE),
        tolerance=_GRADCHECK_TOLERANCE,
    )
