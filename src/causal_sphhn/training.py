"""Joint objective, reverse-mode gradients, Adam loop, and gradient checking.

A batch is a set of node rows of one compiled ``GraphStructure``, and the
loss reads the batch's labels from that structure.  It combines batch-mean
cross-entropy, the batch-mean vMF entropy of per-node concentrations
(weight lambda1), and the mean KL divergence from the temperature-1
softmax of Granger F scores to the model's causal attention, over batch
nodes that have causal parents (weight lambda2).

Training runs Adam (0.9 / 0.999 / 1e-8) over node minibatches with a
full-graph forward per step, early-stops on validation loss, and returns
the best-validation checkpoint.  Everything is deterministic given the
config seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .artifacts import atomic_write, check_fields, doc_digest, read_json, write_json
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
    batch_size: int = 128
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
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ContractViolation("batch_size and max_epochs must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


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

    ent = ad.gather_rows(run.entropy, batch_rows).mean()

    causal = Tensor(0.0)
    sel = np.isin(structure.child_rows, batch_rows)  # empty without causal parents
    if np.any(sel):
        ghat = structure.ghat
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
    Raises :class:`TrainingDiverged` when the loss goes nonfinite.
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
        rows_shuffled = train_rows[rng.permutation(train_rows.size)]
        batch_losses = []
        for lo in range(0, rows_shuffled.size, cfg.batch_size):
            batch = rows_shuffled[lo : lo + cfg.batch_size]
            try:
                grads, breakdown = gradients(params, structure, batch, cfg, mode="train", rng=rng)
            except NumericalError as exc:
                raise TrainingDiverged(str(exc)) from exc
            if not np.isfinite(breakdown.total):
                raise TrainingDiverged(f"loss became {breakdown.total} at epoch {epoch}")
            # An overflowing step leaves nonfinite parameters, which the next
            # gradients() call or the validation check below turns into
            # TrainingDiverged; the float warnings are noise, as in gradients().
            with np.errstate(over="ignore", invalid="ignore"):
                opt.step(grads)
            params.attn_temp.data = np.asarray(np.maximum(params.attn_temp.data, TEMP_FLOOR))
            params.gamma_temp.data = np.asarray(np.maximum(params.gamma_temp.data, TEMP_FLOOR))
            batch_losses.append(breakdown.total)

        # Over constant parameters the validation forward builds no graph.
        with np.errstate(over="ignore", invalid="ignore"):
            val_run = run_model(structure, params.constants(), mode="eval")
            val_breakdown = build_loss(val_run, val_rows, cfg)[1]
        del val_run
        if not np.isfinite(val_breakdown.total):
            raise TrainingDiverged(f"validation loss became {val_breakdown.total} at epoch {epoch}")
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
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

CHECKPOINT_VERSION = 3


def config_digest(model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    return doc_digest({"model": model_cfg.to_dict(), "train": train_cfg.to_dict()})


def save_checkpoint(
    path: str,
    params: ModelParams,
    train_cfg: TrainConfig,
    causal_graph: CausalGraph | None,
) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config_digest": config_digest(params.config, train_cfg),
        "model_config": params.config.to_dict(),
        "train_config": train_cfg.to_dict(),
        "arch": {
            "in_dim": params.in_dim,
            "classes": params.classes,
            "edge_types": list(params.edge_types),
        },
        "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "causal_graph": causal_graph.to_dict() if causal_graph is not None else None,
        "params": {k: v.tolist() for k, v in params.copy_values().items()},
    }
    write_json(path, doc)


def load_checkpoint(path: str) -> tuple[ModelParams, TrainConfig, CausalGraph | None]:
    """Parameters for inference, as constants, with the training config and causal graph."""
    doc = read_json(path)
    with naming(path):
        if doc.get("format_version") != CHECKPOINT_VERSION:
            raise ContractViolation(f"unsupported checkpoint version {doc.get('format_version')}")
        doc = check_fields({
            "model_config": ModelConfig,
            "train_config": TrainConfig,
            "arch": {"in_dim": int, "classes": int, "edge_types": tuple[str, ...]},
            "causal_graph": dict | None,
            "params": dict,
        }, doc)
        model_cfg = ModelConfig(**doc["model_config"])
        train_cfg = TrainConfig(**doc["train_config"])
        arch = doc["arch"]
        for key in ("in_dim", "classes"):
            if arch[key] < 1:
                raise ParseError(f"arch.{key} must be >= 1, got {arch[key]}")
        params = init_params(model_cfg, arch["in_dim"], arch["classes"], arch["edge_types"], np.random.default_rng(0))
        values = check_fields(dict.fromkeys(params.named(), list | float), doc["params"], "params")
        for name, tensor in params.named().items():
            try:
                values[name] = np.array(values[name], dtype=np.float64)
            except (TypeError, ValueError) as exc:  # strings, or ragged nesting
                raise ParseError(f"params.{name} must be an array of numbers") from exc
            if values[name].shape != tensor.data.shape:
                raise ParseError(f"params.{name} has shape {values[name].shape}, expected {tensor.data.shape}")
            if not np.isfinite(values[name]).all():
                raise ParseError(f"params.{name} must be finite")
        params.load_values(values)
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


def _tiny_instance(seed: int):
    """Six nodes; a 4-node hyperedge and a 2-node one of a second context
    type, so attention runs over segments of length 4 and 2 and the
    message sums two types; two causal parents of one node with distinct
    F, so gamma_temp has a gradient; d = d' = 4."""
    from .granger import CausalEdge
    from .hypergraph import Hyperedge, NodeFeatureSeries

    rng = np.random.default_rng(seed)
    ids = [f"n{i}" for i in range(6)]
    nodes = [NodeFeatureSeries(i, rng.standard_normal((3, 4))) for i in ids]
    edges = [
        Hyperedge("e0", ("n0", "n1", "n2", "n3"), "ctx"),
        Hyperedge("e1", ("n3", "n4"), "pair"),
    ]
    labels = {i: k % 2 for k, i in enumerate(ids)}
    ds = Dataset(
        dim=4,
        timesteps=3,
        classes=2,
        horizon=1,
        nodes=nodes,
        hyperedges=edges,
        labels=labels,
        splits={"train": ids[:4], "val": ids[4:5], "test": ids[5:]},
    )
    ds.validate()
    graph = CausalGraph(
        alpha=0.05, lag=2, edges=[CausalEdge("n4", "n5", 3.0, 0.01), CausalEdge("n3", "n5", 1.5, 0.02)]
    )
    return ds, graph, rng


def gradient_check(seed: int = 0) -> GradientCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Runs the tiny model with randomized parameters, all loss terms active,
    and no dropout.  Relative error uses max(|analytic|, |numeric|, 1e-3)
    as denominator so sub-noise gradients do not produce spurious ratios.
    """
    ds, graph, rng = _tiny_instance(seed)
    model_cfg = ModelConfig(embed_dim=4, layers=2, dropout=0.0, kappa_init=2.0)
    cfg = TrainConfig(lambda1=0.7, lambda2=0.9, seed=seed)
    structure = compile_structure(ds, graph, model_cfg)
    del ds
    params = init_params(model_cfg, 4, 2, tuple(structure.type_pairs), rng)
    params.attn_temp.data = np.asarray(1.5)
    params.gamma_temp.data = np.asarray(0.7)
    # Randomize away from zero-init so every path carries signal.
    for name, t in params.named().items():
        if name in ("attn_temp", "gamma_temp"):
            continue
        t.data = np.asarray(t.data + 0.4 * rng.standard_normal(t.data.shape), dtype=np.float64)

    rows = np.arange(6, dtype=np.int64)
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
