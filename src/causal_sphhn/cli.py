"""Command-line pipeline: synth | granger | train | eval | gradcheck.

Each of the four pipeline commands (synth, granger, train, eval) loads
its inputs, writes its artifacts, and records a ``manifest.json`` with the
seed, config digest, input digests, output digests, versions, and
wallclock; ``gradcheck --out`` writes its report and no manifest.  The
config digest covers the settings only, not the ``--out`` or input paths,
so the same settings run into two directories give the same digest.  A
dataset's digest is that of its JSON document, which records the SHA-256
of its ``.npy`` feature block, so it covers the features too.  All files
are read and written through ``artifacts.py``, which writes atomically
(write-temp-then-rename) and creates the ``--out`` directory.  All randomness flows from one
``--seed``; components receive subseeds derived as
``(seed * 2654435761 + crc32(tag)) mod 2^32``.  A ``synth --config`` file
that names ``seed`` is refused, as ``train --config`` refuses it: the seed
is set by ``--seed`` alone.

Exit codes: 0 success, 1 input error, 2 usage, 3 training divergence,
4 gradient-check failure.  Exit 1 covers the package's input errors
(``INPUT_ERRORS``): a file that cannot be read, is not JSON or is not a
JSON object, lacks a key, holds a key its format does not list, or holds a
value of the wrong type, raises ``ParseError``; a value out of range raises
``ContractViolation`` when its config or graph is built; a file that cannot
be written raises ``ContractViolation``.  Each names the path.  Any other exception,
``OSError`` and ``KeyError`` included, is a bug and propagates.

Importing this module loads only the standard library and ``errors``.
``build_parser`` imports the modules whose tables set its choices and
defaults, and each command imports the modules it calls, inside the
function, so a command never loads code it does not run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import zlib

from . import __version__
from .errors import ContractViolation, NumericalError, ParseError, TrainingDiverged, ValidationError, naming

# What can reach main() for bad input.  SeriesTooShort is a ContractViolation,
# and granger_test turns RankDeficient into a no-edge decision.
INPUT_ERRORS = (ContractViolation, NumericalError, ParseError, ValidationError)

# The --config keys of the train command, by the config they set.
MODEL_KEYS = ("embed_dim", "layers", "dropout")
TRAIN_KEYS = ("lambda1", "lambda2", "lr", "max_epochs", "patience")


def derive_seed(seed: int, tag: str) -> int:
    return (seed * 2654435761 + zlib.crc32(tag.encode())) % 2**32


def _write_manifest(
    out_dir: str,
    command: str,
    seed: int | None,
    config_doc: dict,
    inputs: dict[str, str],
    outputs: list[str],
    start: float,
    digests: dict[str, str] | None = None,
) -> None:
    """Write ``manifest.json``; ``digests`` holds output digests already known."""
    import numpy as np

    from .artifacts import doc_digest, file_digest, write_json

    known = digests or {}
    doc = {
        "command": command,
        "seed": seed,
        "config_digest": doc_digest(config_doc),
        "inputs": inputs,
        "outputs": {os.path.basename(p): known.get(p) or file_digest(p) for p in outputs},
        "versions": {
            "causal_sphhn": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wallclock_ms": int(1000 * (time.monotonic() - start)),
    }
    write_json(os.path.join(out_dir, "manifest.json"), doc, indent=2)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from . import synthgen
    from .artifacts import check_fields, read_json
    from .hypergraph import block_path, save_dataset

    start = time.monotonic()
    seed = derive_seed(args.seed, "synth")
    if args.config:
        doc = read_json(args.config)
        with naming(args.config):
            if "seed" in doc:
                raise ParseError("seed is set by --seed, not by the config")
            doc = check_fields(synthgen.SynthConfig, {"seed": seed, "planted_edges": (), **doc})
            cfg = synthgen.SynthConfig(**doc)
    else:
        cfg = synthgen.preset(args.preset, seed=seed)
    ds, truth = synthgen.generate(cfg)
    ds_path = os.path.join(args.out, "dataset.json")
    truth_path = os.path.join(args.out, "truth.json")
    block = block_path(ds_path)
    block_sha256 = save_dataset(ds, ds_path)
    synthgen.save_truth(truth, truth_path)
    _write_manifest(
        args.out, "synth", args.seed, dataclasses.asdict(cfg), {},
        [ds_path, block, truth_path], start, digests={block: block_sha256},
    )
    print(f"wrote {ds_path} ({len(ds.nodes)} nodes, {len(ds.hyperedges)} hyperedges)")
    return 0


def cmd_granger(args) -> int:
    from .artifacts import file_digest
    from .granger import GrangerConfig, infer_causal_graph
    from .hypergraph import load_dataset

    start = time.monotonic()
    ds = load_dataset(args.dataset)
    cfg = GrangerConfig(
        lag=args.lag,
        alpha=args.alpha,
        reduction=args.reduction,
        bonferroni=args.bonferroni,
    )
    graph = infer_causal_graph(ds.nodes, cfg, fit_ids=ds.splits["train"])
    path = os.path.join(args.out, "causal.json")
    graph.save(path)
    inputs = {"dataset": file_digest(args.dataset)}
    _write_manifest(args.out, "granger", None, dataclasses.asdict(cfg), inputs, [path], start)
    print(f"wrote {path} ({len(graph.edges)} edges)")
    return 0


def _train_configs(args):
    """The ``(ModelConfig, TrainConfig)`` pair that the flags and ``--config`` set."""
    from .artifacts import check_fields, read_json
    from .model import ModelConfig
    from .training import TrainConfig

    overrides = read_json(args.config) if args.config else {}
    with naming(args.config):
        unknown = sorted(set(overrides) - set(MODEL_KEYS + TRAIN_KEYS))
        if unknown:
            raise ParseError(f"unknown config key(s) {', '.join(unknown)}")
        model_doc = check_fields(ModelConfig, {k: v for k, v in overrides.items() if k in MODEL_KEYS})
        train_doc = check_fields(TrainConfig, {k: v for k, v in overrides.items() if k in TRAIN_KEYS})
    if args.embed_dim:
        model_doc["embed_dim"] = args.embed_dim
    if args.layers is not None:
        model_doc["layers"] = args.layers
    if args.no_entropy:
        train_doc["lambda1"] = 0.0
    return (
        ModelConfig(**model_doc, euclidean=args.euclidean, pairwise=args.pairwise),
        TrainConfig(**train_doc, seed=derive_seed(args.seed, "train")),
    )


def cmd_train(args) -> int:
    from . import training
    from .artifacts import file_digest
    from .granger import CausalGraph
    from .hypergraph import load_dataset

    start = time.monotonic()
    graph = CausalGraph.load(args.graph) if args.graph is not None else None
    model_cfg, train_cfg = _train_configs(args)
    # train() holds the only reference to the dataset, and drops it once it has compiled the structure.
    params, history = training.train(load_dataset(args.dataset), graph, model_cfg, train_cfg)
    ckpt = os.path.join(args.out, "checkpoint.json")
    hist = os.path.join(args.out, "history.csv")
    training.save_checkpoint(ckpt, params, train_cfg, graph)
    training.write_history_csv(history, hist)
    cfg_doc = {"model": dataclasses.asdict(params.config), "train": dataclasses.asdict(train_cfg)}
    inputs = {"dataset": file_digest(args.dataset)}
    if graph is not None:
        inputs["graph"] = file_digest(args.graph)
    _write_manifest(args.out, "train", args.seed, cfg_doc, inputs, [ckpt, hist], start)
    print(f"wrote {ckpt} ({len(history)} epochs, best val loss {min(h['val_loss'] for h in history):.4f})")
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from . import metrics, synthgen
    from .artifacts import file_digest
    from .hypergraph import feature_dropout, load_dataset
    from .model import compile_structure, run_model
    from .training import load_checkpoint

    start = time.monotonic()
    settings = {"bins": args.bins, "k": args.k, "split": args.split, "dropout_rate": args.dropout_rate}
    params, train_cfg, graph = load_checkpoint(args.checkpoint)
    # Read whenever given, so a bad file fails even when the model has no causal graph to score.
    truth = synthgen.load_truth(args.truth) if args.truth else None
    ds = load_dataset(args.dataset)
    inputs = {"dataset": file_digest(args.dataset), "checkpoint": file_digest(args.checkpoint)}
    structure = compile_structure(ds, graph, params.config)
    # The structure holds the model's (N, d) inputs, labels and splits: all
    # eval reads of the dataset, so the (N, T, d) feature block is freed
    # before the mask and the forward, and only one feature block is ever alive.
    del ds
    rows = np.arange(len(structure.node_ids)) if args.split == "all" else structure.splits[args.split]
    if rows.size == 0:
        raise ContractViolation(f"{args.dataset}: the {args.split} split is empty")
    if args.dropout_rate != 0.0:  # feature_dropout rejects a rate outside [0, 1)
        rng = np.random.default_rng(derive_seed(args.seed, "eval.dropout"))
        structure.features = feature_dropout(structure.features, args.dropout_rate, rng)
    run = run_model(structure, params, mode="eval")
    labels = structure.labels[rows]
    probs = run.probs.data[rows]
    preds = probs.argmax(axis=1)

    p_at_k = rank_corr = None
    if truth is not None and run.gamma is not None:
        # Each flat parent entry is one graph edge, scored by its learned gamma;
        # a single-parent child's gamma is exactly 1, so ties break by F.
        true_set = {(e.src, e.dst) for e in truth}
        ids, gamma = structure.node_ids, run.gamma.data
        children = structure.child_rows[structure.parent_seg]
        edges = zip(structure.parent_rows, children, gamma.tolist(), structure.parent_f.tolist())
        scored = [(ids[p], ids[c], (g, f)) for p, c, g, f in edges]
        p_at_k = metrics.precision_at_k(scored, true_set, k=args.k)
        if gamma.size > 1:
            rank_corr = metrics.rank_correlation(gamma, structure.parent_f)

    report = metrics.EvalReport(
        accuracy=metrics.accuracy(preds, labels, structure.classes),
        macro_f1=metrics.macro_f1(preds, labels, structure.classes),
        auc=metrics.auc_ovr(probs, labels, structure.classes),
        ece=metrics.ece(probs, labels, bins=args.bins),
        mean_entropy=metrics.predictive_entropy(probs),
        mean_vmf_entropy=float(np.mean(run.entropy.data[rows])),
        p_at_k=p_at_k,
        per_class_f1=metrics.per_class_f1(preds, labels, structure.classes),
        rank_corr=rank_corr,
        config=settings,
    )
    path = os.path.join(args.out, "report.json")
    report.save(path)
    if args.truth:
        inputs["truth"] = file_digest(args.truth)
    _write_manifest(args.out, "eval", args.seed, settings, inputs, [path], start)
    print(
        f"accuracy {report.accuracy:.4f}  macro-F1 {report.macro_f1:.4f}  "
        f"ECE {report.ece:.4f}" + (f"  P@{args.k} {p_at_k:.3f}" if p_at_k is not None else "")
    )
    return 0


def cmd_gradcheck(args) -> int:
    from . import training
    from .artifacts import write_json

    report = training.gradient_check(seed=args.seed)
    for name in sorted(report.per_parameter):
        print(f"{name:24s} max rel error {report.per_parameter[name]:.3e}")
    print(f"overall max rel error {report.max_rel_error:.3e} (tolerance {report.tolerance:g})")
    if args.out:
        write_json(os.path.join(args.out, "gradcheck.json"), dataclasses.asdict(report), indent=2)
    if not report.passed:
        worst = sorted(report.per_parameter, key=report.per_parameter.get, reverse=True)
        print("FAIL; worst parameters: " + ", ".join(worst[:3]), file=sys.stderr)
        return 4
    print("PASS")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _positive_int(value: str) -> int:
    v = int(value)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def build_parser() -> argparse.ArgumentParser:
    # The modules that own the choices and defaults below.
    from . import synthgen
    from .granger import REDUCTIONS, GrangerConfig
    from .hypergraph import SPLIT_NAMES

    parser = argparse.ArgumentParser(
        prog="sphhn",
        description="Causal spherical hypergraph networks on synthetic social dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted causal edges")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=tuple(synthgen.PRESETS))
    group.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("granger", help="infer the causal graph from a dataset")
    defaults = GrangerConfig()
    p.add_argument("--dataset", required=True)
    p.add_argument("--lag", type=_positive_int, default=defaults.lag)
    p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--reduction", choices=REDUCTIONS, default=defaults.reduction)
    p.add_argument("--bonferroni", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_granger)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--dataset", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="causal graph JSON from the granger command")
    group.add_argument("--no-causal", action="store_true", help="drop the causal graph")
    p.add_argument("--config", help="JSON file of training overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embed-dim", type=_positive_int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--no-entropy", action="store_true", help="set lambda1 = 0")
    p.add_argument("--euclidean", action="store_true", help="skip sphere normalization")
    p.add_argument("--pairwise", action="store_true", help="expand hyperedges to 2-cliques")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--truth", help="planted-edge ground truth JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=(*SPLIT_NAMES, "all"), default="test")
    p.add_argument("--dropout-rate", type=float, default=0.0)
    p.add_argument("--bins", type=_positive_int, default=10)
    p.add_argument("--k", type=_positive_int, default=5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
