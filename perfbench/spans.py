"""In-memory span recorder fed by wrappers around causal_sphhn's public functions.

The benchmark measures every layer from outside the program: a traced run
replaces the layer functions listed in ``LAYER_TARGETS`` with timing
wrappers, records one span per call (name, start, end, parent, attributes)
and restores the originals when the run ends, so untraced runs never pay
for the wrappers.  Functions called hundreds of thousands of times per run
(the F-test p-value, scatter plans) are "leaves": their calls are counted
and timed per parent span instead of being recorded one by one.  The part
of a leaf wrapper's cost that falls outside the time it measures is
calibrated on a no-op and taken out of the parent's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "causal_sphhn"
CALIBRATION_CALLS = 100_000
CALIBRATION_ROUNDS = 5


def _structure_attrs(args, kwargs, structure) -> dict:
    """Padding and kernel-size figures of a compiled GraphStructure."""
    member_mask, parent_mask = structure.member_mask, structure.parent_mask
    edges, k = structure.member_idx.shape
    return {
        "member_pad_frac": float(1.0 - member_mask.mean()) if member_mask.size else 0.0,
        "parent_pad_frac": float(1.0 - parent_mask.mean()) if parent_mask.size else 0.0,
        "attention_entries": int(edges * k * k),
        "reduceat_plans": sum(1 for p in structure.plans.values() if p.idx.size and not p.padded),
    }


def _infer_attrs(args, kwargs, graph) -> dict:
    nodes = args[0] if args else kwargs["nodes"]
    return {"pairs": len(nodes) * (len(nodes) - 1), "edges": len(graph.edges)}


def _run_model_attrs(args, kwargs, run) -> dict:
    return {"mode": kwargs.get("mode", args[2] if len(args) > 2 else "eval")}


# (span name, module, attribute, kind, attribute hook).  A dotted attribute
# names a method on a class.  Every causal_sphhn module that imported a
# function under its own name is patched too, since that is where callers
# look it up.
LAYER_TARGETS = (
    ("hypergraph.save_dataset", "hypergraph", "save_dataset", "span", None),
    ("hypergraph.load_dataset", "hypergraph", "load_dataset", "span", None),
    ("synthgen.generate", "synthgen", "generate", "span", None),
    ("granger.reduce_features", "granger", "reduce_features", "span", None),
    ("granger.infer_causal_graph", "granger", "infer_causal_graph", "span", _infer_attrs),
    ("granger.granger_test", "granger", "granger_test", "span", None),
    ("granger.f_survival", "granger", "f_survival", "leaf", None),
    ("model.compile_structure", "model", "compile_structure", "span", _structure_attrs),
    ("model.run_model", "model", "run_model", "span", _run_model_attrs),
    ("model.forward", "model", "forward", "span", None),
    ("autodiff.backward", "autodiff", "Tensor.backward", "span", None),
    ("autodiff.scatter_apply", "autodiff", "ScatterPlan.apply", "leaf", None),
    ("training.train", "training", "train", "span", None),
    ("training.gradients", "training", "gradients", "span", None),
    ("training.adam_step", "training", "Adam.step", "span", None),
    ("training.save_checkpoint", "training", "save_checkpoint", "span", None),
    ("training.load_checkpoint", "training", "load_checkpoint", "span", None),
) + tuple(
    (f"metrics.{fn}", "metrics", fn, "span", None)
    for fn in (
        "accuracy",
        "per_class_f1",
        "macro_f1",
        "auc_ovr",
        "ece",
        "predictive_entropy",
        "precision_at_k",
        "rank_correlation",
    )
)


class Tracer:
    """Spans and leaf counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}  # (parent span id, name) -> [calls, seconds]
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self.leaf_overhead_s = 0.0  # per leaf call, charged to the parent; set by installed()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if hook is not None:
                    rec["attrs"].update(hook(args, kwargs, result))
                return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        leaves, open_spans, clock = self.leaves, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = leaves.setdefault((open_spans[-1] if open_spans else None, name), [0, 0.0])
                acc[0] += 1
                acc[1] += clock() - t0

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        self.leaf_overhead_s = leaf_wrapper_cost()
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for name, mod_name, attr, kind, hook in LAYER_TARGETS:
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owners = [(getattr(owner, cls_name), meth)]
                else:
                    fn = getattr(owner, attr)
                    owners = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
                original = getattr(*owners[0])
                if kind == "span":
                    wrapper = self._span_wrapper(original, name, hook)
                else:
                    wrapper = self._leaf_wrapper(original, name)
                for obj, a in owners:
                    self._patches.append((obj, a, vars(obj)[a]))
                    setattr(obj, a, wrapper)
            yield self
        finally:
            while self._patches:
                obj, a, original = self._patches.pop()
                setattr(obj, a, original)

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def leaf(self, name: str) -> tuple[int, float]:
        calls = sum(v[0] for (_, n), v in self.leaves.items() if n == name)
        seconds = sum(v[1] for (_, n), v in self.leaves.items() if n == name)
        return calls, seconds

    def self_time(self, span: dict) -> float:
        """Span duration minus the part of it covered by child spans and leaves.

        Each leaf call also takes out the wrapper's own cost outside the
        interval it timed.  Calls in one thread nest, so children never
        overlap each other.
        """
        covered = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == span["id"])
        covered += sum(
            seconds + calls * self.leaf_overhead_s
            for (parent, _), (calls, seconds) in self.leaves.items()
            if parent == span["id"]
        )
        return (span["end"] - span["start"]) - covered

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"leaf_overhead_s": self.leaf_overhead_s}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for (parent, name), (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls, "seconds": seconds}) + "\n")


def leaf_wrapper_cost() -> float:
    """Seconds per call a leaf wrapper adds outside the interval it times.

    Timed on a no-op taking three arguments, as ``f_survival`` does: the
    wrapped loop, minus the time the wrapper measured, minus the bare
    loop.  The least of a few rounds is the least disturbed by the host.
    """

    def noop(a, b, c):
        return None

    probe = Tracer()
    wrapped = probe._leaf_wrapper(noop, "noop")
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        probe.leaves.clear()
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped(1.0, 2, 150)
        t1 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop(1.0, 2, 150)
        t2 = time.perf_counter()
        measured = probe.leaves[(None, "noop")][1]
        best = min(best, ((t1 - t0) - measured - (t2 - t1)) / CALIBRATION_CALLS)
    return max(best, 0.0)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run: name -> (value, unit)."""

    def total(name):
        return float(sum(tr.durations(name)))

    def last_attr(name, key):
        vals = [s["attrs"][key] for s in tr.spans if s["name"] == name and key in s["attrs"]]
        return vals[-1] if vals else 0

    by_id = {s["id"]: s for s in tr.spans}
    pv_calls, pv_s = tr.leaf("granger.f_survival")
    sc_calls, sc_s = tr.leaf("autodiff.scatter_apply")
    infer = [s for s in tr.spans if s["name"] == "granger.infer_causal_graph"]
    edges_kept = sum(s["attrs"]["edges"] for s in infer)
    eval_runs = [
        s["end"] - s["start"]
        for s in tr.spans
        if s["name"] == "model.run_model" and s["attrs"].get("mode") == "eval"
    ]
    steps = tr.durations("training.gradients")
    metric_calls = [
        s["end"] - s["start"]
        for s in tr.spans
        if s["name"].startswith("metrics.")
        and not (s["parent"] is not None and by_id[s["parent"]]["name"].startswith("metrics."))
    ]
    out = {
        "hypergraph.save_s": (total("hypergraph.save_dataset"), "s"),
        "hypergraph.load_s": (total("hypergraph.load_dataset"), "s"),
        "hypergraph.load_calls": (len(tr.durations("hypergraph.load_dataset")), "count"),
        "synthgen.generate_s": (total("synthgen.generate"), "s"),
        "granger.reduce_s": (total("granger.reduce_features"), "s"),
        "granger.infer_s": (total("granger.infer_causal_graph"), "s"),
        "granger.kernel_self_s": (float(sum(tr.self_time(s) for s in infer)), "s"),
        "granger.pvalue_s": (pv_s, "s"),
        "granger.pvalue_calls": (pv_calls, "count"),
        "granger.fallback_calls": (len(tr.durations("granger.granger_test")), "count"),
        "granger.pairs": (sum(s["attrs"]["pairs"] for s in infer), "count"),
        "granger.edges_kept": (edges_kept, "count"),
        "granger.pvalue_yield": (edges_kept / pv_calls if pv_calls else 0.0, "ratio"),
        "model.compile_s": (total("model.compile_structure"), "s"),
        "model.forward_eval_s": (statistics.median(eval_runs) if eval_runs else 0.0, "s"),
        "model.forward_eval_calls": (len(eval_runs), "count"),
        "model.member_pad_frac": (last_attr("model.compile_structure", "member_pad_frac"), "ratio"),
        "model.parent_pad_frac": (last_attr("model.compile_structure", "parent_pad_frac"), "ratio"),
        "model.attention_entries": (last_attr("model.compile_structure", "attention_entries"), "count"),
        "model.reduceat_plans": (last_attr("model.compile_structure", "reduceat_plans"), "count"),
        "autodiff.backward_s": (total("autodiff.backward"), "s"),
        "autodiff.scatter_apply_s": (sc_s, "s"),
        "autodiff.scatter_apply_calls": (sc_calls, "count"),
        "training.step_s": (statistics.median(steps) if steps else 0.0, "s"),
        "training.steps": (len(steps), "count"),
        "training.adam_s": (total("training.adam_step"), "s"),
        "training.checkpoint_save_s": (total("training.save_checkpoint"), "s"),
        "training.checkpoint_load_s": (total("training.load_checkpoint"), "s"),
        "metrics.report_s": (float(sum(metric_calls)), "s"),
    }
    for cmd in ("synth", "granger", "train", "eval"):
        spans = [s for s in tr.spans if s["name"] == f"cli.{cmd}"]
        out[f"cli.{cmd}.self_s"] = (float(sum(tr.self_time(s) for s in spans)), "s")
    return out
