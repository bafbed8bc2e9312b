"""The benchmark's three workloads, each a closed loop of one client.

Every workload builds its inputs from the workload seed exactly as
``cli.derive_seed`` does, so the program only ever sees generated inputs.

* ``pipeline_small`` runs the four CLI commands as separate processes, the
  way a user runs them.  It is the only workload with dataset JSON I/O, and
  its training takes the padded hyperedge path against a dense causal graph.
* ``granger_medium`` calls ``infer_causal_graph`` in-process on ``medium``
  and nothing else, so a change to the Granger kernel or its p-value step
  shows undiluted.
* ``train_pairwise_small`` trains in-process on ``small`` with the 2-member
  pairwise expansion against a sparse Bonferroni graph, then runs one eval
  forward.  It does no I/O and no Granger work, so changes to those must
  leave it unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
from causal_sphhn import cli, granger, hypergraph, metrics, model, synthgen, training

# Epochs are fixed (patience equals max_epochs, so early stopping cannot
# fire) and sized so that a training run lasts several seconds: four-epoch
# runs spread by about 20% from run to run.
PIPELINE_EPOCHS = 8
PAIRWISE_EPOCHS = 8
TOY_EPOCHS = 2
ECE_BINS = 10
LOG_TAIL = 400  # bytes of a failed command's output kept in its failure message


@dataclass
class Outcome:
    """What one iteration measured and what its checks found."""

    wall_s: float = 0.0
    stages: dict = field(default_factory=dict)  # stage metric -> seconds
    ops: dict = field(default_factory=dict)  # operation -> failure messages
    fingerprints: dict = field(default_factory=dict)  # name -> (operation, digest)
    quality: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)  # outputs kept for the checks

    def fail(self, op: str, message: str) -> None:
        self.ops.setdefault(op, []).append(message)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_child(argv: list[str], env: dict, cwd: str, log_path: str) -> tuple[int, float]:
    """Run a child to completion; return its exit code and peak RSS in MB."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def in_child(iterate) -> Outcome:
    """Run ``iterate()`` in a forked child and return its Outcome with the child's peak RSS.

    The child starts with the pages this process holds, the inputs among
    them, and its high-water mark covers only the iteration, not the set-ups
    and checks that came before it.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(iterate(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0:
        out = Outcome()
        out.fail("iteration", f"iteration process ended with status {os.waitstatus_to_exitcode(status)}")
        return out
    out = pickle.loads(data)
    out.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
    return out


def _log_tail(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    return data[-LOG_TAIL:].decode(errors="replace").strip()


def _test_rows(ds) -> tuple[np.ndarray, np.ndarray]:
    """Test-split rows and labels, selected as the ``eval`` command does."""
    index = ds.node_index()
    rows = np.asarray([index[i] for i in sorted(ds.splits["test"])], dtype=np.int64)
    labels = np.asarray([ds.labels[ds.nodes[r].node_id] for r in rows], dtype=np.int64)
    return rows, labels


def _planted(truth) -> set:
    return {(e.src, e.dst) for e in truth}


class Workload:
    """What the three workloads share; each defines setup, iterate and check."""

    runs_children = False

    def prepare(self) -> None:
        """Build what every set-up reuses, once per run and before the timed set-ups."""

    def untraced_iteration(self) -> Outcome:
        """One iteration, in a forked child so that its peak RSS is its own."""
        return in_child(self.iterate)


class PipelineSmall(Workload):
    name = "pipeline_small"
    runs_children = True
    stages = ("synth", "granger", "train", "eval")
    reports = (
        "setup_s", "wall_s", "synth_s", "granger_s", "train_s", "eval_s", "peak_rss_mb",
        "dataset_mb", "spurious_edges", "planted_recall", "test_accuracy", "test_ece",
    )

    def __init__(self, seed: int, toy: bool, work: str, root: str, env: dict):
        self.seed, self.root, self.env, self.work = seed, root, env, work
        self.preset = "toy" if toy else "small"
        self.epochs = TOY_EPOCHS if toy else PIPELINE_EPOCHS
        self.ds = None
        self.ds_digest = None

    def _path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def setup(self) -> None:
        """Fresh work directory, the training config, and a warm interpreter."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        with open(self._path("train_config.json"), "w", encoding="utf-8") as fh:
            json.dump({"max_epochs": self.epochs, "patience": self.epochs}, fh)
        rc, _ = run_child(
            [sys.executable, "-c", "import causal_sphhn.cli"], self.env, self.root, self._path("warm.log")
        )
        if rc != 0:
            raise RuntimeError(f"importing causal_sphhn.cli failed: {_log_tail(self._path('warm.log'))}")

    def argv(self, stage: str) -> list[str]:
        data, seed = self._path("synth", "dataset.json"), str(self.seed)
        return {
            "synth": ["synth", "--preset", self.preset, "--out", self._path("synth"), "--seed", seed],
            "granger": ["granger", "--dataset", data, "--out", self._path("granger")],
            "train": [
                "train", "--dataset", data, "--graph", self._path("granger", "causal.json"),
                "--config", self._path("train_config.json"), "--out", self._path("train"), "--seed", seed,
            ],
            "eval": [
                "eval", "--checkpoint", self._path("train", "checkpoint.json"), "--dataset", data,
                "--truth", self._path("synth", "truth.json"), "--out", self._path("eval"), "--seed", seed,
            ],
        }[stage]

    def untraced_iteration(self) -> Outcome:
        """One iteration; each command's peak RSS is read from its own process."""
        return self.iterate()

    def iterate(self, tracer=None, in_process: bool = False) -> Outcome:
        """Each command is one operation.

        Commands run as child processes, or through ``cli.main`` in this
        process when ``in_process`` is set or the iteration is traced, so
        that the wrappers see inside each command.
        """
        out = Outcome()
        start = time.perf_counter()
        for stage in self.stages:
            t0 = time.perf_counter()
            if tracer is None and not in_process:
                log = self._path(f"{stage}.log")
                rc, rss = run_child(
                    [sys.executable, "-m", "causal_sphhn.cli", *self.argv(stage)], self.env, self.root, log
                )
                detail = _log_tail(log) if rc else ""
                out.peak_rss_mb = max(out.peak_rss_mb, rss)
            else:
                sink, detail = io.StringIO(), ""
                span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
                with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        rc = cli.main(self.argv(stage))
                    except Exception:
                        rc, detail = -1, traceback.format_exc(limit=3)
                detail = detail or sink.getvalue()[-LOG_TAIL:]
            out.stages[f"{stage}_s"] = time.perf_counter() - t0
            out.ops[stage] = [] if rc == 0 else [f"{stage} exited with code {rc}: {detail}"]
            if rc != 0:
                break
        out.wall_s = time.perf_counter() - start
        return out

    def check(self, out: Outcome, first: bool) -> None:
        if any(out.ops[s] for s in out.ops) or len(out.ops) != len(self.stages):
            return  # a command failed; its outputs are not there to check
        data = self._path("synth", "dataset.json")
        digest = sha256_file(data)
        out.fingerprints["dataset"] = ("synth", digest)
        out.quality["dataset_mb"] = os.path.getsize(data) / 1e6
        if digest != self.ds_digest:
            self.ds, self.ds_digest = hypergraph.load_dataset(data), digest

        graph = granger.CausalGraph.load(self._path("granger", "causal.json"))
        planted = _planted(synthgen.load_truth(self._path("synth", "truth.json")))
        found = {(e.src, e.dst) for e in graph.edges}
        out.fingerprints["edges"] = ("granger", checks.edge_fingerprint(found))
        out.quality.update(checks.edge_quality(found, planted))
        if first:
            # The fallback pairs are only visible in-process, so the kernel
            # runs once more here; it must find the command's edges.
            cfg, fit_ids = granger.GrangerConfig(), self.ds.splits["train"]
            with checks.recorded_fallbacks() as fallbacks:
                again = granger.infer_causal_graph(self.ds.nodes, cfg, fit_ids=fit_ids)
            if checks.edge_fingerprint((e.src, e.dst) for e in again.edges) != out.fingerprints["edges"][1]:
                out.fail("granger", "in-process infer_causal_graph found other edges than the granger command")
            failures, stats = checks.granger_oracle(self.ds.nodes, fit_ids, graph, planted, fallbacks, cfg, self.seed)
            out.extra.update(stats)
            for msg in failures:
                out.fail("granger", msg)

        with open(self._path("train", "history.csv"), encoding="utf-8") as fh:
            history = list(csv.DictReader(fh))
        for msg in checks.check_losses(history):
            out.fail("train", msg)
        if len(history) != self.epochs:
            out.fail("train", f"trained {len(history)} epochs, expected {self.epochs}")

        params, _, ckpt_graph = training.load_checkpoint(self._path("train", "checkpoint.json"))
        fwd = model.forward(self.ds, ckpt_graph, params, mode="eval")
        for msg in checks.check_forward(fwd.logits, fwd.probs):
            out.fail("eval", msg)
        out.fingerprints["logits"] = ("eval", checks.array_checksum(fwd.logits))
        with open(self._path("eval", "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        rows, labels = _test_rows(self.ds)
        probs = fwd.probs[rows]
        acc = metrics.accuracy(probs.argmax(axis=1), labels, self.ds.classes)
        ece = metrics.ece(probs, labels, bins=ECE_BINS)
        if acc != report["accuracy"] or abs(ece - report["ece"]) > 1e-12:
            out.fail("eval", f"report accuracy/ECE {report['accuracy']}/{report['ece']} != recomputed {acc}/{ece}")
        out.quality["test_accuracy"] = report["accuracy"]
        out.quality["test_ece"] = report["ece"]


class GrangerMedium(Workload):
    name = "granger_medium"
    reports = ("setup_s", "wall_s", "peak_rss_mb", "spurious_edges", "planted_recall")

    def __init__(self, seed: int, toy: bool, work: str, root: str, env: dict):
        self.seed = seed
        self.preset = "toy" if toy else "medium"
        self.ds = None

    def setup(self) -> None:
        self.ds = None  # free the previous inputs before building new ones
        cfg = synthgen.preset(self.preset, seed=cli.derive_seed(self.seed, "synth"))
        self.ds, truth = synthgen.generate(cfg)
        self.planted = _planted(truth)

    def iterate(self, tracer=None) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        try:
            with checks.recorded_fallbacks() as fallbacks:
                graph = granger.infer_causal_graph(
                    self.ds.nodes, granger.GrangerConfig(), fit_ids=self.ds.splits["train"]
                )
        except Exception:
            out.wall_s = time.perf_counter() - t0
            out.fail("iteration", traceback.format_exc(limit=3))
            return out
        out.wall_s = time.perf_counter() - t0
        out.ops["iteration"] = []
        out.extra.update({"graph": graph, "fallbacks": fallbacks})
        return out

    def check(self, out: Outcome, first: bool) -> None:
        graph = out.extra.pop("graph", None)
        fallbacks = out.extra.pop("fallbacks", None)
        if graph is None:
            return
        found = {(e.src, e.dst) for e in graph.edges}
        out.fingerprints["edges"] = ("iteration", checks.edge_fingerprint(found))
        out.quality.update(checks.edge_quality(found, self.planted))
        if first:
            failures, stats = checks.granger_oracle(
                self.ds.nodes, self.ds.splits["train"], graph, self.planted, fallbacks,
                granger.GrangerConfig(), self.seed,
            )
            out.extra.update(stats)
            for msg in failures:
                out.fail("iteration", msg)


class TrainPairwiseSmall(Workload):
    name = "train_pairwise_small"
    reports = ("prepare_s", "setup_s", "wall_s", "train_s", "peak_rss_mb", "test_accuracy", "test_ece")

    def __init__(self, seed: int, toy: bool, work: str, root: str, env: dict):
        self.seed = seed
        self.preset = "toy" if toy else "small"
        self.epochs = TOY_EPOCHS if toy else PAIRWISE_EPOCHS
        self.ds = self.graph = None

    def _generate(self):
        return synthgen.generate(synthgen.preset(self.preset, seed=cli.derive_seed(self.seed, "synth")))[0]

    def prepare(self) -> None:
        """The Bonferroni causal graph, built once.

        It is a Granger run, several seconds long and as noisy as the host;
        timed in every set-up it would dominate ``setup_s``, and Granger is
        measured by the other two workloads.  Generation is deterministic,
        so the graph fits every dataset the set-ups build.
        """
        ds = self._generate()
        self.graph = granger.infer_causal_graph(
            ds.nodes, granger.GrangerConfig(bonferroni=True), fit_ids=ds.splits["train"]
        )

    def setup(self) -> None:
        self.ds = None  # free the previous inputs before building new ones
        self.ds = self._generate()
        self.rows, self.labels = _test_rows(self.ds)

    def iterate(self, tracer=None) -> Outcome:
        out = Outcome()
        train_cfg = training.TrainConfig(
            max_epochs=self.epochs, patience=self.epochs, seed=cli.derive_seed(self.seed, "train")
        )
        t0 = time.perf_counter()
        try:
            params, history = training.train(self.ds, self.graph, model.ModelConfig(pairwise=True), train_cfg)
            t1 = time.perf_counter()
            fwd = model.forward(self.ds, self.graph, params, mode="eval")
            probs = fwd.probs[self.rows]
            acc = metrics.accuracy(probs.argmax(axis=1), self.labels, self.ds.classes)
            ece = metrics.ece(probs, self.labels, bins=ECE_BINS)
        except Exception:
            out.wall_s = time.perf_counter() - t0
            out.fail("iteration", traceback.format_exc(limit=3))
            return out
        out.wall_s = time.perf_counter() - t0
        out.stages["train_s"] = t1 - t0
        out.ops["iteration"] = []
        out.quality.update({"test_accuracy": acc, "test_ece": ece})
        out.extra.update({"history": history, "logits": fwd.logits, "probs": fwd.probs})
        return out

    def check(self, out: Outcome, first: bool) -> None:
        history = out.extra.pop("history", None)
        if history is None:
            return
        logits, probs = out.extra.pop("logits"), out.extra.pop("probs")
        for msg in checks.check_losses(history) + checks.check_forward(logits, probs):
            out.fail("iteration", msg)
        if len(history) != self.epochs:
            out.fail("iteration", f"trained {len(history)} epochs, expected {self.epochs}")
        out.fingerprints["logits"] = ("iteration", checks.array_checksum(logits))


WORKLOADS = {w.name: w for w in (PipelineSmall, GrangerMedium, TrainPairwiseSmall)}
