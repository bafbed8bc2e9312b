import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from causal_sphhn import synthgen, training
from causal_sphhn.cli import derive_seed
from causal_sphhn.errors import TrainingDiverged
from causal_sphhn.granger import CausalGraph, GrangerConfig, infer_causal_graph
from causal_sphhn.hypergraph import Dataset, Hyperedge
from causal_sphhn.model import ModelConfig, compile_structure, init_params, run_model
from causal_sphhn.training import (
    TrainConfig,
    build_loss,
    gradient_check,
    gradients,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)
from causal_sphhn.vmf import entropy_from_kappa


def toy_instance(seed=0, n=6, with_graph=True, two_parents=False):
    rng = np.random.default_rng(seed)
    ids = [f"n{i}" for i in range(n)]
    features = rng.standard_normal((len(ids), 3, 4))
    edges = [Hyperedge("e0", tuple(ids[:4]), "ctx")]
    labels = {i: k % 2 for k, i in enumerate(ids)}
    ds = Dataset(ids, features, 2, 1, edges, labels,
                 {"train": ids[:4], "val": ids[4:5], "test": ids[5:]})
    graph = None
    if with_graph:
        causal = [("n4", "n5", 3.0, 0.01)]
        if two_parents:
            causal.append(("n1", "n5", 1.0, 0.01))
        graph = CausalGraph(0.05, 2, causal)
    return ds, graph


def randomized_params(cfg, ds, seed, types=("ctx",)):
    params = init_params(cfg, ds.features.shape[-1], ds.classes, tuple(types), np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    for name, t in params.named().items():
        if name in ("attn_temp", "gamma_temp"):
            continue
        t.data = np.asarray(t.data + 0.4 * rng.standard_normal(t.data.shape))
    return params


class TestLoss:
    def setup_method(self):
        self.ds, self.graph = toy_instance()
        self.cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0)
        self.structure = compile_structure(self.ds, self.graph, self.cfg)
        self.params = randomized_params(self.cfg, self.ds, 1)
        self.rows = np.arange(6, dtype=np.int64)
        self.labels = np.array([self.ds.labels[i] for i in [n.node_id for n in self.ds.nodes]])

    def test_one_hot_correct_gives_zero_pred(self):
        run = run_model(self.structure, self.params, mode="eval")
        # overwrite log-probs with a perfect one-hot prediction
        perfect = np.full((6, 2), -745.0)
        perfect[np.arange(6), self.labels] = 0.0
        run.log_probs.data = perfect
        breakdown = build_loss(run, self.rows, TrainConfig(lambda1=0.0, lambda2=0.0))[1]
        assert breakdown.pred == 0.0

    def test_gamma_equal_reference_gives_zero_causal(self):
        # gamma_temp = 1 makes gamma identical to the observed reference.
        self.params.gamma_temp.data = np.asarray(1.0)
        run = run_model(self.structure, self.params, mode="eval")
        breakdown = build_loss(run, self.rows, TrainConfig(lambda2=5.0))[1]
        assert abs(breakdown.causal) < 1e-15

    def test_hand_summed_toy_total(self):
        cfg = TrainConfig(lambda1=0.7, lambda2=0.9)
        self.params.gamma_temp.data = np.asarray(0.6)
        for two_parents in (False, True):
            ds, graph = toy_instance(two_parents=two_parents)
            structure = compile_structure(ds, graph, self.cfg)
            run = run_model(structure, self.params, mode="eval")
            total, breakdown = build_loss(run, self.rows, cfg)
            # independent recomputation from the trace arrays, one child at a time
            logp = run.log_probs.data
            pred = -np.mean([logp[i, self.labels[i]] for i in range(6)])
            ent = np.mean(entropy_from_kappa(4, run.kappa.data))
            kl = 0.0
            for r in range(structure.child_rows.size):
                entries = structure.parent_seg == r
                f = structure.parent_f[entries]
                ghat = np.exp(f - f.max()) / np.exp(f - f.max()).sum()
                kl += float(np.sum(ghat * (np.log(ghat) - np.log(run.gamma.data[entries]))))
            causal = kl / structure.child_rows.size
            assert (causal > 0.0) == two_parents
            expected = pred + 0.7 * ent + 0.9 * causal
            assert abs(total.item() - expected) < 1e-12
            assert abs(breakdown.total - (breakdown.pred + 0.7 * breakdown.entropy + 0.9 * breakdown.causal)) < 1e-10

    def test_labels_come_from_the_structure(self):
        # The batch is its rows: relabelling the dataset changes the loss.
        run = run_model(self.structure, self.params, mode="eval")
        flipped = {k: 1 - v for k, v in self.ds.labels.items()}
        ds = Dataset(self.ds.node_ids, self.ds.features, 2, 1, self.ds.hyperedges, flipped, self.ds.splits)
        run_flipped = run_model(compile_structure(ds, self.graph, self.cfg), self.params, mode="eval")
        logp = run.log_probs.data
        for r, labels in ((run, self.labels), (run_flipped, 1 - self.labels)):
            pred = build_loss(r, self.rows[1:4], TrainConfig())[1].pred
            assert pred == pytest.approx(-np.mean(logp[np.arange(1, 4), labels[1:4]]), abs=1e-12)


class TestGradients:
    def test_symmetric_head_bias_gradient(self):
        ds, _ = toy_instance(seed=2)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0)
        params = init_params(cfg, 4, 2, ("ctx",), np.random.default_rng(3))
        structure = compile_structure(ds, None, cfg)
        # zero head, balanced labels: probabilities are uniform, so the two
        # bias gradients (mean of p - y per class) must match.
        rows = np.arange(6, dtype=np.int64)
        assert np.array_equal(structure.labels, [0, 1, 0, 1, 0, 1])
        grads, _ = gradients(params, structure, rows, TrainConfig(lambda1=0, lambda2=0), mode="eval")
        assert np.allclose(grads["head_b"][0], grads["head_b"][1], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradcheck_passes_on_pipeline_data(self, seed, monkeypatch):
        # The toy preset and its Granger graph: two context types, and gamma
        # segments of one parent (gamma = 1) and of several.
        compiled = []
        exact = training.compile_structure

        def recording(*args, **kwargs):
            compiled.append(exact(*args, **kwargs))
            return compiled[-1]

        monkeypatch.setattr(training, "compile_structure", recording)
        report = gradient_check(seed=seed)
        assert report.passed, report.per_parameter
        assert report.max_rel_error <= 1e-4
        (structure,) = compiled
        assert len(structure.type_pairs) == 2
        parents = np.bincount(structure.parent_seg)
        assert (parents == 1).any() and (parents > 1).any(), parents

    def test_gradcheck_negative_control(self, perturbed_gradients):
        report = gradient_check(seed=0)
        assert report.passed is False

    def test_gradcheck_two_parent_gamma_path(self):
        # two causal parents with distinct F: gamma_temp has real gradient
        ds, graph = toy_instance(seed=4, two_parents=True)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0)
        params = randomized_params(cfg, ds, 5)
        params.gamma_temp.data = np.asarray(0.6)
        structure = compile_structure(ds, graph, cfg)
        rows = np.arange(6, dtype=np.int64)
        tc = TrainConfig(lambda1=0.4, lambda2=0.8)
        grads, _ = gradients(params, structure, rows, tc, mode="eval")
        assert abs(grads["gamma_temp"]) > 0.0

        def eval_loss():
            run = run_model(structure, params, mode="eval")
            return build_loss(run, rows, tc)[0].item()

        h = 1e-5
        orig = float(params.gamma_temp.data)
        params.gamma_temp.data = np.asarray(orig + h)
        up = eval_loss()
        params.gamma_temp.data = np.asarray(orig - h)
        down = eval_loss()
        params.gamma_temp.data = np.asarray(orig)
        numeric = (up - down) / (2 * h)
        assert abs(grads["gamma_temp"] - numeric) <= 1e-4 * max(abs(numeric), 1e-3)

    def test_lambda_zero_matches_pure_cross_entropy(self):
        ds, graph = toy_instance(seed=6)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0)
        params = randomized_params(cfg, ds, 7)
        structure = compile_structure(ds, graph, cfg)
        rows = np.arange(6, dtype=np.int64)
        labels = np.array([ds.labels[n.node_id] for n in ds.nodes])
        g_zero, _ = gradients(params, structure, rows, TrainConfig(lambda1=0.0, lambda2=0.0), mode="eval")

        # independent pure-CE gradient: rebuild the loss with only the
        # prediction term
        for t in params.named().values():
            t.grad = None
        run = run_model(structure, params, mode="eval")
        import causal_sphhn.autodiff as ad
        from causal_sphhn.autodiff import Tensor
        logp = ad.gather_rows(run.log_probs, rows)
        onehot = np.zeros((6, 2))
        onehot[np.arange(6), labels] = 1.0
        pred = -(logp * Tensor(onehot)).sum() * (1.0 / 6)
        pred.backward()
        for name, t in params.named().items():
            ref = t.grad if t.grad is not None else np.zeros_like(t.data)
            assert np.allclose(g_zero[name], ref, atol=1e-15), name


    def test_leaf_gradients_equal_the_pinned_values(self, monkeypatch):
        # The SHA-256 of gradient_check's analytic gradients at seed 0, by
        # sorted parameter name, on the toy preset and its Granger graph,
        # with the head's logits scaled by model.LOGIT_SCALE.
        seen = []
        exact = training.gradients

        def recording(*args, **kwargs):
            grads, rest = exact(*args, **kwargs)
            seen.append(grads)
            return grads, rest

        monkeypatch.setattr(training, "gradients", recording)
        gradient_check(seed=0)
        digest = hashlib.sha256()
        for name in sorted(seen[0]):
            digest.update(np.ascontiguousarray(seen[0][name], dtype=np.float64).tobytes())
        assert digest.hexdigest() == "13eaffb27d03566eb6eb1b9b09c659675fda5f7b971e3874099e803d8215d12d"


def graph_tensors(root):
    """Every tensor reachable from root through ``_parents``."""
    found, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            found.append(t)
            stack.extend(t._parents)
    return found


def base_buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``a`` views."""
    while a.base is not None:
        a = a.base
    return a


class TestMemory:
    def test_one_step_peaks_near_one_forward_graph(self):
        """On ``small`` with the default-alpha graph, no tensor of a training
        step's graph is an (N, N) or (P, N) matrix, flat or not: each
        context type's A_t and the causal weights are rebuilt in backward.
        Nor does a backward closure keep one: the memory a forward and loss
        leave allocated exceeds the tensors' own buffers by less than a
        quarter of an (N, N) matrix.  So one gradients() call holds its
        forward graph plus what one backward op makes at a time: at most one
        N^2·8-byte matrix, beside the Gram backward's concatenated cell
        indices and weights (4·Q·8 bytes for Q member pairs)."""
        ds, _ = synthgen.generate(synthgen.preset("small", seed=derive_seed(0, "synth")))
        graph = infer_causal_graph(ds.nodes, GrangerConfig(), fit_ids=ds.splits["train"])
        model_cfg = ModelConfig()
        structure = compile_structure(ds, graph, model_cfg)
        params = init_params(model_cfg, ds.features.shape[-1], ds.classes, tuple(structure.type_pairs), np.random.default_rng(0))
        rows = structure.splits["train"][:128]
        n, p, q = len(structure.node_ids), structure.child_rows.size, structure.pair_cell.size
        # The parameters and the structure's arrays are allocated before tracing starts.
        inputs = [t.data for t in params.named().values()] + [a for a in vars(structure).values() if isinstance(a, np.ndarray)]
        allocated_before = {id(base_buffer(a)) for a in inputs}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = run_model(structure, params, mode="eval")
            graph_bytes = tracemalloc.get_traced_memory()[0] - before
            total, _ = build_loss(run, rows, TrainConfig())
            retained = tracemalloc.get_traced_memory()[0] - before
            tensors = graph_tensors(total)
            buffers = {id(b): b.nbytes for b in map(base_buffer, (t.data for t in tensors))}
            tensor_bytes = sum(size for key, size in buffers.items() if key not in allocated_before)
            dense = {t.data.shape for t in tensors} & {(n, n), (p, n), (n * n,), (p * n,)}
            del run, total, tensors
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gradients(params, structure, rows, TrainConfig(), mode="train", rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert p > 0 and dense == set()
        assert retained - tensor_bytes < n * n * 8 / 4, ((retained - tensor_bytes) / 1e6, tensor_bytes / 1e6)
        bound = graph_bytes + n * n * 8 + 4 * q * 8
        assert peak <= bound, (peak / 1e6, graph_bytes / 1e6, bound / 1e6)

    def test_one_step_holds_one_dense_matrix_at_a_time(self):
        """Where N^2 dominates, N = 400 nodes in 200 four-member hyperedges
        of two context types and 40 caused nodes with embed_dim 4, one
        gradients() call peaks below two (N, N) float64 matrices.  A graph
        that kept every A_t and the (P, N) weights would peak above five."""
        n = 400
        rng = np.random.default_rng(0)
        ids = [f"n{i}" for i in range(n)]
        edges = [
            Hyperedge(f"e{k}", tuple(ids[(4 * k + j) % n] for j in range(4)), ("a", "b")[k % 2])
            for k in range(n // 2)
        ]
        causal = [(ids[(k + 7) % n], ids[k], 2.0 + k, 0.01) for k in range(0, n, 10)]
        ds = Dataset(ids, rng.standard_normal((n, 2, 4)), 2, 1, edges, {i: k % 2 for k, i in enumerate(ids)},
                     {"train": ids[: n // 2], "val": ids[n // 2 : 3 * n // 4], "test": ids[3 * n // 4 :]})
        model_cfg = ModelConfig(embed_dim=4)
        structure = compile_structure(ds, CausalGraph(alpha=0.05, lag=2, edges=causal), model_cfg)
        params = init_params(model_cfg, 4, 2, tuple(structure.type_pairs), np.random.default_rng(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gradients(params, structure, structure.splits["train"], TrainConfig(), rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8, peak / (n * n * 8)


class TestTrainLoop:
    def test_zero_lr_leaves_params_unchanged(self):
        ds, graph = toy_instance(seed=8)
        mc = ModelConfig(embed_dim=4, layers=1)
        tc = TrainConfig(lr=0.0, max_epochs=3, seed=0)
        params, history = train(ds, graph, mc, tc)
        fresh = init_params(mc, ds.features.shape[-1], ds.classes, ("ctx",), np.random.default_rng(0))
        for name, t in params.named().items():
            assert np.array_equal(t.data, fresh.named()[name].data), name

    def test_learns_linearly_separable_toy(self):
        rng = np.random.default_rng(9)
        n = 40
        ids = [f"n{i}" for i in range(n)]
        centers = {0: np.array([3.0, 0.0, 0.0]), 1: np.array([0.0, 3.0, 0.0])}
        features = np.empty((n, 2, 3))
        labels = {}
        for k, i in enumerate(ids):
            c = k % 2
            features[k] = centers[c] + 0.2 * rng.standard_normal((2, 3))
            labels[i] = c
        edges = [Hyperedge(f"e{j}", (ids[2 * j], ids[2 * j + 1]), "t") for j in range(n // 2)]
        ds = Dataset(ids, features, 2, 1, edges, labels,
                     {"train": ids[: n - 8], "val": ids[n - 8 : n - 4], "test": ids[n - 4 :]})
        mc = ModelConfig(embed_dim=8, layers=1, dropout=0.0)
        tc = TrainConfig(lambda1=0.0, lambda2=0.0, max_epochs=100, seed=1)
        params, history = train(ds, None, mc, tc)
        structure = compile_structure(ds, None, params.config)
        run = run_model(structure, params, mode="eval")
        train_rows = np.array([i for i, nid in enumerate(ids) if nid in ds.splits["train"]])
        preds = run.probs.data[train_rows].argmax(1)
        truth = np.array([labels[ids[i]] for i in train_rows])
        assert (preds == truth).mean() >= 0.99

    def test_same_seed_reproducible(self):
        ds, graph = toy_instance(seed=10)
        mc = ModelConfig(embed_dim=4, layers=1)
        tc = TrainConfig(max_epochs=5, seed=123)
        p1, h1 = train(ds, graph, mc, tc)
        p2, h2 = train(ds, graph, mc, tc)
        assert h1 == h2 or all(
            all(a[k] == b[k] for k in a if k != "wallclock_ms") for a, b in zip(h1, h2)
        )
        d1 = hashlib.sha256(json.dumps({k: v.tolist() for k, v in p1.copy_values().items()}).encode()).hexdigest()
        d2 = hashlib.sha256(json.dumps({k: v.tolist() for k, v in p2.copy_values().items()}).encode()).hexdigest()
        assert d1 == d2

    def test_early_stopping_returns_best_checkpoint(self):
        ds, graph = toy_instance(seed=11)
        mc = ModelConfig(embed_dim=4, layers=1)
        tc = TrainConfig(max_epochs=40, patience=5, seed=2)
        params, history = train(ds, graph, mc, tc)
        best = min(h["val_loss"] for h in history)
        structure = compile_structure(ds, graph, params.config)
        run = run_model(structure, params, mode="eval")
        breakdown = build_loss(run, structure.splits["val"], tc)[1]
        assert breakdown.total <= best + 1e-9

    def test_divergence_raises_with_checkpoint(self):
        ds, graph = toy_instance(seed=12)
        mc = ModelConfig(embed_dim=4, layers=1)
        tc = TrainConfig(lr=1e155, max_epochs=10, seed=3)
        with pytest.raises(TrainingDiverged):
            train(ds, graph, mc, tc)

    def test_nonfinite_projection_diverges_at_the_step(self, monkeypatch):
        # Finite parameters whose projection overflows: a NumericalError, not vmf's ContractViolation.
        init = training.init_params

        def huge(*args):
            params = init(*args)
            params.proj_w.data = np.full_like(params.proj_w.data, 1e308)
            return params

        monkeypatch.setattr(training, "init_params", huge)
        ds, graph = toy_instance(seed=18)
        with pytest.raises(TrainingDiverged, match=r"^projection of node n\d is nonfinite$"):
            train(ds, graph, ModelConfig(embed_dim=4, layers=1), TrainConfig(max_epochs=3, seed=8))

    def test_nonfinite_projection_diverges_at_validation(self, monkeypatch):
        # A step that leaves finite parameters whose projection overflows stops at the validation forward.
        step = training.Adam.step

        def overflowing(opt, grads):
            step(opt, grads)
            opt.params["proj_w"].data = np.full_like(opt.params["proj_w"].data, 1e308)

        monkeypatch.setattr(training.Adam, "step", overflowing)
        ds, graph = toy_instance(seed=19)
        with pytest.raises(TrainingDiverged, match=r"^validation forward at epoch 0: projection of node n\d is nonfinite$"):
            train(ds, graph, ModelConfig(embed_dim=4, layers=1), TrainConfig(max_epochs=3, seed=9))

    def test_dataset_is_dropped_before_the_first_step(self, monkeypatch):
        # The CLI hands train() its only reference, so the (N, T, d) block is not kept through training.
        args = list(toy_instance(seed=15))
        dataset, alive, step = weakref.ref(args[0]), [], training.Adam.step
        monkeypatch.setattr(training.Adam, "step", lambda opt, grads: (alive.append(dataset() is not None), step(opt, grads)))
        train(args.pop(0), args.pop(0), ModelConfig(embed_dim=4, layers=1), TrainConfig(max_epochs=2, seed=6))
        assert alive and not any(alive)

    def test_each_epoch_is_one_step_over_the_train_split(self, monkeypatch):
        # Every epoch takes one gradient over the train split's own rows and one Adam step.
        ds, graph = toy_instance(seed=17)
        calls, exact = [], training.gradients

        def counting(params, structure, rows, *args, **kwargs):
            calls.append(rows is structure.splits["train"])
            return exact(params, structure, rows, *args, **kwargs)

        monkeypatch.setattr(training, "gradients", counting)
        _, history = train(ds, graph, ModelConfig(embed_dim=4, layers=1), TrainConfig(max_epochs=3, patience=3, seed=7))
        assert len(history) == 3 and calls == [True] * 3

    def test_entropy_term_weakly_decreases_with_lambda1(self):
        ds, graph = toy_instance(seed=13, n=10)
        finals = []
        for lam1 in (0.0, 0.1, 1.0):
            mc = ModelConfig(embed_dim=4, layers=1)
            tc = TrainConfig(lambda1=lam1, lambda2=0.1, max_epochs=25, patience=25, seed=4)
            params, history = train(ds, graph, mc, tc)
            finals.append(history[-1]["entropy"])
        assert finals[1] <= finals[0] + 1e-6
        assert finals[2] <= finals[1] + 1e-6


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds, graph = toy_instance(seed=14)
        mc = ModelConfig(embed_dim=4, layers=1)
        tc = TrainConfig(max_epochs=2, seed=5)
        params, history = train(ds, graph, mc, tc)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, params, tc, graph)
        loaded, loaded_tc, loaded_graph = load_checkpoint(path)
        for name, t in params.named().items():
            assert np.array_equal(t.data, loaded.named()[name].data)
        assert loaded_tc == tc
        assert loaded_graph.edges.tolist() == graph.edges.tolist()
        # The manifest digests the configs, and Adam's constants are the module's own.
        doc = json.load(open(path))
        # The arrays give the architecture, so no "arch" block restates it.
        assert doc["format_version"] == 6 and not {"config_digest", "adam", "arch"} & doc.keys()

    def test_parameter_names_follow_the_fields_and_the_checkpoint_follows_them(self, tmp_path):
        # The context types are given unsorted; names and weights follow their sorted order.
        params = init_params(ModelConfig(embed_dim=4), 3, 2, ("class", "activity"), np.random.default_rng(0))
        names = [
            "proj_w", "proj_b", "kappa_w", "kappa_b", "edge_w:activity", "edge_w:class",
            "attn_temp", "causal_w", "gamma_temp", "head_w", "head_b",
        ]
        assert list(params.named()) == names
        assert list(params.constants().named()) == names
        assert params.named()["edge_w:class"] is params.edge_w["class"]
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, params, TrainConfig(), None)
        assert list(json.load(open(path))["params"]) == names
        assert list(load_checkpoint(path)[0].named()) == names

    def test_loaded_parameters_are_constants(self, tmp_path):
        # A checkpoint is loaded for inference: its forward builds no graph, at the same bits.
        ds, graph = toy_instance(seed=16, two_parents=True)
        mc = ModelConfig(embed_dim=4, layers=2, dropout=0.0)
        params = randomized_params(mc, ds, 8)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, params, TrainConfig(), graph)
        loaded, _, loaded_graph = load_checkpoint(path)
        structure = compile_structure(ds, loaded_graph, mc)
        run, ref = run_model(structure, loaded, mode="eval"), run_model(structure, params, mode="eval")
        assert not any(t.requires_grad for t in loaded.named().values())
        assert run.logits.requires_grad is False and ref.logits.requires_grad
        for got, want in ((run.logits, ref.logits), (run.probs, ref.probs), (run.entropy, ref.entropy)):
            assert np.array_equal(got.data, want.data)
        view = params.constants()
        assert all(view.named()[k].data is t.data for k, t in params.named().items())

    def test_history_csv(self, tmp_path):
        history = [
            {"epoch": 0, "train_loss": 1.5, "val_loss": 1.25, "pred": 1.0,
             "entropy": -2.0, "causal": 0.0, "wallclock_ms": 12}
        ]
        path = str(tmp_path / "history.csv")
        write_history_csv(history, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,pred,entropy,causal,wallclock_ms"
        assert lines[1].startswith("0,1.5,1.25,1.0,-2.0,0.0,12")
