import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from causal_sphhn.errors import ContractViolation
from causal_sphhn.granger import CausalEdge, CausalGraph
from causal_sphhn.hypergraph import Dataset, Hyperedge, NodeFeatureSeries, build_index
from causal_sphhn.model import (
    ModelConfig,
    compile_structure,
    forward,
    init_params,
    pairwise_expand,
    run_model,
)
from causal_sphhn.training import TrainConfig, build_loss, gradients
from causal_sphhn.vmf import log_uniform_density
from reference_ops import (
    SphericalEmbedding,
    causal_aggregate,
    edge_attention,
    hyperedge_aggregate,
    project,
)


def tiny_params(cfg, in_dim=2, classes=2, types=("c",), seed=0, randomize=True):
    params = init_params(cfg, in_dim, classes, tuple(types), np.random.default_rng(seed))
    if randomize:
        rng = np.random.default_rng(seed + 1)
        for name, t in params.named().items():
            if name in ("attn_temp", "gamma_temp"):
                continue
            t.data = np.asarray(t.data + 0.3 * rng.standard_normal(t.data.shape))
    return params


def make_dataset(rng, n=5, t=3, d=4, classes=2, edges=None):
    ids = [f"n{i}" for i in range(n)]
    nodes = [NodeFeatureSeries(i, rng.standard_normal((t, d))) for i in ids]
    if edges is None:
        edges = [Hyperedge("e0", tuple(ids[: min(4, n)]), "c")]
    labels = {i: k % classes for k, i in enumerate(ids)}
    splits = {"train": ids[: n - 2], "val": ids[n - 2 : n - 1], "test": ids[n - 1 :]}
    ds = Dataset(d, t, classes, 1, nodes, edges, labels, splits)
    ds.validate()
    return ds


class TestProject:
    def test_identity_normalization(self):
        cfg = ModelConfig(embed_dim=2, layers=0, dropout=0.0)
        params = init_params(cfg, 2, 2, ("c",), np.random.default_rng(0))
        params.proj_w.data = np.eye(2)
        params.proj_b.data = np.zeros(2)
        emb = project(np.array([3.0, 4.0]), params)
        assert np.allclose(emb.h, [0.6, 0.8], atol=1e-12)

    def test_degenerate_input_falls_back(self):
        cfg = ModelConfig(embed_dim=3, layers=0, dropout=0.0)
        params = init_params(cfg, 3, 2, ("c",), np.random.default_rng(0))
        params.proj_b.data = np.zeros(3)
        emb = project(np.zeros(3), params)
        assert np.array_equal(emb.h, [1.0, 0.0, 0.0])
        assert emb.kappa == 0.0

    def test_unit_norm_and_parallel(self):
        cfg = ModelConfig(embed_dim=6, layers=0, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(4)
            emb = project(x, params)
            z = params.proj_w.data @ x + params.proj_b.data
            assert abs(np.linalg.norm(emb.h) - 1.0) <= 1e-9
            assert emb.h @ z / np.linalg.norm(z) >= 1.0 - 1e-9
            assert emb.kappa >= 0.0


class TestEdgeAttention:
    def test_antipodal_pair(self):
        e = Hyperedge("e", ("a", "b"), "c")
        embeds = {
            "a": SphericalEmbedding(np.array([1.0, 0.0]), 1.0),
            "b": SphericalEmbedding(np.array([-1.0, 0.0]), 1.0),
        }
        members, alpha = edge_attention(e, embeds, attn_temp=1.0)
        expected_self = math.e / (math.e + math.exp(-1.0))
        assert abs(alpha[0, 0] - expected_self) < 1e-4
        assert abs(alpha[0, 1] - (1.0 - expected_self)) < 1e-4

    def test_identical_members_uniform(self):
        h = np.array([0.0, 1.0, 0.0])
        e = Hyperedge("e", ("a", "b", "c"), "t")
        embeds = {k: SphericalEmbedding(h, 1.0) for k in "abc"}
        _, alpha = edge_attention(e, embeds, attn_temp=7.0)
        assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)

    def test_zero_temperature_uniform(self):
        rng = np.random.default_rng(5)
        hs = rng.standard_normal((3, 4))
        hs /= np.linalg.norm(hs, axis=1, keepdims=True)
        e = Hyperedge("e", ("a", "b", "c"), "t")
        embeds = {k: SphericalEmbedding(h, 1.0) for k, h in zip("abc", hs)}
        _, alpha = edge_attention(e, embeds, attn_temp=0.0)
        assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        hs = rng.standard_normal((4, 5))
        hs /= np.linalg.norm(hs, axis=1, keepdims=True)
        e = Hyperedge("e", tuple("abcd"), "t")
        embeds = {k: SphericalEmbedding(h, 1.0) for k, h in zip("abcd", hs)}
        _, alpha = edge_attention(e, embeds, attn_temp=3.0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(alpha > 0.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        hs = rng.standard_normal((3, 6))
        hs /= np.linalg.norm(hs, axis=1, keepdims=True)
        e = Hyperedge("e", ("a", "b", "c"), "t")
        embeds = {k: SphericalEmbedding(h, 1.0) for k, h in zip("abc", hs)}
        _, base = edge_attention(e, embeds, attn_temp=5.0)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            rotated = {
                k: SphericalEmbedding(q @ v.h / np.linalg.norm(q @ v.h), v.kappa)
                for k, v in embeds.items()
            }
            _, alpha = edge_attention(e, rotated, attn_temp=5.0)
            assert np.allclose(alpha, base, atol=1e-9)


class TestHyperedgeAggregate:
    def test_identical_members_identity_weight(self):
        cfg = ModelConfig(embed_dim=3, layers=1, dropout=0.0)
        params = init_params(cfg, 3, 2, ("t",), np.random.default_rng(0))
        params.edge_w["t"].data = np.eye(3)
        h = np.array([0.6, 0.8, 0.0])
        e = Hyperedge("e0", ("a", "b"), "t")
        embeds = {k: SphericalEmbedding(h, 1.0) for k in "ab"}
        index_edges = {"e0": e}
        attn = {"e0": edge_attention(e, embeds, 2.0)}

        class FakeIndex:
            node_to_edges = {"a": ("e0",), "b": ("e0",)}

        out = hyperedge_aggregate("a", embeds, FakeIndex(), params, attn, index_edges)
        assert np.allclose(out, h, atol=1e-12)  # h is nonnegative

    def test_isolated_node_fallback(self):
        cfg = ModelConfig(embed_dim=3, layers=1, dropout=0.0)
        params = init_params(cfg, 3, 2, ("t",), np.random.default_rng(0))

        class FakeIndex:
            node_to_edges = {"a": ()}

        out = hyperedge_aggregate("a", {}, FakeIndex(), params, {}, {})
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_matches_naive_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, n=5, d=4, edges=[
            Hyperedge("e0", tuple(f"n{i}" for i in range(5)), "c"),
            Hyperedge("e1", ("n0", "n3"), "d"),
            Hyperedge("e2", ("n1", "n2", "n4"), "d"),
        ])
        for pairwise in (False, True):
            cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0, pairwise=pairwise)
            params = tiny_params(cfg, in_dim=4, types=("c", "d"), seed=9)
            structure = compile_structure(ds, None, cfg)
            run = run_model(structure, params, mode="eval")

            edge_list = pairwise_expand(ds.hyperedges) if pairwise else ds.hyperedges
            embeds = {n.node_id: project(n.features[-1], params) for n in ds.nodes}
            index = build_index(dataclasses.replace(ds, hyperedges=edge_list))
            edges = {e.edge_id: e for e in edge_list}
            attn = {
                e.edge_id: edge_attention(e, embeds, float(params.attn_temp.data))
                for e in edge_list
            }
            for i, nid in enumerate(structure.node_ids):
                ref = hyperedge_aggregate(nid, embeds, index, params, attn, edges)
                assert np.allclose(run.layers[1].data[i], ref, atol=1e-12)


class TestCausalAggregate:
    def make(self, d=3):
        cfg = ModelConfig(embed_dim=d, layers=0, dropout=0.0)
        return init_params(cfg, d, 2, ("t",), np.random.default_rng(0))

    def test_no_parents_identity(self):
        params = self.make()
        h = np.array([1.0, 0.0, 0.0])
        graph = CausalGraph(0.01, 2, [])
        assert np.array_equal(causal_aggregate("x", h, graph, {}, params), h)

    def test_single_parent_unit_weight(self):
        params = self.make()
        params.causal_w.data = np.eye(3)
        graph = CausalGraph(0.01, 2, [CausalEdge("p", "x", 123.0, 1e-4)])
        h = np.array([1.0, 0.0, 0.0])
        hp = np.array([0.0, 1.0, 0.0])
        out = causal_aggregate("x", h, graph, {"p": hp}, params)
        expected = (h + hp) / np.linalg.norm(h + hp)
        assert np.allclose(out, expected, atol=1e-12)

    def test_equal_f_stats_split_evenly(self):
        params = self.make()
        params.causal_w.data = np.eye(3)
        graph = CausalGraph(
            0.01, 2,
            [CausalEdge("p", "x", 10.0, 1e-4), CausalEdge("q", "x", 10.0, 1e-4)],
        )
        h = np.array([1.0, 0.0, 0.0])
        embeds = {"p": np.array([0.0, 1.0, 0.0]), "q": np.array([0.0, 0.0, 1.0])}
        out = causal_aggregate("x", h, graph, embeds, params)
        expected = h + 0.5 * embeds["p"] + 0.5 * embeds["q"]
        expected /= np.linalg.norm(expected)
        assert np.allclose(out, expected, atol=1e-12)

    def test_padded_parent_sets_match_reference(self):
        ds, graph = mixed_size_instance()
        cfg = ModelConfig(embed_dim=4, layers=0, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, types=("a", "b"), seed=31)
        run = run_model(compile_structure(ds, graph, cfg), params, mode="eval")
        embeds = {n.node_id: project(n.features[-1], params).h for n in ds.nodes}
        for i, nid in enumerate(run.structure.node_ids):
            ref = causal_aggregate(nid, embeds[nid], graph, embeds, params)
            assert np.allclose(run.h_final.data[i], ref, atol=1e-12), nid


def mixed_size_instance():
    """Edges of 2, 3 and 5 members and children with 1 or 3 causal parents,
    so both the member and the parent arrays carry padding."""
    rng = np.random.default_rng(30)
    ids = [f"n{i}" for i in range(8)]
    edges = [Hyperedge(f"p{i}", (ids[i + 1], ids[i + 2]), "a") for i in range(5)]
    edges += [Hyperedge("t0", ("n0", "n3", "n5"), "b"), Hyperedge("f0", tuple(ids[3:8]), "a")]
    ds = make_dataset(rng, n=8, edges=edges)
    graph = CausalGraph(0.01, 2, [
        CausalEdge("n1", "n2", 2.0, 1e-3),
        CausalEdge("n3", "n7", 5.0, 1e-3),
        CausalEdge("n4", "n7", 1.0, 1e-3),
        CausalEdge("n5", "n7", 3.0, 1e-3),
    ])
    return ds, graph


class TestCompiledPlans:
    @pytest.mark.parametrize("pairwise", [False, True])
    def test_plan_set_is_the_same_for_every_edge_size(self, pairwise):
        ds, graph = mixed_size_instance()
        structure = compile_structure(ds, graph, ModelConfig(pairwise=pairwise))
        assert sorted(structure.plans) == ["children"]
        assert list(structure.type_pairs) == ["a", "b"]
        for name in ("pair_slot", "pair_cell", "parent_slot", "parent_cell"):
            field = getattr(structure, name)
            assert field.ndim == 1 and field.dtype == np.int64, name
        # The type ranges tile the pair arrays in order.
        spans = list(structure.type_pairs.values())
        assert spans[0].start == 0 and spans[-1].stop == structure.pair_slot.size
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))

    def test_plans_count_valid_slots_only(self):
        for pairwise in (False, True):
            ds, graph = mixed_size_instance()
            structure = compile_structure(ds, graph, ModelConfig(pairwise=pairwise))
            n = len(structure.node_ids)
            member_idx, member_mask = structure.member_idx, structure.member_mask
            assert pairwise or not member_mask.all()
            e, i, j = np.unravel_index(structure.pair_slot, member_mask.shape + member_mask.shape[1:])
            assert np.all(member_mask[e, i] & member_mask[e, j])
            n_pairs = (member_mask.sum(axis=1) ** 2).sum()
            assert structure.pair_slot.size == np.unique(structure.pair_slot).size == n_pairs
            assert np.array_equal(structure.pair_cell, member_idx[e, i] * n + member_idx[e, j])
            edges = pairwise_expand(ds.hyperedges) if pairwise else ds.hyperedges
            for t, span in structure.type_pairs.items():
                assert {edges[row].context_type for row in e[span]} == {t}

            parent_mask = structure.parent_mask
            assert not parent_mask.all()
            r, c = np.unravel_index(structure.parent_slot, parent_mask.shape)
            assert np.all(parent_mask[r, c]) and structure.parent_slot.size == parent_mask.sum()
            assert np.array_equal(structure.parent_cell, r * n + structure.parent_idx[r, c])

    @pytest.mark.parametrize("pairwise", [False, True])
    def test_benchmark_structure_hook_reads_compiled_structure(self, pairwise):
        # The benchmark's traced runs read these GraphStructure fields.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        ds, graph = mixed_size_instance()
        structure = compile_structure(ds, graph, ModelConfig(pairwise=pairwise))
        attrs = spans._structure_attrs((ds, graph), {}, structure)
        edges, k = structure.member_idx.shape
        assert attrs == {
            "member_pad_frac": pytest.approx(1.0 - structure.member_mask.mean()),
            "parent_pad_frac": pytest.approx(1.0 - structure.parent_mask.mean()),
            "attention_entries": edges * k * k,
            "reduceat_plans": 0,
        }
        assert (k == 2) == pairwise
        assert (attrs["member_pad_frac"] == 0.0) == pairwise
        assert attrs["parent_pad_frac"] > 0.0


class TestForward:
    def test_zero_layers_is_projection_only(self):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng)
        cfg = ModelConfig(embed_dim=4, layers=0, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, seed=11)
        trace = forward(ds, None, params, mode="eval")
        for i, node in enumerate(ds.nodes):
            emb = project(node.features[-1], params)
            logits = params.head_w.data @ emb.h + params.head_b.data
            assert np.allclose(trace.logits[i], logits, atol=1e-12)

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng)
        cfg = ModelConfig(embed_dim=4, layers=2, dropout=0.2)
        params = tiny_params(cfg, in_dim=4, seed=13)
        t1 = forward(ds, None, params, mode="eval")
        t2 = forward(ds, None, params, mode="eval")
        assert np.array_equal(t1.logits, t2.logits)
        assert np.array_equal(t1.probs, t2.probs)

    def test_dual_implementation_oracle(self):
        # Straight-line reimplementation of the full pipeline for a 3-node,
        # 1-edge, 1-causal-link instance; no shared code with the model.
        rng = np.random.default_rng(14)
        ids = ["a", "b", "c"]
        nodes = [NodeFeatureSeries(i, rng.standard_normal((2, 3))) for i in ids]
        edges = [Hyperedge("e", ("a", "b", "c"), "t")]
        ds = Dataset(3, 2, 2, 1, nodes, edges, {"a": 0, "b": 1, "c": 0},
                     {"train": ["a"], "val": ["b"], "test": ["c"]})
        graph = CausalGraph(0.01, 2, [CausalEdge("a", "c", 4.0, 1e-3)])
        cfg = ModelConfig(embed_dim=3, layers=1, dropout=0.0)
        params = tiny_params(cfg, in_dim=3, classes=2, types=("t",), seed=15)
        trace = forward(ds, graph, params, mode="eval")

        w, b = params.proj_w.data, params.proj_b.data
        kw, kb = params.kappa_w.data, float(params.kappa_b.data)
        we = params.edge_w["t"].data
        wc = params.causal_w.data
        temp = float(params.attn_temp.data)
        hw, hb = params.head_w.data, params.head_b.data

        x = np.stack([n.features[-1] for n in nodes])
        z = x @ w.T + b
        h0 = z / np.linalg.norm(z, axis=1, keepdims=True)
        # attention within the single edge
        logits_a = temp * (h0 @ h0.T)
        ex = np.exp(logits_a - logits_a.max(axis=1, keepdims=True))
        alpha = ex / ex.sum(axis=1, keepdims=True)
        m = np.zeros_like(h0)
        for i in range(3):
            inner = np.zeros(3)
            for j in range(3):
                inner += alpha[i, j] * h0[j]
            m[i] = we @ inner
        act = np.maximum(m, 0.0)
        h1 = act / np.linalg.norm(act, axis=1, keepdims=True)
        # causal step for node c (row 2), parent a (row 0), single parent
        final = h1.copy()
        combined = h1[2] + wc @ h1[0]
        final[2] = combined / np.linalg.norm(combined)
        logits = final @ hw.T + hb
        assert np.max(np.abs(trace.logits - logits)) < 1e-10

    def test_structural_invariants_over_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(4, 9))
            ids = [f"n{i}" for i in range(n)]
            nodes = [NodeFeatureSeries(i, rng.standard_normal((2, 3))) for i in ids]
            edges = []
            for k in range(int(rng.integers(1, 4))):
                size = int(rng.integers(2, min(5, n) + 1))
                members = tuple(rng.choice(ids, size=size, replace=False))
                edges.append(Hyperedge(f"e{k}", members, "t"))
            labels = {i: j % 2 for j, i in enumerate(ids)}
            ds = Dataset(3, 2, 2, 1, nodes, edges, labels,
                         {"train": ids[:2], "val": ids[2:3], "test": ids[3:]})
            graph = CausalGraph(0.01, 2, [CausalEdge(ids[0], ids[1], 5.0, 1e-3)])
            cfg = ModelConfig(embed_dim=5, layers=2, dropout=0.0)
            params = tiny_params(cfg, in_dim=3, types=("t",), seed=seed)
            trace = forward(ds, graph, params, mode="eval")
            for h in trace.layer_embeddings:
                norms = np.linalg.norm(h, axis=1)
                assert np.max(np.abs(norms - 1.0)) <= 1e-9
            for alpha in trace.attention:
                sums = alpha.sum(axis=2)
                valid = trace.member_mask
                for e_row in range(alpha.shape[0]):
                    for slot in range(alpha.shape[1]):
                        if valid[e_row, slot]:
                            assert abs(sums[e_row, slot] - 1.0) <= 1e-9
            assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(trace.kappa >= 0.0)
            assert np.all(trace.entropy <= log_uniform_density(5) * -1.0 + 1e-9)

    def test_empty_graph_equals_no_causal_bitwise(self):
        rng = np.random.default_rng(16)
        ds = make_dataset(rng)
        cfg = ModelConfig(embed_dim=4, layers=2, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, seed=17)
        t_empty = forward(ds, CausalGraph(0.01, 2, []), params, mode="eval")
        t_none = forward(ds, None, params, mode="eval")
        assert np.array_equal(t_empty.logits, t_none.logits)

    def test_batched_attention_matches_reference_op(self):
        rng = np.random.default_rng(18)
        ds = make_dataset(rng, n=6, edges=[
            Hyperedge("e0", ("n0", "n1", "n2"), "c"),
            Hyperedge("e1", ("n2", "n3", "n4", "n5"), "c"),
        ])
        for pairwise in (False, True):
            cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0, pairwise=pairwise)
            params = tiny_params(cfg, in_dim=4, seed=19)
            structure = compile_structure(ds, None, cfg)
            run = run_model(structure, params, mode="eval")
            embeds = {n.node_id: project(n.features[-1], params) for n in ds.nodes}
            alpha = run.alphas[0].data
            edge_list = pairwise_expand(ds.hyperedges) if pairwise else ds.hyperedges
            assert alpha.shape[0] == len(edge_list)
            for row, e in enumerate(edge_list):
                members, ref = edge_attention(e, embeds, float(params.attn_temp.data))
                k = len(members)
                assert np.allclose(alpha[row, :k, :k], ref, atol=1e-12)

    def test_gradients_match_finite_differences_with_padding(self):
        # Edges of 2, 3 and 5 members and parent sets of 1 and 3: the
        # kernel's flat gathers and scatters see padding on both sides.
        ds, graph = mixed_size_instance()
        cfg = ModelConfig(embed_dim=3, layers=2, dropout=0.0, attn_temp_init=1.5)
        params = tiny_params(cfg, in_dim=4, types=("a", "b"), seed=33)
        structure = compile_structure(ds, graph, cfg)
        rows = np.arange(len(structure.node_ids))
        labels = np.array([ds.labels[nid] for nid in structure.node_ids])
        train_cfg = TrainConfig(lambda1=0.7, lambda2=0.9)
        grads, _ = gradients(params, structure, rows, labels, train_cfg, mode="eval")

        def loss_value():
            run = run_model(structure, params, mode="eval")
            return build_loss(run, rows, labels, train_cfg)[0].item()

        step = 1e-5
        for name, t in params.named().items():
            flat, analytic = t.data.reshape(-1), grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_value()
                flat[i] = orig - step
                down = loss_value()
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(analytic[i]), abs(numeric), 1e-3)
                assert abs(analytic[i] - numeric) / denom <= 1e-5, (name, i)

    def test_pairwise_expand(self):
        edges = [Hyperedge("e", ("a", "b", "c"), "t")]
        pairs = pairwise_expand(edges)
        assert len(pairs) == 3
        assert all(len(p.members) == 2 for p in pairs)
        assert all(p.context_type == "t" for p in pairs)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        ds = make_dataset(rng, d=4)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0)
        params = tiny_params(cfg, in_dim=3, seed=23)
        with pytest.raises(ContractViolation):
            forward(ds, None, params, mode="eval")

    def test_train_mode_needs_rng_with_dropout(self):
        rng = np.random.default_rng(24)
        ds = make_dataset(rng)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.5)
        params = tiny_params(cfg, in_dim=4, seed=25)
        with pytest.raises(ContractViolation):
            forward(ds, None, params, mode="train")
