import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn import autodiff as ad
from causal_sphhn import synthgen
from causal_sphhn.errors import ContractViolation, NumericalError, ValidationError
from causal_sphhn.granger import CausalGraph
from causal_sphhn.hypergraph import Dataset, Hyperedge
from causal_sphhn.model import (
    _NORM_EPS,
    KAPPA_INIT,
    LOGIT_SCALE,
    ModelConfig,
    ModelParams,
    compile_structure,
    forward,
    init_params,
    run_model,
    softplus_inverse,
)
from causal_sphhn.training import TrainConfig, build_loss, gradients
from causal_sphhn.vmf import log_uniform_density
from reference_ops import (
    SphericalEmbedding,
    causal_aggregate,
    causal_gamma,
    causal_parents,
    edge_attention,
    hyperedge_aggregate,
    incidence,
    member_pairs,
    padded_alpha,
    pairwise_expand,
    project,
)
from test_autodiff import rows_in_eps


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
    features = rng.standard_normal((len(ids), t, d))
    if edges is None:
        edges = [Hyperedge("e0", tuple(ids[: min(4, n)]), "c")]
    labels = {i: k % classes for k, i in enumerate(ids)}
    splits = {"train": ids[: n - 2], "val": ids[n - 2 : n - 1], "test": ids[n - 1 :]}
    return Dataset(ids, features, classes, 1, edges, labels, splits)


class TestSoftplusInverse:
    @pytest.mark.parametrize("y", [1e-300, 1e-3, 0.5, 2.0, 20.0, 709.0, 800.0, 1e6])
    def test_inverts_softplus_without_overflow(self, y):
        x = softplus_inverse(y)
        assert math.isfinite(x)
        assert np.logaddexp(0.0, x) == pytest.approx(y, rel=1e-15)

    @pytest.mark.parametrize("y", [2.0, 20.0])
    def test_matches_the_direct_form_bitwise(self, y):
        # KAPPA_INIT and gradient_check's initial kappa keep their exact bits.
        assert softplus_inverse(y) == float(np.log(np.expm1(y)))


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


def projection_run(z):
    """run_model at layers=0 with proj_w = I and proj_b = 0, so node i's
    projection is row i of ``z``, with kappa_w = 0 and kappa = KAPPA_INIT
    off the degenerate rows; and the params it ran with."""
    n, d = z.shape
    ids = [f"n{i}" for i in range(n)]
    ds = Dataset(ids, z[:, None, :], 2, 1, [], {i: 0 for i in ids}, {"train": ids, "val": [], "test": []})
    cfg = ModelConfig(embed_dim=d, layers=0, dropout=0.0)
    params = init_params(cfg, d, 2, (), np.random.default_rng(0))
    params.proj_w.data = np.eye(d)
    return run_model(compile_structure(ds, None, cfg), params, mode="eval"), params


class TestDegenerateRows:
    """A projected row with no direction gets h = e_1 and kappa = 0, on
    exactly the same rows, in the package and in the oracle."""

    @staticmethod
    def check(z):
        """kappa is 0 on exactly the rows where h is e_1, and the oracle agrees."""
        run, params = projection_run(z)
        h, kappa = run.layers[0].data, run.kappa.data
        assert np.array_equal(kappa == 0.0, np.all(h == np.eye(z.shape[1])[0], axis=1))
        for row, row_h, row_kappa in zip(z, h, kappa):
            emb = project(row, params)
            assert np.array_equal(emb.h, row_h)
            assert (emb.kappa == 0.0) == (row_kappa == 0.0)
        return run

    @settings(max_examples=200, deadline=None)
    @given(rows_in_eps())
    @example(np.zeros((1, 3)))
    def test_kappa_is_zero_exactly_where_h_is_e1(self, rows):
        self.check(rows * _NORM_EPS)

    def test_row_between_norm_and_squared_norm_has_a_direction_and_a_kappa(self):
        # |z|^2 exceeds eps^2, but |z| rounds to eps: a mask read off the
        # norm called this row degenerate while the sphere did not.
        z = np.array([[1e-12, 9.764623219360446e-21]])
        assert (z * z).sum() > _NORM_EPS**2 and np.linalg.norm(z) == _NORM_EPS
        run = self.check(z)
        assert run.layers[0].data[0, 1] > 0.0
        assert run.kappa.data[0] == pytest.approx(KAPPA_INIT)

    def test_zero_projection_is_uniform_and_passes_kappa_no_gradient(self):
        rng = np.random.default_rng(20)
        ds = make_dataset(rng)
        ds.features[0, -1] = 0.0
        cfg = ModelConfig(embed_dim=4, layers=2, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, seed=21)
        params.proj_b.data = np.zeros(4)
        structure = compile_structure(ds, None, cfg)
        run = run_model(structure, params, mode="eval")
        assert run.kappa.data[0] == 0.0 and np.all(run.kappa.data[1:] > 0.0)
        assert np.array_equal(run.layers[0].data[0], [1.0, 0.0, 0.0, 0.0])
        train = TrainConfig(lambda1=1.0)
        grads, _ = gradients(params, structure, np.array([0]), train, mode="eval")
        assert np.all(grads["kappa_w"] == 0.0) and grads["kappa_b"] == 0.0
        assert np.any(grads["head_w"] != 0.0)  # the row still reaches the loss
        grads, _ = gradients(params, structure, np.array([1]), train, mode="eval")
        assert grads["kappa_b"] != 0.0


class TestOverflow:
    """A projection whose square sum overflows still reaches the sphere; a
    forward whose finite parameters give a nonfinite row raises
    NumericalError naming the stage and the node, not vmf's ContractViolation."""

    def test_a_projection_whose_square_sum_overflows_is_on_the_sphere(self):
        ds = make_dataset(np.random.default_rng(42))
        huge = dataclasses.replace(ds, features=ds.features * 1e300)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, seed=43)
        structure = compile_structure(huge, None, cfg)
        run = run_model(structure, params, mode="eval")
        # At this scale proj_b is lost in rounding: z is 1e300 times the unbiased projection of ds.
        z = ds.features[:, -1] @ params.proj_w.data.T
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(((1e300 * z) ** 2).sum(axis=1)))
        assert np.allclose(run.layers[0].data, z / np.linalg.norm(z, axis=1, keepdims=True), rtol=1e-12, atol=1e-15)
        grads, _ = gradients(params, structure, structure.splits["train"], TrainConfig(), mode="eval")
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    @pytest.mark.parametrize("euclidean, name, stage", [
        (False, "proj_w", "projection"), (True, "proj_w", "projection"),
        (False, "kappa_w", "kappa"), (True, "kappa_w", "kappa"),
        (False, "edge_w:a", "layer 1"), (True, "edge_w:a", "layer 1"),
        (True, "causal_w", "causal injection"),
    ])
    def test_a_nonfinite_row_is_a_numerical_error(self, euclidean, name, stage):
        ds, graph = mixed_size_instance()
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0, euclidean=euclidean)
        params = tiny_params(cfg, in_dim=4, types=("a", "b"), seed=44)
        # Each projection then points into the positive orthant, so every product with 1e308 overflows upward.
        params.proj_b.data = np.full(4, 10.0)
        params.named()[name].data = np.full_like(params.named()[name].data, 1e308)
        structure = compile_structure(ds, graph, cfg)
        pattern = f"^{stage} of node n[0-7] is nonfinite$"
        with pytest.raises(NumericalError, match=pattern):
            run_model(structure, params.constants(), mode="eval")
        with pytest.raises(NumericalError, match=pattern):
            gradients(params, structure, structure.splits["train"], TrainConfig(), mode="eval")


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
        attn = {"e0": edge_attention(e, embeds, 2.0)}
        out = hyperedge_aggregate("a", embeds, incidence([e]), params, attn, {"e0": e})
        assert np.allclose(out, h, atol=1e-12)  # h is nonnegative

    def test_isolated_node_fallback(self):
        cfg = ModelConfig(embed_dim=3, layers=1, dropout=0.0)
        params = init_params(cfg, 3, 2, ("t",), np.random.default_rng(0))
        out = hyperedge_aggregate("a", {}, incidence([]), params, {}, {})
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
            node_edges = incidence(edge_list)
            edges = {e.edge_id: e for e in edge_list}
            attn = {
                e.edge_id: edge_attention(e, embeds, float(params.attn_temp.data))
                for e in edge_list
            }
            for i, nid in enumerate(structure.node_ids):
                ref = hyperedge_aggregate(nid, embeds, node_edges, params, attn, edges)
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
        graph = CausalGraph(0.01, 2, [("p", "x", 123.0, 1e-4)])
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
            [("p", "x", 10.0, 1e-4), ("q", "x", 10.0, 1e-4)],
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

    @pytest.mark.parametrize("euclidean", [False, True])
    def test_rows_without_parents_keep_h_bitwise(self, euclidean):
        ds, graph = mixed_size_instance()
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0, euclidean=euclidean)
        run = run_model(compile_structure(ds, graph, cfg), tiny_params(cfg, in_dim=4, types=("a", "b"), seed=34))
        children = run.structure.child_rows
        others = np.setdiff1d(np.arange(len(ds.nodes)), children)
        assert children.size and others.size
        assert np.array_equal(run.h_final.data[others], run.layers[-1].data[others])
        assert not np.any(run.h_final.data[children] == run.layers[-1].data[children])

    def test_gamma_per_child_matches_reference(self):
        ds, graph = mixed_size_instance()
        params = tiny_params(ModelConfig(embed_dim=4, layers=0), in_dim=4, types=("a", "b"), seed=32)
        params.gamma_temp.data = np.asarray(0.7)
        structure = compile_structure(ds, graph, params.config)
        run = run_model(structure, params, mode="eval")
        for r, row in enumerate(structure.child_rows):
            entries = structure.parent_seg == r
            parents, ref = causal_gamma(structure.node_ids[row], graph, 0.7)
            assert [structure.node_ids[p] for p in structure.parent_rows[entries]] == [e.src for e in parents]
            assert np.allclose(run.gamma.data[entries], ref, rtol=0.0, atol=1e-15)
            assert np.allclose(run.log_gamma.data[entries], np.log(ref), rtol=0.0, atol=1e-14)


def mixed_size_instance():
    """Edges of 2, 3 and 5 members and children with 1 or 3 causal parents,
    so both the member and the parent arrays carry padding."""
    rng = np.random.default_rng(30)
    ids = [f"n{i}" for i in range(8)]
    edges = [Hyperedge(f"p{i}", (ids[i + 1], ids[i + 2]), "a") for i in range(5)]
    edges += [Hyperedge("t0", ("n0", "n3", "n5"), "b"), Hyperedge("f0", tuple(ids[3:8]), "a")]
    ds = make_dataset(rng, n=8, edges=edges)
    graph = CausalGraph(0.01, 2, [
        ("n1", "n2", 2.0, 1e-3),
        ("n3", "n7", 5.0, 1e-3),
        ("n4", "n7", 1.0, 1e-3),
        ("n5", "n7", 3.0, 1e-3),
    ])
    return ds, graph


class TestCompiledPlans:
    @pytest.mark.parametrize("pairwise", [False, True])
    def test_plan_set_is_the_same_for_every_edge_size(self, pairwise):
        ds, graph = mixed_size_instance()
        structure = compile_structure(ds, graph, ModelConfig(pairwise=pairwise))
        assert structure.plans == {}
        assert list(structure.type_pairs) == ["a", "b"]
        for name in ("pair_cell", "pair_cell_t", "parent_starts", "parent_seg", "parent_rows"):
            field = getattr(structure, name)
            assert field.ndim == 1 and field.dtype == np.int64, name
        # The type ranges tile the pair arrays in order.
        spans = list(structure.type_pairs.values())
        assert spans[0].start == 0 and spans[-1].stop == structure.pair_cell.size
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))

    def test_plans_count_valid_slots_only(self):
        for pairwise in (False, True):
            ds, graph = mixed_size_instance()
            structure = compile_structure(ds, graph, ModelConfig(pairwise=pairwise))
            n = len(structure.node_ids)
            member_idx, member_mask = structure.member_idx, structure.member_mask
            assert pairwise or not member_mask.all()
            pair_slot = member_pairs(ds, pairwise)["pair_slot"]
            e, i, j = np.unravel_index(pair_slot, member_mask.shape + member_mask.shape[1:])
            assert np.all(member_mask[e, i] & member_mask[e, j])
            n_pairs = (member_mask.sum(axis=1) ** 2).sum()
            assert structure.pair_cell.size == np.unique(pair_slot).size == n_pairs
            assert np.array_equal(structure.pair_cell, member_idx[e, i] * n + member_idx[e, j])
            edges = pairwise_expand(ds.hyperedges) if pairwise else ds.hyperedges
            for t, span in structure.type_pairs.items():
                assert {edges[row].context_type for row in e[span]} == {t}

            # One flat entry per causal edge, each child's parents one segment.
            parent_mask = structure.parent_mask
            assert not parent_mask.all()
            assert structure.parent_rows.size == parent_mask.sum() == len(graph.edges)
            lens = np.diff(np.append(structure.parent_starts, structure.parent_seg.size))
            assert np.array_equal(lens, parent_mask.sum(axis=1))
            assert np.array_equal(structure.parent_seg, np.repeat(np.arange(lens.size), lens))
            ids = structure.node_ids
            children = structure.child_rows[structure.parent_seg]
            edges = {(ids[c], ids[p]) for c, p in zip(children, structure.parent_rows)}
            assert edges == {(e.dst, e.src) for e in graph.edges}

    def test_unknown_member_is_validation_error(self):
        # The dataset refuses the member when built, so no structure can be compiled over it.
        ds, _ = mixed_size_instance()
        with pytest.raises(ValidationError, match="hyperedge g0 references unknown node ghost"):
            dataclasses.replace(ds, hyperedges=[*ds.hyperedges, Hyperedge("g0", ("n0", "ghost"), "a")])

    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_unknown_causal_endpoint_is_validation_error(self, end):
        # A graph naming a node the dataset lacks is not applied to the rest.
        ds, graph = mixed_size_instance()
        edge = {"src": "n0", "dst": "n1", end: "ghost"}
        graph = CausalGraph(graph.alpha, graph.lag, [*graph.edges, (edge["src"], edge["dst"], 2.0, 1e-3)])
        with pytest.raises(ValidationError, match=f"causal edge {edge['src']} -> {edge['dst']} .*unknown node ghost"):
            compile_structure(ds, graph, ModelConfig())

    def test_label_out_of_range_is_rejected(self):
        # A label of -1 would pick the last class in the loss's one-hot
        # lookup; the dataset refuses it when built, before any structure.
        ds, _ = mixed_size_instance()
        for label in (9, -1):
            with pytest.raises(ValidationError, match=f"label {label} of node n3 out of range"):
                dataclasses.replace(ds, labels={**ds.labels, "n3": label})

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(0, 7), st.integers(0, 30), st.booleans())
    def test_arrays_match_edge_by_edge_construction(self, seed, n, n_edges, n_causal, pairwise):
        # Ids like "v10" sort before "v2", so the pairwise sort by id and
        # the causal sort by child and parent id differ from the node order.
        rng = np.random.default_rng(seed)
        ids = [f"v{i}" for i in rng.permutation(n)]
        edges = []
        for k in range(n_edges):
            size = int(rng.integers(2, min(6, n) + 1))
            members = tuple(str(m) for m in rng.choice(ids, size=size, replace=False))
            edges.append(Hyperedge(f"e{k}", members, "abc"[int(rng.integers(0, 3))]))
        features = rng.standard_normal((len(ids), 2, 3))
        labels = {i: k % 2 for k, i in enumerate(ids)}
        ds = Dataset(ids, features, 2, 1, edges, labels,
                     {"train": ids[:1], "val": ids[1:2], "test": ids[2:]})
        # Distinct ordered pairs of dataset nodes.
        pairs = {tuple(str(m) for m in rng.choice(ids, size=2, replace=False)) for _ in range(n_causal)}
        graph = CausalGraph(0.01, 2, [(s, d, float(rng.uniform(0.0, 50.0)), 1e-3) for s, d in pairs])
        structure = compile_structure(ds, graph, ModelConfig(pairwise=pairwise))
        assert structure.labels.dtype == np.int64
        assert structure.labels.tolist() == [labels[i] for i in ids]
        for name, part in ds.splits.items():
            assert structure.splits[name].dtype == np.int64
            assert structure.splits[name].tolist() == sorted(ids.index(i) for i in part), name
        want = causal_parents(ds, graph)
        for name, expected in want.items():
            got = getattr(structure, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        for name, want in member_pairs(ds, pairwise).items():
            if name == "pair_slot":  # an offset in the padded block, which the structure does not keep
                continue
            got = getattr(structure, name)
            if isinstance(want, dict):
                assert got == want, name
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want), name

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


    def test_benchmark_layer_targets_resolve(self):
        # The benchmark's traced runs patch every LAYER_TARGETS entry, and
        # its workloads read model.forward's logits and probs: a deletion
        # that breaks either fails here.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for name, mod_name, attr, _, _ in spans.LAYER_TARGETS:
            owner = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), name
        ds, graph = mixed_size_instance()
        params = tiny_params(ModelConfig(embed_dim=4, layers=1), in_dim=4, types=("a", "b"))
        trace = forward(ds, graph, params, mode="eval")
        assert trace.logits.shape == trace.probs.shape == (len(ds.nodes), ds.classes)


class TestForward:
    def test_zero_layers_is_projection_only(self):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng)
        cfg = ModelConfig(embed_dim=4, layers=0, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, seed=11)
        trace = forward(ds, None, params, mode="eval")
        for i, node in enumerate(ds.nodes):
            emb = project(node.features[-1], params)
            logits = LOGIT_SCALE * (params.head_w.data @ emb.h + params.head_b.data)
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
        features = rng.standard_normal((len(ids), 2, 3))
        edges = [Hyperedge("e", ("a", "b", "c"), "t")]
        ds = Dataset(ids, features, 2, 1, edges, {"a": 0, "b": 1, "c": 0},
                     {"train": ["a"], "val": ["b"], "test": ["c"]})
        graph = CausalGraph(0.01, 2, [("a", "c", 4.0, 1e-3)])
        cfg = ModelConfig(embed_dim=3, layers=1, dropout=0.0)
        params = tiny_params(cfg, in_dim=3, classes=2, types=("t",), seed=15)
        trace = forward(ds, graph, params, mode="eval")

        w, b = params.proj_w.data, params.proj_b.data
        kw, kb = params.kappa_w.data, float(params.kappa_b.data)
        we = params.edge_w["t"].data
        wc = params.causal_w.data
        temp = float(params.attn_temp.data)
        hw, hb = params.head_w.data, params.head_b.data

        x = features[:, -1]
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
        logits = LOGIT_SCALE * (final @ hw.T + hb)
        assert np.max(np.abs(trace.logits - logits)) < 1e-10

    def test_head_scales_the_logits_on_the_sphere_only(self):
        # Over unit-norm h the logits w_c.h + b_c are bounded by ||w_c|| + |b_c|,
        # so the sphere's are scaled; unnormalised euclidean h sets its own range.
        ds = make_dataset(np.random.default_rng(16))
        for euclidean, scale in ((False, LOGIT_SCALE), (True, 1.0)):
            cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.0, euclidean=euclidean)
            params = tiny_params(cfg, in_dim=4, seed=17)
            run = run_model(compile_structure(ds, None, cfg), params, mode="eval")
            raw = run.h_final.data @ params.head_w.data.T + params.head_b.data
            assert np.allclose(run.logits.data, scale * raw, rtol=1e-14, atol=0.0), euclidean

    def test_initial_attention_mixes(self):
        # Every segment holds the node's own pair, whose cosine is 1.  At an
        # initial temperature of 20 that pair took 0.98-0.99 of its segment in
        # each layer, and the layers passed no messages.
        ds, _ = synthgen.generate(synthgen.preset("toy", seed=0))
        cfg = ModelConfig()
        structure = compile_structure(ds, None, cfg)
        rows_i, rows_j = np.divmod(structure.pair_cell, len(structure.node_ids))
        own = rows_i == rows_j
        assert np.count_nonzero(own) == structure.seg_starts.size
        for seed in range(3):
            params = init_params(cfg, ds.features.shape[-1], ds.classes, tuple(structure.type_pairs),
                                 np.random.default_rng(seed))
            run = run_model(structure, params, mode="eval")
            assert len(run.alphas) == cfg.layers
            for layer, alpha in enumerate(run.alphas):
                assert alpha.data[own].mean() < 0.6, (seed, layer, alpha.data[own].mean())

    def test_structural_invariants_over_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(4, 9))
            ids = [f"n{i}" for i in range(n)]
            features = rng.standard_normal((len(ids), 2, 3))
            edges = []
            for k in range(int(rng.integers(1, 4))):
                size = int(rng.integers(2, min(5, n) + 1))
                members = tuple(rng.choice(ids, size=size, replace=False))
                edges.append(Hyperedge(f"e{k}", members, "t"))
            labels = {i: j % 2 for j, i in enumerate(ids)}
            ds = Dataset(ids, features, 2, 1, edges, labels,
                         {"train": ids[:2], "val": ids[2:3], "test": ids[3:]})
            graph = CausalGraph(0.01, 2, [(ids[0], ids[1], 5.0, 1e-3)])
            cfg = ModelConfig(embed_dim=5, layers=2, dropout=0.0)
            params = tiny_params(cfg, in_dim=3, types=("t",), seed=seed)
            run = run_model(compile_structure(ds, graph, cfg), params, mode="eval")
            for h in run.layers + [run.h_final]:
                norms = np.linalg.norm(h.data, axis=1)
                assert np.max(np.abs(norms - 1.0)) <= 1e-9
            valid = run.structure.member_mask
            for flat in run.alphas:
                alpha = padded_alpha(flat.data, ds, False)
                sums = alpha.sum(axis=2)
                for e_row in range(alpha.shape[0]):
                    for slot in range(alpha.shape[1]):
                        if valid[e_row, slot]:
                            assert abs(sums[e_row, slot] - 1.0) <= 1e-9
            assert np.max(np.abs(run.probs.data.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(run.kappa.data >= 0.0)
            assert np.all(run.entropy.data <= log_uniform_density(5) * -1.0 + 1e-9)

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
            alpha = padded_alpha(run.alphas[0].data, ds, pairwise)
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
        cfg = ModelConfig(embed_dim=3, layers=2, dropout=0.0)
        params = tiny_params(cfg, in_dim=4, types=("a", "b"), seed=33)
        params.attn_temp.data = np.asarray(1.5)
        structure = compile_structure(ds, graph, cfg)
        rows = np.arange(len(structure.node_ids))
        train_cfg = TrainConfig(lambda1=0.7, lambda2=0.9)
        grads, _ = gradients(params, structure, rows, train_cfg, mode="eval")

        def loss_value():
            run = run_model(structure, params, mode="eval")
            return build_loss(run, rows, train_cfg)[0].item()

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

    @pytest.mark.parametrize("euclidean", [False, True])
    def test_constants_get_no_gradient(self, monkeypatch, euclidean):
        # Every tensor the forward pass and the loss make, recorded as it is
        # built: after backward only those that require grad hold one.
        made = []
        init = ad.Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        ds, graph = mixed_size_instance()
        cfg = ModelConfig(embed_dim=3, layers=2, dropout=0.5, euclidean=euclidean)
        params = tiny_params(cfg, in_dim=4, types=("a", "b"), seed=35)
        structure = compile_structure(ds, graph, cfg)
        rows = np.arange(len(structure.node_ids))
        made.clear()
        gradients(params, structure, rows, TrainConfig(), rng=np.random.default_rng(0))
        constants = [t for t in made if not t.requires_grad]
        assert len(constants) > 10
        assert all(t.grad is None for t in constants)
        assert all(t.grad is not None for t in params.named().values())

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

    @pytest.mark.parametrize(
        "in_dim, classes, types, message",
        [
            (3, 2, ("c",), "feature dim 4 != model in_dim 3"),
            (4, 3, ("c",), "dataset classes do not match model head"),
            (4, 2, ("d",), r"no edge weights for context types \['c'\]"),
        ],
        ids=["in_dim", "classes", "context_types"],
    )
    def test_architecture_is_read_off_the_arrays(self, in_dim, classes, types, message):
        # ModelParams keeps no in_dim, class count or type list beside the arrays that state them.
        assert not {"in_dim", "classes", "edge_types"} & {f.name for f in dataclasses.fields(ModelParams)}
        ds = make_dataset(np.random.default_rng(26), d=4)
        params = tiny_params(ModelConfig(embed_dim=4, layers=1, dropout=0.0), in_dim, classes, types, seed=27)
        with pytest.raises(ContractViolation, match=message):
            forward(ds, None, params, mode="eval")

    def test_train_mode_needs_rng_with_dropout(self):
        rng = np.random.default_rng(24)
        ds = make_dataset(rng)
        cfg = ModelConfig(embed_dim=4, layers=1, dropout=0.5)
        params = tiny_params(cfg, in_dim=4, seed=25)
        with pytest.raises(ContractViolation):
            forward(ds, None, params, mode="train")
