import hashlib
import json

import numpy as np
import pytest
from dataclasses import asdict, replace

from causal_sphhn.errors import ContractViolation
from causal_sphhn.granger import GrangerConfig, infer_causal_graph
from causal_sphhn.hypergraph import save_dataset
from causal_sphhn.synthgen import (
    PRESETS,
    PlantedEdge,
    SynthConfig,
    generate,
    load_truth,
    preset,
    save_truth,
)


def small_cfg(seed, planted=(), **kw):
    base = dict(
        n_nodes=6,
        n_hyperedges=6,
        mean_edge_size=3.0,
        feature_dim=4,
        timesteps=500,
        n_classes=2,
        planted_edges=tuple(planted),
        n_communities=2,
        noise_sigma=1.0,
        seed=seed,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ContractViolation):
            small_cfg(0, planted=[(0, 1, 0.7), (2, 1, 0.4)])

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(ContractViolation):
            small_cfg(0, planted=[(0, 1, 1.5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ContractViolation):
            small_cfg(0, planted=[(1, 1, 0.5)])

    def test_negative_burn_in_rejected(self):
        # The first 5 timesteps of the feature block would never be written.
        with pytest.raises(ContractViolation, match="burn_in"):
            small_cfg(0, burn_in=-5)

    def test_negative_hyperedge_count_rejected(self):
        # coverage[:-3] would silently keep all but three coverage edges.
        with pytest.raises(ContractViolation, match="n_hyperedges"):
            small_cfg(0, n_hyperedges=-3)

    def test_negative_split_fraction_rejected(self):
        # The fractions sum to 1, yet would give an all-train split.
        with pytest.raises(ContractViolation, match="split fractions"):
            small_cfg(0, split_fracs=(1.5, -0.25, -0.25))

    def test_zero_burn_in_and_hyperedges_accepted(self):
        ds, _ = generate(small_cfg(0, burn_in=0, n_hyperedges=0, split_fracs=(1.0, 0.0, 0.0)))
        assert ds.hyperedges == [] and len(ds.splits["train"]) == 6

    def test_unknown_preset(self):
        with pytest.raises(ContractViolation):
            preset("giant", 0)


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = preset("toy", seed=9)
        ds1, t1 = generate(cfg)
        ds2, t2 = generate(cfg)
        # The document names its block, so the two go to two directories.
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(ds1, str(a / "ds.json"))
        save_dataset(ds2, str(b / "ds.json"))
        for name in ("ds.json", "ds.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert t1 == t2

    def test_features_finite_across_seeds(self):
        for seed in range(10):
            ds, _ = generate(small_cfg(seed, planted=[(0, 3, 0.8)]))
            for n in ds.nodes:
                assert np.all(np.isfinite(n.features))

    def test_caused_nodes_are_isolated_and_unanchored(self):
        cfg = small_cfg(3, planted=[(0, 4, 0.8)], n_nodes=12, n_hyperedges=8, n_communities=3)
        ds, truth = generate(cfg)
        caused = {e.dst for e in truth}
        for e in ds.hyperedges:
            assert not (caused & set(e.members))

    def test_truth_round_trip(self, tmp_path):
        truth = [PlantedEdge("n0000", "n0003", 0.8)]
        path = str(tmp_path / "truth.json")
        save_truth(truth, path)
        assert load_truth(path) == truth


# SHA-256 of each preset's whole config, as sorted-key JSON, by seed.
PRESET_DIGESTS = {
    ("toy", 7): "5684e9440d493cc17d8f4c28081337b8399e5ad36785e38f2332030f5ad27a3d",
    ("toy", 0): "380b827c6eff1e8a13cf1ed4fc17366e201ca3b10813d5288816bfdc02cef59e",
    ("toy", 1): "4940ff43e4a1e7129d10048e765d50df449db15f462ada4df2c8da6d7a0a467f",
    ("small", 11): "0bd217feec5ae52c5c6e6cfc7165995e4570b70da5c3f7903f686739a427fa44",
    ("small", 0): "212b39f62782c235abc4e65bd9902dbb7da9d3869f6d4b6b46a8ccf7a349789e",
    ("small", 1): "5953f8eee6f4417f149bf291762d690d157e021e7b36c31c9f8bf15a6a20065d",
    ("medium", 13): "ee47951ac1598281deed1e6235cd33714d14d866bb8f883a6cdcf5558f779a0e",
    ("medium", 0): "e2b76516dd81978ee590190fb758b0a66356c9b175082ad00121da853c81ce75",
    ("medium", 1): "8f88c1ff82e2642749f6280480ffde390c9518a6dfa15e6f38878ae07d64797b",
}


class TestPresets:
    def test_every_preset_config_is_pinned(self):
        # Every field of every preset, the planted edges included.
        assert {name for name, _ in PRESET_DIGESTS} == set(PRESETS)
        for (name, seed), digest in PRESET_DIGESTS.items():
            doc = json.dumps(asdict(preset(name, seed)), sort_keys=True)
            assert hashlib.sha256(doc.encode()).hexdigest() == digest, (name, seed)

    def test_toy_shape(self):
        cfg = preset("toy", 7)
        ds, truth = generate(cfg)
        assert len(ds.nodes) == 40
        assert len(ds.hyperedges) == 120
        assert ds.classes == 4

    def test_small_shape(self):
        cfg = preset("small", 11)
        assert cfg.n_nodes == 540 and cfg.n_hyperedges == 1120 and cfg.n_classes == 3
        assert len(cfg.planted_edges) == 20

    def test_medium_shape(self):
        cfg = preset("medium", 13)
        assert cfg.n_nodes == 1000 and cfg.n_classes == 4

    def test_class_balance_toy(self):
        ds, _ = generate(preset("toy", 7))
        counts = np.bincount([ds.labels[n.node_id] for n in ds.nodes], minlength=4)
        assert counts.min() >= 0.05 * len(ds.nodes)

    def test_class_balance_small(self):
        ds, _ = generate(preset("small", 11))
        counts = np.bincount([ds.labels[n.node_id] for n in ds.nodes], minlength=3)
        assert counts.min() >= 0.05 * len(ds.nodes)

    def test_splits_cover_nodes(self):
        ds, _ = generate(preset("toy", 7))
        listed = [nid for name in ("train", "val", "test") for nid in ds.splits[name]]
        assert sorted(listed) == sorted(ds.node_ids)


class TestCausalRecovery:
    def test_planted_edges_recovered_and_null_calibrated(self):
        # Planted recall at coefficient 0.8, sigma 1, T = 500, and pooled
        # false-positive rate under the null, both over 50 seeds.
        cfg_g = GrangerConfig(lag=2, alpha=0.01, reduction="mean")
        recalled = 0
        fp = 0
        null_pairs = 0
        for seed in range(50):
            cfg = small_cfg(seed, planted=[(0, 3, 0.8)], activity_spread=0.0,
                            noise_spread=0.0, anchor_scale=0.0, isolate_caused=False)
            ds, truth = generate(cfg)
            graph = infer_causal_graph(ds.nodes, cfg_g, fit_ids=ds.splits["train"])
            found = {(e.src, e.dst) for e in graph.edges}
            if ("n0000", "n0003") in found:
                recalled += 1
            fp += len(found - {("n0000", "n0003")})
            null_pairs += 6 * 5 - 1
        assert recalled / 50 >= 0.95
        assert fp / null_pairs <= 2 * cfg_g.alpha

    def test_chain_recovered_through_generator(self):
        cfg_g = GrangerConfig(lag=2, alpha=0.01, reduction="mean")
        hits = 0
        for seed in range(20):
            cfg = small_cfg(seed, planted=[(0, 2, 0.8), (2, 4, 0.6)], activity_spread=0.0,
                            noise_spread=0.0, anchor_scale=0.0, isolate_caused=False)
            ds, truth = generate(cfg)
            graph = infer_causal_graph(ds.nodes, cfg_g, fit_ids=ds.splits["train"])
            found = {(e.src, e.dst) for e in graph.edges}
            if {("n0000", "n0002"), ("n0002", "n0004")} <= found:
                hits += 1
        assert hits >= 18

    def test_activity_scaling_preserves_granger_decisions(self):
        cfg_g = GrangerConfig(lag=2, alpha=0.01, reduction="mean")
        base = small_cfg(7, planted=[(0, 3, 0.8)], activity_spread=0.0,
                         noise_spread=0.0, anchor_scale=0.0, isolate_caused=False)
        scaled = replace(base, activity_spread=1.2)
        g_base = infer_causal_graph(generate(base)[0].nodes, cfg_g)
        g_scaled = infer_causal_graph(generate(scaled)[0].nodes, cfg_g)
        assert ("n0000", "n0003") in {(e.src, e.dst) for e in g_base.edges}
        assert ("n0000", "n0003") in {(e.src, e.dst) for e in g_scaled.edges}
