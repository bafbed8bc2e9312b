import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_sphhn import cli, granger, synthgen
from causal_sphhn.errors import ContractViolation, RankDeficient, SeriesTooShort
from causal_sphhn.granger import (
    CausalGraph,
    GrangerConfig,
    _f_crit,
    _f_stat,
    _fit_var,
    _scored,
    f_survival,
    granger_test,
    infer_causal_graph,
    reduce_features,
    regularized_incomplete_beta,
)
from causal_sphhn.hypergraph import NodeFeatureSeries

CFG = GrangerConfig(lag=2, alpha=0.01)


def ar1(rng, t, coef=0.0, drive=None, drive_coef=0.0, sigma=1.0):
    out = np.zeros(t)
    eps = sigma * rng.standard_normal(t)
    for i in range(1, t):
        out[i] = coef * out[i - 1] + eps[i]
        if drive is not None:
            out[i] += drive_coef * drive[i - 1]
    return out


class TestSpecialFunctions:
    def test_incomplete_beta_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.3, 60.0))
            b = float(rng.uniform(0.3, 60.0))
            x = float(rng.uniform(0.0, 1.0))
            ref = scipy.special.betainc(a, b, x)
            mine = regularized_incomplete_beta(a, b, x)
            assert isinstance(mine, float)
            assert abs(mine - ref) <= 1e-8 * max(ref, 1e-8) + 1e-14

    def test_incomplete_beta_array_matches_scalar_calls(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.3, 60.0, 300), rng.uniform(0.3, 60.0, 300)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 298)])
        lower = x < (a + 1.0) / (a + b + 2.0)
        assert lower[2:].any() and not lower[2:].all()  # both continued-fraction branches
        mine = regularized_incomplete_beta(a, b, x)
        assert mine.tolist() == [regularized_incomplete_beta(*args) for args in zip(a, b, x)]
        np.testing.assert_allclose(mine, scipy.special.betainc(a, b, x), rtol=1e-8, atol=1e-14)

    def test_f_survival_against_scipy(self):
        for d1 in (1, 2, 5):
            for d2 in (3, 10, 100, 500):
                for f in (0.0, 0.5, 1.0, 3.7, 10.0, 80.0):
                    ref = scipy.stats.f.sf(f, d1, d2)
                    assert abs(f_survival(f, d1, d2) - ref) <= 1e-8 * max(ref, 1e-10)

    def test_f_survival_array_matches_scalar_calls_and_scipy(self):
        f = np.array([0.0, 0.01, 0.3, 1.0, 2.5, 10.0, 80.0, 1e6, np.inf])
        for d1, d2 in ((1, 3), (2, 155), (5, 500)):
            x, a, b = d2 / (d2 + d1 * f), 0.5 * d2, 0.5 * d1
            lower = (x < (a + 1.0) / (a + b + 2.0))[1:-1]
            assert lower.any() and not lower.all()  # both continued-fraction branches
            sf = f_survival(f, d1, d2)
            assert sf.shape == f.shape
            assert sf.tolist() == [f_survival(float(v), d1, d2) for v in f]
            assert sf[0] == 1.0 and sf[-1] == 0.0
            np.testing.assert_allclose(sf, scipy.stats.f.sf(f, d1, d2), rtol=1e-8, atol=1e-300)

    def test_f_survival_nan_raises(self):
        with pytest.raises(ContractViolation):
            f_survival(float("nan"), 2, 10)
        with pytest.raises(ContractViolation):
            f_survival(np.array([1.0, np.nan]), 2, 10)

    @settings(max_examples=150, deadline=None)
    @given(
        lag=st.integers(1, 3),
        dof_u=st.integers(5, 500),
        alpha=st.sampled_from([0.01, 0.01 / 999_000, 0.999]),
        offsets=st.lists(st.floats(-0.999, 10.0), max_size=8),
        nudges=st.lists(st.floats(-1e-5, 1e-5), max_size=8),
    )
    def test_f_crit_threshold_keeps_every_significant_f(self, lag, dof_u, alpha, offsets, nudges):
        f_crit = _f_crit(alpha, lag, dof_u)
        assert f_survival(f_crit, lag, dof_u) > alpha >= f_survival(f_crit * (1 + 1e-8), lag, dof_u)
        rel = [-1e-12, 1e-12, -2e-6, -1e-6, 1e-6, *offsets, *nudges]
        f = np.concatenate([f_crit * (1.0 + np.array(rel)), [0.0, np.inf]])
        # rss_u = dof_u makes the F denominator exactly 1, so F is the gain over lag.
        f_stat = _f_stat(lag * f, np.full_like(f, dof_u), lag, dof_u)
        np.testing.assert_allclose(f_stat, f, rtol=1e-15)
        # The kernel takes p-values only of the F that _scored keeps: every significant F must be one.
        assert not np.any((f_survival(f_stat, lag, dof_u) <= alpha) & ~_scored(f_stat, f_crit))


class TestRestrictedFit:
    def test_constant_series_zero_rss(self):
        _, rss, _, _ = _fit_var([np.full(50, 3.25)], 2, CFG.min_length)
        assert rss < 1e-18

    def test_recovers_ar_coefficient(self):
        # Lag-1 and lag-2 regressors of an AR(1) are highly collinear, so a
        # single draw of the leading coefficient is noisy; its mean over
        # seeds concentrates on the generative value.
        leads = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            y = ar1(rng, 500, coef=0.9)
            coef, *_ = _fit_var([y], 2, CFG.min_length)
            leads.append(coef[1])
        assert abs(np.mean(leads) - 0.9) < 0.1

    def test_white_noise_rss_near_variance(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(500)
        _, rss, _, _ = _fit_var([y], 2, CFG.min_length)
        assert abs(rss / 500 - 1.0) < 0.15

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShort):
            _fit_var([np.arange(8.0)], 2, CFG.min_length)

    def test_dof(self):
        _, _, dof, _ = _fit_var([np.random.default_rng(3).standard_normal(100)], 2, CFG.min_length)
        assert dof == 100 - 2 - 3


class TestUnrestrictedFit:
    def test_identical_series_rank_deficient(self):
        rng = np.random.default_rng(4)
        y = ar1(rng, 200, coef=0.5)
        with pytest.raises(RankDeficient):
            _fit_var([y, y], 2, CFG.min_length)

    def test_driven_series_reduces_rss(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)
        y = ar1(rng, 500, drive=x, drive_coef=0.8)
        _, rss_r, _, _ = _fit_var([y], 2, CFG.min_length)
        _, rss_u, _, _ = _fit_var([y, x], 2, CFG.min_length)
        assert rss_u < rss_r

    def test_independent_noise_rarely_significant(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            y = rng.standard_normal(300)
            x = rng.standard_normal(300)
            if granger_test(x, y, CFG).is_edge:
                hits += 1
        assert hits <= 3

    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            y, x = rng.standard_normal(80), rng.standard_normal(80)
            coef, rss, _, _ = _fit_var([y, x], 2, CFG.min_length)
            design = np.column_stack([np.ones(78), y[1:-1], y[:-2], x[1:-1], x[:-2]])
            ref, *_ = np.linalg.lstsq(design, y[2:], rcond=None)
            resid = y[2:] - design @ ref
            np.testing.assert_allclose(coef, ref, rtol=1e-10, atol=1e-12)
            assert abs(rss - resid @ resid) <= 1e-10 * rss

    def test_dof(self):
        rng = np.random.default_rng(6)
        _, _, dof, _ = _fit_var([rng.standard_normal(100), rng.standard_normal(100)], 2, CFG.min_length)
        assert dof == 100 - 2 - 5


class TestGrangerTest:
    def test_null_calibration(self):
        hits = 0
        trials = 1000
        for seed in range(trials):
            rng = np.random.default_rng(20_000 + seed)
            y = rng.standard_normal(500)
            x = rng.standard_normal(500)
            if granger_test(x, y, CFG).is_edge:
                hits += 1
        alpha = CFG.alpha
        bound = alpha + 2.0 * np.sqrt(alpha * (1 - alpha) / trials)
        assert hits / trials <= bound

    def test_planted_edge_detected_reverse_rare(self):
        detected = reverse = 0
        for seed in range(100):
            rng = np.random.default_rng(30_000 + seed)
            x = rng.standard_normal(500)
            y = ar1(rng, 500, drive=x, drive_coef=0.8)
            if granger_test(x, y, CFG).is_edge:
                detected += 1
            if granger_test(y, x, CFG).is_edge:
                reverse += 1
        assert detected >= 95
        assert reverse <= 5

    def test_zero_source_series_no_edge(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(100)
        decision = granger_test(np.zeros(100), y, CFG)
        assert not decision.is_edge
        assert "RankDeficient" in decision.note

    def test_deterministic_copy_extreme_significance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        y = np.zeros(300)
        y[1:] = x[:-1]
        decision = granger_test(x, y, CFG)
        assert decision.is_edge
        assert decision.p_value < 1e-10

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(400)
        y = ar1(rng, 400, coef=0.3, drive=x, drive_coef=0.5)
        base = granger_test(x, y, CFG)
        assert base.is_edge
        for a, b in ((3.7, -2.0), (0.02, 5.0), (-4.0, 0.3)):
            scaled = granger_test(a * x + b, y, CFG)
            assert scaled.is_edge == base.is_edge
            assert abs(scaled.f_statistic - base.f_statistic) <= 1e-6 * base.f_statistic
            scaled_y = granger_test(x, a * y + b, CFG)
            assert scaled_y.is_edge == base.is_edge
            assert abs(scaled_y.f_statistic - base.f_statistic) <= 1e-6 * base.f_statistic
        # The rank test judges each column at its own scale, so no rescaling of
        # either series, however far apart the two scales, may lose the edge.
        scales = 10.0 ** np.arange(-11, 12)
        for sx, sy in [(1e-6, 1e5), (1e-11, 1.0), (1.0, 1e11), *((a, b) for a in scales for b in scales)]:
            scaled = granger_test(sx * x, sy * y, CFG)
            assert scaled.is_edge and not scaled.note, (sx, sy, scaled)
            assert abs(scaled.f_statistic - base.f_statistic) <= 1e-9 * base.f_statistic, (sx, sy)

    def test_statistic_ranges(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.standard_normal(60)
            y = rng.standard_normal(60)
            d = granger_test(x, y, CFG)
            assert d.f_statistic >= 0.0
            assert 0.0 <= d.p_value <= 1.0

    def test_pvalue_matches_scipy_f_distribution(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200)
        y = ar1(rng, 200, coef=0.4, drive=x, drive_coef=0.3)
        d = granger_test(x, y, CFG)
        _, rss_r, _, _ = _fit_var([y], 2, CFG.min_length)
        _, rss_u, dof, _ = _fit_var([y, x], 2, CFG.min_length)
        f_ref = ((rss_r - rss_u) / 2) / (rss_u / dof)
        assert abs(d.f_statistic - f_ref) < 1e-9 * f_ref
        assert abs(d.p_value - scipy.stats.f.sf(f_ref, 2, dof)) < 1e-10


def series_nodes(series_map):
    return [NodeFeatureSeries(k, v.reshape(-1, 1)) for k, v in sorted(series_map.items())]


def shifted(x):
    return np.concatenate([[0.0], x[:-1]])


@st.composite
def granger_instances(draw):
    """Small node sets mixing noise, driven, constant, all-zero and copied series.

    A copy is the last random series shifted by one step.  With lag >= 2 its
    lags repeat the source's, so that pair is rank deficient; at lag 1 the
    copy is an exact fit.  A near copy is a fresh AR(0.99) series plus its
    one-step copy with 1e-6 noise: nearly shared lags, or a nearly exact fit.
    The kernel must hand all of these to ``granger_test``.  Every node is then
    scaled by 10^U(-11, 11), which neither test may notice.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lag = draw(st.integers(1, 5))
    t_len = draw(st.integers(4 * lag + 4, 80))
    kind_names = ["noise", "driven", "constant", "zero", "copy", "near_copy"]
    kinds = draw(st.lists(st.sampled_from(kind_names), min_size=2, max_size=6))
    base = rng.standard_normal(t_len)
    series = {}
    for i, kind in enumerate(kinds):
        if kind == "noise":
            base = series[f"n{i}"] = ar1(rng, t_len, coef=0.4)
        elif kind == "driven":
            base = series[f"n{i}"] = ar1(rng, t_len, drive=base, drive_coef=0.8)
        elif kind == "constant":
            series[f"n{i}"] = np.full(t_len, rng.normal())
        elif kind == "zero":
            series[f"n{i}"] = np.zeros(t_len)
        elif kind == "copy":
            series[f"n{i}"] = shifted(base)
        else:
            base = series[f"n{i}"] = ar1(rng, t_len, coef=0.99)
            series[f"n{i}c"] = shifted(base) + 1e-6 * rng.standard_normal(t_len)
    series = {k: v * 10.0 ** draw(st.floats(-11.0, 11.0)) for k, v in series.items()}
    alpha = draw(st.sampled_from([0.01, 0.3, 0.999]))
    cfg = GrangerConfig(lag=lag, alpha=alpha, reduction="mean", bonferroni=draw(st.booleans()))
    return series, cfg


def lapack_gain(m, b):
    """bᵀS⁻¹b and det S for S = I - MMᵀ, by LAPACK, for pair-major M (pairs, p, p) and b (pairs, p)."""
    s = np.eye(m.shape[-1]) - m @ m.transpose(0, 2, 1)
    return np.einsum("ka,ka->k", b, np.linalg.solve(s, b[..., None])[..., 0]), np.linalg.det(s), s


class TestGainStep:
    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 16), pairs=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_lapack(self, p, pairs, seed):
        # Entry-major batches of M with ‖M‖₂ <= 0.99, so S = I - MMᵀ has λ_min >= 0.0199 and no pivot is floored.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((pairs, p, p))
        m *= (rng.uniform(0.0, 0.99, pairs) / np.linalg.norm(m, 2, axis=(1, 2)))[:, None, None]
        b = rng.standard_normal((pairs, p))
        ref_gain, ref_det, _ = lapack_gain(m, b)
        gain, det = granger._gain(np.moveaxis(m, 0, -1), b.T)
        np.testing.assert_allclose(gain, ref_gain, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(det, ref_det, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [1, 2, 5, 16])
    def test_singular_s_is_floored(self, p):
        # A self pair: M = I, so S = 0.  Every pivot is floored, the gain stays finite and det S flags the pair.
        rng = np.random.default_rng(p)
        m = np.broadcast_to(np.eye(p)[:, :, None], (p, p, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain, det = granger._gain(m, rng.standard_normal((p, 3)))
        assert np.isfinite(gain).all()
        assert (det <= granger._PIVOT_BAND**2).all()

    def test_small_det_flags_a_pair_whose_lambda_min_clears_the_band(self):
        # Every cosine 0.99: S = 0.0199·I has λ_min = 0.0199 > 1e-4 but det S = 0.0199⁴ <= 1e-4, so the
        # rule sends the pair to granger_test although no pivot is floored and the gain is still exact.
        m = 0.99 * np.eye(4)[None]
        b = np.random.default_rng(4).standard_normal((1, 4))
        ref_gain, ref_det, s = lapack_gain(m, b)
        gain, det = granger._gain(np.moveaxis(m, 0, -1), b.T)
        assert np.linalg.eigvalsh(s)[0, 0] > granger._PIVOT_BAND**2 >= det[0]
        np.testing.assert_allclose(gain, ref_gain, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(det, ref_det, rtol=1e-12, atol=0.0)


class TestInferCausalGraph:
    def test_needs_two_nodes(self):
        with pytest.raises(ContractViolation):
            infer_causal_graph(series_nodes({"a": np.zeros(50)}), CFG)

    def test_independent_nodes_rarely_have_edges(self):
        clean = 0
        for seed in range(50):
            rng = np.random.default_rng(40_000 + seed)
            nodes = series_nodes({k: rng.standard_normal(300) for k in "abc"})
            graph = infer_causal_graph(nodes, CFG)
            if len(graph.edges) <= 1:
                clean += 1
        assert clean >= 47

    def test_planted_chain_recovered(self):
        found_ab = found_bc = 0
        trials = 50
        for seed in range(trials):
            rng = np.random.default_rng(50_000 + seed)
            a = rng.standard_normal(500)
            b = ar1(rng, 500, drive=a, drive_coef=0.8)
            c = ar1(rng, 500, drive=b, drive_coef=0.8)
            graph = infer_causal_graph(series_nodes({"a": a, "b": b, "c": c}), CFG)
            pairs = {(e.src, e.dst) for e in graph.edges}
            found_ab += ("a", "b") in pairs
            found_bc += ("b", "c") in pairs
        assert found_ab / trials >= 0.95
        assert found_bc / trials >= 0.95

    def test_batched_kernel_matches_single_pair_path(self):
        rng = np.random.default_rng(12)
        series = {}
        base = rng.standard_normal(240)
        series["a"] = base
        series["b"] = ar1(rng, 240, coef=0.2, drive=base, drive_coef=0.6)
        series["c"] = rng.standard_normal(240)
        series["d"] = ar1(rng, 240, coef=-0.3)
        nodes = series_nodes(series)
        cfg = GrangerConfig(lag=2, alpha=0.999999, reduction="mean")
        graph = infer_causal_graph(nodes, cfg)
        reduced = reduce_features(nodes, "mean")
        by_pair = {(e.src, e.dst): e for e in graph.edges}
        for src in series:
            for dst in series:
                if src == dst:
                    continue
                ref = granger_test(reduced[src], reduced[dst], cfg)
                if (src, dst) in by_pair:
                    edge = by_pair[(src, dst)]
                    assert abs(edge.f_statistic - ref.f_statistic) <= 1e-9 * max(1.0, ref.f_statistic)
                    assert abs(edge.p_value - ref.p_value) <= 1e-9
                else:
                    assert not ref.is_edge

    @settings(max_examples=80, deadline=None)
    @given(granger_instances())
    def test_kernel_matches_all_pairs_granger_test(self, instance):
        series, cfg = instance
        nodes = series_nodes(series)
        graph = infer_causal_graph(nodes, cfg)
        reduced = reduce_features(nodes, "mean")
        n = len(series)
        by_pair = {(e.src, e.dst): e for e in graph.edges}
        for src in series:
            for dst in series:
                if src == dst:
                    continue
                ref = granger_test(reduced[src], reduced[dst], cfg, n_tests=n * (n - 1))
                edge = by_pair.get((src, dst))
                assert (edge is not None) == ref.is_edge, (src, dst, ref)
                if edge is not None:
                    assert abs(edge.f_statistic - ref.f_statistic) <= 1e-9 * max(1.0, ref.f_statistic)
                    assert abs(edge.p_value - ref.p_value) <= 1e-12

    def test_lag1_copy_f_matches_granger_test(self):
        # An exact fit at full rank: the kernel must not report its own rounding noise as F.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        nodes = series_nodes({"a": x, "b": shifted(x)})
        cfg = GrangerConfig(lag=1, alpha=0.01, reduction="mean")
        edge = {(e.src, e.dst): e for e in infer_causal_graph(nodes, cfg).edges}[("a", "b")]
        ref = granger_test(x, shifted(x), cfg)
        assert ref.is_edge
        assert abs(edge.f_statistic - ref.f_statistic) <= 1e-9 * ref.f_statistic

    def test_kernel_matches_granger_test_at_high_lag(self, monkeypatch):
        # At lag 12 ‖M‖_F² sums 144 squared cosines; the kernel must still decide most pairs itself.
        rng = np.random.default_rng(23)
        base = ar1(rng, 130, coef=0.5)
        series = {
            "a": base, "b": ar1(rng, 130, drive=base, drive_coef=0.8), "c": rng.standard_normal(130),
            "d": ar1(rng, 130, coef=-0.4), "e": shifted(base) + 0.5 * rng.standard_normal(130),
        }
        nodes = series_nodes(series)
        calls, test = [], granger.granger_test
        monkeypatch.setattr(granger, "granger_test", lambda *a, **k: (calls.append(1), test(*a, **k))[1])
        cfg = GrangerConfig(lag=12, alpha=0.3, reduction="mean")
        by_pair = {(e.src, e.dst): e for e in infer_causal_graph(nodes, cfg).edges}
        assert len(calls) < 10 and ("a", "b") in by_pair
        for src in series:
            for dst in series:
                if src == dst:
                    continue
                ref = test(series[src], series[dst], cfg)
                edge = by_pair.get((src, dst))
                assert (edge is not None) == ref.is_edge, (src, dst, ref)
                if edge is not None:
                    assert abs(edge.f_statistic - ref.f_statistic) <= 1e-9 * ref.f_statistic
                    assert abs(edge.p_value - ref.p_value) <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 2, 3, 9, granger._CHUNK + 1])
    def test_block_size_does_not_change_results(self, monkeypatch, chunk):
        # The set-up factors blocks of `chunk` nodes: at 1 and 3 a block ends at the constant c
        # (index 2) and the next begins at the copy d of a (index 3); at 2 they share the second block.
        # 2·_GROUP + 5 nodes, so the pair loop's last group of targets is padded.
        rng = np.random.default_rng(17)
        base = ar1(rng, 120, coef=0.5)
        series = {
            "a": base, "b": ar1(rng, 120, drive=base, drive_coef=0.8), "c": np.full(120, 2.5),
            "d": shifted(base), "e": rng.standard_normal(120), "f": ar1(rng, 120, coef=0.9),
            "g": ar1(rng, 120, coef=-0.3),
        }
        series.update({f"n{k:02d}": ar1(rng, 120, coef=0.4) for k in range(2 * granger._GROUP + 5 - len(series))})
        nodes = series_nodes(series)
        for lag in (1, 2, 3):
            cfg = GrangerConfig(lag=lag, alpha=0.3, reduction="mean")
            ref = infer_causal_graph(nodes, cfg).to_dict()
            assert {("a", "b"), ("a", "d")} <= {(e["src"], e["dst"]) for e in ref["edges"]}
            for e in ref["edges"]:
                f_ref = granger.granger_test(series[e["src"]], series[e["dst"]], cfg).f_statistic
                assert abs(e["f"] - f_ref) <= 1e-9 * f_ref, (lag, e)
            with monkeypatch.context() as m:
                m.setattr(granger, "_CHUNK", chunk)
                assert infer_causal_graph(nodes, cfg).to_dict() == ref

    def test_kernel_holds_one_group_of_targets(self):
        # medium's shape: 1,000 AR(1) series of 160 steps at lag 2.  The kernel holds the basis matrix
        # q_all (rows x p·n), the (n, rows) residuals and the reduced series (about half a basis each
        # at lag 2), plus one block's product and factor entries (a small fraction of a basis).  Node-sized
        # lag windows, a full stacked QR or a second copy of every Q_j would each add one basis or more.
        rng = np.random.default_rng(24)
        nodes = series_nodes({f"n{i:04d}": ar1(rng, 160, coef=0.5) for i in range(1000)})
        basis_bytes = (160 - CFG.lag) * CFG.lag * 1000 * 8
        tracemalloc.start()
        try:
            graph = infer_causal_graph(nodes, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph.edges)
        assert peak < 5 * basis_bytes, peak / basis_bytes

    def test_no_batched_solve(self, monkeypatch):
        # The p x p Schur step is elementwise; a stacked np.linalg.solve pays a loop per pair, and the
        # factorisation's det S picks the fallbacks, so no eigenvalues are needed.
        stacked, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (stacked.append(np.ndim(a) > 2), solve(a, b))[1])
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("np.linalg.eigvalsh called"))
        rng = np.random.default_rng(19)
        base = rng.standard_normal(100)
        nodes = series_nodes({"a": base, "b": shifted(base), "c": np.zeros(100), "d": rng.standard_normal(100)})
        for lag in (1, 2, 3):
            infer_causal_graph(nodes, GrangerConfig(lag=lag, alpha=0.3, reduction="mean"))
        assert stacked and not any(stacked)  # granger_test's 2-D solves still count

    def test_fallback_gets_the_reduced_arrays(self, monkeypatch):
        # perfbench names a fallback pair by the id() of the arrays reduce_features returned.
        rng = np.random.default_rng(18)
        base = rng.standard_normal(100)
        nodes = series_nodes({"a": base, "b": shifted(base), "c": np.zeros(100)})
        names, calls = {}, []
        reduce, test = granger.reduce_features, granger.granger_test

        def reduce_recorder(*args, **kwargs):
            series = reduce(*args, **kwargs)
            names.update({id(v): k for k, v in series.items()})
            return series

        def test_recorder(source, target, *args, **kwargs):
            calls.append((names[id(source)], names[id(target)]))
            return test(source, target, *args, **kwargs)

        monkeypatch.setattr(granger, "reduce_features", reduce_recorder)
        monkeypatch.setattr(granger, "granger_test", test_recorder)
        infer_causal_graph(nodes, CFG)
        assert {("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")} <= set(calls)

    def test_deterministic_output_bytes(self, tmp_path):
        rng = np.random.default_rng(13)
        arrays = {k: rng.standard_normal(200) for k in "abcd"}
        g1 = infer_causal_graph(series_nodes(arrays), CFG)
        g2 = infer_causal_graph(series_nodes(arrays), CFG)
        p1, p2 = str(tmp_path / "g1.json"), str(tmp_path / "g2.json")
        g1.save(p1)
        g2.save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_json_round_trip(self, tmp_path):
        graph = CausalGraph(0.01, 2, [("a", "b", 12.5, 0.001)])
        path = str(tmp_path / "g.json")
        graph.save(path)
        back = CausalGraph.load(path)
        assert back.alpha == graph.alpha and back.lag == graph.lag
        assert back.edges.tolist() == graph.edges.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_row_order_does_not_reach_the_document(self, data):
        # The graph alone sorts its edges: any order of the same rows writes the same document,
        # and reading that document back writes it again unchanged.
        names = st.sampled_from(["a", "b", "c", "d"])
        pairs = data.draw(st.lists(st.tuples(names, names).filter(lambda e: e[0] != e[1]), unique=True, max_size=12))
        rows = [(s, d, data.draw(st.floats(0.0, 1e6)), data.draw(st.floats(0.0, 0.01))) for s, d in pairs]
        doc = CausalGraph(0.01, 2, rows).to_dict()
        assert CausalGraph(0.01, 2, data.draw(st.permutations(rows))).to_dict() == doc
        assert CausalGraph.from_dict(doc).to_dict() == doc

    def test_bonferroni_reduces_edges(self):
        rng = np.random.default_rng(14)
        arrays = {f"n{i}": rng.standard_normal(150) for i in range(12)}
        loose = infer_causal_graph(series_nodes(arrays), GrangerConfig(lag=2, alpha=0.3))
        tight = infer_causal_graph(
            series_nodes(arrays), GrangerConfig(lag=2, alpha=0.3, bonferroni=True)
        )
        assert len(tight.edges) <= len(loose.edges)

    def test_pca1_reduction_mode(self):
        rng = np.random.default_rng(15)
        nodes = [
            NodeFeatureSeries(f"n{i}", rng.standard_normal((100, 4))) for i in range(3)
        ]
        series = reduce_features(nodes, "pca1")
        assert all(v.shape == (100,) for v in series.values())
        graph = infer_causal_graph(nodes, GrangerConfig())
        assert isinstance(graph, CausalGraph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_toy_edges_come_out_sorted_and_unchanged(self, seed):
        # SHA-256 of the "src\tdst\n" lines of the default-lag edges, as the pooled PCA found them.
        pinned = {
            (0, False): "bd4e0397442c4c186be550d3ff556ccd651386ada72799f37853d4dba0c9807c",
            (0, True): "c347c0d964d1ade7cc3c58136b4700d1d7bbe9b21e87e3c920ed658b78006e2b",
            (1, False): "eb8f917f2f57a5e689698140968c67960705dcb550507f3a71a0ddcd2327e0a6",
            (1, True): "dae3157ab74cf821b50be6077e92e5772695ded3e9d7e665ec9ab943d33de833",
            (2, False): "0e41f5663a95e0ae0668ebc7f1fc7d0ad3ed7c810cc96a975f4f46e0dd0490d8",
            (2, True): "3c254bd66c5e127815e86e51004377e7d9eab276e8548fa3b552d978095c6ea4",
        }
        ds, _ = synthgen.generate(synthgen.preset("toy", seed=cli.derive_seed(seed, "synth")))
        for bonferroni in (False, True):
            cfg = GrangerConfig(bonferroni=bonferroni)
            graph = infer_causal_graph(ds.nodes, cfg, fit_ids=ds.splits["train"])
            pairs = list(zip(graph.edges.src, graph.edges.dst))
            assert pairs == sorted(pairs)
            text = "".join(f"{e.src}\t{e.dst}\n" for e in graph.edges)
            assert hashlib.sha256(text.encode()).hexdigest() == pinned[seed, bonferroni]

    @pytest.mark.parametrize("f, p", [(1.0, math.nan), (1.0, -0.5), (math.inf, 0.001), (math.nan, 0.001), (-1.0, 0.001)],
                             ids=["nan_p", "negative_p", "infinite_f", "nan_f", "negative_f"])
    def test_stored_edge_statistics_are_checked(self, f, p):
        doc = {"alpha": 0.01, "lag": 2, "edges": [{"src": "a", "dst": "b", "f": f, "p": p}]}
        with pytest.raises(ContractViolation, match="stored edge a->b has"):
            CausalGraph.from_dict(doc)

    def test_graph_invariants_enforced(self):
        with pytest.raises(ContractViolation):
            CausalGraph(0.01, 2, [("a", "a", 1.0, 0.001)])
        with pytest.raises(ContractViolation):
            CausalGraph(0.01, 2, [("a", "b", 1.0, 0.5)])
        with pytest.raises(ContractViolation, match="duplicate edge a->b"):
            CausalGraph(
                0.01, 2,
                [("a", "b", 1.0, 0.001), ("a", "b", 2.0, 0.002)],
            )
        # Twins apart in the given order still meet once the edges are sorted.
        ab, ba = ("a", "b", 1.0, 0.001), ("b", "a", 1.0, 0.001)
        with pytest.raises(ContractViolation, match="duplicate edge a->b"):
            CausalGraph(0.01, 2, [ab, ba, ("a", "b", 2.0, 0.002)])
        assert CausalGraph(0.01, 2, [ba, ab]).edges.tolist() == [ab, ba]


def pooled_reduce_features(nodes, fit_ids=None):
    """The "pca1" reduction with every fit row pooled into one array: the oracle of the blockwise one."""
    fit = set(fit_ids) if fit_ids is not None else {n.node_id for n in nodes}
    pool = np.concatenate([n.features for n in nodes if n.node_id in fit], axis=0)
    center = pool.mean(axis=0)
    _, vecs = np.linalg.eigh((pool - center).T @ (pool - center))
    w = vecs[:, -1]
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return {n.node_id: (n.features - center) @ w for n in nodes}


class TestReduceFeatures:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_fit=st.sampled_from([1, granger._PCA_BLOCK - 1, granger._PCA_BLOCK, granger._PCA_BLOCK + 1, None]),
        others=st.integers(0, 3),
        t=st.integers(2, 24),
        d=st.integers(1, 5),
    )
    def test_blockwise_matches_pooled(self, seed, n_fit, others, t, d):
        # Distinct column scales give a clear leading eigenvalue, so the direction is well conditioned.
        rng = np.random.default_rng(seed)
        scale = 4.0 ** -np.arange(d)
        n_nodes = (n_fit or granger._PCA_BLOCK + 1) + others
        nodes = [NodeFeatureSeries(f"n{i:02d}", 3.0 + scale * rng.standard_normal((t, d))) for i in range(n_nodes)]
        fit_ids = None if n_fit is None else [nodes[k].node_id for k in rng.permutation(n_nodes)[:n_fit]]
        got, ref = reduce_features(nodes, "pca1", fit_ids), pooled_reduce_features(nodes, fit_ids)
        assert list(got) == list(ref)
        for nid in ref:
            assert np.max(np.abs(got[nid] - ref[nid])) <= 1e-12 * max(1.0, np.max(np.abs(ref[nid])))

    def test_unknown_fit_ids_are_a_contract_violation(self):
        nodes = [NodeFeatureSeries("a", np.ones((5, 2)))]
        with pytest.raises(ContractViolation):
            reduce_features(nodes, "pca1", ["b"])

    def test_peak_stays_below_a_quarter_of_the_pool(self):
        # medium's shape: 1000 nodes of 160 x 32 features, half of them fit.  The pool is 20.5 MB.
        rng = np.random.default_rng(3)
        block = rng.standard_normal((1000, 160, 32))
        nodes = [NodeFeatureSeries(f"n{i:04d}", block[i]) for i in range(1000)]
        fit_ids = [n.node_id for n in nodes[::2]]
        tracemalloc.start()
        try:
            series = reduce_features(nodes, "pca1", fit_ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == 1000
        assert peak < 0.25 * 500 * 160 * 32 * 8
