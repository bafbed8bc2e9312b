import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_sphhn import metrics
from causal_sphhn.errors import ContractViolation
from reference_ops import midranks


class TestMacroF1:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert metrics.macro_f1(labels, labels, 3) == 1.0

    def test_binary_all_one_class(self):
        # preds all 0, labels half 0 half 1: F1 = (2/3 + 0) / 2
        preds = np.zeros(10, dtype=int)
        labels = np.array([0] * 5 + [1] * 5)
        assert abs(metrics.macro_f1(preds, labels, 2) - 1.0 / 3.0) < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 4, 50)
        labels = rng.integers(0, 4, 50)
        base = metrics.macro_f1(preds, labels, 4)
        perm = np.array([2, 3, 0, 1])
        assert abs(metrics.macro_f1(perm[preds], perm[labels], 4) - base) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            metrics.macro_f1([], [], 2)


def auc_pair_oracle(scores, pos):
    """Brute-force Mann-Whitney with half credit for ties."""
    pos_scores = scores[pos]
    neg_scores = scores[~pos]
    wins = 0.0
    for p in pos_scores:
        for q in neg_scores:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos_scores) * len(neg_scores))


class TestMidranks:
    # Values from a small pool, so most arrays hold runs of ties; -0.0 ties with 0.0.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-np.inf, -2.5, -1.0, -0.0, 0.0, 1e-300, 0.5, 3.0, np.inf]), max_size=60))
    def test_equals_the_tie_walk_bitwise(self, values):
        x = np.array(values, dtype=np.float64)
        got, want = metrics._midranks(x), midranks(x)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


class TestAucOvr:
    def test_perfectly_separated(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        labels = np.array([0, 0, 1, 1])
        assert metrics.auc_ovr(probs, labels, 2) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        n = 10_000
        probs = rng.dirichlet(np.ones(3), size=n)
        labels = rng.integers(0, 3, n)
        assert abs(metrics.auc_ovr(probs, labels, 3) - 0.5) < 0.02

    def test_all_tied_scores_exactly_half(self):
        probs = np.full((8, 2), 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert metrics.auc_ovr(probs, labels, 2) == 0.5

    def test_single_class_undefined(self):
        probs = np.array([[0.6, 0.4], [0.3, 0.7]])
        assert metrics.auc_ovr(probs, np.array([0, 0]), 2) is None

    def test_against_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = 30
            raw = rng.integers(0, 5, size=(n, 2)).astype(float) + 1.0
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 2, n)
            if len(set(labels)) < 2:
                continue
            expected = 0.5 * (
                auc_pair_oracle(probs[:, 0], labels == 0)
                + auc_pair_oracle(probs[:, 1], labels == 1)
            )
            assert abs(metrics.auc_ovr(probs, labels, 2) - expected) < 1e-12


class TestEce:
    def test_one_hot_correct_is_zero(self):
        labels = np.array([0, 1, 2, 1])
        probs = np.eye(3)[labels]
        assert metrics.ece(probs, labels) == 0.0

    def test_calibrated_sampler_small(self):
        rng = np.random.default_rng(3)
        n = 10_000
        probs = rng.dirichlet(np.ones(3) * 2.0, size=n)
        labels = np.array([rng.choice(3, p=p) for p in probs])
        assert metrics.ece(probs, labels) <= 0.02

    def test_overconfident_wrong_half(self):
        # all predictions confidence 0.9 on class 0, accuracy 0.5
        probs = np.tile([0.9, 0.1], (100, 1))
        labels = np.array([0, 1] * 50)
        assert abs(metrics.ece(probs, labels) - 0.4) < 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(4), size=200)
        labels = rng.integers(0, 4, 200)
        assert 0.0 <= metrics.ece(probs, labels) <= 1.0

    @pytest.mark.parametrize("bins", [0, -1])
    def test_no_bins_rejected(self, bins):
        # With no bin the loop never runs, which would read as a perfect 0.0.
        with pytest.raises(ContractViolation, match="bins"):
            metrics.ece(np.tile([0.9, 0.1], (4, 1)), np.array([0, 1, 0, 1]), bins=bins)

    @pytest.mark.parametrize("classes", [0, 3])
    def test_empty_rejected(self, classes):
        with pytest.raises(ContractViolation, match="empty"):
            metrics.ece(np.empty((0, classes)), np.array([], dtype=np.int64))


class TestPrecisionAtK:
    def test_top_k_all_true(self):
        scored = [("a", "b", 3.0), ("b", "c", 2.0), ("c", "d", 1.0)]
        truth = {("a", "b"), ("b", "c")}
        assert metrics.precision_at_k(scored, truth, k=2) == 1.0

    def test_disjoint(self):
        scored = [("a", "b", 3.0), ("b", "c", 2.0)]
        assert metrics.precision_at_k(scored, {("x", "y")}, k=2) == 0.0

    def test_hypergeometric_mean_under_random_scores(self):
        rng = np.random.default_rng(5)
        edges = [(f"s{i}", f"d{i}") for i in range(20)]
        truth = set(edges[:5])
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            scored = [(s, d, float(r)) for (s, d), r in zip(edges, rng.random(20))]
            total += metrics.precision_at_k(scored, truth, k=5)
        assert abs(total / trials - 0.25) < 0.02

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        edges = [(f"s{i}", f"d{i}", float(v)) for i, v in enumerate(rng.random(10))]
        truth = {("s3", "d3"), ("s7", "d7")}
        base = metrics.precision_at_k(edges, truth, k=3)
        transformed = [(s, d, 3.0 * v + 10.0) for s, d, v in edges]
        assert metrics.precision_at_k(transformed, truth, k=3) == base

    def test_fewer_candidates_than_k(self):
        scored = [("a", "b", 1.0), ("c", "d", 0.5)]
        assert metrics.precision_at_k(scored, {("a", "b")}, k=5) == 0.5


class TestRankCorrelation:
    def test_identical_orderings(self):
        assert metrics.rank_correlation([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_orderings(self):
        assert metrics.rank_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_case(self):
        assert abs(metrics.rank_correlation([1, 2, 3], [2, 1, 3]) - 0.5) < 1e-12

    def test_zero_variance_undefined(self):
        assert metrics.rank_correlation([1.0, 1.0, 1.0], [1, 2, 3]) is None

    def test_against_scipy_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.integers(0, 6, 40).astype(float)
            b = a + rng.integers(-2, 3, 40)
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue
            ref = scipy.stats.spearmanr(a, b).statistic
            assert abs(metrics.rank_correlation(a, b) - ref) < 1e-12


class TestAccuracyAndEntropy:
    def test_accuracy(self):
        assert metrics.accuracy([0, 1, 1], [0, 1, 0], 2) == pytest.approx(2 / 3)

    def test_predictive_entropy_uniform(self):
        probs = np.full((5, 4), 0.25)
        assert abs(metrics.predictive_entropy(probs) - np.log(4)) < 1e-12

    def test_predictive_entropy_onehot_zero(self):
        probs = np.eye(3)[[0, 1, 2]]
        assert metrics.predictive_entropy(probs) == 0.0
