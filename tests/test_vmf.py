import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn import vmf
from causal_sphhn.errors import ContractViolation


def log_err(a, b):
    """|delta log|, i.e. the relative error of the underlying value."""
    return abs(a - b) / max(1.0, abs(b))


def sphere_area(d):
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def uniform_sphere(rng, n, d):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def wood_sample(mu, kappa, rng, n):
    """n draws from the vMF with mean direction mu by Wood's rejection algorithm.

    The Monte Carlo oracle for the entropy: it uses no Bessel function.
    Proposals for the cosine w against the mean direction use a scaled
    beta envelope; directions in the tangent space are uniform, and a
    Householder reflection maps e1 to mu.
    """
    d = mu.shape[0]
    if kappa == 0.0:
        return uniform_sphere(rng, n, d)
    b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * math.log(1.0 - x0 * x0)
    w = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 32)
        z = rng.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=m)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(m)
        ok = kappa * cand + (d - 1.0) * np.log1p(-x0 * cand) - c >= np.log(u)
        take = min(int(ok.sum()), n - filled)
        w[filled : filled + take] = cand[ok][:take]
        filled += take
    out = np.empty((n, d))
    out[:, 0] = w
    out[:, 1:] = np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * uniform_sphere(rng, n, d - 1)
    v = -mu.copy()
    v[0] += 1.0
    if np.linalg.norm(v) >= 1e-12:
        v /= np.linalg.norm(v)
        out -= 2.0 * np.outer(out @ v, v)
    return out


class TestLogBessel:
    def test_order_zero_at_zero(self):
        assert vmf.log_bessel_i(0.0, 0.0) == 0.0

    def test_half_integer_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        expected = math.log(math.sqrt(2.0 / math.pi) * math.sinh(1.0))
        assert abs(vmf.log_bessel_i(0.5, 1.0) - expected) < 1e-8

    def test_extended_precision_series_oracle(self):
        # 60-term power series evaluated at 50 decimal digits.
        mp.mp.dps = 50
        nu, x = 1, mp.mpf(50)
        total = mp.mpf(0)
        for k in range(60):
            total += (x / 2) ** (2 * k + nu) / (mp.factorial(k) * mp.gamma(k + nu + 1))
        expected = float(mp.log(total))
        mine = vmf.log_bessel_i(1.0, 50.0)
        assert abs(mine - expected) / abs(expected) < 1e-9

    def test_grid_against_mpmath(self):
        mp.mp.dps = 40
        for nu in (0.0, 0.5, 1.0, 2.5, 11.0, 31.0, 32.0):
            for x in (1e-3, 0.5, 5.0, 19.9, 20.0, 25.0, 63.9, 64.0, 100.0, 1000.0):
                ref = float(mp.log(mp.besseli(nu, x)))
                assert log_err(vmf.log_bessel_i(nu, x), ref) < 1e-10, (nu, x)

    def test_invalid_inputs(self):
        with pytest.raises(ContractViolation):
            vmf.log_bessel_i(-1.0, 1.0)
        with pytest.raises(ContractViolation):
            vmf.log_bessel_i(1.0, float("nan"))


class TestLogNormConst:
    def test_uniform_limit_d3(self):
        assert abs(vmf.log_norm_const(3, 0.0) + math.log(4 * math.pi)) < 1e-12

    def test_closed_form_d3(self):
        expected = math.log(5.0 / (4 * math.pi * math.sinh(5.0)))
        assert abs(vmf.log_norm_const(3, 5.0) - expected) < 1e-6

    def test_density_integrates_to_one_by_monte_carlo(self):
        rng = np.random.default_rng(7)
        for d, kappa in ((2, 1.5), (3, 2.0), (5, 1.0), (8, 0.5)):
            mu = np.zeros(d)
            mu[0] = 1.0
            h = uniform_sphere(rng, 100_000, d)
            dens = np.exp(vmf.log_norm_const(d, kappa) + kappa * h @ mu)
            integral = sphere_area(d) * dens.mean()
            assert abs(integral - 1.0) < 0.01, (d, kappa)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ContractViolation):
            vmf.log_norm_const(1, 1.0)


class TestMeanResultant:
    def test_zero_concentration(self):
        for d in (2, 3, 8, 64):
            assert vmf.mean_resultant(d, 0.0) == 0.0

    def test_closed_form_d3(self):
        expected = 1.0 / math.tanh(5.0) - 1.0 / 5.0
        assert abs(vmf.mean_resultant(3, 5.0) - expected) < 1e-8

    def test_strictly_increasing(self):
        grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
        for d in (2, 3, 8, 64):
            vals = [vmf.mean_resultant(d, k) for k in grid]
            assert all(a < b for a, b in zip(vals, vals[1:])), d
            assert all(0.0 < v < 1.0 for v in vals)

    def test_large_kappa_against_closed_form(self):
        for kappa in (600.0, 1000.0, 5000.0):
            expected = 1.0 / math.tanh(kappa) - 1.0 / kappa
            assert abs(vmf.mean_resultant(3, kappa) - expected) < 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.5, 31.0, 1000.0])
    def test_largest_argument_does_not_overflow(self, nu):
        # The large-argument series divided by 8k·x, which overflows above x ≈ 2.2e307.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = vmf.bessel_ratio(nu, 1.79e308)
        assert 0.0 < ratio <= 1.0

    def test_derivative_matches_finite_differences(self):
        for d in (2, 3, 8, 64):
            for kappa in (0.5, 2.0, 10.0, 80.0):
                h = 1e-6 * max(1.0, kappa)
                numeric = (
                    vmf.mean_resultant(d, kappa + h) - vmf.mean_resultant(d, kappa - h)
                ) / (2 * h)
                assert abs(vmf.mean_resultant_deriv(d, kappa) - numeric) < 1e-7

    def test_derivative_limit_at_zero(self):
        for d in (2, 5, 64):
            assert abs(vmf.mean_resultant_deriv(d, 0.0) - 1.0 / d) < 1e-12


class TestTinyKappa:
    @pytest.mark.parametrize("kappa", [1e-310, 1e-320, 5e-324])
    def test_subnormal_kappa(self, kappa):
        # The continued fraction's first coefficient 2(nu + 1) / kappa
        # overflowed here, and the ratio and the entropy came out NaN.
        assert vmf.bessel_ratio(31, kappa) == kappa / 64.0
        assert vmf.entropy_from_kappa(64, kappa) == vmf.entropy_from_kappa(64, 0.0)

    @pytest.mark.parametrize("kappa", [1e-300, 1e-290, 1e-200])
    def test_tiny_kappa_is_unbiased(self, kappa):
        # Here the continued fraction's Lentz start of 1e-300 would add about
        # 1e-300 to the ratio, 64 times x / 64 itself at x = 1e-300.
        for nu in (0.0, 0.5, 31.0):
            lead = kappa / (2.0 * (nu + 1.0))
            assert abs(vmf.bessel_ratio(nu, kappa) - lead) <= 1e-15 * lead

    def test_continuous_across_the_small_argument_branch(self):
        edge = vmf._RATIO_SMALL_MAX
        for nu in (0.0, 0.5, 31.0):
            below, at = vmf.bessel_ratio(nu, np.array([np.nextafter(edge, 0.0), edge]))
            assert abs(at - below) <= 1e-15 * at
            assert abs(at - edge / (2.0 * (nu + 1.0))) <= 1e-15 * at

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 8, 64]),
        st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True),
    )
    @example(64, 5e-324)
    @example(64, 1e-300)
    def test_finite_for_every_nonnegative_kappa(self, d, kappa):
        values = (
            vmf.bessel_ratio(0.5 * d - 1.0, kappa),
            vmf.entropy_from_kappa(d, kappa),
            vmf.mean_resultant_deriv(d, kappa),
        )
        assert all(math.isfinite(v) for v in values), values


class TestEntropy:
    def test_uniform_entropy_d3(self):
        assert abs(vmf.entropy_from_kappa(3, 0.0) - math.log(4 * math.pi)) < 1e-12

    def test_closed_form_d3(self):
        k = 5.0
        expected = math.log(4 * math.pi * math.sinh(k) / k) - k * (
            1.0 / math.tanh(k) - 1.0 / k
        )
        assert abs(vmf.entropy_from_kappa(3, k) - expected) < 1e-5

    def test_d3_generic_path_matches_closed_form_over_range(self):
        for k in np.geomspace(1e-3, 300.0, 60):
            expected = math.log(4 * math.pi * math.sinh(k) / k) - k * (
                1.0 / math.tanh(k) - 1.0 / k
            )
            rel = abs(vmf.entropy_from_kappa(3, float(k)) - expected) / max(
                1e-12, abs(expected)
            )
            assert rel < 1e-6, k

    def test_monte_carlo_oracle_high_dim(self):
        d, kappa, n = 64, 20.0, 100_000
        mu = np.zeros(d)
        mu[0] = 1.0
        rng = np.random.default_rng(11)
        draws = wood_sample(mu, kappa, rng, n)
        logp = vmf.log_norm_const(d, kappa) + kappa * draws @ mu
        mc = -logp.mean()
        se = logp.std(ddof=1) / math.sqrt(n)
        assert abs(vmf.entropy_from_kappa(d, kappa) - mc) < 3 * se

    @staticmethod
    def mp_entropy_and_ratio(d, kappa):
        with mp.workdps(60):  # -log C and kappa * A both reach 1e20
            nu, k = mp.mpf(d) / 2 - 1, mp.mpf(kappa)
            i_nu, i_next = mp.besseli(nu, k), mp.besseli(nu + 1, k)
            log_c = nu * mp.log(k) - mp.mpf(d) / 2 * mp.log(2 * mp.pi) - mp.log(i_nu)
            return float(-log_c - k * i_next / i_nu), float(i_next / i_nu)

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    @pytest.mark.parametrize("kappa", [1e5, 1e12, 1e18, 1e20])
    def test_large_kappa_against_mpmath(self, d, kappa):
        # The direct form returned 0.0 at d = 64, kappa = 1e20.
        expected, _ = self.mp_entropy_and_ratio(d, kappa)
        assert abs(vmf.entropy_from_kappa(d, kappa) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("d", [64, 200, 1000])
    @pytest.mark.parametrize("kappa", [1e5, 1e6])
    def test_large_dimension_against_mpmath(self, d, kappa):
        # With the switch fixed at kappa = 1e5 the divergent series put d = 1000 off by 5.8e-5.
        entropy, ratio = self.mp_entropy_and_ratio(d, kappa)
        assert abs(vmf.entropy_from_kappa(d, kappa) - entropy) <= 1e-13 * abs(entropy)
        assert abs(vmf.mean_resultant(d, kappa) - ratio) <= 1e-14 * ratio

    def test_series_length_is_unchanged_up_to_d_200(self):
        assert all(vmf._asymptotic_length(0.5 * d) == vmf._ASYMPTOTIC_TERMS for d in range(2, 201))
        assert vmf._asymptotic_min(100.0) == vmf._RATIO_ASYMPTOTIC_MIN

    def test_continuous_across_the_large_kappa_switch(self):
        # The direct form below the switch loses about kappa * eps to cancellation.
        edge = vmf._RATIO_ASYMPTOTIC_MIN
        for d in (2, 3, 8, 64):
            below, at = vmf.entropy_from_kappa(d, np.array([np.nextafter(edge, 0.0), edge]))
            assert abs(at - below) <= 100 * np.finfo(float).eps * edge, d
            assert below > at

    def test_nonfinite_kappa_rejected(self):
        with pytest.raises(ContractViolation):
            vmf.entropy_from_kappa(64, np.inf)

    def test_strictly_decreasing_in_kappa(self):
        grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
        for d in (2, 3, 8, 64):
            vals = [vmf.entropy_from_kappa(d, k) for k in grid]
            assert all(a > b for a, b in zip(vals, vals[1:])), d

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 8, 64]),
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True), min_size=1, max_size=20),
    )
    @example(4, [0.5, 5.0, 50.0, 500.0])
    def test_an_array_gives_each_element_its_scalar_value(self, d, kappas):
        # A node's ratio and entropy do not depend on which other kappas share its array.
        arr = np.array(kappas)
        ratios, entropies = vmf.bessel_ratio(0.5 * d - 1.0, arr), vmf.entropy_from_kappa(d, arr)
        for k, ratio, entropy in zip(kappas, ratios, entropies):
            assert ratio == vmf.bessel_ratio(0.5 * d - 1.0, k), k
            assert entropy == vmf.entropy_from_kappa(d, k), k


class TestSample:
    """Checks of the Monte Carlo oracle's sampler itself."""

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(5)
        mu = np.full(5, 1.0 / math.sqrt(5))
        draws = wood_sample(mu, 7.0, rng, 500)
        assert np.max(np.abs(np.linalg.norm(draws, axis=1) - 1.0)) < 1e-9

    def test_uniform_mean_resultant_small(self):
        rng = np.random.default_rng(6)
        mu = np.zeros(4)
        mu[0] = 1.0
        draws = wood_sample(mu, 0.0, rng, 10_000)
        assert np.linalg.norm(draws.mean(axis=0)) <= 0.02

    def test_concentrated_mean_resultant_matches_a3(self):
        rng = np.random.default_rng(8)
        mu = np.array([0.6, 0.0, 0.8])
        draws = wood_sample(mu, 50.0, rng, 20_000)
        resultant = np.linalg.norm(draws.mean(axis=0))
        expected = 1.0 / math.tanh(50.0) - 1.0 / 50.0
        assert abs(resultant - expected) < 0.01
        mean_dir = draws.mean(axis=0) / resultant
        assert np.allclose(mean_dir, mu, atol=0.02)

    def test_dimension_two(self):
        rng = np.random.default_rng(9)
        mu = np.array([1.0, 0.0])
        draws = wood_sample(mu, 5.0, rng, 5000)
        assert np.max(np.abs(np.linalg.norm(draws, axis=1) - 1.0)) < 1e-9
        expected = vmf.mean_resultant(2, 5.0)
        assert abs(np.linalg.norm(draws.mean(axis=0)) - expected) < 0.02
