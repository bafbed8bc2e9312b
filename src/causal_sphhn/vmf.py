"""von Mises-Fisher distributions on the unit hypersphere S^{d-1}.

Provides the log normalization constant, the entropy (nats) of a given
concentration, and the mean resultant ratio
A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa) with its derivative.  The
modified Bessel function I_nu is evaluated from scratch: a scaled power
series below x = max(20, 2*nu) and the uniform large-order asymptotic
expansion above it, with ratios computed by a continued fraction so no log
subtraction is needed at large argument.  From kappa = max(1e5, d^2 / 4)
the ratio and the entropy use the large-argument expansion instead, which
cancels no terms of size kappa.

All kappa-dependent functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ContractViolation, NumericalError

_LOG_2PI = math.log(2.0 * math.pi)

# --------------------------------------------------------------------------
# Debye polynomials u_k(t) for the uniform asymptotic expansion, generated
# exactly in rational arithmetic from the standard recurrence
#   u_{k+1}(t) = t^2 (1 - t^2) u_k'(t) / 2 + (1/8) \int_0^t (1 - 5 s^2) u_k(s) ds
# and flattened to (coeff, power, power - k) triples so the correction sum
# can be written in terms of s = 1 / sqrt(nu^2 + x^2), which stays finite
# as nu -> 0.
# --------------------------------------------------------------------------

_DEBYE_ORDER = 12


def _debye_terms(order: int):
    poly = {0: Fraction(1)}
    terms = []
    for k in range(1, order + 1):
        nxt: dict[int, Fraction] = {}
        for p, c in poly.items():
            if p:
                half = Fraction(1, 2) * c * p
                nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + half
                nxt[p + 3] = nxt.get(p + 3, Fraction(0)) - half
            nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + Fraction(1, 8) * c / (p + 1)
            nxt[p + 3] = nxt.get(p + 3, Fraction(0)) - Fraction(5, 8) * c / (p + 3)
        poly = nxt
        for p, c in sorted(poly.items()):
            terms.append((float(c), p, p - k))
    return terms


_DEBYE = _debye_terms(_DEBYE_ORDER)

_SERIES_MAX_TERMS = 1000
_RATIO_MAX_ITER = 1_000_000


def _check_order_arg(nu: float, x) -> np.ndarray:
    if not (np.isfinite(nu) and nu >= 0):
        raise ContractViolation(f"Bessel order must be finite and >= 0, got {nu}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ContractViolation("Bessel argument must be finite and >= 0")
    return x


def log_bessel_i(nu: float, x):
    """log I_nu(x) for nu >= 0, x >= 0; scalar or elementwise on arrays."""
    x = _check_order_arg(nu, x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    zero = x == 0.0
    out[zero] = 0.0 if nu == 0 else -np.inf

    series = (~zero) & (x < max(20.0, 2.0 * nu))
    if np.any(series):
        out[series] = _log_bessel_series(nu, x[series])
    asym = (~zero) & (~series)
    if np.any(asym):
        out[asym] = _log_bessel_uniform(nu, x[asym])
    return float(out[0]) if scalar else out


def _log_bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    q = (0.5 * x) ** 2
    term = np.ones_like(x)
    total = np.ones_like(x)
    offset = np.zeros_like(x)
    for k in range(_SERIES_MAX_TERMS):
        term = term * q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        big = total > 1e250
        if np.any(big):
            total[big] *= 1e-250
            term[big] *= 1e-250
            offset[big] += 250.0 * math.log(10.0)
        if np.all(term <= total * 1e-18):
            break
    else:
        raise NumericalError("Bessel power series failed to converge")
    return nu * np.log(0.5 * x) - math.lgamma(nu + 1.0) + np.log(total) + offset


def _log_bessel_uniform(nu: float, x: np.ndarray) -> np.ndarray:
    r = np.hypot(nu, x)
    s = 1.0 / r
    exponent = r + (nu * np.log(x / (nu + r)) if nu > 0 else 0.0)
    prefix = -0.5 * _LOG_2PI - 0.5 * np.log(r)
    corr = np.ones_like(x)
    for c, p, dk in _DEBYE:
        corr += c * nu**dk * s**p
    return exponent + prefix + np.log(corr)


# The large-argument series of orders nu and nu + 1 replaces the continued
# fraction from x = max(1e5, (nu + 1)^2); see _asymptotic_min.
_RATIO_ASYMPTOTIC_MIN = 1e5
# It keeps at least this many terms after the first, and every term of size
# _ASYMPTOTIC_TOL or more at the switch, up to _ASYMPTOTIC_MAX_TERMS.
_ASYMPTOTIC_TERMS = 8
_ASYMPTOTIC_TOL = 1e-17
_ASYMPTOTIC_MAX_TERMS = 24
# Below this argument the ratio is its leading term x / (2(nu + 1)) to
# double precision (the next term is smaller by a factor x^2 / (4(nu + 2))).
# The continued fraction cannot take over lower: its coefficients 2(nu + j) / x
# overflow near 1e-308, and its Lentz start of 1e-300 biases every result by
# about that much in absolute terms.
_RATIO_SMALL_MAX = 1e-150


def _large_arg_terms(order: float, x: np.ndarray, terms: int) -> np.ndarray:
    """The (n, terms + 1) terms (-1)^k a_k(order) / x^k of the large-argument
    series I_order(x) = e^x / sqrt(2 pi x) * sum_k (-1)^k a_k(order) / x^k."""
    k = np.arange(1, terms + 1)
    coef = np.cumprod(np.append(1.0, -(4.0 * order**2 - (2 * k - 1) ** 2) / (8.0 * k)))
    return coef * (1.0 / x)[:, None] ** np.arange(terms + 1)


def _asymptotic_min(top: float) -> float:
    """The argument from which the large-argument series of orders top - 1 and top is used.

    Term k is term k - 1 times (4 top^2 - (2k - 1)^2) / (8 k x), so from
    x = top^2 the terms shrink at least as fast as 1 / (2^k k!).  From a
    fixed 1e5 the series diverged at large orders (at d = 1000, kappa = 1e5
    the entropy was off by 5.8e-5 relative); below the switch the continued
    fraction's ratio is within about 5e-15.
    """
    return max(_RATIO_ASYMPTOTIC_MIN, top * top)


def _asymptotic_length(top: float) -> int:
    """Terms after the first that the series of orders top - 1 and top keeps: at least
    ``_ASYMPTOTIC_TERMS``, and every term of order top of size ``_ASYMPTOTIC_TOL`` or
    more at x = ``_asymptotic_min(top)``.  For top <= 100 (d <= 200) that is 8."""
    mags = np.abs(_large_arg_terms(top, np.array([_asymptotic_min(top)]), _ASYMPTOTIC_MAX_TERMS)[0])
    return max(_ASYMPTOTIC_TERMS, int(np.flatnonzero(mags >= _ASYMPTOTIC_TOL)[-1]))


def bessel_ratio(nu: float, x):
    """I_{nu+1}(x) / I_nu(x) by the Gautschi continued fraction.

    Elementwise Lentz iteration; avoids the catastrophic log subtraction
    at large argument where the ratio approaches 1.  Above
    x = max(1e5, (nu + 1)^2) the continued fraction would need O(x) terms,
    so the large-argument expansion (at machine precision there) takes
    over; below x = 1e-150 the leading small-argument term does.
    """
    x = _check_order_arg(nu, x)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(x)
    huge = x >= _asymptotic_min(nu + 1.0)
    if np.any(huge):
        terms = _asymptotic_length(nu + 1.0)
        upper, lower = _large_arg_terms(nu + 1.0, x[huge], terms), _large_arg_terms(nu, x[huge], terms)
        out[huge] = upper.sum(axis=1) / lower.sum(axis=1)
    small = (x > 0.0) & (x < _RATIO_SMALL_MAX)
    out[small] = x[small] / (2.0 * (nu + 1.0))
    pos = (x >= _RATIO_SMALL_MAX) & ~huge
    if np.any(pos):
        xv = x[pos]
        tiny = 1e-300
        f = np.full_like(xv, tiny)
        c = np.full_like(xv, tiny)
        d = np.zeros_like(xv)
        active = np.ones(xv.shape, dtype=bool)
        for j in range(1, _RATIO_MAX_ITER + 1):
            b = 2.0 * (nu + j) / xv
            d = b + d
            d[d == 0.0] = tiny
            c = b + 1.0 / c
            c[c == 0.0] = tiny
            d = 1.0 / d
            delta = c * d
            # Converged elements stop updating, so each follows its scalar iteration.
            f = np.where(active, f * delta, f)
            active &= np.abs(delta - 1.0) >= 1e-16
            if not np.any(active):
                break
        else:
            raise NumericalError("Bessel ratio continued fraction did not converge")
        out[pos] = f
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# vMF quantities
# --------------------------------------------------------------------------


def _check_dim(d: int) -> None:
    if d < 2:
        raise ContractViolation(f"ambient dimension must be >= 2, got {d}")


def log_uniform_density(d: int) -> float:
    """-log(surface area of S^{d-1}), the kappa -> 0 limit of log C_d."""
    _check_dim(d)
    return math.lgamma(0.5 * d) - math.log(2.0) - 0.5 * d * math.log(math.pi)


def log_norm_const(d: int, kappa):
    """log C_d(kappa) with the uniform limit taken analytically near 0."""
    _check_dim(d)
    kappa = np.asarray(kappa, dtype=np.float64)
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    if np.any(kappa < 0) or not np.all(np.isfinite(kappa)):
        raise ContractViolation("kappa must be finite and >= 0")
    nu = 0.5 * d - 1.0
    out = np.full_like(kappa, log_uniform_density(d))
    big = kappa >= 1e-8
    if np.any(big):
        kv = kappa[big]
        out[big] = nu * np.log(kv) - 0.5 * d * _LOG_2PI - log_bessel_i(nu, kv)
    return float(out[0]) if scalar else out


def mean_resultant(d: int, kappa):
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa), in [0, 1)."""
    _check_dim(d)
    return bessel_ratio(0.5 * d - 1.0, kappa)


def mean_resultant_deriv(d: int, kappa):
    """dA_d/dkappa = 1 - A^2 - (d-1)/kappa * A, with the limit 1/d at 0."""
    _check_dim(d)
    kappa = np.asarray(kappa, dtype=np.float64)
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    out = np.full_like(kappa, 1.0 / d)
    big = kappa > 1e-6
    if np.any(big):
        kv = kappa[big]
        a = mean_resultant(d, kv)
        out[big] = 1.0 - a * a - (d - 1.0) / kv * a
    return float(out[0]) if scalar else out


def _entropy_large_kappa(d: int, kappa: np.ndarray) -> np.ndarray:
    """(d-1)/2 * (1 + log(2 pi / kappa)) plus its 1/kappa corrections.

    With S_nu the large-argument series of :func:`_large_arg_terms`, the
    entropy is (d-1)/2 log(2 pi / kappa) + kappa (S_nu - S_{nu+1}) / S_nu
    + log S_nu.  The middle numerator is summed term by term, not formed
    as the difference of two sums near 1; its first term is (d-1)/2.
    """
    terms = _asymptotic_length(0.5 * d)
    s_nu, s_next = _large_arg_terms(0.5 * d - 1.0, kappa, terms), _large_arg_terms(0.5 * d, kappa, terms)
    tail = s_nu[:, 1:].sum(axis=1)
    spread = kappa * (s_nu - s_next)[:, 1:].sum(axis=1)
    return 0.5 * (d - 1) * (_LOG_2PI - np.log(kappa)) + spread / (1.0 + tail) + np.log1p(tail)


def entropy_from_kappa(d: int, kappa):
    """Differential entropy in nats of a vMF with the given concentration."""
    _check_dim(d)
    kappa = _check_order_arg(0.5 * d - 1.0, kappa)
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    # The direct form cancels two terms of size kappa; the training cap
    # (autodiff.VMF_ENTROPY_KAPPA_CAP) keeps training below the expansion.
    big = kappa >= _asymptotic_min(0.5 * d)
    h = np.empty_like(kappa)
    h[big] = _entropy_large_kappa(d, kappa[big])
    rest = kappa[~big]
    h[~big] = -log_norm_const(d, rest) - rest * mean_resultant(d, rest)
    return float(h[0]) if scalar else h
