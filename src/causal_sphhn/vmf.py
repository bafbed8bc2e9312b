"""von Mises-Fisher distributions on the unit hypersphere S^{d-1}.

Provides the log normalization constant, the entropy (nats) of a given
concentration, and the mean resultant ratio
A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa) with its derivative.  The
modified Bessel function I_nu is evaluated from scratch: a scaled power
series below x = max(20, 2*nu) and the uniform large-order asymptotic
expansion above it, with ratios computed by a continued fraction so no log
subtraction is needed at large argument.

kappa's domain is [0, KAPPA_MAX].  The ratio, its derivative and the
entropy raise ``ContractViolation`` above it, where the continued fraction
needs ever more terms and the entropy's direct form cancels two terms of
size kappa; ``autodiff.vmf_entropy`` saturates at it.  The log
Bessel function and log C_d(kappa) need no such bound and take any finite
argument.

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

# The top of kappa's domain; see the module docstring.
KAPPA_MAX = 1e4

_SERIES_MAX_TERMS = 1000
# The continued fraction (Amos, Math. Comp. 28:239, 1974) takes at most 621
# iterations on [0, KAPPA_MAX], at x = KAPPA_MAX and nu = 0, for nu from 0 to
# 1000 in steps of 1/2; larger orders converge faster.
_RATIO_MAX_ITER = 1000


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


# Below this argument the ratio is its leading term x / (2(nu + 1)) to
# double precision (the next term is smaller by a factor x^2 / (4(nu + 2))).
# The continued fraction cannot take over lower: its coefficients 2(nu + j) / x
# overflow near 1e-308, and its Lentz start of 1e-300 biases every result by
# about that much in absolute terms.
_RATIO_SMALL_MAX = 1e-150


def bessel_ratio(nu: float, x):
    """I_{nu+1}(x) / I_nu(x) by the Gautschi continued fraction.

    Elementwise Lentz iteration; avoids the catastrophic log subtraction
    at large argument where the ratio approaches 1.  Below x = 1e-150 the
    leading small-argument term takes over.  ``x`` must be at most
    ``KAPPA_MAX``.
    """
    x = _check_order_arg(nu, x)
    if np.any(x > KAPPA_MAX):
        raise ContractViolation(f"kappa must be <= vmf.KAPPA_MAX = {KAPPA_MAX:g}, got {float(np.max(x))!r}")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    small = (x > 0.0) & (x < _RATIO_SMALL_MAX)
    out[small] = x[small] / (2.0 * (nu + 1.0))
    pos = x >= _RATIO_SMALL_MAX
    if np.any(pos):
        xv = x[pos]
        # Every coefficient 2(nu + j) / x is positive and finite here, so c and d
        # stay positive: no denominator can vanish.
        f = np.full_like(xv, 1e-300)
        c = np.full_like(xv, 1e-300)
        d = np.zeros_like(xv)
        active = np.ones(xv.shape, dtype=bool)
        for j in range(1, _RATIO_MAX_ITER + 1):
            b = 2.0 * (nu + j) / xv
            c = b + 1.0 / c
            d = 1.0 / (b + d)
            delta = c * d
            # Converged elements stop updating, so each follows its scalar iteration.
            np.multiply(f, delta, out=f, where=active)
            active &= delta != 1.0  # an element has converged once its factor rounds to 1
            if not active.any():
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


def entropy_from_kappa(d: int, kappa):
    """Differential entropy in nats of a vMF with concentration kappa <= ``KAPPA_MAX``.

    The direct form cancels two terms of size kappa, losing about kappa * eps.
    """
    a = mean_resultant(d, kappa)
    return -log_norm_const(d, kappa) - kappa * a
