"""Temporal causal structure inference via pairwise Granger tests.

For each ordered node pair (i, j) a restricted autoregression of j's series
on its own lags is compared against an unrestricted one that adds i's lags;
the variance reduction is scored by an F statistic whose p-value comes from
the regularized incomplete beta function.  Significant pairs form a directed
causal graph over the node series that ``reduce_features`` derives.

``granger_test`` fits one pair by Householder QR of a design whose columns
are scaled to unit norm, and is the reference.  ``infer_causal_graph`` tests
all pairs with one blocked Frisch–Waugh–Lovell kernel: centring, a QR basis
per node, one product per target, and a p x p Schur step done elementwise.
For every block of targets the step forms S = I - MMᵀ, factors S = LLᵀ and
solves with L in O(p³) whole-array passes over the block's pairs, one pass
per matrix entry and product term, instead of a LAPACK call per pair.  The
kernel hands ill-conditioned or nearly exact pairs to ``granger_test``, and
gets p-values only for F at or above the critical value, bisected once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import read_json, write_json
from .errors import ContractViolation, NumericalError, ParseError, RankDeficient, SeriesTooShort, naming
from .hypergraph import NodeFeatureSeries

REDUCTIONS = ("pca1", "mean")

# Threshold on |R_ii| of a design with unit-norm columns, the sine of a
# column's angle to the columns before it, below which the design is treated
# as rank deficient.  Conservative for the series lengths (T ~ 500) used upstream.
_RANK_TOL = 1e-10

# Residual sum of squares at or below this, relative to the target's sum of
# squares, counts as an exact fit, which rescues rank-deficient designs that
# still determine the residual uniquely (e.g. a constant series, or a target
# that is a deterministic lagged copy of the source).
_EXACT_RSS_TOL = 1e-18

# Targets per block of the pair kernel, whose arrays are (lag + 1, lag, _CHUNK, n).
_CHUNK = 64
# Pairs the kernel hands to ``granger_test``: the sine of the smallest principal
# angle between the two lag spaces, or rss_u / rss_r, at most its band.
_PIVOT_BAND = _FIT_BAND = 1e-2


@dataclass(frozen=True)
class GrangerConfig:
    lag: int = 2
    alpha: float = 0.01
    reduction: str = "pca1"
    bonferroni: bool = False

    def __post_init__(self):
        if self.lag < 1:
            raise ContractViolation(f"lag must be >= 1, got {self.lag}")
        if not (0.0 < self.alpha < 1.0):
            raise ContractViolation(f"alpha must be in (0, 1), got {self.alpha}")
        if self.reduction not in REDUCTIONS:
            raise ContractViolation(f"unknown reduction {self.reduction!r}")

    @property
    def min_length(self) -> int:
        return 4 * self.lag + 4


@dataclass(frozen=True)
class CausalEdge:
    src: str
    dst: str
    f_statistic: float
    p_value: float


@dataclass
class CausalGraph:
    """Directed graph of significant Granger edges, sorted by (src, dst)."""

    alpha: float
    lag: int
    edges: list[CausalEdge] = field(default_factory=list)

    def __post_init__(self):
        self.edges = sorted(self.edges, key=lambda e: (e.src, e.dst))
        seen = set()
        for e in self.edges:
            if e.src == e.dst:
                raise ContractViolation(f"self loop {e.src}->{e.dst}")
            if (e.src, e.dst) in seen:
                raise ContractViolation(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
            if e.p_value > self.alpha:
                raise ContractViolation(
                    f"stored edge {e.src}->{e.dst} has p {e.p_value} > alpha"
                )
            if not (e.f_statistic >= 0.0):
                raise ContractViolation("edge F statistic must be >= 0")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lag": self.lag,
            "edges": [
                {"src": e.src, "dst": e.dst, "f": e.f_statistic, "p": e.p_value}
                for e in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CausalGraph":
        try:
            alpha, lag = float(doc["alpha"]), int(doc["lag"])
            edges = [
                CausalEdge(str(e["src"]), str(e["dst"]), float(e["f"]), float(e["p"]))
                for e in doc["edges"]
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"causal graph: missing or malformed field {exc}") from exc
        return cls(alpha=alpha, lag=lag, edges=edges)

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "CausalGraph":
        doc = read_json(path)
        with naming(path):
            return cls.from_dict(doc)


# --------------------------------------------------------------------------
# Regularized incomplete beta, for the F survival function
# --------------------------------------------------------------------------


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), elementwise.

    Elements stop updating once converged, so each one follows the same
    arithmetic as a scalar iteration would.
    """
    tiny = 1e-300

    def floor(v):
        return np.where(np.abs(v) < tiny, tiny, v)

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / floor(1.0 - qab * x / qap)
    h = d
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, 400):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 / floor(1.0 + aa * d)
            c = floor(1.0 + aa / c)
            delta = d * c
            h = np.where(active, h * delta, h)
        active &= ~(np.abs(delta - 1.0) < 1e-12)
        if not active.any():
            return h
    raise NumericalError("incomplete beta continued fraction did not converge")


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) elementwise, with relative error around 1e-12 via continued fractions."""
    a, b, x = (np.asarray(v, dtype=np.float64) for v in (a, b, x))
    inside = (0.0 <= x) & (x <= 1.0)
    if not inside.all():
        raise ContractViolation(f"x must be in [0, 1], got {x[~inside][0]}")
    log_beta = _lgamma(a + b) - _lgamma(a) - _lgamma(b)
    a, b, x = np.broadcast_arrays(a, b, x)
    interior = (0.0 < x) & (x < 1.0)
    x_in = np.where(interior, x, 0.5)
    front = np.exp(log_beta + a * np.log(x_in) + b * np.log1p(-x_in))
    lower = x_in < (a + 1.0) / (a + b + 2.0)
    p, q = np.where(lower, a, b), np.where(lower, b, a)
    tail = front * _betacf(p, q, np.where(lower, x_in, 1.0 - x_in)) / p
    out = np.where(interior, np.where(lower, tail, 1.0 - tail), x)
    return float(out) if out.ndim == 0 else out


def f_survival(f_stat, d1, d2):
    """P(F > f) for an F(d1, d2) distribution, elementwise.

    F <= 0 gives 1 and F = inf gives 0; a NaN statistic raises
    :class:`ContractViolation`.
    """
    f, d1, d2 = (np.asarray(v, dtype=np.float64) for v in (f_stat, d1, d2))
    x = d2 / (d2 + d1 * np.maximum(f, 0.0))
    out = np.clip(regularized_incomplete_beta(0.5 * d2, 0.5 * d1, x), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# VAR fits
# --------------------------------------------------------------------------


def _lagged(y: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Target y_t for t >= lag and the (T-lag) x lag matrix of its lags."""
    t = y.shape[0]
    cols = [y[lag - 1 - k : t - 1 - k] for k in range(lag)]
    return y[lag:], np.column_stack(cols)


def _check_series(y: np.ndarray, lag: int, min_length: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ContractViolation("series must be 1-D")
    if not np.all(np.isfinite(y)):
        raise ContractViolation("series has nonfinite values")
    if y.shape[0] < min_length:
        raise SeriesTooShort(
            f"series length {y.shape[0]} < minimum {min_length} for lag {lag}"
        )
    return y


def _solve_ols(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(coef, rss, resid) by Householder QR, with an exact-fit rescue for rank-deficient designs.

    The design's columns are scaled to unit norm first, so |R_ii| is the sine of
    the angle between column i and the span of the columns before it, and the
    rank test does not depend on the scale of any series.
    """
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    unit = a / scale
    q, r = np.linalg.qr(unit)
    rdiag = np.abs(np.diag(r))
    deficient = rdiag.min() <= _RANK_TOL
    coef = np.linalg.lstsq(unit, b, rcond=None)[0] if deficient else np.linalg.solve(r, q.T @ b)
    coef = coef / scale
    resid = b - a @ coef
    rss = float(resid @ resid)
    if deficient and rss > _EXACT_RSS_TOL * float(b @ b):
        raise RankDeficient(f"R diagonal {rdiag.min():.3e} of the unit-column design below {_RANK_TOL:g}")
    return coef, rss, resid


def _fit_var(series: list, lag: int, min_length: int):
    """OLS of the first series on the intercept and every series' lags; (coef, rss, dof, resid)."""
    series = [_check_series(s, lag, min_length) for s in series]
    if len({s.shape[0] for s in series}) > 1:
        raise ContractViolation("series must be aligned and equal length")
    target = series[0][lag:]
    design = np.column_stack([np.ones(target.shape[0])] + [_lagged(s, lag)[1] for s in series])
    coef, rss, resid = _solve_ols(design, target)
    return coef, rss, target.shape[0] - design.shape[1], resid


class GrangerDecision(NamedTuple):
    f_statistic: float
    p_value: float
    is_edge: bool
    note: str = ""


def granger_test(source, target, cfg: GrangerConfig, n_tests: int = 1) -> GrangerDecision:
    """Test whether ``source`` Granger-causes ``target``.

    Degenerate designs (rank deficiency, too-short series) yield a
    no-edge decision with a diagnostic note rather than an error.
    """
    alpha = cfg.alpha / n_tests if cfg.bonferroni else cfg.alpha
    try:
        *_, resid_r = _fit_var([target], cfg.lag, cfg.min_length)
        _, rss_u, dof_u, resid_u = _fit_var([target, source], cfg.lag, cfg.min_length)
    except (RankDeficient, SeriesTooShort) as exc:
        return GrangerDecision(0.0, 1.0, False, f"{type(exc).__name__}: {exc}")
    # The residuals differ by a projection, so rss_r - rss_u = ‖r_r - r_u‖², free of cancellation.
    gain = resid_r - resid_u
    f_stat, p_value, is_edge = _f_test(gain @ gain, rss_u, cfg.lag, dof_u, alpha)
    return GrangerDecision(float(f_stat), float(p_value), bool(is_edge))


def _f_test(gain, rss_u, lag: int, dof_u: int, alpha: float, f_crit: float = 0.0):
    """(F, p, is_edge) of the nested-model test, elementwise, from the RSS gain rss_r - rss_u.

    p is computed, in one call, only where F >= f_crit·(1 - 1e-6), a rounding margin; else 1.
    """
    f_stat = np.asarray((np.maximum(gain, 0.0) / lag) / np.maximum(rss_u / dof_u, 1e-300))
    scored = f_stat >= f_crit * (1.0 - 1e-6)
    p_value = np.ones_like(f_stat)
    p_value[scored] = f_survival(f_stat[scored], lag, dof_u)
    return f_stat, p_value, p_value <= alpha


def _f_crit(alpha: float, lag: int, dof_u: int) -> float:
    """The largest F, bisected to 1e-9 relative, whose p-value exceeds alpha."""
    lo, hi = 0.0, 1.0
    while f_survival(hi, lag, dof_u) > alpha:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f_survival(mid, lag, dof_u) > alpha else (lo, mid)
    return lo


# --------------------------------------------------------------------------
# Feature reduction and whole-graph inference
# --------------------------------------------------------------------------


def reduce_features(
    nodes: list[NodeFeatureSeries],
    mode: str = "pca1",
    fit_ids: list[str] | None = None,
) -> dict[str, np.ndarray]:
    """Collapse each node's T x d features to a scalar series.

    "pca1" projects onto the first principal direction of the pooled
    (timestep, node) rows of the fit subset; "mean" averages feature
    dimensions.  The principal direction's sign is fixed so its largest
    component is positive.
    """
    if mode not in REDUCTIONS:
        raise ContractViolation(f"unknown reduction {mode!r}")
    if mode == "mean":
        return {n.node_id: n.features.mean(axis=1) for n in nodes}
    fit = set(fit_ids) if fit_ids else {n.node_id for n in nodes}
    pool = np.concatenate([n.features for n in nodes if n.node_id in fit], axis=0)
    center = pool.mean(axis=0)
    cov = (pool - center).T @ (pool - center)
    _, vecs = np.linalg.eigh(cov)
    w = vecs[:, -1]
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return {n.node_id: (n.features - center) @ w for n in nodes}


def _schur(m: np.ndarray) -> np.ndarray:
    """S = I - M Mᵀ for an entry-major stack of p x p matrices, shapes (p, p, ...).

    Each of the p(p + 1) / 2 distinct entries is one sum of p whole-array
    products, written to both of its symmetric places.
    """
    p = m.shape[0]
    s = np.empty(m.shape)
    for a in range(p):
        for c in range(a + 1):
            acc = m[a, 0] * m[c, 0]
            for k in range(1, p):
                acc += m[a, k] * m[c, k]
            s[a, c] = s[c, a] = float(a == c) - acc
    return s


def _cholesky_gain(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """bᵀS⁻¹b = ‖L⁻¹b‖², S = LLᵀ, for entry-major S (p, p, ...) and b (p, ...).

    An unpivoted Cholesky factorisation and forward substitution, each entry one
    whole-array expression (Golub & Van Loan, Matrix Computations, §4.2).  It
    needs no pivoting because ``infer_causal_graph`` passes it only S with
    λ_min(S) > ``_PIVOT_BAND``² = 1e-4, by the ‖M‖_F² screen or by ``eigvalsh``,
    and S = I for every pair it hands to ``granger_test``.
    """
    p = s.shape[0]
    low = [[None] * p for _ in range(p)]
    z, gain = [], 0.0
    for i in range(p):
        for k in range(i + 1):
            acc = s[i, k]
            for m in range(k):
                acc = acc - low[i][m] * low[k][m]
            low[i][k] = np.sqrt(acc) if k == i else acc / low[k][k]
        acc = b[i]
        for m in range(i):
            acc = acc - low[i][m] * z[m]
        z.append(acc / low[i][i])
        gain = gain + z[i] * z[i]
    return gain


def infer_causal_graph(
    nodes: list[NodeFeatureSeries],
    cfg: GrangerConfig,
    fit_ids: list[str] | None = None,
) -> CausalGraph:
    """Run the pairwise test over all ordered pairs; keep significant edges.

    Columns are centred (FWL on the intercept); one QR of each node's lag
    block gives its basis Q_i and, as a target, its residual r_j.  Source i,
    target j: M = Q_iᵀQ_j, b = Q_iᵀr_j, S = I - M Mᵀ, rss_u = rss_r - bᵀS⁻¹b.
    Per block of ``_CHUNK`` targets, [Q_j, r_j]ᵀQ_all lays M and b out
    entry-major, each entry a (targets, n) array; ``_schur`` and
    ``_cholesky_gain`` then take bᵀS⁻¹b = ‖L⁻¹b‖² in O(p³) whole-array passes.
    A pair goes to ``granger_test`` (module global, ``reduce_features``'s
    arrays) if either node's R diagonal is at most ``_RANK_TOL`` times its
    uncentred lag column norms (the rank rule of ``granger_test``'s unit-column
    design), if √λ_min(S) <= ``_PIVOT_BAND`` or if rss_u <= ``_FIT_BAND``·rss_r.
    """
    if len(nodes) < 2:
        raise ContractViolation("need at least 2 nodes")
    series = reduce_features(nodes, cfg.reduction, fit_ids)
    ids = sorted(series)
    n = len(ids)
    n_tests = n * (n - 1)
    alpha = cfg.alpha / n_tests if cfg.bonferroni else cfg.alpha
    t_len = series[ids[0]].shape[0]
    if len({v.shape[0] for v in series.values()}) > 1:
        raise ContractViolation("all series must have equal length")
    if t_len < cfg.min_length:
        raise SeriesTooShort(f"series length {t_len} < minimum {cfg.min_length} for lag {cfg.lag}")

    p, rows = cfg.lag, t_len - cfg.lag
    dof_u = rows - (2 * p + 1)
    # cols[i, t] = (x_{t+p}, x_{t+p-1}, ..., x_t): node i's target and its p lags, as _lagged gives them.
    cols = sliding_window_view(np.stack([series[nid] for nid in ids]), p + 1, axis=1)[:, :, ::-1].copy()
    norms = np.linalg.norm(cols[:, :, 1:], axis=1)  # granger_test's lag columns, before centring
    cols -= cols.mean(axis=1, keepdims=True)
    y, (q, r) = cols[:, :, 0], np.linalg.qr(cols[:, :, 1:])
    # |R_kk| / ‖lag column k‖ is the R diagonal granger_test's unit-column design has for this block.
    deficient = (np.abs(np.diagonal(r, axis1=1, axis2=2)) <= _RANK_TOL * norms).any(axis=1)
    resid = y - np.einsum("nrk,nk->nr", q, np.einsum("nrk,nr->nk", q, y))
    rss_r = np.einsum("nr,nr->n", resid, resid)
    # Column a·n + i is Q_i[:, a].  C order also at lag 1, where reshape gives a transposed view BLAS runs slowly.
    q_all = np.ascontiguousarray(q.transpose(1, 2, 0).reshape(rows, p * n))
    targets = np.concatenate([q.transpose(0, 2, 1), resid[:, None, :]], axis=1)  # rows of [Q_j, r_j]ᵀ
    f_crit = _f_crit(alpha, p, dof_u)
    edges: list[CausalEdge] = []
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        # [Q_j, r_j]ᵀQ_all: one fixed-shape product per target, so _CHUNK changes no result.
        mb = (targets[start:stop] @ q_all).reshape(stop - start, p + 1, p, n).transpose(1, 2, 0, 3)
        # Entry-major (a, c, j, i): m[a, c] = Q_i[:, a]·Q_j[:, c] and b[a] = Q_i[:, a]·r_j.
        m, b = mb[:p].transpose(1, 0, 2, 3), mb[p]
        s = _schur(m)
        # λ_min(S) >= 1 - ‖M‖_F² = 1 - (p - tr S): only pairs failing that, self pairs among them, need eigenvalues.
        fallback = p - np.trace(s) >= 1.0 - _PIVOT_BAND**2
        fallback[fallback] = np.linalg.eigvalsh(np.moveaxis(s[:, :, fallback], -1, 0))[:, 0] <= _PIVOT_BAND**2
        fallback |= np.logical_or.outer(deficient[start:stop], deficient)
        s[:, :, fallback] = np.eye(p)[:, :, None]
        gain = _cholesky_gain(s, b)
        rss_u = rss_r[start:stop, None] - gain
        fallback |= rss_u <= _FIT_BAND * rss_r[start:stop, None]
        f_stat, p_value, is_edge = _f_test(np.where(fallback, 0.0, gain), rss_u, p, dof_u, alpha, f_crit)
        fallback[np.arange(stop - start), np.arange(start, stop)] = False  # a self pair is no test
        for j, i in zip(*np.nonzero(fallback)):
            dec = granger_test(series[ids[i]], series[ids[start + j]], cfg, n_tests=n_tests)
            f_stat[j, i], p_value[j, i], is_edge[j, i] = dec.f_statistic, dec.p_value, dec.is_edge
        edges += [CausalEdge(ids[i], ids[start + j], float(f_stat[j, i]), float(p_value[j, i]))
                  for j, i in zip(*np.nonzero(is_edge))]

    return CausalGraph(alpha=cfg.alpha, lag=cfg.lag, edges=edges)
