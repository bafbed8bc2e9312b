"""Temporal causal structure inference via pairwise Granger tests.

For each ordered node pair (i, j) a restricted autoregression of j's series
on its own lags is compared against an unrestricted one that adds i's lags;
the variance reduction is scored by an F statistic whose p-value comes from
the regularized incomplete beta function.  Significant pairs form a
directed causal graph.

Per-node feature matrices are reduced to scalar series first, either by the
first principal component fitted on the training split ("pca1") or by the
feature mean ("mean").

All pair tests are independent and side-effect free.  ``infer_causal_graph``
fits all sources of a target with a shared-QR kernel, hands rank-deficient
pairs to ``granger_test``, and scores the rest with the same elementwise
F-test (one p-value array call per target); edges are kept in (source,
target) lexicographic order, so the output is deterministic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, NumericalError, ParseError, RankDeficient, SeriesTooShort
from .hypergraph import NodeFeatureSeries

REDUCTIONS = ("pca1", "mean")

# Relative threshold on |R_ii| below which a QR factor is treated as rank
# deficient.  Conservative for the series lengths (T ~ 500) used upstream.
_RANK_TOL = 1e-10

# Residual sum of squares at or below this (relative to the target's scale)
# counts as an exact fit, which rescues rank-deficient designs that still
# determine the residual uniquely (e.g. a constant series, or a target that
# is a deterministic lagged copy of the source).
_EXACT_RSS_TOL = 1e-18


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

    def parents_of(self, node: str) -> list[CausalEdge]:
        return [e for e in self.edges if e.dst == node]

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
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CausalGraph":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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


def _rank_deficient(rdiag: np.ndarray) -> np.ndarray:
    """Whether the QR diagonals |R_ii| along the last axis signal rank deficiency."""
    return rdiag.min(axis=-1) <= _RANK_TOL * rdiag.max(axis=-1)


def _solve_ols(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares by Householder QR, with an exact-fit rescue for rank-deficient designs."""
    q, r = np.linalg.qr(a)
    rdiag = np.abs(np.diag(r))
    deficient = _rank_deficient(rdiag)
    coef = np.linalg.lstsq(a, b, rcond=None)[0] if deficient else np.linalg.solve(r, q.T @ b)
    resid = b - a @ coef
    rss = float(resid @ resid)
    if deficient and rss > _EXACT_RSS_TOL * max(1.0, float(b @ b)):
        raise RankDeficient(f"R diagonal {rdiag.min():.3e} below {_RANK_TOL:g} * {rdiag.max():.3e}")
    return coef, rss


def fit_var_restricted(y, lag: int, min_length: int | None = None):
    """OLS of y_t on (1, y_{t-1}, ..., y_{t-lag}); returns (coef, rss, dof)."""
    min_length = 4 * lag + 4 if min_length is None else min_length
    y = _check_series(y, lag, min_length)
    target, lags = _lagged(y, lag)
    design = np.column_stack([np.ones(target.shape[0]), lags])
    coef, rss = _solve_ols(design, target)
    dof = y.shape[0] - lag - (lag + 1)
    return coef, rss, dof


def fit_var_unrestricted(y, x, lag: int, min_length: int | None = None):
    """OLS of y_t on (1, y lags, x lags); returns (coef, rss, dof)."""
    min_length = 4 * lag + 4 if min_length is None else min_length
    y = _check_series(y, lag, min_length)
    x = _check_series(x, lag, min_length)
    if y.shape[0] != x.shape[0]:
        raise ContractViolation("series must be aligned and equal length")
    target, ylags = _lagged(y, lag)
    _, xlags = _lagged(x, lag)
    design = np.column_stack([np.ones(target.shape[0]), ylags, xlags])
    coef, rss = _solve_ols(design, target)
    dof = y.shape[0] - lag - (2 * lag + 1)
    return coef, rss, dof


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
        _, rss_r, _ = fit_var_restricted(target, cfg.lag, cfg.min_length)
        _, rss_u, dof_u = fit_var_unrestricted(target, source, cfg.lag, cfg.min_length)
    except (RankDeficient, SeriesTooShort) as exc:
        return GrangerDecision(0.0, 1.0, False, f"{type(exc).__name__}: {exc}")
    f_stat, p_value, is_edge = _f_test(rss_r, rss_u, cfg.lag, dof_u, alpha)
    return GrangerDecision(float(f_stat), float(p_value), bool(is_edge))


def _f_test(rss_r, rss_u, lag: int, dof_u: int, alpha: float):
    """F statistic, p-value and edge decision of the nested-model test, elementwise.

    Returns (F, p, is_edge).  A pair whose unrestricted fit does not lower
    the RSS gets F = 0 and p = 1.
    """
    gain = rss_u < rss_r
    f_stat = np.where(gain, ((rss_r - rss_u) / lag) / np.maximum(rss_u / dof_u, 1e-300), 0.0)
    p_value = f_survival(f_stat, lag, dof_u)
    return f_stat, p_value, gain & (p_value <= alpha)


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


def infer_causal_graph(
    nodes: list[NodeFeatureSeries],
    cfg: GrangerConfig,
    fit_ids: list[str] | None = None,
) -> CausalGraph:
    """Run the pairwise test over all ordered pairs; keep significant edges.

    The shared restricted fit per target is factored once (Householder QR)
    and each source's lag block is orthogonalized against it, which is
    algebraically the block form of the full QR solve.  Pairs whose
    combined R diagonal signals rank deficiency fall back to the reference
    single-pair path so corner cases match ``granger_test`` exactly; the
    other sources of a target are scored by one array call of the F-test.
    """
    if len(nodes) < 2:
        raise ContractViolation("need at least 2 nodes")
    series = reduce_features(nodes, cfg.reduction, fit_ids)
    ids = sorted(series)
    n = len(ids)
    n_tests = n * (n - 1)
    alpha = cfg.alpha / n_tests if cfg.bonferroni else cfg.alpha
    t_len = series[ids[0]].shape[0]
    for nid in ids:
        if series[nid].shape[0] != t_len:
            raise ContractViolation("all series must have equal length")
    if t_len < cfg.min_length:
        raise SeriesTooShort(
            f"series length {t_len} < minimum {cfg.min_length} for lag {cfg.lag}"
        )

    p = cfg.lag
    rows = t_len - p
    dof_u = t_len - p - (2 * p + 1)
    targets = np.stack([series[nid][p:] for nid in ids])
    lag_mats = np.stack([_lagged(series[nid], p)[1] for nid in ids])

    edges: list[CausalEdge] = []
    for j, dst in enumerate(ids):
        design_r = np.column_stack([np.ones(rows), lag_mats[j]])
        q_r, r_r = np.linalg.qr(design_r, mode="reduced")
        rdiag_r = np.abs(np.diag(r_r))
        resid = targets[j] - q_r @ (q_r.T @ targets[j])
        rss_r = float(resid @ resid)

        # Orthogonalize every source's lag block against the restricted
        # design in one batch, then Gram-Schmidt the p remaining columns.
        blocks = lag_mats - np.einsum("rk,knp->rnp", q_r, np.tensordot(q_r, lag_mats, axes=([0], [1])), optimize=True).transpose(1, 0, 2)
        qs = np.empty((n, rows, p))
        rdiag_b = np.empty((n, p))
        proj_sq = np.zeros(n)
        for k in range(p):
            v = blocks[:, :, k].copy()
            for m in range(k):
                v -= np.einsum("nr,nr->n", qs[:, :, m], v)[:, None] * qs[:, :, m]
            norm = np.sqrt(np.einsum("nr,nr->n", v, v))
            rdiag_b[:, k] = norm
            safe = np.where(norm > 0.0, norm, 1.0)
            qs[:, :, k] = v / safe[:, None]
            proj_sq += (qs[:, :, k] @ resid) ** 2

        # Rank-deficient pairs go to granger_test and the self pair is no
        # test; rss_u = rss_r makes the array F-test reject both.
        own = np.arange(n) == j
        fallback = _rank_deficient(np.hstack([np.broadcast_to(rdiag_r, (n, p + 1)), rdiag_b])) & ~own
        rss_u = np.where(fallback | own, rss_r, np.clip(rss_r - proj_sq, 0.0, None))
        f_stat, p_value, is_edge = _f_test(rss_r, rss_u, p, dof_u, alpha)
        edges += [CausalEdge(ids[i], dst, float(f_stat[i]), float(p_value[i])) for i in np.flatnonzero(is_edge)]
        for i in np.flatnonzero(fallback):
            dec = granger_test(series[ids[i]], series[dst], cfg, n_tests=n_tests)
            if dec.is_edge:
                edges.append(CausalEdge(ids[i], dst, dec.f_statistic, dec.p_value))

    return CausalGraph(alpha=cfg.alpha, lag=cfg.lag, edges=edges)
