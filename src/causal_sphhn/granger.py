"""Temporal causal structure inference via pairwise Granger tests.

For each ordered node pair (i, j) a restricted autoregression of j's series
on its own lags is compared against an unrestricted one that adds i's lags;
the variance reduction is scored by an F statistic whose p-value comes from
the regularized incomplete beta function.  Significant pairs form a directed
causal graph over the node series that ``reduce_features`` derives.

``granger_test`` fits one pair by Householder QR of a design whose columns
are scaled to unit norm, and is the reference.  ``infer_causal_graph`` tests
all pairs with one blocked Frisch–Waugh–Lovell kernel: centring and a QR basis
per node, done over blocks of nodes into one lag-major basis matrix; then, one
group of targets at a time, a product of the group's bases and residuals with
that matrix and a p x p Schur step done elementwise.  The kernel holds the
bases, the residuals and the reduced series once, plus one group's arrays.
For every group of targets the step factors S = I - MMᵀ = LLᵀ and solves
with L in O(p³) whole-array passes over the group's pairs, one per matrix
entry and product term, instead of a LAPACK call per pair.  A pair whose
det S (a lower bound on λ_min(S)) or rss_u / rss_r falls in its band goes to
``granger_test``.  P-values are computed in one call after the pair loop, and
only for F at or above the critical value, which a 32-part grid search finds once.

From the kernel to ``compile_structure`` a graph's edges are one ``EDGE_DTYPE``
record array, (src, dst, F, p), sorted by (src, dst) once, in ``CausalGraph``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import check_fields, read_json, write_json
from .errors import ContractViolation, NumericalError, RankDeficient, SeriesTooShort, naming
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

# Nodes per block of the kernel's set-up: their lag windows, QR and residuals.  A stacked QR
# factors each node on its own, so this size changes no bit of any result.
_CHUNK = 16
# Targets per block of the kernel's pair loop, multiplied in one gemm whose shape is fixed, the
# last group zero-padded, so every target's rows come from a product of one shape.
_GROUP = 16
# Fit nodes per block of ``reduce_features``' second-moment sum: the pooled rows are never held.
_PCA_BLOCK = 32
# Pairs the kernel hands to ``granger_test``: √det S, a lower bound on the sine of the
# smallest principal angle between the two lag spaces, or rss_u / rss_r, at most its band.
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


EDGE_DTYPE = np.dtype([("src", object), ("dst", object), ("f_statistic", np.float64), ("p_value", np.float64)])
# The schema of a graph document, ``causal.json`` and a checkpoint's ``causal_graph``.
_DOCUMENT = {"alpha": float, "lag": int, "edges": list[{"src": str, "dst": str, "f": float, "p": float}]}


@dataclass
class CausalGraph:
    """Directed graph of significant Granger edges: ``edges`` takes (src, dst, F, p) tuples or an
    ``EDGE_DTYPE`` array and holds one record array sorted by (src, dst), whose ``edges.src`` is a column."""

    alpha: float
    lag: int
    edges: np.recarray

    def __post_init__(self):
        GrangerConfig(lag=self.lag, alpha=self.alpha)  # checks their ranges
        edges = np.array(self.edges, dtype=EDGE_DTYPE).view(np.recarray)
        self.edges = edges = edges[np.lexsort((edges.dst, edges.src))]
        src, dst, f_stat, p_value = edges.src, edges.dst, edges.f_statistic, edges.p_value
        # Each check marks the edges that fail it; the last two are written so that NaN fails them.
        checks = (
            (src == dst, "self loop {e.src}->{e.dst}"),
            (np.append(False, (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])), "duplicate edge {e.src}->{e.dst}"),
            (~((0.0 <= p_value) & (p_value <= self.alpha)),
             "stored edge {e.src}->{e.dst} has p {e.p_value}, not in [0, alpha]"),
            (~((0.0 <= f_stat) & (f_stat < np.inf)),
             "stored edge {e.src}->{e.dst} has F {e.f_statistic}, not finite and >= 0"),
        )
        for bad, message in checks:
            if bad.any():
                raise ContractViolation(message.format(e=edges[np.argmax(bad)]))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lag": self.lag,
            "edges": [{"src": s, "dst": d, "f": f, "p": p} for s, d, f, p in self.edges.tolist()],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CausalGraph":
        doc = check_fields(_DOCUMENT, doc)
        edges = [(e["src"], e["dst"], e["f"], e["p"]) for e in doc["edges"]]
        return cls(alpha=doc["alpha"], lag=doc["lag"], edges=edges)

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
    f_stat = _f_stat(gain @ gain, rss_u, cfg.lag, dof_u)
    p_value = f_survival(f_stat, cfg.lag, dof_u)
    return GrangerDecision(float(f_stat), float(p_value), bool(p_value <= alpha))


def _f_stat(gain, rss_u, lag: int, dof_u: int) -> np.ndarray:
    """F of the nested-model test, elementwise, from the RSS gain rss_r - rss_u."""
    return np.asarray((np.maximum(gain, 0.0) / lag) / np.maximum(rss_u / dof_u, 1e-300))


def _scored(f_stat: np.ndarray, f_crit: float) -> np.ndarray:
    """Where F >= f_crit·(1 - 1e-6), a rounding margin: every F whose p-value can be at most alpha."""
    return f_stat >= f_crit * (1.0 - 1e-6)


def _f_crit(alpha: float, lag: int, dof_u: int) -> float:
    """The largest F, to 1e-9 relative, whose p-value exceeds alpha: a doubling bracket
    p(lo) > alpha >= p(hi), then 32 parts per round, each round one ``f_survival`` call."""
    lo, hi = 0.0, 1.0
    while f_survival(hi, lag, dof_u) > alpha:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        grid = np.linspace(lo, hi, 33)
        above = np.append(f_survival(grid[1:-1], lag, dof_u) > alpha, False)  # p(hi) <= alpha
        k = 1 + int(np.argmin(above))
        lo, hi = float(grid[k - 1]), float(grid[k])
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
    (timestep, node) rows of the fit subset, all nodes if ``fit_ids`` is None
    and an error if empty; "mean" averages feature dimensions.  The principal
    direction's sign is fixed so its largest component is positive.  The pool
    is never formed: its centre comes from per-node column sums, and its
    centred second moment is summed over blocks of ``_PCA_BLOCK`` fit nodes
    (the two-pass scheme of Chan, Golub & LeVeque, Am. Stat. 37:242, 1983),
    so the fit holds one block at a time.
    """
    if mode not in REDUCTIONS:
        raise ContractViolation(f"unknown reduction {mode!r}")
    if mode == "mean":
        return {n.node_id: n.features.mean(axis=1) for n in nodes}
    fit = set(fit_ids) if fit_ids is not None else {n.node_id for n in nodes}
    blocks = [n.features for n in nodes if n.node_id in fit]
    if not blocks:
        raise ContractViolation("no node of the fit subset is in the dataset")
    center = sum(f.sum(axis=0) for f in blocks) / sum(f.shape[0] for f in blocks)
    cov = np.zeros((center.size, center.size))
    for lo in range(0, len(blocks), _PCA_BLOCK):
        blk = np.concatenate(blocks[lo : lo + _PCA_BLOCK], axis=0)
        blk -= center
        cov += blk.T @ blk
    _, vecs = np.linalg.eigh(cov)
    w = vecs[:, -1]
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return {n.node_id: (n.features - center) @ w for n in nodes}


def _gain(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bᵀS⁻¹b, det S) for S = I - MMᵀ, entry-major M (p, p, ...) and b (p, ...).

    An unpivoted Cholesky factorisation S = LLᵀ, forming each S_ik where it is
    read, and forward substitution: bᵀS⁻¹b = ‖L⁻¹b‖² and det S = ∏ L_kk², each
    entry one whole-array expression (Golub & Van Loan, Matrix Computations,
    §4.2).  A pivot L_kk² is floored at ``_PIVOT_BAND``², so a singular S gives a
    finite gain and, as no pivot exceeds S_kk <= 1, det S <= ``_PIVOT_BAND``².
    """
    p = m.shape[0]
    low = [[None] * p for _ in range(p)]
    z, gain, det = [], 0.0, 1.0
    for i in range(p):
        for k in range(i + 1):
            acc = m[i, 0] * m[k, 0]
            for a in range(1, p):
                acc += m[i, a] * m[k, a]
            acc = float(i == k) - acc
            for a in range(k):
                acc = acc - low[i][a] * low[k][a]
            if k == i:
                acc = np.maximum(acc, _PIVOT_BAND**2)
                det = det * acc
            low[i][k] = np.sqrt(acc) if k == i else acc / low[k][k]
        acc = b[i]
        for a in range(i):
            acc = acc - low[i][a] * z[a]
        z.append(acc / low[i][i])
        gain = gain + z[i] * z[i]
    return gain, det


def infer_causal_graph(
    nodes: list[NodeFeatureSeries],
    cfg: GrangerConfig,
    fit_ids: list[str] | None = None,
) -> CausalGraph:
    """Run the pairwise test over all ordered pairs; keep significant edges.

    Columns are centred (FWL on the intercept); one QR of each node's lag
    block gives its basis Q_i and, as a target, its residual r_j.  The set-up
    builds, centres and factors the lag windows of ``_CHUNK`` nodes at a time
    and writes their bases into ``q_all``.  Source i, target j: M = Q_iᵀQ_j,
    b = Q_iᵀr_j, S = I - M Mᵀ, rss_u = rss_r - bᵀS⁻¹b.  [Q_j, r_j]ᵀQ_all lays
    M and b out entry-major, each entry a (targets, n) array.  The pair loop
    takes ``_GROUP`` consecutive targets at a time and makes that one gemm,
    its operand copied out of ``q_all`` and the residuals just before it and
    the last group zero-padded, so every product has one shape.  Per group,
    ``_gain`` then takes bᵀS⁻¹b = ‖L⁻¹b‖² and det S in O(p³) whole-array
    passes.  A pair goes to ``granger_test`` (module global,
    ``reduce_features``'s arrays) if either node's R diagonal is at most
    ``_RANK_TOL`` times its uncentred lag column norms (the rank rule of
    ``granger_test``'s unit-column design), if det S <= ``_PIVOT_BAND``² or
    if rss_u <= ``_FIT_BAND``·rss_r.  S's eigenvalues lie in [0, 1], so a
    pair the kernel keeps has λ_min(S) >= det S > ``_PIVOT_BAND``².  Each
    group keeps the pairs whose F, the kernel's or ``granger_test``'s,
    ``_scored`` admits, and one ``f_survival`` call after the loop gives
    their p-values, as ``granger_test`` does from its F.

    Memory is the pair kernel's working set: the reduction holds one block of
    fit rows; then ``q_all`` (rows x p·n), the (n, rows) residuals and the
    reduced series are held once, beside one set-up block's lag windows and
    QR or one group's product and factor entries, and each group keeps only
    the index and F arrays of the pairs it scored.  All of it is freed
    before the graph's record array is built.  On ``medium`` (1,000 nodes,
    lag 2) the traced peak is 8.2 MB, 3.3 times the 2.5 MB of ``q_all``.
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
    # Column a·n + i is Q_i[:, a]: lag-major and C order, also at lag 1, where a transposed view runs slowly in BLAS.
    q_all = np.empty((rows, p * n))
    by_lag = q_all.reshape(rows, p, n)  # a view: by_lag[:, a, i] = Q_i[:, a]
    resid, deficient = np.empty((n, rows)), np.empty(n, dtype=bool)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        # cols[i, t] = (x_{t+p}, x_{t+p-1}, ..., x_t): node i's target and its p lags, as _lagged gives them.
        cols = sliding_window_view(np.stack([series[nid] for nid in ids[lo:hi]]), p + 1, axis=1)[:, :, ::-1].copy()
        norms = np.linalg.norm(cols[:, :, 1:], axis=1)  # granger_test's lag columns, before centring
        cols -= cols.mean(axis=1, keepdims=True)
        # np.linalg.qr factors each matrix of the stack on its own, so the block size changes no bit.
        y, (q, r) = cols[:, :, 0], np.linalg.qr(cols[:, :, 1:])
        # |R_kk| / ‖lag column k‖ is the R diagonal granger_test's unit-column design has for this block.
        deficient[lo:hi] = (np.abs(np.diagonal(r, axis1=1, axis2=2)) <= _RANK_TOL * norms).any(axis=1)
        resid[lo:hi] = y - np.einsum("nrk,nk->nr", q, np.einsum("nrk,nr->nk", q, y))
        by_lag[:, :, lo:hi] = q.transpose(1, 2, 0)
    del cols, y, q, r
    rss_r = np.einsum("nr,nr->n", resid, resid)
    f_crit = _f_crit(alpha, p, dof_u)

    operand = np.empty((_GROUP, p + 1, rows))  # one group's rows of [Q_j, r_j]ᵀ, refilled per group
    found: list[tuple[np.ndarray, ...]] = []  # per group: (src, dst, F) of the pairs _scored keeps
    for start in range(0, n, _GROUP):
        stop = min(start + _GROUP, n)
        # [Q_j, r_j]ᵀQ_all for the group's targets, copied in just before the gemm; the last group is zero-padded.
        operand[stop - start :] = 0.0
        operand[: stop - start, :p] = by_lag[:, :, start:stop].transpose(2, 1, 0)
        operand[: stop - start, p] = resid[start:stop]
        mb = (operand.reshape(_GROUP * (p + 1), rows) @ q_all).reshape(_GROUP, p + 1, p, n)
        mb = mb[: stop - start].transpose(1, 2, 0, 3)
        # Entry-major (a, c, j, i): m[a, c] = Q_i[:, a]·Q_j[:, c] and b[a] = Q_i[:, a]·r_j.
        m, b = mb[:p].transpose(1, 0, 2, 3), mb[p]
        gain, det = _gain(m, b)
        # λ_min(S) >= det S, as S's eigenvalues lie in [0, 1]; self pairs have S ≈ 0.
        fallback = (det <= _PIVOT_BAND**2) | np.logical_or.outer(deficient[start:stop], deficient)
        rss_u = rss_r[start:stop, None] - gain
        fallback |= rss_u <= _FIT_BAND * rss_r[start:stop, None]
        f_stat = _f_stat(np.where(fallback, 0.0, gain), rss_u, p, dof_u)
        fallback[np.arange(stop - start), np.arange(start, stop)] = False  # a self pair is no test
        for j, i in zip(*np.nonzero(fallback)):
            f_stat[j, i] = granger_test(series[ids[i]], series[ids[start + j]], cfg, n_tests=n_tests).f_statistic
        j, i = np.nonzero(_scored(f_stat, f_crit))
        found.append((i, start + j, f_stat[j, i]))
    del q_all, by_lag, resid, series, operand, mb, m, b, gain, det, fallback, rss_u, f_stat  # the edges need only found

    # One p-value call for every F that can pass; granger_test's p is f_survival of its F too.
    src, dst, f_stat = (np.concatenate(col) for col in zip(*found))
    p_value = f_survival(f_stat, p, dof_u)
    keep = p_value <= alpha
    names = np.array(ids, dtype=object)
    columns = (names[src[keep]], names[dst[keep]], f_stat[keep], p_value[keep])
    return CausalGraph(alpha=cfg.alpha, lag=cfg.lag, edges=np.rec.fromarrays(columns, dtype=EDGE_DTYPE))
