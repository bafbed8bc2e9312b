"""Seeded synthetic social-dynamics generator with known causal ground truth.

Nodes belong to latent communities.  Each community carries an anchor
direction near one of C class anchors; "leader" nodes revert to the anchor
under a stable VAR(1), "follower" nodes carry no anchor of their own and
contribute only noise.  Planted causal edges couple a source node's
fluctuations into a target node's series; targets of planted edges have no
anchor and (by default) sit in no hyperedge, so the causal pathway is the
only relational signal that identifies them.  Hyperedges sample members
within communities, labels come from each community's mean final-step
direction (argmax cosine against the class anchors) plus label noise.

Everything is a pure function of the config, whose seed drives a single
generator; independent datasets may be generated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import check_fields, read_json, write_json
from .errors import ContractViolation, naming
from .hypergraph import Dataset, Hyperedge

EDGE_TYPES = ("class", "activity")

LABEL_RULES = ("nearest-anchor",)


@dataclass(frozen=True)
class PlantedEdge:
    src: str
    dst: str
    coefficient: float


@dataclass(frozen=True)
class SynthConfig:
    n_nodes: int
    n_hyperedges: int
    mean_edge_size: float
    feature_dim: int
    timesteps: int
    n_classes: int
    planted_edges: tuple[tuple[int, int, float], ...]
    noise_sigma: float = 1.0
    noise_spread: float = 0.5
    activity_spread: float = 0.8
    edge_contamination: float = 0.3
    label_rule: str = "nearest-anchor"
    seed: int = 0
    n_communities: int = 12
    leader_autocorr: float = 0.15
    anchor_scale: float = 6.0
    anchor_jitter: float = 0.35
    follower_frac: float = 0.3
    label_noise: float = 0.05
    burn_in: int = 50
    isolate_caused: bool = True
    split_fracs: tuple[float, float, float] = (0.5, 0.25, 0.25)
    horizon: int = 1

    def __post_init__(self):
        # Each float check is written so that NaN fails it.
        if self.n_nodes < 2 or self.n_classes < 2:
            raise ContractViolation("need >= 2 nodes and >= 2 classes")
        if self.timesteps < 12:
            raise ContractViolation("timesteps must cover at least 4 lags + intercept")
        if self.n_communities < self.n_classes:
            raise ContractViolation("need at least one community per class")
        if self.feature_dim < max(2, self.n_classes):
            raise ContractViolation("feature_dim too small for distinct class anchors")
        if self.label_rule not in LABEL_RULES:
            raise ContractViolation(f"unknown label rule {self.label_rule!r}")
        if not (0.0 <= self.noise_spread < 1.0):
            raise ContractViolation("noise_spread must be in [0, 1)")
        if not (self.mean_edge_size >= 2.0):
            raise ContractViolation("mean_edge_size must be >= 2")
        if not (self.noise_sigma >= 0.0 and self.activity_spread >= 0.0):
            raise ContractViolation("noise_sigma and activity_spread must be >= 0")
        if not (self.anchor_scale >= 0.0 and self.anchor_jitter >= 0.0):
            raise ContractViolation("anchor_scale and anchor_jitter must be >= 0")
        if not (0.0 <= self.follower_frac <= 1.0 and 0.0 <= self.label_noise <= 1.0):
            raise ContractViolation("follower_frac and label_noise must be in [0, 1]")
        if not (abs(self.leader_autocorr) < 1.0):
            raise ContractViolation("leader_autocorr must be in (-1, 1)")
        if not (0.0 <= self.edge_contamination < 1.0):
            raise ContractViolation("edge_contamination must be in [0, 1)")
        if self.n_hyperedges < 0 or self.burn_in < 0:
            raise ContractViolation("n_hyperedges and burn_in must be >= 0")
        if not all(f >= 0.0 for f in self.split_fracs):
            raise ContractViolation(f"split fractions must be >= 0, got {self.split_fracs}")
        if not math.isclose(sum(self.split_fracs), 1.0, abs_tol=1e-9):
            raise ContractViolation("split fractions must sum to 1")
        if self.horizon < 1:
            raise ContractViolation(f"horizon must be >= 1, got {self.horizon}")
        incoming: dict[int, float] = {}
        for src, dst, coef in self.planted_edges:
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise ContractViolation(f"planted edge ({src},{dst}) out of range")
            if src == dst:
                raise ContractViolation("planted self loop")
            if not (-1.0 < coef < 1.0) or coef == 0.0:
                raise ContractViolation(f"coefficient {coef} outside (-1, 1) or zero")
            incoming[dst] = incoming.get(dst, 0.0) + abs(coef)
        for dst, total in incoming.items():
            if abs(self.leader_autocorr) + total >= 1.0:
                raise ContractViolation(
                    f"node {dst}: |a| + sum|c| = {abs(self.leader_autocorr) + total} >= 1"
                )


def node_id(i: int) -> str:
    return f"n{i:04d}"


def _layout(cfg: SynthConfig, rng: np.random.Generator):
    """Community assignment, per-community classes, and follower flags."""
    comm_of = rng.permutation(np.arange(cfg.n_nodes) % cfg.n_communities)
    comm_class = np.arange(cfg.n_communities) % cfg.n_classes
    follower = np.zeros(cfg.n_nodes, dtype=bool)
    for g in range(cfg.n_communities):
        members = np.flatnonzero(comm_of == g)
        k = int(round(cfg.follower_frac * members.size))
        if k:
            follower[rng.choice(members, size=k, replace=False)] = True
    return comm_of, comm_class, follower


def _anchors(cfg: SynthConfig, rng: np.random.Generator):
    gauss = rng.standard_normal((cfg.feature_dim, cfg.n_classes))
    q, r = np.linalg.qr(gauss)
    class_anchors = (q * np.sign(np.diag(r))).T
    comm_anchors = np.empty((cfg.n_communities, cfg.feature_dim))
    for g in range(cfg.n_communities):
        base = class_anchors[g % cfg.n_classes]
        vec = base + cfg.anchor_jitter * rng.standard_normal(cfg.feature_dim)
        comm_anchors[g] = vec / np.linalg.norm(vec)
    return class_anchors, comm_anchors


def generate(cfg: SynthConfig) -> tuple[Dataset, list[PlantedEdge]]:
    """Build a dataset plus its planted causal edge list (the ground truth)."""
    rng = np.random.default_rng(cfg.seed)
    n, d, t_len = cfg.n_nodes, cfg.feature_dim, cfg.timesteps
    names = [node_id(i) for i in range(n)]

    comm_of, comm_class, follower = _layout(cfg, rng)
    class_anchors, comm_anchors = _anchors(cfg, rng)

    # The planted edges as columns in their given order.
    planted = np.array(cfg.planted_edges, dtype=np.float64).reshape(-1, 3)
    src, dst = planted[:, :2].T.astype(np.int64)
    anchored = ~follower
    anchored[dst] = False

    mu = np.zeros((n, d))
    mu[anchored] = cfg.anchor_scale * comm_anchors[comm_of[anchored]]

    a = cfg.leader_autocorr
    sigma = cfg.noise_sigma * (
        1.0 + cfg.noise_spread * rng.uniform(-1.0, 1.0, size=n)
    ).reshape(n, 1)
    # Planted-edge endpoints keep the base noise level so the coupling has a
    # uniform signal-to-noise ratio regardless of the spread draw.
    sigma[src] = sigma[dst] = cfg.noise_sigma
    x = mu + sigma * rng.standard_normal((n, d))
    history = np.empty((n, t_len, d))  # the dataset's (N, T, d) feature block
    total = cfg.burn_in + t_len
    for step in range(total):
        nxt = mu + a * (x - mu) + sigma * rng.standard_normal((n, d))
        # np.add.at adds each target's parents in planted-edge order, one row at a time.
        np.add.at(nxt, dst, planted[:, 2:] * (x[src] - mu[src]))
        x = nxt
        if step >= cfg.burn_in:
            history[:, step - cfg.burn_in] = x

    # Observed features carry a per-node activity level: a lognormal scale
    # that is pure nuisance for the prediction task (direction is what
    # matters) and leaves pairwise Granger decisions invariant.
    activity = np.exp(cfg.activity_spread * rng.standard_normal(n))
    history *= activity.reshape(n, 1, 1)

    # Hyperedges: per community, chunk passes cover the eligible pool, then
    # random within-community subsets fill the remaining budget.
    isolated = np.isin(np.arange(n), dst) & cfg.isolate_caused
    eligible = [np.flatnonzero((comm_of == g) & ~isolated) for g in range(cfg.n_communities)]
    edges: list[Hyperedge] = []
    order = [g for g in range(cfg.n_communities) if eligible[g].size >= 2]
    if not order:
        raise ContractViolation("no community has two hyperedge-eligible members")
    cursor = 0
    coverage: list[tuple[int, np.ndarray]] = []
    for g in order:
        pool = rng.permutation(eligible[g])
        size = max(2, int(round(cfg.mean_edge_size)))
        for start in range(0, pool.size, size):
            chunk = pool[start : start + size]
            if chunk.size < 2:
                chunk = pool[-2:]
            coverage.append((g, np.sort(chunk)))
    for g, members in coverage[: cfg.n_hyperedges]:
        edges.append(_edge(len(edges), members, names, rng))
    # Filler edges are mostly within-community but carry cross-community
    # contaminants: shared contexts include outsiders.
    all_eligible = np.concatenate([pool for pool in eligible if pool.size])
    max_size = max(2, int(round(2 * cfg.mean_edge_size - 2)))
    while len(edges) < cfg.n_hyperedges:
        g = order[cursor % len(order)]
        cursor += 1
        pool = eligible[g]
        size = 2 + rng.poisson(max(cfg.mean_edge_size - 2.0, 0.0))
        size = int(min(pool.size, max_size, max(2, size)))
        members = rng.choice(pool, size=size, replace=False)
        if cfg.edge_contamination > 0.0 and size >= 3:
            swap = rng.random(size) < cfg.edge_contamination
            for pos in np.flatnonzero(swap):
                repl = int(all_eligible[rng.integers(0, all_eligible.size)])
                if repl not in members:
                    members[pos] = repl
        edges.append(_edge(len(edges), np.sort(members), names, rng))

    # Labels from the realized community mean direction at the final step.
    final = history[:, -1]
    comm_label = np.empty(cfg.n_communities, dtype=int)
    for g in range(cfg.n_communities):
        members = np.flatnonzero(comm_of == g)
        mean_dir = final[members].mean(axis=0)
        norm = np.linalg.norm(mean_dir)
        if norm < 1e-12:
            comm_label[g] = comm_class[g]
        else:
            comm_label[g] = int(np.argmax(class_anchors @ (mean_dir / norm)))
    base_labels = comm_label[comm_of]
    flip = rng.random(n) < cfg.label_noise
    offsets = rng.integers(1, cfg.n_classes, size=n)
    noisy = (base_labels + offsets) % cfg.n_classes
    final_labels = np.where(flip, noisy, base_labels)
    labels = dict(zip(names, final_labels.tolist()))

    perm = rng.permutation(n)
    n_train = int(round(cfg.split_fracs[0] * n))
    n_val = int(round(cfg.split_fracs[1] * n))
    splits = {
        "train": sorted(names[i] for i in perm[:n_train]),
        "val": sorted(names[i] for i in perm[n_train : n_train + n_val]),
        "test": sorted(names[i] for i in perm[n_train + n_val :]),
    }

    ds = Dataset(
        node_ids=names,
        features=history,
        classes=cfg.n_classes,
        horizon=cfg.horizon,
        hyperedges=edges,
        labels=labels,
        splits=splits,
    )
    truth = [
        PlantedEdge(names[src], names[dst], float(coef))
        for src, dst, coef in sorted(cfg.planted_edges)
    ]
    return ds, truth


def _edge(idx: int, members: np.ndarray, names: list[str], rng: np.random.Generator) -> Hyperedge:
    kind = EDGE_TYPES[int(rng.integers(0, len(EDGE_TYPES)))]
    return Hyperedge(f"e{idx:04d}", tuple(names[m] for m in members), kind)


def _pick_planted(
    cfg: SynthConfig, count: int, coefficient: float, rng: np.random.Generator
) -> tuple[tuple[int, int, float], ...]:
    """Choose planted (leader -> follower) pairs, cycling over communities.

    Sources are anchored leaders, targets are followers of the same
    community, so every class ends up with causal targets.
    """
    comm_of, _, follower = _layout(cfg, rng)
    picked: list[tuple[int, int, float]] = []
    used: set[int] = set()
    ci = 0
    attempts = 0
    while len(picked) < count:
        attempts += 1
        if attempts > 100 * count + cfg.n_communities:
            raise ContractViolation(
                f"could not place {count} planted edges; communities too small"
            )
        g = ci % cfg.n_communities
        ci += 1
        members = np.flatnonzero(comm_of == g)
        leaders = [int(i) for i in members if not follower[i] and i not in used]
        targets = [int(i) for i in members if follower[i] and i not in used]
        if not targets:
            targets = [int(i) for i in members if i not in used and i not in leaders[:1]]
        if not leaders or not targets:
            continue
        src = leaders[0]
        dst = next(i for i in targets if i != src)
        picked.append((src, dst, coefficient))
        used.update((src, dst))
    return tuple(picked)


# Each preset: its planted-edge count and the SynthConfig fields that shape
# it.  Every planted edge has the same coefficient.
PRESETS = {
    "toy": (6, dict(n_nodes=40, n_hyperedges=120, mean_edge_size=4.0, feature_dim=16,
                    timesteps=100, n_classes=4, n_communities=8)),
    "small": (20, dict(n_nodes=540, n_hyperedges=1120, mean_edge_size=5.0, feature_dim=24,
                       timesteps=200, n_classes=3, n_communities=18)),
    "medium": (40, dict(n_nodes=1000, n_hyperedges=2000, mean_edge_size=5.0, feature_dim=32,
                        timesteps=160, n_classes=4, n_communities=32)),
}
_PLANTED_COEF = 0.8


def preset(name: str, seed: int) -> SynthConfig:
    """The named configuration of ``PRESETS`` at ``seed``."""
    if name not in PRESETS:
        raise ContractViolation(f"unknown preset {name!r}")
    count, shape = PRESETS[name]
    base = SynthConfig(**shape, planted_edges=(), seed=seed)
    rng = np.random.default_rng(base.seed)
    return replace(base, planted_edges=_pick_planted(base, count, _PLANTED_COEF, rng))


def save_truth(truth: list[PlantedEdge], path: str) -> None:
    doc = {
        "true_edges": [
            {"src": e.src, "dst": e.dst, "coef": e.coefficient} for e in truth
        ]
    }
    write_json(path, doc)


def load_truth(path: str) -> list[PlantedEdge]:
    doc = read_json(path)
    with naming(path):
        doc = check_fields({"true_edges": list[{"src": str, "dst": str, "coef": float}]}, doc)
        return [PlantedEdge(e["src"], e["dst"], e["coef"]) for e in doc["true_edges"]]
