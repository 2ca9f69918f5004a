"""Classical reference solvers for size-constrained minimum cuts.

exhaustive_best enumerates every size-c subset and is the ground truth for
small instances. sa_solve is the simulated-annealing baseline used to
normalize cut sizes; its move set swaps one selected node with one
unselected node, so every visited state satisfies the budget exactly and
no penalty term ever enters the oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import WeightedGraph, cut_size, graph_hash

__all__ = [
    "SaConfig",
    "OracleResult",
    "exhaustive_best",
    "sa_solve",
    "normalized_cut",
    "baseline_cut",
]

EXHAUSTIVE_MAX_NODES = 22
_CHUNK = 100_000


@dataclass(frozen=True)
class SaConfig:
    initial_temp: float | None = None  # None -> max edge weight * n
    cooling: float = 0.995
    steps: int = 20_000  # per restart
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.cooling < 1.0):
            raise ValueError("cooling factor must be in (0, 1)")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class OracleResult:
    z: np.ndarray
    cut: float
    optimal: bool  # True only for exhaustive enumeration


def _check_c(n: int, c: int) -> None:
    if not (1 <= c <= n // 2):
        raise ValueError(f"c must be in [1, n/2] = [1, {n // 2}], got {c}")


def _subset_to_z(n: int, minus_nodes) -> np.ndarray:
    z = np.ones(n, dtype=int)
    z[list(minus_nodes)] = -1
    return z


def exhaustive_best(g: WeightedGraph, c: int) -> OracleResult:
    """Exact minimum over all c : n-c splits; ties keep the lexicographically
    smallest set of selected nodes."""
    n = g.n
    _check_c(n, c)
    if n > EXHAUSTIVE_MAX_NODES:
        raise ValueError(
            f"exhaustive enumeration supports n <= {EXHAUSTIVE_MAX_NODES}, got {n}"
        )
    w = g.weights
    wsum = w.sum()
    best_cut = math.inf
    best_subset: tuple[int, ...] | None = None
    combos = itertools.combinations(range(n), c)
    while True:
        chunk = list(itertools.islice(combos, _CHUNK))
        if not chunk:
            break
        zmat = np.ones((len(chunk), n))
        rows = np.repeat(np.arange(len(chunk)), c)
        zmat[rows, np.array(chunk).ravel()] = -1.0
        cuts = 0.25 * (wsum - np.einsum("ai,ij,aj->a", zmat, w, zmat))
        i = int(np.argmin(cuts))
        if cuts[i] < best_cut:
            best_cut = float(cuts[i])
            best_subset = chunk[i]
    z = _subset_to_z(n, best_subset)
    return OracleResult(z=z, cut=cut_size(g, z), optimal=True)


def sa_solve(g: WeightedGraph, c: int, cfg: SaConfig = SaConfig()) -> OracleResult:
    """Simulated annealing over size-c subsets; best over restarts.

    Metropolis acceptance exp(-delta/T) with geometric cooling per step.
    Deterministic for a fixed (graph, c, config); restart r uses the RNG
    stream seeded by (seed, r) and ties across restarts keep the earliest.
    """
    n = g.n
    _check_c(n, c)
    w = g.weights
    deg = g.degrees
    t0 = cfg.initial_temp if cfg.initial_temp is not None else float(w.max() * n)

    best_cut = math.inf
    best_minus: np.ndarray | None = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        nodes = rng.permutation(n)
        # nodes[:c] is the selected (-1) side throughout
        in_minus = np.zeros(n, dtype=bool)
        in_minus[nodes[:c]] = True
        to_minus = w[:, in_minus].sum(axis=1)  # weight from each node into the -1 side
        cut = float(to_minus[~in_minus].sum())
        if cut < best_cut:
            best_cut = cut
            best_minus = nodes[:c].copy()

        ii = rng.integers(0, c, size=cfg.steps)
        jj = rng.integers(c, n, size=cfg.steps)
        accept_draw = rng.random(cfg.steps)
        temp = t0
        for step in range(cfg.steps):
            u = nodes[ii[step]]
            v = nodes[jj[step]]
            delta = (
                2.0 * to_minus[u]
                - deg[u]
                + deg[v]
                - 2.0 * to_minus[v]
                + 2.0 * w[u, v]
            )
            if delta <= 0.0 or (temp > 1e-12 and accept_draw[step] < math.exp(-delta / temp)):
                nodes[ii[step]], nodes[jj[step]] = v, u
                to_minus += w[:, v] - w[:, u]
                cut += delta
                if cut < best_cut - 1e-12:
                    best_cut = cut
                    best_minus = nodes[:c].copy()
            temp *= cfg.cooling

    z = _subset_to_z(n, best_minus)
    # report the exactly recomputed cut, not the incrementally accumulated one
    return OracleResult(z=z, cut=cut_size(g, z), optimal=False)


def normalized_cut(pce_cut: float, baseline_cut: float) -> float:
    """Cut size relative to the classical baseline for the same (graph, c)."""
    if baseline_cut <= 0.0:
        raise ValueError(
            f"baseline cut must be positive, got {baseline_cut} (degenerate instance)"
        )
    return float(pce_cut) / float(baseline_cut)


def _cache_key(g: WeightedGraph, c: int, method: str, cfg: SaConfig | None) -> str:
    if method == "sa":
        cfg = cfg or SaConfig()
        fingerprint = (
            f"sa-s{cfg.seed}-r{cfg.restarts}-n{cfg.steps}"
            f"-t{cfg.initial_temp}-g{cfg.cooling}"
        )
    else:
        fingerprint = "exhaustive"
    return f"{graph_hash(g)}:c{c}:{fingerprint}"


def baseline_cut(
    g: WeightedGraph,
    c: int,
    method: str = "sa",
    sa_config: SaConfig | None = None,
    cache_path=None,
) -> float:
    """Baseline cut for (graph, c), optionally cached in a JSON side file.

    method "sa", "exhaustive", or "auto" (exhaustive when small enough).
    """
    if method == "auto":
        method = "exhaustive" if g.n <= EXHAUSTIVE_MAX_NODES else "sa"
    if method not in ("sa", "exhaustive"):
        raise ValueError(f"unknown baseline method {method!r}")

    cache: dict = {}
    key = _cache_key(g, c, method, sa_config)
    if cache_path is not None:
        path = Path(cache_path)
        if path.exists():
            cache = json.loads(path.read_text())
            if key in cache:
                return float(cache[key])

    if method == "exhaustive":
        value = exhaustive_best(g, c).cut
    else:
        value = sa_solve(g, c, sa_config or SaConfig()).cut

    if cache_path is not None:
        cache[key] = value
        _write_atomically(Path(cache_path), json.dumps(cache, indent=0, sort_keys=True) + "\n")
    return value


def _write_atomically(path: Path, text: str) -> None:
    """Replace path's contents in one step, so a crash leaves the old file whole."""
    # same directory, so the rename stays on one file system
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
