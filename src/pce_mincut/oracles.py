"""Classical reference solvers for size-constrained minimum cuts.

exhaustive_best enumerates every size-c subset and is the ground truth for
small instances. A subset is a +-1 vector z (-1 on the subset), and its cut
is (sum(W) - z'Wz) / 4. Split z into a high half z_h (the first n//2 nodes)
and a low half z_l (the rest); then
z'Wz = z_h'W_hh z_h + 2 (z_h'W_hl) z_l + z_l'W_ll z_l. So the oracle never
builds the rows of z. From the sign rows of every high mask and of every low
mask it builds three tables once per call: q_hi and q_lo, each half's own
term per mask, and cross, 2 z_h'W_hl per high mask. For each high popcount
p, one matrix product, cross of the high masks of popcount p times the low
rows of popcount c - p, scores every subset whose high half has popcount p;
q_hi and q_lo are added by broadcasting. Products are cut into chunks of at
most EXHAUSTIVE_BLOCK scores, splitting the low rows too when one high row
alone would exceed it, so the working set is one block of float64 scores
plus the half tables, not C(n, c).

Of subsets whose scores are exactly equal floats, the lexicographically
smallest wins. With node 0 at the top bit, lexicographic order is "high
mask descending, then low mask descending", and each chunk lists its masks
that way, so argmin takes a chunk's lexicographically first minimum.
Chunks of different popcounts interleave in that order; across chunks an
equal score goes to the larger high mask, then the larger low mask. This
rule holds only for exactly equal floats: subsets that tie mathematically
can round to different scores, and then the lowest-rounding one wins. On
K5 with every weight 0.1, all ten 2-subsets cut 0.6, yet c=2 gives {0, 2}.

sa_solve is the simulated-annealing baseline used to normalize cut sizes;
its move set swaps one selected node with one unselected node, so every
visited state satisfies the budget exactly and no penalty term ever enters
the oracle. Its steps run on Python floats, which round exactly as float64
does, so a step decides as the same arithmetic on numpy scalars would.

Each restart of sa_solve runs in two phases. While the temperature is above
1e-12 (the hot phase) every step scores its swap and takes Metropolis's
rule. From the first step at or below 1e-12 (the cold phase) only a swap
with delta <= 0 is accepted, and most steps are rejected. The cold phase
steps one at a time until SA_QUIET steps in a row have been rejected; then
it scores the swaps of the next SA_BLOCK steps at once against the current
state, applies the first with delta <= 0, and goes back to single steps.
A rejected step leaves the state as it was, so each step of a block is
scored against the state it would have seen alone, and numpy adds the same
five float64 terms in the same order as a single step does. Every delta,
decision and cut therefore has the one-step-at-a-time loop's bits.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import WeightedGraph, check_budget, cut_size, graph_hash, json_fits, write_atomically

__all__ = [
    "SaConfig",
    "OracleResult",
    "exhaustive_best",
    "sa_solve",
    "normalized_cut",
    "positive_baseline",
    "baseline_cut",
]

BASELINE_METHODS = ("sa", "exhaustive", "auto")
EXHAUSTIVE_MAX_NODES = 22
EXHAUSTIVE_BLOCK = 1 << 14  # subsets scored at once; bounds the working set
SA_COOLING = 0.995  # temperature factor per annealing step
SA_QUIET = 32  # cold steps rejected in a row before a block is scored
SA_BLOCK = 1024  # cold steps scored at once; bounds the block's working set


@dataclass(frozen=True)
class SaConfig:
    steps: int = 20_000  # per restart
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class OracleResult:
    z: np.ndarray
    cut: float
    optimal: bool  # True only for exhaustive enumeration


def _subset_to_z(n: int, minus_nodes) -> np.ndarray:
    z = np.ones(n, dtype=int)
    z[list(minus_nodes)] = -1
    return z


def _sign_table(bits: int) -> np.ndarray:
    """(2**bits, bits) table: row r holds +-1 per node, -1 where mask r has
    the node's bit set; the half's first node is the top bit."""
    masks = np.arange(1 << bits)[:, None]
    shifts = np.arange(bits - 1, -1, -1)
    return 1.0 - 2.0 * ((masks >> shifts) & 1)


def exhaustive_best(g: WeightedGraph, c: int) -> OracleResult:
    """Exact minimum over all c : n-c splits; of exactly equal float scores the
    lexicographically smallest set of selected nodes wins, while a tie only
    up to rounding goes to the score that rounds lowest.

    Scores every subset from the half tables q_hi, q_lo and cross, one
    product per high popcount, in chunks of at most EXHAUSTIVE_BLOCK scores
    (see the module docstring).
    """
    n = g.n
    check_budget(n, c)
    if n > EXHAUSTIVE_MAX_NODES:
        raise ValueError(
            f"exhaustive enumeration supports n <= {EXHAUSTIVE_MAX_NODES}, got {n}"
        )
    w = g.weights
    h = n // 2
    high = _sign_table(h)
    low = _sign_table(n - h)
    q_hi = np.einsum("ai,ai->a", high @ w[:h, :h], high)
    q_lo = np.einsum("ai,ai->a", low @ w[h:, h:], low)
    cross = 2.0 * (high @ w[:h, h:])
    wsum = w.sum()
    high_count = (high < 0).sum(axis=1)
    low_count = (low < 0).sum(axis=1)
    best = (math.inf, 0, 0)  # (score, -high mask, -low mask); the smallest wins
    for p in range(max(0, c - (n - h)), min(h, c) + 1):
        his = np.flatnonzero(high_count == p)[::-1]  # masks descending
        los = np.flatnonzero(low_count == c - p)[::-1]
        lo_step = min(len(los), EXHAUSTIVE_BLOCK)
        hi_step = max(1, EXHAUSTIVE_BLOCK // lo_step)
        for j in range(0, len(los), lo_step):
            lo = los[j:j + lo_step]
            low_t = low[lo].T
            for i in range(0, len(his), hi_step):
                hi = his[i:i + hi_step]
                scores = cross[hi] @ low_t
                scores += q_hi[hi, None]
                scores += q_lo[lo]
                np.subtract(wsum, scores, out=scores)  # 4 x cut
                k = int(scores.argmin())
                r, col = divmod(k, len(lo))
                best = min(best, (float(scores.flat[k]), -int(hi[r]), -int(lo[col])))
    z = np.concatenate((high[-best[1]], low[-best[2]])).astype(int)
    return OracleResult(z=z, cut=cut_size(g, z), optimal=True)


def sa_solve(g: WeightedGraph, c: int, cfg: SaConfig = SaConfig()) -> OracleResult:
    """Simulated annealing over size-c subsets; best over restarts.

    Metropolis acceptance exp(-delta/T), with T starting at the largest
    edge weight times n (a ValueError if that overflows) and cooled by
    SA_COOLING per step. Once T has fallen to 1e-12 only swaps with
    delta <= 0 are accepted, and the cold phase scores quiet stretches in
    blocks of SA_BLOCK steps; the answer is that of scoring every step alone
    (see the module docstring).
    Deterministic for a fixed (graph, c, config); restart r uses the RNG
    stream seeded by (seed, r) and ties across restarts keep the earliest.
    """
    n = g.n
    check_budget(n, c)
    w = g.weights
    w_max = float(w.max())
    temp = w_max * n
    if temp == math.inf:
        raise ValueError(f"the SA start temperature, largest weight {w_max} times n={n}, "
                         "overflows")
    temps = []  # the temperature of each hot step
    while temp > 1e-12 and len(temps) < cfg.steps:
        temps.append(temp)
        temp *= SA_COOLING

    best_cut = math.inf
    best_minus: list[int] | None = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        nodes = rng.permutation(n).tolist()  # nodes[:c] is the selected (-1) side throughout
        in_minus = np.zeros(n, dtype=bool)
        in_minus[nodes[:c]] = True
        to_minus = w[:, in_minus].sum(axis=1)  # weight from each node into the -1 side
        cut = float(to_minus[~in_minus].sum())
        if cut < best_cut:
            best_cut = cut
            best_minus = nodes[:c]

        ii = rng.integers(0, c, size=cfg.steps)
        jj = rng.integers(c, n, size=cfg.steps)
        accept_draw = rng.random(cfg.steps)
        for i, j, delta in _accepted_moves(g, nodes, to_minus, ii, jj, accept_draw, temps):
            u = nodes[i]
            v = nodes[j]
            nodes[i], nodes[j] = v, u
            to_minus += w[v] - w[u]  # rows; w is symmetric
            cut += delta
            if cut < best_cut - 1e-12:
                best_cut = cut
                best_minus = nodes[:c]

    z = _subset_to_z(n, best_minus)
    # report the exactly recomputed cut, not the incrementally accumulated one
    return OracleResult(z=z, cut=cut_size(g, z), optimal=False)


def _accepted_moves(g, nodes, to_minus, ii, jj, accept_draw, temps):
    """The accepted swaps (i, j, delta) of one restart, in step order.

    Step k proposes swapping nodes[ii[k]] with nodes[jj[k]]; the caller
    applies each yielded swap to nodes and to_minus before the next step is
    scored. The first len(temps) steps are hot; the rest are cold.
    """
    w = g.weights
    weight = memoryview(w)  # weight[u, v] reads a Python float
    weight_in = memoryview(to_minus)  # follows to_minus, which the caller updates in place
    deg = g.degrees
    degree = deg.tolist()
    pick_i = memoryview(ii)
    pick_j = memoryview(jj)
    for i, j, draw, temp in zip(pick_i, pick_j, memoryview(accept_draw), temps):
        u = nodes[i]
        v = nodes[j]
        delta = (2.0 * weight_in[u] - degree[u] + degree[v] - 2.0 * weight_in[v]
                 + 2.0 * weight[u, v])
        if delta <= 0.0 or draw < math.exp(-delta / temp):
            yield i, j, delta

    steps = len(ii)
    k = len(temps)
    quiet = 0  # cold steps rejected in a row
    while k < steps:
        if quiet < SA_QUIET:
            i = pick_i[k]
            j = pick_j[k]
            k += 1
            u = nodes[i]
            v = nodes[j]
            delta = (2.0 * weight_in[u] - degree[u] + degree[v] - 2.0 * weight_in[v]
                     + 2.0 * weight[u, v])
            if delta <= 0.0:
                quiet = 0
                yield i, j, delta
            else:
                quiet += 1
            continue
        end = min(k + SA_BLOCK, steps)
        hit = _first_downhill(np.array(nodes), ii[k:end], jj[k:end], to_minus, deg, w)
        if hit is None:
            k = end
        else:
            s, delta = hit
            k += s + 1
            quiet = 0
            yield pick_i[k - 1], pick_j[k - 1], delta


def _first_downhill(nodes, ii, jj, to_minus, deg, w):
    """(s, delta) for the first swap s of a block with delta <= 0, or None.

    nodes is an array copy of the state; each delta adds the single step's
    terms in the single step's order, so it has that step's bits.
    """
    u = nodes[ii]
    v = nodes[jj]
    deltas = 2.0 * to_minus[u] - deg[u] + deg[v] - 2.0 * to_minus[v] + 2.0 * w[u, v]
    downhill = np.flatnonzero(deltas <= 0.0)
    if downhill.size == 0:
        return None
    s = int(downhill[0])
    return s, float(deltas[s])


def normalized_cut(pce_cut: float, baseline_cut: float) -> float:
    """Cut size relative to the classical baseline for the same (graph, c)."""
    if not math.isfinite(baseline_cut):
        raise ValueError(f"baseline cut must be finite, got {baseline_cut}")
    if baseline_cut <= 0.0:
        raise ValueError(
            f"baseline cut must be positive, got {baseline_cut} (degenerate instance)"
        )
    return float(pce_cut) / float(baseline_cut)


def positive_baseline(value: float, c: int) -> float:
    """value, if it can normalize cuts; ValueError naming c if it is not
    finite or not positive."""
    if not math.isfinite(value):
        raise ValueError(f"baseline cut for c={c} is {value}; it must be finite")
    if value <= 0.0:
        raise ValueError(f"baseline cut for c={c} is {value}; it must be positive "
                         "(degenerate instance)")
    return value


def _cache_key(g: WeightedGraph, c: int, method: str, cfg: SaConfig | None) -> str:
    if method == "sa":
        cfg = cfg or SaConfig()
        # the -tNone field stays in the key so that existing caches still hit
        fingerprint = f"sa-s{cfg.seed}-r{cfg.restarts}-n{cfg.steps}-tNone-g{SA_COOLING}"
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

    method is one of BASELINE_METHODS; "auto" is exhaustive up to
    EXHAUSTIVE_MAX_NODES nodes and sa above.
    """
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")
    if method == "auto":
        method = "exhaustive" if g.n <= EXHAUSTIVE_MAX_NODES else "sa"

    cache: dict = {}
    key = _cache_key(g, c, method, sa_config)
    if cache_path is not None:
        path = Path(cache_path)
        if path.exists():
            cache = _read_cache(path)
            if key in cache:
                return _cached_cut(path, key, cache[key])

    if method == "exhaustive":
        value = exhaustive_best(g, c).cut
    else:
        value = sa_solve(g, c, sa_config or SaConfig()).cut

    if cache_path is not None:
        cache[key] = value
        write_atomically(Path(cache_path), json.dumps(cache, indent=0, sort_keys=True) + "\n")
    return value


def _read_cache(path: Path) -> dict:
    try:
        cache = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline cache {path} is not valid JSON ({exc})") from exc
    if not isinstance(cache, dict):
        raise ValueError(f"baseline cache {path} holds a {type(cache).__name__}, not a JSON object")
    return cache


def _cached_cut(path: Path, key: str, value) -> float:
    """A cache hit as a cut; ValueError naming the file and key unless it is a
    finite number >= 0 (NaN fails both comparisons)."""
    if not (json_fits(value, float) and 0 <= value <= sys.float_info.max):
        raise ValueError(f"baseline cache {path} holds {value!r} at {key!r}; "
                         "a cut must be a finite number >= 0")
    return float(value)

