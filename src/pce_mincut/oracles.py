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

Each restart of sa_solve takes one rule at every step: a swap is accepted if
delta <= 0, or if T > 0.0 and its draw is below exp(-delta/T) (Metropolis's
rule), where the temperature T is 0.0 from the first step whose cooled
temperature is 1e-12 or below. Steps run one at a time until SA_QUIET steps
in a row have been rejected; then one block scores the swaps of the next
SA_BLOCK steps against the current state, the first step the rule accepts is
applied, and single steps resume. A rejected step leaves the state as it
was, so each step of a block is scored against the state it would have seen
alone, and numpy adds the same five float64 terms in the same order as a
single step does. A block rejects a step with delta / 750 > T without
calling math.exp (a quotient cannot overflow at any T): -delta/T then rounds
below -749.99, exp rounds to 0.0 below about -745.13, and no draw is below
0.0. Every other step is decided by the single step's rule on Python floats,
so every delta, decision and cut has the one-step-at-a-time loop's bits. On
unit K_n every swap has delta 0 and is accepted, so every step runs singly.
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
SA_QUIET = 32  # steps rejected in a row before a block is scored
SA_BLOCK = 1024  # steps scored at once; bounds the block's working set
_EXP_ZERO = 750.0  # a block rejects delta / _EXP_ZERO > T without math.exp (see above)
assert math.exp(-_EXP_ZERO) == 0.0


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
    SA_COOLING per step, and 0.0 from the first step at which it is 1e-12
    or below. Quiet stretches are scored in blocks of SA_BLOCK steps; the
    answer is that of scoring every step alone (see the module docstring).
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
    temps = np.full(cfg.steps, SA_COOLING)  # the temperature of each step
    temps[0] = temp
    np.multiply.accumulate(temps, out=temps)  # the step-by-step product's bits
    temps[temps <= 1e-12] = 0.0  # cold

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

    Step k proposes swapping nodes[ii[k]] with nodes[jj[k]] at temperature
    temps[k], 0.0 once cold; the caller applies each yielded swap to nodes
    and to_minus before the next step is scored.
    """
    w = g.weights
    weight = memoryview(w)  # weight[u, v] reads a Python float
    weight_in = memoryview(to_minus)  # follows to_minus, which the caller updates in place
    deg = g.degrees
    degree = deg.tolist()
    pick_i = memoryview(ii)
    pick_j = memoryview(jj)
    draws = memoryview(accept_draw)
    temp_at = memoryview(temps)
    steps = len(ii)
    k = 0
    while k < steps:
        last = k  # the step after the last accepted one
        for i, j, draw, temp in zip(pick_i[k:], pick_j[k:], draws[k:], temp_at[k:]):
            k += 1
            u = nodes[i]
            v = nodes[j]
            delta = (2.0 * weight_in[u] - degree[u] + degree[v] - 2.0 * weight_in[v]
                     + 2.0 * weight[u, v])
            if delta <= 0.0 or (temp > 0.0 and draw < math.exp(-delta / temp)):
                last = k
                yield i, j, delta
            elif k - last == SA_QUIET:
                break
        else:
            return
        while k < steps:  # blocks, until one accepts a step
            end = min(k + SA_BLOCK, steps)
            hit = _first_accepted(np.array(nodes), ii[k:end], jj[k:end], accept_draw[k:end],
                                  temps[k:end], to_minus, deg, w)
            if hit is not None:
                s, delta = hit
                k += s + 1
                yield pick_i[k - 1], pick_j[k - 1], delta
                break
            k = end


def _first_accepted(nodes, ii, jj, draws, temps, to_minus, deg, w):
    """(s, delta) for the first step s of a block that the rule accepts, or None.

    nodes is an array copy of the state; each delta adds the single step's
    terms in the single step's order, so it has that step's bits.
    """
    u = nodes[ii]
    v = nodes[jj]
    deltas = 2.0 * to_minus[u] - deg[u] + deg[v] - 2.0 * to_minus[v] + 2.0 * w[u, v]
    for s in np.flatnonzero(deltas / _EXP_ZERO <= temps).tolist():  # the rest are rejected
        delta = float(deltas[s])
        temp = float(temps[s])
        if delta <= 0.0 or (temp > 0.0 and draws[s] < math.exp(-delta / temp)):
            return s, delta
    return None


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
    if cache_path is not None:
        key = _cache_key(g, c, method, sa_config)  # hashes every weight
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

