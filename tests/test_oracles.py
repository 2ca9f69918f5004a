import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import loop_reference
from conftest import random_graphs
from pce_mincut import oracles
from pce_mincut.graph import (
    WeightedGraph,
    cut_size,
    generate_complete_graph,
    graph_hash,
    partition_count,
)
from pce_mincut.objective import is_feasible
from pce_mincut.oracles import (
    SaConfig,
    baseline_cut,
    exhaustive_best,
    normalized_cut,
    positive_baseline,
    sa_solve,
)


def test_exhaustive_k4(k4):
    res = exhaustive_best(k4, 2)
    assert res.cut == 4.0
    assert res.optimal


def test_exhaustive_path(path4):
    res = exhaustive_best(path4, 2)
    assert res.cut == 1.0
    assert set(np.flatnonzero(res.z == -1)) == {0, 1}


def test_exhaustive_complete_graphs():
    for n in (5, 8, 10):
        g = generate_complete_graph(n)
        for c in range(1, n // 2 + 1):
            assert exhaustive_best(g, c).cut == c * (n - c)


def test_exhaustive_tie_break_lexicographic():
    # unit K5 with c=2: all splits tie, so the earliest subset must win
    res = exhaustive_best(generate_complete_graph(5), 2)
    assert set(np.flatnonzero(res.z == -1)) == {0, 1}


def test_exhaustive_refuses_large_n():
    g = generate_complete_graph(23)
    with pytest.raises(ValueError, match="22"):
        exhaustive_best(g, 2)


def test_exhaustive_rejects_bad_c(k4):
    with pytest.raises(ValueError):
        exhaustive_best(k4, 0)
    with pytest.raises(ValueError):
        exhaustive_best(k4, 3)


def test_exhaustive_symmetric_in_complement():
    g = generate_complete_graph(9, weights="uniform", seed=31, low=0.1, high=1.0)
    for c in (2, 4):
        res = exhaustive_best(g, c)
        flipped = -res.z
        assert cut_size(g, flipped) == pytest.approx(res.cut)
        assert min(partition_count(res.z)) == c


def _same_answer(got, want):
    assert got.z.tobytes() == want.z.tobytes()
    assert got.z.dtype == want.z.dtype
    assert got.cut == want.cut
    assert got.optimal == want.optimal


REFERENCE_GRAPHS = (
    [generate_complete_graph(n) for n in range(4, 15)]
    + [generate_complete_graph(n, weights="uniform", seed=seed, low=0.1, high=1.0)
       for n in (5, 9, 12, 14) for seed in range(3)]
    + [generate_complete_graph(n, weights="uniform", seed=seed, drop_prob=0.4)
       for n in (7, 11, 13) for seed in range(2)]
)


@pytest.mark.parametrize("g", REFERENCE_GRAPHS,
                         ids=[f"n{g.n}-{graph_hash(g)[:8]}" for g in REFERENCE_GRAPHS])
def test_exhaustive_matches_loop_reference_at_every_c(g):
    for c in range(1, g.n // 2 + 1):
        _same_answer(exhaustive_best(g, c), loop_reference.exhaustive_best(g, c))


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(oracles, "EXHAUSTIVE_BLOCK", 3)


def test_exhaustive_tie_rule_holds_across_blocks(small_blocks):
    # unit K8 with c=4: all 70 subsets tie, over 24 blocks of at most 3
    res = exhaustive_best(generate_complete_graph(8), 4)
    assert np.flatnonzero(res.z == -1).tolist() == [0, 1, 2, 3]
    assert res.cut == 16.0


def test_exhaustive_finds_an_optimum_in_a_later_block(small_blocks):
    w = np.ones((8, 8)) - np.eye(8)
    w[5:, :5] = w[:5, 5:] = 0.1  # {5, 6, 7} is the last of 56 subsets
    g = WeightedGraph(w)
    res = exhaustive_best(g, 3)
    assert np.flatnonzero(res.z == -1).tolist() == [5, 6, 7]
    _same_answer(res, loop_reference.exhaustive_best(g, 3))
    uniform = generate_complete_graph(10, weights="uniform", seed=4, low=0.1, high=1.0)
    for c in range(1, 6):
        _same_answer(exhaustive_best(uniform, c), loop_reference.exhaustive_best(uniform, c))


def test_exhaustive_at_the_largest_n_with_one_block():
    g = generate_complete_graph(22, weights="uniform", seed=5, low=0.1, high=1.0)
    assert 22 < oracles.EXHAUSTIVE_BLOCK  # c=1 has 22 subsets
    _same_answer(exhaustive_best(g, 1), loop_reference.exhaustive_best(g, 1))


def _integer_graph(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(0, 5, size=(n, n)), 1).astype(float)
    return WeightedGraph(w + w.T)


BLOCK_SCORER_GRAPHS = {
    "unit": lambda n: generate_complete_graph(n),
    "uniform": lambda n: generate_complete_graph(n, weights="uniform", seed=n, low=0.1, high=1.0),
    "sparse": lambda n: generate_complete_graph(n, weights="uniform", seed=n, drop_prob=0.4),
    "integer": lambda n: _integer_graph(n, seed=n),
}


@pytest.mark.parametrize("n", range(2, 23))
@pytest.mark.parametrize("kind", BLOCK_SCORER_GRAPHS)
def test_exhaustive_matches_the_block_scorer(kind, n):
    g = BLOCK_SCORER_GRAPHS[kind](n)
    for c in range(1, n // 2 + 1):
        _same_answer(exhaustive_best(g, c), loop_reference.block_exhaustive_best(g, c))


@pytest.mark.parametrize("block", [None, 3])
def test_exhaustive_tie_rule_holds_across_popcount_tables(monkeypatch, block):
    # n=8, c=2: nodes 0-3 are the high half. Weight 10 holds each of the
    # pairs {0, 4}, {1, 2} and {5, 6} together, and each cuts 16, the least;
    # their high popcounts are 1, 2 and 0. The first of them, {0, 4}, is in
    # neither the first table scored (popcount 0) nor the last.
    if block is not None:
        monkeypatch.setattr(oracles, "EXHAUSTIVE_BLOCK", block)
    w = np.ones((8, 8))
    w[[3, 7], :] = w[:, [3, 7]] = 2.0
    w[3, 7] = w[7, 3] = 1.0
    for a, b in ((0, 4), (1, 2), (5, 6)):
        w[a, b] = w[b, a] = 10.0
    np.fill_diagonal(w, 0.0)
    g = WeightedGraph(w)
    tied = [oracles._subset_to_z(8, pair) for pair in ((0, 4), (1, 2), (5, 6))]
    assert [cut_size(g, z) for z in tied] == [16.0] * 3
    res = exhaustive_best(g, 2)
    assert res.z.tobytes() == tied[0].tobytes() and res.cut == 16.0
    _same_answer(res, loop_reference.exhaustive_best(g, 2))


def _same_blocks(n, c, size):
    pairs = itertools.zip_longest(loop_reference.table_sign_blocks(n, c, size),
                                  loop_reference.sign_blocks(n, c, size))
    for count, (got, want) in enumerate(pairs, start=1):
        assert got is not None and want is not None, f"block {count} is missing on one side"
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), f"block {count} differs"
    assert count == math.ceil(math.comb(n, c) / size)


@pytest.mark.parametrize("n", range(2, 23))
def test_sign_blocks_match_the_unranker_at_the_default_block(n):
    for c in range(1, n // 2 + 1):
        _same_blocks(n, c, oracles.EXHAUSTIVE_BLOCK)


@pytest.mark.parametrize("size", [3, 7])
def test_sign_blocks_match_the_unranker_when_blocks_split_a_group(size):
    # groups of one high-half row hold up to C(7, 3) = 35 rows at n=14, so
    # block edges fall inside groups as well as between them
    for n in range(2, 15):
        for c in range(1, n // 2 + 1):
            _same_blocks(n, c, size)


def test_exhaustive_working_set_is_bounded_by_the_block():
    g = generate_complete_graph(22, weights="uniform", seed=6, low=0.1, high=1.0)
    tracemalloc.start()
    try:
        exhaustive_best(g, 11)  # C(22, 11) = 705,432 subsets, 5.6 MB of scores
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of float64 scores, plus the high, low and cross tables of
    # 2^11 x 11 float64 each and up to three temporaries of that size while
    # they are built
    assert peak <= 8 * (oracles.EXHAUSTIVE_BLOCK + 6 * 2**11 * 11)


@pytest.mark.parametrize("n, c, cfg", [
    (4, 2, SaConfig(seed=0, steps=500, restarts=1)),
    (6, 3, SaConfig(seed=3, steps=1, restarts=4)),
    (12, 1, SaConfig(seed=1, steps=2000, restarts=3)),
    (12, 6, SaConfig(seed=2, steps=2000, restarts=2)),
    (40, 10, SaConfig(seed=4, steps=1500, restarts=2)),
    (120, 60, SaConfig(seed=5, steps=400, restarts=2)),
    (300, 2, SaConfig(seed=6, steps=300, restarts=2)),
    (300, 150, SaConfig(seed=7, steps=1, restarts=3)),
    (300, 75, SaConfig(seed=8, steps=300, restarts=1)),
])
def test_sa_matches_loop_reference(n, c, cfg):
    g = generate_complete_graph(n, weights="uniform", seed=n + c, low=0.1, high=1.0)
    _same_answer(sa_solve(g, c, cfg), loop_reference.sa_solve(g, c, cfg))


def test_sa_matches_loop_reference_on_unit_and_sparse_graphs():
    # past about 6,000 steps the temperature is under 1e-12, and only a swap
    # with delta <= 0 is accepted; on unit K9 every swap has delta 0
    for g in (generate_complete_graph(9), generate_complete_graph(16, seed=1, drop_prob=0.5)):
        for seed in range(3):
            cfg = SaConfig(seed=seed, steps=8000, restarts=2)
            _same_answer(sa_solve(g, 3, cfg), loop_reference.sa_solve(g, 3, cfg))


def _hot_steps(g):
    """The steps before the temperature first falls to 1e-12 or below."""
    temp, steps = float(g.weights.max() * g.n), 0
    while temp > 1e-12:
        temp *= oracles.SA_COOLING
        steps += 1
    return steps


COLD_GRAPHS = (
    [generate_complete_graph(n, weights="uniform", seed=n, low=0.1, high=1.0)
     for n in (12, 40, 100)]
    + [generate_complete_graph(n, weights="uniform", seed=n + 1, drop_prob=0.4)
       for n in (12, 40, 100)]
)


@pytest.mark.parametrize("g", COLD_GRAPHS,
                         ids=[f"n{g.n}-{graph_hash(g)[:8]}" for g in COLD_GRAPHS])
def test_sa_cold_phase_matches_loop_reference(g):
    # the default 20,000 steps: about 14,000 of them are cold
    for c in (1, g.n // 4, g.n // 2):
        cfg = SaConfig(seed=c, restarts=3)
        _same_answer(sa_solve(g, c, cfg), loop_reference.sa_solve(g, c, cfg))


def test_sa_cold_phase_matches_loop_reference_on_unit_graphs():
    # every swap on unit K_n has delta 0, so every cold step is accepted
    for n in (6, 13):
        g = generate_complete_graph(n)
        cfg = SaConfig(seed=n, restarts=2)
        _same_answer(sa_solve(g, n // 2, cfg), loop_reference.sa_solve(g, n // 2, cfg))


@pytest.mark.parametrize("extra", [0, 1, 2, oracles.SA_QUIET, oracles.SA_QUIET + 1,
                                   oracles.SA_QUIET + oracles.SA_BLOCK,
                                   oracles.SA_QUIET + 2 * oracles.SA_BLOCK + 37])
def test_sa_steps_around_the_start_of_the_cold_phase(extra):
    g = generate_complete_graph(30, weights="uniform", seed=3, low=0.1, high=1.0)
    cfg = SaConfig(seed=extra, steps=_hot_steps(g) + extra, restarts=3)
    _same_answer(sa_solve(g, 7, cfg), loop_reference.sa_solve(g, 7, cfg))


def test_sa_on_a_zero_weight_graph_starts_cold():
    g = WeightedGraph(np.zeros((9, 9)))
    assert _hot_steps(g) == 0
    for cfg in (SaConfig(seed=1, steps=1), SaConfig(seed=2, steps=3000, restarts=2)):
        res = sa_solve(g, 4, cfg)
        _same_answer(res, loop_reference.sa_solve(g, 4, cfg))
        assert res.cut == 0.0


def test_sa_refuses_a_start_temperature_that_overflows():
    # the weights sum to 1e307, but the largest one times n is 2e308
    w = np.zeros((40, 40))
    w[0, 1] = w[1, 0] = 5e306
    with pytest.raises(ValueError, match=r"^the SA start temperature, largest weight "
                                         r"5e\+306 times n=40, overflows$"):
        sa_solve(WeightedGraph(w), 2)
    w[0, 1] = w[1, 0] = 4e306  # 1.6e308 is finite, so the run goes ahead
    assert sa_solve(WeightedGraph(w), 2, SaConfig(steps=50)).cut == 0.0


def _blocks_of(decisions):
    """(size, first accepted step or None) of each block the cold phase
    scores, from one restart's (cold, accepted) decisions."""
    steps = len(decisions)
    k = next((step for step, (cold, _) in enumerate(decisions) if cold), steps)
    quiet = 0
    blocks = []
    while k < steps:
        if quiet < oracles.SA_QUIET:
            quiet = 0 if decisions[k][1] else quiet + 1
            k += 1
            continue
        size = min(oracles.SA_BLOCK, steps - k)
        hit = next((s for s in range(size) if decisions[k + s][1]), None)
        blocks.append((size, hit))
        if hit is None:
            k += size
        else:
            k += hit + 1
            quiet = 0
    return blocks


@pytest.mark.parametrize("quiet, block", [(32, 1024), (3, 5), (1, 1)])
@pytest.mark.parametrize("g", [
    generate_complete_graph(100, weights="uniform", seed=4, low=0.1, high=1.0),
    generate_complete_graph(150, weights="uniform", seed=5, drop_prob=0.4),
    generate_complete_graph(9),
], ids=["uniform", "sparse", "unit"])
def test_sa_scores_a_block_after_each_quiet_run_of_cold_steps(g, quiet, block, monkeypatch):
    # at n=100 and n=150 some downhill swaps are left when the cold phase
    # starts, so some blocks find one and others do not
    monkeypatch.setattr(oracles, "SA_QUIET", quiet)
    monkeypatch.setattr(oracles, "SA_BLOCK", block)
    first_downhill = oracles._first_downhill
    scored = []

    def spy(nodes, ii, *args):
        hit = first_downhill(nodes, ii, *args)
        scored.append((len(ii), None if hit is None else hit[0]))
        return hit

    monkeypatch.setattr(oracles, "_first_downhill", spy)
    cfg = SaConfig(seed=1, steps=12_000, restarts=2)
    trace = []
    _same_answer(sa_solve(g, g.n // 3, cfg), loop_reference.sa_solve(g, g.n // 3, cfg, trace))
    assert scored == [b for decisions in trace for b in _blocks_of(decisions)]
    if g.n == 9:
        assert not scored  # on unit K9 every cold step is accepted
    else:
        assert None in [hit for _, hit in scored]
        assert any(hit is not None for _, hit in scored)


def test_sa_k6(k6):
    res = sa_solve(k6, 3, SaConfig(seed=0))
    assert res.cut == 9.0
    assert not res.optimal


def test_sa_path(path4):
    assert sa_solve(path4, 2, SaConfig(seed=0)).cut == 1.0


def test_sa_deterministic(k6):
    a = sa_solve(k6, 2, SaConfig(seed=5))
    b = sa_solve(k6, 2, SaConfig(seed=5))
    assert np.array_equal(a.z, b.z) and a.cut == b.cut


def test_sa_feasible_by_construction():
    for g in random_graphs(5, max_n=14, seed=3):
        c = max(1, g.n // 3)
        res = sa_solve(g, c, SaConfig(seed=1, steps=2000, restarts=2))
        assert is_feasible(res.z, c)


def test_sa_never_beats_exhaustive_and_matches_small():
    for i, g in enumerate(random_graphs(6, max_n=12, seed=17, min_n=4)):
        for c in range(1, g.n // 2 + 1):
            exact = exhaustive_best(g, c).cut
            for seed in range(2):
                sa = sa_solve(g, c, SaConfig(seed=seed)).cut
                assert sa >= exact - 1e-9
                assert sa == pytest.approx(exact, abs=1e-9)


def test_sa_config_validation():
    with pytest.raises(ValueError):
        SaConfig(steps=0)
    with pytest.raises(ValueError):
        SaConfig(restarts=0)


def test_normalized_cut():
    assert normalized_cut(12.0, 10.0) == pytest.approx(1.2)
    assert normalized_cut(7.5, 7.5) == 1.0
    with pytest.raises(ValueError):
        normalized_cut(1.0, 0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_baseline_that_is_not_finite_is_refused(value):
    with pytest.raises(ValueError, match=f"^baseline cut for c=2 is {value}; it must be finite$"):
        positive_baseline(value, 2)
    with pytest.raises(ValueError, match=f"^baseline cut must be finite, got {value}$"):
        normalized_cut(1.0, value)


def test_baseline_cache(tmp_path, k6):
    cache = tmp_path / "baselines.json"
    a = baseline_cut(k6, 3, method="sa", cache_path=cache)
    assert cache.exists()
    stored = json.loads(cache.read_text())
    # the key format of existing caches: a change would make them all miss
    assert list(stored) == [f"{graph_hash(k6)}:c3:sa-s0-r5-n20000-tNone-g0.995"]
    # second call must hit the cache, not recompute
    b = baseline_cut(k6, 3, method="sa", cache_path=cache)
    assert a == b == 9.0
    assert len(json.loads(cache.read_text())) == 1
    # a different c gets its own entry
    baseline_cut(k6, 2, method="sa", cache_path=cache)
    assert len(json.loads(cache.read_text())) == 2


def test_failed_cache_write_keeps_previous_cache(tmp_path, k6, monkeypatch):
    cache = tmp_path / "baselines.json"
    baseline_cut(k6, 3, method="sa", cache_path=cache)
    before = cache.read_text()

    def crash(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        baseline_cut(k6, 2, method="sa", cache_path=cache)
    monkeypatch.undo()
    assert cache.read_text() == before
    assert list(tmp_path.iterdir()) == [cache]  # no temp file left behind
    assert baseline_cut(k6, 3, method="sa", cache_path=cache) == 9.0
    assert len(json.loads(cache.read_text())) == 1


def test_corrupt_cache_names_its_file(tmp_path, k6):
    cache = tmp_path / "baselines.json"
    cache.write_text('{"abc:c3:exhaustive": 9.0')  # cut short
    with pytest.raises(ValueError, match="baselines.json") as info:
        baseline_cut(k6, 3, method="exhaustive", cache_path=cache)
    assert "not valid JSON" in str(info.value)


def test_cache_that_is_not_an_object_names_its_file(tmp_path, k6):
    cache = tmp_path / "baselines.json"
    cache.write_text("[9.0]\n")
    with pytest.raises(ValueError, match="baselines.json") as info:
        baseline_cut(k6, 3, method="exhaustive", cache_path=cache)
    assert "not a JSON object" in str(info.value)
    assert cache.read_text() == "[9.0]\n"


def _cache_holding(tmp_path, k6, value: str):
    """A cache whose one entry, for (k6, c=3, exhaustive), holds the JSON text value."""
    cache = tmp_path / "baselines.json"
    baseline_cut(k6, 3, method="exhaustive", cache_path=cache)
    (key,) = json.loads(cache.read_text())
    cache.write_text(f'{{"{key}": {value}}}\n')
    return cache, key


@pytest.mark.parametrize("value", ["[1]", "null", "NaN", "Infinity", '"4"', "-1", "true"])
def test_cache_entry_that_is_no_cut_names_its_file_and_key(tmp_path, k6, value):
    cache, key = _cache_holding(tmp_path, k6, value)
    text = cache.read_text()
    with pytest.raises(ValueError, match="baselines.json") as info:
        baseline_cut(k6, 3, method="exhaustive", cache_path=cache)
    assert repr(key) in str(info.value)
    assert cache.read_text() == text


@pytest.mark.parametrize("value, cut", [("4", 4.0), ("4.5", 4.5), ("0", 0.0)])
def test_cache_entry_that_is_a_cut_is_read_as_a_float(tmp_path, k6, value, cut):
    cache, _ = _cache_holding(tmp_path, k6, value)
    got = baseline_cut(k6, 3, method="exhaustive", cache_path=cache)
    assert type(got) is float and got == cut


def test_baseline_auto_uses_exhaustive(k6):
    assert baseline_cut(k6, 2, method="auto") == 8.0
