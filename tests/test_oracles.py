import json
import os

import numpy as np
import pytest

from conftest import random_graphs
from pce_mincut.graph import cut_size, generate_complete_graph, partition_count
from pce_mincut.objective import is_feasible
from pce_mincut.oracles import (
    SaConfig,
    baseline_cut,
    exhaustive_best,
    normalized_cut,
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
        SaConfig(cooling=1.0)
    with pytest.raises(ValueError):
        SaConfig(steps=0)
    with pytest.raises(ValueError):
        SaConfig(restarts=0)


def test_normalized_cut():
    assert normalized_cut(12.0, 10.0) == pytest.approx(1.2)
    assert normalized_cut(7.5, 7.5) == 1.0
    with pytest.raises(ValueError):
        normalized_cut(1.0, 0.0)


def test_baseline_cache(tmp_path, k6):
    cache = tmp_path / "baselines.json"
    a = baseline_cut(k6, 3, method="sa", cache_path=cache)
    assert cache.exists()
    stored = json.loads(cache.read_text())
    assert len(stored) == 1
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


def test_baseline_auto_uses_exhaustive(k6):
    assert baseline_cut(k6, 2, method="auto") == 8.0
