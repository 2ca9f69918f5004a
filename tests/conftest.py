import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pce_mincut.solver as solver_mod
from pce_mincut.graph import WeightedGraph, generate_complete_graph


@pytest.fixture
def k3():
    return generate_complete_graph(3)


@pytest.fixture
def k4():
    return generate_complete_graph(4)


@pytest.fixture
def k6():
    return generate_complete_graph(6)


@pytest.fixture
def path4():
    w = np.zeros((4, 4))
    for i in range(3):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return WeightedGraph(w)


def random_graphs(count, max_n, seed=0, min_n=3):
    """Deterministic batch of uniform-random complete graphs for oracles."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        graphs.append(
            generate_complete_graph(n, weights="uniform", seed=int(rng.integers(2**31)),
                                    low=0.1, high=2.0)
        )
    return graphs


@pytest.fixture
def prepared_rows(monkeypatch):
    """The row count of every solver.prepare_state call, appended as it is made."""
    rows = []
    real = solver_mod.prepare_state

    def prepare_state(m, theta, layers=1):
        rows.append(1 if np.ndim(theta) == 1 else len(theta))
        return real(m, theta, layers)

    monkeypatch.setattr(solver_mod, "prepare_state", prepare_state)
    return rows
