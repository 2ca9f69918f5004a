import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graphs
from pce_mincut.encoding import EncodingSpec
from pce_mincut.graph import cut_size, generate_complete_graph
from pce_mincut.objective import (
    ObjectiveSpec,
    beta_c,
    binarization,
    decode,
    is_feasible,
    loss,
    plateau_width,
    regularization,
    soft_values,
)


def spec_for(graph, c, alpha, beta=None, eta=0.0):
    enc = EncodingSpec("full_xyz", m=5, n_vars=graph.n, k=2)
    return ObjectiveSpec(graph=graph, encoding=enc, alpha=alpha, c=c, beta=beta, eta=eta)


def test_soft_values_examples():
    vals = soft_values([0.0, 0.5, -0.5], 1.0)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(math.tanh(0.5), abs=1e-12)
    assert vals[2] == pytest.approx(-math.tanh(0.5), abs=1e-12)
    assert soft_values([1.0], 100.0)[0] == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.floats(-1, 1), min_size=1, max_size=20), st.floats(0.1, 50))
def test_soft_values_odd(e, alpha):
    e = np.array(e)
    assert np.array_equal(soft_values(-e, alpha), -soft_values(e, alpha))


def test_soft_values_rejects_out_of_range():
    with pytest.raises(ValueError):
        soft_values([1.5], 1.0)


def test_loss_hand_value(k3):
    # all-zero expectations: cut term is sum(d)/4, penalty hits (n-2c)^2
    s = spec_for(k3, c=1, alpha=5.0, beta=10.0)
    assert loss(s, np.zeros(3)) == pytest.approx(11.5, abs=1e-12)


def test_loss_saturated_limit(k3):
    z = np.array([1, -1, -1])
    s = spec_for(k3, c=1, alpha=1e3, beta=7.0)
    value = loss(s, 0.02 * z)
    assert value == pytest.approx(2.0 + 7.0 * 4.0, abs=1e-6)


def test_loss_includes_regularization(k3):
    s0 = spec_for(k3, c=1, alpha=2.0, beta=1.0, eta=0.0)
    s1 = spec_for(k3, c=1, alpha=2.0, beta=1.0, eta=3.0)
    e = np.array([0.3, -0.2, 0.1])
    t = np.tanh(2.0 * e)
    assert loss(s1, e) == pytest.approx(
        loss(s0, e) + 3.0 * (np.sum(t**2) / 3) ** 2, rel=1e-12
    )


def test_regularization_values():
    assert regularization(np.zeros(4), 1.0, 4) == 0.0
    assert regularization(np.ones(5), 1.0, 5) == pytest.approx(1.0)
    assert regularization([0.5, 0.5], 2.0, 2) == pytest.approx(0.125)


def test_beta_c_values(k4, path4):
    assert beta_c(k4, 2) == 6.0
    for n in (5, 8, 11):
        g = generate_complete_graph(n)
        for c in range(1, n // 2 + 1):
            assert beta_c(g, c) == pytest.approx(c * (n - 1))
    assert beta_c(path4, 2) == 4.0


def test_beta_c_rejects_bad_c(k4):
    with pytest.raises(ValueError):
        beta_c(k4, 0)
    with pytest.raises(ValueError):
        beta_c(k4, 3)


def test_decode():
    assert np.array_equal(decode([0.3, -0.7, 0.0]), [1, -1, 1])
    e = np.array([0.2, -0.4, 0.8, -0.9])
    assert np.array_equal(decode(-e), -decode(e))


def test_is_feasible():
    assert is_feasible([1, 1, 1, 1, -1, -1], 2)
    assert is_feasible([-1, -1, -1, -1, 1, 1], 2)  # 4:2 is the same split as 2:4
    assert not is_feasible([1, 1, 1, -1, -1, -1], 2)


@given(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=16),
       st.integers(1, 8))
def test_feasibility_symmetry(z, c):
    if c > len(z) // 2:
        c = len(z) // 2
    z = np.array(z)
    assert is_feasible(z, c) == is_feasible(-z, c)


def test_binarization_threshold():
    assert binarization([0.95, -0.99, 0.5, -0.91]) == 0.75
    assert binarization([0.1, -0.5, 0.89]) == 0.0
    assert binarization([1.0, -1.0]) == 1.0
    assert binarization([0.0, 0.5]) == 0.0
    assert binarization([-1.0, 1.0, 0.99]) == 1.0


def test_plateau_width():
    assert plateau_width(1.0) == pytest.approx(2 * math.atanh(0.99), rel=1e-12)
    for alpha in np.logspace(-2, 6, 17):
        assert plateau_width(2 * alpha) == pytest.approx(plateau_width(alpha) / 2, rel=1e-12)
    assert plateau_width(1e12) < 1e-11


def test_objective_spec_validation(k6):
    enc = EncodingSpec("full_xyz", m=3, n_vars=6, k=2)
    with pytest.raises(ValueError):
        ObjectiveSpec(graph=k6, encoding=enc, alpha=1.0, c=4)  # c > n/2
    with pytest.raises(ValueError):
        ObjectiveSpec(graph=k6, encoding=enc, alpha=0.0, c=2)
    with pytest.raises(ValueError):
        ObjectiveSpec(graph=k6, encoding=enc, alpha=1.0, c=2, eta=-1.0)
    wrong = EncodingSpec("full_xyz", m=3, n_vars=5, k=2)
    with pytest.raises(ValueError):
        ObjectiveSpec(graph=k6, encoding=wrong, alpha=1.0, c=2)


def test_default_beta_is_degree_heuristic(k6):
    enc = EncodingSpec("full_xyz", m=3, n_vars=6, k=2)
    s = ObjectiveSpec(graph=k6, encoding=enc, alpha=1.0, c=2)
    assert s.beta == beta_c(k6, 2)
    s2 = ObjectiveSpec(graph=k6, encoding=enc, alpha=1.0, c=2, beta=123.0)
    assert s2.beta == 123.0


def test_binarized_limit_identity():
    # near-saturated soft values reduce the loss to cut + penalty on the bits
    rng = np.random.default_rng(0)
    t = 1 - 1e-9
    for g in random_graphs(10, max_n=10, seed=5):
        n = g.n
        c = int(rng.integers(1, n // 2 + 1))
        z = np.where(rng.random(n) < 0.5, -1, 1)
        alpha = 15.0
        s = spec_for(g, c=c, alpha=alpha, beta=float(rng.uniform(0.5, 50)))
        e = np.arctanh(t * z) / alpha
        want = cut_size(g, z) + s.beta * (z.sum() - (n - 2 * c)) ** 2
        assert loss(s, e) == pytest.approx(want, abs=1e-5)


def test_beta_c_bounds_every_budget_cut():
    # exhaustive check of the degree-sum upper bound on small graphs
    for g in random_graphs(8, max_n=8, seed=9):
        n = g.n
        for c in range(1, n // 2 + 1):
            bound = beta_c(g, c)
            for subset in itertools.combinations(range(n), c):
                z = np.ones(n)
                z[list(subset)] = -1
                assert cut_size(g, z) <= bound + 1e-9


def test_loss_monotone_in_beta(k6):
    e = np.array([0.1, -0.3, 0.2, 0.5, -0.2, 0.05])
    values = [loss(spec_for(k6, 2, alpha=2.0, beta=b), e) for b in (0.0, 1.0, 10.0, 100.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
