import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce_mincut.harness import ExperimentPlan, GraphSource, SolverSpec
from pce_mincut.objective import ObjectiveSpec, beta_c
from pce_mincut.oracles import exhaustive_best, sa_solve
from pce_mincut.encoding import EncodingSpec
from pce_mincut.graph import (
    GraphFormatError,
    WeightedGraph,
    check_budget,
    cut_size,
    generate_complete_graph,
    graph_hash,
    partition_count,
    read_graph,
    write_graph,
)


def test_unit_k3_is_complete():
    g = generate_complete_graph(3)
    assert g.n == 3
    assert g.edge_count == 3
    assert np.all(g.weights[np.triu_indices(3, 1)] == 1.0)


def test_six_node_structural_properties():
    g = generate_complete_graph(6)
    assert g.edge_count == 15
    degrees = (g.weights > 0).sum(axis=1)
    assert np.all(degrees == 5)  # average degree 5.00


def test_generation_is_deterministic():
    a = generate_complete_graph(5, weights="uniform", seed=7)
    b = generate_complete_graph(5, weights="uniform", seed=7)
    assert np.array_equal(a.weights, b.weights)
    c = generate_complete_graph(5, weights="uniform", seed=8)
    assert not np.array_equal(a.weights, c.weights)


def test_generation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_complete_graph(1)
    with pytest.raises(ValueError):
        generate_complete_graph(4, weights="uniform", low=2.0, high=1.0)
    with pytest.raises(ValueError):
        generate_complete_graph(4, weights="uniform", low=-1.0, high=1.0)
    with pytest.raises(ValueError):
        generate_complete_graph(4, weights="banana")


def test_drop_prob_removes_edges():
    g = generate_complete_graph(30, seed=3, drop_prob=0.3)
    full = 30 * 29 // 2
    assert 0 < g.edge_count < full


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValueError):
        WeightedGraph(np.zeros((1, 1)))  # too small


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_weighted_graph_refuses_a_non_finite_weight(value):
    w = np.ones((4, 4)) - np.eye(4)
    w[0, 1] = w[1, 0] = value
    with pytest.raises(ValueError, match="^weights must be finite$"):
        WeightedGraph(w)


def test_weighted_graph_refuses_weights_whose_sum_overflows():
    # every entry is finite, but the matrix of two 5e307 edges sums to 2e308
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 5e307
    with pytest.raises(ValueError, match="^weights must have a finite sum, got inf$"):
        WeightedGraph(w)
    w[1, 2] = w[2, 1] = 0.0
    assert WeightedGraph(w).weight_sum == 1e308


def test_weighted_graph_refuses_a_weight_that_vanishes_against_the_sum():
    # the cut {0, 1, 2} of this K12 is 27, but (sum - z'Wz)/4 rounds it to 0
    w = np.ones((12, 12)) - np.eye(12)
    w[0, 1] = w[1, 0] = 1e307
    with pytest.raises(ValueError, match=r"^the smallest nonzero weight 1\.0 vanishes against "
                                         r"the weight sum 2e\+307; cuts could not be resolved$"):
        WeightedGraph(w)
    w[0, 1] = w[1, 0] = 1e15  # 1 is still resolved against 2e15 + 130
    assert exhaustive_best(WeightedGraph(w), 3).cut == 27.0
    w[w == 1.0] = 0.0  # zero weights are not compared with the sum
    assert WeightedGraph(w).weight_sum == 2e15


@pytest.mark.parametrize("n, c", [(6, 0), (6, 4), (6, -1), (7, 4), (2, 2)])
def test_check_budget_refuses_c_outside_one_to_half_n(n, c):
    with pytest.raises(ValueError, match=rf"^c must be in \[1, n/2\] = \[1, {n // 2}\], got {c}$"):
        check_budget(n, c)


def test_every_budget_check_refuses_with_check_budgets_message():
    g = generate_complete_graph(6)
    enc = EncodingSpec(m=3, n_vars=6, k=2)
    plan = ExperimentPlan(graph=GraphSource(n=6), c_values=(4,), solvers=(SolverSpec(),))
    for refuse in (lambda: ObjectiveSpec(graph=g, encoding=enc, alpha=1.0, c=4),
                   lambda: beta_c(g, 4), lambda: exhaustive_best(g, 4), lambda: sa_solve(g, 4),
                   lambda: plan.resolve_c_values(6)):
        with pytest.raises(ValueError, match=r"^c must be in \[1, n/2\] = \[1, 3\], got 4$"):
            refuse()
    for c in (1, 3):
        check_budget(6, c)


@pytest.mark.parametrize("name, content, where, value", [
    ("g.txt", "0 1 1.0\n0 2 inf\n", "g.txt:2", "inf"),
    ("g.txt", "0 1 nan\n", "g.txt:1", "nan"),
    ("g.json", '{"n": 3, "edges": [[0, 1, 1.0], [1, 2, Infinity]]}', r"g.json: edges\[1\]", "inf"),
    ("g.json", '{"n": 3, "edges": [[0, 1, NaN]]}', r"g.json: edges\[0\]", "nan"),
])
def test_a_non_finite_weight_in_a_file_names_its_place(tmp_path, name, content, where, value):
    p = tmp_path / name
    p.write_text(content)
    with pytest.raises(GraphFormatError, match=f"{where}: weight {value} is not finite$"):
        read_graph(p)


def test_weights_are_immutable(k3):
    with pytest.raises(ValueError):
        k3.weights[0, 1] = 5.0


def test_cut_size_k3(k3):
    assert cut_size(k3, [1, -1, -1]) == 2.0
    assert cut_size(k3, [1, 1, 1]) == 0.0


def test_cut_size_two_node_separation():
    # 5-node graph: separating {0, 1} cuts exactly the edges leaving the pair
    g = generate_complete_graph(5, weights="uniform", seed=11, low=0.5, high=1.5)
    z = np.array([-1, -1, 1, 1, 1])
    w = g.weights
    expected = w[0, 2] + w[0, 3] + w[0, 4] + w[1, 2] + w[1, 3] + w[1, 4]
    assert cut_size(g, z) == pytest.approx(expected, rel=1e-12)


def test_cut_size_length_mismatch(k3):
    with pytest.raises(ValueError):
        cut_size(k3, [1, -1])
    with pytest.raises(ValueError):
        cut_size(k3, [1, 0, -1])


def test_a_cut_that_rounds_below_zero_reads_zero():
    # (sum - z'Wz)/4 subtracts two sums near 2e300; the cut of {4, 5, 6} is 0
    w = np.zeros((12, 12))
    w[0, 1] = w[1, 0] = 1e300
    w[2, 3] = w[3, 2] = 1e290
    g = WeightedGraph(w)
    z = np.ones(12)
    z[[4, 5, 6]] = -1
    assert 0.25 * (g.weight_sum - z @ g.weights @ z) < 0.0
    assert cut_size(g, z) == 0.0
    assert exhaustive_best(g, 3).cut == 0.0
    # a cut that does not round below 0 keeps its bits
    z = np.ones(12)
    z[[0, 2]] = -1
    assert cut_size(g, z) == 0.25 * (g.weight_sum - z @ g.weights @ z) > 0.0


def test_partition_count():
    assert partition_count([1, -1, -1]) == (2, 1)
    assert partition_count([-1] * 6) == (6, 0)
    assert partition_count([-1, 1, -1, 1]) == (2, 2)


@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_cut_size_sign_flip_symmetry(n, seed):
    g = generate_complete_graph(n, weights="uniform", seed=seed)
    z = np.where(np.random.default_rng(seed).random(n) < 0.5, -1, 1)
    assert cut_size(g, z) == pytest.approx(cut_size(g, -z), abs=1e-12)


@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_cut_size_matches_binary_quadratic_form(n, seed):
    # sum_ij d_ij (x_i - x_j)^2 over i<j with x = (z+1)/2
    g = generate_complete_graph(n, weights="uniform", seed=seed)
    z = np.where(np.random.default_rng(seed + 1).random(n) < 0.5, -1, 1)
    x = (z + 1) / 2
    brute = sum(
        g.weights[i, j] * (x[i] - x[j]) ** 2
        for i in range(n)
        for j in range(i + 1, n)
    )
    assert cut_size(g, z) == pytest.approx(brute, rel=1e-10)


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=30))
def test_partition_count_sums_to_n(z):
    minus, plus = partition_count(z)
    assert minus + plus == len(z)
    assert minus == z.count(-1)


# --- file round trips ---------------------------------------------------------

def test_edge_list_parsing(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n0 1 1.0\n0 2 2.5  # trailing comment\n")
    g = read_graph(p)
    assert g.n == 3
    assert g.weights[0, 1] == 1.0
    assert g.weights[0, 2] == 2.5
    assert g.weights[1, 2] == 0.0


@pytest.mark.parametrize("suffix", [".json", ".txt"])
def test_round_trip(tmp_path, suffix):
    p = tmp_path / f"g{suffix}"
    # the last node has no edges in the second graph, and the third has none
    for g in (generate_complete_graph(7, weights="uniform", seed=42),
              generate_complete_graph(5, seed=2, drop_prob=0.7),
              WeightedGraph(np.zeros((4, 4)))):
        write_graph(g, p)
        assert read_graph(p) == g


def test_conflicting_symmetric_entry(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 1.0\n1 0 2.0\n")
    with pytest.raises(GraphFormatError, match="conflicting"):
        read_graph(p)


def test_duplicate_consistent_entry_is_fine(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 1.5\n1 0 1.5\n")
    assert read_graph(p).weights[0, 1] == 1.5


def test_json_error_reports_field(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"n": 3, "edges": [[0, 1, 1.0], [0, 5, 1.0]]}')
    with pytest.raises(GraphFormatError, match=r"edges\[1\]"):
        read_graph(p)


def test_edge_list_error_reports_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 1.0\n0 two 3\n")
    with pytest.raises(GraphFormatError, match=":2"):
        read_graph(p)


@pytest.mark.parametrize(
    "content",
    # int() and float() alone would read the last three as edge (0, 10),
    # weight 25.0 and node 1
    ["0 0 1.0\n", "0 1 -2.0\n", "0 1\n", "", "0 1_0 1.0\n", "0 1 2_5\n", "0 \u0661 1.0\n"],
)
def test_malformed_edge_lists(tmp_path, content):
    p = tmp_path / "g.txt"
    p.write_text(content)
    with pytest.raises(GraphFormatError):
        read_graph(p)


@pytest.mark.parametrize("content, message", [
    ('{"n": 3, "edges": [[true, false, 1.0], [1, 2, 2.0]]}',
     r"edges\[0\]: node indices must be integers"),
    ('{"n": true, "edges": []}', "field 'n' must be an integer >= 2"),
    ('{"n": 3, "edges": [[0, 1, true]]}', r"edges\[0\]: weight must be a number"),
    ('{"n": 3, "edges": [[0, 1, 2.0], [1.0, 2, 1.0]]}',
     r"edges\[1\]: node indices must be integers"),
], ids=["bool-indices", "bool-n", "bool-weight", "float-index"])
def test_malformed_json_graphs(tmp_path, content, message):
    # a bool is no JSON integer or number; read as one, [true, false, 1.0]
    # would be a numpy mask write that sets no edge
    p = tmp_path / "g.json"
    p.write_text(content)
    with pytest.raises(GraphFormatError, match=message):
        read_graph(p)


def test_graph_hash_distinguishes_graphs():
    a = generate_complete_graph(5, weights="uniform", seed=1)
    b = generate_complete_graph(5, weights="uniform", seed=2)
    assert graph_hash(a) != graph_hash(b)
    assert graph_hash(a) == graph_hash(generate_complete_graph(5, weights="uniform", seed=1))
