import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce_mincut.graph import (
    GraphFormatError,
    WeightedGraph,
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
    ["0 0 1.0\n", "0 1 -2.0\n", "0 1\n", ""],
)
def test_malformed_edge_lists(tmp_path, content):
    p = tmp_path / "g.txt"
    p.write_text(content)
    with pytest.raises(GraphFormatError):
        read_graph(p)


def test_graph_hash_distinguishes_graphs():
    a = generate_complete_graph(5, weights="uniform", seed=1)
    b = generate_complete_graph(5, weights="uniform", seed=2)
    assert graph_hash(a) != graph_hash(b)
    assert graph_hash(a) == graph_hash(generate_complete_graph(5, weights="uniform", seed=1))
