import numpy as np
import pytest

import loop_reference
from dense_reference import dense_expectation, dense_prepare
from pce_mincut.encoding import EncodingSpec, capacity, enumerate_strings
from pce_mincut.quantum import (
    _WHT_MIN_QUBITS,
    ExpectationKernel,
    expectation,
    expectations,
    numerics,
    parameter_count,
    prepare_state,
)

T = _WHT_MIN_QUBITS


def test_parameter_count():
    assert parameter_count(3, 1) == 18
    assert parameter_count(1, 1) == 6
    assert parameter_count(4, 2) == 40


def test_zero_angles_prepare_vacuum():
    psi = prepare_state(3, np.zeros(18))
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(psi, expected)


def test_ry_pi_flips_single_qubit():
    theta = np.zeros(6)
    theta[0] = np.pi  # first column's RY on the only qubit
    psi = prepare_state(1, theta)
    assert abs(psi[0]) < 1e-12
    assert abs(abs(psi[1]) - 1.0) < 1e-12


def test_prepare_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        prepare_state(3, np.zeros(17))


def test_prepare_state_deterministic():
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, 24)
    a = prepare_state(4, theta)
    b = prepare_state(4, theta)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("layers", [1, 2])
def test_prepare_matches_dense_oracle(m, layers):
    rng = np.random.default_rng(100 * m + layers)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, parameter_count(m, layers))
        fast = prepare_state(m, theta, layers)
        dense = dense_prepare(m, theta, layers)
        assert np.max(np.abs(fast - dense)) < 1e-12


@pytest.mark.parametrize("m", range(1, 11))  # both sides of the kron/sweep switch at 6/7
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_prepare_matches_loop_reference_bit_for_bit(m, layers):
    rng = np.random.default_rng(1000 * m + layers)
    dim = parameter_count(m, layers)
    thetas = [rng.uniform(-np.pi, np.pi, dim) for _ in range(3)]
    thetas.append(rng.choice([0.0, -0.0, np.pi, -np.pi, np.pi / 2], dim))
    for theta in thetas:
        got = prepare_state(m, theta, layers)
        assert got.tobytes() == loop_reference.prepare_state(m, theta, layers).tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_norm_preserved(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12


def test_expectation_basis_state():
    z000 = np.zeros(8, dtype=complex)
    z000[0] = 1.0
    assert expectation(z000, "ZZI") == 1.0
    assert expectation(z000, "XXI") == 0.0


def test_expectation_plus_state():
    plus = np.full(8, 1 / np.sqrt(8), dtype=complex)
    assert expectation(plus, "XIX") == pytest.approx(1.0, abs=1e-12)


def test_expectation_qubit_mismatch():
    z00 = np.zeros(4, dtype=complex)
    z00[0] = 1.0
    with pytest.raises(ValueError):
        expectation(z00, "ZZI")


def test_expectations_batch_matches_scalar():
    z000 = np.zeros(8, dtype=complex)
    z000[0] = 1.0
    strings = enumerate_strings(EncodingSpec("full_xyz", m=3, n_vars=9, k=2))
    vals = expectations(z000, strings)
    assert np.array_equal(vals, [0, 0, 1, 0, 0, 1, 0, 0, 1])
    assert np.array_equal(expectations(z000, ["IZZ", "ZIZ", "ZZI"]), [1, 1, 1])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_expectation_matches_dense_oracle(m):
    rng = np.random.default_rng(m + 7)
    spec = EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, 2), k=2)
    strings = enumerate_strings(spec)
    for _ in range(10):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        for s in strings:
            assert expectation(psi, s) == pytest.approx(
                dense_expectation(psi, s.letters), abs=1e-10
            )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kernel_matches_scalar_path(m):
    rng = np.random.default_rng(m + 13)
    spec = EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, 2), k=2)
    strings = enumerate_strings(spec)
    kernel = ExpectationKernel(strings)
    for _ in range(10):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        assert np.allclose(kernel(psi), expectations(psi, strings), atol=1e-13)


def test_kernel_mixed_orders():
    spec = EncodingSpec("single_pauli_mixed", m=4, n_vars=15, k_range=(1, 4), pauli="Y")
    strings = enumerate_strings(spec)
    kernel = ExpectationKernel(strings)
    rng = np.random.default_rng(21)
    psi = prepare_state(4, rng.uniform(-np.pi, np.pi, 24))
    want = [dense_expectation(psi, s.letters) for s in strings]
    assert np.allclose(kernel(psi), want, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pauli_bound_and_hermiticity(m):
    rng = np.random.default_rng(m + 17)
    spec = EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, 2), k=2)
    strings = enumerate_strings(spec)
    for _ in range(25):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        for s in strings:
            val = expectation(psi, s)
            assert abs(val) <= 1.0 + 1e-12
            # the dense path asserts imag < 1e-10 internally
            dense_expectation(psi, s.letters)


def test_numerics_names_each_path():
    assert numerics(6) == "prepare=kron;kernel=perm"
    assert numerics(7) == "prepare=sweep;kernel=perm"
    assert numerics(8) == "prepare=sweep;kernel=wht"


def _encodings(m):
    """One encoding of each family and letter, mixed orders included."""
    specs = [EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, k), k=k)
             for k in (1, 2, 4)]
    for pauli in "XYZ":
        specs.append(EncodingSpec("single_pauli", m=m, n_vars=capacity("single_pauli", m, 3),
                                  k=3, pauli=pauli))
        specs.append(EncodingSpec("single_pauli_mixed", m=m, pauli=pauli, k_range=(1, m),
                                  n_vars=capacity("single_pauli_mixed", m, (1, m))))
    return specs


@pytest.mark.parametrize("m", [T - 1, T, T + 1])
def test_kernel_matches_perm_reference_across_the_wht_switch(m):
    rng = np.random.default_rng(m + 31)
    states = [prepare_state(m, rng.uniform(-np.pi, np.pi, parameter_count(m, layers)), layers)
              for layers in (1, 2)]
    for spec in _encodings(m):
        strings = enumerate_strings(spec)
        kernel = ExpectationKernel(strings)
        for psi in states:
            got = kernel(psi)
            assert got.shape == (len(strings),)
            assert np.allclose(got, expectations(psi, strings), rtol=0, atol=1e-13)


def test_wht_kernel_exact_on_basis_states():
    dim = 2**T
    zero = np.zeros(dim, dtype=complex)
    zero[0] = 1.0
    plus = np.full(dim, 1 / np.sqrt(dim), dtype=complex)  # 1/16: exact at m=8
    strings = enumerate_strings(EncodingSpec("full_xyz", m=T, n_vars=capacity("full_xyz", T, 2),
                                             k=2))
    kernel = ExpectationKernel(strings)
    letters = [s.pauli for s in strings]
    assert kernel(zero).tolist() == [1.0 if p == "Z" else 0.0 for p in letters]
    assert kernel(plus).tolist() == [1.0 if p == "X" else 0.0 for p in letters]


def test_wht_kernel_matches_dense_oracle():
    rng = np.random.default_rng(41)
    psi = prepare_state(T, rng.uniform(-np.pi, np.pi, parameter_count(T)))
    strings = enumerate_strings(EncodingSpec("full_xyz", m=T, n_vars=capacity("full_xyz", T, 3),
                                             k=3))[::23]
    assert {s.pauli for s in strings} == set("XYZ")
    want = [dense_expectation(psi, s.letters) for s in strings]
    assert np.allclose(ExpectationKernel(strings)(psi), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [3, T])
def test_kernel_refuses_mixed_letter_strings(m):
    with pytest.raises(ValueError, match="mixes Pauli letters"):
        ExpectationKernel(["XZ" + "I" * (m - 2)])
