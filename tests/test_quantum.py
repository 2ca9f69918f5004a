import itertools

import numpy as np
import pytest

import loop_reference
from dense_reference import apply_pauli, dense_expectation, dense_prepare, pauli_matrix
from pce_mincut import quantum
from pce_mincut.encoding import EncodingSpec, capacity, enumerate_strings
from pce_mincut.quantum import (
    _WHT_MIN_QUBITS,
    ExpectationKernel,
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


@pytest.mark.parametrize("m", range(7, 11))  # the diagonal path
@pytest.mark.parametrize("layers", [1, 2])
def test_zero_angles_prepare_vacuum_on_the_diagonal_path(m, layers):
    # every transform of W|0...0> sums +-1 exactly and every 2^-m is exact
    psi = prepare_state(m, np.zeros(parameter_count(m, layers)), layers)
    expected = np.zeros(2**m, dtype=complex)
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


@pytest.mark.parametrize("m", range(1, 11))  # both sides of the kron/diag switch at 6/7
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_prepare_matches_dense_oracle(m, layers):
    rng = np.random.default_rng(100 * m + layers)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, parameter_count(m, layers))
        fast = prepare_state(m, theta, layers)
        dense = dense_prepare(m, theta, layers)
        assert np.max(np.abs(fast - dense)) < 1e-12


@pytest.mark.parametrize("m", range(1, 11))  # both sides of the kron/diag switch at 6/7
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_prepare_matches_loop_reference_bit_for_bit(m, layers):
    rng = np.random.default_rng(1000 * m + layers)
    dim = parameter_count(m, layers)
    thetas = [rng.uniform(-np.pi, np.pi, dim) for _ in range(3)]
    thetas.append(rng.choice([0.0, -0.0, np.pi, -np.pi, np.pi / 2], dim))
    for theta in thetas:
        got = prepare_state(m, theta, layers)
        assert got.tobytes() == loop_reference.prepare_state(m, theta, layers).tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8, 9, 10])
def test_norm_preserved(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12


def test_expectation_basis_state():
    z000 = np.zeros(8, dtype=complex)
    z000[0] = 1.0
    assert ExpectationKernel(["ZZI", "XXI"])(z000).tolist() == [1.0, 0.0]


def test_expectation_plus_state():
    plus = np.full(8, 1 / np.sqrt(8), dtype=complex)
    assert ExpectationKernel(["XIX"])(plus)[0] == pytest.approx(1.0, abs=1e-12)


def test_expectation_qubit_mismatch():
    z00 = np.zeros(4, dtype=complex)
    z00[0] = 1.0
    with pytest.raises(ValueError):
        ExpectationKernel(["ZZI"])(z00)


def test_expectations_batch_matches_scalar():
    z000 = np.zeros(8, dtype=complex)
    z000[0] = 1.0
    strings = enumerate_strings(EncodingSpec(m=3, n_vars=9, k=2))
    vals = ExpectationKernel(strings)(z000)
    assert np.array_equal(vals, [0, 0, 1, 0, 0, 1, 0, 0, 1])
    assert np.array_equal(vals, [dense_expectation(z000, s) for s in strings])
    assert np.array_equal(ExpectationKernel(["IZZ", "ZIZ", "ZZI"])(z000), [1, 1, 1])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_expectation_matches_dense_oracle(m):
    # each string on a kernel of its own
    rng = np.random.default_rng(m + 7)
    spec = EncodingSpec(m=m, n_vars=capacity(m, 2), k=2)
    strings = enumerate_strings(spec)
    for _ in range(10):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        for s in strings:
            assert ExpectationKernel([s])(psi)[0] == pytest.approx(
                dense_expectation(psi, s), abs=1e-10
            )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kernel_matches_scalar_path(m):
    rng = np.random.default_rng(m + 13)
    spec = EncodingSpec(m=m, n_vars=capacity(m, 2), k=2)
    strings = enumerate_strings(spec)
    kernel = ExpectationKernel(strings)
    for _ in range(10):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        want = [dense_expectation(psi, s) for s in strings]
        assert np.allclose(kernel(psi), want, rtol=0, atol=1e-13)


def test_kernel_mixed_orders():
    # every Y string on m=4, orders 1 to 4 in one kernel
    strings = ["".join(p) for p in itertools.product("IY", repeat=4)][1:]
    kernel = ExpectationKernel(strings)
    rng = np.random.default_rng(21)
    psi = prepare_state(4, rng.uniform(-np.pi, np.pi, 24))
    want = [dense_expectation(psi, s) for s in strings]
    assert np.allclose(kernel(psi), want, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pauli_bound_and_hermiticity(m):
    rng = np.random.default_rng(m + 17)
    spec = EncodingSpec(m=m, n_vars=capacity(m, 2), k=2)
    strings = enumerate_strings(spec)
    kernel = ExpectationKernel(strings)
    for _ in range(25):
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, 6 * m))
        assert np.all(np.abs(kernel(psi)) <= 1.0 + 1e-12)
        for s in strings:
            # the dense path asserts imag < 1e-10 internally
            dense_expectation(psi, s)


def test_numerics_names_each_path():
    assert numerics(6) == "prepare=kron;kernel=perm"
    assert numerics(7) == "prepare=diag;kernel=perm"
    assert numerics(8) == "prepare=diag;kernel=wht"


def _string_lists(m):
    """The encoding's strings at orders 1, 2 and 4, and for each letter its
    strings of order 3 and of every order, which the kernel takes as well."""
    lists = [enumerate_strings(EncodingSpec(m=m, n_vars=capacity(m, k), k=k)) for k in (1, 2, 4)]
    for letter in "XYZ":
        every = ["".join(p) for p in itertools.product("I" + letter, repeat=m)][1:]
        lists += [[s for s in every if m - s.count("I") == 3], every]
    return lists


def test_pauli_action_tables_equal_the_letter_loops_bytes():
    # every same-letter string on m = 1..7 qubits, the identity included: a
    # superset of the encoding's strings at every order
    for m in range(1, 8):
        strings = ["I" * m] + ["".join(p if (mask >> (m - 1 - q)) & 1 else "I"
                                       for q in range(m))
                               for p in "XYZ" for mask in range(1, 2**m)]
        for s in strings:
            got, want = quantum._pauli_action(s), loop_reference.pauli_action(s)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), s


@pytest.mark.parametrize("m", range(1, 5))
def test_apply_pauli_matches_the_dense_matrix(m):
    rng = np.random.default_rng(m)
    psi = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    for letters in itertools.product("IXYZ", repeat=m):
        s = "".join(letters)
        np.testing.assert_allclose(apply_pauli(s, psi), pauli_matrix(s) @ psi, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [T - 1, T, T + 1])
def test_kernel_matches_perm_reference_across_the_wht_switch(m):
    rng = np.random.default_rng(m + 31)
    states = [prepare_state(m, rng.uniform(-np.pi, np.pi, parameter_count(m, layers)), layers)
              for layers in (1, 2)]
    for strings in _string_lists(m):
        kernel = ExpectationKernel(strings)
        want = np.array([[np.vdot(psi, apply_pauli(s, psi)).real for psi in states]
                         for s in strings])
        for psi, column in zip(states, want.T):
            got = kernel(psi)
            assert got.shape == (len(strings),)
            assert np.allclose(got, column, rtol=0, atol=1e-13)


def test_wht_kernel_exact_on_basis_states():
    dim = 2**T
    zero = np.zeros(dim, dtype=complex)
    zero[0] = 1.0
    plus = np.full(dim, 1 / np.sqrt(dim), dtype=complex)  # 1/16: exact at m=8
    strings = enumerate_strings(EncodingSpec(m=T, n_vars=capacity(T, 2),
                                             k=2))
    kernel = ExpectationKernel(strings)
    letters = [s.strip("I")[0] for s in strings]
    assert kernel(zero).tolist() == [1.0 if p == "Z" else 0.0 for p in letters]
    assert kernel(plus).tolist() == [1.0 if p == "X" else 0.0 for p in letters]


def test_wht_kernel_matches_dense_oracle():
    rng = np.random.default_rng(41)
    psi = prepare_state(T, rng.uniform(-np.pi, np.pi, parameter_count(T)))
    strings = enumerate_strings(EncodingSpec(m=T, n_vars=capacity(T, 3),
                                             k=3))[::23]
    assert {s.strip("I")[0] for s in strings} == set("XYZ")
    want = [dense_expectation(psi, s) for s in strings]
    assert np.allclose(ExpectationKernel(strings)(psi), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [3, T])
def test_kernel_refuses_mixed_letter_strings(m):
    with pytest.raises(ValueError, match="mixes Pauli letters"):
        ExpectationKernel(["XZ" + "I" * (m - 2)])


def test_invalid_letters_are_refused():
    with pytest.raises(ValueError, match="invalid Pauli"):
        ExpectationKernel(["IQ"])


# kron path up to m=6, diag from m=7, WHT kernel from m=8
@pytest.mark.parametrize("m", range(1, 11))
def test_stacked_calls_give_each_row_the_bytes_of_a_1d_call(m):
    rng = np.random.default_rng(m + 47)
    k = 1 if m < 4 else 2
    strings = enumerate_strings(EncodingSpec(m=m, n_vars=capacity(m, k), k=k))
    for layers in (1, 2):
        for rows in (1, 2, 7, 40):
            thetas = rng.uniform(-np.pi, np.pi, (rows, parameter_count(m, layers)))
            states = prepare_state(m, thetas, layers)
            assert states.shape == (rows, 2**m)
            values = ExpectationKernel(strings)(states)
            assert values.shape == (rows, len(strings))
            for theta, state, row in zip(thetas, states, values):
                psi = prepare_state(m, theta, layers)
                assert state.tobytes() == psi.tobytes()
                assert row.tobytes() == ExpectationKernel(strings)(psi).tobytes()


# perm kernel up to m=7, WHT from m=8
@pytest.mark.parametrize("m", range(1, 11))
def test_kernel_matches_the_1d_reference_bit_for_bit(m):
    rng = np.random.default_rng(m + 59)
    k = 1 if m < 4 else 2
    strings = enumerate_strings(EncodingSpec(m=m, n_vars=capacity(m, k), k=k))
    kernel = ExpectationKernel(strings)
    for layers in (1, 2):
        dim = parameter_count(m, layers)
        psi = prepare_state(m, rng.uniform(-np.pi, np.pi, dim), layers)
        assert kernel(psi).tobytes() == loop_reference.expectations(psi, strings).tobytes()
        for rows in (1, 7, 40):
            states = prepare_state(m, rng.uniform(-np.pi, np.pi, (rows, dim)), layers)
            values = kernel(states)
            assert values.shape == (rows, len(strings))
            for state, row in zip(states, values):
                assert row.tobytes() == loop_reference.expectations(state, strings).tobytes()


@pytest.mark.parametrize("m", [T, T + 1])
def test_wht_kernel_transforms_a_stack_in_one_pass(m, monkeypatch):
    rng = np.random.default_rng(m + 61)
    strings = enumerate_strings(EncodingSpec(m=m, n_vars=capacity(m, 2), k=2))
    kernel = ExpectationKernel(strings)
    # prepared before _wht is patched, so the transforms of state preparation
    # are not counted
    states = [prepare_state(m, rng.uniform(-np.pi, np.pi, shape + (parameter_count(m),)))
              for shape in ((), (1,), (12,))]
    wht, calls = quantum._wht, []
    monkeypatch.setattr(quantum, "_wht", lambda rows, m: calls.append(rows.shape) or wht(rows, m))
    for psi in states:
        calls.clear()
        kernel(psi)
        assert len(calls) == 2  # the X and Y amplitudes, then the three probability rows


@pytest.mark.parametrize("m", range(7, 11))
def test_diag_path_prepares_a_stack_in_one_pass(m, monkeypatch):
    rng = np.random.default_rng(m + 53)
    thetas = rng.uniform(-np.pi, np.pi, (40, parameter_count(m, 2)))
    want = [prepare_state(m, theta, 2).tobytes() for theta in thetas]
    calls, transforms = [], []
    monkeypatch.setattr(quantum, "prepare_state",
                        lambda *args: calls.append(args) or prepare_state(*args))
    wht = quantum._wht
    monkeypatch.setattr(quantum, "_wht", lambda rows, m: transforms.append(rows.shape) or wht(rows, m))
    states = quantum.prepare_state(m, thetas, 2)
    assert len(calls) == 1  # no row went through a call of its own
    assert transforms == [(40, 2**m)] * 9  # two per column of five, W|0...0> taken as known
    assert [state.tobytes() for state in states] == want


@pytest.mark.parametrize("m", range(2, 13))
def test_wht_of_complex_rows_has_the_bits_of_the_complex_product(m):
    # the real view against h_b (x) I_2 must round as h_a @ blocks @ h_b on
    # complex blocks did, which is what loop_reference.wht computes; the
    # strided (rows, 2, 2^m) slice is the one the kernel transforms
    rng = np.random.default_rng(m + 67)
    for rows in (1, 2, 7, 12):
        amps = rng.normal(size=(rows, 3, 2**m)) + 1j * rng.normal(size=(rows, 3, 2**m))
        for block in (amps[:, 0], amps[:, :2]):
            got = quantum._wht(block, m)
            want = loop_reference.wht(block.reshape(-1, 2**m), m).reshape(block.shape)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_kernel_buffers_survive_a_stack_that_shrinks_and_grows():
    rng = np.random.default_rng(5)
    strings = enumerate_strings(EncodingSpec(m=4, n_vars=capacity(4, 2), k=2))
    kernel, fresh = ExpectationKernel(strings), ExpectationKernel(strings)
    for rows in (7, 2, 1, 3, 12, 1, 12):
        states = prepare_state(4, rng.uniform(-np.pi, np.pi, (rows, parameter_count(4))))
        values = kernel(states)
        want = [fresh(psi) for psi in states]  # 1-D calls on a kernel of its own
        assert [row.tobytes() for row in values] == [w.tobytes() for w in want]
        assert kernel(states[0]).tobytes() == want[0].tobytes()


def test_stacked_shapes_are_checked():
    with pytest.raises(ValueError):
        prepare_state(3, np.zeros((2, 17)))
    with pytest.raises(ValueError):
        prepare_state(3, np.zeros((2, 2, 18)))
    kernel = ExpectationKernel(["ZII", "IZI"])
    with pytest.raises(ValueError):
        kernel(np.zeros((2, 4), dtype=complex))
