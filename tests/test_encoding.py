import numpy as np
import pytest

import loop_reference
import pce_mincut.encoding as encoding
from dense_reference import pauli_matrix
from pce_mincut.encoding import (
    CapacityError,
    EncodingSpec,
    capacity,
    enumerate_strings,
    minimal_qubits,
)


def test_full_xyz_m3_k2_enumeration():
    spec = EncodingSpec(m=3, n_vars=9, k=2)
    assert enumerate_strings(spec) == [
        "IXX", "IYY", "IZZ", "XIX", "YIY", "ZIZ", "XXI", "YYI", "ZZI",
    ]


def test_single_pauli_z_m5_k2_enumeration():
    # the Z strings, every third, list position subsets anchored at the right end
    spec = EncodingSpec(m=5, n_vars=27, k=2)
    assert enumerate_strings(spec)[2::3] == [
        "IIIZZ", "IIZIZ", "IZIIZ", "ZIIIZ", "IIZZI",
        "IZIZI", "ZIIZI", "IZZII", "ZIZII",
    ]


def test_capacity_examples():
    assert capacity(4, 2) == 18
    assert capacity(3, 2) == 9
    assert capacity(5, 5) == 3


def test_capacity_rejects_bad_order():
    with pytest.raises(ValueError):
        capacity(3, 4)
    with pytest.raises(ValueError):
        capacity(3, 0)


@pytest.mark.parametrize("kw, match", [
    (dict(m=0, n_vars=1, k=1), "m must be at least 1"),
    (dict(m=3, n_vars=0, k=2), "n_vars must be at least 1"),
    (dict(m=3, n_vars=3, k=4), "order k=4 out of range for m=3"),
])
def test_spec_refuses_a_bad_field(kw, match):
    with pytest.raises(ValueError, match=match):
        EncodingSpec(**kw)


def test_minimal_qubits_examples():
    assert minimal_qubits(2, 6) == 3
    assert minimal_qubits(2, 18) == 4
    assert minimal_qubits(2, 19) == 5


def test_minimal_qubits_is_minimal():
    for k in (1, 2, 3):
        for n_vars in (1, 4, 11, 30):
            m = minimal_qubits(k, n_vars)
            assert capacity(m, k) >= n_vars
            if m > k:
                assert capacity(m - 1, k) < n_vars


def test_capacity_error_reports_requirement():
    with pytest.raises(CapacityError, match="holds 9 variables, need 10; smallest sufficient m is 4"):
        EncodingSpec(m=3, n_vars=10, k=2)


def test_enumeration_truncates_to_n_vars():
    spec = EncodingSpec(m=4, n_vars=14, k=2)
    strings = enumerate_strings(spec)
    assert len(strings) == 14
    assert len(set(strings)) == 14
    assert strings == enumerate_strings(EncodingSpec(m=4, n_vars=18, k=2))[:14]


def test_single_pauli_type_invariant():
    # every string carries one letter, on exactly k qubits
    for m in range(1, 6):
        for k in range(1, m + 1):
            for s in enumerate_strings(EncodingSpec(m=m, n_vars=capacity(m, k), k=k)):
                assert len(set(s) - {"I"}) == 1
                assert m - s.count("I") == k


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_groups_commute_under_matrix_multiplication(m):
    # strings of one letter commute; the Walsh-Hadamard kernel relies on it
    spec = EncodingSpec(m=m, n_vars=capacity(m, 2), k=2)
    groups = {}
    for s in enumerate_strings(spec):
        groups.setdefault(s.strip("I")[0], []).append(s)
    for group in groups.values():
        mats = [pauli_matrix(s) for s in group]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.allclose(mats[i] @ mats[j], mats[j] @ mats[i])


# m <= 9 and every order: 45 cases
REFERENCE_GRID = [(m, k) for m in range(1, 10) for k in range(1, m + 1)]


def test_capacity_and_strings_match_the_per_family_reference():
    assert len(REFERENCE_GRID) == 45
    for m, k in REFERENCE_GRID:
        cap = capacity(m, k)
        assert cap == loop_reference.capacity(m, k), (m, k)
        for n_vars in (1, cap):
            spec = EncodingSpec(m=m, n_vars=n_vars, k=k)
            assert enumerate_strings(spec) == loop_reference.enumerate_strings(spec), spec


def test_minimal_qubits_matches_the_per_family_reference():
    for k in range(1, 6):
        for n_vars in range(1, 600):
            assert minimal_qubits(k, n_vars) == loop_reference.minimal_qubits(k, n_vars), (
                k, n_vars)


@pytest.mark.parametrize("name, args", [
    ("capacity", (0, 1)),
    ("capacity", (-1, 1)),
    ("capacity", (0, 0)),
    ("capacity", (1, 0)),
    ("capacity", (3, 0)),
    ("capacity", (3, -1)),
    ("capacity", (3, 4)),
    ("capacity", (1, 2)),
    ("capacity", (4, 5)),
    ("capacity", (9, 10)),
    ("minimal_qubits", (2, 0)),
    ("minimal_qubits", (2, -1)),
    ("minimal_qubits", (0, 5)),
    ("minimal_qubits", (-1, 5)),
    ("minimal_qubits", (0, 0)),
    ("minimal_qubits", (1, 0)),
])
def test_refusals_match_the_per_family_reference(name, args):
    with pytest.raises(ValueError) as want:
        getattr(loop_reference, name)(*args)
    with pytest.raises(ValueError) as got:
        getattr(encoding, name)(*args)
    if name == "capacity":
        assert str(got.value) == str(want.value)
