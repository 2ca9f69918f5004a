import numpy as np
import pytest

from dense_reference import pauli_matrix
from pce_mincut.encoding import (
    CapacityError,
    EncodingSpec,
    PauliString,
    capacity,
    commuting_groups,
    enumerate_strings,
    minimal_qubits,
)


def letters_of(spec):
    return [s.letters for s in enumerate_strings(spec)]


def test_full_xyz_m3_k2_enumeration():
    spec = EncodingSpec("full_xyz", m=3, n_vars=9, k=2)
    assert letters_of(spec) == [
        "IXX", "IYY", "IZZ", "XIX", "YIY", "ZIZ", "XXI", "YYI", "ZZI",
    ]


def test_single_pauli_z_m5_k2_enumeration():
    spec = EncodingSpec("single_pauli", m=5, n_vars=9, k=2, pauli="Z")
    assert letters_of(spec) == [
        "IIIZZ", "IIZIZ", "IZIIZ", "ZIIIZ", "IIZZI",
        "IZIZI", "ZIIZI", "IZZII", "ZIZII",
    ]


def test_mixed_k_capacity_and_order():
    assert capacity("single_pauli_mixed", 4, (1, 4)) == 15
    spec = EncodingSpec("single_pauli_mixed", m=4, n_vars=15, k_range=(1, 4), pauli="Z")
    strings = enumerate_strings(spec)
    assert len(strings) == 15
    orders = [s.order_k for s in strings]
    assert orders == sorted(orders)  # ascending k
    assert strings[0].letters == "IIIZ"
    assert strings[-1].letters == "ZZZZ"


def test_capacity_examples():
    assert capacity("single_pauli", 4, 2) == 6
    assert capacity("full_xyz", 3, 2) == 9


def test_capacity_rejects_bad_order():
    with pytest.raises(ValueError):
        capacity("full_xyz", 3, 4)
    with pytest.raises(ValueError):
        capacity("single_pauli", 3, 0)


def test_minimal_qubits_examples():
    assert minimal_qubits("full_xyz", 2, 6) == 3
    assert minimal_qubits("full_xyz", 2, 18) == 4
    assert minimal_qubits("single_pauli", 2, 9) == 5


def test_minimal_qubits_is_minimal():
    for family in ("full_xyz", "single_pauli"):
        for k in (1, 2, 3):
            for n_vars in (1, 4, 11, 30):
                m = minimal_qubits(family, k, n_vars)
                assert capacity(family, m, k) >= n_vars
                if m > k:
                    assert capacity(family, m - 1, k) < n_vars


def test_capacity_error_reports_requirement():
    with pytest.raises(CapacityError, match="smallest sufficient m"):
        EncodingSpec("full_xyz", m=3, n_vars=10, k=2)


def test_enumeration_truncates_to_n_vars():
    spec = EncodingSpec("full_xyz", m=4, n_vars=14, k=2)
    strings = enumerate_strings(spec)
    assert len(strings) == 14
    assert len({s.letters for s in strings}) == 14
    assert [s.variable_index for s in strings] == list(range(14))


def test_single_pauli_type_invariant():
    for family, kw in (
        ("full_xyz", dict(k=2)),
        ("single_pauli", dict(k=2, pauli="X")),
        ("single_pauli_mixed", dict(k_range=(1, 3), pauli="Y")),
    ):
        spec = EncodingSpec(family, m=4, n_vars=capacity(family, 4, kw.get("k", kw.get("k_range"))), **kw)
        for s in enumerate_strings(spec):
            kinds = {ch for ch in s.letters if ch != "I"}
            assert len(kinds) == 1


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("IXZ")  # mixed types
    with pytest.raises(ValueError):
        PauliString("III")  # no support
    with pytest.raises(ValueError):
        PauliString("IQ")
    p = PauliString("IXX")
    assert p.order_k == 2 and p.m == 3 and p.pauli == "X"


def test_commuting_groups_full_xyz():
    spec = EncodingSpec("full_xyz", m=3, n_vars=9, k=2)
    groups = commuting_groups(enumerate_strings(spec))
    assert [len(g) for g in groups] == [3, 3, 3]
    assert {s.pauli for s in groups[0]} == {"X"}
    assert {s.pauli for s in groups[2]} == {"Z"}


def test_commuting_groups_single_pauli():
    spec = EncodingSpec("single_pauli", m=4, n_vars=6, k=2, pauli="Z")
    groups = commuting_groups(enumerate_strings(spec))
    assert len(groups) == 1 and len(groups[0]) == 6


def test_commuting_groups_empty():
    assert commuting_groups([]) == []


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_groups_commute_under_matrix_multiplication(m):
    spec = EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, 2), k=2)
    for group in commuting_groups(enumerate_strings(spec)):
        mats = [pauli_matrix(s.letters) for s in group]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.allclose(mats[i] @ mats[j], mats[j] @ mats[i])

