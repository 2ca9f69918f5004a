import numpy as np
import pytest

import loop_reference
import pce_mincut.encoding as encoding
from dense_reference import pauli_matrix
from pce_mincut.encoding import (
    FAMILIES,
    PAULI_LETTERS,
    CapacityError,
    EncodingSpec,
    capacity,
    enumerate_strings,
    minimal_qubits,
)


def test_full_xyz_m3_k2_enumeration():
    spec = EncodingSpec("full_xyz", m=3, n_vars=9, k=2)
    assert enumerate_strings(spec) == [
        "IXX", "IYY", "IZZ", "XIX", "YIY", "ZIZ", "XXI", "YYI", "ZZI",
    ]


def test_single_pauli_z_m5_k2_enumeration():
    spec = EncodingSpec("single_pauli", m=5, n_vars=9, k=2, pauli="Z")
    assert enumerate_strings(spec) == [
        "IIIZZ", "IIZIZ", "IZIIZ", "ZIIIZ", "IIZZI",
        "IZIZI", "ZIIZI", "IZZII", "ZIZII",
    ]


def test_mixed_k_capacity_and_order():
    assert capacity("single_pauli_mixed", 4, (1, 4)) == 15
    spec = EncodingSpec("single_pauli_mixed", m=4, n_vars=15, k_range=(1, 4), pauli="Z")
    strings = enumerate_strings(spec)
    assert len(strings) == 15
    orders = [len(s) - s.count("I") for s in strings]
    assert orders == sorted(orders)  # ascending k
    assert strings[0] == "IIIZ"
    assert strings[-1] == "ZZZZ"


def test_capacity_examples():
    assert capacity("single_pauli", 4, 2) == 6
    assert capacity("full_xyz", 3, 2) == 9


def test_capacity_rejects_bad_order():
    with pytest.raises(ValueError):
        capacity("full_xyz", 3, 4)
    with pytest.raises(ValueError):
        capacity("single_pauli", 3, 0)


@pytest.mark.parametrize("family, order, match", [
    ("single_pauli_mixed", {"k": 2, "k_range": (1, 2)}, "and no k$"),
    ("full_xyz", {"k": 2, "k_range": (1, 5)}, "and no k_range$"),
    ("single_pauli", {"k": 2, "k_range": (1, 2)}, "and no k_range$"),
])
def test_spec_refuses_the_other_familys_order(family, order, match):
    with pytest.raises(ValueError, match=match):
        EncodingSpec(family, m=3, n_vars=3, **order)


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
    assert len(set(strings)) == 14
    assert strings == enumerate_strings(EncodingSpec("full_xyz", m=4, n_vars=18, k=2))[:14]


def test_single_pauli_type_invariant():
    for family, kw in (
        ("full_xyz", dict(k=2)),
        ("single_pauli", dict(k=2, pauli="X")),
        ("single_pauli_mixed", dict(k_range=(1, 3), pauli="Y")),
    ):
        spec = EncodingSpec(family, m=4, n_vars=capacity(family, 4, kw.get("k", kw.get("k_range"))), **kw)
        for s in enumerate_strings(spec):
            kinds = set(s) - {"I"}
            assert len(kinds) == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_groups_commute_under_matrix_multiplication(m):
    # strings of one letter commute; the Walsh-Hadamard kernel relies on it
    spec = EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, 2), k=2)
    groups = {}
    for s in enumerate_strings(spec):
        groups.setdefault(s.strip("I")[0], []).append(s)
    for group in groups.values():
        mats = [pauli_matrix(s) for s in group]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.allclose(mats[i] @ mats[j], mats[j] @ mats[i])


def _orders(family, m):
    """Every order, or every (lo, hi) range of the mixed family, on m qubits."""
    if family == "single_pauli_mixed":
        return [(lo, hi) for lo in range(1, m + 1) for hi in range(lo, m + 1)]
    return list(range(1, m + 1))


# every family, m <= 9, every order or range and every letter: 765 cases
REFERENCE_GRID = [(family, m, k, pauli) for family in FAMILIES for m in range(1, 10)
                  for k in _orders(family, m) for pauli in PAULI_LETTERS]


def test_capacity_and_strings_match_the_per_family_reference():
    assert len(REFERENCE_GRID) == 765
    for family, m, k, pauli in REFERENCE_GRID:
        cap = capacity(family, m, k)
        assert cap == loop_reference.capacity(family, m, k), (family, m, k)
        order = {"k_range": k} if family == "single_pauli_mixed" else {"k": k}
        for n_vars in (1, cap):
            spec = EncodingSpec(family, m=m, n_vars=n_vars, pauli=pauli, **order)
            assert enumerate_strings(spec) == loop_reference.enumerate_strings(spec), spec


def test_minimal_qubits_matches_the_per_family_reference():
    cases = [(family, k, n_vars) for family in ("full_xyz", "single_pauli")
             for k in range(1, 6) for n_vars in range(1, 600)]
    cases += [("single_pauli_mixed", (lo, hi), n_vars) for lo in range(1, 4)
              for hi in range(lo, 7) for n_vars in range(1, 400)]
    for family, k, n_vars in cases:
        assert minimal_qubits(family, k, n_vars) == loop_reference.minimal_qubits(
            family, k, n_vars), (family, k, n_vars)


@pytest.mark.parametrize("name, args", [
    ("capacity", ("bogus", 3, 2)),
    ("capacity", ("full_xyz", 0, 1)),
    ("capacity", ("single_pauli_mixed", 0, (1, 1))),
    ("capacity", ("full_xyz", 3, 0)),
    ("capacity", ("full_xyz", 3, 4)),
    ("capacity", ("single_pauli", 3, 0)),
    ("capacity", ("single_pauli", 3, 4)),
    ("capacity", ("single_pauli_mixed", 3, (0, 2))),
    ("capacity", ("single_pauli_mixed", 3, (2, 1))),
    ("capacity", ("single_pauli_mixed", 3, (1, 4))),
    ("minimal_qubits", ("bogus", 2, 5)),
    ("minimal_qubits", ("full_xyz", 2, 0)),
    ("minimal_qubits", ("full_xyz", 0, 5)),
    ("minimal_qubits", ("single_pauli", -1, 5)),
    ("minimal_qubits", ("single_pauli_mixed", (0, 2), 5)),
    ("minimal_qubits", ("single_pauli_mixed", (3, 2), 5)),
])
def test_refusals_match_the_per_family_reference(name, args):
    with pytest.raises(ValueError) as want:
        getattr(loop_reference, name)(*args)
    with pytest.raises(ValueError) as got:
        getattr(encoding, name)(*args)
    if name == "capacity":
        assert str(got.value) == str(want.value)
