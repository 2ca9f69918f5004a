"""Pauli-string enumeration for the correlation encodings.

Each classical variable is carried by one Pauli string: a tensor product of
single-qubit operators where every non-identity factor is the same Pauli
letter. Three families are supported:

  full_xyz            fixed order k, letters X, Y and Z   (capacity 3*C(m,k))
  single_pauli        fixed order k, one letter           (capacity C(m,k))
  single_pauli_mixed  one letter, orders k in [lo, hi]    (capacity sum C(m,k))

Strings render with qubit 0 leftmost, e.g. "IXX" acts on qubits 1 and 2.
The enumeration anchors position subsets at the right end of the register,
so the first strings of "single_pauli" k=2 on m=5 read IIIZZ, IIZIZ, IZIIZ,
... and the full_xyz order on m=3 reads IXX, IYY, IZZ, XIX, YIY, ZIZ, XXI,
YYI, ZZI. Mixed-order enumeration lists ascending k, so low-order strings
(typically the larger-magnitude correlators) land on the first variables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "CapacityError",
    "EncodingSpec",
    "capacity",
    "minimal_qubits",
    "enumerate_strings",
]

FAMILIES = ("full_xyz", "single_pauli", "single_pauli_mixed")
PAULI_LETTERS = "XYZ"


class CapacityError(ValueError):
    """An encoding cannot hold the requested number of variables."""


@dataclass(frozen=True)
class EncodingSpec:
    """Which strings encode the n_vars classical variables on m qubits.

    Variable i is carried by the i-th string of the family's enumeration
    (see enumerate_strings). The fixed families take an order k; the mixed
    family takes k_range=(lo, hi). pauli picks the letter of the
    single-letter families and is ignored by full_xyz.
    """

    family: str
    m: int
    n_vars: int
    k: int | None = None
    k_range: tuple[int, int] | None = None
    pauli: str = "Z"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown encoding family {self.family!r}")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.n_vars < 1:
            raise ValueError("n_vars must be at least 1")
        if self.family == "single_pauli_mixed":
            if self.k_range is None:
                raise ValueError("single_pauli_mixed needs k_range=(lo, hi)")
            object.__setattr__(self, "k_range", tuple(self.k_range))
        else:
            if self.k is None:
                raise ValueError(f"{self.family} needs a fixed order k")
        if self.family != "full_xyz" and self.pauli not in PAULI_LETTERS:
            raise ValueError(f"pauli must be one of {PAULI_LETTERS!r}")
        order = self.k if self.k is not None else self.k_range
        cap = capacity(self.family, self.m, order)
        if cap < self.n_vars:
            raise CapacityError(
                f"{self.family} on m={self.m} holds {cap} variables, "
                f"need {self.n_vars}; smallest sufficient m is "
                f"{minimal_qubits(self.family, order, self.n_vars)}"
            )


def capacity(family: str, m: int, k) -> int:
    """Number of variables the encoding can hold; k is an order or (lo, hi)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown encoding family {family!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    if family == "single_pauli_mixed":
        lo, hi = k
        if not (1 <= lo <= hi <= m):
            raise ValueError(f"k_range {k} out of range for m={m}")
        return sum(math.comb(m, kk) for kk in range(lo, hi + 1))
    if not (1 <= k <= m):
        raise ValueError(f"order k={k} out of range for m={m}")
    per_letter = math.comb(m, k)
    return 3 * per_letter if family == "full_xyz" else per_letter


def minimal_qubits(family: str, k, n_vars: int) -> int:
    """Smallest qubit count whose capacity reaches n_vars.

    For the mixed family k is (lo, hi); the upper order is clipped to m while
    searching, matching how a register smaller than hi would be used.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be at least 1")
    if family == "single_pauli_mixed":
        lo, hi = k
        m = lo
        while capacity(family, m, (lo, min(hi, m))) < n_vars:
            m += 1
        return m
    m = k
    while capacity(family, m, k) < n_vars:
        m += 1
    return m


def _position_subsets(m: int, k: int):
    # Subsets anchored at the right end of the register: mirror each
    # lexicographic combination so IIIZZ precedes IIZIZ precedes IZIIZ.
    for combo in itertools.combinations(range(m), k):
        yield tuple(m - 1 - s for s in combo)


def _string_at(m: int, positions, letter: str) -> str:
    chars = ["I"] * m
    for p in positions:
        chars[p] = letter
    return "".join(chars)


def enumerate_strings(spec: EncodingSpec) -> list[str]:
    """The first n_vars strings of the family's deterministic enumeration, as letters."""
    letters: list[str] = []
    if spec.family == "full_xyz":
        for positions in _position_subsets(spec.m, spec.k):
            for letter in PAULI_LETTERS:
                letters.append(_string_at(spec.m, positions, letter))
    elif spec.family == "single_pauli":
        for positions in _position_subsets(spec.m, spec.k):
            letters.append(_string_at(spec.m, positions, spec.pauli))
    else:
        lo, hi = spec.k_range
        for kk in range(lo, hi + 1):
            for positions in _position_subsets(spec.m, kk):
                letters.append(_string_at(spec.m, positions, spec.pauli))
    return letters[: spec.n_vars]

