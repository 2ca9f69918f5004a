"""Pauli-string enumeration for the correlation encodings.

Each classical variable is carried by one Pauli string: a tensor product of
single-qubit operators whose non-identity factors share one Pauli letter.
A family is one rule, a letter set and an order range lo..hi; on m qubits
it holds len(letters) * sum C(m, k) over k in lo..hi variables:

  full_xyz            letters X, Y and Z, fixed order k   (capacity 3*C(m,k))
  single_pauli        one letter, fixed order k           (capacity C(m,k))
  single_pauli_mixed  one letter, orders k in [lo, hi]    (capacity sum C(m,k))

Strings render with qubit 0 leftmost, e.g. "IXX" acts on qubits 1 and 2.
The enumeration lists ascending orders, then position subsets anchored at
the right end of the register, then letters: "single_pauli" k=2 on m=5
starts IIIZZ, IIZIZ, IZIIZ, ... and full_xyz on m=3 reads IXX, IYY, IZZ,
XIX, YIY, ZIZ, XXI, YYI, ZZI. Low-order strings (typically the
larger-magnitude correlators) land on the first variables.
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
            if self.k_range is None or self.k is not None:
                raise ValueError("single_pauli_mixed needs k_range=(lo, hi) and no k")
            object.__setattr__(self, "k_range", tuple(self.k_range))
        elif self.k is None or self.k_range is not None:
            raise ValueError(f"{self.family} needs a fixed order k and no k_range")
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


def _rule(family: str, k, pauli: str = "Z") -> tuple[str, int, int, str]:
    """A family's letters and orders lo..hi, and its k as an error names it;
    k is an order, or (lo, hi) for the mixed family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown encoding family {family!r}")
    if family == "single_pauli_mixed":
        lo, hi = k
        return pauli, lo, hi, f"k_range {k}"
    return PAULI_LETTERS if family == "full_xyz" else pauli, k, k, f"order k={k}"


def _count(letters: str, lo: int, hi: int, m: int) -> int:
    return len(letters) * sum(math.comb(m, kk) for kk in range(lo, hi + 1))


def capacity(family: str, m: int, k) -> int:
    """Number of variables the encoding can hold; k is an order or (lo, hi)."""
    letters, lo, hi, name = _rule(family, k)
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (1 <= lo <= hi <= m):
        raise ValueError(f"{name} out of range for m={m}")
    return _count(letters, lo, hi, m)


def minimal_qubits(family: str, k, n_vars: int) -> int:
    """Smallest qubit count m >= lo whose strings reach n_vars; k as in capacity."""
    if n_vars < 1:
        raise ValueError("n_vars must be at least 1")
    letters, lo, hi, name = _rule(family, k)
    if not (1 <= lo <= hi):
        raise ValueError(f"{name} out of range")
    m = lo  # C(m, k) is 0 for k > m, so a register below hi counts what it holds
    while _count(letters, lo, hi, m) < n_vars:
        m += 1
    return m


def _position_subsets(m: int, k: int):
    # Subsets anchored at the right end of the register: mirror each
    # lexicographic combination so IIIZZ precedes IIZIZ precedes IZIIZ.
    for combo in itertools.combinations(range(m), k):
        yield tuple(m - 1 - s for s in combo)


def _string_at(m: int, positions, letter: str) -> str:
    return "".join(letter if q in positions else "I" for q in range(m))


def enumerate_strings(spec: EncodingSpec) -> list[str]:
    """The first n_vars strings of the family's deterministic enumeration, as letters."""
    letters, lo, hi, _ = _rule(spec.family, spec.k if spec.k is not None else spec.k_range,
                               spec.pauli)
    strings = (_string_at(spec.m, positions, letter)
               for kk in range(lo, hi + 1)
               for positions in _position_subsets(spec.m, kk)
               for letter in letters)
    return list(itertools.islice(strings, spec.n_vars))
