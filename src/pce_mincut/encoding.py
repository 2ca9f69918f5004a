"""Pauli-string enumeration for the correlation encoding.

Each classical variable is carried by one Pauli string of order k: a tensor
product of single-qubit operators with k non-identity factors, all X, all Y
or all Z (Sciorilli et al., arXiv:2401.09421). On m qubits there are
3*C(m, k) such strings.

Strings render with qubit 0 leftmost, e.g. "IXX" acts on qubits 1 and 2.
The enumeration lists position subsets anchored at the right end of the
register, then letters: on m=3, k=2 it reads IXX, IYY, IZZ, XIX, YIY, ZIZ,
XXI, YYI, ZZI, and on m=5, k=2 its Z strings start IIIZZ, IIZIZ, IZIIZ.
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

PAULI_LETTERS = "XYZ"


class CapacityError(ValueError):
    """An encoding cannot hold the requested number of variables."""


@dataclass(frozen=True)
class EncodingSpec:
    """Which strings encode the n_vars classical variables on m qubits:
    variable i is carried by the i-th order-k string of enumerate_strings."""

    m: int
    n_vars: int
    k: int

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError("n_vars must be at least 1")
        cap = capacity(self.m, self.k)
        if cap < self.n_vars:
            raise CapacityError(
                f"order k={self.k} on m={self.m} holds {cap} variables, "
                f"need {self.n_vars}; smallest sufficient m is "
                f"{minimal_qubits(self.k, self.n_vars)}"
            )


def capacity(m: int, k: int) -> int:
    """Number of variables the order-k strings on m qubits can hold."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (1 <= k <= m):
        raise ValueError(f"order k={k} out of range for m={m}")
    return len(PAULI_LETTERS) * math.comb(m, k)


def minimal_qubits(k: int, n_vars: int) -> int:
    """Smallest qubit count m >= k whose order-k strings reach n_vars."""
    if n_vars < 1:
        raise ValueError("n_vars must be at least 1")
    if k < 1:
        raise ValueError(f"order k={k} out of range")
    m = k
    while capacity(m, k) < n_vars:
        m += 1
    return m


def _position_subsets(m: int, k: int):
    # Subsets anchored at the right end of the register: mirror each
    # lexicographic combination so IIIZZ precedes IIZIZ precedes IZIIZ.
    for combo in itertools.combinations(range(m), k):
        yield tuple(m - 1 - s for s in combo)


def enumerate_strings(spec: EncodingSpec) -> list[str]:
    """The first n_vars strings of the deterministic enumeration, as letters."""
    strings = ("".join(letter if q in positions else "I" for q in range(spec.m))
               for positions in _position_subsets(spec.m, spec.k)
               for letter in PAULI_LETTERS)
    return list(itertools.islice(strings, spec.n_vars))
