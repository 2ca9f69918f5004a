"""Exact statevector simulation of the brickwork ansatz.

States are flat complex vectors of length 2**m; basis index b has qubit 0 as
its most significant bit, so index 0b100 on three qubits means qubit 0 in
state |1>.

Ansatz layout (single layer unless configured otherwise):

    [RY+RZ column] [CZ on (0,1),(2,3),..] [RY+RZ column] [CZ on (1,2),(3,4),..]
    ... repeated per layer ... [final RY+RZ column]

Each rotation column holds one RY and one RZ angle per qubit, giving
2*m*(2*layers + 1) parameters in total. Parameters are laid out column by
column: within column c, theta[c*2m : c*2m+m] are the RY angles for qubits
0..m-1 and the next m entries are the RZ angles. All angles zero prepares
|0...0> exactly.

Expectation values are computed exactly (no shot sampling): a Pauli string
acts as an index permutation plus a diagonal phase, so <P> costs one fancy
index and one dot product per string.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .encoding import PauliString

__all__ = [
    "parameter_count",
    "prepare_state",
    "expectation",
    "expectations",
    "ExpectationKernel",
]


def parameter_count(m: int, layers: int = 1) -> int:
    """Angles consumed by the ansatz: 2*m per rotation column, 2*layers+1 columns."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if layers < 1:
        raise ValueError("layers must be at least 1")
    return 2 * m * (2 * layers + 1)


@lru_cache(maxsize=None)
def _cz_mask(m: int, parity: int) -> np.ndarray:
    """Diagonal of the CZ brick column: -1 where both qubits of a pair are 1.

    parity 0 pairs (0,1),(2,3),...; parity 1 pairs (1,2),(3,4),...
    """
    sign = np.ones(2**m)
    idx = np.arange(2**m)
    for q in range(parity, m - 1, 2):
        bit_a = (idx >> (m - 1 - q)) & 1
        bit_b = (idx >> (m - 2 - q)) & 1
        sign *= np.where(bit_a & bit_b, -1.0, 1.0)
    sign.setflags(write=False)
    return sign


def _column_mats(angles: np.ndarray) -> np.ndarray:
    """Fused RZ(rz) @ RY(ry) for every (column, qubit), built vectorized.

    angles has shape (n_cols, 2, m), RY angles then RZ angles per column;
    the result has shape (n_cols, m, 2, 2).
    """
    ry, rz = angles[:, 0], angles[:, 1]
    c, s = np.cos(ry / 2.0), np.sin(ry / 2.0)
    pm = np.exp(-0.5j * rz)
    pp = np.exp(0.5j * rz)
    mats = np.empty(ry.shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = pm * c
    mats[..., 0, 1] = -pm * s
    mats[..., 1, 0] = pp * s
    mats[..., 1, 1] = pp * c
    return mats


def _kron_chain(mats: np.ndarray) -> np.ndarray:
    """Column unitaries kron(mats[c, 0], ..., mats[c, m-1]): (n_cols, 2^m, 2^m)."""
    u = mats[:, 0]
    for q in range(1, mats.shape[1]):
        v = mats[:, q]
        d = u.shape[1]
        u = (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(-1, 2 * d, 2 * d)
    return u


def _apply_1q(psi: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    v = psi.reshape(2**q, 2, -1)
    out = np.empty_like(v)
    out[:, 0] = mat[0, 0] * v[:, 0] + mat[0, 1] * v[:, 1]
    out[:, 1] = mat[1, 0] * v[:, 0] + mat[1, 1] * v[:, 1]
    return out.reshape(-1)


# Registers up to this size apply each column as one 2^m x 2^m unitary, larger
# ones sweep qubit by qubit. The sweep is not the slower path: it was measured
# level at m=6 and 3.5x faster at m=7. The value stays 7 because the two paths
# round differently (about 2e-16), so moving the switch changes output bits at
# m=6-7; that waits until run records carry a numerics tag replay can check.
_KRON_COLUMN_MAX_QUBITS = 7


def prepare_state(m: int, theta, layers: int = 1) -> np.ndarray:
    """Run the brickwork ansatz on |0...0>; returns a normalized statevector."""
    theta = np.asarray(theta, dtype=float)
    expected = parameter_count(m, layers)
    if theta.shape != (expected,):
        raise ValueError(
            f"theta has length {theta.shape}, ansatz on m={m}, layers={layers} "
            f"needs {expected} angles"
        )
    n_cols = 2 * layers + 1
    mats = _column_mats(theta.reshape(n_cols, 2, m))
    kron = m <= _KRON_COLUMN_MAX_QUBITS
    if kron:
        unitaries = _kron_chain(mats)
    psi = np.zeros(2**m, dtype=complex)
    psi[0] = 1.0
    for c in range(n_cols):
        if kron:
            psi = unitaries[c] @ psi
        else:
            for q in range(m):
                psi = _apply_1q(psi, mats[c, q], q)
        if c < n_cols - 1 and m > 1:
            psi = psi * _cz_mask(m, c % 2)
    return psi


def _num_qubits(state: np.ndarray) -> int:
    m = int(np.log2(state.shape[0]))
    if 2**m != state.shape[0]:
        raise ValueError(f"state length {state.shape[0]} is not a power of 2")
    return m


@lru_cache(maxsize=4096)
def _pauli_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """(index permutation, diagonal phase) such that (P psi)[b] = phase[b] * psi[perm[b]]."""
    m = len(letters)
    idx = np.arange(2**m)
    xor_mask = 0
    z_mask = 0
    y_count = 0
    for q, ch in enumerate(letters):
        bit = 1 << (m - 1 - q)
        if ch == "X":
            xor_mask |= bit
        elif ch == "Y":
            xor_mask |= bit
            z_mask |= bit
            y_count += 1
        elif ch == "Z":
            z_mask |= bit
        elif ch != "I":
            raise ValueError(f"invalid Pauli letter {ch!r}")
    perm = idx ^ xor_mask
    phase = np.ones(2**m, dtype=complex)
    if z_mask:
        bits = idx & z_mask
        parity = np.zeros(2**m, dtype=np.int64)
        while np.any(bits):
            parity ^= bits & 1
            bits >>= 1
        phase *= np.where(parity, -1.0, 1.0)
    if y_count:
        phase *= (-1j) ** y_count
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def _letters(p) -> str:
    return p.letters if isinstance(p, PauliString) else str(p)


def expectation(state: np.ndarray, p) -> float:
    """<state| P |state> for one Pauli string (letters or PauliString)."""
    letters = _letters(p)
    m = _num_qubits(state)
    if len(letters) != m:
        raise ValueError(f"string {letters!r} acts on {len(letters)} qubits, state has {m}")
    perm, phase = _pauli_action(letters)
    val = np.vdot(state, phase * state[perm])
    return float(val.real)


def expectations(state: np.ndarray, strings) -> np.ndarray:
    """Expectation of each string; element i matches expectation(state, strings[i])."""
    return np.array([expectation(state, p) for p in strings])


class ExpectationKernel:
    """Batched expectations for a fixed string list, for optimizer hot loops.

    Stacks every string's permutation and phase once so each call is a single
    fancy index plus one matrix-vector product.
    """

    def __init__(self, strings, m: int | None = None):
        letters = [_letters(p) for p in strings]
        if not letters:
            raise ValueError("need at least one Pauli string")
        if m is None:
            m = len(letters[0])
        if any(len(s) != m for s in letters):
            raise ValueError("all strings must act on the same qubit count")
        self.m = m
        actions = [_pauli_action(s) for s in letters]
        self._perm = np.stack([a[0] for a in actions])
        self._phase = np.stack([a[1] for a in actions])

    def __call__(self, state: np.ndarray) -> np.ndarray:
        if state.shape[0] != 2**self.m:
            raise ValueError(f"state length {state.shape[0]}, kernel expects {2**self.m}")
        return ((self._phase * state[self._perm]) @ np.conj(state)).real
