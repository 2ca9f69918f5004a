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

Up to _KRON_COLUMN_MAX_QUBITS qubits, prepare_state applies each rotation
column as one 2^m x 2^m unitary. Larger registers build no unitary: with
RY(t) = S H RZ(t) H S-dagger, every column is a diagonal phase vector
between two Walsh-Hadamard transforms, and every phase vector is the outer
product of one small vector per register half (_prepare_diagonal).

Expectation values are computed exactly (no shot sampling): a Pauli string
acts as an index permutation plus a diagonal phase, so <P> costs one fancy
index and one dot product per string. From _WHT_MIN_QUBITS qubits on,
ExpectationKernel instead rotates the state into the X and Y bases and reads
every same-letter string off one Walsh-Hadamard transform of the three
probability vectors, at a cost that does not grow with the string count.
numerics(m) names the paths a register of m qubits runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "parameter_count",
    "prepare_state",
    "ExpectationKernel",
    "numerics",
    "ANSATZ_LAYOUT",
]

# the layout above as one tag, recorded in every run record so results are
# self-describing
ANSATZ_LAYOUT = "brickwork(ry+rz columns, cz bricks, qubit0=msb)"


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
    ones = _half_signs(m) < 0
    both = ones[parity:m - 1:2] & ones[parity + 1::2]  # one row per pair
    sign = np.where(both.sum(axis=0) % 2, -1.0, 1.0)
    sign.setflags(write=False)
    return sign


def _column_mats(angles: np.ndarray) -> np.ndarray:
    """Fused RZ(rz) @ RY(ry) for every (column, qubit), built vectorized.

    angles has shape (..., n_cols, 2, m), RY angles then RZ angles per
    column; the result has shape (..., n_cols, m, 2, 2).
    """
    ry, rz = angles[..., 0, :], angles[..., 1, :]
    half = ry / 2.0
    c, s = np.cos(half), np.sin(half)
    pm = np.exp(-0.5j * rz)
    pp = np.exp(0.5j * rz)
    mats = np.empty(ry.shape + (2, 2), dtype=complex)
    np.multiply(pm, c, out=mats[..., 0, 0])
    np.multiply(-pm, s, out=mats[..., 0, 1])
    np.multiply(pp, s, out=mats[..., 1, 0])
    np.multiply(pp, c, out=mats[..., 1, 1])
    return mats


def _kron_chain(mats: np.ndarray) -> np.ndarray:
    """Column unitaries kron(mats[c, 0], ..., mats[c, m-1]): (n_cols, 2^m, 2^m)."""
    u = mats[:, 0]
    for q in range(1, mats.shape[1]):
        v = mats[:, q]
        d = u.shape[1]
        u = (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(-1, 2 * d, 2 * d)
    return u


@lru_cache(maxsize=None)
def _hadamard_factors(m: int, interleaved: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Sylvester Hadamard matrices (entries +-1) of sizes 2^(m//2) and 2^(m-m//2).

    Their Kronecker product is the unnormalized 2^m Walsh-Hadamard matrix, so
    a transform of v is h_a @ v.reshape(2^(m//2), -1) @ h_b: two small matrix
    products in place of m butterfly passes. With interleaved, the second
    factor is h_b (x) I_2, which transforms the real view of complex rows,
    whose real and imaginary parts alternate.
    """
    factors = []
    for bits in (m // 2, m - m // 2):
        h = np.ones((1, 1))
        for _ in range(bits):
            h = np.block([[h, h], [h, -h]])
        factors.append(h)
    if interleaved:
        factors[1] = np.kron(factors[1], np.eye(2))
    for h in factors:
        h.setflags(write=False)
    return factors[0], factors[1]


def _wht(rows: np.ndarray, m: int) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of a real or complex (..., 2^m) array.

    Complex rows are transformed through their real view against real
    factors, which has the bits of the complex product h_a @ blocks @ h_b
    without casting the factors to complex on every call.
    """
    h_a, h_b = _hadamard_factors(m, rows.dtype.kind == "c")
    blocks = rows.view(float).reshape(rows.shape[:-1] + (h_a.shape[0], h_b.shape[0]))
    return (h_a @ blocks @ h_b).view(rows.dtype).reshape(rows.shape)


@lru_cache(maxsize=None)
def _s_phase(m: int, power: int) -> np.ndarray:
    """i^(power * popcount(b)): S on every qubit for power 1, S-dagger for -1.

    S-dagger takes Y strings to X strings; S follows the last rotation column
    on the diagonal path.
    """
    popcount = (_half_signs(m) < 0).sum(axis=0)
    phase = np.array([1, 1j, -1, -1j])[(power * popcount) % 4]
    phase.setflags(write=False)
    return phase


@lru_cache(maxsize=None)
def _half_signs(bits: int) -> np.ndarray:
    """(bits, 2^bits) table of z_q(j) = +-1, -1 where qubit q of index j is 1 (qubit 0 the msb)."""
    shifts = np.arange(bits - 1, -1, -1)[:, None]
    signs = 1.0 - 2.0 * ((np.arange(2**bits) >> shifts) & 1)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _fixed_phases(m: int, n_cols: int) -> np.ndarray:
    """(n_cols, 2^m) factors that follow each column's RZ phases on the diagonal path.

    Column c < n_cols-1 is followed by its CZ signs, the last column by the
    S phases i^popcount(b); every row carries the 2^-m of the column's two
    unnormalized transforms, a power of two, so the product is exact.
    """
    table = np.empty((n_cols, 2**m), dtype=complex)
    for c in range(n_cols - 1):
        table[c] = _cz_mask(m, c % 2)
    table[-1] = _s_phase(m, 1)
    table *= 2.0**-m
    table.setflags(write=False)
    return table


# Registers up to this size apply each column as one 2^m x 2^m unitary; larger
# ones run the diagonal path (_prepare_diagonal), which builds no unitary.
# Per call (1 layer, 1 BLAS thread, 2-vCPU VM, best of 3 rounds of best of
# 7), kron against diagonal for 1 row, then for a stack of 12: m=3 25 vs 31
# and 50 vs 48 us; m=4 32 vs 30 and 100 vs 55; m=5 48 vs 32 and 276 vs 72;
# m=6 118 vs 37 and 1,217 vs 90; m=7 380 vs 42 for 1 row. The diagonal path
# wins from m=4, but the paths round differently (about 2e-16), so this
# value is part of numerics(m) and a run record names the path it ran:
# lowering it would change the bits of every m=4 to m=6 record, the n=14
# and n=25 solves of the acceptance suite included, and is a numerics
# change of its own.
_KRON_COLUMN_MAX_QUBITS = 6


def prepare_state(m: int, theta, layers: int = 1) -> np.ndarray:
    """Run the brickwork ansatz on |0...0>; returns a normalized statevector.

    theta may also be a (B, d) stack of angle vectors, which gives a (B, 2^m)
    stack of states whose row b is bit-equal to prepare_state(m, theta[b]).
    The rows share one vectorized pass: one stacked product per column on
    the kron path, one stacked transform per half column on the diagonal path.
    """
    theta = np.asarray(theta, dtype=float)
    expected = parameter_count(m, layers)
    if theta.ndim not in (1, 2) or theta.shape[-1] != expected:
        raise ValueError(
            f"theta has shape {theta.shape}, ansatz on m={m}, layers={layers} "
            f"needs {expected} angles per row"
        )
    angles = theta.reshape(theta.shape[:-1] + (2 * layers + 1, 2, m))
    if m <= _KRON_COLUMN_MAX_QUBITS:
        return _prepare_kron(m, angles)
    return _prepare_diagonal(m, angles)


def _prepare_kron(m: int, angles: np.ndarray) -> np.ndarray:
    """Each column as one 2^m x 2^m unitary; angles has shape (..., n_cols, 2, m)."""
    batch, n_cols = angles.shape[:-3], angles.shape[-3]
    mats = _column_mats(angles).reshape(-1, m, 2, 2)
    unitaries = _kron_chain(mats).reshape(batch + (n_cols, 2**m, 2**m))
    psi = np.zeros(batch + (2**m,), dtype=complex)
    psi[..., 0] = 1.0
    for c in range(n_cols):
        psi = (unitaries[..., c, :, :] @ psi[..., None])[..., 0]
        if c < n_cols - 1 and m > 1:
            psi = psi * _cz_mask(m, c % 2)
    return psi


def _prepare_diagonal(m: int, angles: np.ndarray) -> np.ndarray:
    """The ansatz as diagonal phases between Walsh-Hadamard transforms.

    RY(t) = S H RZ(t) H S-dagger, so a rotation column is D S H E H S-dagger
    with every gate on every qubit, where D holds the column's RZ angles and
    E its RY angles as RZ phases. Between two columns only diagonal factors
    meet, and the S phases cancel; with W the unnormalized transform and
    1 = W|0...0>,

        psi = G_L W E_L W ... G_1 W E_1 W G_0 W E_0 1,

    where G_c is column c's RZ phases times _fixed_phases(m, n_cols)[c]. Each
    phase vector is a product of one factor per register half, so every E_c
    and G_c comes from one small matrix product per half against a +-1 sign
    table, one complex exp per half and one outer product.
    """
    batch, n_cols = angles.shape[:-3], angles.shape[-3]
    a = m // 2
    # rows ordered (column, RY or RZ, batch), so each E_c and G_c stack is
    # C-contiguous: every operand of a stacked product is kept so, for its
    # rows to round as the 1-D call's
    rows = angles.reshape(-1, 2 * n_cols, m).transpose(1, 0, 2).reshape(-1, m)
    hi = np.exp(-0.5j * (rows[:, :a] @ _half_signs(a)))
    lo = np.exp(-0.5j * (rows[:, a:] @ _half_signs(m - a)))
    phases = (hi[:, :, None] * lo[:, None, :]).reshape((n_cols, 2) + batch + (2**m,))
    phases[:, 1] *= _fixed_phases(m, n_cols).reshape((n_cols,) + (1,) * len(batch) + (2**m,))
    psi = _wht(phases[0, 0], m)
    for c in range(n_cols):
        psi *= phases[c, 1]
        if c < n_cols - 1:
            psi = _wht(psi, m)
            psi *= phases[c + 1, 0]
            psi = _wht(psi, m)
    return psi


@lru_cache(maxsize=4096)
def _pauli_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """(index permutation, diagonal phase) such that (P psi)[b] = phase[b] * psi[perm[b]]."""
    letter, mask = _letter_and_support(letters)
    m = len(letters)
    perm = np.arange(2**m) ^ (0 if letter == "Z" else mask)  # X and Y flip their support's bits
    # Z and Y: the product of the support's +-1 signs, -1 where it holds an
    # odd count of ones; X and the identity: 1
    support = [] if letter == "X" else [q for q, ch in enumerate(letters) if ch != "I"]
    phase = np.prod(_half_signs(m)[support], axis=0).astype(complex)
    if letter == "Y":  # Y = -i ZX on each qubit of the support
        phase *= (-1j) ** len(support)
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


# Registers from this size on run the Walsh-Hadamard kernel, smaller ones the
# permutation kernel. Per call on full_xyz k=4 with n strings (1 BLAS thread,
# 2-vCPU VM, best of 5), permutation against Walsh-Hadamard: m=6 n=45 7.5 vs
# 18 us; m=7 n=51 13.7 vs 19.5, n=78 20.3 vs 19.2, n=105 26-108 vs 19-21 (the
# permutation kernel's two 215 KB temporaries cost page faults whenever the
# allocator hands them back to the OS); m=8 n=106 57 vs 26, n=210 120 vs 27;
# m=9 n=211 273 vs 42, n=300 420 vs 42. m=8 is the first size where the
# Walsh-Hadamard kernel wins at every n. The kernels round differently (about
# 2e-16), so this value is part of numerics(m).
_WHT_MIN_QUBITS = 8


def numerics(m: int) -> str:
    """The state-preparation path and expectation kernel a register of m qubits runs."""
    prepare = "kron" if m <= _KRON_COLUMN_MAX_QUBITS else "diag"
    kernel = "wht" if m >= _WHT_MIN_QUBITS else "perm"
    return f"prepare={prepare};kernel={kernel}"


def _letter_and_support(letters: str) -> tuple[str, int]:
    """The one Pauli letter of a string ("Z" for the identity) and its support mask."""
    kinds = set(letters) - {"I"}
    if not kinds <= set("XYZ"):
        raise ValueError(f"invalid Pauli letters {letters!r}")
    if len(kinds) > 1:
        raise ValueError(f"{letters!r} mixes Pauli letters; the kernel needs one letter per string")
    m = len(letters)
    mask = sum(1 << (m - 1 - q) for q, ch in enumerate(letters) if ch != "I")
    return (kinds.pop() if kinds else "Z"), mask


class ExpectationKernel:
    """Batched expectations for a fixed list of same-letter strings, for optimizer hot loops.

    Below _WHT_MIN_QUBITS qubits, stacks every string's permutation and phase
    once so each call is a single gather, into a buffer kept between calls,
    plus one matrix-vector product.
    From there on, each call rotates the state into the X basis (a transform
    of psi) and the Y basis (a transform of psi * (-i)^popcount), squares the
    amplitudes, runs one batched Walsh-Hadamard transform over the X, Y and Z
    probability rows, and reads entry [letter, support mask] of each string:
    <P_s> = sum_b p_letter[b] (-1)^popcount(b & s).
    """

    def __init__(self, letters: list[str]):
        if not letters:
            raise ValueError("need at least one Pauli string")
        m = len(letters[0])
        if any(len(s) != m for s in letters):
            raise ValueError("all strings must act on the same qubit count")
        supports = [_letter_and_support(s) for s in letters]  # refuses mixed letters
        self.m = m
        if m >= _WHT_MIN_QUBITS:
            # flat index into the (3, 2^m) transformed rows, ordered X, Y, Z
            self._entry = np.array(["XYZ".index(letter) * 2**m + mask
                                    for letter, mask in supports])
        else:
            actions = [_pauli_action(s) for s in letters]
            self._perm = np.stack([a[0] for a in actions])
            self._phase = np.stack([a[1] for a in actions])
            self._gathered = np.empty((0,) + self._phase.shape, dtype=complex)

    def __call__(self, state: np.ndarray) -> np.ndarray:
        """Expectations of every string: (S,) for a state, (B, S) for a (B, 2^m) stack.

        Row b of a stack is bit-equal to the call on state[b].
        """
        if state.ndim not in (1, 2) or state.shape[-1] != 2**self.m:
            raise ValueError(f"state shape {state.shape}, kernel expects (..., {2**self.m})")
        batch = state.shape[:-1]
        if self.m < _WHT_MIN_QUBITS:
            gathered = self._buffer(batch)
            np.take(state, self._perm, axis=-1, out=gathered, mode="wrap")
            np.multiply(self._phase, gathered, out=gathered)
            return (gathered @ np.conj(state)[..., None])[..., 0].real
        amps = np.empty(batch + (3, 2**self.m), dtype=complex)
        amps[..., 0, :] = state
        np.multiply(state, _s_phase(self.m, -1), out=amps[..., 1, :])
        amps[..., :2, :] = _wht(amps[..., :2, :], self.m)
        amps[..., 2, :] = state
        probs = np.square(amps.real) + np.square(amps.imag)
        probs[..., :2, :] *= 1.0 / 2**self.m  # a power of two: exact
        return _wht(probs, self.m).reshape(batch + (-1,))[..., self._entry]

    def _buffer(self, batch: tuple) -> np.ndarray:
        """The batch + (S, 2^m) gather buffer, grown to fit and kept between calls.

        Reusing it keeps each call free of large temporaries, whose cost
        depends on whether the allocator hands them back to the OS; the
        gathers into it pass mode="wrap", which changes no index (they all
        lie in [0, 2^m)) but spares the copy that mode="raise" makes. It is
        C-contiguous, so each row is an (S, 2^m) block laid out as the 1-D
        product is: a stacked product over another layout, such as the
        batch-innermost one that state[:, perm] returns, sums in another
        order and rounds differently.
        """
        rows = math.prod(batch)
        if self._gathered.shape[0] < rows:
            self._gathered = np.empty((rows,) + self._phase.shape, dtype=complex)
        return self._gathered[:rows].reshape(batch + self._phase.shape)
