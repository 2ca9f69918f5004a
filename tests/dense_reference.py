"""Independent dense-matrix reference for the statevector kernel.

Everything here is built from explicit 2^m x 2^m gate matrices via Kronecker
products, gate by gate (RY and RZ applied separately, CZ as a full diagonal
matrix), deliberately sharing no code with the fast kernel it checks. The
one exception, apply_pauli, applies a Pauli string's 2x2 factors one qubit
at a time, for registers too large to build each string's matrix.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ry_matrix(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def single_qubit_gate(m, q, gate):
    return kron_all([gate if i == q else I2 for i in range(m)])


def cz_matrix(m, q_a, q_b):
    # diagonal: -1 on basis states where both qubits are 1 (qubit 0 = MSB)
    dim = 2**m
    diag = np.ones(dim, dtype=complex)
    for b in range(dim):
        bit_a = (b >> (m - 1 - q_a)) & 1
        bit_b = (b >> (m - 1 - q_b)) & 1
        if bit_a and bit_b:
            diag[b] = -1.0
    return np.diag(diag)


def dense_prepare(m, theta, layers=1):
    """Brickwork state via an explicit dense gate product on |0...0>."""
    theta = np.asarray(theta, dtype=float)
    n_cols = 2 * layers + 1
    assert theta.shape == (2 * m * n_cols,)
    cols = theta.reshape(n_cols, 2, m)
    psi = np.zeros(2**m, dtype=complex)
    psi[0] = 1.0
    for c in range(n_cols):
        for q in range(m):
            psi = single_qubit_gate(m, q, ry_matrix(cols[c, 0, q])) @ psi
            psi = single_qubit_gate(m, q, rz_matrix(cols[c, 1, q])) @ psi
        if c < n_cols - 1:
            start = c % 2
            for q in range(start, m - 1, 2):
                psi = cz_matrix(m, q, q + 1) @ psi
    return psi


def pauli_matrix(letters):
    return kron_all([PAULI[ch] for ch in letters])


def apply_pauli(letters, state):
    """P psi for a string of any letters, applied factor by factor: each
    letter's 2x2 matrix acts on its qubit's axis of the state viewed as an
    m-axis tensor (qubit 0 first), so no 2^m x 2^m matrix is built."""
    m = len(letters)
    psi = np.asarray(state, dtype=complex).reshape((2,) * m)
    for q, ch in enumerate(letters):
        if ch != "I":  # the identity factor leaves psi as it is
            psi = np.moveaxis(np.tensordot(PAULI[ch], psi, axes=([1], [q])), 0, q)
    return psi.reshape(-1)


def dense_expectation(state, letters):
    val = np.vdot(state, pauli_matrix(letters) @ state)
    assert abs(val.imag) < 1e-10
    return val.real
