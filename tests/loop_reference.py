"""Loop versions of the vectorized hot paths, kept as bit-exact references.

`prepare_state` builds each rotation column's matrices and unitary one column
at a time, `expectations` runs the expectation kernel's perm or WHT body on
one 1-D state, `loss` scores one 1-D expectation vector with the budget
penalty squared as a float64 scalar, and `minimize` keeps the Nelder-Mead
simplex as a Python list of vertex arrays sorted with `sorted` on every
iteration. All four do the same arithmetic,
element by element and in the same order, as the vectorized code in the
package, so the tests require equal bytes, not a tolerance.
`exhaustive_best` scores `itertools.combinations` tuples in chunks with a
three-operand einsum, and `sign_blocks` unranks each block of lexicographic
c-subsets with one `searchsorted` pass per position and fills its +-1 rows by
fancy indexing, as the package did before it copied rows from two
half-register tables; the package's blocks must equal its blocks byte for
byte. `sa_solve` steps on numpy scalars, one step at a
time at every temperature; the package oracles must return the same
assignment bytes and cut. `sa_solve` can also record each step's decision,
so tests can check which blocks the package's cold phase scores. `minimize`
can also record which Nelder-Mead step each iteration took and which new
vertices tied with another, so tests can show that their objectives reach
every branch and every ordering case. `pauli_action` builds a string's
permutation and phase tables with a loop over its letters, and the
package's tables, built from the string's letter and support mask, must
equal them byte for byte. `capacity`, `minimal_qubits` and
`enumerate_strings` keep one branch per encoding family, as the package did
before it derived all three from a family's letter set and order range; the
package must give the same counts, registers, strings and refusals.
"""

import itertools
import math

import numpy as np

from pce_mincut.graph import cut_size
from pce_mincut.objective import regularization
from pce_mincut.optimize import (
    F_TOL,
    INITIAL_STEP,
    X_TOL,
    EvaluationError,
    OptimizeResult,
    OptimizerConfig,
)
from pce_mincut.oracles import SA_COOLING, OracleResult, SaConfig, _subset_to_z
from pce_mincut.quantum import (
    _KRON_COLUMN_MAX_QUBITS,
    _WHT_MIN_QUBITS,
    _cz_mask,
    _hadamard_factors,
    _letter_and_support,
    _pauli_action,
    _y_basis_phase,
    parameter_count,
)


def column_mats(ry, rz):
    # one fused RZ(rz) @ RY(ry) per qubit: (m, 2, 2)
    c, s = np.cos(ry / 2.0), np.sin(ry / 2.0)
    pm = np.exp(-0.5j * rz)
    pp = np.exp(0.5j * rz)
    mats = np.empty((ry.shape[0], 2, 2), dtype=complex)
    mats[:, 0, 0] = pm * c
    mats[:, 0, 1] = -pm * s
    mats[:, 1, 0] = pp * s
    mats[:, 1, 1] = pp * c
    return mats


def kron_chain(mats):
    u = mats[0]
    for v in mats[1:]:
        d = u.shape[0]
        u = (u[:, None, :, None] * v[None, :, None, :]).reshape(2 * d, 2 * d)
    return u


def prepare_state(m, theta, layers=1):
    theta = np.asarray(theta, dtype=float)
    assert theta.shape == (parameter_count(m, layers),)
    n_cols = 2 * layers + 1
    cols = theta.reshape(n_cols, 2, m)
    psi = np.zeros(2**m, dtype=complex)
    psi[0] = 1.0
    for c in range(n_cols):
        mats = column_mats(cols[c, 0], cols[c, 1])
        if m <= _KRON_COLUMN_MAX_QUBITS:
            psi = kron_chain(mats) @ psi
        else:
            # (U_hi kron U_lo) psi on the (2^a, 2^(m-a)) view of psi
            a = m // 2
            view = psi.reshape(2**a, 2 ** (m - a))
            psi = ((kron_chain(mats[:a]) @ view) @ kron_chain(mats[a:]).T).reshape(-1)
        if c < n_cols - 1 and m > 1:
            psi = psi * _cz_mask(m, c % 2)
    return psi


def wht(rows, m):
    # the transform of each row of a (r, 2^m) array
    h_a, h_b = _hadamard_factors(m)
    blocks = rows.reshape(rows.shape[0], h_a.shape[0], h_b.shape[0])
    return (h_a @ blocks @ h_b).reshape(rows.shape)


def pauli_action(letters):
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
    return perm, phase


def expectations(state, letters):
    """Expectation of each same-letter string on the 1-D state, one body per path."""
    m = len(letters[0])
    if m < _WHT_MIN_QUBITS:
        actions = [_pauli_action(s) for s in letters]
        perm = np.stack([a[0] for a in actions])
        phase = np.stack([a[1] for a in actions])
        gathered = np.empty(phase.shape, dtype=complex)
        np.take(state, perm, out=gathered, mode="wrap")
        np.multiply(phase, gathered, out=gathered)
        return (gathered @ np.conj(state)).real
    entry = np.array(["XYZ".index(letter) * 2**m + mask
                      for letter, mask in map(_letter_and_support, letters)])
    amps = np.empty((3, state.shape[0]), dtype=complex)
    amps[0] = state
    np.multiply(state, _y_basis_phase(m), out=amps[1])
    amps[:2] = wht(amps[:2], m)
    amps[2] = state
    probs = np.square(amps.real) + np.square(amps.imag)
    probs[:2] *= 1.0 / state.shape[0]  # a power of two: exact
    return wht(probs, m).reshape(-1)[entry]


def loss(spec, expectations):
    e = np.asarray(expectations, dtype=float)
    n = spec.graph.n
    if e.shape != (n,):
        raise ValueError(f"expected {n} expectation values, got shape {e.shape}")
    t = np.tanh(spec.alpha * e)
    w = spec.graph.weights
    value = 0.25 * (spec.graph.weight_sum - t @ w @ t)
    value += spec.beta * (t.sum() - (n - 2 * spec.c)) ** 2
    if spec.eta > 0:
        value += regularization(t, spec.eta, n)
    return float(value)


class _BudgetExhausted(Exception):
    pass


def minimize(objective, x0, cfg=None, steps=None, ties=None):
    """List-based Nelder-Mead; appends each iteration's step name to `steps`,
    and to `ties` the value of each new vertex that equals another vertex's."""
    if cfg is None:
        cfg = OptimizerConfig()
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    max_evals = cfg.budget(dim)
    record = steps.append if steps is not None else (lambda name: None)
    tie = ties.append if ties is not None else (lambda value: None)

    evals = 0
    best_x = x0.copy()
    best_f = math.inf

    def f(x):
        nonlocal evals, best_x, best_f
        if evals >= max_evals:
            raise _BudgetExhausted
        value = float(objective(x))
        evals += 1
        if not math.isfinite(value):
            raise EvaluationError(value, x)
        if value < best_f:
            best_f = value
            best_x = np.array(x)
        return value

    converged = False
    try:
        simplex = [x0.copy()]
        for i in range(dim):
            v = x0.copy()
            v[i] += INITIAL_STEP
            simplex.append(v)
        fvals = [f(v) for v in simplex]

        replaced = False  # the last iteration put one new vertex in the worst's place
        while True:
            if replaced and fvals[-1] in fvals[:-1]:
                tie(fvals[-1])
            replaced = True
            order = sorted(range(dim + 1), key=fvals.__getitem__)
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]

            if (fvals[-1] - fvals[0] <= F_TOL
                    and np.max(np.abs(np.array(simplex[1:]) - simplex[0])) <= X_TOL):
                converged = True
                break

            centroid = np.add.reduce(simplex[:-1]) / dim
            worst = simplex[-1]
            reflected = centroid + (centroid - worst)
            fr = f(reflected)

            if fvals[0] <= fr < fvals[-2]:
                record("reflect")
                simplex[-1], fvals[-1] = reflected, fr
                continue
            if fr < fvals[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                fe = f(expanded)
                record("expand")
                if fe < fr:
                    simplex[-1], fvals[-1] = expanded, fe
                else:
                    simplex[-1], fvals[-1] = reflected, fr
                continue
            if fr < fvals[-1]:
                contracted = centroid + 0.5 * (centroid - worst)
                fc = f(contracted)
                if fc <= fr:
                    record("contract_outside")
                    simplex[-1], fvals[-1] = contracted, fc
                    continue
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                fc = f(contracted)
                if fc < fvals[-1]:
                    record("contract_inside")
                    simplex[-1], fvals[-1] = contracted, fc
                    continue
            record("shrink")
            replaced = False
            for i in range(1, dim + 1):
                simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                fvals[i] = f(simplex[i])
    except _BudgetExhausted:
        converged = False

    return OptimizeResult(
        best_params=best_x,
        best_value=best_f,
        evals=evals,
        converged=converged,
    )


def exhaustive_best(g, c):
    n = g.n
    w = g.weights
    wsum = w.sum()
    best_cut = math.inf
    best_subset = None
    combos = itertools.combinations(range(n), c)
    while True:
        chunk = list(itertools.islice(combos, 100_000))
        if not chunk:
            break
        zmat = np.ones((len(chunk), n))
        rows = np.repeat(np.arange(len(chunk)), c)
        zmat[rows, np.array(chunk).ravel()] = -1.0
        cuts = 0.25 * (wsum - np.einsum("ai,ij,aj->a", zmat, w, zmat))
        i = int(np.argmin(cuts))
        if cuts[i] < best_cut:
            best_cut = float(cuts[i])
            best_subset = chunk[i]
    z = _subset_to_z(n, best_subset)
    return OracleResult(z=z, cut=cut_size(g, z), optimal=True)


def subset_blocks(n, c, size):
    """The c-subsets of range(n) in lexicographic order, as (rows, c) blocks of
    node indices with at most `size` rows each."""
    # binom[k][j] = C(j, k): the k-subsets of the last j nodes
    binom = [np.array([math.comb(j, k) for j in range(n + 1)]) for k in range(c + 1)]
    total = math.comb(n, c)
    for start in range(0, total, size):
        # left: per rank, the subsets from it to the last, itself included.
        # Position p takes node n - j for the smallest j whose last j nodes
        # still hold `left` (c-p)-subsets; those that skip the node go off left.
        left = total - np.arange(start, min(start + size, total))
        block = np.empty((left.size, c), dtype=np.int8)
        for p in range(c):
            counts = binom[c - p]
            j = np.searchsorted(counts, left)
            block[:, p] = n - j
            left -= counts[j - 1]
        yield block


def sign_blocks(n, c, size):
    """The blocks of `subset_blocks` as +-1 rows, -1 on the subset."""
    rows = np.arange(size)[:, None]
    for block in subset_blocks(n, c, size):
        zmat = np.ones((len(block), n))
        zmat[rows[: len(block)], block] = -1.0
        yield zmat


def sa_solve(g, c, cfg=SaConfig(), trace=None):
    """Steps on numpy scalars; appends to `trace`, per restart, a list of
    (cold, accepted) per step, cold once the temperature is at most 1e-12."""
    n = g.n
    w = g.weights
    deg = g.degrees
    t0 = float(w.max() * n)

    best_cut = math.inf
    best_minus = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        nodes = rng.permutation(n)
        in_minus = np.zeros(n, dtype=bool)
        in_minus[nodes[:c]] = True
        to_minus = w[:, in_minus].sum(axis=1)
        cut = float(to_minus[~in_minus].sum())
        if cut < best_cut:
            best_cut = cut
            best_minus = nodes[:c].copy()

        ii = rng.integers(0, c, size=cfg.steps)
        jj = rng.integers(c, n, size=cfg.steps)
        accept_draw = rng.random(cfg.steps)
        temp = t0
        decisions = []
        if trace is not None:
            trace.append(decisions)
        for step in range(cfg.steps):
            u = nodes[ii[step]]
            v = nodes[jj[step]]
            delta = (
                2.0 * to_minus[u]
                - deg[u]
                + deg[v]
                - 2.0 * to_minus[v]
                + 2.0 * w[u, v]
            )
            accepted = delta <= 0.0 or (
                temp > 1e-12 and accept_draw[step] < math.exp(-delta / temp))
            decisions.append((not temp > 1e-12, accepted))
            if accepted:
                nodes[ii[step]], nodes[jj[step]] = v, u
                to_minus += w[:, v] - w[:, u]
                cut += delta
                if cut < best_cut - 1e-12:
                    best_cut = cut
                    best_minus = nodes[:c].copy()
            temp *= SA_COOLING

    z = _subset_to_z(n, best_minus)
    return OracleResult(z=z, cut=cut_size(g, z), optimal=False)


def capacity(family, m, k):
    """The encoding's capacity with one branch per family."""
    if family not in ("full_xyz", "single_pauli", "single_pauli_mixed"):
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


def minimal_qubits(family, k, n_vars):
    """The smallest sufficient register, clipping the mixed family's hi to m."""
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


def _position_subsets(m, k):
    for combo in itertools.combinations(range(m), k):
        yield tuple(m - 1 - s for s in combo)


def _string_at(m, positions, letter):
    chars = ["I"] * m
    for p in positions:
        chars[p] = letter
    return "".join(chars)


def enumerate_strings(spec):
    """The family's strings, one branch per family, cut to n_vars."""
    letters = []
    if spec.family == "full_xyz":
        for positions in _position_subsets(spec.m, spec.k):
            for letter in "XYZ":
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
