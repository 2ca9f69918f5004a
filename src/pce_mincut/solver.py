"""The solve loop: the iterative-alpha schedule, and fixed runs as its first step.

A run draws random ansatz angles, minimizes the loss, and decodes the signs
of the expectation values into a cut assignment. A fixed run minimizes once,
at one alpha. The iterative schedule starts at a small alpha and repeats:
minimize at the current alpha (warm-started from the previous angles), then
raise alpha just enough to push the not-yet-binarized soft value closest to
the threshold M over it. Two update rules are available:

    arctanh_ratio   alpha *= arctanh(M) / arctanh(|t*|)
    large_scale     alpha *= arctanh(M) / |t*|

where t* is the in-progress soft value nearest M. The first rule's
multiplier approaches 1 when t* hugs M, which can stall on large instances;
the second always applies at least the factor arctanh(M)/M > 1. The loop
ends when every soft value clears M, when the outer-iteration cap is hit,
or one inner run after the proposed alpha overflows the alpha cap (at the
cap tanh is bitwise saturated and further updates are inert).

solve_steps is the loop, as a generator that asks for the expectation
vector and the loss of each state it evaluates; optimize.nelder_mead runs
each inner run and keeps the vector of its best point. run_lockstep is its
one driver: it serves independent runs together, sharing each step's state
preparation, expectation kernel and loss call, and solve is run_lockstep
over one run. Shared calls are bit-equal row for row to 1-D calls, so a
run's outcome does not depend on the runs that share its steps.

SolverSpec declares a solver variant's settings once; its config method
builds each run's PceConfig, filling the unset ones by graph size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import EncodingSpec, enumerate_strings, minimal_qubits
from .graph import cut_size
from .objective import ObjectiveSpec, binarization, decode, is_feasible, loss, soft_values
from .optimize import (
    OptimizerConfig,
    minimize,  # not called here; the benchmark traces this name
    nelder_mead,
    random_init,
)
from .quantum import ExpectationKernel, parameter_count, prepare_state

__all__ = [
    "PceConfig",
    "SolveOutcome",
    "IterationRecord",
    "solve",
    "solve_steps",
    "run_lockstep",
    "next_alpha",
    "control_config",
    "solve_pce_at_final_alpha",
    "SolverSpec",
    "MODES",
    "UPDATE_RULES",
    "CONTROL_SEED_OFFSET",
]

# seed shift for the paired fixed-alpha control run, kept fixed so paired
# experiments are replayable from the iterative run's seed alone
CONTROL_SEED_OFFSET = 104729

# the alpha modes, and the rules by which the iterative schedule raises alpha
MODES = ("fixed", "iterative")
UPDATE_RULES = ("arctanh_ratio", "large_scale")

# an alpha multiplier this close to 1 makes no practical progress
STALL_FACTOR = 1.0 + 1e-6


def _check_alpha0(alpha0: float) -> None:
    if not (math.isfinite(alpha0) and alpha0 > 0):
        raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")


@dataclass(frozen=True)
class PceConfig:
    # the fields after optimizer are a run record's first config keys, in order
    objective: ObjectiveSpec
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    alpha_mode: str = "fixed"  # a MODES entry
    seed: int = 0
    M: float = 0.90
    alpha0: float = 3.0
    update_rule: str = "arctanh_ratio"  # an UPDATE_RULES entry
    max_outer_iters: int = 50
    alpha_cap: float = 1e16
    layers: int = 1

    def __post_init__(self) -> None:
        if self.alpha_mode not in MODES:
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"unknown update_rule {self.update_rule!r}")
        if not (0.0 < self.M < 1.0):
            raise ValueError(f"threshold M must be in (0, 1), got {self.M}")
        _check_alpha0(self.alpha0)
        if self.alpha_mode == "iterative" and not (
                math.isfinite(self.alpha_cap) and self.alpha_cap >= self.alpha0):
            raise ValueError(f"alpha_cap must be finite and at least alpha0={self.alpha0}, "
                             f"got {self.alpha_cap}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.layers < 1:
            raise ValueError("layers must be at least 1")
        self.optimizer.budget(parameter_count(self.objective.encoding.m, self.layers))


# the field orders of IterationRecord and SolveOutcome are the key orders of
# a run record's history steps and outcome
@dataclass
class IterationRecord:
    iter: int
    alpha: float
    loss: float
    binarization: float
    minus_count: int
    evals: int
    stalled: bool


@dataclass
class SolveOutcome:
    z: np.ndarray
    soft: np.ndarray
    feasible: bool
    cut: float
    final_alpha: float
    outer_iters: int
    inner_evals: int
    theta_final: np.ndarray
    loss_final: float
    capped: bool = False
    history: list[IterationRecord] | None = None


@dataclass(frozen=True)
class SolverSpec:
    """One solver variant of a plan; config fills its None fields by graph size."""

    label: str = "iterative"
    mode: str = "iterative"  # a MODES entry
    alpha: float | None = None  # required for fixed mode, refused for iterative
    paired_control: bool = False
    beta: float | None = None
    eta: float = 0.0
    M: float | None = None
    alpha0: float | None = None
    update_rule: str | None = None
    family: str = "full_xyz"
    pauli: str = "Z"
    k: int | None = None
    layers: int = 1
    optimizer: OptimizerConfig | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.mode == "fixed" and self.alpha is None:
            raise ValueError("fixed-alpha solver needs an alpha value")
        if self.mode == "iterative" and self.alpha is not None:
            raise ValueError("iterative solver starts at alpha0 and takes no alpha; "
                             "set alpha0 instead")
        if self.paired_control and self.mode != "iterative":
            raise ValueError("paired_control only applies to iterative solvers")

    def config(self, graph, c: int, seed: int = 0) -> PceConfig:
        """The PceConfig of one run on graph at budget c, with size defaults.

        Order k is 2 up to 25 nodes, 3 up to 50, 4 above (the mixed family
        spans the orders 1..k); the register is the smallest that fits n
        variables. From 150 nodes the binarization threshold M is 0.95 and
        alpha0 is 1, and above 25 nodes the update rule is large_scale. An
        iterative run's objective starts at alpha0.
        """
        n = graph.n
        k = self.k if self.k is not None else (2 if n <= 25 else (3 if n <= 50 else 4))
        key, order = ("k_range", (1, k)) if self.family == "single_pauli_mixed" else ("k", k)
        enc = EncodingSpec(self.family, m=minimal_qubits(self.family, order, n), n_vars=n,
                           pauli=self.pauli, **{key: order})
        alpha0 = self.alpha0 if self.alpha0 is not None else (1.0 if n >= 150 else 3.0)
        _check_alpha0(alpha0)  # before the objective of an iterative run takes it
        objective = ObjectiveSpec(graph=graph, encoding=enc, c=c, beta=self.beta, eta=self.eta,
                                  alpha=alpha0 if self.alpha is None else self.alpha)
        return PceConfig(
            objective=objective,
            optimizer=self.optimizer if self.optimizer is not None else OptimizerConfig(),
            alpha_mode=self.mode,
            seed=seed,
            M=self.M if self.M is not None else (0.95 if n >= 150 else 0.90),
            alpha0=alpha0,
            update_rule=self.update_rule if self.update_rule is not None else (
                "arctanh_ratio" if n <= 25 else "large_scale"),
            layers=self.layers,
        )


def next_alpha(soft, alpha: float, M: float, rule: str = "arctanh_ratio") -> float:
    """Next sharpness value; returns alpha unchanged when all values clear M.

    Picks the under-threshold soft value closest to M and scales alpha so
    that value would land exactly on M if its expectation stayed put. Soft
    values are clamped below 1 before arctanh; a zero-valued pick yields
    +inf, which the solve loop turns into cap-triggered termination.
    """
    if not (0.0 < M < 1.0):
        raise ValueError(f"threshold M must be in (0, 1), got {M}")
    if rule not in UPDATE_RULES:
        raise ValueError(f"unknown update_rule {rule!r}")
    mags = np.abs(np.asarray(soft, dtype=float))
    below = np.flatnonzero(mags < M)
    if below.size == 0:
        return float(alpha)
    pick = below[np.argmin(np.abs(mags[below] - M))]
    v = min(float(mags[pick]), 1.0 - 1e-12)
    if rule == "arctanh_ratio":
        denom = math.atanh(v)
    else:
        denom = v
    if denom == 0.0:
        return math.inf
    return float(alpha) * math.atanh(M) / denom


def solve_steps(cfg: PceConfig):
    """The solve loop as a step generator; solve's docstring gives its semantics.

    Each inner run is a yield from nelder_mead with the context (ansatz, spec),
    ansatz as run_lockstep describes it and spec the ObjectiveSpec at the
    current alpha. So it yields (theta, (ansatz, spec)) for every state the
    run evaluates and is sent (loss, e): theta's expectation vector e and its
    loss under spec, e being the tag nelder_mead keeps for its best value.
    Returns the SolveOutcome.
    """
    enc = cfg.objective.encoding
    # what a state depends on besides its angles; the letters are joined into
    # a str, which caches its hash, so grouping runs by ansatz costs the same
    # at any string count
    ansatz = enc.m, cfg.layers, " ".join(enumerate_strings(enc))
    iterative = cfg.alpha_mode == "iterative"
    alpha = float(cfg.alpha0) if iterative else cfg.objective.alpha
    theta = random_init(parameter_count(enc.m, cfg.layers), cfg.seed)
    history: list[IterationRecord] = []
    total_evals = 0
    capped = False

    for outer in range(1, cfg.max_outer_iters + 1):
        spec = replace(cfg.objective, alpha=alpha)
        result = yield from nelder_mead(theta, cfg.optimizer.budget(theta.size), (ansatz, spec))
        theta, e = result.best_params, result.best_tag
        total_evals += result.evals
        soft = soft_values(np.clip(e, -1.0, 1.0), alpha)
        proposed = next_alpha(soft, alpha, cfg.M, cfg.update_rule) if iterative else alpha
        done = proposed == alpha
        stalled = (not done) and math.isfinite(proposed) and proposed < alpha * STALL_FACTOR
        history.append(
            IterationRecord(
                iter=outer,
                alpha=alpha,
                loss=result.best_value,
                binarization=binarization(soft),
                minus_count=int(np.sum(decode(e) == -1)),
                evals=result.evals,
                stalled=stalled,
            )
        )
        if done or capped:
            break
        if not math.isfinite(proposed) or proposed > cfg.alpha_cap:
            capped = True
            alpha = cfg.alpha_cap
        else:
            alpha = proposed

    z = decode(e)
    if alpha == spec.alpha:
        # the last inner run scored theta at this alpha: its best value is
        # this loss, bit for bit
        loss_final = result.best_value
    else:
        loss_final = loss(replace(cfg.objective, alpha=alpha), e)
    return SolveOutcome(
        z=z,
        soft=soft_values(np.clip(e, -1.0, 1.0), alpha),
        feasible=is_feasible(z, cfg.objective.c),
        cut=cut_size(cfg.objective.graph, z),
        final_alpha=float(alpha),
        outer_iters=len(history),
        inner_evals=total_evals,
        theta_final=theta,
        loss_final=loss_final,
        capped=capped,
        history=history if iterative else None,
    )


def run_lockstep(jobs, spent: list[float] | None = None):
    """Drive step generators together until each one returns.

    A job yields (theta, (ansatz, spec)), with ansatz = (m, layers, the
    strings' letters joined by spaces), and is sent (loss, e): theta's
    expectation vector e and its loss under spec. Each step serves every
    waiting job with one prepare_state, one kernel and one loss call per
    ansatz, over (B, d) and (B, n) stacks; the specs of a stack must share
    one graph object, as the cells of a plan do. A job that waits alone on
    its ansatz gets the 1-D calls. Rows are bit-equal to 1-D calls, so no
    job's results depend on which jobs share its steps.

    Yields (index, value) as job `index` ends, where value is what it
    returned or the exception it raised; the other jobs go on. If spent is
    given, spent[i] accumulates job i's share of the wall time: each step's
    time is split evenly over the jobs it served.
    """
    jobs = list(jobs)
    kernels: dict[tuple, ExpectationKernel] = {}
    waiting: dict[int, tuple] = {}
    ended: list[tuple] = []

    def advance(i, e=None, error=None):
        try:
            waiting[i] = jobs[i].send(e) if error is None else jobs[i].throw(error)
        except StopIteration as stop:
            ended.append((i, stop.value))
        except Exception as exc:  # the job ends with its error; the others go on
            ended.append((i, exc))

    served = list(range(len(jobs)))
    start = time.perf_counter()
    for i in served:
        advance(i)
    while served:
        if spent is not None:
            share = (time.perf_counter() - start) / len(served)
            for i in served:
                spent[i] += share
        yield from ended
        ended.clear()
        start = time.perf_counter()
        groups: dict[tuple, list] = {}
        for i, (theta, (ansatz, spec)) in waiting.items():
            groups.setdefault(ansatz, []).append((i, theta, spec))
        served = list(waiting)
        waiting.clear()
        for ansatz, rows in groups.items():
            m, layers, strings = ansatz
            try:
                kernel = kernels.get(ansatz)
                if kernel is None:
                    kernel = kernels[ansatz] = ExpectationKernel(strings.split())
                if len(rows) == 1:
                    # 1-D calls: as a one-row stack (1 BLAS thread), the loss
                    # took 18.1 against 10.3 us at n=6, and prepare_state plus
                    # the kernel 162 against 140 us at n=105
                    (_, theta, spec), = rows
                    e = kernel(prepare_state(m, theta, layers))
                    replies = [(loss(spec, e), e)]
                else:
                    es = kernel(prepare_state(m, np.array([row[1] for row in rows]), layers))
                    replies = list(zip(loss([row[2] for row in rows], es), es))
            except Exception as exc:  # every job of the group gets the error
                for i, _, _ in rows:
                    advance(i, error=exc)
                continue
            for (i, _, _), reply in zip(rows, replies):
                advance(i, reply)


def solve(cfg: PceConfig) -> SolveOutcome:
    """One run: random angles, the alpha schedule, then decode the signs.

    Each outer step minimizes the loss at the current alpha, warm-started
    from the previous angles. Iterative mode starts at alpha0 and then moves
    alpha to next_alpha; a fixed run is the first step at objective.alpha,
    with no update and no history. A proposed alpha beyond alpha_cap is
    clamped to the cap and one last inner run executes there: at the cap
    tanh is saturated for any practical expectation value, so no further
    update can help.

    The outcome's final_alpha, soft and loss_final are taken at the last
    alpha the loop set. After max_outer_iters that is the alpha proposed
    after the last inner run, which no inner run has used.

    Runs solve_steps(cfg) as the one job of run_lockstep, and raises the
    exception the job ended with.
    """
    ((_, result),) = run_lockstep([solve_steps(cfg)])
    if isinstance(result, Exception):
        raise result
    return result


def control_config(outcome: SolveOutcome, cfg: PceConfig) -> PceConfig:
    """Config of the paired control: fixed mode at the reached alpha, offset seed."""
    return replace(
        cfg,
        alpha_mode="fixed",
        seed=cfg.seed + CONTROL_SEED_OFFSET,
        objective=replace(cfg.objective, alpha=outcome.final_alpha),
    )


def solve_pce_at_final_alpha(outcome: SolveOutcome, cfg: PceConfig) -> SolveOutcome:
    """Paired control: a fresh fixed run at the alpha the iterative run reached.

    Uses seed + CONTROL_SEED_OFFSET so the control draws its own starting
    angles but stays replayable from the original config.
    """
    return solve(control_config(outcome, cfg))
