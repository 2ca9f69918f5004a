"""Budget-constrained minimum cuts via Pauli-correlation encoding.

Binary partition variables are carried by the signs of Pauli-string
expectation values on a small parameterized quantum state, so n variables
fit on O(log n) qubits. The loss relaxes signs to tanh(alpha * <P>) and a
quadratic penalty enforces the budget; the iterative-alpha schedule sharpens
the relaxation step by step until every variable binarizes.
"""

from .encoding import EncodingSpec, capacity, enumerate_strings, minimal_qubits
from .graph import WeightedGraph, cut_size, generate_complete_graph, partition_count, read_graph, write_graph
from .harness import ExperimentPlan, GraphSource, metric_epsilon_c, run_plan
from .objective import ObjectiveSpec, beta_c, binarization, decode, is_feasible, loss, plateau_width, soft_values
from .optimize import OptimizerConfig, OptimizeResult, random_init
from .oracles import OracleResult, SaConfig, exhaustive_best, normalized_cut, sa_solve
from .quantum import parameter_count, prepare_state
from .solver import PceConfig, SolveOutcome, SolverSpec, next_alpha, solve

__version__ = "0.1.0"
