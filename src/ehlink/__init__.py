"""Joint power, time-split, and rate optimization for a wireless link that
delivers both energy and information to a time-switching receiver."""

from .channel import capacity, capacity_pair, crossover, q_function
from .decoder_energy import (
    DecoderEnergyModel,
    inverse_energy,
    parse_model,
    power_law_model,
    theta_log_theta_model,
)
from .multi_block import (
    MultiBlockProblem,
    MultiBlockSolution,
    construct_schedule,
    g_dot,
    iterative_solver,
    lp_step,
    solve_p8,
    theorem2_condition,
    threshold_u,
    upper_bound,
)
from .single_block import (
    CandidateSolution,
    Case,
    FullSolution,
    SystemParams,
    algorithm1,
    constant_power_baseline,
    feasible,
    m_function,
    n_function,
    objective,
    ranked_candidates,
    recover_full,
    solve_case_c,
    solve_lemma3,
)

__version__ = "0.1.0"
