"""Multi-block planner with inter-block energy transfers.

Energy harvested in one block may be banked and spent later.  Introducing a
per-block transfer variable T_i (positive: bank, negative: withdraw) turns
the coupled energy-causality constraints into prefix-sum constraints, and
each block then looks like a single-block problem with overhead g_i + T_i.

The per-block objective scale factor (the normalized objective, which is the
single-block `objective` at unit budget) admits a block-independent
maximizer (theta_dot, e_dot), which yields a closed-form upper bound and the
suffix-sum achievability condition.  Where every g_i is at or above g_dot, no
block needs a transfer and one pass of per-block solves reaches the bound.
The general case alternates per-block single-block solves with an exact LP
over the transfers (`lp_step`), which HiGHS solves through scipy's bundled
binding, and ends with the last pass that kept the bank and the bound.  The
first LP loads numpy and that binding's one extension module from its file,
and no scipy package; importing this module, or solving a problem that needs
no transfer, loads neither scipy nor numpy.

Each `lp_step` runs its chain of LPs (`_chain`) on one new HiGHS instance
with the options scipy's ``linprog(method="highs")`` passes; nothing is held
between calls.  A pinned LP adds its row and cost to the model HiGHS holds
and passes that model back (``passModel(getLp())``), which drops all solver
state: HiGHS solves from a cold start, presolve included, and returns the
bits a model built afresh would.  Cheaper resets change bits:
``clearSolver()`` alone moved the last bit of a pinned LP's solution, and
warm starts moved some chains' final transfers in the 11th digit.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import accumulate

from .decoder_energy import DecoderEnergyModel
from .single_block import (
    Case,
    FullSolution,
    SolverError,
    SystemParams,
    _case_ab_pairs,
    algorithm1,
    objective,
)

__all__ = [
    "MultiBlockProblem",
    "MultiBlockSolution",
    "LpInfeasibleError",
    "LpDataError",
    "ScheduleConditionError",
    "solve_p8",
    "g_dot",
    "upper_bound",
    "theorem2_condition",
    "construct_schedule",
    "lp_step",
    "iterative_solver",
    "threshold_u",
]

_CONVERGENCE_TOL = 1e-9
_MAX_ITERATIONS = 200


class LpInfeasibleError(RuntimeError):
    """The transfer LP has no feasible point for the given per-block pairs."""


class LpDataError(ValueError):
    """The transfer LP's data are not finite, or HiGHS refuses them."""


_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """scipy's HiGHS extension module, loaded from its file without importing scipy.

    `find_spec` locates the installed scipy without running its ``__init__``,
    and the module is registered under its own name, so a later ``import
    scipy.optimize`` shares it; one already registered is reused.  The
    binding's package ``__init__`` is empty, so nothing it needs is skipped.
    """
    if _BINDING in sys.modules:
        core = sys.modules[_BINDING]
        if core is None:
            raise ImportError(f"import of {_BINDING} halted; None in sys.modules")
        return core
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("No module named 'scipy'")
    folders = scipy.submodule_search_locations or []
    for folder in folders:
        finder = FileFinder(
            os.path.join(folder, "optimize", "_highspy"), (ExtensionFileLoader, EXTENSION_SUFFIXES)
        )
        spec = finder.find_spec(_BINDING)
        if spec is not None:
            break
    else:
        raise ImportError(f"no {_BINDING} extension file under {folders}")
    core = importlib.util.module_from_spec(spec)  # loads the file and runs its init
    sys.modules[_BINDING] = core
    spec.loader.exec_module(core)
    return core


@functools.cache
def _highs():
    """scipy's bundled HiGHS binding and the options of its linprog, made on the first LP."""
    try:
        core = _load_binding()
    except ImportError as exc:
        raise ImportError(
            "ehlink needs scipy>=1.15, whose bundled HiGHS binding "
            f"({_BINDING}) solves the transfer LP: {exc}"
        ) from exc
    # The options scipy's linprog(method="highs") passes with its defaults.
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return core, options


def _build_lp(core, cost, a_ub, b_ub):
    """The HighsLp of min cost @ x over free x subject to a_ub @ x <= b_ub."""
    import numpy as np

    n = cost.size
    # Column-major nonzeros, rows in order within a column: the CSC form.
    # Lists fill HiGHS's vectors about twice as fast as numpy arrays do.
    cols, rows = np.nonzero(a_ub.T)
    start = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = a_ub.shape[0]
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = a_ub[rows, cols].tolist()
    lp.col_cost_ = cost
    lp.col_lower_ = np.full(n, -core.kHighsInf)
    lp.col_upper_ = np.full(n, core.kHighsInf)
    lp.row_lower_ = np.full(b_ub.size, -core.kHighsInf)
    lp.row_upper_ = b_ub
    return lp


def _chain(cost, a_ub, b_ub):
    """Yield (x, fun) of each LP of `lp_step`'s tie-break chain, in order.

    The plain LP, min cost @ T over the transfer polytope, comes first;
    HiGHS failing to solve it raises `LpInfeasibleError`.  Pinned LP k then
    adds the row that holds the LP before it at its optimum (right-hand side
    ``float(cost @ x)`` after the plain LP, ``fun`` after a pinned one) and
    minimizes T_k.  The chain stops at the first pinned LP HiGHS does not
    solve; one it refuses raises `LpDataError`.
    """
    import numpy as np

    core, options = _highs()
    highs = core._Highs()
    highs.passOptions(options)
    highs.passModel(_build_lp(core, cost, a_ub, b_ub))
    n = cost.size
    error, pin = core.HighsStatus.kError, None  # pin: the last LP's cost row and optimum
    for k, objective_row in enumerate([cost, *np.eye(n)]):
        if pin is not None:
            row, rhs = pin
            cols, bound = np.flatnonzero(row), np.array([rhs])
            if (
                highs.addRows(1, bound, bound, cols.size, np.zeros(1, dtype=int), cols, row[cols]) == error
                or highs.changeColsCost(n, np.arange(n), objective_row) == error
                or highs.passModel(highs.getLp()) == error
            ):
                raise LpDataError(
                    f"HiGHS refused pinned LP {k} of the transfer LP's tie-break chain "
                    f"(row coefficients up to {np.abs(row).max():g}, right-hand side {rhs:g})"
                )
        highs.run()
        status = highs.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            if pin is None:
                raise LpInfeasibleError(f"transfer LP failed: {highs.modelStatusToString(status)}")
            return
        x = np.array(highs.getSolution().col_value)
        fun = highs.getInfo().objective_function_value
        yield x, fun
        pin = (objective_row, fun if pin else float(cost @ x))


class ScheduleConditionError(ValueError):
    """The suffix-sum achievability condition does not hold."""


@dataclass(frozen=True)
class MultiBlockProblem:
    """Shared link constants plus per-block overheads g_i."""

    params: SystemParams
    g_list: tuple[float, ...]
    model: DecoderEnergyModel

    def __post_init__(self):
        object.__setattr__(self, "g_list", tuple(float(g) for g in self.g_list))
        if len(self.g_list) < 1:
            raise ValueError("need at least one block")
        for g in self.g_list:
            if not math.isfinite(g):
                raise ValueError(f"per-block g must be finite, got {g!r}")
            if g < 0:
                raise ValueError("per-block g must be >= 0")
            if self.params.eta * self.params.e_avg - g < -1e-12:
                raise ValueError("need eta * e_avg >= g for every block")

    @property
    def n_blocks(self) -> int:
        return len(self.g_list)


@dataclass(frozen=True)
class MultiBlockSolution:
    per_block: tuple[FullSolution, ...]
    cases: tuple[Case, ...]
    transfers: tuple[float, ...]
    total_bits_per_use: float
    bound: float
    bound_achieved: bool


def solve_p8(p: SystemParams, m: DecoderEnergyModel) -> tuple[float, float]:
    """Maximizer (theta_dot, e_dot) of the unit-budget objective over the box only.

    Solved from the case (a)/(b) candidates; the boundary family (c) does not
    apply because the box has no coupled constraint.  Independent of e_avg
    and g, since the unit-budget objective reads neither.
    """
    # Pairs outside the box are not P8-feasible (case (b) supplies its e_lim
    # edge); memo entries carry the E(theta) and C(e) `objective` would take.
    theta_dot, e_dot, *_ = max(
        (entry for entry in _case_ab_pairs(p.eta, p.e_lim, m) if entry[1] <= p.e_lim + 1e-9),
        key=lambda t: objective(t[0], t[1], p, m, budget=1.0, energy=t[3], c_e=t[4]),
    )
    return theta_dot, e_dot


def g_dot(p: SystemParams, m: DecoderEnergyModel) -> float:
    """Minimum per-block overhead-plus-transfer level keeping (theta_dot, e_dot) feasible.

    Returns -inf when e_dot = e_lim: the boundary constraint then never binds.
    """
    theta_dot, e_dot = solve_p8(p, m)
    if p.e_lim - e_dot <= 1e-12 * p.e_lim:
        return -math.inf
    energy = m.evaluate(theta_dot)
    return p.eta * p.e_avg - (energy + p.eta * e_dot) * (p.e_lim - p.e_avg) / (
        p.e_lim - e_dot
    )


def upper_bound(prob: MultiBlockProblem) -> float:
    """Total budget sum_i (eta*e_avg - g_i) times the unit-budget objective at
    (theta_dot, e_dot)."""
    p, m = prob.params, prob.model
    theta_dot, e_dot = solve_p8(p, m)
    scale = objective(theta_dot, e_dot, p, m, budget=1.0)
    return sum(p.eta * p.e_avg - g for g in prob.g_list) * scale


def theorem2_condition(prob: MultiBlockProblem, gdot: float | None = None) -> bool:
    """Suffix-sum achievability test: sum_{i>=k} g_i >= (N-k+1) * g_dot for all k."""
    if gdot is None:
        gdot = g_dot(prob.params, prob.model)
    if gdot == -math.inf:
        return True
    suffix = 0.0
    count = 0
    for g in reversed(prob.g_list):
        suffix += g
        count += 1
        if suffix < count * gdot - 1e-12:
            return False
    return True


def construct_schedule(prob: MultiBlockProblem, gdot: float | None = None) -> tuple[float, ...]:
    """Constructive transfer schedule achieving the upper bound.

    T_i = max(-prefix, g_dot - g_i) for every block, prefix being the sum of
    the transfers before block i.  Requires the suffix-sum condition; the
    result sums to zero and keeps every block's overhead-plus-transfer at or
    above g_dot.  A block that needs no transfer gets -0.0 (the prefix is
    then +0.0), the zero the transfer LP returns; with g_dot = -inf every
    block does.
    """
    if gdot is None:
        gdot = g_dot(prob.params, prob.model)
    if not theorem2_condition(prob, gdot):
        raise ScheduleConditionError("suffix-sum condition not met")
    transfers: list[float] = []
    prefix = 0.0
    for g in prob.g_list:
        t = float(max(-prefix, gdot - g))
        transfers.append(t)
        prefix += t
    return tuple(transfers)


def _lp_constraints(prob: MultiBlockProblem, thetas, e_is):
    """Inequality system A x <= b for the transfer polytope."""
    import numpy as np

    p, m = prob.params, prob.model
    n = prob.n_blocks
    limit = _highs()[1].large_matrix_value
    # Prefix sums >= 0, then T_i <= eta*e_avg - g_i.
    rows = [np.tril(np.full((n, n), -1.0)), np.eye(n)]
    rhs = [np.zeros(n), p.eta * p.e_avg - np.array(prob.g_list)]
    # Boundary feasibility of the fixed per-block pair, linear in T_i;
    # vacuous when e_i = e_lim.
    for i in range(n):
        gap = p.e_lim - e_is[i]
        if gap <= 1e-12 * p.e_lim:
            continue
        if gap >= limit:
            raise LpDataError(
                f"e_lim = {p.e_lim:g} is too large for the transfer LP: block {i + 1}'s "
                f"coefficient e_lim - e_i = {gap:g} reaches HiGHS's matrix value limit {limit:g}"
            )
        lower = (
            p.eta * p.e_avg * p.e_lim
            - p.eta * p.e_lim * e_is[i]
            - prob.g_list[i] * gap
            - m.evaluate(thetas[i]) * (p.e_lim - p.e_avg)
        )
        row = np.zeros((1, n))
        row[0, i] = -gap
        rows.append(row)
        rhs.append([-lower])
    return np.vstack(rows), np.concatenate(rhs)


def lp_step(prob: MultiBlockProblem, thetas, e_is) -> tuple[float, ...]:
    """Optimal transfers for fixed per-block (theta_i, e_i).

    Minimizes sum_i o_i * T_i over the transfer polytope, where o_i is block
    i's unit-budget objective (the transfer-dependent part of the total
    objective, negated).  Ties are broken toward the lexicographically
    smallest T through a chain of pinning LPs (`_chain`); the plain optimum
    is kept if the chain stops early or its point leaves the polytope or the
    optimal face.  Non-finite LP data, a boundary coefficient e_lim - e_i at
    or above HiGHS's large_matrix_value, and a pinned row HiGHS refuses raise
    `LpDataError`.
    """
    import numpy as np

    p, m = prob.params, prob.model
    n = prob.n_blocks
    cost = np.array([objective(thetas[i], e_is[i], p, m, budget=1.0) for i in range(n)])
    a_ub, b_ub = _lp_constraints(prob, thetas, e_is)
    if not all(np.isfinite(v).all() for v in (cost, a_ub, b_ub)):
        raise LpDataError("transfer LP data must be finite")
    lps = list(_chain(cost, a_ub, b_ub))
    best = lps[0][0]
    if len(lps) == 1 + n:
        tie = lps[-1][0]
        value = float(cost @ best)
        slack = a_ub @ tie - b_ub
        if np.all(slack <= 1e-9) and abs(cost @ tie - value) <= 1e-10 * max(1.0, abs(value)):
            best = tie
    return tuple(float(t) for t in best)


def iterative_solver(prob: MultiBlockProblem) -> MultiBlockSolution:
    """Alternating per-block solves and transfer LPs; local optimum.

    Initialized from the constructive schedule when the suffix-sum condition
    holds, otherwise from zeros.  Where that schedule is all zeros (every
    g_i >= g_dot, or g_dot = -inf), every block solves where (theta_dot,
    e_dot) is feasible, so the first pass reaches the bound, which no
    schedule beats; it is returned with no transfer LP.  Otherwise passes
    and LP steps alternate until a pass gains less than 1e-9.  On small
    budgets HiGHS's absolute tolerances can make an LP pass lose more than
    1e-9, end above bound * (1 + 1e-9), or overdraw (a transfer prefix sum
    below -1e-9 * sum_i (eta*e_avg - g_i)); the pass before it is returned.
    Raises `SolverError` after _MAX_ITERATIONS passes, and what `lp_step`
    raises.  Blocks sharing an overhead g_i + T_i, within a pass or across
    passes, share one `algorithm1` solve.
    """
    p, m = prob.params, prob.model
    n = prob.n_blocks
    gdot = g_dot(p, m)
    bound = upper_bound(prob)
    condition = theorem2_condition(prob, gdot)
    transfers = construct_schedule(prob, gdot) if condition else (0.0,) * n
    no_transfer = condition and not any(transfers)

    # One algorithm1 solve per distinct overhead.  The key holds the sign as
    # well as the value, so that 0.0 and -0.0 stay apart.
    solved: dict[tuple[float, float], tuple] = {}

    def solve_block(g: float) -> tuple:
        key = (g, math.copysign(1.0, g))
        if key not in solved:
            solved[key] = algorithm1(replace(p, g=g), m)
        return solved[key]

    kept = None  # (blocks, transfers, total) of the last pass that held
    for _ in range(_MAX_ITERATIONS):
        # Block i solves with overhead g_i + T_i, clamped against roundoff
        # past the zero-budget point; it may be negative.
        blocks = [
            solve_block(min(g + t, p.eta * p.e_avg)) for g, t in zip(prob.g_list, transfers)
        ]
        total = 0.0
        for cand, _ in blocks:
            total += cand.objective
        if kept is not None and (
            total < kept[2] - 1e-9
            or total > bound * (1.0 + 1e-9)
            or min(accumulate(transfers)) < -1e-9 * sum(p.eta * p.e_avg - g for g in prob.g_list)
        ):
            blocks, transfers, total = kept
            break
        if no_transfer or (kept is not None and total - kept[2] < _CONVERGENCE_TOL):
            break
        kept = (blocks, transfers, total)
        thetas = [cand.theta for cand, _ in blocks]
        e_is = [cand.e_i for cand, _ in blocks]
        transfers = lp_step(prob, thetas, e_is)
    else:
        raise SolverError(f"no convergence in {_MAX_ITERATIONS} passes of the alternation")

    return MultiBlockSolution(
        per_block=tuple(full for _, full in blocks),
        cases=tuple(cand.case_label for cand, _ in blocks),
        transfers=transfers,
        total_bits_per_use=total,
        bound=bound,
        bound_achieved=abs(total - bound) <= 1e-9 * bound,
    )


def threshold_u(p: SystemParams, m: DecoderEnergyModel, g: float) -> float:
    """The e_avg level at which g_dot equals the uniform per-block overhead g.

    For e_avg at or below this threshold the multi-block upper bound is
    achievable (uniform-g case).  Solves g_dot(e_avg) = g in closed form;
    (theta_dot, e_dot) do not depend on e_avg.  Returns +inf in the
    degenerate e_dot = e_lim case.
    """
    theta_dot, e_dot = solve_p8(p, m)
    if p.e_lim - e_dot <= 1e-12 * p.e_lim:
        return math.inf
    energy = m.evaluate(theta_dot)
    denom = p.eta * p.e_lim + energy
    return (p.e_lim - e_dot) / denom * g + (p.eta * e_dot + energy) / denom * p.e_lim
