"""Multi-block planner with inter-block energy transfers.

Energy harvested in one block may be banked and spent later.  Introducing a
per-block transfer variable T_i (positive: bank, negative: withdraw) turns
the coupled energy-causality constraints into prefix-sum constraints, and
each block then looks like a single-block problem with overhead g_i + T_i.

The per-block objective scale factor (the normalized objective, which is the
single-block `objective` at unit budget) admits a block-independent
maximizer (theta_dot, e_dot), which yields a closed-form upper bound and the
suffix-sum achievability condition.  The general case alternates per-block
single-block solves with an exact LP over the transfers, which HiGHS solves
through scipy's bundled binding (`linprog`, the one LP entry point).  scipy
loads on the first LP, so importing this module loads neither scipy nor numpy.

The process holds one HiGHS model.  Each `lp_step` is a plain solve and a
chain of pinning LPs, each the one before plus an equality row and a new
cost, so a pinned LP only adds its row and sets its cost on the held model.
It then passes HiGHS its own model back (``passModel(getLp())``), which
drops all solver state: HiGHS solves from a cold start, presolve included,
and returns the bits a model built afresh would.  Two cheaper resets change
bits and are not used: ``clearSolver()`` alone moved the last bit of a
pinned LP's solution, and warm starts take other simplex paths and moved
some chains' final transfers in the 11th digit.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

from .decoder_energy import DecoderEnergyModel
from .single_block import (
    Case,
    FullSolution,
    SolverError,
    SystemParams,
    algorithm1,
    case_ab_pairs,
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

_BOUND_TOL = 1e-8
_CONVERGENCE_TOL = 1e-9
_MAX_ITERATIONS = 200


class LpInfeasibleError(RuntimeError):
    """The transfer LP has no feasible point for the given per-block pairs."""


class LpDataError(ValueError):
    """The transfer LP's data are not finite, not of one width, or too large for HiGHS."""


class LpResult(NamedTuple):
    """One LP solve: HiGHS's model status text, and the optimum when it found one."""

    success: bool
    x: object  # numpy array of column values; None unless success
    fun: float | None
    message: str


@functools.cache
def _highs():
    """scipy's bundled HiGHS binding and the held model, made on the first LP."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise ImportError(
            "ehlink needs scipy>=1.15, whose bundled HiGHS binding "
            f"(scipy.optimize._highspy._core) solves the transfer LP: {exc}"
        ) from exc
    # The options scipy's linprog(method="highs") passes with its defaults.
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    highs = _core._Highs()
    highs.passOptions(options)
    return _core, _HeldLp(highs)


def _same(x, y) -> bool:
    """Equal shapes and equal bits (so 0.0 and -0.0 differ): HiGHS gets the call's own numbers."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _build_lp(core, cost, a_ub, b_ub, a_eq, b_eq):
    """The HighsLp of min cost @ x over free x, a_ub @ x <= b_ub, a_eq @ x = b_eq."""
    import numpy as np

    n = cost.size
    a = np.vstack((a_ub, a_eq))
    # Column-major nonzeros, rows in order within a column: the CSC form.
    # Lists fill HiGHS's vectors about twice as fast as numpy arrays do.
    cols, rows = np.nonzero(a.T)
    start = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = a[rows, cols].tolist()
    lp.col_cost_ = cost
    lp.col_lower_ = np.full(n, -core.kHighsInf)
    lp.col_upper_ = np.full(n, core.kHighsInf)
    lp.row_lower_ = np.concatenate((np.full(b_ub.size, -core.kHighsInf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))
    return lp


class _HeldLp:
    """The process's one HiGHS instance, and copies of the rows of the model it holds.

    ``rows`` is None when HiGHS holds no model that a call may extend.
    """

    def __init__(self, highs):
        self.highs = highs
        self.lock = threading.Lock()
        self.rows = None  # (number of columns, a_ub, b_ub, a_eq, b_eq)
        # HiGHS refuses a model with a matrix value of at least this size.
        self.matrix_limit = highs.getOptions().large_matrix_value

    def extend(self, core, cost, a_ub, b_ub, a_eq, b_eq) -> bool:
        """Make the held model the call's by adding rows and setting the cost, if it can."""
        import numpy as np

        if self.rows is None:
            return False
        n, held_a_ub, held_b_ub, held_a_eq, held_b_eq = self.rows
        k = held_b_eq.size
        if not (
            cost.size == n
            and _same(a_ub, held_a_ub)
            and _same(b_ub, held_b_ub)
            and _same(a_eq[:k], held_a_eq)
            and _same(b_eq[:k], held_b_eq)
        ):
            return False
        new, rhs = a_eq[k:], b_eq[k:]
        rows, cols = np.nonzero(new)
        start = np.searchsorted(rows, np.arange(rhs.size))
        highs, error = self.highs, core.HighsStatus.kError
        # passModel(getLp()) is the cold start.  A step HiGHS rejects leaves
        # the held model unknown, so the call then rebuilds it.
        if (
            highs.addRows(rhs.size, rhs, rhs, rows.size, start, cols, new[rows, cols]) == error
            or highs.changeColsCost(n, np.arange(n), cost) == error
            or highs.passModel(highs.getLp()) == error
        ):
            self.rows = None
            return False
        self.rows = (n, held_a_ub, held_b_ub, a_eq.copy(), b_eq.copy())
        return True

    def build(self, core, cost, a_ub, b_ub, a_eq, b_eq) -> None:
        """Pass HiGHS the call's model, built from numpy, in place of the held one."""
        status = self.highs.passModel(_build_lp(core, cost, a_ub, b_ub, a_eq, b_eq))
        held = (cost.size, a_ub.copy(), b_ub.copy(), a_eq.copy(), b_eq.copy())
        self.rows = None if status == core.HighsStatus.kError else held


def _result(core, highs) -> LpResult:
    """HiGHS's outcome of its last run, as an LpResult."""
    import numpy as np

    status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    if status != core.HighsModelStatus.kOptimal:
        return LpResult(False, None, None, message)
    x = np.array(highs.getSolution().col_value)
    return LpResult(True, x, highs.getInfo().objective_function_value, message)


def linprog(cost, a_ub, b_ub, a_eq=None, b_eq=None) -> LpResult:
    """Minimize cost @ x over free x subject to a_ub @ x <= b_ub and a_eq @ x = b_eq.

    One solve by HiGHS with the model and options of scipy's
    ``linprog(method="highs")``, so it returns the same floats.  Every call
    runs on the process's one held HiGHS model (see the module docstring).
    When the call's ``a_ub`` and ``b_ub`` equal the held copies bit for bit
    and the held equality rows are a prefix of the call's, only the new
    rows and the cost go to HiGHS; any other call builds its model from
    numpy, which then becomes the held one.  scipy is imported on the first
    call: single-block commands load none of it.
    """
    import numpy as np

    cost = np.asarray(cost, dtype=float)
    a_ub, b_ub = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    if a_eq is None:
        a_eq, b_eq = np.empty((0, cost.size)), np.empty(0)
    a_eq, b_eq = np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)
    if not all(np.isfinite(v).all() for v in (cost, a_ub, b_ub, a_eq, b_eq)):
        raise LpDataError("transfer LP data must be finite")
    if not (
        cost.ndim == 1
        and a_ub.ndim == a_eq.ndim == 2
        and a_ub.shape[1] == a_eq.shape[1] == cost.size
    ):
        raise LpDataError(
            f"transfer LP has {cost.size} costs but a_ub of shape {a_ub.shape} "
            f"and a_eq of shape {a_eq.shape}"
        )
    core, held = _highs()
    with held.lock:
        if not held.extend(core, cost, a_ub, b_ub, a_eq, b_eq):
            held.build(core, cost, a_ub, b_ub, a_eq, b_eq)
        held.highs.run()
        return _result(core, held.highs)


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
    # Interior stationary pairs outside the box are not P8-feasible; the box
    # optimum is then on the e_i = e_lim edge, which case (b) supplies.
    in_box = [pair for pair in case_ab_pairs(p, m) if pair[1] <= p.e_lim + 1e-9]
    best = max(in_box, key=lambda pair: objective(pair[0], pair[1], p, m, budget=1.0))
    return best[0], best[1]


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

    T_1 = max(0, g_dot - g_1); T_i = max(-prefix, g_dot - g_i) afterwards.
    Requires the suffix-sum condition; the result sums to zero and keeps
    every block's overhead-plus-transfer at or above g_dot.
    """
    if gdot is None:
        gdot = g_dot(prob.params, prob.model)
    if not theorem2_condition(prob, gdot):
        raise ScheduleConditionError("suffix-sum condition not met")
    if gdot == -math.inf:
        return (0.0,) * prob.n_blocks
    transfers: list[float] = []
    prefix = 0.0
    for i, g in enumerate(prob.g_list):
        t = float(max(0.0, gdot - g) if i == 0 else max(-prefix, gdot - g))
        transfers.append(t)
        prefix += t
    return tuple(transfers)


def _lp_constraints(prob: MultiBlockProblem, thetas, e_is):
    """Inequality system A x <= b for the transfer polytope."""
    import numpy as np

    p, m = prob.params, prob.model
    n = prob.n_blocks
    limit = _highs()[1].matrix_limit
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
    smallest T through a chain of pinning LPs.  A boundary coefficient
    e_lim - e_i at or above HiGHS's large_matrix_value raises
    `LpDataError`: HiGHS would refuse the model unsolved.
    """
    import numpy as np

    p, m = prob.params, prob.model
    n = prob.n_blocks
    cost = np.array([objective(thetas[i], e_is[i], p, m, budget=1.0) for i in range(n)])
    a_ub, b_ub = _lp_constraints(prob, thetas, e_is)
    res = linprog(cost, a_ub, b_ub)
    if not res.success:
        raise LpInfeasibleError(f"transfer LP failed: {res.message}")
    best = res.x
    value = float(cost @ best)
    # Lexicographic tie-break: pin the objective, then minimize coordinates
    # in order.  Keep the plain optimum if the chain fails or its point
    # leaves the polytope or the optimal face.
    a_eq, b_eq = [cost], [value]
    for unit in np.eye(n):
        tie = linprog(unit, a_ub, b_ub, np.array(a_eq), np.array(b_eq))
        if not tie.success:
            break
        a_eq.append(unit)
        b_eq.append(float(tie.fun))
    else:
        slack = a_ub @ tie.x - b_ub
        if np.all(slack <= 1e-9) and abs(cost @ tie.x - value) <= 1e-10 * max(1.0, abs(value)):
            best = tie.x
    return tuple(float(t) for t in best)


def iterative_solver(prob: MultiBlockProblem) -> MultiBlockSolution:
    """Alternating per-block solves and transfer LPs; local optimum.

    Initialized from the constructive schedule when the suffix-sum condition
    holds (the first pass is then already optimal), otherwise from zeros.
    The objective is non-decreasing across steps; convergence is declared on
    an improvement below 1e-9.  An infeasible transfer LP raises
    `LpInfeasibleError`.  Blocks that share an overhead g_i + T_i, within a
    pass or across passes, share one `algorithm1` solve.
    """
    p, m = prob.params, prob.model
    n = prob.n_blocks
    gdot = g_dot(p, m)
    bound = upper_bound(prob)
    condition = theorem2_condition(prob, gdot)
    transfers = construct_schedule(prob, gdot) if condition else (0.0,) * n

    # One algorithm1 solve per distinct overhead.  The key holds the sign as
    # well as the value, so that 0.0 and -0.0 stay apart.
    solved: dict[tuple[float, float], tuple] = {}

    def solve_block(g: float) -> tuple:
        key = (g, math.copysign(1.0, g))
        if key not in solved:
            solved[key] = algorithm1(replace(p, g=g), m)
        return solved[key]

    prev_total = -math.inf
    blocks: list[tuple] = []
    total = 0.0
    for _ in range(_MAX_ITERATIONS):
        # Block i solves with overhead g_i + T_i, clamped against roundoff
        # past the zero-budget point; it may be negative.
        blocks = [
            solve_block(min(g + t, p.eta * p.e_avg)) for g, t in zip(prob.g_list, transfers)
        ]
        total = 0.0
        for cand, _ in blocks:
            total += cand.objective
        if total < prev_total - 1e-9:
            raise SolverError("objective decreased across iterations")
        if total - prev_total < _CONVERGENCE_TOL:
            break
        prev_total = total
        thetas = [cand.theta for cand, _ in blocks]
        e_is = [cand.e_i for cand, _ in blocks]
        transfers = lp_step(prob, thetas, e_is)

    return MultiBlockSolution(
        per_block=tuple(full for _, full in blocks),
        cases=tuple(cand.case_label for cand, _ in blocks),
        transfers=transfers,
        total_bits_per_use=total,
        bound=bound,
        bound_achieved=abs(total - bound) <= _BOUND_TOL,
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
