"""Brute-force verification oracles, independent of the equation solvers.

Dense grid search for the single-block problem and the normalized box
problem, plus exhaustive vertex enumeration for the transfer LP.  These are
deliberately simple; they exist to certify the fast solvers, so they state
the objective, the BSC capacity over a grid and the transfer polytope
themselves and call no solver code (only its data classes are imported).
The grid searches still evaluate every cell, a block of theta rows at a
time, and the vertex enumeration still solves every choice of rows, in one
stacked call.  numpy and scipy are imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .decoder_energy import DecoderEnergyModel, inverse_energy
from .multi_block import MultiBlockProblem
from .single_block import SystemParams

__all__ = [
    "GridSpec",
    "grid_search_p2",
    "grid_search_p8",
    "enumerate_lp_vertices",
]

# Theta rows per block of a grid search.  At 1000 e points a block array is
# 256 KB, and the five a masked search holds (three repeated e rows, the
# objective and its denominator) fit in one core's 2 MB L2.  On a 2-vCPU
# Xeon VM, 32 and 48 rows were fastest of 16 to 128, and 64 was 30% slower.
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class GridSpec:
    theta_points: int = 1000
    e_points: int = 1000

    def __post_init__(self):
        if self.theta_points < 2 or self.e_points < 2:
            raise ValueError("grid counts must be >= 2")


def _capacity(e):
    """BSC capacity 1 - H2(Q(sqrt(2*e))) over an array of energies e >= 0."""
    import numpy as np
    from scipy import special

    eps = 0.5 * special.erfc(np.sqrt(2.0 * e) / math.sqrt(2.0))
    c = 1.0 + (special.xlogy(eps, eps) + special.xlogy(1.0 - eps, 1.0 - eps)) / math.log(2.0)
    return np.clip(c, 0.0, 1.0)


def _objective_rows(theta, energy, cap, eta_e, budget, out, work):
    """Fill ``out`` with ((theta-1)/theta * budget) * C(e) / (eta*e + E(theta)).

    Rows take theta and ``energy`` = E(theta).  Columns take ``cap`` = C(e)
    and ``eta_e`` = eta*e, each one row for all, or one row per theta.  A
    cell with no finite value (0/0 where E = e = 0) reads 0; when every E is
    positive, every denominator is, and no cell needs the repair.  ``work``
    receives the denominator.
    """
    import numpy as np

    np.copyto(out, ((theta - 1.0) / theta * budget)[:, None])
    out *= cap
    np.copyto(work, energy[:, None])
    work += eta_e
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= work
    if not np.all(energy > 0.0):
        out[~np.isfinite(out)] = 0.0
    return out


def _grid_argmax(theta_grid, e_grid, budget, p, m, k1=None, rhs=None):
    """First maximum, in row-major order, of the objective over the grid.

    With ``k1`` and ``rhs``, only cells with E(theta) + k1*e >= rhs, within
    1e-10 * max(1, rhs), count, and a grid with none raises.  Every cell is
    evaluated, but _BLOCK_ROWS theta rows at a time in arrays allocated once
    per call, so no array outgrows the cache.  A later block takes over only on a
    strictly larger value, as one argmax over the whole grid would.
    Returns (i, j, value).
    """
    import numpy as np

    n = len(theta_grid)
    energy = np.fromiter(map(m.evaluate, theta_grid), float, n)
    shape = (min(_BLOCK_ROWS, n), len(e_grid))

    def repeated(row):
        # One copy of an e row per theta row of a block, so that every step
        # below is an elementwise operation on contiguous arrays.
        return np.broadcast_to(row, shape).copy()

    cap, eta_e = repeated(_capacity(e_grid)), repeated(p.eta * e_grid)
    if k1 is not None:
        threshold, k1_e = rhs - 1e-10 * max(1.0, rhs), repeated(k1 * e_grid)
        passes = np.empty(shape, dtype=bool)
    out, work = np.empty(shape), np.empty(shape)
    best = (-1, -1, -np.inf)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        size = rows.stop - start
        obj = _objective_rows(
            theta_grid[rows], energy[rows], cap[:size], eta_e[:size], budget, out[:size], work[:size]
        )
        # k1 >= 0 makes E + k1*e non-decreasing along a row, so a block
        # whose rows all pass at e = 0 passes everywhere.
        if k1 is not None and not (k1 >= 0.0 and np.all(energy[rows] >= threshold)):
            lhs = work[:size]  # the denominator is spent
            np.copyto(lhs, energy[rows, None])
            lhs += k1_e[:size]
            np.greater_equal(lhs, threshold, out=passes[:size])
            np.copyto(obj, -np.inf, where=~passes[:size])
        k = int(np.argmax(obj))
        if obj.flat[k] > best[2]:
            i, j = divmod(k, len(e_grid))
            best = (start + i, j, float(obj.flat[k]))
    if best[0] < 0:
        raise ValueError("empty feasible grid; invalid parameters")
    return best


def grid_search_p2(
    p: SystemParams, m: DecoderEnergyModel, spec: GridSpec = GridSpec()
) -> tuple[float, float, float]:
    """Exhaustive feasible-grid maximization of the single-block objective.

    Theta is log-spaced up to the boundary level theta' plus margin (doubled
    if the argmax lands on the upper edge); e_i is linear on [0, e_lim].
    """
    import numpy as np

    budget = p.eta * p.e_avg - p.g
    theta_prime = inverse_energy(m, max(budget, 0.0) / (p.e_lim - p.e_avg) * p.e_lim)
    theta_max = 2.0 * max(theta_prime, 2.0)
    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    span = p.e_lim - p.e_avg
    k1 = (p.eta * p.e_lim - p.g) / span
    rhs = budget / span * p.e_lim
    for _ in range(8):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        i, j, value = _grid_argmax(theta_grid, e_grid, budget, p, m, k1, rhs)
        if i < spec.theta_points - 1 or budget == 0.0:
            break
        theta_max *= 2.0
    return float(theta_grid[i]), float(e_grid[j]), value


def grid_search_p8(
    p: SystemParams, m: DecoderEnergyModel, spec: GridSpec = GridSpec()
) -> tuple[float, float, float]:
    """Exhaustive box maximization of the objective at unit budget.

    Uses only the box constraints (no boundary coupling), so the result does
    not depend on e_avg or g.  The theta range starts at 8 and doubles while
    the argmax sits on the upper edge.
    """
    import numpy as np

    theta_max = 8.0
    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    for _ in range(16):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        i, j, value = _grid_argmax(theta_grid, e_grid, 1.0, p, m)
        if i < spec.theta_points - 1:
            break
        theta_max *= 2.0
    return float(theta_grid[i]), float(e_grid[j]), value


def _transfer_polytope(prob: MultiBlockProblem, thetas, e_is):
    """Inequality system A T <= b over the transfers T, in three row groups.

    1. Energy cannot be borrowed from later blocks: T_1 + ... + T_k >= 0.
    2. A block cannot bank more than its net harvest: T_i <= eta*e_avg - g_i.
    3. Block i's fixed pair stays feasible at overhead g_i + T_i.  Its
       single-block feasibility condition
       E(theta_i)*(e_lim - e_avg) + (eta*e_lim - g_i - T_i)*e_i
           >= (eta*e_avg - g_i - T_i)*e_lim
       is linear in T_i with coefficient e_lim - e_i, and vacuous when
       e_i = e_lim.
    """
    import numpy as np

    p, m = prob.params, prob.model
    n = prob.n_blocks
    prefix = np.tril(np.full((n, n), -1.0))
    rows = [prefix, np.eye(n)]
    rhs = [np.zeros(n), p.eta * p.e_avg - np.array(prob.g_list)]
    for i in range(n):
        gap = p.e_lim - e_is[i]
        if gap <= 1e-12 * p.e_lim:
            continue
        # (e_lim - e_i) * T_i >= lower, rearranged from the condition above.
        lower = (
            p.eta * p.e_avg * p.e_lim
            - p.eta * p.e_lim * e_is[i]
            - prob.g_list[i] * gap
            - m.evaluate(thetas[i]) * (p.e_lim - p.e_avg)
        )
        row = np.zeros((1, n))
        row[0, i] = -gap
        rows.append(row)
        rhs.append(np.array([-lower]))
    return np.vstack(rows), np.concatenate(rhs)


def enumerate_lp_vertices(
    prob: MultiBlockProblem, thetas, e_is
) -> tuple[str, tuple[float, ...] | None]:
    """Exhaustive vertex optimum of the transfer polytope (N <= 4 blocks).

    Intersects every choice of N constraints taken as equalities, keeps the
    feasible points, and returns the cost-minimal one, ties broken toward
    the lexicographically smallest transfer vector.  Status is one of
    "optimal" or "infeasible".
    """
    import numpy as np

    n = prob.n_blocks
    if n > 4:
        raise ValueError("vertex enumeration limited to N <= 4")
    p, m = prob.params, prob.model
    # Cost: each block's normalized objective (budget 1), the diagonal of the
    # grid objective over the block pairs.
    theta, e = np.asarray(thetas, dtype=float), np.asarray(e_is, dtype=float)
    energy = np.fromiter(map(m.evaluate, theta), float, n)
    cost = _objective_rows(
        theta, energy, _capacity(e), p.eta * e, 1.0, np.empty((n, n)), np.empty((n, n))
    ).diagonal()
    a_ub, b_ub = _transfer_polytope(prob, thetas, e_is)
    # Every choice of n rows at once: drop the singular ones (a NaN
    # determinant is kept), solve the rest as equalities, keep the points
    # that satisfy every row.  The stacked matmuls form each product as a
    # single matrix-vector or vector-vector product would.
    rows = np.array(list(combinations(range(len(b_ub)), n)))
    a = a_ub[rows]
    regular = ~(np.abs(np.linalg.det(a)) < 1e-12)
    x = np.linalg.solve(a[regular], b_ub[rows[regular]][..., None])[..., 0]
    inside = np.all(np.matmul(a_ub, x[..., None])[..., 0] <= b_ub + 1e-9, axis=1)
    vertices = x[inside]
    if not len(vertices):
        return "infeasible", None
    values = np.matmul(vertices[:, None, :], cost)[:, 0]
    optimal = vertices[values <= values.min() + 1e-9]
    return "optimal", min(map(tuple, optimal.tolist()))
