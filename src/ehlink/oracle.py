"""Brute-force verification oracles, independent of the equation solvers.

Dense grid search for the single-block problem and the normalized box
problem, plus exhaustive vertex enumeration for the transfer LP.  These are
deliberately slow-and-simple; they exist to certify the fast solvers, so they
state the objective, the BSC capacity over a grid and the transfer polytope
themselves and call no solver code (only its data classes are imported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .decoder_energy import DecoderEnergyModel, inverse_energy
from .multi_block import MultiBlockProblem
from .single_block import SystemParams

__all__ = [
    "GridSpec",
    "grid_search_p2",
    "grid_search_p8",
    "enumerate_lp_vertices",
]


@dataclass(frozen=True)
class GridSpec:
    theta_points: int = 1000
    e_points: int = 1000

    def __post_init__(self):
        if self.theta_points < 2 or self.e_points < 2:
            raise ValueError("grid counts must be >= 2")


def _capacity(e):
    """BSC capacity 1 - H2(Q(sqrt(2*e))) over an array of energies e >= 0."""
    from scipy import special

    eps = 0.5 * special.erfc(np.sqrt(2.0 * e) / math.sqrt(2.0))
    c = 1.0 + (special.xlogy(eps, eps) + special.xlogy(1.0 - eps, 1.0 - eps)) / math.log(2.0)
    return np.clip(c, 0.0, 1.0)


def _objective_matrix(theta_grid, e_grid, budget, p, m):
    cap = _capacity(e_grid)
    energy = np.fromiter(map(m.evaluate, theta_grid), float, len(theta_grid))
    factor = (theta_grid - 1.0) / theta_grid
    denom = p.eta * e_grid[None, :] + energy[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        obj = factor[:, None] * budget * cap[None, :] / denom
    obj[~np.isfinite(obj)] = 0.0
    return obj, energy


def grid_search_p2(
    p: SystemParams, m: DecoderEnergyModel, spec: GridSpec = GridSpec()
) -> tuple[float, float, float]:
    """Exhaustive feasible-grid maximization of the single-block objective.

    Theta is log-spaced up to the boundary level theta' plus margin (doubled
    if the argmax lands on the upper edge); e_i is linear on [0, e_lim].
    """
    budget = p.eta * p.e_avg - p.g
    theta_prime = inverse_energy(m, max(budget, 0.0) / (p.e_lim - p.e_avg) * p.e_lim)
    theta_max = 2.0 * max(theta_prime, 2.0)
    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    span = p.e_lim - p.e_avg
    k1 = (p.eta * p.e_lim - p.g) / span
    rhs = budget / span * p.e_lim
    for _ in range(8):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        obj, energy = _objective_matrix(theta_grid, e_grid, budget, p, m)
        mask = energy[:, None] + k1 * e_grid[None, :] >= rhs - 1e-10
        if not mask.any():
            raise ValueError("empty feasible grid; invalid parameters")
        obj = np.where(mask, obj, -np.inf)
        i, j = np.unravel_index(np.argmax(obj), obj.shape)
        if i < spec.theta_points - 1 or budget == 0.0:
            return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])
        theta_max *= 2.0
    return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])


def grid_search_p8(
    p: SystemParams, m: DecoderEnergyModel, spec: GridSpec = GridSpec()
) -> tuple[float, float, float]:
    """Exhaustive box maximization of the objective at unit budget.

    Uses only the box constraints (no boundary coupling), so the result does
    not depend on e_avg or g.  The theta range starts at 8 and doubles while
    the argmax sits on the upper edge.
    """
    theta_max = 8.0
    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    for _ in range(16):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        obj, _ = _objective_matrix(theta_grid, e_grid, 1.0, p, m)
        i, j = np.unravel_index(np.argmax(obj), obj.shape)
        if i < spec.theta_points - 1:
            return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])
        theta_max *= 2.0
    return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])


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
    n = prob.n_blocks
    if n > 4:
        raise ValueError("vertex enumeration limited to N <= 4")
    p, m = prob.params, prob.model
    # Cost: each block's normalized objective (budget 1), the diagonal of the
    # grid objective over the block pairs.
    obj, _ = _objective_matrix(
        np.asarray(thetas, dtype=float), np.asarray(e_is, dtype=float), 1.0, p, m
    )
    cost = obj.diagonal()
    a_ub, b_ub = _transfer_polytope(prob, thetas, e_is)
    vertices = []
    for rows in combinations(range(len(b_ub)), n):
        a = a_ub[list(rows)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b_ub[list(rows)])
        if np.all(a_ub @ x <= b_ub + 1e-9):
            vertices.append(x)
    if not vertices:
        return "infeasible", None
    values = [float(cost @ v) for v in vertices]
    best_value = min(values)
    optimal = [
        v for v, val in zip(vertices, values) if val <= best_value + 1e-9
    ]
    best = min(optimal, key=lambda v: tuple(v))
    return "optimal", tuple(float(t) for t in best)
