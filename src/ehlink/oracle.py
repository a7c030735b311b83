"""Brute-force verification oracles, independent of the equation solvers.

Dense grid search for the single-block problem and the normalized box
problem, which share one theta-range search that doubles the range while
the maximum sits on its upper edge, plus exhaustive vertex enumeration for
the transfer LP.  These are deliberately simple; they exist to certify the
fast solvers, so they state the objective, the BSC capacity over a grid and
the transfer polytope themselves and call no solver code (only its data
classes are imported).
The grid searches return the first maximum over every cell, but evaluate
only the cells that an exact float bound (the box bound of monotonic
optimization, taken on the grid's own floats per block of theta rows and
per e column) cannot rule out.
The vertex enumeration solves every choice of rows, in one stacked call.
numpy is imported on first use, and no scipy.
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
# 256 KB, and the objective, its denominator and the mask fit in one core's
# 2 MB L2.  On a 2-vCPU Xeon VM, with every block evaluated and three
# repeated e rows held besides, 32 and 48 rows were fastest of 16 to 128.
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class GridSpec:
    theta_points: int = 1000
    e_points: int = 1000

    def __post_init__(self):
        if self.theta_points < 2 or self.e_points < 2:
            raise ValueError("grid counts must be >= 2")


def _capacity(e):
    """BSC capacity 1 - H2(Q(sqrt(2*e))) over an array of energies e >= 0.

    erfc is taken per element with `math.erfc`; a grid holds at most a few
    thousand energies.  0*log(0) reads 0, at a crossover that underflowed.
    """
    import numpy as np

    x = (np.sqrt(2.0 * e) / math.sqrt(2.0)).ravel()
    eps = 0.5 * np.fromiter(map(math.erfc, x.tolist()), float, x.size).reshape(np.shape(e))
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_log_eps = np.where(eps > 0.0, eps * np.log(eps), 0.0)
    c = 1.0 + (eps_log_eps + (1.0 - eps) * np.log(1.0 - eps)) / math.log(2.0)
    return np.clip(c, 0.0, 1.0)


def _objective_rows(factor, energy, cap, eta_e, out, work):
    """Fill ``out`` with factor * C(e) / (eta*e + E(theta)).

    Rows take ``factor`` = (theta-1)/theta * budget and ``energy`` = E(theta);
    columns take ``cap`` = C(e) and ``eta_e`` = eta*e.  A cell with no finite
    value (0/0 where E = e = 0) reads 0; when every E is positive, every
    denominator is, and no cell needs the repair.  ``work`` receives the
    denominator.
    """
    import numpy as np

    np.multiply(factor[:, None], cap, out=out)
    np.add(energy[:, None], eta_e, out=work)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= work
    if not np.all(energy > 0.0):
        out[~np.isfinite(out)] = 0.0
    return out


def _grid_argmax(theta_grid, e_grid, budget, p, m, k1=None, rhs=None):
    """First maximum, in row-major order, of the objective over the grid.

    With ``k1`` and ``rhs``, only cells with E(theta) + k1*e >= rhs, within
    1e-10 * max(1, rhs), count, and a grid with none raises.  The grid is
    cut into blocks of _BLOCK_ROWS theta rows, and only the cells that a
    float bound says could hold that first maximum are evaluated.  The bound
    is exact in floats: a cell is fl(fl(t*C) / fl(E + eta*e)) with t =
    (theta-1)/theta * budget, and rounding is monotone, so with C >= 0 and
    E > 0 no cell of a block exceeds bound[b, j] = fl(fl(t_max*C) / fl(E_min
    + eta*e)) in its column j, where t_max and E_min are the block's largest
    t and smallest E (read from the arrays, not from the model's shape).  A
    column whose E_max + k1*e fails the mask fails on every row of the block,
    and bounds at -inf.  Blocks are visited in descending bound order; one is
    skipped when its bound is below the best value, or equal to it and the
    block starts after the best row.  In a block that is evaluated, only the
    columns with bound[b, j] >= the best value are, in row-major order; the
    others cannot reach it.  A block takes over on a larger value, or an
    equal one at an earlier row, so the result is the first maximum, as one
    argmax over the whole grid gives.  With budget <= 0, or an E that is
    not finite and positive, there is no bound, and every cell is evaluated
    in row order.
    Returns (i, j, value).
    """
    import numpy as np

    n, n_e = len(theta_grid), len(e_grid)
    # float(np.float64) is exact, and a Python float is the model's fast path.
    energy = np.fromiter(map(m.evaluate, theta_grid.tolist()), float, n)
    factor = (theta_grid - 1.0) / theta_grid * budget
    cap, eta_e = _capacity(e_grid), p.eta * e_grid
    if k1 is not None:
        threshold, k1_e = rhs - 1e-10 * max(1.0, rhs), k1 * e_grid
    starts = np.arange(0, n, _BLOCK_ROWS)
    if budget > 0.0 and np.all(np.isfinite(energy) & (energy > 0.0)):
        bound = np.multiply(np.maximum.reduceat(factor, starts)[:, None], cap)
        bound /= np.add(np.minimum.reduceat(energy, starts)[:, None], eta_e)
        if k1 is not None:
            e_max = np.maximum.reduceat(energy, starts)
            bound[np.add(e_max[:, None], k1_e) < threshold] = -np.inf
    else:
        # No bound: every cell is evaluated, the blocks in row order.
        bound = np.full((len(starts), n_e), np.inf)
    block_bound = bound.max(axis=1)
    # Flat buffers, viewed as (rows, kept columns) per block.
    out, work = np.empty(_BLOCK_ROWS * n_e), np.empty(_BLOCK_ROWS * n_e)
    if k1 is not None:
        passes = np.empty(_BLOCK_ROWS * n_e, dtype=bool)
    best = (-1, -1, -np.inf)
    for b in np.argsort(-block_bound, kind="stable"):
        start = int(starts[b])
        if block_bound[b] < best[2] or (block_bound[b] == best[2] and start > best[0]):
            continue
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        size = rows.stop - start
        # The first block visited keeps every column, as best is then -inf.
        cols = np.flatnonzero(bound[b] >= best[2])
        shape = (size, len(cols))
        cells = size * len(cols)
        obj = _objective_rows(
            factor[rows], energy[rows], cap[cols], eta_e[cols],
            out[:cells].reshape(shape), work[:cells].reshape(shape),
        )
        # k1 >= 0 makes E + k1*e non-decreasing along a row, so a block
        # whose rows all pass at e = 0 passes everywhere.
        if k1 is not None and not (k1 >= 0.0 and np.all(energy[rows] >= threshold)):
            lhs = work[:cells].reshape(shape)  # the denominator is spent
            np.add(energy[rows, None], k1_e[cols], out=lhs)
            ok = passes[:cells].reshape(shape)
            np.greater_equal(lhs, threshold, out=ok)
            np.copyto(obj, -np.inf, where=~ok)
        k = int(np.argmax(obj))
        i, jj = divmod(k, shape[1])
        value = obj.flat[k]
        if value > best[2] or (value == best[2] and start + i < best[0]):
            best = (start + i, int(cols[jj]), float(value))
    if best[0] < 0:
        raise ValueError("empty feasible grid; invalid parameters")
    return best


def _range_search(p, m, spec, theta_max, ranges, budget, k1=None, rhs=None):
    """`_grid_argmax` over log-spaced theta in [1 + 1e-6, theta_max], e in [0, e_lim].

    theta_max doubles while the argmax sits on the upper theta edge, for at
    most ``ranges`` ranges, and a ValueError past the last.  At zero budget
    every cell is 0, and the first one is returned on the first range.
    Returns (theta, e, value).
    """
    import numpy as np

    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    for _ in range(ranges):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        i, j, value = _grid_argmax(theta_grid, e_grid, budget, p, m, k1, rhs)
        if i < spec.theta_points - 1 or budget == 0.0:
            return float(theta_grid[i]), float(e_grid[j]), value
        theta_max *= 2.0
    raise ValueError(
        f"grid argmax on the upper edge of all {ranges} theta ranges; the last was "
        f"[{float(theta_grid[0])!r}, {float(theta_grid[-1])!r}]"
    )


def grid_search_p2(
    p: SystemParams, m: DecoderEnergyModel, spec: GridSpec = GridSpec()
) -> tuple[float, float, float]:
    """Feasible-grid maximization of the single-block objective.

    Theta is log-spaced up to the boundary level theta' plus margin, and
    e_i is linear on [0, e_lim]; `_range_search` tries at most 8 theta ranges.
    """
    budget = p.eta * p.e_avg - p.g
    theta_prime = inverse_energy(m, max(budget, 0.0) / (p.e_lim - p.e_avg) * p.e_lim)
    span = p.e_lim - p.e_avg
    k1 = (p.eta * p.e_lim - p.g) / span
    rhs = budget / span * p.e_lim
    return _range_search(p, m, spec, 2.0 * max(theta_prime, 2.0), 8, budget, k1, rhs)


def grid_search_p8(
    p: SystemParams, m: DecoderEnergyModel, spec: GridSpec = GridSpec()
) -> tuple[float, float, float]:
    """Grid maximization of the objective at unit budget over the box.

    Uses only the box constraints (no boundary coupling), so the result does
    not depend on e_avg or g.  The theta range starts at 8, and
    `_range_search` tries at most 16 theta ranges.
    """
    return _range_search(p, m, spec, 8.0, 16, 1.0)


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
        (theta - 1.0) / theta, energy, _capacity(e), p.eta * e, np.empty((n, n)), np.empty((n, n))
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
