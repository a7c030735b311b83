"""Acceptance suite: one test per acceptance criterion, each emitting a
single PASS/FAIL line with the measured quantity.

The random single-block instances (criterion 1) are computed once in a
module-scoped fixture and reused by the coverage and structural checks
(criteria 4 and 8).
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import minimize

from ehlink import (
    Case,
    MultiBlockProblem,
    SystemParams,
    algorithm1,
    capacity,
    constant_power_baseline,
    inverse_energy,
    iterative_solver,
    lp_step,
    m_function,
    n_function,
    objective,
    power_law_model,
    recover_full,
    solve_case_c,
    theorem2_condition,
    theta_log_theta_model,
    threshold_u,
)
from ehlink.oracle import GridSpec, enumerate_lp_vertices, grid_search_p2
from ehlink.single_block import case_ab_pairs

MODELS = [theta_log_theta_model(), power_law_model(c=1.0, p=2.0)]
GRID = GridSpec(theta_points=1000, e_points=1000)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_single_params(rng) -> SystemParams:
    eta = float(rng.uniform(0.3, 1.0))
    e_lim = float(rng.uniform(0.5, 8.0))
    e_avg = e_lim * float(rng.uniform(0.02, 0.98))
    g = float(rng.uniform(0.0, eta * e_avg))
    return SystemParams(eta=eta, g=g, e_avg=e_avg, e_lim=e_lim)


@dataclass
class Instance:
    params: SystemParams
    model: object
    cand: object
    full: object
    candidates: list
    grid_theta: float
    grid_e: float
    grid_value: float


@pytest.fixture(scope="module")
def single_block_sweep():
    """100 seeded random instances per model: solver, candidates, and grid."""
    rng = np.random.default_rng(42)
    instances = []
    start = time.perf_counter()
    for model in MODELS:
        for _ in range(100):
            p = random_single_params(rng)
            cand, full = algorithm1(p, model)
            cands = [(t, e) for t, e, _ in case_ab_pairs(p, model)]
            c3 = solve_case_c(p, model)
            if c3 is not None:
                cands.append((c3.theta, c3.e_i))
            gt, ge, gv = grid_search_p2(p, model, GRID)
            instances.append(Instance(p, model, cand, full, cands, gt, ge, gv))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_1_single_block_oracle_equivalence(single_block_sweep):
    """Solver objective vs 1000x1000 grid search on 100 instances per model."""
    instances, elapsed = single_block_sweep
    worst = max(abs(ins.cand.objective - ins.grid_value) for ins in instances)
    ok = worst <= 1e-3 and elapsed < 60.0
    report(
        "criterion 1 (oracle equivalence, single block)",
        ok,
        f"max |solver - grid| = {worst:.3e} (tol 1e-3) over "
        f"{len(instances)} instances in {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_2_optimized_vs_constant_power_ratio():
    """Optimized/baseline decoded-bits ratio at eta=0.5, g=0, e_lim=3, e_avg=0.5."""
    p = SystemParams(eta=0.5, g=0.0, e_avg=0.5, e_lim=3.0)
    model = theta_log_theta_model()
    cand, full = algorithm1(p, model)
    base = constant_power_baseline(p, model)
    ratio = full.bits_per_use / base.bits_per_use
    ok = 1.40 <= ratio <= 1.60
    report(
        "criterion 2 (optimized vs constant-power ratio)",
        ok,
        f"ratio = {ratio:.4f} (required range [1.40, 1.60]); "
        f"optimized = {full.bits_per_use:.7f}, baseline = {base.bits_per_use:.7f}",
    )


def _flood_fill_contiguous(mask: np.ndarray) -> bool:
    """True when the set bits of mask form one 4-connected component."""
    remaining = mask.copy()
    seeds = np.argwhere(remaining)
    if len(seeds) == 0:
        return False
    stack = [tuple(seeds[0])]
    remaining[tuple(seeds[0])] = False
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < mask.shape[0] and 0 <= nj < mask.shape[1] and remaining[ni, nj]:
                remaining[ni, nj] = False
                stack.append((ni, nj))
    return not remaining.any()


def test_criterion_3_regime_map_topology():
    """Winning-case map on a 40x40 (e_lim, e_avg) grid, eta=0.5, g=0."""
    model = theta_log_theta_model()
    n = 40
    e_lims = np.linspace(0.2, 8.0, n)
    fracs = np.linspace(0.05, 0.95, n)  # e_avg as a fraction of e_lim
    grid = np.empty((n, n), dtype="U1")
    for i, e_lim in enumerate(e_lims):
        for j, frac in enumerate(fracs):
            p = SystemParams(eta=0.5, g=0.0, e_avg=float(frac * e_lim), e_lim=float(e_lim))
            cand, _ = algorithm1(p, model)
            grid[i, j] = cand.case_label.value
    counts = {c: int((grid == c).sum()) for c in "abc"}
    nonempty = all(counts[c] > 0 for c in "abc")
    # (b) occupies the low-e_lim band: every row at or below the largest
    # all-b row is entirely b, and b appears nowhere else.
    b_rows = {i for i in range(n) if "b" in grid[i]}
    b_band = bool(b_rows) and b_rows == set(range(max(b_rows) + 1)) and all(
        (grid[i] == "b").all() for i in b_rows
    )
    # (c) fills the high-e_lim / high-e_avg corner: the corner cell is c and
    # within every row the c cells form a suffix in e_avg order.
    c_corner = grid[-1, -1] == "c" and all(
        (grid[i] == "c")[np.argmax(grid[i] == "c"):].all()
        for i in range(n)
        if "c" in grid[i]
    )
    a_contiguous = _flood_fill_contiguous(grid == "a")
    c_contiguous = _flood_fill_contiguous(grid == "c")
    ok = nonempty and b_band and c_corner and a_contiguous and c_contiguous
    report(
        "criterion 3 (regime map topology)",
        ok,
        f"counts = {counts}; b low-band = {b_band}, c corner = {c_corner}, "
        f"a contiguous = {a_contiguous}, c contiguous = {c_contiguous}",
    )


def test_criterion_4_candidate_coverage(single_block_sweep):
    """Grid argmax lies within one grid cell of a returned candidate.

    The raw argmax of a near-flat objective wanders a few cells at fixed
    value tolerance, so the located optimum is first polished by a tightly
    converged constrained local maximization started at the argmax; the
    polished point must fall within one grid step (in each axis) of a
    case-(a)/(b)/(c) candidate.
    """
    instances, _ = single_block_sweep
    worst = 0.0
    for ins in instances:
        p, m = ins.params, ins.model
        span = p.e_lim - p.e_avg
        k1 = (p.eta * p.e_lim - p.g) / span
        rhs = p.budget / span * p.e_lim
        scale = 1.0 / max(ins.grid_value, 1e-12)

        def neg_obj(x, p=p, m=m, scale=scale):
            return -scale * objective(float(x[0]), float(x[1]), p, m)

        res = minimize(
            neg_obj,
            [ins.grid_theta, ins.grid_e],
            method="SLSQP",
            bounds=[(1.0 + 1e-9, None), (0.0, p.e_lim)],
            constraints=[
                {"type": "ineq", "fun": lambda x, m=m, k1=k1, rhs=rhs: m.evaluate(x[0]) + k1 * x[1] - rhs}
            ],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        theta_p, e_p = float(res.x[0]), float(res.x[1])
        de = p.e_lim / (GRID.e_points - 1)
        theta_prime = inverse_energy(m, max(p.budget, 0.0) / span * p.e_lim)
        theta_max = 2.0 * max(theta_prime, 2.0)
        dlog = (math.log(theta_max) - math.log(1.0 + 1e-6)) / (GRID.theta_points - 1)
        dist = min(
            max(
                abs(e - e_p) / de,
                abs(math.log(max(t, 1.0)) - math.log(max(theta_p, 1.0))) / dlog,
            )
            for t, e in ins.candidates
        )
        worst = max(worst, dist)
    ok = worst <= 1.0
    report(
        "criterion 4 (candidate coverage of grid argmax)",
        ok,
        f"max distance = {worst:.3e} grid cells (tol 1 cell) over "
        f"{len(instances)} instances",
    )


def test_criterion_5_transfer_bound_equivalence():
    """bound_achieved == suffix-sum condition on 500 random multi-block problems."""
    rng = np.random.default_rng(7)
    mismatches = 0
    worst_true_gap = 0.0
    min_false_gap = math.inf
    total = 500
    for k in range(total):
        p = random_single_params(rng)
        p = SystemParams(eta=p.eta, g=0.0, e_avg=p.e_avg, e_lim=p.e_lim)
        model = MODELS[k % 2]
        n = int(rng.integers(1, 7))
        gs = tuple(float(g) for g in rng.uniform(0.0, p.eta * p.e_avg, n))
        prob = MultiBlockProblem(p, gs, model)
        sol = iterative_solver(prob)
        cond = theorem2_condition(prob)
        gap = sol.bound - sol.total_bits_per_use
        if sol.bound_achieved != cond:
            mismatches += 1
        elif cond:
            worst_true_gap = max(worst_true_gap, abs(gap))
        else:
            min_false_gap = min(min_false_gap, gap)
    ok = mismatches == 0 and worst_true_gap <= 1e-6 and (
        min_false_gap == math.inf or min_false_gap > 1e-6
    )
    report(
        "criterion 5 (transfer bound achievability, both directions)",
        ok,
        f"{mismatches} mismatches over {total} problems; "
        f"max gap when achievable = {worst_true_gap:.2e} (tol 1e-6), "
        f"min gap when not = {min_false_gap:.2e} (must exceed 1e-6)",
    )


def test_criterion_6_threshold_flip():
    """Achievability flips at the computed e_avg threshold (N=4, e_lim=4, g=0.1, eta=1)."""
    model = theta_log_theta_model()
    g = 0.1
    step = 0.05
    u = threshold_u(SystemParams(eta=1.0, g=g, e_avg=2.0, e_lim=4.0), model, g)
    sweep = np.arange(1.8, 2.3 + step / 2, step)
    flags = []
    for e_avg in sweep:
        p = SystemParams(eta=1.0, g=g, e_avg=float(e_avg), e_lim=4.0)
        sol = iterative_solver(MultiBlockProblem(p, (g,) * 4, model))
        flags.append(sol.bound_achieved)
    # Exactly one True->False flip, bracketing u within one step.
    flips = [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]
    one_flip = len(flips) == 1 and flags[0] and not flags[-1]
    brackets = bool(flips) and sweep[flips[0] - 1] <= u <= sweep[flips[0]]
    ok = one_flip and brackets
    detail = (
        f"u = {u:.6f}; flip between e_avg = "
        f"{sweep[flips[0]-1]:.2f} and {sweep[flips[0]]:.2f}"
        if flips
        else f"u = {u:.6f}; no flip observed"
    )
    report("criterion 6 (achievability threshold flip)", ok, detail)


def test_criterion_7_capacity_concavity():
    """Second finite difference of capacity <= 1e-9 on [0.01, 10] at step 1e-3."""
    es = np.arange(0.01, 10.0 + 1e-12, 1e-3)
    second = np.diff([capacity(e) for e in es], 2)
    worst = float(np.max(second))
    ok = worst <= 1e-9
    report(
        "criterion 7 (capacity concavity)",
        ok,
        f"max second difference = {worst:.3e} (tol 1e-9) over {len(es)} points",
    )


def test_criterion_8_structural_residuals(single_block_sweep):
    """Tight-constraint residuals and per-case structure of solver outputs."""
    instances, _ = single_block_sweep
    worst_resid = 0.0
    worst_b = 0.0
    worst_c = 0.0
    for ins in instances:
        p, m, f = ins.params, ins.model, ins.full
        # The two constraints used in recovery hold with equality.
        avg_resid = abs(f.alpha * f.e_e + (1 - f.alpha) * f.e_i - p.e_avg)
        harvest_resid = abs(
            f.alpha * p.eta * f.e_e - p.g - (1 - f.alpha) * m.evaluate(f.theta)
        )
        worst_resid = max(worst_resid, avg_resid, harvest_resid)
        if ins.cand.case_label is Case.MAX_INFO_POWER:
            worst_b = max(worst_b, abs(f.e_i - p.e_lim))
        if ins.cand.case_label is Case.MAX_HARVEST_POWER:
            worst_c = max(worst_c, abs(f.e_e - p.e_lim))
    ok = worst_resid <= 1e-8 and worst_b <= 1e-8 and worst_c <= 1e-8
    report(
        "criterion 8 (structural residuals)",
        ok,
        f"max tight-constraint residual = {worst_resid:.2e}, "
        f"case-b |e_i - e_lim| = {worst_b:.2e}, "
        f"case-c |e_e - e_lim| = {worst_c:.2e} (tol 1e-8 each)",
    )


def test_criterion_9_lp_exactness():
    """lp_step equals the vertex-enumeration oracle on 200 random N<=4 instances."""
    rng = np.random.default_rng(99)
    worst = 0.0
    total = 200
    for k in range(total):
        p = random_single_params(rng)
        p = SystemParams(eta=p.eta, g=0.0, e_avg=p.e_avg, e_lim=p.e_lim)
        model = MODELS[k % 2]
        n = int(rng.integers(1, 5))
        gs = tuple(float(g) for g in rng.uniform(0.0, p.eta * p.e_avg, n))
        prob = MultiBlockProblem(p, gs, model)
        thetas = [float(t) for t in rng.uniform(1.01, 5.0, n)]
        e_is = [float(e) for e in rng.uniform(0.01 * p.e_lim, p.e_lim, n)]
        cost = [objective(t, e, p, model, budget=1.0) for t, e in zip(thetas, e_is)]
        transfers = lp_step(prob, thetas, e_is)
        status, vertex = enumerate_lp_vertices(prob, thetas, e_is)
        assert status == "optimal"
        diff = abs(
            sum(c * t for c, t in zip(cost, transfers))
            - sum(c * t for c, t in zip(cost, vertex))
        )
        worst = max(worst, diff)
    ok = worst <= 1e-10
    report(
        "criterion 9 (transfer LP exactness)",
        ok,
        f"max objective difference = {worst:.3e} (tol 1e-10) over {total} instances",
    )
