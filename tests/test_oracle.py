"""Oracle self-consistency and solver-vs-oracle cross checks."""

import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlink import (
    MultiBlockProblem,
    SystemParams,
    algorithm1,
    capacity,
    lp_step,
    objective,
    oracle,
    power_law_model,
    solve_p8,
    theta_log_theta_model,
)
from ehlink.decoder_energy import DecoderEnergyModel
from ehlink.multi_block import _lp_constraints
from ehlink.oracle import GridSpec, enumerate_lp_vertices, grid_search_p2, grid_search_p8
from test_single_block import FAMILIES, edge_params

MODEL = theta_log_theta_model()
P_REF = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)


def test_oracle_binds_no_solver_function():
    # The oracles certify single_block, multi_block and the channel those
    # solvers use, so they may share the solver modules' data classes but
    # none of their code.  decoder_energy is allowed: the model is an input.
    borrowed = [
        name
        for name, value in vars(oracle).items()
        if callable(value)
        and not inspect.isclass(value)
        and getattr(value, "__module__", None)
        in ("ehlink.single_block", "ehlink.multi_block", "ehlink.channel")
    ]
    assert borrowed == []


def test_grid_capacity_matches_channel():
    # The oracle's array capacity and the solvers' scalar one are two
    # independent implementations of the same formula.
    grid = np.concatenate([np.linspace(0.0, 60.0, 20001), np.geomspace(1e-12, 1e3, 10001)])
    np.testing.assert_allclose(
        oracle._capacity(grid), [capacity(e) for e in grid], rtol=1e-14, atol=1e-15
    )


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(theta_points=1)


class TestGridSearchP2:
    def test_converges_under_refinement(self):
        coarse = grid_search_p2(P_REF, MODEL, GridSpec(theta_points=300, e_points=300))
        fine = grid_search_p2(P_REF, MODEL, GridSpec(theta_points=1200, e_points=1200))
        assert abs(coarse[2] - fine[2]) <= 5e-4

    def test_tracks_solver(self):
        cand, _ = algorithm1(P_REF, MODEL)
        _, _, best = grid_search_p2(P_REF, MODEL)
        assert best == pytest.approx(cand.objective, abs=1e-3)
        assert best <= cand.objective + 1e-12  # grid points are feasible

    def test_respects_coupled_constraint(self):
        # Near-peak average power forces the boundary case; the argmax must
        # satisfy the coupled constraint within the mask tolerance.
        p = SystemParams(eta=0.5, g=0.0, e_avg=2.8, e_lim=3.0)
        theta, e_i, _ = grid_search_p2(p, MODEL)
        span = p.e_lim - p.e_avg
        lhs = MODEL.evaluate(theta) + (p.eta * p.e_lim - p.g) / span * e_i
        assert lhs >= p.budget / span * p.e_lim - 1e-9

    def test_mask_tolerance_scales_with_rhs(self):
        # Sides of 1e9, as with e_avg a hair below e_lim: the one cell on the
        # boundary misses it by rounding (1e-6 absolute, 1e-15 relative) and
        # must still count.  Every other cell misses by more than 1.
        theta_grid, e_grid, k1 = np.array([2.0, 2.5]), np.array([0.0, 1.0]), 1e9
        rhs = (MODEL.evaluate(2.5) + k1) * (1.0 + 1e-15)
        i, j, _ = oracle._grid_argmax(theta_grid, e_grid, 1.0, P_REF, MODEL, k1, rhs)
        assert (i, j) == (1, 1)


class TestGridSearchP8:
    def test_tracks_solver(self):
        theta_dot, e_dot = solve_p8(P_REF, MODEL)
        _, _, best = grid_search_p8(P_REF, MODEL)
        value = objective(theta_dot, e_dot, P_REF, MODEL, budget=1.0)
        assert best == pytest.approx(value, abs=1e-3)

    def test_ignores_e_avg_and_g(self):
        p2 = SystemParams(eta=0.5, g=0.3, e_avg=2.0, e_lim=3.0)
        assert grid_search_p8(P_REF, MODEL)[2] == grid_search_p8(p2, MODEL)[2]


class TestVertexEnumeration:
    def _random_instance(self, rng, model):
        eta = rng.uniform(0.3, 1.0)
        e_lim = rng.uniform(0.5, 8.0)
        e_avg = e_lim * rng.uniform(0.05, 0.95)
        p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
        n = int(rng.integers(1, 5))
        gs = tuple(float(g) for g in rng.uniform(0.0, eta * e_avg, n))
        prob = MultiBlockProblem(p, gs, model)
        thetas = [float(t) for t in rng.uniform(1.01, 5.0, n)]
        e_is = [float(e) for e in rng.uniform(0.01 * e_lim, e_lim, n)]
        return prob, thetas, e_is

    def test_matches_lp_step(self):
        rng = np.random.default_rng(17)
        models = [MODEL, power_law_model(1.0, 2.0)]
        for i in range(60):
            prob, thetas, e_is = self._random_instance(rng, models[i % 2])
            p, m = prob.params, prob.model
            cost = [objective(t, e, p, m, budget=1.0) for t, e in zip(thetas, e_is)]
            status, vertex = enumerate_lp_vertices(prob, thetas, e_is)
            assert status == "optimal"
            transfers = lp_step(prob, thetas, e_is)
            lp_val = sum(c * t for c, t in zip(cost, transfers))
            vx_val = sum(c * t for c, t in zip(cost, vertex))
            assert abs(lp_val - vx_val) <= 1e-10

    def test_lexicographic_tie_break(self):
        # Equal costs make every zero-sum schedule optimal; both routes must
        # then return the lexicographically smallest vertex.
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.2, 0.2), MODEL)
        thetas, e_is = [2.0, 2.0], [1.0, 1.0]
        status, vertex = enumerate_lp_vertices(prob, thetas, e_is)
        transfers = lp_step(prob, thetas, e_is)
        assert status == "optimal"
        assert transfers == pytest.approx(vertex, abs=1e-9)
        assert type(transfers) is tuple
        assert all(type(t) is float for t in transfers)

    def test_feasible_output(self):
        rng = np.random.default_rng(23)
        prob, thetas, e_is = self._random_instance(rng, MODEL)
        _, vertex = enumerate_lp_vertices(prob, thetas, e_is)
        a_ub, b_ub = _lp_constraints(prob, thetas, e_is)
        assert np.all(a_ub @ np.array(vertex) <= b_ub + 1e-9)

    def test_rejects_large_problems(self):
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.0,) * 5, MODEL)
        with pytest.raises(ValueError):
            enumerate_lp_vertices(prob, [2.0] * 5, [1.0] * 5)


# Reference implementations: the oracles as they were before the grid was
# built in row blocks and the vertices solved in one stacked call.  The fast
# versions must return exactly what these return.


def _full_objective(theta_grid, e_grid, budget, p, m):
    cap = oracle._capacity(e_grid)
    energy = np.fromiter(map(m.evaluate, theta_grid), float, len(theta_grid))
    factor = (theta_grid - 1.0) / theta_grid
    denom = p.eta * e_grid[None, :] + energy[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        obj = factor[:, None] * budget * cap[None, :] / denom
    obj[~np.isfinite(obj)] = 0.0
    return obj, energy


def _full_grid_search_p2(p, m, spec):
    budget = p.eta * p.e_avg - p.g
    theta_prime = oracle.inverse_energy(m, max(budget, 0.0) / (p.e_lim - p.e_avg) * p.e_lim)
    theta_max = 2.0 * max(theta_prime, 2.0)
    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    span = p.e_lim - p.e_avg
    k1 = (p.eta * p.e_lim - p.g) / span
    rhs = budget / span * p.e_lim
    for _ in range(8):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        obj, energy = _full_objective(theta_grid, e_grid, budget, p, m)
        mask = energy[:, None] + k1 * e_grid[None, :] >= rhs - 1e-10 * max(1.0, rhs)
        if not mask.any():
            raise ValueError("empty feasible grid; invalid parameters")
        obj = np.where(mask, obj, -np.inf)
        i, j = np.unravel_index(np.argmax(obj), obj.shape)
        if i < spec.theta_points - 1 or budget == 0.0:
            return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])
        theta_max *= 2.0
    return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])


def _full_grid_search_p8(p, m, spec):
    theta_max = 8.0
    e_grid = np.linspace(0.0, p.e_lim, spec.e_points)
    for _ in range(16):
        theta_grid = np.geomspace(1.0 + 1e-6, theta_max, spec.theta_points)
        obj, _ = _full_objective(theta_grid, e_grid, 1.0, p, m)
        i, j = np.unravel_index(np.argmax(obj), obj.shape)
        if i < spec.theta_points - 1:
            return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])
        theta_max *= 2.0
    return float(theta_grid[i]), float(e_grid[j]), float(obj[i, j])


def _looped_lp_vertices(prob, thetas, e_is):
    n = prob.n_blocks
    obj, _ = _full_objective(
        np.asarray(thetas, dtype=float), np.asarray(e_is, dtype=float), 1.0, prob.params, prob.model
    )
    cost = obj.diagonal()
    a_ub, b_ub = oracle._transfer_polytope(prob, thetas, e_is)
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
    optimal = [v for v, val in zip(vertices, values) if val <= best_value + 1e-9]
    best = min(optimal, key=lambda v: tuple(v))
    return "optimal", tuple(float(t) for t in best)


SEARCHES = {"p2": (grid_search_p2, _full_grid_search_p2), "p8": (grid_search_p8, _full_grid_search_p8)}


def _assert_same_search(kind, p, m, spec):
    fast, full = SEARCHES[kind]
    expected = full(p, m, spec)
    result = fast(p, m, spec)
    assert result == expected
    assert all(type(v) is float for v in result)
    return result


class TestBlockedGridMatchesFullMatrix:
    @pytest.mark.parametrize("kind", ["p2", "p8"])
    @pytest.mark.parametrize(
        "p, m, spec",
        [
            (P_REF, MODEL, GridSpec()),
            (P_REF, power_law_model(1.0, 2.0), GridSpec()),
            # Near-peak average power: the argmax sits on the coupled boundary.
            (SystemParams(eta=0.5, g=0.0, e_avg=2.8, e_lim=3.0), MODEL, GridSpec()),
            # 1001 rows is not a multiple of the block; the last block is short.
            (SystemParams(eta=0.7, g=0.2, e_avg=1.5, e_lim=4.0), MODEL, GridSpec(1001, 333)),
            # Zero budget: every cell is 0, and the first one in row order wins.
            (SystemParams(eta=0.5, g=0.5, e_avg=1.0, e_lim=3.0), MODEL, GridSpec(300, 200)),
            # E(theta) underflows to 0 on the first rows: 0/0 cells read 0.
            (P_REF, power_law_model(1.0, 60.0), GridSpec(40, 40)),
        ],
        ids=["theta-log-theta", "power-law", "boundary", "1001x333", "zero-budget", "zero-energy"],
    )
    def test_matches(self, kind, p, m, spec):
        _assert_same_search(kind, p, m, spec)

    def test_argmax_on_upper_edge_doubles_theta_max(self):
        # E grows so slowly that the first argmax lands on theta = 8.
        theta, _, _ = _assert_same_search("p8", P_REF, power_law_model(1e-3, 1.0), GridSpec(200, 100))
        assert theta > 8.0

    def test_tie_across_a_block_boundary_keeps_the_first(self, monkeypatch):
        # With C = 1 and E(theta) = (theta-1)/theta on the last row of the
        # first block and the first row of the second, both rows read
        # exactly 1 at e = 0 and every other cell less.
        monkeypatch.setattr(oracle, "_capacity", np.ones_like)
        theta_grid = np.geomspace(1.0 + 1e-6, 8.0, 200)
        tied = {float(theta_grid[oracle._BLOCK_ROWS - 1]), float(theta_grid[oracle._BLOCK_ROWS])}

        def evaluate(theta):
            return (theta - 1.0) / theta * (1.0 if theta in tied else 2.0)

        m = DecoderEnergyModel("tie", evaluate, evaluate)
        result = _assert_same_search("p8", P_REF, m, GridSpec(200, 50))
        assert result == (float(theta_grid[oracle._BLOCK_ROWS - 1]), 0.0, 1.0)

    def test_theta_ranges_run_out(self):
        # E grows so slowly that the argmax stays on the upper edge of every
        # range: the search names the last one rather than return its edge.
        slow = power_law_model(1e-13, 1.0)
        last = r"the last was \[1.000001, {}\]"
        with pytest.raises(ValueError, match="all 16 theta ranges; " + last.format("262144.0")):
            grid_search_p8(P_REF, slow, GridSpec(200, 100))
        # p2 starts at 2 * max(theta', 2) = 4 when a budget of 1e-9 puts theta'
        # near 1, and the objective still rises at the last range's end, 512.
        p = SystemParams(eta=0.5, g=0.5 - 1e-9, e_avg=1.0, e_lim=3.0)
        with pytest.raises(ValueError, match="all 8 theta ranges; " + last.format("512.0")):
            grid_search_p2(p, power_law_model(1e-8, 1.0), GridSpec(200, 100))
        # The full-matrix references return the edge point of the last range.
        assert _full_grid_search_p8(P_REF, slow, GridSpec(200, 100))[0] == 262144.0

    def test_empty_feasible_grid_raises(self):
        # At zero budget no root find runs; an energy of -inf fails every cell.
        m = DecoderEnergyModel("never-feasible", lambda t: -np.inf, lambda t: 0.0)
        p = SystemParams(eta=0.5, g=0.5, e_avg=1.0, e_lim=3.0)
        for search in SEARCHES["p2"]:
            with pytest.raises(ValueError, match="empty feasible grid"):
                search(p, m, GridSpec(100, 100))


class TestStackedVerticesMatchLoop:
    def _assert_same(self, prob, thetas, e_is):
        expected = _looped_lp_vertices(prob, thetas, e_is)
        result = enumerate_lp_vertices(prob, thetas, e_is)
        assert result == expected
        assert all(type(t) is float for t in result[1])

    def test_criterion_9_draws(self):
        rng = np.random.default_rng(99)
        for k in range(200):
            eta = float(rng.uniform(0.3, 1.0))
            e_lim = float(rng.uniform(0.5, 8.0))
            e_avg = e_lim * float(rng.uniform(0.02, 0.98))
            rng.uniform(0.0, eta * e_avg)  # criterion 9 draws g, then sets it to 0
            p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
            n = int(rng.integers(1, 5))
            gs = tuple(float(g) for g in rng.uniform(0.0, p.eta * p.e_avg, n))
            prob = MultiBlockProblem(p, gs, [MODEL, power_law_model(1.0, 2.0)][k % 2])
            thetas = [float(t) for t in rng.uniform(1.01, 5.0, n)]
            e_is = [float(e) for e in rng.uniform(0.01 * p.e_lim, p.e_lim, n)]
            self._assert_same(prob, thetas, e_is)

    def test_singular_row_choices(self):
        # Block 2 sits at e_lim, so its pair row is dropped; the prefix and
        # cap rows of block 1 alone form singular choices.
        p = SystemParams(eta=0.8, g=0.0, e_avg=1.0, e_lim=3.0)
        prob = MultiBlockProblem(p, (0.1, 0.5, 0.3), MODEL)
        thetas, e_is = [1.5, 2.0, 3.0], [0.5, 3.0, 2.0]
        a_ub, _ = oracle._transfer_polytope(prob, thetas, e_is)
        dets = [np.linalg.det(a_ub[list(rows)]) for rows in combinations(range(len(a_ub)), 3)]
        assert any(abs(d) < 1e-12 for d in dets)
        self._assert_same(prob, thetas, e_is)

    def test_small_energy_scale(self):
        # With e_lim near 1e-4 the pair rows' determinants fall far below 1,
        # yet above the 1e-12 singularity cut.
        rng = np.random.default_rng(5)
        for _ in range(40):
            eta = float(rng.uniform(0.3, 1.0))
            e_lim = float(rng.uniform(0.5, 8.0)) * 1e-4
            p = SystemParams(eta=eta, g=0.0, e_avg=e_lim * float(rng.uniform(0.02, 0.98)), e_lim=e_lim)
            n = int(rng.integers(2, 5))
            gs = tuple(float(g) for g in rng.uniform(0.0, p.eta * p.e_avg, n))
            thetas = [float(t) for t in rng.uniform(1.0001, 1.01, n)]
            e_is = [float(e) for e in rng.uniform(0.01 * e_lim, e_lim, n)]
            self._assert_same(MultiBlockProblem(p, gs, MODEL), thetas, e_is)

    def test_lexicographic_tie(self):
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0)
        self._assert_same(MultiBlockProblem(p, (0.2, 0.2), MODEL), [2.0, 2.0], [1.0, 1.0])


def _outcome(search, p, m, spec):
    try:
        return search(p, m, spec)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _evaluated_blocks(monkeypatch):
    """The first factor (theta-1)/theta * budget of each block _grid_argmax evaluates."""
    firsts = []
    evaluate = oracle._objective_rows

    def counting(factor, *args):
        firsts.append(float(factor[0]))
        return evaluate(factor, *args)

    monkeypatch.setattr(oracle, "_objective_rows", counting)
    return firsts


class TestPrunedGridMatchesFullMatrix:
    """_grid_argmax evaluates only the blocks its float bound cannot rule out."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["p2", "p8"]),
        p=edge_params(),
        model=st.one_of(FAMILIES, st.builds(power_law_model, st.floats(1e-4, 1e-2), st.just(1.0))),
        theta_points=st.integers(33, 160).filter(lambda n: n % oracle._BLOCK_ROWS),
        e_points=st.integers(2, 80),
    )
    def test_matches_full_matrix(self, kind, p, model, theta_points, e_points):
        fast, full = SEARCHES[kind]
        spec = GridSpec(theta_points, e_points)
        expected, result = _outcome(full, p, model, spec), _outcome(fast, p, model, spec)
        if result[0] is ValueError and "upper edge" in result[1]:
            # Out of theta ranges: the reference returns the last range's edge.
            assert result[1].endswith(f", {expected[0]!r}]")
        else:
            assert result == expected

    @pytest.mark.parametrize("kind", ["p2", "p8"])
    @pytest.mark.parametrize(
        "m", [MODEL, power_law_model(1.0, 2.0)], ids=["theta-log-theta", "power-law"]
    )
    def test_evaluates_few_blocks(self, monkeypatch, kind, m):
        firsts = _evaluated_blocks(monkeypatch)
        _assert_same_search(kind, P_REF, m, GridSpec())
        assert len(firsts) <= 12  # of 32

    @pytest.mark.parametrize(
        "kind, m, ceiling",
        [
            ("p2", MODEL, 133_632),
            ("p8", MODEL, 130_784),
            ("p2", power_law_model(1.0, 2.0), 67_616),
            ("p8", power_law_model(1.0, 2.0), 81_536),
        ],
        ids=["p2-theta-log-theta", "p8-theta-log-theta", "p2-power-law", "p8-power-law"],
    )
    def test_evaluates_few_cells(self, monkeypatch, kind, m, ceiling):
        # Within an evaluated block only the columns whose bound reaches the
        # best value so far are evaluated; whole blocks gave 192k to 288k.
        cells = []
        evaluate = oracle._objective_rows

        def counting(factor, energy, cap, *args):
            cells.append(len(factor) * len(cap))
            return evaluate(factor, energy, cap, *args)

        monkeypatch.setattr(oracle, "_objective_rows", counting)
        _assert_same_search(kind, P_REF, m, GridSpec())
        assert sum(cells) <= ceiling  # of 1,000,000

    def test_exact_tie_in_an_earlier_block_with_a_smaller_bound(self, monkeypatch):
        # C = 1.  Rows 31 and 32 have E = t = (theta-1)/theta and read exactly
        # 1 at e = 0; every other row has E = 2 and reads below 0.5.  Block 0
        # bounds at t(31)/E_min = 1, block 1 at t(63)/t(32) > 1, so block 1 is
        # visited first and finds the tie; the earlier row must still win.
        monkeypatch.setattr(oracle, "_capacity", np.ones_like)
        theta_grid = np.geomspace(1.0 + 1e-6, 8.0, 200)
        rows = oracle._BLOCK_ROWS
        tied = {float(theta_grid[rows - 1]), float(theta_grid[rows])}

        def evaluate(theta):
            return (theta - 1.0) / theta if theta in tied else 2.0

        m = DecoderEnergyModel("tie", evaluate, evaluate)
        firsts = _evaluated_blocks(monkeypatch)
        result = _assert_same_search("p8", P_REF, m, GridSpec(200, 50))
        assert result == (float(theta_grid[rows - 1]), 0.0, 1.0)
        factor = (theta_grid - 1.0) / theta_grid
        assert firsts == [factor[rows], factor[0]]
