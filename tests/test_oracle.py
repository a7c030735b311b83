"""Oracle self-consistency and solver-vs-oracle cross checks."""

import inspect

import numpy as np
import pytest

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
from ehlink.multi_block import _lp_constraints
from ehlink.oracle import GridSpec, enumerate_lp_vertices, grid_search_p2, grid_search_p8

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
