"""Multi-block planner tests: normalized objective (the single-block objective
at unit budget), schedule construction, achievability condition, threshold,
the transfer LP's tie-break chain, and the iterative solver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_single_block import FAMILIES, edge_params

from ehlink import (
    MultiBlockProblem,
    SystemParams,
    algorithm1,
    cli,
    construct_schedule,
    g_dot,
    iterative_solver,
    lp_step,
    multi_block,
    objective,
    solve_p8,
    theorem2_condition,
    theta_log_theta_model,
    threshold_u,
    upper_bound,
)
from ehlink.multi_block import (
    LpDataError,
    LpInfeasibleError,
    ScheduleConditionError,
)
from ehlink.single_block import SolverError

MODEL = theta_log_theta_model()
# Reference link for the threshold study: unit efficiency, peak power 4,
# uniform overhead 0.1.
P_FIG = SystemParams(eta=1.0, g=0.1, e_avg=2.0, e_lim=4.0)


class TestProblemValidation:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            MultiBlockProblem(P_FIG, (), MODEL)
        with pytest.raises(ValueError):
            MultiBlockProblem(P_FIG, (0.1, -0.1), MODEL)

    def test_rejects_overhead_above_harvest(self):
        with pytest.raises(ValueError):
            MultiBlockProblem(P_FIG, (0.1, 2.5), MODEL)


class TestOTilde:
    """The normalized objective o~ of the bound: `objective` at unit budget."""

    def test_is_objective_per_unit_budget(self):
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        assert objective(2.0, 1.0, p, MODEL, budget=1.0) == pytest.approx(
            0.1205193961430661, abs=1e-14
        )

    def test_independent_of_e_avg_and_g(self):
        p1 = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        p2 = SystemParams(eta=0.5, g=0.3, e_avg=2.0, e_lim=3.0)
        assert objective(1.7, 0.8, p1, MODEL, budget=1.0) == objective(
            1.7, 0.8, p2, MODEL, budget=1.0
        )


class TestSolveP8:
    def test_frozen_maximizer(self):
        theta_dot, e_dot = solve_p8(P_FIG, MODEL)
        assert theta_dot == pytest.approx(1.705040248365408, abs=1e-8)
        assert e_dot == pytest.approx(1.347146067037799, abs=1e-8)
        value = objective(theta_dot, e_dot, P_FIG, MODEL, budget=1.0)
        assert value == pytest.approx(0.1107104770126589, abs=1e-10)

    def test_independent_of_e_avg_and_g(self):
        p2 = SystemParams(eta=1.0, g=0.8, e_avg=1.0, e_lim=4.0)
        assert solve_p8(P_FIG, MODEL) == pytest.approx(solve_p8(p2, MODEL), abs=1e-8)

    def test_stays_inside_box(self):
        p = SystemParams(eta=0.6378, g=0.0, e_avg=0.5, e_lim=0.588)
        theta_dot, e_dot = solve_p8(p, MODEL)
        assert e_dot <= p.e_lim + 1e-9


class TestGDot:
    def test_frozen_value(self):
        assert g_dot(P_FIG, MODEL) == pytest.approx(-0.00515821716956566, abs=1e-10)

    def test_threshold_consistency(self):
        # g_dot evaluated at e_avg = u equals the uniform overhead g.
        u = threshold_u(P_FIG, MODEL, 0.1)
        p_at_u = SystemParams(eta=1.0, g=0.1, e_avg=u, e_lim=4.0)
        assert g_dot(p_at_u, MODEL) == pytest.approx(0.1, abs=1e-10)

    def test_sentinel_when_maximizer_hits_peak(self):
        # A tiny peak power pushes e_dot onto the e_lim edge.
        p = SystemParams(eta=0.5, g=0.0, e_avg=0.1, e_lim=0.2)
        theta_dot, e_dot = solve_p8(p, MODEL)
        assert e_dot == pytest.approx(p.e_lim, abs=1e-9)
        assert g_dot(p, MODEL) == -math.inf


class TestThresholdU:
    def test_frozen_value(self):
        assert threshold_u(P_FIG, MODEL, 0.1) == pytest.approx(
            2.0525113922934515, abs=1e-10
        )

    def test_infinite_when_maximizer_hits_peak(self):
        p = SystemParams(eta=0.5, g=0.0, e_avg=0.1, e_lim=0.2)
        assert threshold_u(p, MODEL, 0.0) == math.inf


class TestTheorem2Condition:
    def test_uniform_overheads_above_gdot(self):
        prob = MultiBlockProblem(P_FIG, (0.1, 0.1, 0.1, 0.1), MODEL)
        assert theorem2_condition(prob, gdot=0.05)

    def test_late_heavy_suffix_fails(self):
        prob = MultiBlockProblem(P_FIG, (0.0, 0.0, 0.0, 0.3), MODEL)
        # Suffix at k=3: 0.3 >= 2*0.1 holds; at k=2: 0.3 >= 3*0.1 holds;
        # at k=4... the failing suffix is g_3 alone: 0.0 < 0.1.
        assert not theorem2_condition(prob, gdot=0.1)

    def test_infinite_sentinel_always_passes(self):
        prob = MultiBlockProblem(P_FIG, (0.0, 0.0), MODEL)
        assert theorem2_condition(prob, gdot=-math.inf)


class TestConstructSchedule:
    def test_worked_example(self):
        prob = MultiBlockProblem(P_FIG, (0.2, 0.0, 0.3, 0.1), MODEL)
        transfers = construct_schedule(prob, gdot=0.1)
        assert transfers == pytest.approx((0.0, 0.1, -0.1, 0.0), abs=1e-15)
        assert type(transfers) is tuple
        assert all(type(t) is float for t in transfers)

    def test_sums_to_zero_with_nonneg_prefixes(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            gs = tuple(float(g) for g in rng.uniform(0.0, 0.5, n))
            prob = MultiBlockProblem(P_FIG, gs, MODEL)
            gdot = sum(gs) / n  # suffix condition can still fail
            try:
                ts = construct_schedule(prob, gdot=gdot)
            except ScheduleConditionError:
                continue
            assert sum(ts) == pytest.approx(0.0, abs=1e-12)
            prefix = 0.0
            for t, g in zip(ts, gs):
                prefix += t
                assert prefix >= -1e-12
                assert g + t >= gdot - 1e-12

    def test_raises_when_condition_fails(self):
        prob = MultiBlockProblem(P_FIG, (0.0, 0.0, 0.0, 0.3), MODEL)
        with pytest.raises(ScheduleConditionError):
            construct_schedule(prob, gdot=0.1)


class TestUpperBound:
    def test_linear_in_budgets(self):
        prob = MultiBlockProblem(P_FIG, (0.1, 0.3), MODEL)
        scale = objective(*solve_p8(P_FIG, MODEL), P_FIG, MODEL, budget=1.0)
        expected = ((1.0 * 2.0 - 0.1) + (1.0 * 2.0 - 0.3)) * scale
        assert upper_bound(prob) == pytest.approx(expected, rel=1e-12)

    def test_is_the_solver_bound(self):
        prob = MultiBlockProblem(P_FIG, (0.1, 0.3, 0.0), MODEL)
        assert iterative_solver(prob).bound == upper_bound(prob)


class TestIterativeSolver:
    def test_one_block_matches_single_solver(self):
        p = SystemParams(eta=0.5, g=0.1, e_avg=1.0, e_lim=3.0)
        prob = MultiBlockProblem(p, (0.1,), MODEL)
        sol = iterative_solver(prob)
        cand, _ = algorithm1(p, MODEL)
        assert sol.total_bits_per_use == pytest.approx(cand.objective, abs=1e-9)
        assert sol.transfers == pytest.approx((0.0,), abs=1e-9)
        assert type(sol.transfers) is tuple
        assert all(type(t) is float for t in sol.transfers)

    def test_achieves_bound_below_threshold(self):
        u = threshold_u(P_FIG, MODEL, 0.1)
        p = SystemParams(eta=1.0, g=0.1, e_avg=u - 0.05, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.1,) * 4, MODEL)
        sol = iterative_solver(prob)
        assert sol.bound_achieved
        assert sol.total_bits_per_use == pytest.approx(sol.bound, abs=1e-8)

    def test_falls_short_above_threshold(self):
        u = threshold_u(P_FIG, MODEL, 0.1)
        p = SystemParams(eta=1.0, g=0.1, e_avg=u + 0.05, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.1,) * 4, MODEL)
        sol = iterative_solver(prob)
        assert not sol.bound_achieved
        assert sol.total_bits_per_use < sol.bound - 1e-6

    def test_banking_helps_low_then_high_overheads(self):
        # Block 1 has overhead below the critical level g_dot ~ 0.996 and is
        # boundary-limited on its own; banking in block 1 and withdrawing in
        # block 2 must beat independent per-block solves.
        p = SystemParams(eta=1.0, g=0.0, e_avg=2.5, e_lim=4.0)
        gs = (0.0, 2.0)
        prob = MultiBlockProblem(p, gs, MODEL)
        sol = iterative_solver(prob)
        no_transfer = 0.0
        for g in gs:
            cand, _ = algorithm1(SystemParams(eta=1.0, g=g, e_avg=2.5, e_lim=4.0), MODEL)
            no_transfer += cand.objective
        assert sol.total_bits_per_use > no_transfer + 1e-4
        assert sol.bound_achieved
        assert sol.transfers[0] == pytest.approx(
            g_dot(p, MODEL), abs=1e-9
        )

    @pytest.mark.xfail(
        strict=True,
        raises=SolverError,
        reason="the alternation loses 1.02e-9 of its objective and raises; an exact solver is due",
    )
    def test_e_avg_a_hair_below_e_lim_solves(self):
        # Both blocks solve in case (c) to a total of 0.6442514931259837;
        # the LP then banks 1.5e-8 into block 2, the total falls to
        # 0.6442514921097657, 1.02e-9 lower, and the alternation raises
        # "objective decreased across iterations" on this valid input.
        p = SystemParams(eta=1.0, g=0.0, e_avg=5.514642453221426, e_lim=5.514642508367851)
        gs = (0.0, 1.5427779538692856)
        sol = iterative_solver(MultiBlockProblem(p, gs, MODEL))
        no_transfer = sum(algorithm1(replace(p, g=g), MODEL)[0].objective for g in gs)
        assert no_transfer - 1e-9 <= sol.total_bits_per_use <= sol.bound + 1e-8

    def test_never_exceeds_bound(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(20):
            eta = rng.uniform(0.3, 1.0)
            e_lim = rng.uniform(0.5, 8.0)
            e_avg = e_lim * rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 5))
            gs = tuple(float(g) for g in rng.uniform(0.0, eta * e_avg, n))
            p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
            sol = iterative_solver(MultiBlockProblem(p, gs, MODEL))
            assert sol.total_bits_per_use <= sol.bound + 1e-8

    @pytest.fixture
    def solved(self, monkeypatch):
        """The overhead g of every algorithm1 call the multi-block solver makes."""
        calls = []
        solve = multi_block.algorithm1
        monkeypatch.setattr(multi_block, "algorithm1", lambda p, m: calls.append(p.g) or solve(p, m))
        return calls

    def test_each_distinct_overhead_is_solved_once(self, solved):
        # Above the threshold the solver runs several passes, and blocks
        # with one g_i share an overhead within a pass.
        u = threshold_u(P_FIG, MODEL, 0.1)
        p = SystemParams(eta=1.0, g=0.1, e_avg=u + 0.05, e_lim=4.0)
        iterative_solver(MultiBlockProblem(p, (0.1,) * 4, MODEL))
        assert solved == [0.1]
        solved.clear()
        iterative_solver(MultiBlockProblem(p, (0.1, 0.3) * 3, MODEL))
        assert solved[:2] == [0.1, 0.3]
        assert len(solved) == len({g.hex() for g in solved})

    def test_zero_and_negative_zero_overheads_are_solved_apart(self, solved):
        # g_dot < 0, so the schedule's transfers are 0.0 and -0.0: the two
        # overheads are equal as numbers but not as bits.
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        iterative_solver(MultiBlockProblem(p, (0.0, -0.0), MODEL))
        assert [g.hex() for g in solved] == ["0x0.0p+0", "-0x0.0p+0"]

    def test_running_out_of_passes_is_an_error(self, monkeypatch):
        # This problem needs two LP steps, so three passes: the third finds
        # no improvement.
        u = threshold_u(P_FIG, MODEL, 0.1)
        prob = MultiBlockProblem(SystemParams(eta=1.0, g=0.1, e_avg=u + 0.05, e_lim=4.0), (0.1, 0.3) * 3, MODEL)
        steps = []
        step = multi_block.lp_step
        monkeypatch.setattr(multi_block, "lp_step", lambda *args: steps.append(args) or step(*args))
        solution = iterative_solver(prob)
        assert len(steps) == 2
        for limit in (1, 2):
            monkeypatch.setattr(multi_block, "_MAX_ITERATIONS", limit)
            with pytest.raises(SolverError, match=f"^no convergence in {limit} passes"):
                iterative_solver(prob)
        monkeypatch.setattr(multi_block, "_MAX_ITERATIONS", 3)
        assert iterative_solver(prob) == solution

    def test_lp_failure_propagates(self, monkeypatch, capsys):
        # A failed transfer LP is a typed error, never a silent stop.
        def infeasible(prob, thetas, e_is):
            raise LpInfeasibleError("transfer LP failed: patched")

        monkeypatch.setattr(multi_block, "lp_step", infeasible)
        p = SystemParams(eta=1.0, g=0.0, e_avg=3.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.1, 0.5), MODEL)
        assert not theorem2_condition(prob)
        with pytest.raises(LpInfeasibleError):
            iterative_solver(prob)
        code = cli.main(
            ["solve-multi", "--eta", "1", "--e-avg", "3", "--e-lim", "4", "--g-list", "0.1,0.5"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: transfer LP failed")


def _overheads(lo, hi, min_size=1):
    """Up to 6 per-block overheads g_i in [lo, hi]."""
    return st.lists(st.floats(0.0, 1.0), min_size=min_size, max_size=6).map(
        lambda shares: [min(lo + s * (hi - lo), hi) for s in shares]
    )


# Links drawn over the ranges of the benchmark's solve-multi traffic.
TRAFFIC = st.builds(
    lambda eta, e_lim, share: SystemParams(eta=eta, g=0.0, e_avg=e_lim * share, e_lim=e_lim),
    st.floats(0.3, 1.0),
    st.floats(1.0, 8.0),
    st.floats(0.1, 0.9),
)


def _lp_steps(mp):
    """The transfers of every lp_step call the solver makes, in order."""
    steps, step = [], multi_block.lp_step
    mp.setattr(multi_block, "lp_step", lambda *args: steps.append(step(*args)) or steps[-1])
    return steps


class TestNoTransferNeeded:
    """Every g_i >= g_dot: the schedule is zero and one pass reaches the bound."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), m=FAMILIES, data=st.data())
    def test_first_pass_is_returned_without_an_lp(self, p, m, data):
        gdot = g_dot(p, m)
        lo, hi = max(gdot, 0.0), p.eta * p.e_avg
        assume(lo <= hi)
        gs = data.draw(_overheads(lo, hi))
        with pytest.MonkeyPatch.context() as mp:
            steps = _lp_steps(mp)
            sol = iterative_solver(MultiBlockProblem(p, gs, m))
        assert steps == []
        assert [t.hex() for t in sol.transfers] == ["-0x0.0p+0"] * len(gs)
        assert sol.bound_achieved

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=TRAFFIC, m=FAMILIES, data=st.data())
    def test_the_skipped_lp_finds_no_better_plan(self, p, m, data):
        # The LP on the first pass's pairs, and a pass at its transfers: the
        # second pass the solver skips.  Its transfers are not asserted: the
        # blocks' costs tie, so every zero-sum schedule is optimal, and where
        # the tie-break chain's last point fails its 1e-9 check lp_step keeps
        # HiGHS's first vertex (|T| = 0.027 on 2 of 2,000 draws like these;
        # 25 more were nonzero below 1e-6).  That pass's total may exceed the skip's
        # only by the energy the LP overdraws (sum T < 0) within HiGHS's
        # feasibility tolerance, valued at the bound's unit objective.
        gdot = g_dot(p, m)
        lo, hi = max(gdot, 0.0), p.eta * p.e_avg
        assume(lo <= hi)
        gs = data.draw(_overheads(lo, hi))
        prob = MultiBlockProblem(p, gs, m)
        sol = iterative_solver(prob)
        transfers = lp_step(prob, [b.theta for b in sol.per_block], [b.e_i for b in sol.per_block])
        total = sum(
            algorithm1(replace(p, g=min(g + t, hi)), m)[0].objective for g, t in zip(gs, transfers)
        )
        scale = objective(*solve_p8(p, m), p, m, budget=1.0)
        overdraw = max(0.0, -sum(transfers))
        assert total >= sol.total_bits_per_use * (1.0 - 1e-12)
        assert total <= sol.total_bits_per_use * (1.0 + 1e-12) + scale * overdraw


class TestTransferNeeded:
    """The suffix-sum condition holds but some g_i < g_dot: the LP still runs."""

    def test_one_lp_step(self):
        p = SystemParams(eta=1.0, g=0.0, e_avg=2.5, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.0, 2.0), MODEL)
        with pytest.MonkeyPatch.context() as mp:
            steps = _lp_steps(mp)
            iterative_solver(prob)
        assert steps == [pytest.approx(construct_schedule(prob), abs=1e-12)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=TRAFFIC, m=FAMILIES, data=st.data())
    def test_the_lp_keeps_the_constructed_schedule(self, p, m, data):
        # Block k drops below g_dot by no more than the later blocks' excess
        # over it, so the suffix-sum condition still holds.  The LP's
        # transfers on the first pass's pairs match the schedule to 1e-6,
        # ten times HiGHS's primal feasibility tolerance (1e-7); the largest
        # difference over 2,000 draws was 8.9e-8.  A second LP follows when
        # the first moves the total by more than 1e-9 (6 of those draws).
        gdot = g_dot(p, m)
        hi = p.eta * p.e_avg
        assume(0.0 < gdot <= hi)
        gs = data.draw(_overheads(gdot, hi, min_size=2))
        k = data.draw(st.integers(0, len(gs) - 2))
        excess = sum(g - gdot for g in gs[k + 1 :])
        gs[k] = gdot - data.draw(st.floats(0.0, 1.0, exclude_min=True)) * min(gdot, excess)
        assume(gs[k] < gdot)
        prob = MultiBlockProblem(p, gs, m)
        with pytest.MonkeyPatch.context() as mp:
            steps = _lp_steps(mp)
            iterative_solver(prob)
        assert steps
        assert steps[0] == pytest.approx(construct_schedule(prob, gdot), abs=1e-6)

# Equal costs make every zero-sum schedule optimal.  HiGHS's plain optimum is
# (0.8, 0.8, -1.6); the pinning chain moves it to the lexicographically
# smallest optimum, (0, 0, 0).
TIE = (
    MultiBlockProblem(SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0), (0.2,) * 3, MODEL),
    [2.0] * 3,
    [1.0] * 3,
)


class TestLpStep:
    def test_coefficient_at_the_highs_matrix_limit_is_a_data_error(self):
        # HiGHS refuses a matrix value of large_matrix_value (1e15) or more.
        prob = MultiBlockProblem(SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=2e15), (0.1,), MODEL)
        with pytest.raises(LpDataError, match=r"e_lim - e_i = 1e\+15 .* limit 1e\+15$"):
            lp_step(prob, [2.0], [1e15])
        # One step below the limit, HiGHS takes the row.
        assert lp_step(prob, [2.0], [math.nextafter(1e15, 2e15)]) == (0.0,)

    @staticmethod
    def _route(monkeypatch, edit=lambda lps: lps):
        """Pass the chain's (x, fun) list through `edit`; return the list lp_step saw."""
        chain = multi_block._chain
        seen = []

        def routed(*data):
            seen[:] = edit(list(chain(*data)))
            return iter(seen)

        monkeypatch.setattr(multi_block, "_chain", routed)
        return seen

    def test_one_solve_then_one_pinned_solve_per_block(self, monkeypatch):
        seen = self._route(monkeypatch)
        p = SystemParams(eta=1.0, g=0.0, e_avg=3.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.1, 0.5, 0.3, 0.0), MODEL)
        lp_step(prob, [1.5, 2.0, 2.5, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert len(seen) == 1 + 4

    def test_one_model_build_per_lp_step_on_one_highs(self, monkeypatch):
        # Each lp_step makes one HiGHS instance and builds one model from
        # numpy on it: the pinned LPs only add rows to that model.
        builds, made = [], []
        core, options = multi_block._highs()
        build = multi_block._build_lp

        class Core:
            def __getattr__(self, name):
                return getattr(core, name)

            def _Highs(self):
                made.append(core._Highs())
                return made[-1]

        monkeypatch.setattr(multi_block, "_highs", lambda: (Core(), options))
        monkeypatch.setattr(multi_block, "_build_lp", lambda *args: builds.append(args) or build(*args))
        p = SystemParams(eta=1.0, g=0.0, e_avg=3.0, e_lim=4.0)
        steps = [
            (MultiBlockProblem(p, (0.1, 0.5, 0.3, 0.0), MODEL), [1.5, 2.0, 2.5, 3.0], [1.0, 2.0, 3.0, 4.0]),
            TIE,
            TIE,
        ]
        for step in steps:
            lp_step(*step)
        assert len(builds) == len(made) == len(steps)

    def test_chain_picks_the_lexicographic_optimum(self, monkeypatch):
        seen = self._route(monkeypatch)
        assert lp_step(*TIE) == (0.0, 0.0, 0.0)
        assert tuple(seen[0][0]) == pytest.approx((0.8, 0.8, -1.6), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_plain_optimum_kept_when_chain_lp_fails(self, monkeypatch, k):
        # The chain stops at the first pinned LP HiGHS does not solve: here LP k.
        seen = self._route(monkeypatch, lambda lps: lps[:k])
        assert lp_step(*TIE) == tuple(seen[0][0])
        assert len(seen) == k

    @pytest.mark.parametrize(
        "moved",
        [
            # Zero cost, so on the optimal face, but the first prefix sum is -1.
            (-1.0, 1.0, 0.0),
            # Inside the polytope, but it banks 1.6 at a positive cost.
            (0.8, 0.8, 0.0),
        ],
        ids=["leaves-polytope", "leaves-optimal-face"],
    )
    def test_plain_optimum_kept_when_chain_point_is_rejected(self, monkeypatch, moved):
        seen = self._route(monkeypatch, lambda lps: lps[:-1] + [(np.array(moved), lps[-1][1])])
        assert lp_step(*TIE) == tuple(seen[0][0])
        assert len(seen) == 4

    def test_pinned_row_highs_refuses_is_a_data_error(self, monkeypatch):
        # Block 1's cost reaches HiGHS's matrix value limit: the plain LP
        # solves, but the first pinned row holds that cost as a coefficient.
        costs = iter([1e15, 1.0, 1.0])
        monkeypatch.setattr(multi_block, "objective", lambda *args, **kwargs: next(costs))
        seen = self._route(monkeypatch)
        with pytest.raises(LpDataError, match=r"^HiGHS refused pinned LP 1 of .* up to 1e\+15"):
            lp_step(*TIE)
        assert seen == []
