"""Single-block solver tests.

Frozen roots were located independently by dense scans (sign changes of M
over 4e6 theta points and of N over 5e6 energy points) before being pinned
here; closed-form checkpoints are evaluated by hand.
"""

import contextlib
import gzip
import io
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehlink import (
    CandidateSolution,
    Case,
    MultiBlockProblem,
    SystemParams,
    capacity,
    algorithm1,
    constant_power_baseline,
    crossover,
    feasible,
    iterative_solver,
    m_function,
    n_function,
    objective,
    power_law_model,
    ranked_candidates,
    recover_full,
    solve_case_c,
    solve_lemma3,
    solve_p8,
    theta_log_theta_model,
)
from ehlink import cli, single_block
from ehlink.decoder_energy import DecoderEnergyModel, inverse_energy, parse_model
from ehlink.roots import brentq
from ehlink.single_block import (
    _AB_CACHE_SIZE,
    InfeasibleRecoveryError,
    SolverError,
    _case_ab_pairs,
    case_ab_pairs,
)

MODEL = theta_log_theta_model()
EPS = sys.float_info.epsilon
P_REF = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)


class TestSystemParams:
    def test_budget(self):
        p = SystemParams(eta=0.8, g=0.2, e_avg=1.0, e_lim=2.0)
        assert p.budget == pytest.approx(0.6, abs=1e-15)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SystemParams(eta=0.0, g=0.0, e_avg=1.0, e_lim=2.0)
        with pytest.raises(ValueError):
            SystemParams(eta=1.1, g=0.0, e_avg=1.0, e_lim=2.0)
        with pytest.raises(ValueError):
            SystemParams(eta=0.5, g=0.0, e_avg=2.0, e_lim=2.0)
        with pytest.raises(ValueError):
            SystemParams(eta=0.5, g=1.0, e_avg=1.0, e_lim=2.0)

    @pytest.mark.parametrize("name", ["eta", "g", "e_avg", "e_lim"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values_by_name(self, name, value):
        fields = dict(eta=0.5, g=0.0, e_avg=1.0, e_lim=2.0)
        fields[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SystemParams(**fields)

    def test_validate_rejects_negative_g(self):
        p = SystemParams(eta=0.5, g=-0.1, e_avg=1.0, e_lim=2.0)
        with pytest.raises(ValueError):
            p.validate()


class TestObjective:
    def test_hand_checked_value(self):
        # (1/2) * 0.5 * C(1) / (0.5 + E(2)) with E(2) = 2 and C(1) frozen
        # from quadrature.
        assert objective(2.0, 1.0, P_REF, MODEL) == pytest.approx(
            0.06025969807153305, abs=1e-14
        )

    def test_degenerate_point_is_zero(self):
        assert objective(1.0, 0.0, P_REF, MODEL) == 0.0

    def test_scales_with_budget(self):
        p2 = SystemParams(eta=0.5, g=0.1, e_avg=1.0, e_lim=3.0)
        ratio = objective(2.0, 1.0, p2, MODEL) / objective(2.0, 1.0, P_REF, MODEL)
        assert ratio == pytest.approx(p2.budget / P_REF.budget, rel=1e-13)


class TestFeasible:
    def test_box_violations(self):
        assert not feasible(0.5, 1.0, P_REF, MODEL)
        assert not feasible(2.0, -0.5, P_REF, MODEL)
        assert not feasible(2.0, P_REF.e_lim + 1.0, P_REF, MODEL)

    def test_coupled_constraint(self):
        # E(theta) + (eta*e_lim - g)/(e_lim - e_avg) * e_i >= budget*e_lim/(e_lim - e_avg)
        # With the reference params: E(theta) + 0.75*e_i >= 0.75.
        assert feasible(1.0, 1.0, P_REF, MODEL)
        assert not feasible(1.0, 0.5, P_REF, MODEL)
        theta = 1.5  # E(1.5) ~ 0.877 > 0.75, so any e_i in the box works
        assert feasible(theta, 0.0, P_REF, MODEL)

    def test_boundary_tolerance_scales_with_the_sides(self):
        # e_avg 1e-6 below e_lim = 1000: both sides of the coupled constraint
        # are about 1e9, so a point on the boundary misses by rounding.
        p = SystemParams(eta=1.0, g=0.0, e_avg=999.999999, e_lim=1000.0)
        model = power_law_model(0.05, 1.0)
        rhs = p.budget / (p.e_lim - p.e_avg) * p.e_lim
        theta = 101.0  # E = 5, so e_i sits on the boundary
        e_on = (rhs - model.evaluate(theta)) * (p.e_lim - p.e_avg) / (p.eta * p.e_lim - p.g)
        assert feasible(theta, e_on * (1.0 - 1e-14), p, model)
        assert not feasible(theta, e_on * (1.0 - 1e-9), p, model)


class TestStationarityFunctions:
    def test_m_function_closed_form(self):
        # eta*e_i + E(2) - 2*E'(2) = 0.5 + 2 - 2*(1 + 1/ln 2)
        expected = 0.5 + 2.0 - 2.0 * (1.0 + 1.0 / math.log(2.0))
        assert m_function(2.0, 1.0, P_REF, MODEL) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-2.3853900817779268, abs=1e-13)

    def test_m_positive_at_one_and_non_increasing(self):
        assert m_function(1.0, 1.0, P_REF, MODEL) == pytest.approx(0.5, abs=1e-15)
        ts = np.linspace(1.0, 10.0, 500)
        vals = [m_function(t, 1.0, P_REF, MODEL) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_n_non_increasing(self):
        es = np.linspace(0.01, 5.0, 500)
        vals = [n_function(e, 2.0, P_REF, MODEL) for e in es]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestLemma3:
    def test_frozen_scan_root(self):
        # Dense scan of M(theta, e_i=1): sign change in [1.444255, 1.444256].
        theta = solve_lemma3(1.0, P_REF, MODEL)
        assert theta == pytest.approx(1.4442553047630884, abs=1e-9)
        assert abs(m_function(theta, 1.0, P_REF, MODEL)) < 1e-10

    def test_constraint_floor_takes_over(self):
        # Shrink e_lim so the coupled constraint forces theta above the M-root.
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=1.05)
        theta = solve_lemma3(0.01, p, MODEL)
        assert m_function(theta, 0.01, p, MODEL) < -1e-6  # constrained, not stationary
        assert feasible(theta, 0.01, p, MODEL)

    def test_requires_positive_e_i(self):
        with pytest.raises(ValueError):
            solve_lemma3(0.0, P_REF, MODEL)


class TestLemma4:
    """Lemma 4's stationary energy for fixed theta: the N-root `_e_star`."""

    def test_frozen_scan_root(self):
        # Dense scan of N(e, theta=2): sign change in [2.0440335, 2.0440346].
        e = single_block._e_star(2.0, P_REF, MODEL)
        assert e == pytest.approx(2.0440336490462387, abs=1e-6)
        assert abs(n_function(e, 2.0, P_REF, MODEL)) < 1e-10


@pytest.mark.parametrize(
    "model", [MODEL, power_law_model(1.0, 2.0)], ids=lambda m: m.name
)
class TestCandidates:
    def test_case_a_residuals(self, model):
        pairs = [(t, e) for t, e, c in case_ab_pairs(P_REF, model) if c is Case.TRADE_OFF]
        assert pairs
        for theta, e_i in pairs:
            assert abs(m_function(theta, e_i, P_REF, model)) < 1e-8
            assert abs(n_function(e_i, theta, P_REF, model)) < 1e-8

    def test_case_b_pins_peak_power(self, model):
        [(theta, e_i)] = [
            (t, e) for t, e, c in case_ab_pairs(P_REF, model) if c is Case.MAX_INFO_POWER
        ]
        assert e_i == P_REF.e_lim
        assert abs(m_function(theta, e_i, P_REF, model)) < 1e-8

    def test_case_c_sits_on_harvest_boundary(self, model):
        p = SystemParams(eta=0.5, g=0.0, e_avg=2.5, e_lim=3.0)
        cand = solve_case_c(p, model)
        assert cand is not None
        full = recover_full(cand.theta, cand.e_i, p, model)
        assert full.e_e == pytest.approx(p.e_lim, abs=1e-8)

    def test_ab_pairs_independent_of_budget(self, model):
        p_other = SystemParams(eta=0.5, g=0.2, e_avg=2.0, e_lim=3.0)
        ref = sorted((t, e) for t, e, _ in case_ab_pairs(P_REF, model))
        other = sorted((t, e) for t, e, _ in case_ab_pairs(p_other, model))
        assert len(ref) == len(other)
        for (t1, e1), (t2, e2) in zip(ref, other):
            assert t1 == pytest.approx(t2, abs=1e-8)
            assert e1 == pytest.approx(e2, abs=1e-8)


MODELS = [MODEL, power_law_model(1.0, 2.0)]


@st.composite
def link_params(draw):
    """A valid link over the whole domain, edges included: e_avg from 0 up to
    e_lim, g from 0 up to eta*e_avg (zero budget)."""
    eta = draw(st.floats(0.3, 1.0))
    e_lim = draw(st.floats(0.5, 8.0))
    e_avg = e_lim * draw(st.one_of(st.floats(0.0, 0.98), st.floats(0.98, 1.0 - 1e-9)))
    g = eta * e_avg * draw(st.one_of(st.floats(0.0, 1.0), st.just(1.0)))
    return SystemParams(eta=eta, g=g, e_avg=e_avg, e_lim=e_lim)


# The root finders as they were when M, N and h recomputed every term at every
# evaluation, took E and E' from two model calls and C and C' from two
# crossovers: the new ones, which build each root function once with its
# constants hoisted, must return their floats.
def _ref_capacity_slope(e_i):
    """C'(e_i) from a crossover of its own."""
    if e_i <= 0:
        raise ValueError("capacity_pair requires e_i > 0")
    eps = crossover(e_i)
    if eps == 0.0:
        return 0.0
    return (
        (math.log2(1.0 - eps) - math.log2(eps))
        * (1.0 / math.sqrt(4.0 * math.pi))
        * math.exp(-e_i)
        / math.sqrt(e_i)
    )


def _ref_m_function(theta, e_i, p, m):
    energy, slope = m.evaluate(theta), m.evaluate_pair(theta)[1]
    return p.eta * e_i + energy - (theta - 1.0) * theta * slope


def _ref_n_function(e_i, theta, p, m):
    return _ref_capacity_slope(e_i) * (p.eta * e_i + m.evaluate(theta)) - p.eta * capacity(e_i)


def _ref_theta_star(e_i, p, m):
    def f(t):
        return _ref_m_function(t, e_i, p, m)

    lo, hi = 1.0, 2.0
    f_lo, f_hi = None, f(hi)
    while not f_hi <= 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi == math.inf:
            raise SolverError(
                f"no M-root within the float range at e_i = {e_i:g} with model {m.name}"
            )
        f_hi = f(hi)
    if f_lo is None:
        f_lo = f(lo)
    return brentq(f, lo, hi, f_lo, f_hi, xtol=1e-12, rtol=8.9e-16)


def _ref_e_star(theta, p, m):
    def f(e):
        return _ref_n_function(e, theta, p, m)

    lo, hi = 1e-12, 1.0
    f_lo = f(lo)
    if f_lo <= 0.0:
        raise SolverError("N(0+) <= 0; energy model suspect")
    f_hi = f(hi)
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = f(hi)
    return brentq(f, lo, hi, f_lo, f_hi, xtol=1e-14, rtol=8.9e-16)


def _ref_e0(theta, p, m):
    denom = p.eta * p.e_lim - p.g
    return max(
        0.0,
        p.budget / denom * p.e_lim - (p.e_lim - p.e_avg) / denom * m.evaluate(theta),
    )


def _ref_solve_case_c(p, m):
    if p.budget <= 0.0:
        return None
    k = (p.e_lim - p.e_avg) / (p.eta * p.e_lim - p.g)

    def h(theta):
        e = _ref_e0(theta, p, m)
        if e <= 0.0:
            return -math.inf
        c = capacity(e)
        e_prime = -k * m.evaluate_pair(theta)[1]
        c_prime = _ref_capacity_slope(e) * e_prime
        q = theta * theta - theta
        gap = p.e_lim - e
        return gap * c + q * gap * c_prime + q * c * e_prime

    h_one = h(1.0)
    if h_one <= 0.0:
        return None
    theta_prime = inverse_energy(m, p.budget / (p.e_lim - p.e_avg) * p.e_lim)
    gap = max(1e-12, 1e-9 * (theta_prime - 1.0))
    hi = theta_prime - gap
    h_hi = h(hi) if hi > 1.0 else math.nan
    while hi > 1.0 and h_hi > 0.0:
        gap *= 1e-2
        hi = theta_prime - gap
        h_hi = h(hi) if hi > 1.0 else math.nan
        if gap < 1e-15 * theta_prime:
            break
    if not hi > 1.0 or h_hi > 0.0:
        theta = hi if hi > 1.0 else 1.0 + 1e-12
    else:
        theta = brentq(h, 1.0, hi, h_one, h_hi, xtol=1e-12, rtol=8.9e-16)
    e_i = _ref_e0(theta, p, m)
    return CandidateSolution(
        theta, e_i, Case.MAX_HARVEST_POWER, objective(theta, e_i, p, m), m.evaluate(theta)
    )


def _ref_case_ab_pairs(eta, e_lim, m):
    """The case (a)/(b) memo entry from the full start loop: every start runs."""
    p = SystemParams(eta=eta, g=0.0, e_avg=0.0, e_lim=e_lim)
    pairs, resolved = [], []
    for seed in single_block._start_energies(p.e_lim):
        e = seed
        theta = math.inf
        converged = False
        try:
            for _ in range(single_block._MAX_ALTERNATIONS):
                if any(lo <= e <= hi for lo, hi in resolved):
                    break
                theta_new = single_block._theta_star(e, p, m)
                e_new = single_block._e_star(theta_new, p, m)
                tol = single_block._FIXED_POINT_TOL
                if abs(theta_new - theta) < tol and abs(e_new - e) < tol:
                    theta, e = theta_new, e_new
                    converged = True
                    break
                theta, e = theta_new, e_new
            else:
                continue
        except SolverError:
            continue
        resolved.append((min(seed, e), max(seed, e)))
        tol = single_block._DEDUP_TOL
        if converged and not any(abs(theta - t0) < tol and abs(e - e0) < tol for t0, e0 in pairs):
            pairs.append((theta, e))
    out = [(t, e, Case.TRADE_OFF) for t, e in pairs]
    out.append((single_block._theta_star(p.e_lim, p, m), p.e_lim, Case.MAX_INFO_POWER))
    return tuple(single_block._memo_entry(t, e, case, m) for t, e, case in out)


def _bits(fn, *args):
    """fn(*args) with every float as its hex (so -0.0 and 0.0 differ), or its error."""
    try:
        value = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(value, CandidateSolution):
        return value.theta.hex(), value.e_i.hex(), value.case_label, value.objective.hex()
    return value if value is None else float.hex(value)


def _same(fn, ref, *args):
    return _bits(fn, *args) == _bits(ref, *args)


@st.composite
def edge_params(draw):
    """A link over ROADMAP item 4's probe distribution: e_avg up to e_lim and
    g up to eta*e_avg, each often within a hair of its end."""
    eta = 10.0 ** draw(st.floats(-4.0, 0.0))
    e_lim = 10.0 ** draw(st.floats(-2.0, 3.0))
    near_one = st.floats(-9.0, -1.0).map(lambda x: 1.0 - 10.0**x)
    small = st.floats(-6.0, -1.0).map(lambda x: 10.0**x)
    share = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), near_one, small))
    g_share = draw(st.one_of(st.floats(0.0, 1.0), st.just(0.0), near_one))
    e_avg = e_lim * share
    return SystemParams(eta=eta, g=eta * e_avg * g_share, e_avg=e_avg, e_lim=e_lim)


FAMILIES = st.one_of(
    st.just(MODEL), st.builds(power_law_model, st.floats(0.05, 20.0), st.floats(1.0, 10.0))
)


def kinked_model(a, k1, b1, k2, b2):
    """E = a*(theta-1)^2 + b1*max(0, theta-k1) + b2*max(0, theta-k2), 1 <= k1 <= k2.

    Convex, non-decreasing and unbounded with E(1) = 0; E' is the left
    derivative at a kink.  Each kink lifts e_a(theta), the e where M = 0,
    by a jump, so the alternation map can have a fixed point per kink.
    """

    def evaluate(theta):
        t = max(float(theta), 1.0)
        return a * (t - 1.0) * (t - 1.0) + b1 * max(0.0, t - k1) + b2 * max(0.0, t - k2)

    def evaluate_pair(theta):
        t = max(float(theta), 1.0)
        slope = 2.0 * a * (t - 1.0) + (b1 if t > k1 else 0.0) + (b2 if t > k2 else 0.0)
        return evaluate(t), slope

    return DecoderEnergyModel(f"kinked:{a!r},{k1!r},{b1!r},{k2!r},{b2!r}", evaluate, evaluate_pair)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


KINKED = st.builds(
    lambda a, d1, b1, d2, b2: kinked_model(a, 1.0 + d1, b1, 1.0 + d1 + d2, b2),
    _log_uniform(-3.0, 1.0),
    _log_uniform(-3.0, 0.3),
    _log_uniform(-1.0, 1.5),
    _log_uniform(-2.0, 0.5),
    _log_uniform(-1.0, 1.5),
)
# A kinked model and key where the full start loop finds two case (a) pairs.
TWO_BASIN = kinked_model(
    0.082642685567771, 1.0632751011447352, 4.019165792633886, 2.2635013460318243, 3.7114501449430377
)
TWO_BASIN_KEY = (0.8188762993410432, 5.699880327587148)

# Power laws over every scale: c log-uniform on [1e-300, 1e2], or the least
# positive float, and p on [1, 10].
SCALES = st.builds(
    power_law_model,
    st.one_of(st.floats(-300.0, 2.0).map(lambda x: 10.0**x), st.just(5e-324)),
    st.floats(1.0, 10.0),
)


class TestHoistedRootFunctions:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES, theta=st.floats(1.0, 50.0), e_i=st.floats(1e-9, 1.0))
    def test_stationarity_functions_keep_their_bits(self, p, model, theta, e_i):
        e_i *= p.e_lim
        assert _same(m_function, _ref_m_function, theta, e_i, p, model)
        assert _same(n_function, _ref_n_function, e_i, theta, p, model)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=edge_params(),
        model=FAMILIES,
        theta=st.floats(1.0, 50.0, exclude_min=True),
        e_i=st.floats(1e-3, 1.0),
    )
    def test_root_finders_keep_their_bits(self, p, model, theta, e_i):
        e_i *= p.e_lim
        assert _same(single_block._theta_star, _ref_theta_star, e_i, p, model)
        assert _same(single_block._e_star, _ref_e_star, theta, p, model)
        assert _same(solve_case_c, _ref_solve_case_c, p, model)


class TestOneModelCallPerTheta:
    def test_cold_solve_asks_the_model_once_per_root_function_value(self):
        # Each M and h value, and each other single_block step that reads
        # the model at a theta, must make one model call there.
        calls: dict = {}

        def counted(fn):
            def call(theta):
                caller = sys._getframe(1)
                if caller.f_globals is vars(single_block):
                    calls.setdefault(caller, []).append(theta)
                return fn(theta)

            return call

        curve = theta_log_theta_model()
        model = DecoderEnergyModel(
            curve.name, counted(curve.evaluate), counted(curve.evaluate_pair)
        )
        p = SystemParams(eta=0.5, g=0.1, e_avg=1.0, e_lim=3.0)
        _case_ab_pairs.cache_clear()
        case_ab_pairs(p, model)
        assert solve_case_c(p, model) is not None
        names = {frame.f_code.co_name for frame in calls}
        assert {"m_of", "phi_of", "h"} <= names
        assert max(len(thetas) for thetas in calls.values()) == 1


class TestRankedCandidates:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=link_params(), model=st.sampled_from(MODELS))
    def test_ranked_feasible_and_led_by_algorithm1(self, p, model):
        ranked = ranked_candidates(p, model)
        values = [c.objective for c in ranked]
        assert values == sorted(values, reverse=True)
        assert all(feasible(c.theta, c.e_i, p, model) for c in ranked)
        if p.budget > 0.0:
            assert ranked[0] == algorithm1(p, model)[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_ab_candidates_match_feasible_and_objective_bit_for_bit(self, p, model):
        # ranked_candidates scores each pair from the E and C in its memo
        # entry; with case (c) left out, that is exactly the feasible-filtered
        # list `feasible` and `objective` give, in the same stable order.
        expected = [
            CandidateSolution(t, e, c, objective(t, e, p, model), model.evaluate(t))
            for t, e, c in case_ab_pairs(p, model)
            if feasible(t, e, p, model)
        ]
        with mock.patch.object(single_block, "solve_case_c", lambda p, m, seed: None):
            ranked = ranked_candidates(p, model)
        assert ranked == sorted(expected, key=lambda c: c.objective, reverse=True)

    def test_ties_keep_enumeration_order(self):
        # At zero budget every candidate scores 0, so the ranking is the
        # enumeration order itself: case (a) pairs first, then case (b).
        p = SystemParams(eta=1.0, g=0.25, e_avg=0.25, e_lim=3.0)
        ranked = ranked_candidates(p, MODEL)
        assert [c.objective for c in ranked] == [0.0] * len(ranked)
        expected = [(t, e) for t, e, _ in case_ab_pairs(p, MODEL) if feasible(t, e, p, MODEL)]
        assert [(c.theta, c.e_i) for c in ranked] == expected
        assert ranked[-1].case_label is Case.MAX_INFO_POWER


class TestCandidateEnergy:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=edge_params(), model=st.one_of(FAMILIES, st.just(TWO_BASIN)))
    def test_every_candidate_carries_its_model_energy(self, p, model):
        # The zero solution's theta is 1, and E(1) = 0 by the model contract.
        for cand in [*ranked_candidates(p, model), algorithm1(p, model)[0]]:
            assert cand.energy.hex() == model.evaluate(cand.theta).hex()

    @pytest.mark.parametrize(
        "e_avg, case, names",
        [
            (1.0, Case.TRADE_OFF, ("feasible", "solve_case_c", "objective", "recover_full")),
            (2.5, Case.MAX_HARVEST_POWER, ("feasible", "solve_case_c", "objective")),
        ],
    )
    def test_algorithm1_calls_the_public_functions(self, e_avg, case, names):
        # The benchmark tracer wraps these module attributes, so a solve that
        # bypassed one (a private twin) would hide its calls from the trace.
        p = SystemParams(eta=0.5, g=0.0, e_avg=e_avg, e_lim=3.0)
        with contextlib.ExitStack() as stack:
            spies = {
                name: stack.enter_context(
                    mock.patch.object(single_block, name, wraps=getattr(single_block, name))
                )
                for name in names
            }
            assert algorithm1(p, MODEL)[0].case_label is case
        assert [name for name, spy in spies.items() if not spy.called] == []


class TestCaseAbMemo:
    def test_pairs_identical_across_budgets(self):
        p_other = SystemParams(eta=0.5, g=0.2, e_avg=2.0, e_lim=3.0)
        _case_ab_pairs.cache_clear()
        assert case_ab_pairs(P_REF, MODEL) == case_ab_pairs(p_other, MODEL)
        assert _case_ab_pairs.cache_info().misses == 1

    def test_returned_list_is_a_copy(self):
        first = case_ab_pairs(P_REF, MODEL)
        expected = list(first)
        first.clear()
        assert case_ab_pairs(P_REF, MODEL) == expected

    def test_distinct_models_with_one_name_do_not_share(self):
        twin = theta_log_theta_model()
        curve = power_law_model(1.0, 2.0)
        impostor = DecoderEnergyModel(MODEL.name, curve.evaluate, curve.evaluate_pair)
        _case_ab_pairs.cache_clear()
        case_ab_pairs(P_REF, MODEL)
        case_ab_pairs(P_REF, twin)
        assert _case_ab_pairs.cache_info().currsize == 2
        assert case_ab_pairs(P_REF, impostor) != case_ab_pairs(P_REF, MODEL)
        assert case_ab_pairs(P_REF, impostor) == case_ab_pairs(P_REF, curve)

    def test_cache_stays_bounded(self):
        _case_ab_pairs.cache_clear()
        for e_lim in np.linspace(1.5, 9.0, _AB_CACHE_SIZE + 8):
            p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=float(e_lim))
            case_ab_pairs(p, MODEL)
        info = _case_ab_pairs.cache_info()
        assert info.misses == _AB_CACHE_SIZE + 8
        assert info.currsize == _AB_CACHE_SIZE


GOLDEN = json.loads((Path(__file__).parent / "data" / "case_ab_pairs_golden.json").read_text())


def _golden_model(spec: dict) -> DecoderEnergyModel:
    if spec["name"] == "theta-log-theta":
        return theta_log_theta_model()
    return power_law_model(spec["c"], spec["p"])


class TestCaseAbStarts:
    """Starts at or below the covered energy are skipped; nothing else moves."""

    def test_pairs_match_golden_bit_for_bit(self):
        # Each memo entry also carries E(theta) and C(e), exactly as
        # `m.evaluate` and `capacity` give them.
        mismatched = []
        for key in GOLDEN["keys"]:
            expected = tuple(
                (float.fromhex(t), float.fromhex(e), Case(c)) for t, e, c in key["pairs"]
            )
            model = _golden_model(key["model"])
            entry = _case_ab_pairs(key["eta"], key["e_lim"], model)
            if tuple(pair[:3] for pair in entry) != expected:
                mismatched.append(key)
            for t, e, _, energy, c_e in entry:
                assert energy.hex() == model.evaluate(t).hex()
                assert c_e.hex() == capacity(e).hex()
        assert not mismatched
        # The corpus includes case (a) pairs outside the box (e > e_lim).
        assert any(
            float.fromhex(e) > key["e_lim"] for key in GOLDEN["keys"] for _, e, _ in key["pairs"]
        )

    def test_cold_call_alternation_budget(self, monkeypatch):
        # Running every start to its own fixed point took at least 159
        # theta* solves per key on this corpus, and every start with the
        # span skip up to 64.  Ending the loop at the first fixed point's
        # scan leaves its alternation and the case (b) root.
        calls = []
        theta_star = single_block._theta_star
        monkeypatch.setattr(
            single_block, "_theta_star", lambda *a: calls.append(1) or theta_star(*a)
        )
        for key in GOLDEN["keys"]:
            _case_ab_pairs.cache_clear()
            calls.clear()
            _case_ab_pairs(key["eta"], key["e_lim"], _golden_model(key["model"]))
            assert len(calls) <= 30, key

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        key=st.one_of(
            st.tuples(edge_params().map(lambda p: (p.eta, p.e_lim)), st.one_of(FAMILIES, KINKED)),
            # Where about 2 in 5 kinked keys have two case (a) pairs.
            st.tuples(st.tuples(_log_uniform(-1.0, 0.0), _log_uniform(-1.0, 1.5)), KINKED),
        )
    )
    def test_entries_match_the_full_start_loop(self, key):
        # The scan's break drops only starts that add no pair: the memo
        # entry is the one every start gives, to the bit, or the same error.
        (eta, e_lim), model = key
        pairs = _outcome(_case_ab_pairs.__wrapped__, eta, e_lim, model)
        assert pairs == _outcome(_ref_case_ab_pairs, eta, e_lim, model)

    @pytest.fixture
    def scans(self, monkeypatch):
        """The result of each stop scan a solve runs."""
        results = []
        scan = single_block._no_fixed_point_above
        monkeypatch.setattr(
            single_block,
            "_no_fixed_point_above",
            lambda *args: results.append(scan(*args)) or results[-1],
        )
        return results

    def test_two_basins_run_every_start(self, scans):
        # phi > 0 between the two fixed points, so the scan after the first
        # one fails and the loop goes on to the second.
        eta, e_lim = TWO_BASIN_KEY
        entry = _case_ab_pairs.__wrapped__(eta, e_lim, TWO_BASIN)
        assert scans == [False]
        assert [case for _, _, case, _, _ in entry] == [Case.TRADE_OFF] * 2 + [Case.MAX_INFO_POWER]
        assert entry == _ref_case_ab_pairs(eta, e_lim, TWO_BASIN)
        (theta_1, *_), (theta_2, *_), _ = entry
        phi = single_block._phi_of_theta(SystemParams(eta, 0.0, 0.0, e_lim), TWO_BASIN)
        assert max(phi(t) for t in np.linspace(theta_1, theta_2, 100)[1:-1]) > 0.0

    def test_one_basin_stops_after_the_first_fixed_point(self, scans):
        entry = _case_ab_pairs.__wrapped__(P_REF.eta, P_REF.e_lim, MODEL)
        assert scans == [True]
        assert entry == _ref_case_ab_pairs(P_REF.eta, P_REF.e_lim, MODEL)

    def test_stored_benchmark_keys_match_the_full_start_loop(self):
        # Every (eta, e_lim, model) key of the stored figure-maps and
        # multi-plan invocations, as the CLI parses it.
        keys = set()
        for workload in ("figure-maps", "multi-plan"):
            path = Path(__file__).parents[1] / "benchmarks" / "reference" / f"{workload}.json.gz"
            with gzip.open(path, "rt") as fh:
                for inv in json.load(fh)["invocations"]:
                    opts = {}
                    argv = inv["argv"]
                    for flag, value in zip(argv[1::2], argv[2::2]):
                        opts.setdefault(flag, []).append(value)
                    if "--e-lim" in opts:
                        e_lims = [float(opts["--e-lim"][0])]
                    else:
                        e_lims = cli._parse_sweeps(opts["--sweep"])["e_lim"]
                    eta = float(opts["--eta"][0])
                    keys.update((eta, e_lim, opts["--ed-model"][0]) for e_lim in e_lims)
        assert len(keys) > 500
        for eta, e_lim, spec in sorted(keys):
            model = parse_model(spec)
            assert _case_ab_pairs.__wrapped__(eta, e_lim, model) == _ref_case_ab_pairs(
                eta, e_lim, model
            ), (eta, e_lim, spec)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        eta=st.floats(1e-3, 1.0),
        model=st.one_of(
            st.just(MODEL),
            st.builds(power_law_model, st.floats(0.05, 20.0), st.floats(1.0, 10.0)),
        ),
        energies=st.lists(st.floats(1e-5, 60.0), min_size=2, max_size=6, unique=True),
    )
    def test_alternation_map_is_monotone(self, eta, model, energies):
        # The premise of the skip: F(e) = e*(theta*(e)) is non-decreasing,
        # up to the root finders' own precision.
        p = SystemParams(eta=eta, g=0.0, e_avg=0.0, e_lim=60.0)
        images = [
            single_block._e_star(single_block._theta_star(e, p, model), p, model)
            for e in sorted(energies)
        ]
        assert all(a <= b * (1.0 + 1e-9) for a, b in zip(images, images[1:]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(key=edge_params().map(lambda p: (p.eta, p.e_lim)), model=SCALES)
    # Small-scale keys whose theta* lies near 1e3 to 1e9, where the N-root
    # jitters between alternations by more than _FIXED_POINT_TOL.  F is
    # monotone, so a move against the last one is rounding and ends the
    # start; without that, every start of the last key ran out of
    # alternations, and its case (a) pair was dropped.
    @example(key=(0.538, 40.9), model=power_law_model(4.83e-27, 1.78))
    @example(
        key=(0.0011472245007096964, 0.012568801452338593),
        model=power_law_model(1.9453242381762517e-31, 4.77328257441877),
    )
    @example(
        key=(0.0002608147452334729, 0.9303065245905471),
        model=power_law_model(5.011328790761501e-38, 2.7761397829908736),
    )
    def test_small_scale_keys_reach_their_fixed_point(self, key, model):
        calls = []
        theta_star = single_block._theta_star
        with mock.patch.object(
            single_block, "_theta_star", lambda *a: calls.append(1) or theta_star(*a)
        ):
            entry = _case_ab_pairs.__wrapped__(*key, model)
        assert Case.TRADE_OFF in [case for _, _, case, _, _ in entry]
        assert len(calls) <= 64


class TestRecoverFull:
    def test_constraint_equalities(self):
        p = SystemParams(eta=0.5, g=0.3, e_avg=1.0, e_lim=3.0)
        f = recover_full(2.0, 1.2, p, MODEL)
        assert 0.0 <= f.alpha <= 1.0
        # Average power holds with equality.
        assert f.alpha * f.e_e + (1 - f.alpha) * f.e_i == pytest.approx(
            p.e_avg, abs=1e-12
        )
        # Harvest covers overhead plus decoding exactly.
        drained = p.g + (1 - f.alpha) * MODEL.evaluate(f.theta)
        assert f.alpha * p.eta * f.e_e == pytest.approx(drained, abs=1e-12)
        assert f.bits_per_use == pytest.approx((1 - f.alpha) * f.rate, abs=1e-15)

    def test_bits_match_reduced_objective(self):
        f = recover_full(2.0, 1.0, P_REF, MODEL)
        assert f.bits_per_use == pytest.approx(
            objective(2.0, 1.0, P_REF, MODEL), abs=1e-14
        )

    def test_rejects_pairs_needing_alpha_outside_unit(self):
        with pytest.raises(InfeasibleRecoveryError):
            recover_full(1.0 + 1e-9, 0.5, P_REF, MODEL)


class TestAlgorithm1:
    def test_frozen_reference_solution(self):
        cand, full = algorithm1(P_REF, MODEL)
        assert cand.case_label is Case.TRADE_OFF
        assert cand.theta == pytest.approx(1.5494152933502336, abs=1e-8)
        assert cand.e_i == pytest.approx(1.5741860991106487, abs=1e-8)
        assert cand.objective == pytest.approx(0.07700228520142806, abs=1e-10)
        assert full.alpha == pytest.approx(0.7168575694494596, abs=1e-8)

    def test_zero_budget_transmits_nothing(self):
        p = SystemParams(eta=0.5, g=0.5, e_avg=1.0, e_lim=3.0)
        cand, full = algorithm1(p, MODEL)
        assert cand.objective == 0.0
        assert full.bits_per_use == 0.0
        assert full.alpha == 1.0

    def test_beats_every_feasible_grid_point(self):
        cand, _ = algorithm1(P_REF, MODEL)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            t = float(rng.uniform(1.0 + 1e-9, 8.0))
            e = float(rng.uniform(0.0, P_REF.e_lim))
            if feasible(t, e, P_REF, MODEL):
                assert objective(t, e, P_REF, MODEL) <= cand.objective + 1e-12

    def test_cold_and_warm_solves_agree(self):
        _case_ab_pairs.cache_clear()
        cold = algorithm1(P_REF, MODEL)
        misses = _case_ab_pairs.cache_info().misses
        warm = algorithm1(P_REF, MODEL)
        assert _case_ab_pairs.cache_info().misses == misses
        assert cold == warm


class TestConstantPowerBaseline:
    def test_never_beats_optimizer(self):
        for e_avg in (0.3, 0.8, 1.5, 2.4):
            p = SystemParams(eta=0.5, g=0.0, e_avg=e_avg, e_lim=3.0)
            cand, _ = algorithm1(p, MODEL)
            base = constant_power_baseline(p, MODEL)
            assert base.bits_per_use <= cand.objective + 1e-12

    def test_equal_powers(self):
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        base = constant_power_baseline(p, MODEL)
        assert base.e_i == p.e_avg
        assert base.e_e == pytest.approx(p.e_avg, abs=1e-10)

    def test_frozen_reference_value(self):
        p = SystemParams(eta=0.5, g=0.0, e_avg=0.5, e_lim=3.0)
        base = constant_power_baseline(p, MODEL)
        assert base.bits_per_use == pytest.approx(0.02871238146894459, abs=1e-10)

    def test_zero_e_avg(self):
        p = SystemParams(eta=0.5, g=0.0, e_avg=0.0, e_lim=3.0)
        assert constant_power_baseline(p, MODEL).bits_per_use == 0.0

    def test_tiny_e_avg_needs_no_recovery_check(self):
        # E(theta) + g is about 1e-300 here, yet alpha = 1 - budget/(eta*e_avg + E)
        # is a valid split.
        p = SystemParams(eta=1.0, g=0.0, e_avg=1e-300, e_lim=0.5305339969787326)
        base = constant_power_baseline(p, power_law_model(1.0, 2.0))
        assert base.e_e == base.e_i == p.e_avg
        assert 0.0 <= base.alpha <= 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_keeps_recover_full_bits_and_never_raises(self, p, model):
        base = constant_power_baseline(p, model)
        if p.budget <= 0.0 or p.e_avg == 0.0:
            return
        try:
            full = recover_full(base.theta, p.e_avg, p, model)
        except InfeasibleRecoveryError:
            return
        assert (base.alpha, base.rate) == (full.alpha, full.rate)
        assert base.bits_per_use == full.bits_per_use

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_theta_is_the_lemma3_theta(self, p, model):
        # At e_i = e_e = e_avg the coupled constraint reads E(theta) >= -g,
        # so for g >= 0 the theta0 floor is 1 and theta is theta*.  (With
        # eta*e_avg below about 1e-25, theta* rounds to 1 and rounding in
        # theta0's target can lift it an ulp.)
        assume(p.budget > 0.0 and p.eta * p.e_avg > 1e-20)
        assert constant_power_baseline(p, model).theta == solve_lemma3(p.e_avg, p, model)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_solver_is_not_below_the_baseline(self, p, model):
        base = constant_power_baseline(p, model).bits_per_use
        _, full = algorithm1(p, model)
        assert full.bits_per_use >= base - 1e-12 * max(1.0, base)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_one_block_plan_is_the_single_block_solve(self, p, model):
        sol = iterative_solver(MultiBlockProblem(p, (p.g,), model))
        cand, _ = algorithm1(p, model)
        assert sol.total_bits_per_use.hex() == cand.objective.hex()
        assert sol.total_bits_per_use <= sol.bound + 1e-8


def _typed(solve, *args, **kwargs):
    """solve(*args), or the error it raised, which must be of a named subclass."""
    try:
        return solve(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        assert type(exc) not in (ValueError, RuntimeError), repr(exc)
        return exc


class TestDomainEdges:
    """ROADMAP item 5's properties over the edge distribution."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_recovered_solution_meets_power_and_harvest(self, p, model):
        # Both constraints hold with equality, to 1e-8 of the largest energy
        # in each (alpha only weighs them).  Where alpha rounds to 1 a term
        # (1 - alpha)*e can lose every digit, but not against that scale.
        _, f = algorithm1(p, model)
        energy, a = model.evaluate(f.theta), f.alpha
        assert abs(a * f.e_e + (1 - a) * f.e_i - p.e_avg) <= 1e-8 * max(f.e_e, f.e_i, p.e_avg)
        harvest, drain = a * p.eta * f.e_e, p.g + (1 - a) * energy
        assert abs(harvest - drain) <= 1e-8 * max(p.eta * f.e_e, p.g, energy)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=edge_params(), model=FAMILIES)
    def test_every_error_is_typed(self, p, model):
        for solve in (algorithm1, constant_power_baseline, solve_p8):
            _typed(solve, p, model)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p=edge_params(),
        model=FAMILIES,
        shares=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3),
    )
    def test_plan_total_is_within_the_bound(self, p, model, shares):
        prob = MultiBlockProblem(p, tuple(s * p.eta * p.e_avg for s in shares), model)
        sol = _typed(iterative_solver, prob)
        if not isinstance(sol, Exception):
            assert sol.total_bits_per_use <= sol.bound + 1e-8

    def test_case_c_residual_survives_an_overflowing_theta(self):
        # brentq's iterates reach theta = 1.6e281, where h's q*gap overflows
        # against a zero C' (inf*0 is NaN); h/q there keeps h's sign and root.
        p = SystemParams(
            eta=0.00021984838277072508,
            g=0.0063102709705125095,
            e_avg=130.43669303165322,
            e_lim=289.2083326349849,
        )
        model = power_law_model(1.639323031116131e-284, 1.0)
        cand = solve_case_c(p, model)
        assert feasible(cand.theta, cand.e_i, p, model)
        assert cand.objective > constant_power_baseline(p, model).bits_per_use

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=edge_params(), model=SCALES)
    def test_every_model_scale_solves(self, p, model):
        # A model that leaves the float range before its roots (c = 5e-324
        # with p = 1 tops out near E = 4e-16) raises the typed error; every
        # other solve keeps e_e <= e_lim and is not below the baseline.
        try:
            _, full = algorithm1(p, model)
            base = constant_power_baseline(p, model).bits_per_use
        except SolverError as exc:
            assert "within the float range" in str(exc), exc
            return
        assert full.e_e <= p.e_lim * (1 + 1e-12)
        assert full.bits_per_use >= base - 1e-12 * max(1.0, base)


def _outcome(solve, *args, **kwargs):
    """solve's result, or the (type, message) of the typed error it raised."""
    out = _typed(solve, *args, **kwargs)
    return (type(out), str(out)) if isinstance(out, Exception) else out


def _same_candidate(seeded, cold, p):
    """Seeded and cold case (c) outcomes: both None, the same error, or one root."""
    if not isinstance(cold, CandidateSolution):
        return seeded == cold
    if not isinstance(seeded, CandidateSolution):
        return False
    return _same_root(seeded.theta, seeded.objective, cold.theta, cold.objective, p)


def _same_root(seeded_theta, seeded_value, theta, value, p):
    """A seeded root and its objective value against the cold ones.

    Each root is within brentq's stop rule, 2*(xtol + rtol*theta), of a sign
    change of the computed function.  As e_avg nears e_lim, case (c)'s h
    cancels to a rounding band of relative width eps*e_lim/(e_lim - e_avg),
    in which neither root is closer to the optimum than the other.  So the
    thetas agree to 1e-12 relative or that band, and the values to 1e-12
    relative or the band over theta - 1 (a first-order change in the
    objective's (theta - 1)/theta factor).
    """
    band = 2.0 * (1e-12 + 8.9e-16 * theta) + theta * EPS * p.e_lim / (p.e_lim - p.e_avg)
    return abs(seeded_theta - theta) <= max(1e-12 * theta, band) and abs(
        seeded_value - value
    ) <= value * max(1e-12, band / (theta - 1.0))


def _counted_model(base=MODEL):
    """base (theta log theta by default) with its calls counted, and those at theta = 1."""
    calls = {"evaluate": 0, "evaluate_pair": 0, "at_one": 0}

    def counted(name, fn):
        def call(theta):
            calls[name] += 1
            calls["at_one"] += theta == 1.0
            return fn(theta)

        return call

    model = DecoderEnergyModel(
        base.name,
        counted("evaluate", base.evaluate),
        counted("evaluate_pair", base.evaluate_pair),
    )
    return calls, model


MODEL_SPECS = st.one_of(
    st.just("theta-log-theta"),
    st.builds(
        "power-law:c={!r},p={!r}".format, st.floats(0.05, 20.0), st.floats(1.0, 10.0)
    ),
)


@st.composite
def rows(draw):
    """A region-map row as the CLI builds it: 5-200 e_avg cells of one e_lim,
    often ending within a hair of e_lim, with g putting the first cells below
    the harvest floor (invalid) or exactly on it (zero budget)."""
    p = draw(edge_params())
    n = draw(st.integers(5, 200))
    lo = draw(st.floats(0.0, 0.9))
    near_one = st.floats(-15.0, -2.0).map(lambda x: 1.0 - 10.0**x)
    hi = draw(st.one_of(st.floats(lo + 0.05, 0.99), near_one))
    start, step = lo * p.e_lim, (hi - lo) * p.e_lim / (n - 1)
    sweep = f"e_avg:{start!r}:{start + step * (n - 1)!r}:{step!r}"
    g = p.eta * p.e_lim * draw(st.one_of(st.just(0.0), st.floats(0.0, hi)))
    if draw(st.booleans()):  # the first cell on the floor: zero budget
        g = p.eta * start
    return p.eta, g, p.e_lim, sweep


class TestRowSeed:
    """Seeded case (c) roots match cold ones; the seed saves model calls."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(row=rows(), spec=MODEL_SPECS)
    def test_seeded_row_matches_cold_cells(self, row, spec):
        eta, g, e_lim, sweep = row
        model = parse_model(spec)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["region-map", "--eta", repr(eta), "--g", repr(g), "--ed-model", spec,
                    "--sweep", f"e_lim:{e_lim!r}:{e_lim!r}:1", "--sweep", sweep]
            assert cli.main(argv) == 0
        labels = [line.split(",")[2] for line in out.getvalue().splitlines()[4:]]
        e_avgs = cli._parse_sweeps([sweep])["e_avg"]
        assert len(labels) == len(e_avgs)
        seed = single_block.RowSeed()
        for e_avg, label in zip(e_avgs, labels):
            if not e_avg < e_lim or eta * e_avg < g:
                assert label == "invalid"
                continue
            p = SystemParams(eta=eta, g=g, e_avg=e_avg, e_lim=e_lim)
            cold = _outcome(solve_case_c, p, model)
            seeded = _outcome(solve_case_c, p, model, seed=seed)
            assert _same_candidate(seeded, cold, p), (p, seeded, cold)
            assert label == cli._case_margins(p, model, None)[0]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(row=rows(), spec=MODEL_SPECS)
    def test_seeded_baseline_matches_cold_cells(self, row, spec):
        eta, g, e_lim, sweep = row
        model, seed = parse_model(spec), single_block.RowSeed()
        for e_avg in cli._parse_sweeps([sweep])["e_avg"]:
            if not e_avg < e_lim or eta * e_avg < g:
                continue
            p = SystemParams(eta=eta, g=g, e_avg=e_avg, e_lim=e_lim)
            cold = _outcome(constant_power_baseline, p, model)
            seeded = _outcome(constant_power_baseline, p, model, seed=seed)
            if isinstance(cold, tuple) or cold.bits_per_use == 0.0:
                assert seeded == cold
            else:
                assert _same_root(seeded.theta, seeded.bits_per_use, cold.theta, cold.bits_per_use, p)

    def test_seeded_row_makes_fewer_model_calls(self):
        # A 40-cell row, solved whole by `algorithm1` (30 cells won by case
        # (a), 10 by case (c)) and by `solve_case_c` alone.  Cold, each cell
        # finds theta' (about 7.7 evaluate calls) and brackets h on
        # [1, theta' - gap] (about 10 evaluate_pair calls); every cell also
        # takes E(theta_c) once, for its e_i and objective.  Seeded, all but
        # the first two cells bracket h around the extrapolated root (about
        # 5.9 evaluate_pair calls), with no theta'.  No cell calls the model
        # at theta = 1: h(1) = (e_lim - top)*C(top), as E(1) = 0.  The key's
        # case (a)/(b) pairs are solved beforehand.
        # The winner's feasibility check and full solution reuse the E of its
        # memo entry or of `solve_case_c`, so a whole cell asks the model
        # nothing more than its case (c) solve does.
        calls, model = _counted_model()
        case_ab_pairs(P_REF, model)
        for solve in (algorithm1, solve_case_c):
            counts = {}
            for seeded, seed in ((False, None), (True, single_block.RowSeed())):
                calls.update(evaluate=0, evaluate_pair=0, at_one=0)
                for i in range(40):
                    p = SystemParams(eta=0.5, g=0.0, e_avg=0.1 + 0.07 * i, e_lim=3.0)
                    assert solve(p, model, seed=seed) is not None
                counts[seeded] = dict(calls)
            assert counts[False] == {"evaluate": 347, "evaluate_pair": 406, "at_one": 0}
            assert counts[True] == {"evaluate": 54, "evaluate_pair": 243, "at_one": 0}
            assert sum(counts[True].values()) < sum(counts[False].values())

    def test_seeded_baseline_makes_fewer_model_calls(self):
        # The baselines of a 49-point sweep-single row.  Cold, each point
        # finds M(2) <= 0 and brackets M on [1, 2] (10 M values, each one
        # evaluate_pair call); seeded, all but the first two points bracket
        # M around the extrapolated theta* (5.5 M values).  Neither calls
        # the model for M(1) = eta*e_avg, as E(1) = 0.  theta is theta*, with
        # no theta0 floor (1 at e_i = e_avg), so E is taken once per point,
        # for the solution.
        calls, model = _counted_model()
        counts = {}
        for seeded, seed in ((False, None), (True, single_block.RowSeed())):
            calls.update(evaluate=0, evaluate_pair=0, at_one=0)
            for i in range(49):
                p = SystemParams(eta=0.5, g=0.0, e_avg=0.05 + 0.05 * i, e_lim=3.0)
                assert constant_power_baseline(p, model, seed=seed).bits_per_use > 0.0
            counts[seeded] = dict(calls)
        assert counts[False] == {"evaluate": 49, "evaluate_pair": 490, "at_one": 0}
        assert counts[True] == {"evaluate": 49, "evaluate_pair": 278, "at_one": 0}

    def test_case_c_bracket_clamped_at_one_takes_h_of_one(self):
        # A seed predicting theta_c = 1.1 with a half-width of 0.2: the
        # bracket's low end clamps at 1, where h(1) comes from E(1) = 0, not
        # from a model call.
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        cold = solve_case_c(p, MODEL)
        seed = single_block.RowSeed()
        seed._record(p.e_avg - 2.0, 1.1 + 12.8)  # a move of 32 half-widths
        seed._record(p.e_avg - 1.0, 1.1 + 6.4)
        calls, model = _counted_model()
        seeded = solve_case_c(p, model, seed=seed)
        assert calls["at_one"] == 0
        assert calls["evaluate"] == 1  # no theta': the seeded bracket held
        assert _same_candidate(seeded, cold, p)

    def test_baseline_bracket_widened_to_one_takes_m_of_one(self):
        # A seed predicting theta* = 3 with a half-width of 1.25: M(1.75) < 0,
        # and the first widening clamps the low end at 1, where M(1) is
        # eta*e_avg, taken with no model call.
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        cold = constant_power_baseline(p, MODEL)
        seed = single_block.RowSeed()
        seed._record(p.e_avg - 2.0, 3.0 + 80.0, baseline=True)
        seed._record(p.e_avg - 1.0, 3.0 + 40.0, baseline=True)
        calls, model = _counted_model()
        seeded = constant_power_baseline(p, model, seed=seed)
        assert m_function(1.0, p.e_avg, p, MODEL) == p.eta * p.e_avg
        assert calls["at_one"] == 0
        assert _same_root(seeded.theta, seeded.bits_per_use, cold.theta, cold.bits_per_use, p)

    @pytest.mark.parametrize(
        "eta, e_lim, spec, e_avgs",
        [
            # e_avg an ulp below e_lim: top = budget/(eta*e_lim - g)*e_lim
            # rounds to e_lim, so h(1) = (e_lim - top)*C(top) = 0.
            (0.20753705008118967, 3.0, "theta-log-theta", [2.994, 2.997, 2.9999999999999996]),
            # e(1) = top near 6e-18, where C(e) = 1 - H2(eps) rounds to 0.
            (0.5, 0.1, "power-law:c=0.05,p=2", [2.1e-18, 4.2e-18, 6.3e-18]),
        ],
    )
    def test_seeded_cell_whose_h_of_one_rounds_to_zero_has_no_root(self, eta, e_lim, spec, e_avgs):
        # The last cell's seeded bracket finds h > 0 above 1 and a sign
        # change, but h(1) rounds to 0, so the cold solve has no root.  The
        # seeded one takes h(1) there too and returns None.
        model, seed = parse_model(spec), single_block.RowSeed()
        outcomes = []
        for e_avg in e_avgs:
            p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
            seeded, cold = solve_case_c(p, model, seed=seed), solve_case_c(p, model)
            assert _same_candidate(seeded, cold, p)
            outcomes.append(seeded is None)
        assert outcomes == [False, False, True]

    def test_seed_carried_across_a_zero_budget_cell(self):
        # sweep-single's row (algorithm1, then the baseline, on one seed)
        # with g = eta*e_avg, a zero budget, at its fifth cell, as a library
        # caller changing g in mid-row might give it.  That cell records
        # nothing, so the next cells extrapolate across the gap from cells
        # of g = 0, and still match the cold solves.
        seed = single_block.RowSeed()
        cells = [(0.4 + 0.1 * i, 0.0) for i in range(4)] + [(0.8, 0.4)]
        cells += [(0.9 + 0.1 * i, 0.0) for i in range(4)]
        for i, (e_avg, g) in enumerate(cells):
            p = SystemParams(eta=0.5, g=g, e_avg=e_avg, e_lim=3.0)
            cand = algorithm1(p, MODEL, seed=seed)[0]
            base = constant_power_baseline(p, MODEL, seed=seed)
            cold_cand, cold_base = algorithm1(p, MODEL)[0], constant_power_baseline(p, MODEL)
            if i == 4:
                assert (cand, base) == (cold_cand, cold_base)
            else:
                assert _same_candidate(cand, cold_cand, p), i
                assert _same_root(
                    base.theta, base.bits_per_use, cold_base.theta, cold_base.bits_per_use, p
                ), i

    def test_prediction_past_theta_prime_falls_back_to_the_cold_bracket(self, monkeypatch):
        # A steep power law: theta_c flattens along the row, so the third
        # cell's linear prediction overshoots theta', where h is -inf.  That
        # cell finds theta' and brackets [1, theta' - gap] as a cold solve does.
        found = []
        monkeypatch.setattr(
            single_block,
            "inverse_energy",
            lambda m, target: found.append(target) or inverse_energy(m, target),
        )
        model, seed = power_law_model(2.3, 6.0), single_block.RowSeed()
        cells = []
        for i in range(8):
            p = SystemParams(eta=1.0, g=6.0, e_avg=8.0 + 76.0 * i / 7, e_lim=90.0)
            cells.append((solve_case_c(p, model, seed=seed), p))
        assert len(found) == 3  # two cold cells, then one fallback
        seeded, p = cells[2]
        assert seeded == solve_case_c(p, model)
        for seeded, p in cells:
            assert _same_candidate(seeded, solve_case_c(p, model), p)

    def test_bracket_reaching_past_theta_prime_falls_back(self, monkeypatch):
        # A prediction between the root and theta' whose first bracket ends
        # past theta', where h is -inf: the cell takes the cold bracket.
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        cold = solve_case_c(p, MODEL)
        theta_prime = inverse_energy(MODEL, p.budget / (p.e_lim - p.e_avg) * p.e_lim)
        pred, width = (cold.theta + theta_prime) / 2, 0.75 * (theta_prime - cold.theta)
        seed = single_block.RowSeed()
        seed._record(p.e_avg - 2.0, pred - 64.0 * width)  # a move of 32 half-widths
        seed._record(p.e_avg - 1.0, pred - 32.0 * width)
        found = []
        monkeypatch.setattr(
            single_block,
            "inverse_energy",
            lambda m, target: found.append(target) or inverse_energy(m, target),
        )
        assert solve_case_c(p, MODEL, seed=seed) == cold
        assert len(found) == 1


# Power laws whose c*p overflows: E'(1) = (c*p)*0^(p-1) is inf*0 = NaN.
OVERFLOWING = st.builds(power_law_model, st.floats(1e308, sys.float_info.max), st.floats(2.0, 10.0))


class TestNoModelCallAtOne:
    """E(1) = 0 gives M(1) = eta*e_i, h(1) = (e_lim - top)*C(top) and
    target - E(1) = target, so no solver calls the model at theta = 1."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(model=st.one_of(st.just(MODEL), SCALES, OVERFLOWING, KINKED))
    def test_every_model_is_zero_at_one(self, model):
        assert model.evaluate(1.0) == 0.0
        assert model.evaluate_pair(1.0)[0] == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=edge_params(), base=st.one_of(FAMILIES, KINKED))
    def test_no_solver_calls_the_model_at_one(self, p, base):
        # Cold and along a seeded row that ends at p, as sweep-single solves
        # one: algorithm1, then the baseline, on one seed.  The one call at
        # theta = 1 left is a baseline's E for its own solution, where its
        # theta* rounds to 1 (eta*e_avg below about 1e-25); its M(1) is
        # still not taken from the model.
        calls, model = _counted_model(base)
        seed, solved_at_one = single_block.RowSeed(), 0
        for share in (0.6, 0.8, 1.0):
            cell = SystemParams(eta=p.eta, g=p.g * share, e_avg=p.e_avg * share, e_lim=p.e_lim)
            for row in (None, seed):
                _typed(algorithm1, cell, model, seed=row)
                full = _typed(constant_power_baseline, cell, model, seed=row)
                solved = cell.budget > 0.0 and cell.e_avg > 0.0  # else the zero solution
                solved_at_one += solved and getattr(full, "theta", None) == 1.0
        _typed(solve_p8, p, model)
        _typed(inverse_energy, model, p.e_lim)
        assert calls["at_one"] == solved_at_one


class TestNearTheFloatRange:
    """Typed errors and recovery where a link's energies near the float range.

    Each solve runs cold and as the last cell of a seeded row, which skips
    theta': both give the same result or the same typed error.
    """

    def _row_outcomes(self, p, model):
        seed, out = single_block.RowSeed(), []
        for share in (0.5, 0.9, 1.0):
            cell = SystemParams(eta=p.eta, g=p.g, e_avg=p.e_avg * share, e_lim=p.e_lim)
            cold = _outcome(algorithm1, cell, model)
            seeded = _outcome(algorithm1, cell, model, seed=seed)
            if isinstance(cold[0], CandidateSolution):
                assert _same_candidate(seeded[0], cold[0], cell)
            else:
                assert seeded == cold
            out.append(cold)
        return out[-1]

    def test_infinite_theta_prime_target_is_a_typed_error(self):
        with pytest.raises(SolverError, match="theta-log-theta cannot reach target energy inf"):
            inverse_energy(MODEL, math.inf)
        p = SystemParams(
            eta=0.2856720044622783,
            g=1.906659265617676e296,
            e_avg=2.732667287862111e298,
            e_lim=2.732667287877896e298,
        )
        with pytest.raises(SolverError, match="target energy inf"):
            solve_case_c(p, MODEL)
        kind, message = self._row_outcomes(p, MODEL)
        assert kind is SolverError and "target energy inf" in message

    def test_overflowing_harvest_energy_is_a_typed_error(self):
        # The case (b) winner's g*e_i is about 1e369.
        p = SystemParams(
            eta=0.0005842667907369718,
            g=3.6139634370120496e182,
            e_avg=2.810964004719203e186,
            e_lim=2.8109640047192032e186,
        )
        model = power_law_model(1.71384e-134, 2.0)
        with pytest.raises(SolverError, match="recovered e_e"):
            algorithm1(p, model)
        kind, message = self._row_outcomes(p, model)
        assert kind is SolverError and "recovered e_e" in message

    @pytest.mark.parametrize(
        "eta, e_lim, e_avg",
        [
            (1.0, 0.05, 0.0499999999999983),
            (1.0, 0.05, 0.049999999999996804),
            (0.5, 0.1, 0.09999999999999751),
            (0.1, 0.05, 0.049999999999996804),
            (0.01, 0.05, 0.049999999999998004),
            (0.01, 0.1, 0.0999999999999967),
        ],
    )
    def test_tiny_valid_split_is_recovered(self, eta, e_lim, e_avg):
        # e_avg a few 1e-16 below e_lim and E about 1e-82: alpha is about
        # 1e-13, so alpha*(eta*e_i + E) falls below an absolute 1e-14.
        p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
        model = power_law_model(1.6e-162, 1.0)
        cand, full = self._row_outcomes(p, model)
        assert 0.0 < full.alpha <= 1.0 and full.e_e <= e_lim
        assert full.bits_per_use == pytest.approx(cand.objective, rel=1e-12)
        base = constant_power_baseline(p, model).bits_per_use
        assert full.bits_per_use >= base - 1e-12 * base

    def test_split_one_ulp_below_e_lim_is_recovered(self):
        # drain - budget leaves at most a few ulps of drain here;
        # eta*(e_i - e_avg) + E + g is the same alpha*drain without the cancellation.
        p = SystemParams(eta=1.0, g=0.0, e_avg=0.9999999999999999, e_lim=1.0)
        cand, full = algorithm1(p, power_law_model(1.6e-162, 1.0))
        assert cand.case_label is Case.MAX_INFO_POWER
        assert 0.0 < full.alpha <= 1.0
        average = full.alpha * full.e_e + (1.0 - full.alpha) * full.e_i
        assert average == pytest.approx(p.e_avg, abs=1e-15)

    def test_links_a_few_ulps_below_e_lim_are_never_refused(self):
        model = power_law_model(1.6e-162, 1.0)
        for eta in (1.0, 0.5, 0.1, 0.01):
            for e_lim in (0.2, 1.0):
                e_avg = e_lim
                for _ in range(26):
                    e_avg = math.nextafter(e_avg, 0.0)
                    _, full = algorithm1(SystemParams(eta, 0.0, e_avg, e_lim), model)
                    assert 0.0 <= full.alpha <= 1.0 and full.e_e <= e_lim, (eta, e_avg, e_lim)

    def test_split_outside_the_unit_interval_is_still_refused(self):
        with pytest.raises(InfeasibleRecoveryError):
            recover_full(1.0 + 1e-9, 0.5, P_REF, MODEL)
        # alpha a rounding error from 0: eta*e_i + E equals the budget.
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=3.0)
        with pytest.raises(InfeasibleRecoveryError):
            recover_full(1.0, 1.0, p, MODEL)
