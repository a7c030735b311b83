"""The in-house Brent solver against scipy's: the same float, the same errors.

Also the doubling bracket search that the solvers' cold brackets share.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ehlink.roots import SolverError, bracket_up, brentq

# The xtol values the solvers use, and scipy's smallest rtol next to theirs.
XTOLS = (1e-12, 1e-13, 1e-14)
RTOLS = (8.9e-16, 4.0 * sys.float_info.epsilon)


def _linear(r, k, cut):
    return lambda x: k * (x - r)


def _exponential(r, k, cut):
    return lambda x: math.exp(k * x) - math.exp(k * r)


def _cubic(r, k, cut):
    return lambda x: (r - x) ** 3 + k * (r - x)


def _arctan(r, k, cut):
    return lambda x: math.atan(k * (r - x))


def _tiny_cubic(r, k, cut):
    # Values near 1e-200: products of slopes underflow to 0, where C divides
    # by zero and then bisects.
    return lambda x: 1e-200 * ((r - x) ** 3 + k * (r - x))


def _minus_inf_beyond_cut(r, k, cut):
    # Like single_block's h: finite and decreasing up to a point, -inf past it.
    return lambda x: k * (r - x) * (1.0 + x * x) if x < cut else -math.inf


def _zero_plateau(r, k, cut):
    # Exactly 0.0 on [2r - cut, cut]: an iterate that lands there returns at
    # once, where C's "fpre != 0 && fcur != 0" guard is what keeps the
    # bracket.
    return lambda x: 0.0 if 2.0 * r - cut <= x <= cut else k * (x - r)


def _minus_zero_plateau(r, k, cut):
    # The same with -0.0, whose sign bit is set but which is still a zero.
    return lambda x: -0.0 if 2.0 * r - cut <= x <= cut else k * (x - r)


FAMILIES = (
    _linear,
    _exponential,
    _cubic,
    _tiny_cubic,
    _arctan,
    _minus_inf_beyond_cut,
    _zero_plateau,
    _minus_zero_plateau,
)


def _scipy(f, a, b, xtol, rtol):
    try:
        return optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _port(f, a, b, xtol, rtol):
    try:
        return brentq(f, a, b, f(a), f(b), xtol, rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestMatchesScipy:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(FAMILIES),
        r=st.floats(-10.0, 10.0),
        left=st.floats(-8.0, 2.0),
        right=st.floats(-8.0, 2.0),
        cut_share=st.floats(0.0, 1.0),
        log_k=st.floats(-2.0, 0.5),
        xtol=st.sampled_from(XTOLS),
        rtol=st.sampled_from(RTOLS),
    )
    def test_bit_equal_root(self, family, r, left, right, cut_share, log_k, xtol, rtol):
        # Bracket [r - 10**left, r + 10**right]; the -inf family turns to
        # -inf at a cut between the root and b.
        a, b = r - 10.0**left, r + 10.0**right
        f = family(r, 10.0**log_k, r + cut_share * (b - r))
        expected = _scipy(f, a, b, xtol, rtol)
        assert isinstance(expected, float)
        assert _port(f, a, b, xtol, rtol) == expected

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda fam: fam.__name__.strip("_"))
    def test_bit_equal_on_a_fixed_bracket(self, family):
        f = family(0.3, 1.0, 0.7)
        for xtol in XTOLS:
            assert _port(f, -1.0, 1.0, xtol, 8.9e-16) == _scipy(f, -1.0, 1.0, xtol, 8.9e-16)


class TestEdgeCases:
    def test_root_at_an_endpoint(self):
        f = lambda x: x - 2.0  # noqa: E731
        assert brentq(f, 2.0, 5.0, f(2.0), f(5.0), 1e-12, 8.9e-16) == 2.0
        assert brentq(f, -1.0, 2.0, f(-1.0), f(2.0), 1e-12, 8.9e-16) == 2.0
        assert optimize.brentq(f, 2.0, 5.0) == 2.0

    def test_same_sign_is_a_value_error(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        assert _port(f, -1.0, 1.0, 1e-12, 8.9e-16) == _scipy(f, -1.0, 1.0, 1e-12, 8.9e-16)
        with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
            brentq(f, -1.0, 1.0, 2.0, 2.0, 1e-12, 8.9e-16)

    def test_nan_value_is_a_value_error(self):
        at_endpoint = lambda x: math.nan if x > 0.5 else -1.0  # noqa: E731
        inside = lambda x: 1.0 if x >= 1.0 else (-1.0 if x <= -1.0 else math.nan)  # noqa: E731
        for f in (at_endpoint, inside):
            result = _port(f, -1.0, 1.0, 1e-12, 8.9e-16)
            assert result == _scipy(f, -1.0, 1.0, 1e-12, 8.9e-16)
            assert result[0] is ValueError and "is NaN" in result[1]

    def test_non_convergence_is_a_runtime_error(self):
        # A step function on a huge bracket: every step bisects, and 100
        # halvings of 2e300 stay far above xtol.
        f = lambda x: 1.0 if x > 0.3 else -1.0  # noqa: E731
        result = _port(f, -1e300, 1e300, 1e-12, 8.9e-16)
        assert result == _scipy(f, -1e300, 1e300, 1e-12, 8.9e-16)
        assert result == (RuntimeError, "Failed to converge after 100 iterations.")

    @pytest.mark.parametrize("maxiter", [150, 2000])
    def test_iteration_limit_is_scipys_maxiter(self, maxiter):
        # About 1037 halvings take that bracket down to xtol.
        f = lambda x: 1.0 if x > 0.3 else -1.0  # noqa: E731
        try:
            expected = optimize.brentq(f, -1e300, 1e300, xtol=1e-12, rtol=8.9e-16, maxiter=maxiter)
        except RuntimeError as exc:
            expected = str(exc)
        try:
            result = brentq(f, -1e300, 1e300, f(-1e300), f(1e300), 1e-12, 8.9e-16, maxiter=maxiter)
        except RuntimeError as exc:
            result = str(exc)
        assert result == expected
        assert (result == "Failed to converge after 150 iterations.") == (maxiter == 150)

    def test_tolerance_checks(self):
        f = lambda x: x  # noqa: E731
        for xtol, rtol in ((0.0, 8.9e-16), (-1e-12, 8.9e-16), (1e-12, 1e-16)):
            result = _port(f, -1.0, 2.0, xtol, rtol)
            assert result == _scipy(f, -1.0, 2.0, xtol, rtol)
            assert result[0] is ValueError


# Families that rise through their root; bracket_up takes the falling -f.
RISING = (_linear, _exponential, _zero_plateau, _minus_zero_plateau)


def _falling(family, r, k, cut):
    f = family(r, k, cut)
    return (lambda x: -f(x)) if family in RISING else f


def _theta_star_loop(f, lo, hi):
    """The doubling loop single_block._theta_star kept before bracket_up."""
    f_lo, f_hi = None, f(hi)
    while not f_hi <= 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi == math.inf:
            raise SolverError("no M-root within the float range")
        f_hi = f(hi)
    return lo, hi, f_lo, f_hi


def _e_star_loop(f, lo, hi):
    """The doubling loop single_block._e_star kept, f(lo) taken first."""
    f_lo = f(lo)
    f_hi = f(hi)
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = f(hi)
    return lo, hi, f_lo, f_hi


def _inverse_energy_loop(rising, hi):
    """The doubling loop inverse_energy kept, on a rising E - target."""
    e_hi = rising(hi)
    while e_hi < 0.0:
        hi *= 2.0
        if hi == math.inf:
            raise SolverError("does not reach the target within the float range")
        e_hi = rising(hi)
    return hi, e_hi


class TestBracketUp:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(FAMILIES),
        log_r=st.floats(-3.0, 2.0),
        log_hi=st.floats(-6.0, 2.0),
        log_lo_share=st.floats(-12.0, -0.3),
        cut_share=st.floats(0.0, 1.0),
        log_k=st.floats(-2.0, 0.5),
    )
    def test_returns_what_the_replaced_loops_return(
        self, family, log_r, log_hi, log_lo_share, cut_share, log_k
    ):
        # Positive brackets below or above a root r in (1e-3, 100], as the
        # solvers' are; the -inf family turns at a cut above r.
        r, hi = 10.0**log_r, 10.0**log_hi
        lo = hi * 10.0**log_lo_share
        f = _falling(family, r, 10.0**log_k, r * (1.0 + cut_share))
        # _theta_star's loop left f_lo None until lo moved, and took f(lo) after.
        a, b, f_a, f_b = _theta_star_loop(f, lo, hi)
        assert bracket_up(f, lo, hi, f(lo)) == (a, b, f(lo) if f_a is None else f_a, f_b)
        assert bracket_up(f, lo, hi, f(lo)) == _e_star_loop(f, lo, hi)
        _, b, _, f_b = bracket_up(f, lo, hi, f(lo))
        assert (b, -f_b) == _inverse_energy_loop(lambda x: -f(x), hi)

    def test_f_lo_stays_given_until_lo_moves(self):
        f = lambda x: 3.0 - x  # noqa: E731
        assert bracket_up(f, 1.0, 4.0, 2.0) == (1.0, 4.0, 2.0, -1.0)
        assert bracket_up(f, 1.0, 2.0, 2.0) == (2.0, 4.0, 1.0, -1.0)

    def test_nan_doubles_on(self):
        f = lambda x: math.nan if x < 10.0 else -1.0  # noqa: E731
        lo, hi, f_lo, f_hi = bracket_up(f, 1.0, 2.0, math.nan)
        assert (lo, hi, f_hi) == (8.0, 16.0, -1.0)
        assert math.isnan(f_lo)

    def test_positive_everywhere_is_a_solver_error(self):
        # hi doubles from 2 to 2**1023, the largest power of two, then leaves
        # the floats: 1023 values, all in this process.
        seen = []
        with pytest.raises(SolverError, match="within the float range"):
            bracket_up(lambda x: seen.append(x) or 1.0, 1.0, 2.0, 1.0)
        assert seen == [2.0**i for i in range(1, 1024)]


class TestOddInF:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(FAMILIES),
        r=st.floats(-10.0, 10.0),
        left=st.floats(-8.0, 2.0),
        right=st.floats(-8.0, 2.0),
        cut_share=st.floats(0.0, 1.0),
        log_k=st.floats(-2.0, 0.5),
        xtol=st.sampled_from(XTOLS),
        rtol=st.sampled_from(RTOLS),
    )
    def test_negated_f_gives_the_same_float(
        self, family, r, left, right, cut_share, log_k, xtol, rtol
    ):
        # Negation is exact, and every step of brentq is odd in f, so
        # inverse_energy may bracket target - E in place of E - target.
        a, b = r - 10.0**left, r + 10.0**right
        f = family(r, 10.0**log_k, r + cut_share * (b - r))
        root = _port(f, a, b, xtol, rtol)
        assert isinstance(root, float)
        assert _port(lambda x: -f(x), a, b, xtol, rtol) == root
