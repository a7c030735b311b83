"""Channel model tests.

Reference values were computed independently by adaptive quadrature of the
standard normal density (scipy.integrate.quad) and then frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ehlink import capacity, capacity_pair, crossover, oracle, q_function


class TestQFunction:
    def test_frozen_quadrature_values(self):
        # quad(normal_pdf, x, inf) for x in {1, sqrt(2), 3}.
        assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-14)
        assert q_function(math.sqrt(2.0)) == pytest.approx(
            0.07864960352514257, abs=1e-14
        )
        assert q_function(3.0) == pytest.approx(0.0013498980316300963, abs=1e-14)

    def test_symmetry_point(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_reflection_identity(self):
        for x in (0.3, 1.0, 2.5):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)

    def test_array_matches_scalar(self):
        # The channel is scalar-only; the array side is the erfc form the
        # oracle evaluates over its grid.
        xs = np.array([-1.0, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(
            0.5 * special.erfc(xs / math.sqrt(2.0)),
            [q_function(float(x)) for x in xs],
            rtol=1e-15,
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            q_function(math.nan)
        with pytest.raises(ValueError):
            q_function(math.inf)


class TestCrossover:
    def test_matches_q_of_sqrt_2e(self):
        for e in (0.1, 1.0, 4.0):
            assert crossover(e) == pytest.approx(
                q_function(math.sqrt(2.0 * e)), abs=1e-15
            )

    def test_zero_energy_is_half(self):
        assert crossover(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            crossover(-0.1)
        with pytest.raises(ValueError):
            crossover(-1e-9)


class TestCapacity:
    def test_frozen_quadrature_values(self):
        # 1 + eps*log2(eps) + (1-eps)*log2(1-eps), eps from quadrature.
        assert capacity(1.0) == pytest.approx(0.6025969807153305, abs=1e-12)
        assert capacity(0.25) == pytest.approx(0.2053756073825263, abs=1e-12)
        assert capacity(4.0) == pytest.approx(0.9761880351141595, abs=1e-12)

    def test_limits(self):
        assert capacity(0.0) == 0.0
        assert capacity(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing(self):
        es = np.linspace(0.0, 10.0, 2001)
        cs = np.array([capacity(e) for e in es])
        assert np.all(np.diff(cs) > 0)

    def test_bounded_in_unit_interval(self):
        es = np.geomspace(1e-9, 1e3, 500)
        cs = np.array([capacity(e) for e in es])
        assert np.all(cs >= 0.0) and np.all(cs <= 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(e=st.floats(1e-12, 1e3))
    def test_positive_from_1e_12(self, e):
        # C(e), about 0.92*e near 0, is formed as 1 - (1 - 0.92*e), which
        # rounds to 0 only below about 2e-16.
        assert capacity(e) > 0.0
        assert capacity(1e-12) > 0.0

    def test_concavity_on_grid(self):
        es = np.arange(0.01, 10.0, 1e-3)
        cs = np.array([capacity(e) for e in es])
        second = np.diff(cs, 2)
        assert np.max(second) <= 1e-9

    def test_array_matches_scalar(self):
        # The array side is the oracle's own grid capacity.
        es = np.array([0.0, 0.3, 1.0, 6.0])
        np.testing.assert_allclose(
            oracle._capacity(es), [capacity(float(e)) for e in es], rtol=1e-14, atol=1e-15
        )


def _c_prime(e_i):
    """C'(e_i), as the solvers read it: the second float of capacity_pair."""
    return capacity_pair(e_i)[1]


class TestCapacityDerivative:
    def test_matches_finite_differences(self):
        h = 1e-6
        for e in (0.05, 0.5, 1.0, 3.0, 8.0):
            fd = (capacity(e + h) - capacity(e - h)) / (2.0 * h)
            assert _c_prime(e) == pytest.approx(fd, rel=1e-7)

    def test_frozen_values(self):
        assert _c_prime(1.0) == pytest.approx(0.3684326578823338, rel=1e-8)
        assert _c_prime(0.5) == pytest.approx(0.5823755698797228, rel=1e-8)

    def test_positive_and_decreasing_tail(self):
        es = np.linspace(0.5, 10.0, 500)
        ds = np.array([_c_prime(e) for e in es])
        assert np.all(ds > 0)
        assert np.all(np.diff(ds) < 0)

    def test_zero_once_crossover_underflows(self):
        # Q(sqrt(2e)) is exactly 0.0 past e ~ 745; log2(0) must not be taken.
        assert crossover(800.0) == 0.0
        assert _c_prime(800.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _c_prime(0.0)
        with pytest.raises(ValueError):
            _c_prime(-2.0)


# C and C' as they were before both took their crossover and logs from one
# helper: the bits every solver output rests on.  Only the error message of
# C' names its new home.
def _two_crossover_capacity(e_i):
    eps = crossover(e_i)
    if eps <= 0.0:
        return 1.0
    if eps >= 0.5:
        return 0.0
    c = 1.0 + (eps * math.log2(eps) + (1.0 - eps) * math.log2(1.0 - eps))
    return min(max(c, 0.0), 1.0)


def _two_crossover_derivative(e_i):
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


def _outcome(fn, e_i):
    """fn(e_i) as the hex of each float (so -0.0 and 0.0 differ), or its error."""
    try:
        value = fn(e_i)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(float.hex(v) for v in value) if isinstance(value, tuple) else float.hex(value)


# Log-uniform over [1e-300, 1e3], with both ends of the crossover: eps -> 1/2
# (erfc rounds to 1 below e ~ 1e-33) and eps -> 0 (it underflows past e ~ 745),
# plus the inputs every function must refuse.
ENERGIES = st.one_of(
    st.floats(-300.0, 3.0).map(lambda x: 10.0**x),
    st.floats(1e-36, 1e-30),
    st.floats(600.0, 800.0),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-9, -2.0, math.nan, math.inf, -math.inf]),
)


class TestCapacityPair:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(e_i=ENERGIES)
    def test_matches_the_two_calls_bit_for_bit(self, e_i):
        assert _outcome(capacity_pair, e_i) == _outcome(
            lambda e: (capacity(e), _two_crossover_derivative(e)), e_i
        )

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(e_i=ENERGIES)
    def test_each_function_keeps_its_two_crossover_bits(self, e_i):
        assert _outcome(capacity, e_i) == _outcome(_two_crossover_capacity, e_i)
        assert _outcome(capacity_pair, e_i) == _outcome(
            lambda e: (_two_crossover_capacity(e), _two_crossover_derivative(e)), e_i
        )

    def test_edges(self):
        assert capacity_pair(800.0) == (1.0, 0.0)
        assert capacity_pair(1e-300) == (0.0, 0.0)
        with pytest.raises(ValueError, match="capacity_pair requires e_i > 0"):
            capacity_pair(0.0)
        with pytest.raises(ValueError, match=">= 0"):
            capacity_pair(-1.0)
        with pytest.raises(ValueError, match="finite"):
            capacity_pair(math.nan)

    def test_capacity_at_the_edges(self):
        # Over ENERGIES, test_matches_the_two_calls_bit_for_bit already holds
        # capacity(e_i) to capacity_pair(e_i)[0], bit for bit.
        for e_i in (5e-324, 800.0):
            assert capacity(e_i).hex() == capacity_pair(e_i)[0].hex()
        assert capacity(0.0).hex() == capacity(-0.0).hex() == "0x0.0p+0"
        with pytest.raises(ValueError, match="^energy per channel use must be >= 0$"):
            capacity(-1.0)
        for e_i in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^q_function requires finite input$"):
                capacity(e_i)
