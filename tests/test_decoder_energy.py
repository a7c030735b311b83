"""Decoder energy model tests: required curve properties and the inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlink import inverse_energy, parse_model, power_law_model, theta_log_theta_model
from ehlink.decoder_energy import DecoderEnergyModel
from ehlink.roots import SolverError

MODELS = [theta_log_theta_model(), power_law_model(1.0, 2.0), power_law_model(0.3, 1.5)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
class TestCurveProperties:
    def test_zero_at_one(self, model):
        assert model.evaluate(1.0) == 0.0

    def test_non_decreasing_and_convex(self, model):
        ts = np.linspace(1.0, 50.0, 2000)
        es = np.array([model.evaluate(t) for t in ts])
        assert np.all(np.diff(es) >= 0)
        assert np.all(np.diff(es, 2) >= -1e-9)

    def test_unbounded_growth(self, model):
        assert model.evaluate(1e6) > 1e5

    def test_derivative_matches_finite_differences(self, model):
        h = 1e-7
        for t in (1.5, 2.0, 5.0, 20.0):
            fd = (model.evaluate(t + h) - model.evaluate(t - h)) / (2.0 * h)
            assert model.evaluate_pair(t)[1] == pytest.approx(fd, rel=1e-6)

    def test_rejects_theta_below_one(self, model):
        with pytest.raises(ValueError):
            model.evaluate(0.5)
        with pytest.raises(ValueError):
            model.evaluate_pair(0.9)


# E' as each model computed it in a call of its own, before E and E' came
# from one call: the reference the pair's second float must keep.
def _theta_log_theta_slope(theta):
    return math.log2(max(theta, 1.0)) + 1.0 / math.log(2.0)


def _power_law_slope(c, p):
    def slope(theta):
        return c * p * (max(theta, 1.0) - 1.0) ** (p - 1.0)

    return slope


# The clamp slack below 1 and the working range up to theta = 1e12.
THETAS = st.one_of(
    st.floats(1.0 - 1e-13, 1.0 + 1e-6),
    st.floats(0.0, 12.0).map(lambda x: 10.0**x),
    st.sampled_from([1.0 - 1e-13, 1.0, 2.0, 1e12]),
)
FAMILIES = st.one_of(
    st.just((theta_log_theta_model(), _theta_log_theta_slope)),
    st.tuples(st.floats(0.05, 20.0), st.floats(1.0, 10.0)).map(
        lambda cp: (power_law_model(*cp), _power_law_slope(*cp))
    ),
)


class TestEvaluatePair:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(family=FAMILIES, theta=THETAS)
    def test_pair_keeps_the_bits_of_the_separate_calls(self, family, theta):
        model, slope = family
        energy, e_prime = model.evaluate_pair(theta)
        assert energy.hex() == model.evaluate(theta).hex()
        assert e_prime.hex() == slope(theta).hex()

    def test_checks_theta_once_per_call(self, monkeypatch):
        from ehlink import decoder_energy

        seen = []
        check = decoder_energy._check_theta
        monkeypatch.setattr(
            decoder_energy, "_check_theta", lambda t: seen.append(t) or check(t)
        )
        for model in (theta_log_theta_model(), power_law_model(2.0, 3.0)):
            model.evaluate_pair(1.5)
        assert seen == [1.5, 1.5]


class TestThetaLogTheta:
    def test_closed_form_values(self):
        m = theta_log_theta_model()
        assert m.evaluate(2.0) == pytest.approx(2.0, abs=1e-15)
        assert m.evaluate(4.0) == pytest.approx(8.0, abs=1e-14)
        assert m.evaluate_pair(2.0)[1] == pytest.approx(1.0 + 1.0 / math.log(2.0), abs=1e-15)

    def test_roundoff_slack_below_one(self):
        # Values within 1e-12 of 1 are clamped rather than rejected.
        m = theta_log_theta_model()
        assert m.evaluate(1.0 - 1e-13) == 0.0


class TestPowerLaw:
    def test_closed_form_values(self):
        m = power_law_model(2.0, 3.0)
        assert m.evaluate(3.0) == pytest.approx(16.0, abs=1e-13)
        assert m.evaluate_pair(3.0)[1] == pytest.approx(24.0, abs=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            power_law_model(c=0.0)
        with pytest.raises(ValueError):
            power_law_model(p=0.5)
        with pytest.raises(ValueError, match="^power-law c must be finite"):
            power_law_model(c=math.nan)
        with pytest.raises(ValueError, match="^power-law p must be finite"):
            power_law_model(p=math.inf)

    def test_past_the_float_range_is_inf(self):
        # (theta - 1)^2 overflows at 1e200 and (theta - 1)^1 does not; a
        # power that overflows reads inf instead of raising.
        assert power_law_model(1.0, 2.0).evaluate(1e200) == math.inf
        assert power_law_model(1.0, 2.0).evaluate_pair(1e200) == (math.inf, 2e200)
        assert power_law_model(1.0, 3.0).evaluate_pair(1e200) == (math.inf, math.inf)

    def test_inverse_past_the_float_range_is_a_typed_error(self):
        # c = 5e-324 with p = 1 tops out near E = 4e-16 at the largest float.
        with pytest.raises(
            SolverError,
            match=r"^decoder energy model power-law:c=4\.94066e-324,p=1 does not reach 1 "
            r"within the float range$",
        ):
            inverse_energy(power_law_model(5e-324, 1.0), 1.0)


def test_inverse_of_a_model_turning_nan_is_a_typed_error():
    # A custom model that is NaN past theta = 1.5: every doubled bracket end
    # reads NaN, so the bracket search runs out of floats, as for a target
    # the model never reaches, rather than handing brentq a NaN.
    def evaluate(theta):
        return theta - 1.0 if theta < 1.5 else math.nan

    model = DecoderEnergyModel("nan-past-1.5", evaluate, lambda t: (evaluate(t), 1.0))
    with pytest.raises(
        SolverError, match=r"^decoder energy model nan-past-1\.5 does not reach 1 within"
    ):
        inverse_energy(model, 1.0)


class TestParseModel:
    def test_builtin_names(self):
        assert parse_model("theta-log-theta").name == "theta-log-theta"
        m = parse_model("power-law:c=2,p=1.5")
        assert m.name == "power-law:c=2,p=1.5"
        assert m.evaluate(2.0) == pytest.approx(2.0, abs=1e-14)

    def test_power_law_defaults(self):
        assert parse_model("power-law").name == "power-law:c=1,p=2"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_model("cubic")
        with pytest.raises(ValueError):
            parse_model("power-law:q=3")


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
class TestInverseEnergy:
    def test_round_trip(self, model):
        for target in (0.0, 1e-6, 0.5, 3.0, 1e4):
            theta = inverse_energy(model, target)
            assert theta >= 1.0
            assert model.evaluate(theta) == pytest.approx(target, rel=1e-10, abs=1e-10)

    def test_zero_target_is_one(self, model):
        assert inverse_energy(model, 0.0) == 1.0

    def test_rejects_negative_target(self, model):
        with pytest.raises(ValueError):
            inverse_energy(model, -1.0)
