"""The direct HiGHS call against scipy's linprog: the same floats, the same failures."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ehlink import MultiBlockProblem, SystemParams, lp_step, multi_block, theta_log_theta_model
from ehlink.decoder_energy import DecoderEnergyModel, power_law_model
from ehlink.multi_block import LpDataError, LpInfeasibleError

MODELS = (theta_log_theta_model(), power_law_model(1.0, 2.0), power_law_model(0.05, 10.0))


def _scipy(cost, a_ub, b_ub, a_eq=None, b_eq=None):
    return optimize.linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=[(None, None)] * len(cost), method="highs",
    )


def _captured_lps(prob, thetas, e_is):
    """The argument tuples of every LP that `lp_step` issues, pinned chain included."""
    lps = []
    direct = multi_block.linprog

    def capture(*args):
        lps.append(args)
        return direct(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multi_block, "linprog", capture)
        lp_step(prob, thetas, e_is)
    return lps


def _assert_bit_equal(args):
    ours, theirs = multi_block.linprog(*args), _scipy(*args)
    assert ours.success == theirs.success
    if theirs.success:
        assert ours.x.tobytes() == theirs.x.tobytes()
        assert ours.fun == theirs.fun
        assert type(ours.fun) is type(theirs.fun)


class TestMatchesScipy:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(MODELS),
        eta=st.floats(0.3, 1.0),
        e_lim=st.floats(0.5, 8.0),
        avg_share=st.floats(0.05, 0.95),
        blocks=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(1.01, 5.0),
                # Shares of e_lim; 1.0 drops the block's boundary row.
                st.one_of(st.floats(0.01, 1.0), st.just(1.0)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_bit_equal_on_lp_step_lps(self, model, eta, e_lim, avg_share, blocks):
        e_avg = e_lim * avg_share
        p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
        prob = MultiBlockProblem(p, tuple(g * eta * e_avg for g, _, _ in blocks), model)
        thetas = [theta for _, theta, _ in blocks]
        e_is = [share * e_lim for _, _, share in blocks]
        lps = _captured_lps(prob, thetas, e_is)
        assert len(lps) == 1 + len(blocks)
        assert all(len(args) == 5 for args in lps[1:])
        for args in lps:
            _assert_bit_equal(args)

    def test_tie_chain_lps(self):
        # Equal costs: the plain optimum and the lexicographic one differ, so
        # each pinned LP has a face of optima to choose from.
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.2, 0.2, 0.2), MODELS[0])
        lps = _captured_lps(prob, [2.0] * 3, [1.0] * 3)
        assert len(lps) == 4
        for args in lps:
            _assert_bit_equal(args)


class TestFailures:
    def test_infeasible_lp_fails_in_both(self):
        # x <= -1 and x >= 1.
        args = (np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        ours, theirs = multi_block.linprog(*args), _scipy(*args)
        assert not ours.success and not theirs.success
        assert ours.x is None and ours.fun is None
        assert ours.message == "Infeasible"
        assert "model_status is Infeasible" in theirs.message

    def test_lp_step_raises_with_the_highs_status(self):
        # A decoder energy below zero asks block 1 for more banked energy
        # than it can harvest: its boundary row contradicts T_1 <= eta*e_avg - g_1.
        below_zero = DecoderEnergyModel("below-zero", lambda t: -1.0, lambda t: 0.0)
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.2,), below_zero)
        with pytest.raises(LpInfeasibleError, match=r"^transfer LP failed: Infeasible$"):
            lp_step(prob, [2.0], [0.01])

    @pytest.mark.parametrize("where", ["cost", "a_ub", "b_ub", "a_eq", "b_eq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_rejected_before_highs(self, monkeypatch, where, bad):
        args = {
            "cost": np.array([1.0, 2.0]),
            "a_ub": np.array([[-1.0, 0.0], [-1.0, -1.0]]),
            "b_ub": np.array([0.0, 0.0]),
            "a_eq": np.array([[1.0, 2.0]]),
            "b_eq": np.array([0.0]),
        }
        args[where] = args[where].copy()
        args[where].flat[0] = bad
        with pytest.raises(ValueError):
            _scipy(*args.values())

        def no_highs():
            raise AssertionError("HiGHS was reached")

        monkeypatch.setattr(multi_block, "_highs", no_highs)
        with pytest.raises(LpDataError, match="finite"):
            multi_block.linprog(*args.values())


def test_missing_binding_names_the_scipy_floor(monkeypatch):
    # Without the package attribute, a None entry in sys.modules makes the
    # import fail, as on a scipy that does not ship the binding.
    from scipy.optimize import _highspy

    monkeypatch.delattr(_highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        multi_block._highs.__wrapped__()
