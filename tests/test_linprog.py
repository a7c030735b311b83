"""The transfer LP's chain on HiGHS against scipy's linprog: the same floats, the same failures.

The binding is loaded from its file without importing scipy; the last tests
check that it is the module scipy itself uses, and that it gives the same bits.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def _chain_of(prob, thetas, e_is):
    """The plain LP's (cost, a_ub, b_ub) and every (x, fun) of `lp_step`'s chain."""
    seen = {}
    chain = multi_block._chain

    def capture(*data):
        seen["data"], seen["lps"] = data, list(chain(*data))
        return iter(seen["lps"])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multi_block, "_chain", capture)
        lp_step(prob, thetas, e_is)
    return seen["data"], seen["lps"]


def _scipy_lp(data, lps, k):
    """scipy's solve of chain LP k, pinned by the optima of the LPs before it."""
    cost, a_ub, b_ub = data
    if k == 0:
        return _scipy(cost, a_ub, b_ub)
    units = np.eye(cost.size)
    a_eq = np.vstack((cost, units[: k - 1]))
    b_eq = np.array([float(cost @ lps[0][0])] + [fun for _, fun in lps[1:k]])
    return _scipy(units[k - 1], a_ub, b_ub, a_eq, b_eq)


def _assert_chain_matches_scipy(data, lps):
    """Every chain LP equals scipy's bit for bit; a chain that stops early stops where scipy fails."""
    for k, (x, fun) in enumerate(lps):
        theirs = _scipy_lp(data, lps, k)
        assert theirs.success
        assert x.tobytes() == theirs.x.tobytes()
        assert fun == theirs.fun
        assert type(fun) is type(theirs.fun)
    if len(lps) < 1 + data[0].size:
        assert not _scipy_lp(data, lps, len(lps)).success


# Found by test_bit_equal_on_lp_step_lps against a chain that dropped its
# solver state with clearSolver() in place of passModel(getLp()): the first
# pinned LP's x differed from scipy's in the last bit.
COLD_START = (
    MultiBlockProblem(
        SystemParams(eta=0.5, g=0.0, e_avg=0.5, e_lim=1.0), (0.0, 0.0), power_law_model(0.05, 10.0)
    ),
    [4.0, 2.0],
    [1.0, 1.0],
)

# Equal costs: the plain optimum and the lexicographic one differ, so each
# pinned LP has a face of optima to choose from.
TIE = (
    MultiBlockProblem(SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0), (0.2,) * 3, MODELS[0]),
    [2.0] * 3,
    [1.0] * 3,
)


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
        data, lps = _chain_of(prob, thetas, e_is)
        assert 1 <= len(lps) <= 1 + len(blocks)
        _assert_chain_matches_scipy(data, lps)

    def test_tie_chain_lps(self):
        data, lps = _chain_of(*TIE)
        assert len(lps) == 4
        _assert_chain_matches_scipy(data, lps)

    def test_cold_start_regression(self):
        data, lps = _chain_of(*COLD_START)
        assert len(lps) == 3
        _assert_chain_matches_scipy(data, lps)


class TestFailures:
    def test_infeasible_lp_fails_in_both(self):
        # x <= -1 and x >= 1.
        data = (np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        with pytest.raises(LpInfeasibleError, match=r"^transfer LP failed: Infeasible$"):
            next(multi_block._chain(*data))
        theirs = _scipy(*data)
        assert not theirs.success
        assert "model_status is Infeasible" in theirs.message

    def test_lp_step_raises_with_the_highs_status(self):
        # A decoder energy below zero asks block 1 for more banked energy
        # than it can harvest: its boundary row contradicts T_1 <= eta*e_avg - g_1.
        below_zero = DecoderEnergyModel("below-zero", lambda t: -1.0, lambda t: 0.0)
        p = SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0)
        prob = MultiBlockProblem(p, (0.2,), below_zero)
        with pytest.raises(LpInfeasibleError, match=r"^transfer LP failed: Infeasible$"):
            lp_step(prob, [2.0], [0.01])

    @pytest.mark.parametrize("where", ["cost", "a_ub", "b_ub"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_rejected_before_highs(self, monkeypatch, where, bad):
        data = {
            "cost": np.array([1.0, 2.0]),
            "a_ub": np.array([[-1.0, 0.0], [-1.0, -1.0]]),
            "b_ub": np.array([0.0, 0.0]),
        }
        data[where].flat[0] = bad
        with pytest.raises(ValueError):
            _scipy(*data.values())

        def no_highs(*data):
            raise AssertionError("HiGHS was reached")

        costs = iter(data["cost"])
        monkeypatch.setattr(multi_block, "objective", lambda *args, **kwargs: next(costs))
        monkeypatch.setattr(multi_block, "_lp_constraints", lambda *args: (data["a_ub"], data["b_ub"]))
        monkeypatch.setattr(multi_block, "_chain", no_highs)
        prob = MultiBlockProblem(TIE[0].params, (0.2, 0.2), MODELS[0])
        with pytest.raises(LpDataError, match="finite"):
            lp_step(prob, [2.0] * 2, [1.0] * 2)


def test_missing_binding_names_the_scipy_floor(monkeypatch):
    # Without the package attribute, a None entry in sys.modules makes the
    # import fail, as on a scipy that does not ship the binding.
    from scipy.optimize import _highspy

    monkeypatch.delattr(_highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        multi_block._highs.__wrapped__()


SRC = str(Path(multi_block.__file__).resolve().parents[1])


def _fresh(code, pythonpath=SRC):
    """stdout of ``code`` in a fresh interpreter that imports ehlink from this tree."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_absent_binding_file_names_the_scipy_floor(tmp_path):
    # A scipy package that ships no binding file under optimize/_highspy.
    (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    message = _fresh(
        """
from ehlink import multi_block
try:
    multi_block._highs()
except ImportError as exc:
    print(exc)
""",
        os.pathsep.join((str(tmp_path), SRC)),
    )
    assert message.startswith("ehlink needs scipy>=1.15, whose bundled HiGHS binding")
    assert "no scipy.optimize._highspy._core extension file under" in message


def test_binding_loaded_first_is_the_one_scipy_uses():
    _fresh(
        """
import sys
from ehlink import multi_block
core = multi_block._highs()[0]
assert sys.modules["scipy.optimize._highspy._core"] is core
assert "scipy" not in sys.modules and "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _core, _highs_wrapper
assert _core is core and _highs_wrapper._h is core
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert res.success and res.x.tolist() == [1.0, 0.0], res
"""
    )


# repr of lp_step on fixed LPs, some with tie chains, after the given imports.
_LP_STEPS = """
import sys
{imports}
from ehlink import MultiBlockProblem, SystemParams, lp_step, theta_log_theta_model
from ehlink.decoder_energy import power_law_model

models = (theta_log_theta_model(), power_law_model(1.0, 2.0), power_law_model(0.05, 10.0))
steps = [
    (SystemParams(1.0, 0.0, 1.0, 4.0), (0.2,) * 3, [2.0] * 3, [1.0] * 3),
    (SystemParams(0.5, 0.0, 0.5, 1.0), (0.0, 0.0), [4.0, 2.0], [1.0, 1.0]),
    (SystemParams(1.0, 0.0, 2.5, 4.0), (0.0, 2.0), [3.0, 1.5], [2.0, 0.5]),
    (SystemParams(0.8, 0.0, 1.5, 3.0), (0.1, 0.0, 0.6, 0.2), [1.5, 2.0, 2.5, 3.0], [0.5, 1.0, 3.0, 2.0]),
    (SystemParams(1.0, 0.0, 1.0, 2.0), (0.3,) * 6, [1.7] * 6, [0.9] * 6),
]
for m in models:
    for p, gs, thetas, e_is in steps:
        print(repr(lp_step(MultiBlockProblem(p, gs, m), thetas, e_is)))
print(sorted(name for name in sys.modules if name.startswith("scipy.optimize")))
"""


def test_lp_step_bits_do_not_depend_on_who_loads_the_binding():
    alone = _fresh(_LP_STEPS.format(imports="")).splitlines()
    after_scipy = _fresh(_LP_STEPS.format(imports="import scipy.optimize")).splitlines()
    assert all(name.startswith("scipy.optimize._highspy._core") for name in eval(alone[-1]))
    assert "'scipy.optimize'" in after_scipy[-1]
    assert alone[:-1] == after_scipy[:-1]
    assert len(set(alone[:-1])) > 1
