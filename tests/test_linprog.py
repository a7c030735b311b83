"""The direct HiGHS call against scipy's linprog: the same floats, the same failures."""

import sys
import threading

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

    @pytest.mark.parametrize("wide", ["cost", "a_ub", "a_eq"])
    def test_column_counts_must_agree(self, monkeypatch, wide):
        # HiGHS would be told of as many columns as there are costs and
        # solve without the others.
        args = {
            "cost": np.array([1.0, 2.0]),
            "a_ub": np.array([[-1.0, 0.0], [-1.0, -1.0]]),
            "b_ub": np.array([0.0, 0.0]),
            "a_eq": np.array([[1.0, 2.0]]),
            "b_eq": np.array([0.0]),
        }
        args[wide] = np.concatenate((args[wide], np.zeros_like(args[wide][..., :1])), axis=-1)

        def no_highs():
            raise AssertionError("HiGHS was reached")

        monkeypatch.setattr(multi_block, "_highs", no_highs)
        with pytest.raises(LpDataError, match="costs but a_ub of shape"):
            multi_block.linprog(*args.values())


def test_missing_binding_names_the_scipy_floor(monkeypatch):
    # Without the package attribute, a None entry in sys.modules makes the
    # import fail, as on a scipy that does not ship the binding.
    from scipy.optimize import _highspy

    monkeypatch.delattr(_highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        multi_block._highs.__wrapped__()


# ------------------------------------------------------------ the held model


# The builder itself, so that a reference solve is not counted as a build of the held model.
_BUILD_LP = multi_block._build_lp


def _fresh(cost, a_ub, b_ub, a_eq=None, b_eq=None):
    """The reference for the held model: a new HiGHS instance, the model built from numpy."""
    core, held = multi_block._highs()
    cost, a_ub, b_ub = (np.asarray(v, dtype=float) for v in (cost, a_ub, b_ub))
    if a_eq is None:
        a_eq, b_eq = np.empty((0, cost.size)), np.empty(0)
    lp = _BUILD_LP(core, cost, a_ub, b_ub, np.asarray(a_eq, dtype=float), b_eq)
    highs = core._Highs()
    highs.passOptions(held.highs.getOptions())
    highs.passModel(lp)
    highs.run()
    return multi_block._result(core, highs)


def _assert_same(ours, ref):
    assert ours.success == ref.success
    assert ours.message == ref.message
    if ref.success:
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun
        assert type(ours.fun) is type(ref.fun)


@pytest.fixture
def builds(monkeypatch):
    """The models built from numpy, one entry per build, while the test runs."""
    built = []

    def counted(*args):
        built.append(args)
        return _BUILD_LP(*args)

    monkeypatch.setattr(multi_block, "_build_lp", counted)
    return built


def _replay(lps):
    """Solve the LPs in order on the held model, each bit for bit against a fresh solve."""
    for args in lps:
        _assert_same(multi_block.linprog(*args), _fresh(*args))


@st.composite
def _problems(draw):
    """A random lp_step input, drawn as in test_bit_equal_on_lp_step_lps."""
    model = draw(st.sampled_from(MODELS))
    eta, e_lim, avg_share = draw(st.floats(0.3, 1.0)), draw(st.floats(0.5, 8.0)), draw(st.floats(0.05, 0.95))
    blocks = draw(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(1.01, 5.0), st.one_of(st.floats(0.01, 1.0), st.just(1.0))),
            min_size=1,
            max_size=6,
        )
    )
    e_avg = e_lim * avg_share
    p = SystemParams(eta=eta, g=0.0, e_avg=e_avg, e_lim=e_lim)
    prob = MultiBlockProblem(p, tuple(g * eta * e_avg for g, _, _ in blocks), model)
    return prob, [theta for _, theta, _ in blocks], [share * e_lim for _, _, share in blocks]


# Found by test_bit_equal_on_lp_step_lps against a held model that dropped its
# solver state with clearSolver() in place of passModel(getLp()): the first
# pinned LP's x differed from scipy's in the last bit.
COLD_START = (
    MultiBlockProblem(
        SystemParams(eta=0.5, g=0.0, e_avg=0.5, e_lim=1.0), (0.0, 0.0), power_law_model(0.05, 10.0)
    ),
    [4.0, 2.0],
    [1.0, 1.0],
)

# Equal costs: each pinned LP has a face of optima to choose from.
TIE = (
    MultiBlockProblem(SystemParams(eta=1.0, g=0.0, e_avg=1.0, e_lim=4.0), (0.2,) * 3, MODELS[0]),
    [2.0] * 3,
    [1.0] * 3,
)


class TestHeldModel:
    def test_cold_start_regression(self, builds):
        lps = _captured_lps(*COLD_START)
        del builds[:]
        _replay(lps)
        # The pinned LPs extended the held model, so the round trip was on the path.
        assert len(builds) == 1
        for args in lps:
            _assert_bit_equal(args)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        chains=st.lists(_problems(), min_size=1, max_size=3),
        # (which chain, what to do): 0 issues its next LP, 1 repeats its last,
        # 2 restarts it from the plain solve.
        moves=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40),
    )
    def test_interleaved_chains_match_fresh_solves(self, chains, moves):
        lps = [_captured_lps(*problem) for problem in chains]
        cursor = [0] * len(lps)
        for which, move in moves:
            which %= len(lps)
            if move == 2:
                cursor[which] = 0
            elif move == 0:
                cursor[which] = (cursor[which] + 1) % len(lps[which])
            _replay([lps[which][cursor[which]]])

    @pytest.mark.parametrize("in_place", [False, True], ids=["new-array", "same-array"])
    def test_other_b_ub_rebuilds(self, builds, in_place):
        cost, a_ub, b_ub, a_eq, b_eq = _captured_lps(*COLD_START)[1]
        b_ub = b_ub.copy()
        del builds[:]
        _replay([(cost, a_ub, b_ub)])
        # The held copy, not the caller's array, says what HiGHS holds.
        moved = b_ub if in_place else b_ub.copy()
        moved[0] = 0.25
        _replay([(cost, a_ub, moved, a_eq, b_eq)])
        assert len(builds) == 2

    @pytest.mark.parametrize("change", ["fewer-rows", "other-last-row", "other-last-rhs", "other-cost-size"])
    def test_calls_that_do_not_extend_rebuild(self, builds, change):
        lps = _captured_lps(*TIE)
        cost, a_ub, b_ub, a_eq, b_eq = lps[2]
        call = {
            "fewer-rows": (cost, a_ub, b_ub, a_eq[:1], b_eq[:1]),
            "other-last-row": (cost, a_ub, b_ub, np.vstack((a_eq[:1], np.eye(3)[2])), b_eq),
            "other-last-rhs": (cost, a_ub, b_ub, a_eq, b_eq + np.array([0.0, 0.5])),
            "other-cost-size": (cost[:2], a_ub, b_ub, a_eq, b_eq),
        }[change]
        del builds[:]
        _replay([lps[2]])
        if change == "other-cost-size":
            # HiGHS would read only as many columns as there are costs, so the
            # call is refused before it reaches the held model.
            with pytest.raises(LpDataError, match=r"^transfer LP has 2 costs but a_ub of shape"):
                multi_block.linprog(*call)
            _replay(lps[3:])
            assert len(builds) == 1
        else:
            _replay([call])
            assert len(builds) == 2

    def test_data_error_mid_chain_keeps_the_held_model(self, builds):
        lps = _captured_lps(*TIE)
        del builds[:]
        _replay(lps[:2])
        cost, a_ub, b_ub, a_eq, b_eq = lps[2]
        with pytest.raises(LpDataError, match="finite"):
            multi_block.linprog(cost, a_ub, b_ub, a_eq, np.array([b_eq[0], np.nan]))
        _replay(lps[2:])
        assert len(builds) == 1

    def test_rows_highs_rejects_rebuild(self, builds):
        # HiGHS refuses matrix values of 1e15 and more, so the row is not added
        # and the call must fail as a fresh solve does.
        lps = _captured_lps(*TIE)
        cost, a_ub, b_ub, a_eq, b_eq = lps[2]
        huge = (cost, a_ub, b_ub, np.vstack((a_eq[:1], [1e16, 0.0, 0.0])), b_eq)
        assert not _fresh(*huge).success
        del builds[:]
        # The second huge call must not extend the model HiGHS refused.
        _replay([lps[1], huge, huge, lps[2], lps[3]])
        assert len(builds) == 4

    def test_threads_share_the_held_model(self):
        problems = [COLD_START, TIE, (COLD_START[0], [3.0, 1.5], [0.5, 1.0])]
        chains = [_captured_lps(*problem) for problem in problems]
        expected = [[_fresh(*args) for args in lps] for lps in chains]
        mismatches = []

        def run(k):
            for _ in range(15):
                for args, ref in zip(chains[k % 3], expected[k % 3]):
                    res = multi_block.linprog(*args)
                    if res.success != ref.success or (ref.success and res.x.tobytes() != ref.x.tobytes()):
                        mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
