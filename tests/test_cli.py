"""Command-line interface tests: output format, determinism, round trips
against the library, and error handling."""

import argparse
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlink import (
    CandidateSolution,
    Case,
    SystemParams,
    algorithm1,
    cli,
    iterative_solver,
    oracle,
    ranked_candidates,
    single_block,
    theta_log_theta_model,
)
from ehlink.cli import main
from ehlink.decoder_energy import DecoderEnergyModel, parse_model
from ehlink.multi_block import MultiBlockProblem
from ehlink.single_block import _case_ab_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def single_row(out):
    """solve-single's meta lines as a dict, and its one row as a header -> field dict."""
    lines = out.strip().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    header, row = (line for line in lines if not line.startswith("#"))
    return meta, dict(zip(header.split(","), row.split(",")))


# stdout of each command, recorded before the five solve and sweep commands
# shared one CSV writer.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("run", GOLDEN["runs"], ids=lambda run: run["argv"][0])
def test_stdout_matches_golden(capsys, run):
    assert run_cli(capsys, *run["argv"]) == (0, run["stdout"], "")


class TestSolveSingle:
    def test_round_trip_against_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve-single",
            "--eta", "0.5", "--g", "0", "--e-avg", "1.0", "--e-lim", "3.0",
        )
        assert code == 0
        meta, fields = single_row(out)
        assert meta == {"model": "theta-log-theta"}
        p = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)
        cand, full = algorithm1(p, theta_log_theta_model())
        assert fields["case"] == cand.case_label.value
        assert float(fields["theta"]) == pytest.approx(full.theta, rel=1e-11)
        assert float(fields["bits_per_use"]) == pytest.approx(
            full.bits_per_use, rel=1e-11
        )

    def test_deterministic_output(self, capsys):
        argv = ["solve-single", "--e-avg", "0.7", "--e-lim", "2.5"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_model_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-single", "--ed-model", "power-law:c=1,p=2"
        )
        assert code == 0
        meta, fields = single_row(out)
        assert meta == {"model": "power-law:c=1,p=2"}
        assert len(fields) == 11 and fields["case"] in ("a", "b", "c")

    def test_small_scale_power_law_finds_case_a(self, capsys):
        # theta* is about 7e6, where the N-root jitters between alternations
        # by more than the 1e-9 fixed-point tolerance.  Every case (a) start
        # ran out of alternations and was dropped, and case (c) won with
        # 9.18447898477e-08 bits.
        code, out, err = run_cli(
            capsys, "solve-single", "--ed-model", "power-law:c=4.83e-27,p=1.78",
            "--eta", "0.538", "--e-lim", "40.9", "--e-avg", "1e-7",
        )
        assert (code, err) == (0, "")
        _, fields = single_row(out)
        assert (fields["case"], fields["bits_per_use"]) == ("a", "9.18447911855e-08")

    def test_crossover_underflow_near_peak(self, capsys):
        # e_i near 1000 makes the crossover probability underflow to 0, where
        # the capacity derivative reads 0 instead of failing on log2(0).
        code, out, err = run_cli(
            capsys, "solve-single", "--eta", "0.5", "--e-avg", "990", "--e-lim", "1000"
        )
        assert (code, err) == (0, "")
        _, fields = single_row(out)
        assert fields["case"] == "c"
        p = SystemParams(eta=0.5, g=0.0, e_avg=990.0, e_lim=1000.0)
        model = theta_log_theta_model()
        bits = float(fields["bits_per_use"])
        assert bits >= single_block.constant_power_baseline(p, model).bits_per_use
        assert bits >= oracle.grid_search_p2(p, model, oracle.GridSpec(1000, 1000))[2]

    # e_avg a hair below e_lim: case (c)'s theta' is 1e11 and beyond.  These
    # exited 2 with brentq's "Failed to converge" or with a message that
    # blamed the model's growth.
    HAIR = {
        "ulps-below-0.1": ["--eta", "0.01", "--e-avg", "0.09999999999999998", "--e-lim", "0.1"],
        "ulp-below-1": ["--eta", "1", "--e-avg", "0.9999999999999998", "--e-lim", "1"],
        "1e-6-below-1000": [
            "--eta", "1", "--e-avg", "999.999999", "--e-lim", "1000",
            "--ed-model", "power-law:c=0.05,p=1",
        ],
        # An absolute feasibility tolerance dropped case (c) here too, and
        # case (b) gave 0.6040074959 against the baseline's 0.6040088570.
        "6.6e-4-below-281": [
            "--eta", "0.8419866932852264", "--e-avg", "280.97857063100264",
            "--e-lim", "280.9792283089348", "--ed-model", "power-law:c=0.05,p=10",
        ],
    }

    def _hair(self, capsys, name):
        """The command's printed row, and the library's solve of the same link."""
        argv = self.HAIR[name]
        code, out, err = run_cli(capsys, "solve-single", *argv)
        assert (code, err) == (0, "")
        _, fields = single_row(out)
        flags = dict(zip(argv[::2], argv[1::2]))
        p = SystemParams(
            eta=float(flags["--eta"]), g=0.0, e_avg=float(flags["--e-avg"]), e_lim=float(flags["--e-lim"])
        )
        model = cli.parse_model(flags.get("--ed-model", "theta-log-theta"))
        cand, full = algorithm1(p, model)
        assert fields["case"] == cand.case_label.value
        assert float(fields["bits_per_use"]) == pytest.approx(full.bits_per_use, rel=1e-11)
        return cand, full.bits_per_use, p, model

    # The winning case of each: at 1000 the boundary point of case (c) wins
    # once feasible() scales its tolerance with the constraint's sides.
    HAIR_CASE = {
        "ulps-below-0.1": Case.MAX_INFO_POWER,
        "ulp-below-1": Case.MAX_INFO_POWER,
        "1e-6-below-1000": Case.MAX_HARVEST_POWER,
        "6.6e-4-below-281": Case.MAX_HARVEST_POWER,
    }

    @pytest.mark.parametrize("name", HAIR)
    def test_e_avg_a_hair_below_e_lim_solves(self, capsys, name):
        cand, bits, p, model = self._hair(capsys, name)
        assert cand.case_label is self.HAIR_CASE[name]
        assert bits >= oracle.grid_search_p2(p, model, oracle.GridSpec(1000, 1000))[2]

    @pytest.mark.parametrize("name", HAIR)
    def test_e_avg_a_hair_below_e_lim_is_not_below_the_baseline(self, capsys, name):
        _, bits, p, model = self._hair(capsys, name)
        assert bits >= single_block.constant_power_baseline(p, model).bits_per_use

    def test_alpha_stays_in_the_unit_interval_when_the_share_rounds_past_one(self, capsys):
        # e_avg ulps below e_lim: the case (c) winner's receiving share
        # budget/(eta*e_i + E) rounds to 1 + ulp, and 1 - share to -2.2e-16.
        argv = ("--eta", "0.1", "--g", "0", "--e-lim", "0.1", "--e-avg", "0.099999999999999",
                "--ed-model", "power-law:c=1.6e-162,p=1")
        code, out, err = run_cli(capsys, "solve-single", *argv)
        assert (code, err) == (0, "")
        _, fields = single_row(out)
        assert (fields["case"], fields["alpha"]) == ("c", "0")
        p = SystemParams(eta=0.1, g=0.0, e_avg=0.099999999999999, e_lim=0.1)
        model = parse_model(argv[-1])
        _, full = algorithm1(p, model)
        share = p.budget / (p.eta * full.e_i + model.evaluate(full.theta))
        assert share > 1.0 and full.alpha == 0.0
        assert full.bits_per_use == share * full.rate

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "single.csv"
        code, out, _ = run_cli(capsys, "solve-single", "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert out_file.read_text().startswith("# model=theta-log-theta\neta,")

    def test_unwritable_out_is_an_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "single.csv"
        code, out, err = run_cli(capsys, "solve-single", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert str(out_file) in err


class TestSolveMulti:
    def test_round_trip_against_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve-multi",
            "--eta", "1.0", "--g", "0.1", "--e-avg", "2.0", "--e-lim", "4.0",
            "--blocks", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        meta = dict(
            line[2:].split("=", 1) for line in lines if line.startswith("# ")
        )
        p = SystemParams(eta=1.0, g=0.1, e_avg=2.0, e_lim=4.0)
        sol = iterative_solver(
            MultiBlockProblem(p, (0.1,) * 4, theta_log_theta_model())
        )
        assert float(meta["total_bits_per_use"]) == pytest.approx(
            sol.total_bits_per_use, rel=1e-10
        )
        assert meta["achieved"] == str(sol.bound_achieved)
        data_rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data_rows) == 4

    def test_g_list_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve-multi",
            "--eta", "1.0", "--e-avg", "1.0", "--e-lim", "4.0",
            "--g-list", "0.2,0.0,0.3",
        )
        assert code == 0
        rows = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1:]
        assert [r.split(",")[1] for r in rows] == ["0.2", "0", "0.3"]

    def test_no_transfer_needed_where_the_lp_was_infeasible(self, capsys):
        # Every g_i sits at or above g_dot (about 0.0099982247), with budgets
        # near 1e-7: HiGHS called the transfer LP on the first pass's pairs
        # infeasible, and the command exited 2.  No block needs a transfer,
        # so no LP runs and the first pass reaches the bound.
        code, out, err = run_cli(
            capsys, "solve-multi", "--eta", "0.001", "--e-avg", "9.998311053912493",
            "--e-lim", "10", "--ed-model", "power-law:c=1,p=5", "--g-list",
            "0.009998224707236913,0.009998267880574703,0.009998267880574703,0.009998267880574703",
        )
        assert (code, err) == (0, "")
        assert "# achieved=True" in out
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert [r.split(",")[2] for r in rows] == ["-0"] * 4

    def test_g_list_length_mismatch_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-multi", "--g-list", "0.1,0.2", "--blocks", "3"
        )
        assert code == 2
        assert "error" in err


P_MAP = SystemParams(eta=0.5, g=0.0, e_avg=1.0, e_lim=3.0)


class TestSweeps:
    def test_sweep_single_grid_and_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-single",
            "--eta", "0.5", "--e-lim", "3.0",
            "--sweep", "e_avg:0.5:1.0:0.25",
        )
        assert code == 0
        rows = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == ["0.5", "0.75", "1"]
        for row in rows:
            e_avg, opt, base, ratio = (float(x) for x in row.split(","))
            assert ratio == pytest.approx(opt / base, rel=1e-10)
            assert opt >= base

    def test_sweep_multi_reports_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-multi",
            "--eta", "1.0", "--g", "0.1", "--e-lim", "4.0", "--blocks", "4",
            "--sweep", "e_avg:1.9:2.1:0.1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        meta = dict(
            line[2:].split("=", 1) for line in lines if line.startswith("# ")
        )
        assert float(meta["u"]) == pytest.approx(2.0525113922934515, abs=1e-9)
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        flags = [r.split(",")[3] for r in rows]
        assert flags == ["True", "True", "False"]

    def test_region_map_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "region-map",
            "--eta", "0.5", "--g", "0",
            "--sweep", "e_lim:1.0:3.0:1.0",
            "--sweep", "e_avg:0.5:2.5:1.0",
        )
        assert code == 0
        rows = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 9
        cases = {r.split(",")[2] for r in rows}
        assert "invalid" in cases  # e_avg >= e_lim cells
        assert cases & {"a", "b", "c"}

    def test_region_map_reads_ranked_candidates(self, capsys):
        # Every valid cell has a positive budget, so algorithm1 and the map
        # both take the top-ranked candidate.
        code, out, _ = run_cli(
            capsys,
            "region-map",
            "--eta", "0.5", "--g", "0.1",
            "--sweep", "e_lim:1.0:4.0:1.0",
            "--sweep", "e_avg:0.5:3.5:0.5",
        )
        assert code == 0
        model = theta_log_theta_model()
        rows = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1:]
        checked = set()
        for row in rows:
            e_lim, e_avg, case, margin = row.split(",")
            if case == "invalid":
                continue
            p = SystemParams(eta=0.5, g=0.1, e_avg=float(e_avg), e_lim=float(e_lim))
            assert p.budget > 0.0
            ranked = ranked_candidates(p, model)
            assert case == algorithm1(p, model)[0].case_label.value
            others = [c.objective for c in ranked if c.case_label is not ranked[0].case_label]
            expected = ranked[0].objective - max(others) if others else math.inf
            assert margin == format(expected, ".12g")
            checked.add(case)
        assert checked == {"a", "b", "c"}

    def test_margin_is_over_the_best_other_case(self, monkeypatch):
        # A second case (a) pair ranks above case (b); the margin skips it.
        a1 = CandidateSolution(1.5, 1.0, Case.TRADE_OFF, 0.5, 0.877)
        a2 = CandidateSolution(2.0, 0.5, Case.TRADE_OFF, 0.375, 2.0)
        b = CandidateSolution(1.4, 3.0, Case.MAX_INFO_POWER, 0.25, 0.68)
        for ranked, expected in (([a1, a2, b], ("a", 0.25)), ([a1, a2], ("a", math.inf))):
            monkeypatch.setattr(single_block, "ranked_candidates", lambda p, m, seed: ranked)
            assert cli._case_margins(P_MAP, None, None) == expected
        # With no feasible candidate the map cell raises, as solve-single does;
        # it does not print the "invalid" of a cell the flags rule out.
        monkeypatch.undo()
        monkeypatch.setattr(single_block, "feasible", lambda *args, **kwargs: False)
        for solve in (cli._case_margins, algorithm1):
            with pytest.raises(single_block.SolverError, match="no feasible candidate"):
                solve(P_MAP, theta_log_theta_model(), seed=None)

    def test_zero_budget_is_case_a_in_every_command(self, capsys):
        # e_avg = 0 or eta*e_avg = g leaves nothing to spend: both commands
        # print algorithm1's zero solution label, and the map a zero margin.
        _, out, _ = run_cli(
            capsys, "region-map", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0:0.5:0.5"
        )
        rows = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1:]
        assert [r for r in rows if r.split(",")[1] == "0"] == ["1,0,a,0", "2,0,a,0"]
        _, out, _ = run_cli(
            capsys, "region-map", "--g", "0.25",
            "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:0.5:1",
        )
        assert out.strip().splitlines()[-2:] == ["1,0.5,a,0", "2,0.5,a,0"]
        for argv in (["--e-avg", "0", "--e-lim", "1"], ["--g", "0.25", "--e-avg", "0.5"]):
            _, out, _ = run_cli(capsys, "solve-single", *argv)
            _, fields = single_row(out)
            assert (fields["case"], fields["bits_per_use"]) == ("a", "0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--eta", "1", "--g", "0", "--e-lim", "0.5305339969787326",
             "--ed-model", "power-law:c=1,p=2", "--sweep", "e_avg:1e-300:1e-300:1"],
            ["--eta", "0.0008316367818461896", "--g", "3.600599769057509e-177", "--e-lim", "1.0",
             "--sweep", "e_avg:4.32954791006401e-174:4.32954791006401e-174:1"],
        ],
        ids=["e_avg-1e-300", "e_avg-4e-174"],
    )
    def test_tiny_e_avg_has_a_baseline(self, capsys, argv):
        # E(theta) + g is near 0: the baseline's e_e = e_avg needs no recovery check.
        code, out, err = run_cli(capsys, "sweep-single", *argv)
        assert (code, err) == (0, "")
        row = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1]
        _, opt, base, _ = row.split(",")
        assert float(opt) >= float(base) >= 0.0

    def test_receiving_share_too_small_to_move_alpha_keeps_its_bits(self, capsys):
        # budget/(eta*e_i + E) is 2.8e-17 at the optimum, so alpha rounds to
        # exactly 1; the bits come from that share, not from 1 - alpha = 0.
        argv = ("--eta", "0.5", "--g", "0", "--e-lim", "3", "--sweep", "e_avg:1e-16:1e-16:1")
        code, out, err = run_cli(capsys, "sweep-single", *argv)
        assert (code, err) == (0, "")
        row = [ln for ln in out.strip().splitlines() if not ln.startswith("#")][1]
        _, opt, base, _ = row.split(",")
        assert opt == "7.70022852014e-18"
        assert float(opt) >= float(base)

    def test_bad_sweep_spec_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep-single", "--sweep", "e_avg:0:1"
        )
        assert code == 2
        assert "error" in err
        for argv, message in (
            (["verify", "--grid", "5"], "--grid must be AxB with integer counts, got '5'"),
            (["verify", "--grid", "1x1"], "--grid counts must be >= 2, got '1x1'"),
            (["sweep-single", "--sweep", "e_avg:a:1:0.1"],
             "e_avg sweep start must be a number, got 'a'"),
            (["sweep-single", "--sweep", "e_avg:1:0:0.1"],
             "e_avg sweep range is empty: stop 0.0 < start 1.0"),
            (["solve-multi", "--g-list", "0.1,x"], "--g-list entry must be a number, got 'x'"),
            (["solve-multi", "--g-list", ""], "--g-list entry must be a number, got ''"),
            (["solve-single", "--ed-model", "power-law:c=1,c=5"], "power-law c is given twice"),
            (["solve-single", "--ed-model", "power-lawfoo"],
             "unknown decoder energy model 'power-lawfoo'"),
            (["solve-single", "--ed-model", "power-law-x:c=2"],
             "unknown decoder energy model 'power-law-x:c=2'"),
            (["solve-single", "--ed-model", "power-law:c=1,p=x"],
             "power-law p must be a number, got 'x'"),
            (["sweep-single", "--sweep", "e_avg:0:1e308:1e-308"],
             "e_avg sweep has more than 1000000 points: (stop - start) / step = inf"),
            (["sweep-single", "--sweep", "e_avg:0:1:1e-9"],
             "e_avg sweep has more than 1000000 points: (stop - start) / step = 1e+09"),
            (["sweep-single", "--sweep", "e_avg:0.5:1.0:0.5", "--sweep", "e_avg:1.5:2.0:0.5"],
             "e_avg is swept twice; give each --sweep variable once"),
            (["region-map", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:1:0.5",
              "--sweep", "e_lim:3:4:1"],
             "e_lim is swept twice; give each --sweep variable once"),
            (["sweep-single", "--sweep", "e_lim:1:2:1"],
             "sweep-single needs --sweep e_avg:start:stop:step, got e_lim"),
            (["sweep-multi", "--sweep", "e_avg:1:2:1", "--sweep", "g:0:1:1"],
             "sweep-multi needs --sweep e_avg:start:stop:step, got e_avg, g"),
            (["region-map", "--sweep", "e_avg:0.5:1:0.5"],
             "region-map needs --sweep e_lim:start:stop:step --sweep e_avg:start:stop:step,"
             " got e_avg"),
            (["region-map", "--sweep", "e_lim:1:1001:1", "--sweep", "e_avg:0:999:1"],
             "region-map has more than 1000000 cells: "
             "e_lim sweep 1001 points x e_avg sweep 1000 points"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        start=st.floats(-1e6, 1e6),
        step=st.floats(1e-6, 1e6),
        count=st.integers(1, 2000),
    )
    def test_sweep_points_match_numpy_bit_for_bit(self, start, step, count):
        # A stop half a step past the last point keeps the count exact.
        stop = start + step * (count - 0.5)
        values = cli._parse_sweeps([f"e_avg:{start!r}:{stop!r}:{step!r}"])["e_avg"]
        expected = start + step * np.arange(count)
        assert all(type(v) is float for v in values)
        assert [v.hex() for v in values] == [float(x).hex() for x in expected]


class TestDeterminism:
    def test_cold_and_warm_memo_print_same_csv(self, capsys):
        # parse_model returns one model object per spec, so the second run
        # hits the case (a)/(b) memo for every key instead of solving again.
        for argv in (
            ["sweep-single", "--eta", "0.5", "--e-lim", "3.0",
             "--sweep", "e_avg:0.2:2.0:0.2"],
            ["region-map", "--eta", "0.5", "--g", "0",
             "--sweep", "e_lim:1.0:3.0:1.0", "--sweep", "e_avg:0.5:2.5:0.5"],
        ):
            _case_ab_pairs.cache_clear()
            _, cold, _ = run_cli(capsys, *argv)
            misses = _case_ab_pairs.cache_info().misses
            _, warm, _ = run_cli(capsys, *argv)
            assert _case_ab_pairs.cache_info().misses == misses
            assert cold == warm


class TestImports:
    def test_single_block_commands_load_no_scipy(self):
        # A fresh interpreter: the test process itself has scipy and numpy
        # loaded.  Single-block commands must import neither.  The LP and
        # the oracle load numpy on first use, and of scipy only the HiGHS
        # binding's extension module, which registers its own submodules.
        code = """
import contextlib, io, sys
import ehlink.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("region-map", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:1.5:0.5")
run("sweep-single", "--sweep", "e_avg:0.5:1.0:0.5")
run("solve-single", "--e-avg", "1.0")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))
assert not loaded, loaded
run("verify", "--instances", "2", "--grid", "50x50")
run("solve-multi", "--g-list", "0.1,0.0")
run("sweep-multi", "--blocks", "2", "--sweep", "e_avg:0.5:1.0:0.5")
core = "scipy.optimize._highspy._core"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert core in loaded, loaded
assert all(m == core or m.startswith(core + ".") for m in loaded), loaded
assert "scipy.optimize" not in sys.modules and "scipy.special" not in sys.modules
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_solve_multi_without_a_transfer_loads_no_numpy(self):
        # The README's example: g_dot is about -0.005, so every block is at
        # or above it and no transfer LP runs.
        code = """
import contextlib, io, sys
import ehlink.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve-multi", "--eta", "1.0", "--e-avg", "2.0", "--e-lim", "4.0",
                     "--g-list", "0.2,0.0,0.3,0.1"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("scipy"))
assert not loaded, loaded
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_scipy(self):
        # The LP imports scipy's HiGHS binding on its first call, so importing
        # the CLI or the multi-block planner loads neither scipy nor numpy.
        code = """
import sys
import ehlink.cli, ehlink.multi_block
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))
assert not loaded, loaded
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestVerify:
    def test_passes_at_default_tolerances(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "42", "--instances", "8", "--grid", "400x400"
        )
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_fails_when_a_solver_is_broken(self, capsys, monkeypatch):
        solve = single_block.algorithm1

        def worse(p, m):
            cand, full = solve(p, m)
            return dataclasses.replace(cand, objective=0.9 * cand.objective), full

        monkeypatch.setattr(cli.single_block, "algorithm1", worse)
        code, out, err = run_cli(
            capsys, "verify", "--seed", "42", "--instances", "8", "--grid", "400x400"
        )
        assert code == 1
        assert "algorithm1-vs-grid" in out and "FAIL" in out
        assert "FAIL p2 mismatch err=" in err


class TestErrorHandling:
    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-single", "--e-avg", "5.0", "--e-lim", "3.0"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("c", ["1e-300", "1e-34"])
    def test_tiny_scale_power_law_solves_on_the_harvest_boundary(self, capsys, c):
        # At c = 1e-300 the M-root at e_i = e_lim lies near theta = 1e100: a
        # valid model (c > 0, p >= 1) solves at any scale.  A case (c) winner
        # prints e_e = e_lim exactly (at c = 1e-34 recover_full's denominator
        # cancelled, and e_e read 3.00042662907).
        code, out, err = run_cli(capsys, "solve-single", "--ed-model", f"power-law:c={c},p=2")
        assert (code, err) == (0, "")
        _, fields = single_row(out)
        assert (fields["case"], fields["e_lim"], fields["e_e"]) == ("c", "3", "3")

    @pytest.mark.parametrize("spec", ["power-law:c=1e308,p=2", "power-law:c=1e307,p=20"])
    def test_power_law_whose_c_times_p_overflows_solves(self, capsys, spec):
        # E'(1) = (c*p)*0^(p-1) is inf*0 = NaN, but no solver reads E'(1): M(1),
        # h(1) and target - E(1) come from E(1) = 0.  So these solve as
        # power-law:c=1e307,p=2 does, at case b, theta = 1 and 0 bits.
        def without_model(text):
            return [line for line in text.splitlines() if "model=" not in line]

        for argv in (
            ["solve-single"],
            ["sweep-single", "--sweep", "e_avg:0.5:1:0.25"],
            ["solve-multi", "--g-list", "0.1,0.2"],
        ):
            code, out, err = run_cli(capsys, *argv, "--ed-model", spec)
            assert (code, err) == (0, ""), argv
            ref = run_cli(capsys, *argv, "--ed-model", "power-law:c=1e307,p=2")[1]
            assert without_model(out) == without_model(ref), argv
        _, fields = single_row(run_cli(capsys, "solve-single", "--ed-model", spec)[1])
        assert (fields["case"], fields["theta"], fields["bits_per_use"]) == ("b", "1", "0")

    def test_no_m_root_in_the_float_range_names_the_model(self, capsys, monkeypatch):
        # E' = 0 keeps M = eta*e_i + E(theta) > 0 at every float theta, so
        # the bracket doubles out of the floats and the error says so.
        stub = DecoderEnergyModel("stub", lambda t: t - 1.0, lambda t: (t - 1.0, 0.0))
        monkeypatch.setattr(cli, "parse_model", lambda spec: stub)
        code, out, err = run_cli(capsys, "solve-single")
        assert (code, out) == (2, "")
        assert err == "error: no M-root within the float range at e_i = 3 with model stub\n"

    def test_negative_g_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve-single", "--g", "-0.1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["solve-single", "--g", "nan"], "g"),
            (["solve-single", "--e-lim", "inf"], "e_lim"),
            (["solve-multi", "--g-list", "0.1,nan"], "per-block g"),
            (["sweep-single", "--sweep", "e_avg:0.1:inf:0.1"], "e_avg sweep stop"),
            (["sweep-single", "--sweep", "e_avg:nan:1:0.1"], "e_avg sweep start"),
            (["region-map", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0:1:-inf"],
             "e_avg sweep step"),
            (["solve-single", "--ed-model", "power-law:c=inf,p=2"], "power-law c"),
            (["solve-single", "--ed-model", "power-law:c=1,p=inf"], "power-law p"),
        ],
    )
    def test_non_finite_input_names_parameter(self, capsys, argv, name):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {name} must be finite")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-multi", "--blocks", "0"],
            ["solve-multi", "--blocks", "-1", "--g-list", "0.1"],
            ["sweep-multi", "--blocks", "0", "--sweep", "e_avg:0.5:1.0:0.5"],
            ["verify", "--instances", "-3", "--grid", "20x20"],
            ["verify", "--instances", "0"],
            ["verify", "--seed", "-1"],
        ],
    )
    def test_blocks_below_one_rejected(self, capsys, argv):
        # The counts --blocks and --instances start at 1, --seed at 0.
        flag, value = argv[1], argv[2]
        minimum = 0 if flag == "--seed" else 1
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be >= {minimum}, got {value}\n"

    def test_e_lim_past_the_lp_matrix_limit_is_named(self, capsys):
        # Both blocks sit below g_dot, so the transfer LP runs.  Its boundary
        # row's coefficient -(e_lim - e_i) reaches HiGHS's large_matrix_value
        # (1e15), so HiGHS would refuse the LP unsolved.
        code, out, err = run_cli(
            capsys, "solve-multi", "--eta", "1", "--e-avg", "5", "--e-lim", "1e16",
            "--g-list", "0.1,0.5",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: e_lim = 1e+16 is too large for the transfer LP: block 1's coefficient "
            "e_lim - e_i = 1e+16 reaches HiGHS's matrix value limit 1e+15\n"
        )

    def test_e_lim_below_the_lp_matrix_limit_solves(self, capsys):
        code, out, err = run_cli(
            capsys, "solve-multi", "--eta", "1", "--e-avg", "5", "--e-lim", "1e14",
            "--g-list", "0.1,0.5",
        )
        assert (code, err) == (0, "")
        assert "# achieved=False" in out

    def test_e_lim_past_the_lp_matrix_limit_solves_without_a_transfer(self, capsys):
        # g_dot is about -1.66 here, so no block needs a transfer and no LP
        # runs: the matrix limit does not apply.
        code, out, err = run_cli(
            capsys, "solve-multi", "--eta", "1", "--e-avg", "1", "--e-lim", "1e16",
            "--g-list", "0.1,0.5",
        )
        assert (code, err) == (0, "")
        assert "# achieved=True" in out

    def test_unknown_model_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve-single", "--ed-model", "nope")
        assert code == 2

    def test_unknown_flag_nonzero_exit(self, capsys):
        code, _, _ = run_cli(capsys, "solve-single", "--bogus", "1")
        assert code != 0


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# A fast, valid invocation of each command, and per option a value that
# differs from both the default and the base invocation.
BASE_ARGV = {
    "solve-single": [],
    "solve-multi": ["--blocks", "2"],
    "sweep-single": ["--sweep", "e_avg:0.5:1.0:0.5"],
    "region-map": ["--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:1.5:0.5"],
    "sweep-multi": ["--blocks", "2", "--sweep", "e_avg:0.5:1.0:0.5"],
    "verify": ["--instances", "2", "--grid", "20x20"],
}
CHANGED = {
    "--eta": "0.7",
    "--g": "0.05",
    "--e-avg": "0.8",
    "--e-lim": "2.5",
    "--ed-model": "power-law:c=1,p=2",
    "--out": None,  # a file path: stdout goes empty
    "--blocks": "3",
    "--g-list": "0.1,0.0",
    "--sweep": "e_avg:0.25:1.0:0.25",
    "--seed": "7",
    "--instances": "3",
    "--grid": "30x30",
}
OPTIONS = [
    (command, action.option_strings[-1])
    for command, sp in _subparsers().items()
    for action in sp._actions
    if action.option_strings and action.dest != "help"
]


class TestFlags:
    @pytest.mark.parametrize("command, option", OPTIONS)
    def test_every_option_changes_output(self, capsys, tmp_path, command, option):
        base = [command, *BASE_ARGV[command]]
        value = CHANGED[option] or str(tmp_path / "out.csv")
        base_code, base_out, _ = run_cli(capsys, *base)
        code, out, _ = run_cli(capsys, *base, option, value)
        assert base_code in (0, 1)
        assert code == 2 or out != base_out

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-single", "--n", "7"],
            ["solve-multi", "--n", "7"],
            ["solve-multi", "--g", "100", "--g-list", "0.1,0.1"],
            ["sweep-single", "--e-avg", "1", "--sweep", "e_avg:0.5:1:0.5"],
            ["sweep-multi", "--e-avg", "1", "--sweep", "e_avg:0.5:1:0.5"],
            ["region-map", "--e-avg", "1", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:1:0.5"],
            ["region-map", "--e-lim", "2", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:1:0.5"],
            ["verify", "--ed-model", "power-law:c=9,p=3"],
            ["verify", "--out", "f.txt"],
            ["verify", "--eta", "0.7"],
            ["verify", "--tol-scale", "1e-12"],
        ],
    )
    def test_removed_flags_are_argparse_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ehlink")

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        examples = [
            shlex.split(line) for line in block.splitlines() if line.startswith("ehlink ")
        ]
        assert len(examples) >= len(_subparsers())
        parser = cli.build_parser()
        assert parser is cli.build_parser()  # one parser per process
        for argv in examples:
            parser.parse_args(argv[1:])
