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
    ranked_candidates,
    single_block,
    theta_log_theta_model,
)
from ehlink.cli import main
from ehlink.multi_block import MultiBlockProblem
from ehlink.single_block import _case_ab_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
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
        assert "power-law:c=1,p=2" in out

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "single.csv"
        code, out, _ = run_cli(capsys, "solve-single", "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert out_file.read_text().startswith("eta,")


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

    def test_g_list_length_mismatch_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-multi", "--g-list", "0.1,0.2", "--blocks", "3"
        )
        assert code == 2
        assert "error" in err


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
        a1 = CandidateSolution(1.5, 1.0, Case.TRADE_OFF, 0.5)
        a2 = CandidateSolution(2.0, 0.5, Case.TRADE_OFF, 0.375)
        b = CandidateSolution(1.4, 3.0, Case.MAX_INFO_POWER, 0.25)
        for ranked, expected in (([a1, a2, b], ("a", 0.25)), ([a1, a2], ("a", math.inf))):
            monkeypatch.setattr(single_block, "ranked_candidates", lambda p, m: ranked)
            assert cli._case_margins(None, None) == expected
        monkeypatch.setattr(single_block, "ranked_candidates", lambda p, m: [])
        case, margin = cli._case_margins(None, None)
        assert case == "invalid" and math.isnan(margin)

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
        # A fresh interpreter: the test process itself has scipy loaded.
        # Single-block commands must not import it; the LP and the oracle
        # still load it on first use.
        code = """
import contextlib, io, sys
import ehlink.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("region-map", "--sweep", "e_lim:1:2:1", "--sweep", "e_avg:0.5:1.5:0.5")
run("sweep-single", "--sweep", "e_avg:0.5:1.0:0.5")
run("solve-single", "--e-avg", "1.0")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
run("verify", "--instances", "2", "--grid", "50x50")
run("solve-multi", "--g-list", "0.1,0.0")
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
