"""Replay the benchmark's stored seed-1 outputs through the CLI.

The benchmark compares its seed-1 runs against `benchmarks/reference/`, with
exact meta lines and CSV numbers to a relative 1e-9. This runs the first
cycle of each workload through `cli.main` under that same check, and every
stored figure-maps invocation (144, about 1 s), so a drift in a printed
digit fails here before a benchmark run sees it. All 616 stored invocations
replay on request (about 45 s on 2 cores):

    python -m pytest -m replay_all tests/test_reference_replay.py

Every stored `solve-multi` invocation whose blocks all sit at or above g_dot
also replays with the transfer LP disabled, under the same check and with
its transfer column byte for byte (about 1 s).

The tests only read `benchmarks/`.
"""

import gzip
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

from ehlink import cli, multi_block
from ehlink.decoder_energy import parse_model

BENCH = Path(__file__).parents[1] / "benchmarks"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class is built.
    sys.modules.setdefault("workloads", module)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _stored(workload):
    with gzip.open(BENCH / "reference" / f"{workload}.json.gz", "rt") as fh:
        stored = json.load(fh)
    assert stored["seed"] == workloads.DEFAULT_SEED
    return stored["invocations"]


def _replay(capsys, invocations, references):
    for inv, ref in zip(invocations, references, strict=True):
        assert list(inv.argv) == ref["argv"]
        rc = cli.main(list(inv.argv))
        out, err = capsys.readouterr()
        assert workloads.failed_points(inv, rc, out, err, ref["stdout"]) == 0, inv.argv


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_cycle_matches_reference(capsys, workload):
    cycle = next(workloads.cycles(workload, workloads.DEFAULT_SEED))
    _replay(capsys, cycle, _stored(workload)[: len(cycle)])


def _replay_every(capsys, workload):
    stored = _stored(workload)
    cycles = workloads.cycles(workload, workloads.DEFAULT_SEED)
    _replay(capsys, itertools.islice(itertools.chain.from_iterable(cycles), len(stored)), stored)


def test_every_figure_maps_invocation_matches_reference(capsys):
    _replay_every(capsys, "figure-maps")


@pytest.mark.replay_all
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_stored_invocation_matches_reference(capsys, workload):
    _replay_every(capsys, workload)


def _needs_no_transfer(argv):
    args = cli.build_parser().parse_args(argv)
    gdot = multi_block.g_dot(cli._params(args), parse_model(args.ed_model))
    return all(g >= gdot for g in cli._resolve_g_list(args))


def _transfers(stdout):
    """The transfer column of a `solve-multi` output, as printed."""
    return [line.split(",")[2] for line in stdout.splitlines() if line[:1].isdigit()]


def test_solve_multi_needing_no_transfer_runs_no_lp(capsys, monkeypatch):
    # Every block at or above g_dot: one pass reaches the bound, and it
    # prints what the transfer LP's second pass printed.  The transfer column
    # must keep its bytes, -0 included, which the numeric check cannot see.
    # One stored output (the 233rd) predates a 12th-digit change of one
    # bits_per_use, so numbers get the benchmark's check, not bytes.
    def no_lp(*args):
        raise AssertionError("transfer LP called")

    stored = _stored("multi-plan")
    cycles = workloads.cycles("multi-plan", workloads.DEFAULT_SEED)
    pairs = zip(itertools.chain.from_iterable(cycles), stored)
    solve_multi = [(inv, ref) for inv, ref in pairs if inv.command == "solve-multi"]
    selected = [(inv, ref) for inv, ref in solve_multi if _needs_no_transfer(list(inv.argv))]
    assert (len(selected), len(solve_multi)) == (142, 256)
    monkeypatch.setattr(multi_block, "lp_step", no_lp)
    for inv, ref in selected:
        rc = cli.main(list(inv.argv))
        out, err = capsys.readouterr()
        assert (rc, err) == (0, ""), inv.argv
        assert workloads.failed_points(inv, rc, out, err, ref["stdout"]) == 0, inv.argv
        assert _transfers(out) == _transfers(ref["stdout"]), inv.argv
