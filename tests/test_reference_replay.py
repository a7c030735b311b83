"""Replay the benchmark's stored seed-1 outputs through the CLI.

The benchmark compares its seed-1 runs against `benchmarks/reference/`, with
exact meta lines and CSV numbers to a relative 1e-9. This runs the first
cycle of each workload through `cli.main` under that same check, and every
stored figure-maps invocation (144, about 1 s), so a drift in a printed
digit fails here before a benchmark run sees it. All of certify and
multi-plan would take about 27 s and 37 s more. The test only reads
`benchmarks/`.
"""

import gzip
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

from ehlink import cli

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


def test_every_figure_maps_invocation_matches_reference(capsys):
    stored = _stored("figure-maps")
    cycles = workloads.cycles("figure-maps", workloads.DEFAULT_SEED)
    _replay(capsys, itertools.islice(itertools.chain.from_iterable(cycles), len(stored)), stored)
