"""Quick smoke test of the benchmark harness.

    python3 benchmarks/selftest.py

Checks, in about half a minute: the workloads are deterministic and keep
their keys unique; every sweep spec gives the intended number of points; the
output checks catch each kind of failure; the tracer wraps every binding and
restores them; one short untraced and one short traced run print exactly the
metrics named in BENCHMARK.json; and the benchmark refuses to run without the
program's sources. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import Invocation, failed_points  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def _first(workload: str, seed: int, n: int) -> list[Invocation]:
    return [inv for cycle in itertools.islice(workloads.cycles(workload, seed), n) for inv in cycle]


def test_workloads() -> None:
    from ehlink import cli

    for name in workloads.WORKLOADS:
        a, b = _first(name, 7, 3), _first(name, 7, 3)
        check(a == b, f"{name}: same seed gives the same invocations")
        check(a != _first(name, 8, 3), f"{name}: another seed gives other invocations")
    for inv in _first("figure-maps", 7, 4) + _first("multi-plan", 7, 2):
        args = cli.build_parser().parse_args(list(inv.argv))
        if inv.command == "solve-multi":
            check(len(args.g_list.split(",")) == inv.blocks, f"{inv.command}: N = {inv.blocks}")
            continue
        sweeps = cli._parse_sweeps(args.sweep)
        count = 1
        for values in sweeps.values():
            count *= len(values)
        check(count == inv.points, f"{inv.command}: sweep gives {inv.points} points")
    keys = workloads._Keys(workloads.random.Random(0))
    for _ in range(4):
        workloads._figure_maps(keys)
        workloads._multi_plan(keys)
    per_cycle = 2 * workloads.MAP_ROWS + 2 + 2 * 6
    check(len(keys.used) == 4 * per_cycle, "no (eta, e_lim, model) key repeats in a run")


def test_checks() -> None:
    sweep = Invocation(("sweep-single",), 2)
    good = "# eta=0.5\ne_avg,optimized_bits,baseline_bits,ratio\n1,0.5,0.4,1.25\n2,0.6,0.6,1\n"
    worse = good.replace("2,0.6,0.6,1", "2,0.59,0.6,0.98")
    check(failed_points(sweep, 0, good, "", None) == 0, "a correct sweep passes")
    check(failed_points(sweep, 0, worse, "", None) == 1, "optimized < baseline fails its row")
    check(failed_points(sweep, 2, good, "", None) == 2, "a non-zero exit fails every point")
    check(failed_points(sweep, None, "", "", None) == 2, "a raise fails every point")
    check(failed_points(sweep, 0, good, "", good) == 0, "the reference output matches itself")
    shifted = good.replace("0.5,0.4", "0.5000001,0.4")
    check(failed_points(sweep, 0, shifted, "", good) == 1, "a number off the reference fails")
    check(failed_points(sweep, 0, good, "", "") == 2, "a stale reference fails every point")
    multi = Invocation(("solve-multi",), 1, 1)
    ok = "# total_bits_per_use=1.0\n# upper_bound=1.0\n# achieved=True\nblock\n1,0\n"
    over = ok.replace("total_bits_per_use=1.0", "total_bits_per_use=1.00000002")
    check(failed_points(multi, 0, ok, "", None) == 0, "a total at the bound passes")
    check(failed_points(multi, 0, over, "", None) == 1, "a total above the bound fails")
    region = Invocation(("region-map",), 2)
    cells = "# eta=0.5\ne_lim,e_avg,case,margin\n3,1,a,0.1\n3,2,invalid,nan\n"
    check(failed_points(region, 0, cells, "", None) == 1, "an invalid map cell fails")
    verify = Invocation(("verify",), workloads.VERIFY_POINTS)
    table = (
        "check instances max_err tolerance result\n"
        "algorithm1-vs-grid 20 1e-05 1e-03 FAIL\n"
        "p8-vs-grid 10 1e-06 1e-03 PASS\n"
        "lp-vs-vertices 20 1e-16 1e-10 PASS\n"
        "multi-n1-vs-single 10 0 1e-06 PASS\n"
    )
    check(failed_points(verify, 1, table, "FAIL p2 mismatch\nFAIL p2 mismatch\n", None) == 2,
          "verify FAIL lines fail their instances")


def test_ref_times() -> None:
    import run

    ref = run.CALIB_REF_S
    res = {"walls": [1.0, 2.0], "calibs": [ref, ref, 3 * ref]}
    times = run._ref_times(res)
    check(times[0] == 1.0, "at the reference speed a reference second is a wall second")
    check(abs(times[1] - 1.0) < 1e-12, "at half the speed, it is two wall seconds")


def test_tracer() -> None:
    import ehlink
    from ehlink import channel, cli, multi_block, oracle, single_block

    originals = {
        (mod.__name__, attr): value
        for mod in (ehlink, channel, single_block, multi_block, oracle, cli)
        for attr, value in vars(mod).items()
        if callable(value)
    }
    tracer = Tracer()
    tracer.install()
    try:
        check(not tracer.missing, "every listed function exists")
        for mod, name in (("ehlink.single_block", "capacity"), ("ehlink.multi_block", "capacity"),
                          ("ehlink.oracle", "capacity"), ("ehlink.multi_block", "algorithm1"),
                          ("ehlink.multi_block", "case_ab_pairs"), ("ehlink.multi_block", "linprog"),
                          ("ehlink.cli", "parse_model")):
            check(f"{mod}.{name}" in tracer.bindings, f"{mod}.{name} is wrapped")
        wrapped = {id(originals[key]) for key in originals if f"{key[0]}.{key[1]}" in tracer.bindings}
        left = [f"{m.__name__}.{a}" for m in (ehlink, channel, single_block, multi_block, oracle, cli)
                for a, v in vars(m).items() if id(v) in wrapped]
        check(not left, "no namespace keeps an unwrapped binding")
        argvs = (
            ["sweep-single", "--eta", "0.5", "--e-lim", "3.0", "--sweep", "e_avg:0.5:1.0:0.5"],
            ["sweep-single", "--eta", "0.5", "--e-lim", "3.0", "--ed-model", "power-law:c=1,p=2",
             "--sweep", "e_avg:0.5:0.5:0.5"],
            ["solve-multi", "--eta", "1.0", "--e-avg", "2.0", "--e-lim", "4.0",
             "--g-list", "0.2,0.0,0.3,0.1"],
            ["verify", "--instances", "2", "--grid", "50x50"],
        )
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                check(cli.main(argv) == 0, f"traced {argv[0]} succeeds")
        m = tracer.metrics(0, 1)
        check(m["single_block.case_ab_pairs.repeat_share"][0] > 0, "repeat_share counts a repeat")
        check(m["decoder_energy.evaluate.calls"][0] > 0, "model evaluate calls are counted")
        check(m["multi_block.linprog.calls"][0] > 0, "linprog calls are counted")
        check(m["oracle.grid_search_p2.calls"][0] == 2, "oracle calls are counted per point")
        share = sum(m[f"{layer}.share"][0] for layer in ("channel", "decoder_energy",
                    "single_block", "multi_block", "oracle", "cli"))
        check(abs(share - 1.0) < 1e-6, "layer shares add up to 1")
        spans = tracer.spans
        ids = {s[0] for s in spans}
        check(all(s[1] == 0 or s[1] in ids for s in spans), "every span's parent is a span")
        check({s[2] for s in spans} == {1, 2, 3, 4}, "spans carry one op id per invocation")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {entry["name"] for entry in bench["per_layer"]}
        check(set(m) | {"trace.overhead_frac"} == names, "traced metrics match BENCHMARK.json")
    finally:
        tracer.uninstall()
    restored = all(getattr(sys.modules[mod], attr) is value for (mod, attr), value in originals.items())
    check(restored, "uninstall restores every binding")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "figure-maps", "--seed", "5", "--seconds", "0.1",
                    "--trace", str(trace))
        check(proc.returncode == 0, f"a short run with --trace {trace} exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0, f"--trace {trace}: outputs correct")
        names = {entry["name"] for entry in bench[key]}
        check(set(result["metrics"]) == names, f"--trace {trace} prints every {key} metric")
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "benchmarks")
    proc = _run(bare, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "without src/ it fails and prints nothing")


if __name__ == "__main__":
    test_workloads()
    test_checks()
    test_ref_times()
    test_tracer()
    test_runs()
    print("selftest passed")
