"""ehlink benchmark: one workload, measured end to end or per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload figure-maps --seed 3 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``figure-maps``,
``multi-plan`` and ``certify``. Every workload runs in a fresh
single-threaded process (``worker.py``) that drives ``ehlink.cli.main`` in
process with its output captured, and every output is checked.

``--trace 0`` prints the end-to-end metrics, from untraced runs:

* ``points_per_ref_s``: points solved per reference second of CLI time;
* ``cmd_p50_ref_s``: median time of one CLI invocation, in reference seconds;
* ``setup_s``: median over six fresh processes of the wall time from process
  start to the first argument parse done (import included). It is not scaled:
  import time follows the calibration loop's speed too loosely for that;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``success_rate``: share of attempted points that passed every check
  (one minus the error rate, which is 0 at a correct commit).

A reference second is a wall second scaled by the machine's speed at the
time, which a fixed calibration loop measures before and after every
invocation (see ``_ref_times``). On an idle machine of the kind the constant
was taken on, the two are the same; on a shared one, the scaling removes most
of what other tenants add. The wall-time figures are printed too, on the
comment lines.

``--trace 1`` runs the workload for half the time with every layer's public
functions wrapped (``layertrace.py``), then the same cycles untraced, and
prints the per-layer metrics plus ``trace.overhead_frac`` (traced time /
untraced time - 1). The spans go to ``benchmarks/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
record the machine and environment, and in traced runs the per-call figures
next to the ROADMAP baselines.

``python3 benchmarks/selftest.py`` is a quick smoke test of the harness.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SLACK_S = 140.0  # set-up probes, warm-up and the overshoot of the last cycle
CALIB_REF_S = 0.0055  # about the fastest the calibration loop ran on a 2-vCPU Xeon VM
SETUP_PROBES = 5  # plus the workload process itself: six set-up samples
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Per-call baselines from ROADMAP open items 1 and 4 (2 cores, Python 3.11),
# printed next to the traced figures of this run. They gate nothing.
ROADMAP = (
    ("single_block.algorithm1.cold_ms", "algorithm1 cold", 26.0, "ms"),
    ("single_block.algorithm1.warm_ms", "algorithm1 with ab_pairs", 0.19, "ms"),
    ("single_block.case_ab_pairs.ms", "case_ab_pairs", 27.0, "ms"),
    ("single_block.solve_case_c.ms", "solve_case_c", 0.15, "ms"),
    ("channel.capacity.scalar_us", "scalar capacity", 1.9, "us"),
    ("multi_block.iterative_solver.ms_n4", "iterative_solver N=4", 45.0, "ms"),
    ("multi_block.iterative_solver.ms_n6", "iterative_solver N=6", None, "ms"),
    ("multi_block.iterative_solver.ms_n24", "iterative_solver N=24", None, "ms"),
    ("multi_block.iterative_solver.ms_n60", "iterative_solver N=60", 1070.0, "ms"),
    ("multi_block.lp_step.ms_n6", "lp_step N=6", 16.6, "ms"),
    ("multi_block.lp_step.ms_n24", "lp_step N=24", 93.0, "ms"),
    ("multi_block.lp_step.ms_n60", "lp_step N=60", 346.0, "ms"),
)


class BenchError(RuntimeError):
    """A worker failed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("EH_OPT_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args: list[str], deadline: float, probe: bool = False):
    """Run one worker; return (seconds from start to its ready line, result)."""
    cmd = [sys.executable, str(WORKER), *args] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker gave no ready line: {' '.join(args)}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    if probe:
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup, json.loads(lines[-1])


def _ref_times(res: dict) -> list[float]:
    """Each invocation's time in reference seconds.

    That is its wall time, scaled by the machine's speed as the calibration
    loop measured it just before and just after the invocation
    (``worker.calibrate``), to the speed at which the loop takes
    CALIB_REF_S. On a shared machine other tenants slow a run down to about
    half its speed, in phases of seconds to minutes; the scaling takes most
    of that out and leaves what the program itself costs.
    """
    c = res["calibs"]
    return [w * 2.0 * CALIB_REF_S / (c[i] + c[i + 1]) for i, w in enumerate(res["walls"])]


def _end_to_end(base: list[str], seconds: float, deadline: float):
    _spawn(base, deadline, probe=True)  # warm-up: bytecode and file cache
    # Probes before and after the workload sample set-up over more of the run.
    half = SETUP_PROBES // 2
    setups = [_spawn(base, deadline, probe=True)[0] for _ in range(half)]
    setup, res = _spawn(base + ["--seconds", repr(seconds)], deadline)
    setups.append(setup)
    setups += [_spawn(base, deadline, probe=True)[0] for _ in range(SETUP_PROBES - half)]
    times = _ref_times(res)
    solved = res["points"] - res["failed"]
    metrics = {
        "points_per_ref_s": (solved / sum(times), "1/ref_s"),
        "cmd_p50_ref_s": (statistics.median(times), "ref_s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "success_rate": (solved / res["points"], "frac"),
    }
    return metrics, res


def _traced(base: list[str], seconds: float, deadline: float):
    # Half the time traced, then the same cycles untraced, so that a traced
    # run takes about as long as an untraced one.
    _, res = _spawn(base + ["--seconds", repr(seconds / 2), "--trace", "1"], deadline)
    _, plain = _spawn(base + ["--cycles", str(res["cycles"])], deadline)
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    overhead = sum(_ref_times(res)) / sum(_ref_times(plain)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, res


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _highest_percentile(walls: list[float]) -> tuple[int, float]:
    """The highest of p90/p99 with at least ten samples beyond it, else p50."""
    best = (50, statistics.median(walls))
    for p in (90, 99):
        if len(walls) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(walls, n=100)[p - 1])
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ehlink benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ehlink" / "__init__.py").is_file():
        print(f"error: no ehlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + SLACK_S
    load_start = os.getloadavg()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            metrics, res = _traced(base, args.seconds, deadline)
        else:
            metrics, res = _end_to_end(base, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **res["versions"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "EH_OPT_THREADS": "unset",
        "blas_omp_threads": 1,
        "worker_os_threads": res["threads"],
        "processes": 1,
    }
    print("# machine " + json.dumps(machine))
    walls, times = res["walls"], _ref_times(res)
    solved = res["points"] - res["failed"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} cycles={res['cycles']} "
        f"points={res['points']} failed={res['failed']} invocations={len(walls)} "
        f"checked_against_reference={res['ref_checked']}"
    )
    for label, values in (("wall", walls), ("ref", times)):
        pct, high = _highest_percentile(values)
        tail = f" cmd_p{pct}_{label}_s={high:.4f}" if pct > 50 else ""
        print(
            f"# {label}: points_per_{label}_s={solved / sum(values):.4f} "
            f"cmd_p50_{label}_s={statistics.median(values):.4f}{tail} "
            f"(n={len(values)} invocations)"
        )
    print(f"# calibration loop: median {1e3 * statistics.median(res['calibs']):.3f} ms "
          f"(reference {1e3 * CALIB_REF_S:.3f} ms, n={len(res['calibs'])})")
    for failure in res["failures"]:
        print("# failure " + json.dumps(failure))
    if args.trace:
        print(f"# spans: {res['spans_file']}; wrapped bindings: {res['bindings']}; "
              f"missing: {res['missing'] or 'none'}")
        print(f"# {'per call (traced run)':28s} {'measured':>10s} {'ROADMAP':>10s}")
        for name, label, ref, unit in ROADMAP:
            ref_text = f"{ref:10.3f}" if ref is not None else f"{'-':>10s}"
            print(f"# {label:28s} {metrics[name][0]:10.3f} {ref_text} {unit}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["points"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
