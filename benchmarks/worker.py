"""One benchmark process: runs one workload through ``ehlink.cli.main`` in process.

Started by ``run.py`` in a fresh single-threaded process. It imports the
package from the checkout's ``src``, parses the first invocation's arguments
and prints ``ready``; ``run.py`` times set-up up to that line. A set-up probe
(``--probe``) stops there. Otherwise the worker runs whole cycles of the
workload until ``--seconds`` have passed (or exactly ``--cycles`` cycles),
captures and checks every output, and prints one JSON result line. Before
the first invocation and after each one it times a fixed calibration loop
(``calibrate``), from which ``run.py`` scales wall times to reference seconds.

``--record-reference N`` runs N cycles of the default seed and writes the
reference outputs that later runs of the default seed are compared against.
Only the invocations the reference holds are compared; the result line says
how many (``ref_checked``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
REF_DIR = HERE / "reference"


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--record-reference", dest="record", type=int, default=None)
    return ap.parse_args(argv)


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = (
            f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
            f"{_core.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
    }


def calibrate() -> float:
    """Seconds taken by a fixed piece of the benchmark's own work: the machine's speed now.

    Scalar float math with calls, then small numpy array operations, like the
    program's own mix. The median of three samples of about 5-10 ms each, with
    the garbage collector off, so that the program's heap does not slow it.
    """
    import numpy as np

    samples = []
    a = np.linspace(0.1, 2.0, 64)
    gc.disable()
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1, 30000):
            x = i * 1e-4
            s += math.log1p(x) * x - math.sqrt(x)
        for _ in range(400):
            s += float(np.sum(np.log(a) * a))
        samples.append(time.perf_counter() - t0)
    gc.enable()
    return sorted(samples)[1]


def _call(cli, argv) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # any raise is a failed invocation, reported below
        rc = None
        err.write(f"raised {type(exc).__name__}: {exc}\n")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    import ehlink.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"ehlink imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    gen = workloads.cycles(args.workload, args.seed)
    cycle = next(gen)
    cli.build_parser().parse_args(list(cycle[0].argv))
    real_stdout = sys.stdout
    print("ready", file=real_stdout, flush=True)
    if args.probe:
        return 0

    reference = []
    ref_file = REF_DIR / f"{args.workload}.json.gz"
    if args.record is None and args.seed == workloads.DEFAULT_SEED:
        with gzip.open(ref_file, "rt") as fh:
            reference = json.load(fh)["invocations"]
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    limit = args.record if args.record is not None else args.cycles
    walls, calibs, points, failed, output_bytes, done, ref_checked = [], [], 0, 0, 0, 0, 0
    recorded, failures = [], []
    index = 0
    start = time.perf_counter()
    calibs.append(calibrate())
    while True:
        for inv in cycle:
            rc, out, err, dt = _call(cli, inv.argv)
            calibs.append(calibrate())
            walls.append(dt)
            output_bytes += len(out.encode())
            ref = None
            if index < len(reference):
                # A stale reference (other argv) makes every point of the call fail.
                same = reference[index]["argv"] == list(inv.argv)
                ref = reference[index]["stdout"] if same else ""
                ref_checked += 1
            bad = workloads.failed_points(inv, rc, out, err, ref)
            points += inv.points
            failed += bad
            if bad and len(failures) < 5:
                failures.append({"argv": list(inv.argv), "rc": rc, "failed": bad,
                                 "stderr": err[-400:]})
            if args.record is not None:
                recorded.append({"argv": list(inv.argv), "stdout": out})
            index += 1
        done += 1
        if limit is not None:
            if done >= limit:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
        cycle = next(gen)

    result = {
        "cycles": done,
        "points": points,
        "failed": failed,
        "ref_checked": ref_checked,
        "walls": walls,
        "calibs": calibs,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": _threads(),
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["metrics"] = tracer.metrics(output_bytes, points)
        result["missing"] = tracer.missing
        result["bindings"] = len(tracer.bindings)
        result["spans_file"] = _write_spans(tracer, args, start)
    if args.record is not None:
        if failed:
            print(f"not recording: {failed} points failed", file=sys.stderr)
            return 1
        REF_DIR.mkdir(exist_ok=True)
        # mtime=0 keeps the file byte-identical for identical outputs.
        with open(ref_file, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps({"seed": args.seed, "invocations": recorded}).encode())
    print(json.dumps(result), file=real_stdout, flush=True)
    return 0


def _write_spans(tracer, args, start: float) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for sid, parent, op, name, t0, t1, ctx in tracer.spans:
            row = {"id": sid, "parent": parent, "op": op, "name": name,
                   "start_s": t0 - start, "end_s": t1 - start}
            if ctx:
                row.update(ctx)
            fh.write(json.dumps(row) + "\n")
    return str(path.relative_to(HERE.parent))


if __name__ == "__main__":
    sys.exit(main())
