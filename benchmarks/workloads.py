"""Seeded CLI workloads for the ehlink benchmark, and the checks on their outputs.

A workload is an endless sequence of cycles. A cycle is a short, fixed list of
CLI invocations, so a run that measures whole cycles measures the same mix of
commands and sizes whatever its length. Every workload is a closed loop with
one caller: each invocation is issued after the previous one returns.

Inputs come only from the workload seed (Python's ``random.Random``, so they do
not depend on the numpy version). Within one run no two invocations share an
``(eta, e_lim, model)`` key, so a cache that outlives one invocation earns no
more than it would for a user who runs separate commands.

Why these three workloads: they separate the three bottlenecks of the program.

``figure-maps``
    ``region-map`` and ``sweep-single``, as in the paper's maps and sweeps.
    Every ``e_lim`` row has many ``e_avg`` points, so the case (a)/(b)
    candidates repeat within an invocation. ``single_block`` and scalar
    ``channel`` do almost all the work and ``multi_block`` does none:
    memoising and batching show here. A point is one map cell or sweep row.
``multi-plan``
    ``solve-multi`` at N = 6, 24 and 60 blocks plus ``sweep-multi`` across the
    achievability threshold. ``g_i`` is drawn from ``[0, eta*e_avg]``, so the
    suffix-sum condition holds for some problems and fails for others. The
    transfer LP chain dominates; a point is one multi-block problem.
``certify``
    ``verify --grid 1000x1000``: cold solves with a fresh ``e_lim`` per
    instance, the oracle grids on the array path of ``channel``, and LP checks
    at N <= 4. It bypasses caching and row batching (the prediction there is
    no change) and is the only workload that runs the oracles. A point is one
    checked instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

THETA = "theta-log-theta"
POWER = "power-law:c=1,p=2"

DEFAULT_SEED = 1
# A map row has 40 e_avg cells and a sweep-single 49 points, as in the 40x40
# region map and the 49-point sweep that ROADMAP names as the traffic. A map
# invocation is one row, so that it takes about as long as a sweep-single and
# the median invocation does not jump between two size clusters.
MAP_ROWS = 1
MAP_COLS = 40
SWEEP_SINGLE_ROWS = 49
SWEEP_MULTI_ROWS = 6
SWEEP_MULTI_BLOCKS = 4
VERIFY_POINTS = 20 + 10 + 20 + 10  # instances of the four checks at --instances 20
BOUND_TOL = 1e-8
REF_REL_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, the points it should produce, and its block count."""

    argv: tuple[str, ...]
    points: int
    blocks: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


def _f(x: float) -> str:
    # numpy.float64 reprs such as "np.float64(0.5)" make the CLI exit with 2.
    return repr(float(x))


class _Keys:
    """Draws the parameters of one run, keeping its (eta, e_lim, model) keys unique."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[tuple[float, float, str]] = set()

    def eta(self, e_lims: list[float], model: str) -> float:
        while True:
            eta = self.rng.uniform(0.3, 1.0)
            keys = {(eta, e_lim, model) for e_lim in e_lims}
            if not keys & self.used:
                self.used |= keys
                return eta


def _e_avg_range(keys: _Keys, e_lim: float) -> tuple[float, float]:
    lo = e_lim * keys.rng.uniform(0.02, 0.1)
    return lo, e_lim * keys.rng.uniform(0.8, 0.95)


def _sweep(var: str, lo: float, step: float, count: int) -> str:
    # The CLI counts floor((stop - start) / step + 1e-9) + 1 points.
    return f"{var}:{_f(lo)}:{_f(lo + step * (count - 1))}:{_f(step)}"


def _region_map(keys: _Keys, model: str) -> Invocation:
    e_lim0 = keys.rng.uniform(1.0, 6.0)
    d_lim = keys.rng.uniform(0.25, 1.0)
    eta = keys.eta([e_lim0 + d_lim * r for r in range(MAP_ROWS)], model)
    lo, hi = _e_avg_range(keys, e_lim0)
    g = eta * lo * keys.rng.uniform(0.0, 1.0)  # every cell valid: eta * e_avg >= g, e_avg < e_lim
    argv = (
        "region-map", "--eta", _f(eta), "--g", _f(g), "--ed-model", model,
        "--sweep", _sweep("e_lim", e_lim0, d_lim, MAP_ROWS),
        "--sweep", _sweep("e_avg", lo, (hi - lo) / (MAP_COLS - 1), MAP_COLS),
    )
    return Invocation(argv, MAP_ROWS * MAP_COLS)


def _sweep_single(keys: _Keys, model: str) -> Invocation:
    e_lim = keys.rng.uniform(1.0, 7.0)
    eta = keys.eta([e_lim], model)
    lo, hi = _e_avg_range(keys, e_lim)
    g = eta * lo * keys.rng.uniform(0.0, 1.0)
    n = SWEEP_SINGLE_ROWS
    argv = (
        "sweep-single", "--eta", _f(eta), "--g", _f(g), "--e-lim", _f(e_lim),
        "--ed-model", model, "--sweep", _sweep("e_avg", lo, (hi - lo) / (n - 1), n),
    )
    return Invocation(argv, n)


def _solve_multi(keys: _Keys, model: str, blocks: int) -> Invocation:
    e_lim = keys.rng.uniform(1.0, 8.0)
    eta = keys.eta([e_lim], model)
    e_avg = e_lim * keys.rng.uniform(0.1, 0.9)
    g_list = ",".join(_f(eta * e_avg * keys.rng.random()) for _ in range(blocks))
    argv = (
        "solve-multi", "--eta", _f(eta), "--e-avg", _f(e_avg), "--e-lim", _f(e_lim),
        "--ed-model", model, "--g-list", g_list,
    )
    return Invocation(argv, 1, blocks)


def _sweep_multi(keys: _Keys, model: str) -> Invocation:
    e_lim = keys.rng.uniform(1.0, 8.0)
    eta = keys.eta([e_lim], model)
    lo = e_lim * keys.rng.uniform(0.05, 0.15)
    hi = e_lim * keys.rng.uniform(0.85, 0.95)
    g = eta * lo * keys.rng.uniform(0.0, 1.0)
    n = SWEEP_MULTI_ROWS
    argv = (
        "sweep-multi", "--eta", _f(eta), "--g", _f(g), "--e-lim", _f(e_lim),
        "--blocks", str(SWEEP_MULTI_BLOCKS), "--ed-model", model,
        "--sweep", _sweep("e_avg", lo, (hi - lo) / (n - 1), n),
    )
    return Invocation(argv, n, SWEEP_MULTI_BLOCKS)


def _figure_maps(keys: _Keys) -> list[Invocation]:
    return [
        _region_map(keys, THETA),
        _sweep_single(keys, POWER),
        _region_map(keys, POWER),
        _sweep_single(keys, THETA),
    ]


def _multi_plan(keys: _Keys) -> list[Invocation]:
    # Per model: one small, one medium and two large problems plus two
    # threshold sweeps. The large solves and the sweeps take about the same
    # time, so the median invocation sits inside that one cluster and
    # cmd_p50_s does not jump between size classes from seed to seed.
    cycle = []
    for model in (THETA, POWER):
        cycle += [
            _solve_multi(keys, model, 6),
            _solve_multi(keys, model, 24),
            _solve_multi(keys, model, 60),
            _sweep_multi(keys, model),
            _solve_multi(keys, model, 60),
            _sweep_multi(keys, model),
        ]
    return cycle


def _certify(keys: _Keys) -> list[Invocation]:
    seed = keys.rng.randrange(2**31)
    return [Invocation(("verify", "--seed", str(seed), "--grid", "1000x1000"), VERIFY_POINTS)]


WORKLOADS = {
    "figure-maps": _figure_maps,
    "multi-plan": _multi_plan,
    "certify": _certify,
}


def cycles(workload: str, seed: int):
    """Yield the cycles of `workload` for `seed`, forever."""
    make = WORKLOADS[workload]
    keys = _Keys(random.Random(f"{workload}:{seed}"))
    while True:
        yield make(keys)


# ---------------------------------------------------------------- output checks


@dataclass
class Record:
    """One point group of an output: its weight in points, its fields, its verdict."""

    weight: int
    fields: list[str]
    ok: bool


def _csv(stdout: str) -> tuple[list[str], list[list[str]]]:
    meta, rows, header = [], [], None
    for line in stdout.splitlines():
        if line.startswith("# "):
            meta.append(line[2:])
        elif header is None:
            header = line
        elif line:
            rows.append(line.split(","))
    return meta, rows


def _le_bound(total: str, bound: str) -> bool:
    return float(total) <= float(bound) + BOUND_TOL


def records(inv: Invocation, stdout: str, stderr: str) -> list[Record]:
    """Split an invocation's output into point records, each checked on its own."""
    cmd = inv.command
    if cmd == "verify":
        out = []
        for line in stdout.splitlines()[1:]:
            parts = line.split()
            if len(parts) == 5:
                # The failing instances themselves are counted from stderr.
                out.append(Record(int(parts[1]), parts, True))
        return out
    meta, rows = _csv(stdout)
    if cmd == "region-map":
        return [Record(1, row, row[2] in ("a", "b", "c")) for row in rows]
    if cmd == "sweep-single":
        # The optimum can never be worse than the constant-power baseline.
        return [Record(1, row, float(row[1]) >= float(row[2])) for row in rows]
    if cmd == "sweep-multi":
        return [Record(1, meta + row, _le_bound(row[2], row[1])) for row in rows]
    if cmd == "solve-multi":
        values = dict(item.split("=", 1) for item in meta)
        ok = len(rows) == inv.blocks and _le_bound(
            values["total_bits_per_use"], values["upper_bound"]
        )
        return [Record(1, meta + [f for row in rows for f in row], ok)]
    raise ValueError(f"no output check for command {cmd!r}")


def _same(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return False
    return abs(x - y) <= REF_REL_TOL * max(1.0, abs(x), abs(y))


def failed_points(
    inv: Invocation, rc: int | None, stdout: str, stderr: str, reference: str | None
) -> int:
    """Points of `inv` that failed.

    All of them fail if the CLI raised or exited with an error. Otherwise a
    point fails if its own check fails, if it is missing, if ``verify``
    reports it as FAIL, or if it differs from the reference output recorded
    for the default seed (case labels exactly, numbers to a relative 1e-9).
    """
    # verify exits 1 when a check fails and prints one FAIL line per instance.
    ran = rc == 0 or (inv.command == "verify" and rc == 1)
    if not ran:
        return inv.points
    try:
        recs = records(inv, stdout, stderr)
        ref = records(inv, reference, "") if reference is not None else None
    except (ValueError, IndexError, KeyError):
        return inv.points
    if ref is not None and len(ref) != len(recs):
        return inv.points
    bad = sum(1 for line in stderr.splitlines() if line.startswith("FAIL "))
    for i, rec in enumerate(recs):
        differs = ref is not None and (
            len(rec.fields) != len(ref[i].fields)
            or not all(_same(a, b) for a, b in zip(rec.fields, ref[i].fields))
        )
        if not rec.ok or differs:
            bad += rec.weight
    missing = inv.points - sum(rec.weight for rec in recs)
    return min(inv.points, bad + abs(missing))
