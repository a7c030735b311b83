"""Command-line front end: single/multi solves, sweeps, and oracle checks.

The solve and sweep commands emit CSV with ``#``-prefixed ``key=value``
metadata lines before the header; ``verify`` prints a PASS/FAIL table.
Output is deterministic for a fixed flag set and seed: floats are printed
with 12 significant digits, period decimal separator, and rows follow grid
order.  Each command declares only the flags it reads, so an unused flag is
an argparse error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import multi_block, oracle, single_block
from .decoder_energy import parse_model, power_law_model, theta_log_theta_model
from .single_block import SystemParams

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit_csv(args, meta: dict, header: str, rows) -> None:
    """Write ``# key=value`` meta lines, the header, then one line per row,
    to ``--out`` or stdout."""
    lines = [f"# {key}={_fmt(value)}" for key, value in meta.items()]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_PARAM_DEFAULTS = {"eta": 0.5, "g": 0.0, "e_avg": 0.5, "e_lim": 3.0}
# Largest point count of one --sweep axis, and of a region map's cells.
_MAX_SWEEP_POINTS = 1_000_000


def _add_param_flags(parser, *names: str) -> None:
    """Add --ed-model, --out and one flag per named SystemParams field."""
    for name in names:
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=float,
            default=_PARAM_DEFAULTS[name],
        )
    parser.add_argument("--ed-model", dest="ed_model", default="theta-log-theta")
    parser.add_argument("--out", default=None)


def _params(args, e_avg=None, e_lim=None) -> SystemParams:
    # A swept e_avg or e_lim is passed in; its command has no flag for it.
    return SystemParams(
        eta=args.eta,
        g=args.g,
        e_avg=args.e_avg if e_avg is None else e_avg,
        e_lim=args.e_lim if e_lim is None else e_lim,
    ).validate()


def _number(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None


def _parse_sweeps(specs: list[str], command=None, names=None) -> dict[str, list[float]]:
    """Each --sweep variable's points, as ``start + step * i`` floats.

    With ``names``, the swept variables must be exactly those of ``command``;
    without them (as the benchmark's self-test calls it), any set is returned.
    """
    sweeps = {}
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"sweep spec must be var:start:stop:step, got {spec!r}")
        var = parts[0]
        if var in sweeps:
            raise ValueError(f"{var} is swept twice; give each --sweep variable once")
        start, stop, step = (
            _number(text, f"{var} sweep {field}")
            for field, text in zip(("start", "stop", "step"), parts[1:])
        )
        for field, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"{var} sweep {field} must be finite, got {value!r}")
        if step <= 0:
            raise ValueError(f"{var} sweep step must be > 0, got {step!r}")
        # Bounded before flooring: steps may be inf, and count sizes the list.
        steps = (stop - start) / step
        if not steps + 1e-9 < _MAX_SWEEP_POINTS:
            raise ValueError(
                f"{var} sweep has more than {_MAX_SWEEP_POINTS} points: "
                f"(stop - start) / step = {steps:.6g}"
            )
        count = int(math.floor(steps + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"{var} sweep range is empty: stop {stop!r} < start {start!r}")
        sweeps[var] = [start + step * i for i in range(count)]
    if names is not None and set(sweeps) != set(names):
        wanted = " ".join(f"--sweep {name}:start:stop:step" for name in names)
        raise ValueError(f"{command} needs {wanted}, got {', '.join(sweeps)}")
    return sweeps


def _parse_grid(spec: str) -> tuple[int, int]:
    a, _, b = spec.partition("x")
    try:
        counts = int(a), int(b)
    except ValueError:
        raise ValueError(f"--grid must be AxB with integer counts, got {spec!r}") from None
    if min(counts) < 2:
        raise ValueError(f"--grid counts must be >= 2, got {spec!r}")
    return counts


def _solution(full) -> tuple:
    """The solution columns theta,e_i,e_e,alpha,rate,bits_per_use."""
    return full.theta, full.e_i, full.e_e, full.alpha, full.rate, full.bits_per_use


def cmd_solve_single(args) -> int:
    p = _params(args)
    model = parse_model(args.ed_model)
    cand, full = single_block.algorithm1(p, model)
    row = (p.eta, p.g, p.e_avg, p.e_lim, cand.case_label.value, *_solution(full))
    header = "eta,g,e_avg,e_lim,case,theta,e_i,e_e,alpha,rate,bits_per_use"
    _emit_csv(args, {"model": model.name}, header, [row])
    return 0


def cmd_solve_multi(args) -> int:
    p = _params(args)
    model = parse_model(args.ed_model)
    g_list = _resolve_g_list(args)
    prob = multi_block.MultiBlockProblem(p, g_list, model)
    sol = multi_block.iterative_solver(prob)
    meta = {
        "total_bits_per_use": sol.total_bits_per_use,
        "upper_bound": sol.bound,
        "achieved": sol.bound_achieved,
    }
    rows = [
        (i + 1, g, transfer, case.value, *_solution(full))
        for i, (g, transfer, case, full) in enumerate(
            zip(g_list, sol.transfers, sol.cases, sol.per_block)
        )
    ]
    header = "block,g,transfer,case,theta,e_i,e_e,alpha,rate,bits_per_use"
    _emit_csv(args, meta, header, rows)
    return 0


def _blocks(args) -> int | None:
    if args.blocks is not None and args.blocks < 1:
        raise ValueError(f"--blocks must be >= 1, got {args.blocks}")
    return args.blocks


def _resolve_g_list(args) -> tuple[float, ...]:
    blocks = _blocks(args)
    if args.g_list is not None:
        values = tuple(_number(x, "--g-list entry") for x in args.g_list.split(","))
        if blocks is not None and len(values) != blocks:
            raise ValueError("--g-list length disagrees with --blocks")
        return values
    return (args.g,) * (blocks or 1)


def cmd_sweep_single(args) -> int:
    sweeps = _parse_sweeps(args.sweep, "sweep-single", ("e_avg",))
    model = parse_model(args.ed_model)
    seed = single_block.RowSeed()

    def row(e_avg: float):
        p = _params(args, e_avg=e_avg)
        _, full = single_block.algorithm1(p, model, seed=seed)
        baseline = single_block.constant_power_baseline(p, model, seed=seed)
        ratio = (
            full.bits_per_use / baseline.bits_per_use
            if baseline.bits_per_use > 0
            else math.inf
        )
        return e_avg, full.bits_per_use, baseline.bits_per_use, ratio

    rows = [row(e_avg) for e_avg in sweeps["e_avg"]]
    meta = {"eta": args.eta, "g": args.g, "e_lim": args.e_lim, "model": model.name}
    _emit_csv(args, meta, "e_avg,optimized_bits,baseline_bits,ratio", rows)
    return 0


def _case_margins(p: SystemParams, model, seed) -> tuple[str, float]:
    """Winning case label and its margin over the best candidate of another case.

    A zero budget has no contest: `algorithm1`'s label, margin 0."""
    if p.budget <= 0.0:
        return single_block.algorithm1(p, model, seed=seed)[0].case_label.value, 0.0
    ranked = single_block.ranked_candidates(p, model, seed=seed)
    winner = ranked[0]
    runner_up = next((c for c in ranked if c.case_label is not winner.case_label), None)
    margin = math.inf if runner_up is None else winner.objective - runner_up.objective
    return winner.case_label.value, margin


def cmd_region_map(args) -> int:
    sweeps = _parse_sweeps(args.sweep, "region-map", ("e_lim", "e_avg"))
    e_lims, e_avgs = sweeps["e_lim"], sweeps["e_avg"]
    if len(e_lims) * len(e_avgs) > _MAX_SWEEP_POINTS:
        raise ValueError(
            f"region-map has more than {_MAX_SWEEP_POINTS} cells: "
            f"e_lim sweep {len(e_lims)} points x e_avg sweep {len(e_avgs)} points"
        )
    model = parse_model(args.ed_model)

    def classify(e_lim: float, e_avg: float, seed):
        if not e_avg < e_lim or args.eta * e_avg < args.g:
            return e_lim, e_avg, "invalid", math.nan
        p = _params(args, e_avg=e_avg, e_lim=e_lim)
        return e_lim, e_avg, *_case_margins(p, model, seed)

    rows = []
    for e_lim in e_lims:
        seed = single_block.RowSeed()  # a row's cells differ only in e_avg
        rows += [classify(e_lim, e_avg, seed) for e_avg in e_avgs]
    meta = {"eta": args.eta, "g": args.g, "model": model.name}
    _emit_csv(args, meta, "e_lim,e_avg,case,margin", rows)
    return 0


def cmd_sweep_multi(args) -> int:
    sweeps = _parse_sweeps(args.sweep, "sweep-multi", ("e_avg",))
    model = parse_model(args.ed_model)
    blocks = _blocks(args)

    # threshold_u reads eta, e_lim and the model but not e_avg, so one call
    # serves every row (a sweep has at least one point).
    u = multi_block.threshold_u(_params(args, e_avg=sweeps["e_avg"][0]), model, args.g)

    def row(e_avg: float):
        p = _params(args, e_avg=e_avg)
        prob = multi_block.MultiBlockProblem(p, (args.g,) * blocks, model)
        sol = multi_block.iterative_solver(prob)
        return e_avg, sol.bound, sol.total_bits_per_use, sol.bound_achieved, u

    rows = [row(e_avg) for e_avg in sweeps["e_avg"]]
    meta = {
        "eta": args.eta,
        "g": args.g,
        "e_lim": args.e_lim,
        "blocks": blocks,
        "model": model.name,
        "u": u,
    }
    _emit_csv(args, meta, "e_avg,upper_bound,total_bits_per_use,achieved,u", rows)
    return 0


def _random_params(rng) -> SystemParams:
    eta = rng.uniform(0.3, 1.0)
    e_lim = rng.uniform(0.5, 8.0)
    e_avg = e_lim * rng.uniform(0.02, 0.98)
    g = rng.uniform(0.0, eta * e_avg)
    return SystemParams(eta=eta, g=g, e_avg=e_avg, e_lim=e_lim)


def _check_p2(p, m, rng, spec):
    """Single-block solver vs dense grid search."""
    cand, _ = single_block.algorithm1(p, m)
    _, _, grid_best = oracle.grid_search_p2(p, m, spec)
    return abs(cand.objective - grid_best), f"params={p} model={m.name}"


def _check_p8(p, m, rng, spec):
    """Normalized box problem vs dense grid search."""
    theta_dot, e_dot = multi_block.solve_p8(p, m)
    value = single_block.objective(theta_dot, e_dot, p, m, budget=1.0)
    _, _, grid_best = oracle.grid_search_p8(p, m, spec)
    return abs(value - grid_best), f"params={p} model={m.name}"


def _check_lp(p, m, rng, spec):
    """Transfer LP vs vertex enumeration on random blocks and pairs."""
    n = int(rng.integers(1, 5))
    g_list = tuple(rng.uniform(0.0, p.eta * p.e_avg) for _ in range(n))
    prob = multi_block.MultiBlockProblem(p, g_list, m)
    thetas = [float(rng.uniform(1.01, 5.0)) for _ in range(n)]
    e_is = [float(rng.uniform(0.01 * p.e_lim, p.e_lim)) for _ in range(n)]
    cost = [single_block.objective(t, e, p, m, budget=1.0) for t, e in zip(thetas, e_is)]
    transfers = multi_block.lp_step(prob, thetas, e_is)
    status, vertex = oracle.enumerate_lp_vertices(prob, thetas, e_is)
    if status != "optimal":
        return None, f"lp enumeration status={status} params={p}"
    err = abs(
        sum(c * t for c, t in zip(cost, transfers))
        - sum(c * t for c, t in zip(cost, vertex))
    )
    return err, f"params={p} g_list={g_list} thetas={thetas} e_is={e_is}"


def _check_multi_n1(p, m, rng, spec):
    """One-block multi solver vs the single-block solver."""
    sol = multi_block.iterative_solver(multi_block.MultiBlockProblem(p, (p.g,), m))
    cand, _ = single_block.algorithm1(p, m)
    return abs(sol.total_bits_per_use - cand.objective), f"params={p}"


def cmd_verify(args) -> int:
    import numpy as np  # here, so that the single-block commands never load it

    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    rng = np.random.default_rng(args.seed)
    theta_points, e_points = _parse_grid(args.grid)
    spec = oracle.GridSpec(theta_points=theta_points, e_points=e_points)
    models = [theta_log_theta_model(), power_law_model(c=1.0, p=2.0)]
    half = max(args.instances // 2, 1)
    # (table name, instances, tolerance, FAIL label, check); each instance
    # draws its params from rng, then the check draws what else it needs.
    checks = (
        ("algorithm1-vs-grid", args.instances, 1e-3, "p2", _check_p2),
        ("p8-vs-grid", half, 1e-3, "p8", _check_p8),
        ("lp-vs-vertices", max(args.instances, 20), 1e-10, "lp", _check_lp),
        ("multi-n1-vs-single", half, 1e-6, "multi/single", _check_multi_n1),
    )
    failures: list[str] = []
    table: list[tuple[str, int, float, float]] = []
    for name, count, tol, label, check in checks:
        worst = 0.0
        for i in range(count):
            err, detail = check(_random_params(rng), models[i % 2], rng, spec)
            if err is None:
                failures.append(detail)
                continue
            worst = max(worst, err)
            if err > tol:
                failures.append(f"{label} mismatch err={err:.3e} {detail}")
        table.append((name, count, worst, tol))

    print(f"{'check':24s} {'instances':>9s} {'max_err':>12s} {'tolerance':>12s} result")
    for name, count, err, tol in table:
        status = "PASS" if err <= tol else "FAIL"
        print(f"{name:24s} {count:9d} {err:12.3e} {tol:12.3e} {status}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ehlink",
        description="Joint power/time/rate optimizer for an energy-harvesting link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-single", help="solve one block")
    _add_param_flags(sp, "eta", "g", "e_avg", "e_lim")
    sp.set_defaults(func=cmd_solve_single)

    sp = sub.add_parser("solve-multi", help="solve a multi-block problem")
    _add_param_flags(sp, "eta", "e_avg", "e_lim")
    overheads = sp.add_mutually_exclusive_group()
    overheads.add_argument("--g", type=float, default=_PARAM_DEFAULTS["g"])
    overheads.add_argument("--g-list", dest="g_list", default=None)
    sp.add_argument("--blocks", type=int, default=None)
    sp.set_defaults(func=cmd_solve_multi)

    sp = sub.add_parser("sweep-single", help="optimized vs constant-power sweep")
    _add_param_flags(sp, "eta", "g", "e_lim")
    sp.add_argument("--sweep", action="append", required=True)
    sp.set_defaults(func=cmd_sweep_single)

    sp = sub.add_parser("region-map", help="winning-case map over (e_lim, e_avg)")
    _add_param_flags(sp, "eta", "g")
    sp.add_argument("--sweep", action="append", required=True)
    sp.set_defaults(func=cmd_region_map)

    sp = sub.add_parser("sweep-multi", help="bound vs solver over e_avg")
    _add_param_flags(sp, "eta", "g", "e_lim")
    sp.add_argument("--blocks", type=int, default=4)
    sp.add_argument("--sweep", action="append", required=True)
    sp.set_defaults(func=cmd_sweep_multi)

    sp = sub.add_parser("verify", help="oracle-vs-solver comparisons")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--instances", type=int, default=20)
    sp.add_argument("--grid", default="500x500")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
