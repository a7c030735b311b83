"""Command-line front end: single/multi solves, sweeps, and oracle checks.

All commands emit CSV with ``#``-prefixed ``key=value`` metadata lines before
the header.  Output is deterministic for a fixed flag set and seed: floats
are printed with 12 significant digits, period decimal separator, and rows
follow grid order.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import multi_block, oracle, single_block
from .decoder_energy import parse_model, power_law_model, theta_log_theta_model
from .single_block import SystemParams

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, default=0.5)
    parser.add_argument("--g", type=float, default=0.0)
    parser.add_argument("--e-avg", dest="e_avg", type=float, default=0.5)
    parser.add_argument("--e-lim", dest="e_lim", type=float, default=3.0)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--ed-model", dest="ed_model", default="theta-log-theta")
    parser.add_argument("--out", default=None)


def _params(args, e_avg=None, e_lim=None, g=None) -> SystemParams:
    return SystemParams(
        eta=args.eta,
        g=args.g if g is None else g,
        e_avg=args.e_avg if e_avg is None else e_avg,
        e_lim=args.e_lim if e_lim is None else e_lim,
        n=args.n,
    ).validate()


def _number(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None


def _parse_sweeps(specs: list[str]) -> dict[str, np.ndarray]:
    sweeps = {}
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"sweep spec must be var:start:stop:step, got {spec!r}")
        var = parts[0]
        start, stop, step = (
            _number(text, f"{var} sweep {field}")
            for field, text in zip(("start", "stop", "step"), parts[1:])
        )
        for field, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"{var} sweep {field} must be finite, got {value!r}")
        if step <= 0:
            raise ValueError(f"{var} sweep step must be > 0, got {step!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"{var} sweep range is empty: stop {stop!r} < start {start!r}")
        sweeps[var] = start + step * np.arange(count)
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


def _meta(pairs: dict) -> list[str]:
    return [f"# {key}={_fmt(value)}" for key, value in pairs.items()]


SINGLE_HEADER = "eta,g,e_avg,e_lim,model,case,theta,e_i,e_e,alpha,rate,bits_per_use"


def _single_row(p: SystemParams, model, cand, full) -> str:
    fields = [
        p.eta,
        p.g,
        p.e_avg,
        p.e_lim,
        model.name,
        cand.case_label.value,
        full.theta,
        full.e_i,
        full.e_e,
        full.alpha,
        full.rate,
        full.bits_per_use,
    ]
    return ",".join(_fmt(f) for f in fields)


def cmd_solve_single(args) -> int:
    p = _params(args)
    model = parse_model(args.ed_model)
    cand, full = single_block.algorithm1(p, model)
    _emit([SINGLE_HEADER, _single_row(p, model, cand, full)], args.out)
    return 0


def cmd_solve_multi(args) -> int:
    p = _params(args)
    model = parse_model(args.ed_model)
    g_list = _resolve_g_list(args)
    prob = multi_block.MultiBlockProblem(p, g_list, model)
    sol = multi_block.iterative_solver(prob)
    lines = _meta(
        {
            "total_bits_per_use": sol.total_bits_per_use,
            "upper_bound": sol.bound,
            "achieved": sol.bound_achieved,
        }
    )
    lines.append("block,g,transfer,case,theta,e_i,e_e,alpha,rate,bits_per_use")
    for i, (full, case) in enumerate(zip(sol.per_block, sol.cases)):
        fields = [
            i + 1,
            g_list[i],
            sol.schedule.t_list[i],
            case.value,
            full.theta,
            full.e_i,
            full.e_e,
            full.alpha,
            full.rate,
            full.bits_per_use,
        ]
        lines.append(",".join(_fmt(f) for f in fields))
    _emit(lines, args.out)
    return 0


def _blocks(args) -> int | None:
    if args.blocks is not None and args.blocks < 1:
        raise ValueError(f"--blocks must be >= 1, got {args.blocks}")
    return args.blocks


def _resolve_g_list(args) -> tuple[float, ...]:
    blocks = _blocks(args)
    if args.g_list:
        values = tuple(_number(x, "--g-list entry") for x in args.g_list.split(","))
        if blocks is not None and len(values) != blocks:
            raise ValueError("--g-list length disagrees with --blocks")
        return values
    return (args.g,) * (blocks or 1)


def cmd_sweep_single(args) -> int:
    sweeps = _parse_sweeps(args.sweep)
    if set(sweeps) != {"e_avg"}:
        raise ValueError("sweep-single sweeps e_avg only (--sweep e_avg:start:stop:step)")
    model = parse_model(args.ed_model)

    def solve(e_avg: float):
        p = _params(args, e_avg=float(e_avg))
        _, full = single_block.algorithm1(p, model)
        baseline = single_block.constant_power_baseline(p, model)
        ratio = (
            full.bits_per_use / baseline.bits_per_use
            if baseline.bits_per_use > 0
            else math.inf
        )
        return full.bits_per_use, baseline.bits_per_use, ratio

    rows = [solve(e_avg) for e_avg in sweeps["e_avg"]]
    lines = _meta(
        {"eta": args.eta, "g": args.g, "e_lim": args.e_lim, "model": model.name}
    )
    lines.append("e_avg,optimized_bits,baseline_bits,ratio")
    for e_avg, (opt, base, ratio) in zip(sweeps["e_avg"], rows):
        lines.append(",".join(_fmt(v) for v in (float(e_avg), opt, base, ratio)))
    _emit(lines, args.out)
    return 0


def _case_margins(p: SystemParams, model) -> tuple[str, float]:
    """Winning case label and its margin over the best candidate of another case."""
    ranked = single_block.ranked_candidates(p, model)
    if not ranked:
        return "invalid", math.nan
    winner = ranked[0]
    runner_up = next((c for c in ranked if c.case_label is not winner.case_label), None)
    margin = math.inf if runner_up is None else winner.objective - runner_up.objective
    return winner.case_label.value, margin


def cmd_region_map(args) -> int:
    sweeps = _parse_sweeps(args.sweep)
    if set(sweeps) != {"e_lim", "e_avg"}:
        raise ValueError("region-map needs --sweep e_lim:... and --sweep e_avg:...")
    model = parse_model(args.ed_model)
    points = [
        (float(e_lim), float(e_avg))
        for e_lim in sweeps["e_lim"]
        for e_avg in sweeps["e_avg"]
    ]

    def classify(point):
        e_lim, e_avg = point
        if not e_avg < e_lim or args.eta * e_avg < args.g:
            return "invalid", math.nan
        p = _params(args, e_avg=e_avg, e_lim=e_lim)
        return _case_margins(p, model)

    rows = [classify(point) for point in points]
    lines = _meta({"eta": args.eta, "g": args.g, "model": model.name})
    lines.append("e_lim,e_avg,case,margin")
    for (e_lim, e_avg), (case, margin) in zip(points, rows):
        lines.append(",".join(_fmt(v) for v in (e_lim, e_avg, case, margin)))
    _emit(lines, args.out)
    return 0


def cmd_sweep_multi(args) -> int:
    sweeps = _parse_sweeps(args.sweep)
    if set(sweeps) != {"e_avg"}:
        raise ValueError("sweep-multi sweeps e_avg only")
    model = parse_model(args.ed_model)
    blocks = _blocks(args)

    def solve(e_avg: float):
        p = _params(args, e_avg=float(e_avg))
        prob = multi_block.MultiBlockProblem(p, (args.g,) * blocks, model)
        sol = multi_block.iterative_solver(prob)
        u = multi_block.threshold_u(p, model, args.g)
        return sol.bound, sol.total_bits_per_use, sol.bound_achieved, u

    rows = [solve(e_avg) for e_avg in sweeps["e_avg"]]
    lines = _meta(
        {
            "eta": args.eta,
            "g": args.g,
            "e_lim": args.e_lim,
            "blocks": blocks,
            "model": model.name,
            "u": rows[0][3] if rows else math.nan,
        }
    )
    lines.append("e_avg,upper_bound,total_bits_per_use,achieved,u")
    for e_avg, (bound, total, achieved, u) in zip(sweeps["e_avg"], rows):
        lines.append(
            ",".join(_fmt(v) for v in (float(e_avg), bound, total, achieved, u))
        )
    _emit(lines, args.out)
    return 0


def _random_params(rng) -> SystemParams:
    eta = rng.uniform(0.3, 1.0)
    e_lim = rng.uniform(0.5, 8.0)
    e_avg = e_lim * rng.uniform(0.02, 0.98)
    g = rng.uniform(0.0, eta * e_avg)
    return SystemParams(eta=eta, g=g, e_avg=e_avg, e_lim=e_lim)


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    theta_points, e_points = _parse_grid(args.grid)
    spec = oracle.GridSpec(theta_points=theta_points, e_points=e_points)
    scale = args.tol_scale
    models = [theta_log_theta_model(), power_law_model(c=1.0, p=2.0)]
    failures: list[str] = []
    table: list[tuple[str, int, float, float]] = []

    # Single-block solver vs dense grid search.
    worst = 0.0
    for i in range(args.instances):
        p = _random_params(rng)
        m = models[i % 2]
        cand, _ = single_block.algorithm1(p, m)
        _, _, grid_best = oracle.grid_search_p2(p, m, spec)
        err = abs(cand.objective - grid_best)
        worst = max(worst, err)
        if err > 1e-3 * scale:
            failures.append(f"p2 mismatch err={err:.3e} params={p} model={m.name}")
    table.append(("algorithm1-vs-grid", args.instances, worst, 1e-3 * scale))

    # Normalized box problem vs dense grid search.
    worst = 0.0
    for i in range(max(args.instances // 2, 1)):
        p = _random_params(rng)
        m = models[i % 2]
        theta_dot, e_dot = multi_block.solve_p8(p, m)
        value = single_block.objective(theta_dot, e_dot, p, m, budget=1.0)
        _, _, grid_best = oracle.grid_search_p8(p, m, spec)
        err = abs(value - grid_best)
        worst = max(worst, err)
        if err > 1e-3 * scale:
            failures.append(f"p8 mismatch err={err:.3e} params={p} model={m.name}")
    table.append(("p8-vs-grid", max(args.instances // 2, 1), worst, 1e-3 * scale))

    # Transfer LP vs vertex enumeration.
    worst = 0.0
    lp_count = max(args.instances, 20)
    for i in range(lp_count):
        p = _random_params(rng)
        m = models[i % 2]
        n = int(rng.integers(1, 5))
        g_list = tuple(rng.uniform(0.0, p.eta * p.e_avg) for _ in range(n))
        prob = multi_block.MultiBlockProblem(p, g_list, m)
        thetas = [float(rng.uniform(1.01, 5.0)) for _ in range(n)]
        e_is = [float(rng.uniform(0.01 * p.e_lim, p.e_lim)) for _ in range(n)]
        cost = [
            single_block.objective(t, e, p, m, budget=1.0) for t, e in zip(thetas, e_is)
        ]
        schedule = multi_block.lp_step(prob, thetas, e_is)
        status, vertex = oracle.enumerate_lp_vertices(prob, thetas, e_is)
        if status != "optimal":
            failures.append(f"lp enumeration status={status} params={p}")
            continue
        err = abs(
            sum(c * t for c, t in zip(cost, schedule.t_list))
            - sum(c * t for c, t in zip(cost, vertex.t_list))
        )
        worst = max(worst, err)
        if err > 1e-10 * scale:
            failures.append(
                f"lp mismatch err={err:.3e} params={p} g_list={g_list} "
                f"thetas={thetas} e_is={e_is}"
            )
    table.append(("lp-vs-vertices", lp_count, worst, 1e-10 * scale))

    # Single-block equivalence of the one-block multi solver.
    worst = 0.0
    eq_count = max(args.instances // 2, 1)
    for i in range(eq_count):
        p = _random_params(rng)
        m = models[i % 2]
        prob = multi_block.MultiBlockProblem(p, (p.g,), m)
        sol = multi_block.iterative_solver(prob)
        cand, _ = single_block.algorithm1(p, m)
        err = abs(sol.total_bits_per_use - cand.objective)
        worst = max(worst, err)
        if err > 1e-6 * scale:
            failures.append(f"multi/single mismatch err={err:.3e} params={p}")
    table.append(("multi-n1-vs-single", eq_count, worst, 1e-6 * scale))

    print(f"{'check':24s} {'instances':>9s} {'max_err':>12s} {'tolerance':>12s} result")
    for name, count, err, tol in table:
        status = "PASS" if err <= tol else "FAIL"
        print(f"{name:24s} {count:9d} {err:12.3e} {tol:12.3e} {status}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehlink",
        description="Joint power/time/rate optimizer for an energy-harvesting link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-single", help="solve one block")
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_solve_single)

    sp = sub.add_parser("solve-multi", help="solve a multi-block problem")
    _add_param_flags(sp)
    sp.add_argument("--blocks", type=int, default=None)
    sp.add_argument("--g-list", dest="g_list", default=None)
    sp.set_defaults(func=cmd_solve_multi)

    sp = sub.add_parser("sweep-single", help="optimized vs constant-power sweep")
    _add_param_flags(sp)
    sp.add_argument("--sweep", action="append", required=True)
    sp.set_defaults(func=cmd_sweep_single)

    sp = sub.add_parser("region-map", help="winning-case map over (e_lim, e_avg)")
    _add_param_flags(sp)
    sp.add_argument("--sweep", action="append", required=True)
    sp.set_defaults(func=cmd_region_map)

    sp = sub.add_parser("sweep-multi", help="bound vs solver over e_avg")
    _add_param_flags(sp)
    sp.add_argument("--blocks", type=int, default=4)
    sp.add_argument("--sweep", action="append", required=True)
    sp.set_defaults(func=cmd_sweep_multi)

    sp = sub.add_parser("verify", help="oracle-vs-solver comparisons")
    _add_param_flags(sp)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--instances", type=int, default=20)
    sp.add_argument("--grid", default="500x500")
    sp.add_argument(
        "--tol-scale",
        dest="tol_scale",
        type=float,
        default=1.0,
        help="scale all verification tolerances (test hook)",
    )
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
