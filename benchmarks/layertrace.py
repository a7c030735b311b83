"""Per-layer tracing for the benchmark's traced run, from outside the program.

`Tracer.install` replaces the listed public functions of ``ehlink`` in every
module namespace that binds them (``capacity`` is bound in ``channel``,
``single_block``, ``multi_block``, ``oracle`` and the package itself), so no
call through a missed namespace goes unmeasured. Nothing under ``src/``
changes.

Three kinds of wrapper:

* span: coarse calls (``cli.main``, ``algorithm1``, ``case_ab_pairs``,
  ``iterative_solver``, ``lp_step``, ``linprog``, the oracles). Each keeps a
  span in memory with its op id (one op per ``cli.main`` call) and its parent
  span; the spans are written out when the run ends.
* timed: aggregate calls, self and total time, without spans. The hot scalar
  ``capacity`` and ``capacity_derivative`` also count array elements.
* counted: calls only, for the hottest scalar helpers (``m_function``,
  ``n_function``, the decoder model's ``evaluate``), whose time stays with
  their caller.

Self time is a call's own time, excluding the time of wrapped calls made
inside it; every second inside ``cli.main`` lands in exactly one wrapper's
self time, so the layer shares add up to 1.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import numpy as np

LAYERS = ("channel", "decoder_energy", "single_block", "multi_block", "oracle", "cli")

SPANNED = (
    ("cli", "main"),
    ("single_block", "algorithm1"),
    ("single_block", "case_ab_pairs"),
    ("multi_block", "iterative_solver"),
    ("multi_block", "lp_step"),
    ("multi_block", "linprog"),
    ("oracle", "grid_search_p2"),
    ("oracle", "grid_search_p8"),
    ("oracle", "enumerate_lp_vertices"),
)
TIMED = (
    ("channel", "capacity"),
    ("channel", "capacity_derivative"),
    ("decoder_energy", "inverse_energy"),
    ("single_block", "solve_case_c"),
    ("single_block", "constant_power_baseline"),
    ("single_block", "feasible"),
)
COUNTED = (
    ("single_block", "m_function"),
    ("single_block", "n_function"),
    ("multi_block", "solve_p8"),
    ("multi_block", "threshold_u"),
)
MODEL_FACTORIES = ("parse_model", "theta_log_theta_model", "power_law_model")
BLOCK_SIZES = (4, 6, 24, 60)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "elems", "hits", "hit_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.elems = 0
        self.hits = 0  # calls with a property: scalar, cold, feasible, repeated key
        self.hit_s = 0.0


class Tracer:
    """Wraps ehlink's public functions and aggregates what they do."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.by_n: dict[tuple[str, int], list] = {}
        self.spans: list[tuple] = []
        self.achieved = 0
        self.solver_lp_steps = 0
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._child = 0.0
        self._span = 0
        self._next_span = 1
        self._op = 0
        self._op_keys: set = set()
        self._in_solver = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # ------------------------------------------------------------- installing

    def install(self) -> None:
        import ehlink.cli  # noqa: F401  (loads every ehlink module)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "ehlink" or name.startswith("ehlink.")
        }
        plan = {}
        for kind, table in (("span", SPANNED), ("timed", TIMED), ("counted", COUNTED)):
            for layer, fname in table:
                fn = getattr(modules.get(f"ehlink.{layer}"), fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                plan[id(fn)] = (fn, self._wrap(kind, f"{layer}.{fname}", fn))
        for fname in MODEL_FACTORIES:
            fn = getattr(modules["ehlink.decoder_energy"], fname, None)
            if fn is None:
                self.missing.append(f"decoder_energy.{fname}")
                continue
            plan[id(fn)] = (fn, self._factory(fn))
        for mod_name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                entry = plan.get(id(value))
                if entry is not None and entry[0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
                    self.bindings.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    # --------------------------------------------------------------- wrappers

    def _wrap(self, kind: str, name: str, fn):
        stat = self.stat(name)
        clock = time.perf_counter
        tr = self
        if kind == "counted":

            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "timed" and name.startswith("channel."):

            def hot(e_i, *args, **kwargs):
                saved = tr._child
                tr._child = 0.0
                t0 = clock()
                try:
                    return fn(e_i, *args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat.calls += 1
                    stat.self_s += dt - tr._child
                    stat.total_s += dt
                    tr._child = saved + dt
                    if isinstance(e_i, (float, int)):
                        stat.elems += 1
                        stat.hits += 1
                        stat.hit_s += dt
                    else:
                        stat.elems += int(np.size(e_i))

            return hot

        before, after = _HOOKS.get(name, (None, None))
        spanned = kind == "span"

        def timed(*args, **kwargs):
            ctx = before(tr, stat, args, kwargs) if before else None
            saved = tr._child
            tr._child = 0.0
            parent = tr._span
            if spanned:
                sid = tr._next_span
                tr._next_span += 1
                tr._span = sid
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.calls += 1
                stat.self_s += dt - tr._child
                stat.total_s += dt
                tr._child = saved + dt
                if spanned:
                    tr._span = parent
                    tr.spans.append((sid, parent, tr._op, name, t0, t1, ctx))
                if after:
                    after(tr, stat, ctx, result, dt)

        return timed

    def _factory(self, fn):
        """Wrap a model factory so the models it returns count `evaluate` calls."""
        stat = self.stat("decoder_energy.evaluate")

        def factory(*args, **kwargs):
            model = fn(*args, **kwargs)
            evaluate = model.evaluate
            if getattr(evaluate, "counted", False):
                return model

            def counted(theta):
                stat.calls += 1
                return evaluate(theta)

            counted.counted = True
            return replace(model, evaluate=counted)

        return factory

    # ---------------------------------------------------------------- summary

    def metrics(self, output_bytes: int, points: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Counts and self times are per point, so that runs which complete
        different numbers of cycles in their time compare directly.
        """
        s = self.stat
        wall = s("cli.main").total_s
        out: dict[str, tuple[float, str]] = {}

        def ratio(a, b):
            return a / b if b else 0.0

        def calls_self(name, calls=True, self_s=True):
            if calls:
                out[f"{name}.calls"] = (ratio(s(name).calls, points), "count/point")
            if self_s:
                out[f"{name}.self_s"] = (ratio(s(name).self_s, points), "s/point")

        for name in ("channel.capacity", "channel.capacity_derivative"):
            calls_self(name)
            out[f"{name}.elems"] = (ratio(s(name).elems, points), "count/point")
        cap = s("channel.capacity")
        out["channel.capacity.scalar_us"] = (1e6 * ratio(cap.hit_s, cap.hits), "us")

        calls_self("decoder_energy.inverse_energy")
        calls_self("decoder_energy.evaluate", self_s=False)

        ab = s("single_block.case_ab_pairs")
        calls_self("single_block.case_ab_pairs")
        out["single_block.case_ab_pairs.repeat_share"] = (ratio(ab.hits, ab.calls), "frac")
        out["single_block.case_ab_pairs.ms"] = (1e3 * ratio(ab.total_s, ab.calls), "ms")
        calls_self("single_block.m_function", self_s=False)
        calls_self("single_block.n_function", self_s=False)
        alg = s("single_block.algorithm1")
        calls_self("single_block.algorithm1")
        out["single_block.algorithm1.cold_calls"] = (ratio(alg.hits, points), "count/point")
        out["single_block.algorithm1.cold_ms"] = (1e3 * ratio(alg.hit_s, alg.hits), "ms")
        warm_calls = alg.calls - alg.hits
        warm_s = alg.total_s - alg.hit_s
        out["single_block.algorithm1.warm_ms"] = (1e3 * ratio(warm_s, warm_calls), "ms")
        case_c = s("single_block.solve_case_c")
        calls_self("single_block.solve_case_c", calls=False)
        out["single_block.solve_case_c.ms"] = (1e3 * ratio(case_c.total_s, case_c.calls), "ms")
        feas = s("single_block.feasible")
        out["single_block.feasible.pass_ratio"] = (ratio(feas.hits, feas.calls), "frac")
        calls_self("single_block.constant_power_baseline", calls=False)

        solver = s("multi_block.iterative_solver")
        calls_self("multi_block.iterative_solver")
        calls_self("multi_block.lp_step")
        calls_self("multi_block.linprog")
        out["multi_block.lp_step.per_solve"] = (ratio(self.solver_lp_steps, solver.calls), "count")
        calls_self("multi_block.solve_p8", self_s=False)
        calls_self("multi_block.threshold_u", self_s=False)
        out["multi_block.achievable_share"] = (ratio(self.achieved, solver.calls), "frac")
        for n in BLOCK_SIZES:
            calls, total = self.by_n.get(("multi_block.iterative_solver", n), (0, 0.0))
            out[f"multi_block.iterative_solver.ms_n{n}"] = (1e3 * ratio(total, calls), "ms")
        for n in BLOCK_SIZES[1:]:
            calls, total = self.by_n.get(("multi_block.lp_step", n), (0, 0.0))
            out[f"multi_block.lp_step.ms_n{n}"] = (1e3 * ratio(total, calls), "ms")
        sizes = {n: c for (name, n), (c, _) in self.by_n.items() if name.endswith("solver")}
        small = sum(c for n, c in sizes.items() if n <= 4)
        out["multi_block.mix_n1_4"] = (ratio(small, solver.calls), "frac")
        for n in BLOCK_SIZES[1:]:
            out[f"multi_block.mix_n{n}"] = (ratio(sizes.get(n, 0), solver.calls), "frac")

        for name in ("grid_search_p2", "grid_search_p8", "enumerate_lp_vertices"):
            calls_self(f"oracle.{name}")

        calls_self("cli.main", calls=False)
        out["cli.output_bytes"] = (ratio(output_bytes, points), "bytes/point")

        for layer in LAYERS:
            own = sum(st.self_s for nm, st in self.stats.items() if nm.split(".")[0] == layer)
            out[f"{layer}.share"] = (ratio(own, wall), "frac")
        return out


def _count_n(tr, name, n, dt):
    entry = tr.by_n.setdefault((name, n), [0, 0.0])
    entry[0] += 1
    entry[1] += dt


def _main_before(tr, stat, args, kwargs):
    tr._op += 1
    tr._op_keys = set()
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


def _alg1_before(tr, stat, args, kwargs):
    ab_pairs = args[2] if len(args) > 2 else kwargs.get("ab_pairs")
    return {"cold": ab_pairs is None}


def _alg1_after(tr, stat, ctx, result, dt):
    if ctx["cold"]:
        stat.hits += 1
        stat.hit_s += dt


def _ab_before(tr, stat, args, kwargs):
    p, m = args[0], args[1]
    key = (p.eta, p.e_lim, m.name)
    repeat = key in tr._op_keys
    tr._op_keys.add(key)
    if repeat:
        stat.hits += 1
    return {"repeat": repeat}


def _solver_before(tr, stat, args, kwargs):
    tr._in_solver += 1
    return {"n": args[0].n_blocks}


def _solver_after(tr, stat, ctx, result, dt):
    tr._in_solver -= 1
    _count_n(tr, "multi_block.iterative_solver", ctx["n"], dt)
    if result is not None and result.bound_achieved:
        tr.achieved += 1


def _lp_before(tr, stat, args, kwargs):
    if tr._in_solver:
        tr.solver_lp_steps += 1
    return {"n": args[0].n_blocks}


def _lp_after(tr, stat, ctx, result, dt):
    _count_n(tr, "multi_block.lp_step", ctx["n"], dt)


def _feasible_after(tr, stat, ctx, result, dt):
    if result:
        stat.hits += 1


_HOOKS = {
    "cli.main": (_main_before, None),
    "single_block.algorithm1": (_alg1_before, _alg1_after),
    "single_block.case_ab_pairs": (_ab_before, None),
    "multi_block.iterative_solver": (_solver_before, _solver_after),
    "multi_block.lp_step": (_lp_before, _lp_after),
    "single_block.feasible": (None, _feasible_after),
}
