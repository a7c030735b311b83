"""Decoder energy curves as functions of the inverse capacity gap theta.

A model maps theta = C/(C - R) >= 1 to the decoding energy per channel use.
Every model must be zero at theta = 1, non-decreasing, convex, and unbounded
as theta grows, and must supply its exact derivative with its value (the
solvers read both at each theta they visit).  The solvers take E(1) = 0 as
given and never call a model at theta = 1, so a model must return exactly
0.0 there.  A value past the float range is returned as inf, never raised.
Two built-ins are provided: theta*log2(theta), which matches
iterative-decoding complexity results for LDPC codes, and a power-law
family c*(theta-1)^p for exercising solver generality; the solvers take it
at any c > 0 and p >= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .roots import SolverError, bracket_up, brentq

__all__ = [
    "DecoderEnergyModel",
    "theta_log_theta_model",
    "power_law_model",
    "parse_model",
    "inverse_energy",
]

_LOG2E = 1.0 / math.log(2.0)
_THETA_SLACK = 1e-12


@dataclass(frozen=True)
class DecoderEnergyModel:
    """Immutable decoding-energy curve with its derivative.

    `evaluate` takes a float theta >= 1 and returns E(theta); `evaluate_pair`
    returns (E(theta), E'(theta)) from one check of theta, its E bit for bit
    the float `evaluate` returns.
    """

    name: str
    evaluate: Callable
    evaluate_pair: Callable


def _check_theta(theta):
    if theta < 1.0 - _THETA_SLACK:
        raise ValueError("theta must be >= 1")
    t = float(theta)
    return 1.0 if t < 1.0 else t  # max(t, 1.0), without the builtin call


def theta_log_theta_model() -> DecoderEnergyModel:
    """E(theta) = theta * log2(theta), E'(theta) = log2(theta) + 1/ln(2)."""

    def evaluate(theta):
        t = _check_theta(theta)
        return t * math.log2(t)

    def evaluate_pair(theta):
        t = _check_theta(theta)
        log_t = math.log2(t)
        return t * log_t, log_t + _LOG2E

    return DecoderEnergyModel("theta-log-theta", evaluate, evaluate_pair)


def power_law_model(c: float = 1.0, p: float = 2.0) -> DecoderEnergyModel:
    """E(theta) = c * (theta - 1)^p with c > 0 and p >= 1."""
    for name, value in (("c", c), ("p", p)):
        if not math.isfinite(value):
            raise ValueError(f"power-law {name} must be finite, got {value!r}")
    if not c > 0:
        raise ValueError("power-law coefficient c must be > 0")
    if not p >= 1:
        raise ValueError("power-law exponent p must be >= 1")

    def evaluate(theta):
        t = _check_theta(theta)
        try:
            return c * (t - 1.0) ** p
        except OverflowError:  # (theta - 1)^p is past the float range
            return math.inf

    def evaluate_pair(theta):
        t = _check_theta(theta)
        try:
            return c * (t - 1.0) ** p, c * p * (t - 1.0) ** (p - 1.0)
        except OverflowError:  # E is past the float range; E' may not be
            try:
                return math.inf, c * p * (t - 1.0) ** (p - 1.0)
            except OverflowError:
                return math.inf, math.inf

    return DecoderEnergyModel(f"power-law:c={c:g},p={p:g}", evaluate, evaluate_pair)


@functools.cache
def parse_model(spec: str) -> DecoderEnergyModel:
    """Build a model from a CLI spec string; one model object per spec.

    Accepted forms: ``theta-log-theta``, or ``power-law`` alone or with
    ``:c=<float>,p=<float>``.
    A repeated spec returns the same (frozen) model, so solver memos keyed
    on the model carry over between calls.  Rejected specs are not cached.
    """
    spec = spec.strip()
    if spec == "theta-log-theta":
        return theta_log_theta_model()
    name, _, args = spec.partition(":")
    if name == "power-law":
        kwargs = {}
        if args:
            for item in args.split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                if key not in ("c", "p"):
                    raise ValueError(f"unknown power-law parameter {key!r}")
                if key in kwargs:
                    raise ValueError(f"power-law {key} is given twice")
                try:
                    kwargs[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"power-law {key} must be a number, got {value!r}"
                    ) from None
        return power_law_model(**kwargs)
    raise ValueError(f"unknown decoder energy model {spec!r}")


def inverse_energy(model: DecoderEnergyModel, target: float) -> float:
    """Return theta >= 1 with model.evaluate(theta) == target.

    Brent's method (`roots.brentq`) on target - E over [1, hi], with hi
    doubled from 2 by `roots.bracket_up`; existence is guaranteed by the
    model growing without bound.  A convex, non-decreasing, unbounded model
    grows at least linearly, so hi may double until it leaves the floats.
    A target of inf or NaN raises `SolverError`, as does one the model
    reaches only past the floats (a NaN value counts as not reached).
    """
    if target < 0:
        raise ValueError("target energy must be >= 0")
    if target == 0.0:
        return 1.0
    if not target < math.inf:  # the bracket below would hand brentq inf - inf
        raise SolverError(
            f"decoder energy model {model.name} cannot reach target energy {target:g}: "
            "it is not within the float range"
        )

    def f(t: float) -> float:
        return target - model.evaluate(t)

    try:  # f(1) = target, as E(1) = 0
        _, hi, _, f_hi = bracket_up(f, 1.0, 2.0, target)
    except SolverError:
        raise SolverError(
            f"decoder energy model {model.name} does not reach {target:g} "
            "within the float range"
        ) from None
    # The bracket keeps its low end at 1, not the moved lo.  brentq's iterates
    # are odd in f, so this is also the root of E(t) - target, bit for bit.
    return brentq(f, 1.0, hi, target, f_hi, xtol=1e-13, rtol=8.9e-16)
