"""Hard-decision BPSK over AWGN as a binary symmetric channel.

Energies are per channel use, normalized to unit noise density (N0 = 1).
The crossover probability of the equivalent BSC is Q(sqrt(2*e)) where e is
the information-signal energy per channel use, and the capacity is
1 - H2(crossover) bits per channel use.

All functions take a float and are pure.
"""

from __future__ import annotations

import math

__all__ = ["q_function", "crossover", "capacity", "capacity_pair"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_4PI = 1.0 / math.sqrt(4.0 * math.pi)


def q_function(x):
    """Upper-tail probability of the standard normal distribution.

    Evaluated through the complementary error function, which is accurate to
    full double precision over the whole real line.
    """
    if not math.isfinite(x):
        raise ValueError("q_function requires finite input")
    return 0.5 * math.erfc(x / _SQRT2)


def crossover(e_i):
    """BSC crossover probability Q(sqrt(2*e_i)) for signal energy e_i >= 0."""
    if e_i < 0:
        raise ValueError("energy per channel use must be >= 0")
    return q_function(math.sqrt(2.0 * e_i))


def _capacity_terms(e_i):
    """C(e_i) and the log ratio log2(1-eps) - log2(eps), from one crossover eps.

    The 0*log(0) convention is applied so the limit eps -> 0 is exact: C is
    then 1, and the ratio is None, since no log of eps exists.  At eps = 1/2
    both are exactly 0.
    """
    eps = crossover(e_i)
    if eps <= 0.0:
        return 1.0, None
    if eps >= 0.5:
        return 0.0, 0.0
    log_eps, log_rest = math.log2(eps), math.log2(1.0 - eps)
    c = 1.0 + (eps * log_eps + (1.0 - eps) * log_rest)
    return min(max(c, 0.0), 1.0), log_rest - log_eps


def capacity(e_i):
    """BSC capacity 1 - H2(crossover(e_i)) in bits per channel use.

    Returns 0 at e_i = 0 (crossover 1/2) and tends to 1 as e_i grows.
    """
    return _capacity_terms(e_i)[0]


def capacity_pair(e_i):
    """(C(e_i), C'(e_i)) from one crossover eps, for e_i > 0.

    C' = [log2(1-eps) - log2(eps)] * exp(-e_i) / (sqrt(4*pi) * sqrt(e_i)).
    That formula is singular at e_i = 0, which is rejected; the solvers never
    need the derivative there.  Once eps underflows to 0 (e_i above about
    745) the true C' is below 1e-300, and 0.0 is returned.
    """
    c, log_ratio = _capacity_terms(e_i)
    if e_i <= 0:
        raise ValueError("capacity_pair requires e_i > 0")
    if log_ratio is None:
        return c, 0.0
    return c, log_ratio * _INV_SQRT_4PI * math.exp(-e_i) / math.sqrt(e_i)
