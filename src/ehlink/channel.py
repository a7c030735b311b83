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


def capacity(e_i):
    """BSC capacity 1 - H2(crossover(e_i)) in bits per channel use.

    Returns 0 at e_i = 0 (crossover 1/2) and tends to 1 as e_i grows.  The
    0*log(0) convention is applied, so the limit crossover -> 0 is exact.
    The crossover is computed here, with the floats `crossover` gives; an
    input outside [0, inf) goes through `crossover` for its error.
    """
    if not 0.0 <= e_i < math.inf:
        crossover(e_i)  # raises for e_i < 0, inf and NaN
    eps = 0.5 * math.erfc(math.sqrt(2.0 * e_i) / _SQRT2)
    if eps <= 0.0:
        return 1.0
    if eps >= 0.5:
        return 0.0
    c = 1.0 + (eps * math.log2(eps) + (1.0 - eps) * math.log2(1.0 - eps))
    return 0.0 if c < 0.0 else (1.0 if c > 1.0 else c)  # c clipped to [0, 1]


def capacity_pair(e_i):
    """(C(e_i), C'(e_i)) from one crossover eps, for e_i > 0.

    C' = [log2(1-eps) - log2(eps)] * exp(-e_i) / (sqrt(4*pi) * sqrt(e_i)).
    That formula is singular at e_i = 0, which is rejected; the solvers never
    need the derivative there.  Once eps underflows to 0 (e_i above about
    745) the true C' is below 1e-300, and 0.0 is returned.  Both floats are
    the ones `capacity` and that formula give, and an input outside (0, inf)
    raises what they raise.
    """
    if not 0.0 < e_i < math.inf:
        crossover(e_i)  # raises for e_i < 0, inf and NaN
        raise ValueError("capacity_pair requires e_i > 0")
    eps = 0.5 * math.erfc(math.sqrt(2.0 * e_i) / _SQRT2)
    if eps <= 0.0:
        return 1.0, 0.0
    if eps >= 0.5:
        return 0.0, 0.0
    log_eps, log_rest = math.log2(eps), math.log2(1.0 - eps)
    c = 1.0 + (eps * log_eps + (1.0 - eps) * log_rest)
    c_prime = (log_rest - log_eps) * _INV_SQRT_4PI * math.exp(-e_i) / math.sqrt(e_i)
    return 0.0 if c < 0.0 else (1.0 if c > 1.0 else c), c_prime
