"""Brent's method for one bracketed scalar root, and the bracket search before it.

`brentq` is a port of scipy's ``brentq.c`` (the solver behind
``scipy.optimize.brentq``) with its control flow and every float operation,
so it returns the same float for the same function, bracket and tolerances.
It differs in one way: the caller passes f(a) and f(b), which every bracket
search here has already computed, so the two endpoint values are not
evaluated again.  `bracket_up` is the one doubling search that the
solvers' cold brackets share.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["SolverError", "bracket_up", "brentq"]

# scipy's smallest accepted rtol and its default iteration limit.
_MIN_RTOL = 4.0 * sys.float_info.epsilon
_MAX_ITER = 100


class SolverError(RuntimeError):
    """A solve could not finish: a root bracket left the float range, or an iteration failed."""


def _nan_error(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def bracket_up(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float
) -> tuple[float, float, float, float]:
    """(lo, hi, f_lo, f_hi) with f(hi) <= 0: hi doubles while f(hi) is not <= 0 (NaN too).

    f_lo is f(lo), which the caller knows.  Each failed hi becomes lo, with
    its value as f_lo.  Raises SolverError once hi leaves the floats.
    """
    f_hi = f(hi)
    while not f_hi <= 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi == math.inf:
            raise SolverError("no sign change of f within the float range")
        f_hi = f(hi)
    return lo, hi, f_lo, f_hi


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float,
    rtol: float,
    maxiter: int = _MAX_ITER,
) -> float:
    """Root of f in the float bracket [a, b], given fa = f(a) and fb = f(b).

    Raises ValueError for xtol <= 0, rtol < 4*eps, a NaN function value, or
    f(a) and f(b) of the same sign, and RuntimeError after maxiter
    iterations (scipy's default, 100, unless given), as scipy does.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_MIN_RTOL:g})")
    if fa != fa:
        raise _nan_error(a)
    if fb != fb:
        raise _nan_error(b)
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # Both values are non-zero and not NaN here, so x < 0 is C's signbit(x).
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    # C's loop, with each magnitude taken once per iteration.  A zero f
    # value returns at the top of the next iteration, as C's return test
    # does there (nothing before it moves a zero fcur), so below that every
    # f value is non-zero and not NaN, and C's "fpre != 0 && fcur != 0 &&
    # signbit(fpre) != signbit(fcur)" is the plain sign test.
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur == 0:
            return xcur
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        abs_pre = fpre if fpre > 0 else -fpre
        abs_cur = fcur if fcur > 0 else -fcur
        abs_blk = fblk if fblk > 0 else -fblk
        if abs_blk < abs_cur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            abs_pre, abs_cur = abs_cur, abs_blk

        delta = (xtol + rtol * (xcur if xcur > 0 else -xcur)) / 2
        sbis = (xblk - xcur) / 2
        abs_sbis = sbis if sbis > 0 else -sbis
        if abs_sbis < delta:
            return xcur

        abs_spre = spre if spre > 0 else -spre
        if abs_spre > delta and abs_cur < abs_pre:
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets inf or NaN here, and the test below then bisects.
                stry = math.inf
            limit = 3 * abs_sbis - delta
            if abs_spre < limit:
                limit = abs_spre
            if 2 * (stry if stry > 0 else -stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if (scur if scur > 0 else -scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_error(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
