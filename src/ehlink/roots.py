"""Brent's method for one bracketed scalar root.

`brentq` is a line-for-line port of scipy's ``brentq.c`` (the solver behind
``scipy.optimize.brentq``), so it returns the same float for the same
function, bracket and tolerances.  It differs in one way: the caller passes
f(a) and f(b), which every bracket search here has already computed, so the
two endpoint values are not evaluated again.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["brentq"]

# scipy's smallest accepted rtol and its default iteration limit.
_MIN_RTOL = 4.0 * sys.float_info.epsilon
_MAX_ITER = 100


def _nan_error(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


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
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
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
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_error(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
