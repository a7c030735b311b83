"""Single-block optimizer for the harvest-then-receive link.

The original four-variable problem (time split alpha, rate R, harvesting
energy e_e, information energy e_i) reduces, through the tight energy
causality and average-power constraints, to a two-variable problem over
(theta, e_i).  All local optima satisfy one of three equation systems:

  (a) interior trade-off:   M(theta) = 0 and N(e_i) = 0,
  (b) peak information power: e_i = e_lim and M(theta) = 0,
  (c) peak harvesting power:  the candidate lies on the e_e = e_lim boundary
      and solves h(theta) = 0 there.

`ranked_candidates` enumerates the three candidate families, filters
infeasible points and ranks the rest; `algorithm1` returns the best one
together with the recovered full solution.

A row of solves that differ only in e_avg (a region-map row, a sweep) can
share a `RowSeed`: each cell's case (c) root, and the theta* of its
`constant_power_baseline`, is then bracketed around a prediction from the
previous cells (natural-parameter continuation), and matches the unseeded
root to brentq's tolerance rather than bit for bit; the seed only records
roots.  No root function is evaluated at theta = 1: E(1) = 0 gives M(1),
h(1) and target - E(1) there.
The case (a)/(b) pairs depend on (eta, e_lim, model) only; their memo entry
carries E(theta) and C(e), which every cell with that key hands to
`feasible` and `objective`, so it scores them with no model call.
A cold key alternates from rising starts, each skipped or stopped at or
below the largest energy a finished start covered, and ended at a fixed
point or at a move against its last one (rounding); after its first fixed
point it scans the case (a) residual above it and stops when that shows no
second fixed point (`case_ab_pairs`).  Each `CandidateSolution` carries
the E(theta) it was scored with, and the winner's full solution reuses it.  The cold brackets
of the M-, N- and E-roots come from one doubling search, `roots.bracket_up`.
Without a seed every solve is cold and reproducible on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .channel import capacity, capacity_pair
from .decoder_energy import DecoderEnergyModel, inverse_energy
from .roots import SolverError, bracket_up, brentq

__all__ = [
    "Case",
    "SystemParams",
    "CandidateSolution",
    "FullSolution",
    "SolverError",
    "InfeasibleRecoveryError",
    "objective",
    "feasible",
    "m_function",
    "n_function",
    "solve_lemma3",
    "case_ab_pairs",
    "RowSeed",
    "solve_case_c",
    "recover_full",
    "ranked_candidates",
    "algorithm1",
    "constant_power_baseline",
]

FEAS_TOL = 1e-10
_FIXED_POINT_TOL = 1e-9
_DEDUP_TOL = 1e-6
_MAX_ALTERNATIONS = 500
_N_STARTS = 16
# Points of the phi scan that ends the case (a) start loop.  Against the full
# loop, over 4,000 random kinked-model keys (the tests' KINKED family, 1,628
# keys with two case (a) pairs), 16 points changed the pairs of 9 keys, 32 of
# 1 and 64 of none; 64 also changed none of 3,000 keys of both built-in
# families over edge_params' (eta, e_lim) domain.  A grid geometric in theta,
# not theta - 1, changed 2 kinked keys at 64: a basin just above theta_fp
# fell between its points.
_SCAN_POINTS = 64
# brentq's tolerances for case (c)'s root.
_XTOL, _RTOL = 1e-12, 8.9e-16
# Distinct (eta, e_lim, model) keys kept by the case (a)/(b) memo: a 40-row
# region map (one e_lim per row) fits with room to spare.
_AB_CACHE_SIZE = 64


class InfeasibleRecoveryError(ValueError):
    """The (theta, e_i) pair would require a time split outside [0, 1]."""


class Case(str, Enum):
    TRADE_OFF = "a"
    MAX_INFO_POWER = "b"
    MAX_HARVEST_POWER = "c"


@dataclass(frozen=True)
class SystemParams:
    """Scalar link constants shared by all solvers.

    eta: RF-to-DC conversion efficiency in (0, 1].
    g: net non-decoding receiver energy per channel use (overhead minus
       ambient harvest).  User-facing inputs require g >= 0 (`validate`);
       the multi-block solver builds internal copies with g shifted by the
       transfer variable, which may be negative.
    e_avg: average-power energy budget per channel use.
    e_lim: peak-power energy cap per channel use.
    """

    eta: float
    g: float
    e_avg: float
    e_lim: float

    def __post_init__(self):
        for name in ("eta", "g", "e_avg", "e_lim"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must be in (0, 1]")
        if not (0.0 <= self.e_avg < self.e_lim):
            raise ValueError("need 0 <= e_avg < e_lim")
        if self.eta * self.e_avg - self.g < -1e-12:
            raise ValueError("need eta * e_avg >= g (harvest must cover overhead)")

    def validate(self) -> "SystemParams":
        """Extra checks for user-facing inputs."""
        if self.g < 0:
            raise ValueError("g must be >= 0")
        return self

    @property
    def budget(self) -> float:
        """Net harvestable energy rate eta * e_avg - g."""
        return self.eta * self.e_avg - self.g


@dataclass(frozen=True)
class CandidateSolution:
    theta: float
    e_i: float
    case_label: Case
    objective: float
    energy: float  # E(theta), which the objective was scored with


@dataclass(frozen=True)
class FullSolution:
    alpha: float
    rate: float
    e_e: float
    e_i: float
    theta: float
    bits_per_use: float


def objective(
    theta: float,
    e_i: float,
    p: SystemParams,
    m: DecoderEnergyModel,
    budget: float | None = None,
    *,
    energy=None,
    c_e=None,
) -> float:
    """Reduced objective ((theta-1)/theta) * budget * C(e_i) / (eta*e_i + E(theta)).

    The budget defaults to the block's own eta*e_avg - g; budget=1.0 gives
    the normalized objective of the multi-block bound, which then depends
    on eta and the model only.  Returns 0 for the degenerate 0/0 point
    theta = 1, e_i = 0.  A caller that already holds energy = E(theta) or
    c_e = C(e_i) may pass it; the float is the same.
    """
    if energy is None:
        energy = m.evaluate(theta)
    denom = p.eta * e_i + energy
    if denom <= 0.0:
        return 0.0
    if budget is None:
        budget = p.budget
    return (theta - 1.0) / theta * budget * (capacity(e_i) if c_e is None else c_e) / denom


def feasible(
    theta: float, e_i: float, p: SystemParams, m: DecoderEnergyModel, *, energy=None
) -> bool:
    """Check the reduced problem's constraints within FEAS_TOL.

    A caller that already holds energy = E(max(theta, 1)) may pass it.
    """
    if energy is None:
        energy = m.evaluate(max(theta, 1.0))
    if not (-FEAS_TOL <= e_i <= p.e_lim + FEAS_TOL):
        return False
    if theta < 1.0 - FEAS_TOL:
        return False
    span = p.e_lim - p.e_avg
    lhs = energy + (p.eta * p.e_lim - p.g) / span * max(e_i, 0.0)
    rhs = p.budget / span * p.e_lim
    # The sides grow like 1/span, to 1e9 as e_avg nears e_lim: scale the tolerance.
    return lhs >= rhs - FEAS_TOL * max(1.0, rhs)


def _m_of_theta(e_i: float, p: SystemParams, m: DecoderEnergyModel):
    """theta -> M(theta) at fixed e_i, with eta*e_i taken once and E, E' from one call."""
    eta_e = p.eta * e_i
    evaluate_pair = m.evaluate_pair

    def m_of(theta: float) -> float:
        energy, slope = evaluate_pair(theta)
        return eta_e + energy - (theta - 1.0) * theta * slope

    return m_of


def _n_of_e(theta: float, p: SystemParams, m: DecoderEnergyModel):
    """e -> N(e) at fixed theta, with E(theta) taken once and C, C' from one crossover."""
    eta, energy = p.eta, m.evaluate(theta)

    def n_of(e_i: float) -> float:
        c, c_prime = capacity_pair(e_i)
        return c_prime * (eta * e_i + energy) - eta * c

    return n_of


def m_function(theta: float, e_i: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """M(theta) = eta*e_i + E(theta) - (theta-1)*theta*E'(theta); non-increasing."""
    return _m_of_theta(e_i, p, m)(theta)


def n_function(e_i: float, theta: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """N(e) = C'(e) * (eta*e + E(theta)) - eta*C(e); non-increasing in e."""
    return _n_of_e(theta, p, m)(e_i)


def _theta_star(e_i: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """Unique root of M(theta) = 0 for fixed e_i > 0."""
    f = _m_of_theta(e_i, p, m)
    try:  # M(1) = eta*e_i, as E(1) = 0; a NaN M (E past the floats) doubles on to the error
        lo, hi, f_lo, f_hi = bracket_up(f, 1.0, 2.0, p.eta * e_i)
    except SolverError:
        raise SolverError(
            f"no M-root within the float range at e_i = {e_i:g} with model {m.name}"
        ) from None
    return brentq(f, lo, hi, f_lo, f_hi, xtol=1e-12, rtol=8.9e-16)


def solve_lemma3(e_i: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """Constrained optimizer of theta for fixed e_i > 0: max(theta*, theta0)."""
    if not e_i > 0:
        raise ValueError("solve_lemma3 requires e_i > 0")
    # theta0 solves E(theta0) = the coupled constraint's floor on E at e_i.
    target = max(0.0, (p.budget * p.e_lim - (p.eta * p.e_lim - p.g) * e_i) / (p.e_lim - p.e_avg))
    return max(_theta_star(e_i, p, m), inverse_energy(m, target))


def _e_star(theta: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """Unique root of N(e) = 0 for fixed theta > 1."""
    f = _n_of_e(theta, p, m)
    f_lo = f(1e-12)
    if f_lo <= 0.0:
        # Root sits essentially at 0; cannot happen for theta > 1 with a
        # property-(1)/(2) model, so treat as solver failure.
        raise SolverError("N(0+) <= 0; energy model suspect")
    # N = -eta once C' underflows (e above about 745), so hi stops by e = 1024.
    try:
        lo, hi, f_lo, f_hi = bracket_up(f, 1e-12, 1.0, f_lo)
    except SolverError:
        raise SolverError(
            f"no N-root within the float range at theta = {theta:g} with model {m.name}"
        ) from None
    return brentq(f, lo, hi, f_lo, f_hi, xtol=1e-14, rtol=8.9e-16)


def case_ab_pairs(p: SystemParams, m: DecoderEnergyModel) -> list[tuple[float, float, Case]]:
    """All case (a) stationary pairs plus the case (b) pair.

    Depends only on eta, e_lim, and the energy model (not on e_avg or g), so
    the pairs are solved once per (eta, e_lim, model) and shared by every
    caller: the blocks of a multi-block problem, the points of a sweep, the
    cells of a region-map row.  The model is keyed by identity of its
    functions, so two models that merely share a name never share pairs.
    Each call returns a fresh list.
    Case (a) pairs come from alternating the unconstrained M- and N-roots to
    a fixed point from 16 log-spaced starting energies, in rising order.  The
    alternation map e -> e*(theta*(e)) is monotone (M rises in e and falls in
    theta, N falls in e and rises in theta), so an energy at or below the
    largest seed or end energy of a finished start flows to a fixed point
    already found: a start is skipped, or stops with no pair, once its energy
    is there.  So a start's iterates move one way, and a move against the
    last one is rounding (N's terms cancel at large theta*): the start ends
    there, at its last iterate.  Starts that fail or do not converge cover
    nothing.
    Once a start converges to (theta_fp, e_fp), the remaining starts can add a
    pair only through a second fixed point above e_fp.  F(e) > e exactly where
    phi(theta*(e)) > 0, with phi(theta) = N(e_a(theta); theta) the N residual
    along M = 0, so a scan of phi over (theta_fp, theta*(e_lim)] that finds it
    negative at every point ends the loop; otherwise the starts run on.  The
    scan samples phi at _SCAN_POINTS thetas, so a second basin narrower than
    its spacing could go unseen (see _SCAN_POINTS for how often).
    """
    return [(theta, e, case) for theta, e, case, _, _ in _case_ab_pairs(p.eta, p.e_lim, m)]


def _start_energies(e_lim: float) -> list[float]:
    """_N_STARTS log-spaced energies from 1e-3 * e_lim to e_lim.

    Both endpoints are exact, as numpy.geomspace sets them; an interior
    point may differ from numpy's by rounding in its log10 and power.
    """
    lo = 1e-3 * e_lim
    log_lo = math.log10(lo)
    step = (math.log10(e_lim) - log_lo) / (_N_STARTS - 1)
    return [lo, *(10.0 ** (i * step + log_lo) for i in range(1, _N_STARTS - 1)), float(e_lim)]


# typed=True keeps e.g. e_lim=3 and e_lim=3.0 apart, so the case (b) pair
# carries the caller's own e_lim value, exactly as an uncached solve would.
# Each entry is (theta, e, case, E(theta), C(e)): every cell of a row scores
# the key's pairs from these, and theta >= 1 makes E(theta) feasible's E too.
@functools.lru_cache(maxsize=_AB_CACHE_SIZE, typed=True)
def _case_ab_pairs(
    eta: float, e_lim: float, m: DecoderEnergyModel
) -> tuple[tuple[float, float, Case, float, float], ...]:
    # The root finders read only eta and e_lim from p.
    p = SystemParams(eta=eta, g=0.0, e_avg=0.0, e_lim=e_lim)
    pairs: list[tuple[float, float]] = []
    covered = -math.inf  # largest seed or end energy of a finished start
    theta_b = None  # theta*(e_lim): the case (b) root, and the scan's top
    for seed in _start_energies(p.e_lim):
        e = seed
        theta = math.inf
        converged = False
        step = 0.0  # the last move e_new - e
        try:
            for _ in range(_MAX_ALTERNATIONS):
                # e -> e*(theta*(e)) is monotone: e flows to a known fixed point.
                if e <= covered:
                    break
                theta_new = _theta_star(e, p, m)
                e_new = _e_star(theta_new, p, m)
                # A monotone F moves e one way; a move back is rounding.
                if (
                    abs(theta_new - theta) < _FIXED_POINT_TOL and abs(e_new - e) < _FIXED_POINT_TOL
                ) or (e_new - e) * step < 0.0:
                    theta, e = theta_new, e_new
                    converged = True
                    break
                theta, e, step = theta_new, e_new, e_new - e
            else:  # out of alternations: no fixed point, covers nothing
                continue
        except SolverError:
            continue
        covered = max(covered, seed, e)
        if converged and not any(
            abs(theta - t0) < _DEDUP_TOL and abs(e - e0) < _DEDUP_TOL for t0, e0 in pairs
        ):
            pairs.append((theta, e))
        if converged and theta_b is None:
            # Every later start lies in (seed, e_lim]: covered, or above e,
            # where it flows down to e unless a second fixed point lies
            # between.  So the first fixed point at or past e_lim, or a scan
            # that finds no second one, ends the loop.
            if e >= p.e_lim:
                break
            theta_b = _theta_star(p.e_lim, p, m)
            if _no_fixed_point_above(theta, theta_b, p, m):
                break
    if theta_b is None:
        theta_b = _theta_star(p.e_lim, p, m)
    out = [(t, e, Case.TRADE_OFF) for t, e in pairs]
    out.append((theta_b, p.e_lim, Case.MAX_INFO_POWER))
    return tuple(_memo_entry(t, e, case, m) for t, e, case in out)


def _phi_of_theta(p: SystemParams, m: DecoderEnergyModel):
    """theta -> phi(theta) = N(e_a(theta); theta), with E and E' from one call.

    e_a(theta) = ((theta-1)*theta*E'(theta) - E(theta))/eta is the e where
    M(theta; e) = 0, so theta*(e_a(theta)) = theta, and eta*e_a + E is
    w = (theta-1)*theta*E'.  N falls in e, so the alternation map F(e) =
    e*(theta*(e)) moves e up exactly where phi(theta*(e)) > 0.  NaN where
    e_a is not in (0, inf).
    """
    eta, evaluate_pair = p.eta, m.evaluate_pair

    def phi_of(theta: float) -> float:
        energy, slope = evaluate_pair(theta)
        w = (theta - 1.0) * theta * slope
        e_a = (w - energy) / eta
        if not 0.0 < e_a < math.inf:
            return math.nan
        c, c_prime = capacity_pair(e_a)
        return c_prime * w - eta * c

    return phi_of


def _no_fixed_point_above(
    theta_fp: float, theta_b: float, p: SystemParams, m: DecoderEnergyModel
) -> bool:
    """phi < 0 at _SCAN_POINTS thetas in (theta_fp, theta_b], geometric in theta - 1.

    theta_fp is a fixed point's theta and theta_b = theta*(e_lim), so the
    thetas stand for e in (e_fp, e_lim].  F is monotone: where F(e) < e
    there, every start in that span flows down to e_fp and adds no pair.
    Stops at the first phi that is not negative (NaN included).
    """
    if not theta_fp < theta_b:
        return True
    lo = theta_fp - 1.0
    if not lo > 0.0:
        return False
    phi_of = _phi_of_theta(p, m)
    step = ((theta_b - 1.0) / lo) ** (1.0 / _SCAN_POINTS)
    return all(phi_of(1.0 + lo * step**i) < 0.0 for i in range(1, _SCAN_POINTS)) and (
        phi_of(theta_b) < 0.0
    )


def _memo_entry(theta: float, e: float, case: Case, m: DecoderEnergyModel):
    """A memo entry (theta, e, case, E(theta), C(e)): one model call per pair."""
    return theta, e, case, m.evaluate(theta), capacity(e)


class RowSeed:
    """What one row of solves reuses from its earlier cells.

    A row is a run of solves that differ only in e_avg (a region-map row, a
    single-block sweep).  Pass one seed to every cell of the row, in row
    order.  It holds the last two (e_avg, root) pairs of two roots: case
    (c)'s theta_c, which `solve_case_c` reads and records, and the theta*
    of `constant_power_baseline` (M(theta; e_avg) = 0).  The row's case
    (a)/(b) pairs need no place here: their memo entry carries E and C, so
    a cell scores them with no model call.  A cell with zero budget or no
    case (c) root records nothing.
    """

    __slots__ = ("_cells",)

    def __init__(self):
        self._cells = [(), ()]  # theta_c's cells, then the baseline's theta*

    def _record(self, e_avg: float, theta: float, baseline: bool = False) -> None:
        self._cells[baseline] = (*self._cells[baseline][-1:], (e_avg, theta))

    def _bracket_root(self, e_avg: float, f, f_one: float, baseline: bool = False) -> float | None:
        """The root of a non-increasing f from a bracket around the extrapolated one.

        The root is predicted linearly in e_avg from the last two cells of
        theta_c (of theta* with `baseline`), with a half-width of 1/32 of
        the last move; the half-width doubles until f changes sign, finite
        at both ends.  The low end clamps at 1, where f_one is f(1).  None
        (fall back to the cold bracket) with fewer than two cells (an empty
        seed), a prediction outside (1, inf), an f that is not finite (past
        theta' for case (c)), or a low end clamped at 1 where f(1) is not
        positive: the cold bracket decides those.
        """
        cells = self._cells[baseline]
        if len(cells) < 2:
            return None
        (e0, t0), (e1, t1) = cells
        move = t1 - t0
        pred = t1 if e1 == e0 else t1 + move / (e1 - e0) * (e_avg - e1)
        if not 1.0 < pred < math.inf:
            return None
        # Floored at brentq's own tolerance, so a zero move still widens.
        width = max(abs(move) / 32.0, _XTOL + _RTOL * pred)
        lo, hi = max(1.0, pred - width), pred + width
        f_lo = f(lo) if lo > 1.0 else f_one
        if not math.isfinite(f_lo):
            return None
        if f_lo > 0.0:
            f_hi = f(hi)
            while f_hi > 0.0:  # the root is above hi: hi becomes lo
                width *= 2.0
                lo, f_lo, hi = hi, f_hi, pred + width
                f_hi = f(hi)
        else:
            hi, f_hi = lo, f_lo
            while f_lo < 0.0 and lo > 1.0:  # the root is below lo: lo becomes hi
                width *= 2.0
                hi, f_hi, lo = lo, f_lo, max(1.0, pred - width)
                f_lo = f(lo) if lo > 1.0 else f_one
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)) or (lo == 1.0 and not f_lo > 0.0):
            return None
        return brentq(f, lo, hi, f_lo, f_hi, xtol=_XTOL, rtol=_RTOL, maxiter=2000)


def solve_case_c(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> CandidateSolution | None:
    """Peak harvesting power: best point on the e_e = e_lim boundary.

    On that boundary e_i is an affine decreasing function of E(theta); the
    one-dimensional objective has non-increasing derivative proportional to
    h(theta), positive at theta = 1 and negative at theta' (where the
    boundary meets e_i = 0), so one bracketed root find (`roots.brentq`)
    gives the optimum.
    Returns None when no interior root exists: h(1) = (e_lim - top)*C(top)
    is not positive, with top the boundary's e_i at theta = 1 (E(1) = 0).

    Without a seed, the bracket is [1, theta' - gap], with theta' from
    `inverse_energy`.  With a `RowSeed` the bracket comes from the row's
    previous cells (`RowSeed._bracket_root`), and theta' is found only when
    that bracket falls back; the root then matches the cold one to brentq's
    tolerance (about 1e-12 relative), not bit for bit.  As e_avg nears e_lim
    h's terms cancel to a rounding band of relative width about
    eps*e_lim/(e_lim - e_avg), and the two roots may differ by that much;
    neither is the closer to the optimum.  The seed records each root found.
    """
    if p.budget <= 0.0:  # before capacity(top), which raises for top < 0
        return None
    # On the boundary e_i = top - k*E(theta), floored at 0.
    denom = p.eta * p.e_lim - p.g
    top = p.budget / denom * p.e_lim
    k = (p.e_lim - p.e_avg) / denom
    e_lim, evaluate_pair = p.e_lim, m.evaluate_pair

    def h(theta: float) -> float:
        energy, slope = evaluate_pair(theta)
        e = top - k * energy
        if not e > 0.0:
            return -math.inf
        c, c_rate = capacity_pair(e)
        e_prime = -k * slope
        c_prime = c_rate * e_prime
        q = theta * theta - theta
        gap = e_lim - e
        value = gap * c + q * gap * c_prime + q * c * e_prime
        # q * gap can overflow against a zero C' (inf * 0): h/q has h's sign and root.
        return value if value == value else gap * c / q + gap * c_prime + c * e_prime

    h_one = (e_lim - top) * capacity(top)
    if not h_one > 0.0:
        return None
    if seed is None:
        seed = RowSeed()
    # theta' solves E(theta') = target; a target past the floats is the cold
    # path's typed error, so the seeded path does not step around it.
    target = p.budget / (p.e_lim - p.e_avg) * p.e_lim
    theta = seed._bracket_root(p.e_avg, h, h_one) if target < math.inf else None
    if theta is None:
        theta = _cold_root(h, h_one, inverse_energy(m, target))
    energy = m.evaluate(theta)
    e_i = max(0.0, top - k * energy)
    seed._record(p.e_avg, theta)
    objective_c = objective(theta, e_i, p, m, energy=energy)
    return CandidateSolution(theta, e_i, Case.MAX_HARVEST_POWER, objective_c, energy)


def _cold_root(h, h_one: float, theta_prime: float) -> float:
    """h's root on [1, theta' - gap], the gap shrunk until h(theta' - gap) <= 0."""
    gap = max(1e-12, 1e-9 * (theta_prime - 1.0))
    hi = theta_prime - gap
    h_hi = h(hi) if hi > 1.0 else math.nan  # h is defined for theta >= 1 only
    while hi > 1.0 and h_hi > 0.0:
        gap *= 1e-2
        hi = theta_prime - gap
        h_hi = h(hi) if hi > 1.0 else math.nan
        if gap < 1e-15 * theta_prime:
            # Root indistinguishable from theta'; the boundary candidate has
            # e_i ~ 0 and negligible objective.
            break
    if not hi > 1.0 or h_hi > 0.0:
        return hi if hi > 1.0 else 1.0 + 1e-12
    # With e_avg a few ulps below e_lim, theta' passes 1e11 and brentq
    # can need more than scipy's 100 iterations (125 at most in a
    # 4000-draw probe); bisection from [1, float max] needs about 1065.
    return brentq(h, 1.0, hi, h_one, h_hi, xtol=_XTOL, rtol=_RTOL, maxiter=2000)


def recover_full(
    theta: float, e_i: float, p: SystemParams, m: DecoderEnergyModel, *, energy=None
) -> FullSolution:
    """Recover (alpha, R, e_e) from a feasible reduced pair.

    The energy-causality and average-power constraints hold with equality by
    construction.  A caller that already holds energy = E(theta) may pass it.
    """
    if energy is None:
        energy = m.evaluate(theta)
    # alpha*(eta*e_i + E) = eta*e_i + E - budget, formed so that it does not
    # cancel as e_i nears e_avg (a valid alpha near e_lim can be 1e-16).
    denom = p.eta * (e_i - p.e_avg) + energy + p.g
    if not denom > 0.0:
        raise InfeasibleRecoveryError(
            "eta*e_i + E(theta) must exceed the budget (alpha would leave [0, 1])"
        )
    e_e = (energy * p.e_avg + p.g * e_i) / denom
    if not math.isfinite(e_e):
        raise SolverError(
            f"recovered e_e = (E(theta)*e_avg + g*e_i)/(alpha*(eta*e_i + E)) is not "
            f"within the float range at theta = {theta:g}, e_i = {e_i:g} with model {m.name}"
        )
    return _full_solution(theta, e_i, e_e, energy, p)


def _full_solution(
    theta: float, e_i: float, e_e: float, energy: float, p: SystemParams
) -> FullSolution:
    """Time split, rate and bits of a pair whose e_e is known; energy = E(theta).

    The receiving share 1 - alpha = budget/(eta*e_i + E) is formed once and
    gives the bits, so a share too small to move alpha off 1 still counts.
    A share that rounds past 1 (e_avg within ulps of e_lim) gives alpha = 0.
    """
    share = p.budget / (p.eta * e_i + energy)
    rate = (theta - 1.0) / theta * capacity(e_i)
    return FullSolution(max(0.0, 1.0 - share), rate, e_e, e_i, theta, share * rate)


def _zero_solution(p: SystemParams) -> tuple[CandidateSolution, FullSolution]:
    cand = CandidateSolution(1.0, 0.0, Case.TRADE_OFF, 0.0, 0.0)  # E(1) = 0
    full = FullSolution(1.0, 0.0, p.e_avg, 0.0, 1.0, 0.0)
    return cand, full


def ranked_candidates(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> list[CandidateSolution]:
    """Feasible case (a)/(b)/(c) candidates, best objective first.

    Feasibility is checked before an objective is computed; case (a)/(b)
    pairs are scored from the E and C in their memo entry, and every theta
    here is >= 1, so each candidate's E(theta) is also the E `feasible`
    reads.  The sort is stable, so ties keep the a, b, c enumeration order
    and the first entry is the first maximizer in that order.  A row's
    `seed` goes to `solve_case_c`.  Case (b) is feasible at every finite
    valid input, so an empty ranking is a `SolverError`.
    """
    ranked = [
        CandidateSolution(t, e, case, objective(t, e, p, m, energy=energy, c_e=c_e), energy)
        for t, e, case, energy, c_e in _case_ab_pairs(p.eta, p.e_lim, m)
        if feasible(t, e, p, m, energy=energy)
    ]
    cand = solve_case_c(p, m, seed=seed)
    if cand is not None and feasible(cand.theta, cand.e_i, p, m, energy=cand.energy):
        ranked.append(cand)
    if not ranked:
        raise SolverError("no feasible candidate; internal consistency failure")
    return sorted(ranked, key=lambda c: c.objective, reverse=True)


def algorithm1(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> tuple[CandidateSolution, FullSolution]:
    """Globally optimal single-block solution.

    Takes the top-ranked feasible candidate and recovers its full solution.
    A row's `seed` goes to `solve_case_c`.
    """
    if p.budget <= 0.0:
        return _zero_solution(p)
    best = ranked_candidates(p, m, seed=seed)[0]
    if best.case_label is Case.MAX_HARVEST_POWER:  # e_e = e_lim; recover_full's would round
        return best, _full_solution(best.theta, best.e_i, p.e_lim, best.energy, p)
    return best, recover_full(best.theta, best.e_i, p, m, energy=best.energy)


def constant_power_baseline(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> FullSolution:
    """No-power-optimization comparator: e_e = e_i = e_avg, theta optimized.

    With e_e = e_i = e_avg, alpha = 1 - budget/(eta*e_avg + E(theta)) lies in
    [0, 1] for any theta, so no recovery check applies.
    theta is theta*, the root of M(theta; e_avg): at e_i = e_e = e_avg the
    coupled constraint reads E(theta) >= -g, which g >= 0 meets everywhere,
    so `solve_lemma3`'s theta0 floor is 1.  With a row's `seed`, theta*
    (M is non-increasing with M(1) = eta*e_avg, as E(1) = 0) is bracketed
    around the row's extrapolated theta* (`RowSeed._bracket_root`) and
    matches the cold root to brentq's tolerance.
    """
    if p.budget <= 0.0 or p.e_avg == 0.0:
        return _zero_solution(p)[1]
    if seed is None:
        seed = RowSeed()
    f = _m_of_theta(p.e_avg, p, m)
    theta = seed._bracket_root(p.e_avg, f, p.eta * p.e_avg, baseline=True)
    if theta is None:
        theta = _theta_star(p.e_avg, p, m)
    seed._record(p.e_avg, theta, baseline=True)
    return _full_solution(theta, p.e_avg, p.e_avg, m.evaluate(theta), p)
