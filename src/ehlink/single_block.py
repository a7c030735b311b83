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
root to brentq's tolerance rather than bit for bit.  A seeded case (c)
cell evaluates h(1) only when its bracket reaches theta = 1 or falls back,
or when rounding may hide its sign (`solve_case_c`).
The case (a)/(b) pairs depend on (eta, e_lim, model) only; their memo entry
carries E(theta) and C(e), so every cell with that key scores them by
arithmetic alone, with the same floats `feasible` and `objective` give.
Without a seed every solve is cold and reproducible on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .channel import capacity, capacity_pair
from .decoder_energy import DecoderEnergyModel, inverse_energy
from .roots import SolverError, brentq

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
# brentq's tolerances for case (c)'s root.
_XTOL, _RTOL = 1e-12, 8.9e-16
# capacity(e) > 0 for every e >= this: C(e), about 0.92*e here, is formed as
# 1 - (1 - 0.92*e), which rounds to 0 only below about 2e-16.
_E_C_POSITIVE = 1e-12
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
) -> float:
    """Reduced objective ((theta-1)/theta) * budget * C(e_i) / (eta*e_i + E(theta)).

    The budget defaults to the block's own eta*e_avg - g; budget=1.0 gives
    the normalized objective of the multi-block bound, which then depends
    on eta and the model only.  Returns 0 for the degenerate 0/0 point
    theta = 1, e_i = 0.
    """
    return _objective(theta, e_i, m.evaluate(theta), p, budget)


def _objective(
    theta: float, e_i: float, energy: float, p: SystemParams, budget=None, c_e=None
) -> float:
    """`objective` with energy = E(theta) given, and C(e_i) if c_e is given."""
    denom = p.eta * e_i + energy
    if denom <= 0.0:
        return 0.0
    if budget is None:
        budget = p.budget
    return (theta - 1.0) / theta * budget * (capacity(e_i) if c_e is None else c_e) / denom


def feasible(theta: float, e_i: float, p: SystemParams, m: DecoderEnergyModel) -> bool:
    """Check the reduced problem's constraints within FEAS_TOL."""
    return _feasible(theta, e_i, m.evaluate(max(theta, 1.0)), p)


def _feasible(theta: float, e_i: float, energy: float, p: SystemParams) -> bool:
    """`feasible` with energy = E(max(theta, 1)) given."""
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
    lo, hi = 1.0, 2.0
    f_lo, f_hi = None, f(hi)
    while not f_hi <= 0.0:  # a NaN M (E past the floats) doubles on to the error
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi == math.inf:
            raise SolverError(
                f"no M-root within the float range at e_i = {e_i:g} with model {m.name}"
            )
        f_hi = f(hi)
    if f_lo is None:
        f_lo = f(lo)
    return brentq(f, lo, hi, f_lo, f_hi, xtol=1e-12, rtol=8.9e-16)


def _theta0(e_i: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    span = p.e_lim - p.e_avg
    target = max(0.0, (p.budget * p.e_lim - (p.eta * p.e_lim - p.g) * e_i) / span)
    return inverse_energy(m, target)


def solve_lemma3(e_i: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """Constrained optimizer of theta for fixed e_i > 0: max(theta*, theta0)."""
    if not e_i > 0:
        raise ValueError("solve_lemma3 requires e_i > 0")
    return max(_theta_star(e_i, p, m), _theta0(e_i, p, m))


def _e_star(theta: float, p: SystemParams, m: DecoderEnergyModel) -> float:
    """Unique root of N(e) = 0 for fixed theta > 1."""
    f = _n_of_e(theta, p, m)
    lo, hi = 1e-12, 1.0
    f_lo = f(lo)
    if f_lo <= 0.0:
        # Root sits essentially at 0; cannot happen for theta > 1 with a
        # property-(1)/(2) model, so treat as solver failure.
        raise SolverError("N(0+) <= 0; energy model suspect")
    f_hi = f(hi)
    # N = -eta once C' underflows (e above about 745), so hi stops by e = 1024.
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = f(hi)
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
    a fixed point from 16 log-spaced starting energies.  The alternation map
    e -> e*(theta*(e)) is monotone (M rises in e and falls in theta, N falls
    in e and rises in theta), so every energy between a start and the fixed
    point it reached flows to that same point.  A later start inside such a
    span is skipped, and a running start stops with no pair once it enters
    one.  Starts that fail or do not converge are discarded and cover no span.
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
    resolved: list[tuple[float, float]] = []  # e-spans of finished starts
    for seed in _start_energies(p.e_lim):
        e = seed
        theta = math.inf
        converged = False
        try:
            for _ in range(_MAX_ALTERNATIONS):
                # e -> e*(theta*(e)) is monotone: e flows to that span's fixed point.
                if any(lo <= e <= hi for lo, hi in resolved):
                    break
                theta_new = _theta_star(e, p, m)
                e_new = _e_star(theta_new, p, m)
                if abs(theta_new - theta) < _FIXED_POINT_TOL and abs(e_new - e) < _FIXED_POINT_TOL:
                    theta, e = theta_new, e_new
                    converged = True
                    break
                theta, e = theta_new, e_new
            else:  # out of alternations: no fixed point, no span
                continue
        except SolverError:
            continue
        resolved.append((min(seed, e), max(seed, e)))
        if converged and not any(
            abs(theta - t0) < _DEDUP_TOL and abs(e - e0) < _DEDUP_TOL for t0, e0 in pairs
        ):
            pairs.append((theta, e))
    out = [(t, e, Case.TRADE_OFF) for t, e in pairs]
    out.append((_theta_star(p.e_lim, p, m), p.e_lim, Case.MAX_INFO_POWER))
    return tuple(_memo_entry(t, e, case, m) for t, e, case in out)


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
    a cell scores them with no model call.  `reset` forgets both roots, as
    after a cell with zero budget or no case (c) root.
    """

    __slots__ = ("_cells",)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._cells = [(), ()]  # theta_c's cells, then the baseline's theta*

    def _record(self, e_avg: float, theta: float, baseline: bool = False) -> None:
        self._cells[baseline] = (*self._cells[baseline][-1:], (e_avg, theta))

    def _bracket_root(self, e_avg: float, f, f_one, baseline: bool = False) -> float | None:
        """The root of a non-increasing f from a bracket around the extrapolated one.

        The root is predicted linearly in e_avg from the last two cells of
        theta_c (of theta* with `baseline`), with a half-width of 1/32 of
        the last move; the half-width doubles until f changes sign, finite
        at both ends.  The low end clamps at 1, and f_one() gives f(1) only
        when it does.  None (fall back to the cold bracket) with fewer than
        two cells, a prediction outside (1, inf), an f that is not finite
        (past theta' for case (c)), or a low end clamped at 1 where f(1) is
        not positive: the cold bracket decides those.
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
        f_lo = f(lo) if lo > 1.0 else f_one()
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
                f_lo = f(lo) if lo > 1.0 else f_one()
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
    Returns None when no interior root exists (degenerate bracket).

    Without a seed, the bracket is [1, theta' - gap], with theta' from
    `inverse_energy`.  With a `RowSeed` the bracket comes from the row's
    previous cells (`RowSeed._bracket_root`), and theta' is found only when
    that bracket falls back; the root then matches the cold one to brentq's
    tolerance (about 1e-12 relative), not bit for bit.  A seeded root
    skips h(1), which h > 0 above 1 implies, except where its bracket
    reaches theta = 1 or rounding could make h(1) <= 0 (top rounds to
    e_lim, or e_i < _E_C_POSITIVE, where C may round to 0); so it returns
    None exactly where the cold path does.  As e_avg nears e_lim h's terms
    cancel to a rounding band of relative width about
    eps*e_lim/(e_lim - e_avg), and the two roots may differ by that much;
    neither is the closer to the optimum.  The seed records each root
    found, and is reset when this returns None.
    """
    if p.budget <= 0.0:
        if seed is not None:
            seed.reset()
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

    # theta' solves E(theta') = target; a target past the floats is the cold
    # path's typed error, so the seeded path does not step around it.
    target = p.budget / (p.e_lim - p.e_avg) * p.e_lim
    theta = h_one = None
    if seed is not None and target < math.inf:
        theta = seed._bracket_root(p.e_avg, h, lambda: h(1.0))
    if theta is None:
        h_one = h(1.0)
        if not h_one <= 0.0:
            theta = _cold_root(h, h_one, inverse_energy(m, target))
    if theta is not None:
        energy = m.evaluate(theta)
        e_i = max(0.0, top - k * energy)
        # h(1) = (e_lim - e(1)) * C(e(1)) with e_i <= e(1) <= top, as E is
        # non-decreasing from E(1) >= 0.  So top < e_lim and e_i >=
        # _E_C_POSITIVE show h(1) > 0; otherwise a seeded root takes h(1).
        if h_one is not None or (top < e_lim and e_i >= _E_C_POSITIVE) or not h(1.0) <= 0.0:
            if seed is not None:
                seed._record(p.e_avg, theta)
            return CandidateSolution(
                theta, e_i, Case.MAX_HARVEST_POWER, _objective(theta, e_i, energy, p)
            )
    if seed is not None:
        seed.reset()
    return None


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
    theta: float, e_i: float, p: SystemParams, m: DecoderEnergyModel
) -> FullSolution:
    """Recover (alpha, R, e_e) from a feasible reduced pair.

    The energy-causality and average-power constraints hold with equality by
    construction.
    """
    energy = m.evaluate(theta)
    drain = p.eta * e_i + energy
    denom = drain - p.budget  # alpha * drain
    # Relative to drain: with e_avg a hair below e_lim and E tiny, a valid
    # alpha of 1e-13 has a denom below any absolute floor.
    if denom <= 1e-14 * drain:
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
    cand = CandidateSolution(1.0, 0.0, Case.TRADE_OFF, 0.0)
    full = FullSolution(1.0, 0.0, p.e_avg, 0.0, 1.0, 0.0)
    return cand, full


def ranked_candidates(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> list[CandidateSolution]:
    """Feasible case (a)/(b)/(c) candidates, best objective first.

    Feasibility is checked before an objective is computed; case (a)/(b)
    pairs are scored from the E and C in their memo entry, with the same
    floats `feasible` and `objective` give.  The sort is stable, so ties
    keep the a, b, c enumeration order and the first entry is the first
    maximizer in that order.  A row's `seed` goes to `solve_case_c`.
    """
    candidates = [
        CandidateSolution(t, e, case, _objective(t, e, energy, p, c_e=c_e))
        for t, e, case, energy, c_e in _case_ab_pairs(p.eta, p.e_lim, m)
        if _feasible(t, e, energy, p)
    ]
    cand_c = solve_case_c(p, m, seed=seed)
    if cand_c is not None and feasible(cand_c.theta, cand_c.e_i, p, m):
        candidates.append(cand_c)
    return sorted(candidates, key=lambda c: c.objective, reverse=True)


def algorithm1(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> tuple[CandidateSolution, FullSolution]:
    """Globally optimal single-block solution.

    Takes the top-ranked feasible candidate and recovers its full solution.
    A row's `seed` goes to `solve_case_c`, and is reset at zero budget.
    """
    if p.budget <= 0.0:
        if seed is not None:
            seed.reset()
        return _zero_solution(p)
    ranked = ranked_candidates(p, m, seed=seed)
    if not ranked:
        raise SolverError("no feasible candidate; internal consistency failure")
    best = ranked[0]
    if best.case_label is Case.MAX_HARVEST_POWER:  # e_e = e_lim; recover_full's can cancel
        return best, _full_solution(best.theta, best.e_i, p.e_lim, m.evaluate(best.theta), p)
    return best, recover_full(best.theta, best.e_i, p, m)


def constant_power_baseline(
    p: SystemParams, m: DecoderEnergyModel, *, seed: RowSeed | None = None
) -> FullSolution:
    """No-power-optimization comparator: e_e = e_i = e_avg, theta optimized.

    With e_e = e_i = e_avg, alpha = 1 - budget/(eta*e_avg + E(theta)) lies in
    [0, 1] for any theta, so no recovery check applies; `recover_full`'s
    check would refuse a valid tiny e_avg, where E(theta) + g is near 0.
    theta = max(theta*, theta0) as in `solve_lemma3`.  With a row's `seed`,
    theta* (the root of M, non-increasing with M(1) = eta*e_avg + E(1) > 0) is
    bracketed around the row's extrapolated theta* (`RowSeed._bracket_root`)
    and matches the cold root to brentq's tolerance; the seed is reset at
    zero budget or zero e_avg.
    """
    if p.budget <= 0.0 or p.e_avg == 0.0:
        if seed is not None:
            seed.reset()
        return _zero_solution(p)[1]
    theta_star = None
    if seed is not None:
        f = _m_of_theta(p.e_avg, p, m)
        theta_star = seed._bracket_root(p.e_avg, f, lambda: f(1.0), baseline=True)
    if theta_star is None:
        theta_star = _theta_star(p.e_avg, p, m)
    if seed is not None:
        seed._record(p.e_avg, theta_star, baseline=True)
    theta = max(theta_star, _theta0(p.e_avg, p, m))
    return _full_solution(theta, p.e_avg, p.e_avg, m.evaluate(theta), p)
