"""Integration of the reduced radial equation y'' + y'/r + c v(r) y = 0.

Two coordinate systems are supported.  In the radius domain the equation is
integrated in t = ln r (which absorbs the 1/r drift and keeps steps O(1)
down to arbitrarily small start radii); trajectories are reported as
(r, y, dy/dr).  In the log domain s = ln(1/r) the equation becomes
z'' + a(s) z = 0 with a(s) = c e^{-2s} v(e^{-s}), the natural frame for the
borderline inverse-square potentials whose oscillation sits at the Euler
threshold a(s) ~ 1/(4 s^2).

The recessive (principal) solution at the singular endpoint r = 0 is
initialized by a truncated series (``frobenius_init``); first sign changes
are bracketed on the integrator's dense output and refined by bisection;
overflow is handled by power-of-two rescaling, which a linear equation
tolerates without moving any zero.

For log-domain problems that outrun any fixed horizon, Sturm comparison
against shifted Euler equations z'' + g/(s - s0)^2 z = 0 provides one-sided
certificates: oscillation whenever a(s) >= g/(s-s0)^2 with g > 1/4 over a
window long enough to contain an Euler half-oscillation, non-oscillation
whenever a(s) <= (1/4)/(s-s0)^2 on the sampled tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .config import SolverSettings
from .errors import (DomainError, GridTooCoarse, NonPositiveTrajectory,
                     StepSizeUnderflow, UnsupportedSingularity)
from .potentials import RadialPotential

_R0_FLOOR_REL = 1e-280     # representability floor for the automatic start radius
_FROBENIUS_TARGET = 1e-8   # size of the truncated series correction at r0


class Domain(Enum):
    RADIUS = "radius"
    LOG = "log"


class Status(Enum):
    NO_ZERO_ON_INTERVAL = "NoZeroOnInterval"
    ZERO_FOUND = "ZeroFound"
    OVERFLOW_RESCALED = "OverflowRescaled"
    HORIZON_REACHED = "HorizonReached"


@dataclass(frozen=True)
class HardyODEProblem:
    """Immutable description of one shooting problem."""

    potential: RadialPotential
    c: float
    R: float
    domain: Domain = Domain.RADIUS
    r0: Optional[float] = None      # inner start radius (radius domain); None = automatic
    s_max: float = 1e6              # outer horizon (log domain)

    def __post_init__(self):
        if self.c < 0.0:
            raise DomainError(f"multiplier must be >= 0, got {self.c}")
        if not 0.0 < self.R <= self.potential.r_max * (1.0 + 1e-12):
            raise DomainError(
                f"R = {self.R} outside (0, r_max = {self.potential.r_max}]")
        if self.r0 is not None and not 0.0 < self.r0 < self.R:
            raise DomainError(f"r0 = {self.r0} must lie in (0, R)")

    def coefficient(self, x):
        """Equation coefficient in this domain's variable: c*v(r) at radius x,
        or a(s) = c e^{-2s} v(e^{-s}) at log-abscissa x; float or ndarray."""
        if self.domain is Domain.RADIUS:
            return self.c * self.potential.value(x)
        return self.c * self.potential.log_weight(x)


def radius_problem(p: RadialPotential, c: float, R: float,
                   r0: Optional[float] = None) -> HardyODEProblem:
    return HardyODEProblem(p, c, R, Domain.RADIUS, r0=r0)


def log_problem(p: RadialPotential, c: float, R: float,
                s_max: float = 1e6) -> HardyODEProblem:
    return HardyODEProblem(p, c, R, Domain.LOG, s_max=s_max)


def to_log_domain(prob: HardyODEProblem, s_max: float = 1e6) -> HardyODEProblem:
    if prob.domain is not Domain.RADIUS:
        raise DomainError("to_log_domain expects a radius-domain problem")
    return replace(prob, domain=Domain.LOG, r0=None, s_max=s_max)


def to_radius_domain(prob: HardyODEProblem, r0: Optional[float] = None) -> HardyODEProblem:
    if prob.domain is not Domain.LOG:
        raise DomainError("to_radius_domain expects a log-domain problem")
    return replace(prob, domain=Domain.RADIUS, r0=r0)


@dataclass(frozen=True)
class TailCertificate:
    """Euler-comparison verdict for the coefficient tail a(s).

    ``gamma`` is the extreme of a(s) (s - shift)^2 over the certified window:
    a maximum for the non-oscillatory side (must be <= 1/4), a minimum for
    the oscillatory side (must exceed 1/4 over a long enough window).
    """

    kind: str                 # "nonoscillatory" | "oscillatory"
    gamma: float
    shift: float
    window: tuple             # (s1, s2) where the comparison was verified
    covered_from: float       # certificate applies to s >= this abscissa


@dataclass(frozen=True)
class ShootingOutcome:
    """Trajectory plus zero/termination bookkeeping for one integration."""

    trajectory: dict                      # column name -> sample array
    first_zero: Optional[float]           # radius of the first zero, if any
    status: Status
    rescale_count: int = 0
    certificate: Optional[TailCertificate] = None
    dense: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def columns(self) -> tuple:
        return tuple(self.trajectory.keys())


# ---------------------------------------------------------------------------
# Recessive initialization
# ---------------------------------------------------------------------------

def resolve_r0(prob: HardyODEProblem, settings: SolverSettings) -> float:
    """Start radius: explicit if given, else 1e-8 R shrunk until the series
    correction is below target (potentials with sigma near 2 need smaller
    starts for the truncation to stay valid)."""
    if prob.r0 is not None:
        return prob.r0
    if settings.r0 is not None:
        return settings.r0
    p, R = prob.potential, prob.R
    r0 = 1e-8 * R
    if prob.c == 0.0 or p.amplitude == 0.0:
        return r0
    two_minus = 2.0 - p.sigma
    if two_minus <= 0.0:
        raise UnsupportedSingularity(
            f"sigma = {p.sigma} >= 2: no recessive series start, use the log domain")
    for _ in range(64):
        amp = p.singular_amplitude(r0)
        correction = prob.c * amp * r0 ** two_minus / two_minus ** 2
        if correction <= _FROBENIUS_TARGET:
            return r0
        r0 *= 1e-2
        if r0 < _R0_FLOOR_REL * R:
            raise UnsupportedSingularity(
                f"required start radius below {_R0_FLOOR_REL} R for sigma = {p.sigma}; "
                "use the log domain")
    return r0


def frobenius_init(prob: HardyODEProblem,
                   settings: SolverSettings = SolverSettings()) -> tuple[float, float]:
    """Truncated-series start (y(r0), y'(r0)) for the recessive solution.

    With v ~ A r^(-sigma) near 0 and sigma < 2 the bounded solution is
    y = 1 - c A r^(2-sigma)/(2-sigma)^2 + O(r^(2(2-sigma))), which satisfies
    r y'/y -> 0, the defining property of the recessive branch.
    """
    p = prob.potential
    if p.critical or p.sigma >= 2.0:
        raise UnsupportedSingularity(
            f"potential with sigma = {p.sigma} (critical = {p.critical}) has no "
            "series start at r = 0; integrate in the log domain")
    r0 = resolve_r0(prob, settings)
    amp = p.singular_amplitude(r0) if prob.c != 0.0 else 0.0
    two_minus = 2.0 - p.sigma
    y0 = 1.0 - prob.c * amp * r0 ** two_minus / two_minus ** 2
    dy0 = -prob.c * amp * r0 ** (1.0 - p.sigma) / two_minus
    return y0, dy0


# ---------------------------------------------------------------------------
# Chunked adaptive integration with rescaling and dense-output zero bisection
# ---------------------------------------------------------------------------

@dataclass
class _RawRun:
    t: np.ndarray
    y: np.ndarray                 # shape (2, n), rescaled consistently
    zero_t: Optional[float]
    rescale_count: int
    reached_end: bool
    dense: Optional[Callable]


def _integrate_chunked(rhs, t0: float, t1: float, state0, *, rtol: float,
                       atol: float, zero_width: float,
                       overflow_threshold: float) -> _RawRun:
    """solve_ivp in chunks, restarting with a 2^-k rescale on overflow.

    The recorded trajectory is kept consistent: earlier samples are divided
    by each later rescale factor, so the final arrays are the true solution
    times a single overall power of two.  The first sign change of state[0]
    is bracketed between accepted steps and bisected on the dense output to
    the requested width.
    """
    direction = 1.0 if t1 >= t0 else -1.0

    def zero_event(t, y):
        return y[0]
    zero_event.terminal = True
    zero_event.direction = 0.0

    def overflow_event(t, y):
        return abs(y[0]) + abs(y[1]) - overflow_threshold
    overflow_event.terminal = True
    overflow_event.direction = 1.0

    ts: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    chunks: list[tuple[float, float, Callable, float]] = []  # (lo, hi, sol, postscale)
    t_cur, state = float(t0), np.asarray(state0, dtype=float)
    rescales = 0
    zero_t = None
    reached_end = False

    for _ in range(10_000):
        sol = solve_ivp(rhs, (t_cur, t1), state, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True,
                        events=[zero_event, overflow_event])
        if sol.status == -1:
            last = sol.t[-1] if sol.t.size else t_cur
            raise StepSizeUnderflow(f"integrator stalled at abscissa {last}: {sol.message}",
                                    float(last))
        ts.append(sol.t)
        ys.append(sol.y)
        chunks.append([sol.t[0], sol.t[-1], sol.sol, 1.0])

        if sol.t_events[0].size:  # sign change of the solution
            t_hit = float(sol.t_events[0][0])
            accepted = sol.t
            idx = np.searchsorted(accepted, t_hit) if direction > 0 else \
                accepted.size - np.searchsorted(accepted[::-1], t_hit)
            lo = accepted[max(0, idx - 1)]
            zero_t = _bisect_zero(sol.sol, lo, t_hit, zero_width, direction)
            break
        if sol.t_events[1].size:  # overflow: rescale and resume
            t_cur = float(sol.t_events[1][0])
            state = sol.sol(t_cur)
            # bring the state down to O(1) (or a quarter of a sub-unit
            # threshold) so the next chunk has headroom; k >= 1 guarantees
            # progress
            target = min(1.0, overflow_threshold / 4.0)
            k = max(1, math.ceil(math.log2(max(abs(state[0]), abs(state[1])) / target)))
            factor = 2.0 ** k
            state = state / factor
            for arr in ys:
                arr /= factor
            for chunk in chunks:
                chunk[3] /= factor
            rescales += 1
            continue
        reached_end = True
        break
    else:
        raise StepSizeUnderflow("too many rescale restarts", t_cur)

    t_all = np.concatenate(ts)
    y_all = np.concatenate(ys, axis=1)
    # drop duplicate restart points
    keep = np.ones(t_all.size, dtype=bool)
    keep[1:] = np.abs(np.diff(t_all)) > 0.0
    t_all, y_all = t_all[keep], y_all[:, keep]

    def dense(t):
        for lo, hi, sol_chunk, post in chunks:
            a, b = (lo, hi) if lo <= hi else (hi, lo)
            if a - 1e-12 <= t <= b + 1e-12:
                return sol_chunk(t) * post
        raise DomainError(f"abscissa {t} outside the integrated range")

    return _RawRun(t_all, y_all, zero_t, rescales, reached_end, dense)


def _bisect_zero(dense, t_lo: float, t_hit: float, width: float, direction: float) -> float:
    """Bisect the dense output for the sign change in [t_lo, t_hit]."""
    f_lo = dense(t_lo)[0]
    f_hit = dense(t_hit)[0]
    if f_lo == 0.0:
        return t_lo
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hit) or f_hit == 0.0:
        return t_hit  # crossing collapsed onto the event root
    lo, hi = t_lo, t_hit
    s_lo = math.copysign(1.0, f_lo)
    while abs(hi - lo) > width:
        mid = 0.5 * (lo + hi)
        if math.copysign(1.0, dense(mid)[0]) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Public integration entry points
# ---------------------------------------------------------------------------

def integrate(prob: HardyODEProblem,
              settings: SolverSettings = SolverSettings()) -> ShootingOutcome:
    """Shoot the problem across its interval and report the first zero.

    Radius domain: starts from the recessive series at r0 and integrates
    outward to R (internally in t = ln r).  Log domain: starts at the outer
    edge with z = 1, z' = 0 and integrates toward increasing s up to s_max.
    """
    if prob.domain is Domain.RADIUS:
        return _integrate_radius(prob, settings)
    return _integrate_log_forward(prob, settings)


def _radius_rhs(prob: HardyODEProblem):
    lw = prob.potential.log_weight
    c = prob.c

    def rhs(t, u):
        return (u[1], -c * lw(-t) * u[0])
    return rhs


def _log_rhs(prob: HardyODEProblem):
    lw = prob.potential.log_weight
    c = prob.c

    def rhs(s, u):
        return (u[1], -c * lw(s) * u[0])
    return rhs


def _integrate_radius(prob: HardyODEProblem, settings: SolverSettings) -> ShootingOutcome:
    r0 = resolve_r0(prob, settings)
    y0, dy0 = frobenius_init(replace(prob, r0=r0), settings)
    t0, t1 = math.log(r0), math.log(prob.R)
    # state in t = ln r: (y, r y')
    state0 = (y0, r0 * dy0)
    width_t = settings.zero_width_rel  # |Delta ln r| <= rel width <=> |Delta r| <= rel*R near R
    run = _integrate_chunked(_radius_rhs(prob), t0, t1, state0,
                             rtol=settings.rtol, atol=settings.atol,
                             zero_width=width_t,
                             overflow_threshold=settings.overflow_threshold)
    r = np.exp(run.t)
    trajectory = {"r": r, "y": run.y[0], "dy": run.y[1] / r}
    first_zero = math.exp(run.zero_t) if run.zero_t is not None else None
    if first_zero is not None:
        status = Status.ZERO_FOUND
        cut = run.t < run.zero_t
        zero_state = run.dense(run.zero_t)
        trajectory = {
            "r": np.append(r[cut], first_zero),
            "y": np.append(run.y[0][cut], zero_state[0]),
            "dy": np.append(run.y[1][cut] / r[cut], zero_state[1] / first_zero),
        }
    elif run.reached_end:
        status = Status.NO_ZERO_ON_INTERVAL
    else:
        status = Status.OVERFLOW_RESCALED
    dense = run.dense

    def dense_r(radius):
        state = dense(math.log(radius))
        return np.array([state[0], state[1] / radius])

    return ShootingOutcome(trajectory, first_zero, status, run.rescale_count,
                           dense=dense_r)


def _integrate_log_forward(prob: HardyODEProblem, settings: SolverSettings) -> ShootingOutcome:
    s_start = -math.log(prob.R) + 1e-9
    if prob.s_max <= s_start:
        raise DomainError(f"horizon s_max = {prob.s_max} not beyond the outer edge {s_start}")
    run = _integrate_chunked(_log_rhs(prob), s_start, prob.s_max, (1.0, 0.0),
                             rtol=settings.rtol, atol=settings.atol,
                             zero_width=settings.zero_width_rel,
                             overflow_threshold=settings.overflow_threshold)
    return _log_outcome(run, prob)


def integrate_recessive_log(prob: HardyODEProblem,
                            settings: SolverSettings = SolverSettings()) -> ShootingOutcome:
    """The same recessive solution as the radius-domain shot, integrated in
    the log variable from s = ln(1/r0) down to the outer edge.

    Exists so the two coordinate systems can be cross-checked against each
    other; zeros must agree with the radius-domain run at s* = ln(1/r*).
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("integrate_recessive_log expects a log-domain problem")
    rprob = to_radius_domain(prob)
    r0 = resolve_r0(rprob, settings)
    y0, dy0 = frobenius_init(replace(rprob, r0=r0), settings)
    s_hi, s_end = math.log(1.0 / r0), -math.log(prob.R)
    state0 = (y0, -r0 * dy0)   # dz/ds = -r y'(r)
    run = _integrate_chunked(_log_rhs(prob), s_hi, s_end, state0,
                             rtol=settings.rtol, atol=settings.atol,
                             zero_width=settings.zero_width_rel,
                             overflow_threshold=settings.overflow_threshold)
    return _log_outcome(run, prob, backward=True)


def integrate_principal_tail(prob: HardyODEProblem, certificate: TailCertificate,
                             settings: SolverSettings = SolverSettings()) -> ShootingOutcome:
    """Integrate the principal-at-infinity branch down from the horizon.

    Requires a non-oscillatory tail certificate; the branch is seeded with
    the decaying Euler exponent mu = (1 - sqrt(1 - 4 gamma))/2 through
    z'/z = mu/(s_max - shift), then swept backward to the outer edge.  Its
    positivity decides whether a positive solution exists on the whole
    interval (the principal branch is minimal, so it vanishes first).
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("integrate_principal_tail expects a log-domain problem")
    if certificate.kind != "nonoscillatory":
        raise DomainError("principal tail integration needs a non-oscillatory certificate")
    gamma = min(certificate.gamma, 0.25)
    mu = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * gamma)))
    s_end = -math.log(prob.R)
    sigma_max = prob.s_max - certificate.shift
    state0 = (1.0, mu / sigma_max)
    run = _integrate_chunked(_log_rhs(prob), prob.s_max, s_end, state0,
                             rtol=settings.rtol, atol=settings.atol,
                             zero_width=settings.zero_width_rel,
                             overflow_threshold=settings.overflow_threshold)
    return _log_outcome(run, prob, certificate=certificate, backward=True)


def _log_outcome(run: _RawRun, prob: HardyODEProblem,
                 certificate: Optional[TailCertificate] = None,
                 backward: bool = False) -> ShootingOutcome:
    order = np.argsort(run.t)
    trajectory = {"s": run.t[order], "z": run.y[0][order], "dz": run.y[1][order]}
    if run.zero_t is not None:
        first_zero = math.exp(-run.zero_t)
        status = Status.ZERO_FOUND
    elif not run.reached_end:
        first_zero, status = None, Status.OVERFLOW_RESCALED
    else:
        first_zero = None
        # a completed backward sweep covers its whole interval; a forward one
        # merely ran out of horizon
        status = Status.NO_ZERO_ON_INTERVAL if backward else Status.HORIZON_REACHED
    return ShootingOutcome(trajectory, first_zero, status, run.rescale_count,
                           certificate=certificate, dense=run.dense)


# ---------------------------------------------------------------------------
# Euler-comparison tail certificates
# ---------------------------------------------------------------------------

def euler_tail_certificate(prob: HardyODEProblem,
                           settings: SolverSettings = SolverSettings()
                           ) -> Optional[TailCertificate]:
    """Classify the coefficient tail by shifted-Euler comparison.

    Fits 1/sqrt(a(s)) ~ (s - s0)/sqrt(g) on the tail (exact for every
    potential in the borderline catalog), then checks

      * g_max = max a(s)(s-s0)^2 <= 1/4 (+slack)     -> non-oscillatory;
      * some window [s1, s2] with a(s)(s-s0)^2 > 1/4
        and ln((s2-s0)/(s1-s0)) >= pi/sqrt(g_lo-1/4) -> oscillatory
        (the window then contains a half-oscillation of a minorant Euler
        solution, so every solution vanishes inside it);
      * neither                                      -> None.
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("tail certificates live in the log domain")
    s_start = -math.log(prob.R) + 1e-9
    s_max = prob.s_max
    if prob.c == 0.0:
        return TailCertificate("nonoscillatory", 0.0, s_start - 1.0,
                               (s_start, s_max), covered_from=s_start)
    grid = _tail_grid(s_start, s_max, settings.tail_samples)
    # saturate instead of overflowing: certificates only compare magnitudes
    with np.errstate(over="ignore"):
        a = np.clip(prob.coefficient(grid), 0.0, 1e250)
    if np.all(a <= 0.0):
        return TailCertificate("nonoscillatory", 0.0, s_start - 1.0,
                               (s_start, s_max), covered_from=s_start)

    shifts = _candidate_shifts(grid, a, s_start)
    hint = prob.potential.euler_shift_hint()
    if hint is not None:
        shifts.insert(0, hint)
    slack = settings.certificate_slack
    best_nonosc = None
    for s0 in shifts:
        sub, gamma = _shifted_gamma(grid, a, s0)
        if sub is None:
            continue
        # the bound only has to hold on a tail: the principal sweep checks
        # positivity across any pre-asymptotic hump itself
        suffix_max = np.maximum.accumulate(gamma[::-1])[::-1]
        below = np.flatnonzero(suffix_max <= 0.25 * (1.0 + slack))
        if below.size == 0:
            continue
        start = int(below[0])
        if sub[start] > sub[-1] / 10.0:
            continue  # too little tail left to trust the comparison
        gmax = float(suffix_max[start])
        if _tail_trend_ok(sub, gamma):
            cert = TailCertificate("nonoscillatory", gmax, s0,
                                   (float(sub[start]), float(sub[-1])),
                                   covered_from=float(sub[start]))
            if best_nonosc is None or cert.gamma < best_nonosc.gamma:
                best_nonosc = cert
    if best_nonosc is not None:
        return best_nonosc

    for s0 in shifts:
        sub, gamma = _shifted_gamma(grid, a, s0)
        if sub is None:
            continue
        cert = _oscillation_window(sub, gamma, s0)
        if cert is not None:
            return cert
    return None


def _shifted_gamma(grid: np.ndarray, a: np.ndarray, s0: float):
    """gamma(s) = a(s)(s-s0)^2 on the part of the grid where the shifted
    comparison is defined (s > s0); None when too little of it is."""
    mask = grid > s0 + 1e-9 * max(1.0, abs(s0))
    if mask.sum() < 16:
        return None, None
    sigma = grid[mask] - s0
    with np.errstate(over="ignore"):
        gamma = np.minimum(a[mask] * sigma ** 2, 1e300)
    return grid[mask], gamma


def _tail_grid(s_start: float, s_max: float, n: int) -> np.ndarray:
    lo = max(s_start, 1e-3)
    if s_start <= 0.0:
        head = np.linspace(s_start, lo, 16, endpoint=False)
    else:
        head = np.empty(0)
    body = np.geomspace(lo, s_max, n)
    return np.unique(np.concatenate([head, body]))


def _candidate_shifts(grid: np.ndarray, a: np.ndarray, s_start: float) -> list[float]:
    """Shift candidates: least-squares line through 1/sqrt(a) on the last
    decades (exact for shifted-Euler tails), plus simple fallbacks."""
    shifts = [0.0] if s_start > 0.0 else [s_start - 1.0]
    mask = (grid >= grid[-1] / 100.0) & (a > 0.0)
    if mask.sum() >= 8:
        q = 1.0 / np.sqrt(a[mask])
        slope, intercept = np.polyfit(grid[mask], q, 1)
        if slope > 0.0:
            s0 = -intercept / slope
            if s0 < grid[-1] / 10.0:
                shifts.insert(0, float(s0))
    return shifts


def _tail_trend_ok(grid: np.ndarray, gamma: np.ndarray) -> bool:
    """gamma(s) must not be rising at the horizon (a rising tail could
    cross the threshold just beyond the sampled range)."""
    last = grid >= grid[-1] / 3.0
    prev = (grid >= grid[-1] / 10.0) & ~last
    if last.sum() < 4 or prev.sum() < 4:
        return True
    return float(np.max(gamma[last])) <= float(np.max(gamma[prev])) * (1.0 + 1e-9)


def _oscillation_window(grid: np.ndarray, gamma: np.ndarray, s0: float
                        ) -> Optional[TailCertificate]:
    sigma = grid - s0
    for threshold in np.geomspace(0.2501, max(float(np.max(gamma)), 0.2502), 48):
        if threshold <= 0.25:
            continue
        mask = gamma >= threshold
        if not np.any(mask):
            continue
        # maximal contiguous runs of the mask
        edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.view(np.int8), [0]])))
        needed = math.pi / math.sqrt(threshold - 0.25)
        for lo, hi in zip(edges[::2], edges[1::2] - 1):
            if hi <= lo:
                continue
            length = math.log(sigma[hi] / sigma[lo])
            if length >= needed:
                return TailCertificate("oscillatory", float(threshold), s0,
                                       (float(grid[lo]), float(grid[hi])),
                                       covered_from=float(grid[lo]))
    return None


# ---------------------------------------------------------------------------
# Riccati transform and pointwise residuals
# ---------------------------------------------------------------------------

def riccati_check(outcome: ShootingOutcome, prob: HardyODEProblem,
                  n_resample: int = 4097) -> float:
    """Max |psi' + psi^2 + a(s)| along the trajectory, psi = z'/z.

    psi is the log-derivative of the solution in the log variable (equal to
    -r y'(r)/y(r) in radius terms); for an exact solution the expression
    vanishes identically, so the returned maximum bounds the combined
    integration and finite-difference error.  Needs strictly positive z.
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("riccati_check expects a log-domain problem")
    if "z" not in outcome.trajectory:
        raise DomainError("riccati_check expects a log-domain trajectory")
    s = outcome.trajectory["s"]
    z = outcome.trajectory["z"]
    dz = outcome.trajectory["dz"]
    if outcome.dense is not None and s.size >= 2:
        s = np.linspace(s[0], s[-1], n_resample)
        states = np.array([outcome.dense(si) for si in s])
        z, dz = states[:, 0], states[:, 1]
    if np.any(z <= 0.0):
        raise NonPositiveTrajectory("trajectory is not strictly positive on the sampled range")
    psi = dz / z
    dpsi = np.gradient(psi, s)
    a = prob.coefficient(s)
    residual = np.abs(dpsi + psi ** 2 + a)
    return float(np.max(residual[2:-2])) if residual.size > 4 else float(np.max(residual))


def residual(phi: np.ndarray, prob: HardyODEProblem, grid: np.ndarray) -> float:
    """Max scaled residual of the equation along sampled phi values.

    The operator y'' + y'/r is r^(-2)-homogeneous, so the pointwise residual
    is measured in its scale-invariant form

        r^2 |phi'' + phi'/r + c v phi| / max(1, |phi|)
          = |phi_tt + r^2 c v phi| / max(1, |phi|),   t = ln r,

    which keeps both the stencil error and the coefficient O(1) uniformly
    down to the singular endpoint (the unweighted residual of the singular
    families grows like 1/r^2 in float64 round-off and says nothing).
    Uniformly log-spaced grids get a 4th-order central stencil, anything
    else 2nd-order uneven differences.
    """
    phi = np.asarray(phi, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5 or phi.size != grid.size:
        raise GridTooCoarse(f"need >= 5 matching samples, got {phi.size} on {grid.size}")
    if prob.domain is not Domain.RADIUS:
        raise DomainError("residual expects a radius-domain problem")
    t = np.log(grid)
    h = np.diff(t)
    uniform = np.max(np.abs(h - h[0])) <= 1e-9 * abs(h[0])
    if uniform:
        hh = h[0]
        phi_tt = np.full_like(phi, np.nan)
        phi_tt[2:-2] = (-phi[:-4] + 16 * phi[1:-3] - 30 * phi[2:-2]
                        + 16 * phi[3:-1] - phi[4:]) / (12.0 * hh * hh)
    else:
        dphi = np.gradient(phi, t)
        phi_tt = np.gradient(dphi, t)
        phi_tt[:2] = phi_tt[-2:] = np.nan
    a = prob.c * prob.potential.log_weight(-t)
    res = np.abs(phi_tt + a * phi) / np.maximum(1.0, np.abs(phi))
    return float(np.nanmax(res[2:-2]))
