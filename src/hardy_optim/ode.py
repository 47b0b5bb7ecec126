"""Integration of the reduced radial equation y'' + y'/r + c v(r) y = 0.

Under s = ln(1/r) the equation becomes z'' + a(s) z = 0 with
a(s) = c e^{-2s} v(e^{-s}), and every shot is one sweep of that equation
from some start state (``_sweep``): the recessive shot runs from the series
start s0 = ln(1/r0) down to the outer edge, the outer-edge shot runs up to
the horizon s_max, the principal tail runs back from the horizon.  The s
variable absorbs the 1/r drift, keeps steps O(1) down to arbitrarily small
start radii, and is the natural frame for the borderline inverse-square
potentials whose oscillation sits at the Euler threshold a(s) ~ 1/(4 s^2).
Radius-domain problems report their sweep as (r, y, dy/dr), log-domain
problems as (s, z, dz/ds).

The recessive (principal) solution at the singular endpoint r = 0 is
initialized by a truncated series (``frobenius_init``); the first sign
change ends a sweep at the integrator's terminal event, whose root solve_ivp
refines on its dense output; overflow is handled by power-of-two rescaling,
which a linear equation tolerates without moving any zero.

For log-domain problems that outrun any fixed horizon, Sturm comparison
against shifted Euler equations z'' + g/(s - s0)^2 z = 0 provides one-sided
certificates: oscillation whenever a(s) >= g/(s-s0)^2 with g > 1/4 over a
window long enough to contain an Euler half-oscillation, non-oscillation
whenever a(s) <= (1/4)/(s-s0)^2 on the sampled tail.  Both are linear in
the multiplier, so one sample of a(s) gives their multiplier edges.
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

_FROBENIUS_TARGET = 1e-8      # size of the truncated series correction at r0
_OVERFLOW_THRESHOLD = 1e250   # |z| + |z'| at which a sweep rescales its state
_HORIZON_CAP = 1e150          # largest s_max: (s - s0)^2 stays finite, g ~ 1/s^2 normal


class Domain(Enum):
    RADIUS = "radius"
    LOG = "log"


class Status(Enum):
    NO_ZERO_ON_INTERVAL = "NoZeroOnInterval"
    ZERO_FOUND = "ZeroFound"
    HORIZON_REACHED = "HorizonReached"


@dataclass(frozen=True)
class HardyODEProblem:
    """Immutable description of one shooting problem."""

    potential: RadialPotential
    c: float
    R: float
    domain: Domain = Domain.RADIUS
    r0: Optional[float] = None      # inner start radius (radius domain); None = automatic
    s_max: float = 1e6              # outer horizon (log domain), at most _HORIZON_CAP

    def __post_init__(self):
        if self.c < 0.0:
            raise DomainError(f"multiplier must be >= 0, got {self.c}")
        if not 0.0 < self.R <= self.potential.r_max * (1.0 + 1e-12):
            raise DomainError(
                f"R = {self.R} outside (0, r_max = {self.potential.r_max}]")
        if self.r0 is not None and not 0.0 < self.r0 < self.R:
            raise DomainError(f"r0 = {self.r0} must lie in (0, R)")
        object.__setattr__(self, "s_max", min(self.s_max, _HORIZON_CAP))

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


@dataclass(frozen=True)
class ShootingOutcome:
    """Trajectory plus zero/termination bookkeeping for one integration."""

    trajectory: dict                      # column name -> sample array
    first_zero: Optional[float]           # radius of the first zero, if any
    status: Status
    rescale_count: int = 0
    certificate: Optional[TailCertificate] = None
    dense: Optional[Callable] = field(default=None, repr=False, compare=False)


def wants_log_domain(p: RadialPotential) -> bool:
    """Critical or strongly singular potentials have no recessive series
    start at r = 0; their feasibility is decided in the log domain."""
    return p.critical or p.sigma >= 2.0


# ---------------------------------------------------------------------------
# Recessive initialization
# ---------------------------------------------------------------------------

def resolve_r0(prob: HardyODEProblem, settings: SolverSettings) -> float:
    """Start radius: explicit if given, else 1e-8 R shrunk by 1e-2 until the
    series correction is below target (potentials with sigma near 2 need
    smaller starts for the truncation to stay valid).  Raises
    UnsupportedSingularity when 64 shrinks do not get there."""
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
    raise UnsupportedSingularity(
        f"series correction still {correction:.3g} at start radius {100.0 * r0 / R:.0e} R "
        f"for sigma = {p.sigma}; use the log domain")


def frobenius_init(prob: HardyODEProblem,
                   settings: SolverSettings = SolverSettings()) -> tuple[float, float]:
    """Truncated-series start (y(r0), y'(r0)) for the recessive solution.

    With v ~ A r^(-sigma) near 0 and sigma < 2 the bounded solution is
    y = 1 - c A r^(2-sigma)/(2-sigma)^2 + O(r^(2(2-sigma))), which satisfies
    r y'/y -> 0, the defining property of the recessive branch.
    """
    p = prob.potential
    if wants_log_domain(p):
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
# Chunked adaptive integration with rescaling and event-located zeros
# ---------------------------------------------------------------------------

@dataclass
class _RawRun:
    t: np.ndarray
    y: np.ndarray                 # shape (2, n), rescaled consistently
    zero_t: Optional[float]
    rescale_count: int
    dense: Optional[Callable]


def _integrate_chunked(rhs, t0: float, t1: float, state0, *, rtol: float,
                       atol: float, overflow_threshold: float) -> _RawRun:
    """solve_ivp in chunks, restarting with a 2^-k rescale on overflow.

    The recorded trajectory is kept consistent: earlier samples are divided
    by each later rescale factor, so the final arrays are the true solution
    times a single overall power of two.  The first sign change of state[0]
    ends the run at solve_ivp's terminal event, whose root is already
    refined on the dense output.
    """
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
            zero_t = float(sol.t_events[0][0])
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
        break  # reached t1
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

    return _RawRun(t_all, y_all, zero_t, rescales, dense)


# ---------------------------------------------------------------------------
# The sweep of z'' + a(s) z = 0 and its public entry points
# ---------------------------------------------------------------------------

def integrate(prob: HardyODEProblem,
              settings: SolverSettings = SolverSettings()) -> ShootingOutcome:
    """Shoot the problem across its interval and report the first zero.

    Radius domain: the recessive sweep from s = ln(1/r0) down to the outer
    edge, reported as (r, y, dy/dr).  Log domain: starts at the outer edge
    with z = 1, z' = 0 and sweeps toward increasing s up to s_max.
    """
    if prob.domain is Domain.RADIUS:
        s0, state0 = _recessive_start(prob, settings)
        return _radius_columns(_sweep(prob, s0, -math.log(prob.R), state0, settings))
    s_start = -math.log(prob.R) + 1e-9
    if prob.s_max <= s_start:
        raise DomainError(f"horizon s_max = {prob.s_max} not beyond the outer edge {s_start}")
    return _sweep(prob, s_start, prob.s_max, (1.0, 0.0), settings)


def integrate_recessive_log(prob: HardyODEProblem,
                            settings: SolverSettings = SolverSettings()) -> ShootingOutcome:
    """The radius-domain shot of the same problem without the change back to
    (r, y, dy/dr): the recessive solution from s = ln(1/r0) down to the outer
    edge, reported as (s, z, dz/ds).

    Exists so the two coordinate systems can be cross-checked against each
    other; zeros must agree with the radius-domain run at s* = ln(1/r*).
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("integrate_recessive_log expects a log-domain problem")
    s0, state0 = _recessive_start(prob, settings)
    return _sweep(prob, s0, -math.log(prob.R), state0, settings)


def integrate_principal_tail(prob: HardyODEProblem, certificate: TailCertificate,
                             settings: SolverSettings = SolverSettings()) -> ShootingOutcome:
    """Integrate the principal-at-infinity branch down from the end of the
    certified window (the horizon).

    Requires a non-oscillatory tail certificate; the branch is seeded with
    the decaying Euler exponent mu = (1 - sqrt(1 - 4 gamma))/2 through
    z'/z = mu/(s_top - shift), then swept backward to the outer edge.  Its
    positivity decides whether a positive solution exists on the whole
    interval (the principal branch is minimal, so it vanishes first).
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("integrate_principal_tail expects a log-domain problem")
    if certificate.kind != "nonoscillatory":
        raise DomainError("principal tail integration needs a non-oscillatory certificate")
    gamma = min(certificate.gamma, 0.25)
    mu = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * gamma)))
    s_top = certificate.window[1]
    state0 = (1.0, mu / (s_top - certificate.shift))
    return _sweep(prob, s_top, -math.log(prob.R), state0, settings, certificate)


def _recessive_start(prob: HardyODEProblem, settings: SolverSettings):
    """s0 = ln(1/r0) and the series state (z, dz/ds) = (y0, -r0 y0') there."""
    r0 = resolve_r0(prob, settings)
    y0, dy0 = frobenius_init(replace(prob, r0=r0), settings)
    return -math.log(r0), (y0, -r0 * dy0)


def _sweep(prob: HardyODEProblem, s_from: float, s_to: float, state0,
           settings: SolverSettings,
           certificate: Optional[TailCertificate] = None) -> ShootingOutcome:
    """Integrate z'' + a(s) z = 0 from s_from to s_to.

    The trajectory ends at the first zero, if any, and is sorted
    by s.  Without a zero, a sweep toward the outer edge (decreasing s) has
    covered its whole interval; a sweep outward has only reached its horizon.
    """
    lw, c = prob.potential.log_weight, prob.c

    def rhs(s, u):
        return (u[1], -c * lw(s) * u[0])

    run = _integrate_chunked(rhs, s_from, s_to, state0, rtol=settings.rtol,
                             atol=settings.atol, overflow_threshold=_OVERFLOW_THRESHOLD)
    to_edge = s_to < s_from    # toward the outer edge r = R
    s, z, dz = run.t, run.y[0], run.y[1]
    if run.zero_t is None:
        first_zero = None
        status = Status.NO_ZERO_ON_INTERVAL if to_edge else Status.HORIZON_REACHED
    else:
        first_zero = math.exp(-run.zero_t)
        status = Status.ZERO_FOUND
        before = s > run.zero_t if to_edge else s < run.zero_t
        zero_state = run.dense(run.zero_t)
        s = np.append(s[before], run.zero_t)
        z = np.append(z[before], zero_state[0])
        dz = np.append(dz[before], zero_state[1])
    if to_edge:
        s, z, dz = s[::-1], z[::-1], dz[::-1]
    return ShootingOutcome({"s": s, "z": z, "dz": dz}, first_zero, status,
                           run.rescale_count, certificate=certificate, dense=run.dense)


def _radius_columns(out: ShootingOutcome) -> ShootingOutcome:
    """A sweep in the radius frame: r = e^-s, y = z and dy/dr = -z'/r, in
    increasing r, with a dense output that takes a radius."""
    s, z, dz = (out.trajectory[k][::-1] for k in ("s", "z", "dz"))
    r = np.exp(-s)
    if out.first_zero is not None:
        r[-1] = out.first_zero    # math.exp, which np.exp may miss by an ulp
    dense = out.dense

    def dense_r(radius):
        state = dense(-math.log(radius))
        return np.array([state[0], -state[1] / radius])

    return replace(out, trajectory={"r": r, "y": z, "dy": -dz / r}, dense=dense_r)


# ---------------------------------------------------------------------------
# Euler-comparison tail certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEdges:
    """Multiplier edges of the shifted-Euler comparisons: c <= c_non is
    non-oscillatory (to within ``certificate_slack``), c >= c_osc oscillatory
    (0, inf if none), by its certificate at c = 1 with gamma scaled by c."""

    c_non: float
    unit_non: Optional[TailCertificate]
    c_osc: float
    unit_osc: Optional[TailCertificate]


def tail_edges(prob: HardyODEProblem,
               settings: SolverSettings = SolverSettings()) -> TailEdges:
    """The largest c_non and the smallest c_osc over the candidate shifts s0
    (a line fitted to 1/sqrt(g), and the potential's hint), from one sample
    of the unit-multiplier coefficient g(s) = r^2 v(r), r = e^-s, on the tail
    grid up to the horizon.  With gamma = g (s - s0)^2: c_non = (1/4) / max
    gamma from the last decade on, unless gamma rises at the horizon; c_osc =
    min over windows [s1, s2] of (1/4 + (pi / ln((s2 - s0)/(s1 - s0)))^2) /
    min gamma there, as the window then holds a half-oscillation of a
    minorant Euler solution, so every solution vanishes inside it."""
    if prob.domain is not Domain.LOG:
        raise DomainError("tail certificates live in the log domain")
    s_start = -math.log(prob.R) + 1e-9
    grid = _tail_grid(s_start, prob.s_max, settings.tail_samples)
    g = prob.potential.log_weight(grid)
    shifts = _candidate_shifts(grid, g, s_start)
    hint = prob.potential.euler_shift_hint()
    if hint is not None:
        shifts.insert(0, hint)
    c_non, unit_non, c_osc, unit_osc = 0.0, None, math.inf, None
    for s0 in shifts:
        mask = grid > s0 + 1e-9 * max(1.0, abs(s0))
        if mask.sum() < 16:
            continue
        s = grid[mask]
        with np.errstate(over="ignore"):
            gamma = g[mask] * (s - s0) ** 2
        # the bound only has to hold on a tail: the principal sweep checks
        # positivity across any pre-asymptotic hump itself
        decade = np.flatnonzero(s <= s[-1] / 10.0)
        if decade.size and _tail_trend_ok(s, gamma):
            top = float(np.max(gamma[decade[-1]:]))
            edge = 0.25 / top if top > 0.0 else math.inf
            if edge > c_non:
                c_non, unit_non = edge, TailCertificate(
                    "nonoscillatory", top, s0, (float(s[decade[-1]]), float(s[-1])))
        # a saturated sample still bounds gamma from below
        edge, unit = _oscillation_edge(s, s0, np.minimum(gamma, 1e300))
        if edge < c_osc:
            c_osc, unit_osc = edge, unit
    return TailEdges(c_non, unit_non, c_osc, unit_osc)


def euler_tail_certificate(prob: HardyODEProblem,
                           settings: SolverSettings = SolverSettings()
                           ) -> Optional[TailCertificate]:
    """Classify the coefficient tail a(s) = c g(s) by comparing c with the
    edges of ``tail_edges``: non-oscillatory if c <= c_non (1 + slack), else
    oscillatory if c >= c_osc, else None."""
    if prob.domain is not Domain.LOG:
        raise DomainError("tail certificates live in the log domain")
    c = prob.c
    if c == 0.0:
        s_start = -math.log(prob.R) + 1e-9
        return TailCertificate("nonoscillatory", 0.0, s_start - 1.0, (s_start, prob.s_max))
    edges = tail_edges(prob, settings)
    if c <= edges.c_non * (1.0 + settings.certificate_slack):
        return replace(edges.unit_non, gamma=c * edges.unit_non.gamma)
    if c >= edges.c_osc:
        return replace(edges.unit_osc, gamma=c * edges.unit_osc.gamma)
    return None


def _tail_grid(s_start: float, s_max: float, n: int) -> np.ndarray:
    lo = max(s_start, 1e-3)
    if s_start <= 0.0:
        head = np.linspace(s_start, lo, 16, endpoint=False)
    else:
        head = np.empty(0)
    body = np.geomspace(lo, s_max, n)
    return np.unique(np.concatenate([head, body]))


def _candidate_shifts(grid: np.ndarray, g: np.ndarray, s_start: float) -> list[float]:
    """Shift candidates: least-squares line through 1/sqrt(g) on the last
    decades (exact for shifted-Euler tails), plus simple fallbacks."""
    shifts = [0.0] if s_start > 0.0 else [s_start - 1.0]
    mask = (grid >= grid[-1] / 100.0) & (g > 0.0)
    if mask.sum() >= 8:
        q = 1.0 / np.sqrt(g[mask])
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


def _oscillation_edge(s: np.ndarray, s0: float, gamma: np.ndarray
                      ) -> tuple[float, Optional[TailCertificate]]:
    """The least c with c min gamma >= 1/4 + (pi / ln((s2 - s0)/(s1 - s0)))^2
    on a sample window [s1, s2], and its certificate at c = 1 ((inf, None) if
    none), in O(n): each sample is taken as the window minimum and its window
    extended to its nearest smaller neighbours (a monotone stack)."""
    vals, n = gamma.tolist(), gamma.size
    left, right, stack = [0] * n, [n - 1] * n, []
    for k, v in enumerate(vals):
        while stack and vals[stack[-1]] > v:
            right[stack.pop()] = k - 1
        left[k] = stack[-1] + 1 if stack else 0
        stack.append(k)
    lo, hi = np.array(left), np.array(right)
    length = np.log((s[hi] - s0) / (s[lo] - s0))
    with np.errstate(over="ignore", divide="ignore"):
        need = np.where((length > 0.0) & (gamma > 0.0),
                        (0.25 + (math.pi / length) ** 2) / gamma, math.inf)
    k = int(np.argmin(need))
    if need[k] == math.inf:
        return math.inf, None
    return float(need[k]), TailCertificate("oscillatory", float(gamma[k]), s0,
                                           (float(s[lo[k]]), float(s[hi[k]])))


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
