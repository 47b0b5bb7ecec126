"""Radial potential catalog, iterated-log special functions, and the
admissibility classifier.

A potential here is a nonnegative radial coefficient v(r) on (0, r_max],
with a declared leading singularity v(r) ~ A * r^(-sigma) as r -> 0 and a
``critical`` flag marking the borderline inverse-square-with-log-corrections
family.  Catalog entries:

  constant            v(r) = amplitude
  power_law           v(r) = amplitude * r^(-alpha)
  adimurthi_log       v(r) = amplitude / r^2 * sum_{j<=m} prod_{i<=j} log^(i)(rho/r)^(-2)
  filippas_tertikas_x v(r) = amplitude / r^2 * sum_{i<=m} prod_{j<=i} X_j(r/d)^2
  custom              log-log interpolation of a sampled (r, v) table

``value``, ``log_weight`` and ``closed_form`` take a float or an ndarray and
return the same shape; each family's formula is written once for both.

The two log families carry exact positive solutions of the reduced radial
equation at multiplier 1/4 (see ``closed_form`` / ``closed_form_multiplier``);
the constant potential carries the J0 profile at multiplier z0^2/R^2.

Admissibility classification follows the sign of
liminf_{r->0} ln(r) * int_0^r s v(s) ds: finite liminf means the potential is
admissible after scaling (label X), divergence to -infinity means no scaling
ever works (label Y).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .bessel import bessel_j0, bessel_j0_first_zero
from .errors import DomainError, QuadratureError, UnsupportedPotential


def _clip_exp(exponent):
    """exp() that saturates at 1e300 / 0.0 instead of overflowing (comparisons
    only need 'very large', never the exact value); float or ndarray."""
    if isinstance(exponent, np.ndarray):
        inner = np.exp(np.clip(exponent, -745.0, 690.0))
        return np.where(exponent > 690.0, 1e300, np.where(exponent < -745.0, 0.0, inner))
    if exponent > 690.0:
        return 1e300
    if exponent < -745.0:
        return 0.0
    return math.exp(exponent)


def _scaled_exp(amplitude: float, exponent, xp):
    """amplitude * exp(exponent), or the saturated _clip_exp(log(amplitude) +
    exponent) where exp itself overflows."""
    if xp is math:
        try:
            return amplitude * math.exp(exponent)
        except OverflowError:
            return _clip_exp(math.log(max(amplitude, 1e-300)) + exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.exp(exponent)
        return np.where(np.isinf(direct),
                        _clip_exp(math.log(max(amplitude, 1e-300)) + exponent), amplitude * direct)


# ---------------------------------------------------------------------------
# Iterated logarithms and the X_k correction weights
# ---------------------------------------------------------------------------

def iterated_log(i: int, x: float) -> float:
    """i-fold nested natural log; every stage (including the result) must be > 0."""
    if i < 1:
        raise DomainError(f"iteration depth must be >= 1, got {i}")
    value = float(x)
    for _ in range(i):
        if value <= 0.0:
            raise DomainError(f"iterated_log({i}, {x}): intermediate value {value} <= 0")
        value = math.log(value)
    if value <= 0.0:
        raise DomainError(f"iterated_log({i}, {x}) = {value} is not positive")
    return value


def exp_tower(m: int) -> float:
    """m-fold exponential of 1: e, e^e, e^(e^e), ..."""
    if m < 1:
        raise DomainError(f"tower height must be >= 1, got {m}")
    value = 1.0
    for _ in range(m):
        value = math.exp(value)
    return value


def x_iter(k: int, t: float) -> float:
    """X_k(t) with X_1(t) = (1 - log t)^(-1) and X_k = X_1(X_{k-1}).

    Defined for t in (0, 1]; maps into (0, 1] and fixes t = 1.
    """
    if k < 1:
        raise DomainError(f"x_iter order must be >= 1, got {k}")
    if not 0.0 < t <= 1.0:
        raise DomainError(f"x_iter argument must be in (0, 1], got {t}")
    value = float(t)
    for _ in range(k):
        value = 1.0 / (1.0 - math.log(value))
    return value


# The chains of the two borderline families, shared by value, log_weight and
# closed_form: float or ndarray in, with ``xp`` its namespace (math / numpy).

def _log_chain(m: int, ell, xp):
    """Factors ell_i = log^(i-1)(ell), i = 1..m, each required positive,
    reduced to (sum_j prod_{i<=j} ell_i^(-2), prod_i ell_i)."""
    total, prod = 0.0, 1.0
    for i in range(m):
        ell = xp.log(ell) if i else ell
        if (ell <= 0.0).any() if xp is np else ell <= 0.0:
            raise DomainError("a log factor of the iterated-log potential is not positive")
        prod *= ell
        total += prod ** -2
    return total, prod


def _x_chain(m: int, x, xp):
    """X_1 = x, ..., X_m by X_(k+1) = 1 / (1 - log X_k), reduced to
    (sum_i prod_{j<=i} X_j^2, prod_j X_j)."""
    total, prod = 0.0, 1.0
    for i in range(m):
        x = 1.0 / (1.0 - xp.log(x)) if i else x
        prod *= x
        total += prod * prod
    return total, prod


# ---------------------------------------------------------------------------
# The potential type
# ---------------------------------------------------------------------------

class Kind(Enum):
    CONSTANT = "constant"
    POWER_LAW = "power_law"
    ADIMURTHI_LOG = "adimurthi_log"
    FILIPPAS_TERTIKAS_X = "filippas_tertikas_x"
    CUSTOM = "custom"


# Aliases: an Enum attribute lookup costs ~0.1 us per scalar evaluation.
_CONSTANT, _POWER_LAW, _ADIMURTHI_LOG, _FT_X = (
    Kind.CONSTANT, Kind.POWER_LAW, Kind.ADIMURTHI_LOG, Kind.FILIPPAS_TERTIKAS_X)


@dataclass(frozen=True)
class RadialPotential:
    """Evaluatable radial coefficient with declared behavior at r = 0.

    Immutable; construct through the classmethod factories which enforce the
    catalog guards (positivity of every log factor on (0, r_max], d >= r_max
    for the X family, nonnegative amplitude).
    """

    kind: Kind
    amplitude: float = 1.0
    r_max: float = 1.0
    alpha: float = 0.0        # power-law exponent
    m: int = 1                # iteration depth of the log families
    rho: float = math.e       # outer scale of the iterated logs
    d_scale: float = 1.0      # outer scale of the X functions
    sigma: float = 0.0        # declared leading exponent: v ~ A r^(-sigma)
    critical: bool = False    # borderline (4r^2)^(-1)-type singularity
    table_log_r: Optional[np.ndarray] = field(default=None, repr=False)
    table_log_v: Optional[np.ndarray] = field(default=None, repr=False)

    # -- factories ----------------------------------------------------------

    @classmethod
    def constant(cls, amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        cls._check_amp_rmax(amplitude, r_max)
        return cls(Kind.CONSTANT, amplitude=amplitude, r_max=r_max, sigma=0.0)

    @classmethod
    def power_law(cls, alpha: float, amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        cls._check_amp_rmax(amplitude, r_max)
        return cls(Kind.POWER_LAW, amplitude=amplitude, r_max=r_max,
                   alpha=float(alpha), sigma=float(alpha))

    @classmethod
    def adimurthi_log(cls, m: int, rho: Optional[float] = None,
                      amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        """Iterated-log family.  rho defaults to, and must be at least,
        r_max times the m-fold exponential tower of 1, which keeps every
        factor log^(i)(rho/r) positive on (0, r_max]."""
        cls._check_amp_rmax(amplitude, r_max)
        if m < 1:
            raise DomainError(f"iteration depth must be >= 1, got {m}")
        floor = r_max * exp_tower(m)
        if rho is None:
            rho = floor
        if rho < floor * (1.0 - 1e-12):
            raise DomainError(
                f"rho = {rho} violates the tower guard rho >= r_max * exp^({m})(1) = {floor}")
        return cls(Kind.ADIMURTHI_LOG, amplitude=amplitude, r_max=r_max,
                   m=int(m), rho=float(rho), sigma=2.0, critical=True)

    @classmethod
    def filippas_tertikas(cls, m: int, d_scale: Optional[float] = None,
                          amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        """X-function family; d defaults to r_max and must not be smaller,
        so r/d stays in (0, 1] where every X_i is defined."""
        cls._check_amp_rmax(amplitude, r_max)
        if m < 1:
            raise DomainError(f"iteration depth must be >= 1, got {m}")
        if d_scale is None:
            d_scale = r_max
        if d_scale < r_max * (1.0 - 1e-12):
            raise DomainError(f"d_scale = {d_scale} must be >= r_max = {r_max}")
        return cls(Kind.FILIPPAS_TERTIKAS_X, amplitude=amplitude, r_max=r_max,
                   m=int(m), d_scale=float(d_scale), sigma=2.0, critical=True)

    @classmethod
    def custom(cls, r: np.ndarray, v: np.ndarray, r_max: Optional[float] = None,
               sigma: Optional[float] = None, critical: bool = False) -> "RadialPotential":
        """Tabulated potential, interpolated log-linearly (linear in log r vs
        log v) and extrapolated with the boundary slopes.

        sigma defaults to the log-log slope fitted over the smallest sampled
        decades (clipped to [1e-8, 1e-4] * r_max when the table reaches them).
        """
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise DomainError("custom potential needs matching 1-d r and v arrays, length >= 2")
        if np.any(np.diff(r) <= 0.0):
            raise DomainError("custom potential radii must be strictly increasing")
        if np.any(r <= 0.0) or np.any(v <= 0.0):
            raise DomainError("custom potential samples must be strictly positive")
        if r_max is None:
            r_max = float(r[-1])
        log_r = np.log(r)
        log_v = np.log(v)
        if sigma is None:
            lo = max(1e-8 * r_max, r[0])
            hi = min(1e-4 * r_max, r[-1])
            mask = (r >= lo * 0.999) & (r <= hi * 1.001)
            if mask.sum() < 2:
                mask = np.zeros_like(r, dtype=bool)
                mask[: max(2, r.size // 4)] = True
            slope = np.polyfit(log_r[mask], log_v[mask], 1)[0]
            sigma = -float(slope)
        return cls(Kind.CUSTOM, amplitude=1.0, r_max=float(r_max),
                   sigma=float(sigma), critical=bool(critical),
                   table_log_r=log_r, table_log_v=log_v)

    @staticmethod
    def _check_amp_rmax(amplitude: float, r_max: float) -> None:
        if amplitude < 0.0:
            raise DomainError(f"amplitude must be >= 0, got {amplitude}")
        if r_max <= 0.0:
            raise DomainError(f"r_max must be > 0, got {r_max}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r):
        return self.value(r)

    def value(self, r):
        """v(r) for 0 < r <= r_max; a float gives a float, an ndarray an
        ndarray of the same shape."""
        xp = np if isinstance(r, np.ndarray) else math
        r = r.astype(float, copy=False) if xp is np else float(r)
        inside = (0.0 < r) & (r <= self.r_max * (1.0 + 1e-12))
        if not (inside.all() if xp is np else inside):
            bad = r[~inside].flat[0] if xp is np else r
            raise DomainError(f"radius {bad} outside (0, {self.r_max}]")
        kind = self.kind
        if kind is _CONSTANT:
            return np.full_like(r, self.amplitude) if xp is np else self.amplitude
        if kind is _POWER_LAW:
            return self.amplitude * r ** (-self.alpha)
        if kind is _ADIMURTHI_LOG:
            return self.amplitude * _log_chain(self.m, xp.log(self.rho / r), xp)[0] / (r * r)
        if kind is _FT_X:
            x1 = 1.0 / (1.0 - xp.log(r / self.d_scale))
            return self.amplitude * _x_chain(self.m, x1, xp)[0] / (r * r)
        return _clip_exp(self._table_interp(xp.log(r)))

    def log_weight(self, s):
        """r^2 * v(r) evaluated at r = e^(-s), computed stably in s; float or
        ndarray, like ``value``.  This is the coefficient (up to the
        multiplier) of the equation in the log variable; direct evaluation of
        v(e^(-s)) would underflow for s >~ 700, so each entry works in s."""
        xp = np if isinstance(s, np.ndarray) else math
        s = s.astype(float, copy=False) if xp is np else float(s)
        kind = self.kind
        if kind is _CONSTANT:
            return _scaled_exp(self.amplitude, -2.0 * s, xp)
        if kind is _POWER_LAW:
            if self.amplitude == 0.0:
                return np.zeros_like(s) if xp is np else 0.0
            return _clip_exp(math.log(self.amplitude) + (self.alpha - 2.0) * s)
        if kind is _ADIMURTHI_LOG:
            return self.amplitude * _log_chain(self.m, s + math.log(self.rho), xp)[0]
        if kind is _FT_X:
            # X_1(e^(-s)/d) = 1 / (1 + log d + s), then the usual recursion.
            x1 = 1.0 / (1.0 + math.log(self.d_scale) + s)
            if (x1 <= 0.0).any() if xp is np else x1 <= 0.0:
                raise DomainError(f"log-abscissa {np.min(s)} outside the X-family domain")
            return self.amplitude * _x_chain(self.m, x1, xp)[0]
        # custom: evaluate the interpolant in exponent space
        return _clip_exp(self._table_interp(-s) - 2.0 * s)

    @functools.cached_property
    def _table_ends(self) -> tuple[float, ...]:
        """(log r, log v) at both ends of the table and the slopes there."""
        lr, lv = self.table_log_r, self.table_log_v
        return (float(lr[0]), float(lv[0]), float((lv[1] - lv[0]) / (lr[1] - lr[0])),
                float(lr[-1]), float(lv[-1]), float((lv[-1] - lv[-2]) / (lr[-1] - lr[-2])))

    def _table_interp(self, log_r):
        """log v at log r: the table interpolated linearly, and extended past
        either end with that end's slope."""
        first, v_first, below, last, v_last, above = self._table_ends
        if isinstance(log_r, np.ndarray):
            return (np.interp(log_r, self.table_log_r, self.table_log_v)
                    + below * np.minimum(log_r - first, 0.0)
                    + above * np.maximum(log_r - last, 0.0))
        if log_r <= first:
            return v_first + below * (log_r - first)
        if log_r >= last:
            return v_last + above * (log_r - last)
        return float(np.interp(log_r, self.table_log_r, self.table_log_v))

    # -- structure ----------------------------------------------------------

    def singular_amplitude(self, r_ref: float) -> float:
        """Local coefficient A of v ~ A r^(-sigma), matched at r_ref."""
        return self.value(r_ref) * r_ref ** self.sigma

    def euler_shift_hint(self) -> Optional[float]:
        """Natural shift s0 for comparing r^2 v(e^{-s}) against g/(s-s0)^2.

        The borderline families are exactly shifted-Euler to leading order:
        r^2 v = amplitude (1 + ...)/(s + log rho)^2 for the iterated logs and
        /(s + 1 + log d)^2 for the X family.  Purely a search hint; any
        certificate is verified pointwise regardless of the shift's origin.
        """
        if self.kind is Kind.ADIMURTHI_LOG:
            return -math.log(self.rho)
        if self.kind is Kind.FILIPPAS_TERTIKAS_X:
            return -(1.0 + math.log(self.d_scale))
        return None

    def scaled(self, beta: float) -> "RadialPotential":
        """The rescaled potential r |-> beta^2 * v(beta r) on (0, r_max / beta].

        Every catalog family is closed under this map, so the result is a
        potential of the same kind.
        """
        if beta <= 0.0:
            raise DomainError(f"scaling factor must be > 0, got {beta}")
        if self.kind is Kind.CONSTANT:
            return RadialPotential.constant(self.amplitude * beta ** 2, self.r_max / beta)
        if self.kind is Kind.POWER_LAW:
            return RadialPotential.power_law(self.alpha, self.amplitude * beta ** (2.0 - self.alpha),
                                             self.r_max / beta)
        if self.kind is Kind.ADIMURTHI_LOG:
            return RadialPotential.adimurthi_log(self.m, self.rho / beta,
                                                 self.amplitude, self.r_max / beta)
        if self.kind is Kind.FILIPPAS_TERTIKAS_X:
            return RadialPotential.filippas_tertikas(self.m, self.d_scale / beta,
                                                     self.amplitude, self.r_max / beta)
        r = np.exp(self.table_log_r) / beta
        v = np.exp(self.table_log_v) * beta ** 2
        return RadialPotential.custom(r, v, self.r_max / beta, self.sigma, self.critical)

    # -- closed forms -------------------------------------------------------

    @property
    def has_closed_form(self) -> bool:
        return self.kind in (Kind.CONSTANT, Kind.ADIMURTHI_LOG, Kind.FILIPPAS_TERTIKAS_X)

    def closed_form_multiplier(self, R: Optional[float] = None) -> float:
        """Multiplier c at which ``closed_form`` solves y'' + y'/r + c v y = 0.

        The log families solve at c = 1/4 / amplitude; the constant potential
        at c = z0^2 / (R^2 amplitude) where z0 is the first J0 zero.
        """
        if self.kind is Kind.CONSTANT:
            if R is None:
                R = self.r_max
            if self.amplitude == 0.0:
                raise UnsupportedPotential("amplitude-0 potential has no nontrivial closed form")
            z0 = bessel_j0_first_zero()
            return z0 * z0 / (R * R * self.amplitude)
        if self.kind in (Kind.ADIMURTHI_LOG, Kind.FILIPPAS_TERTIKAS_X):
            if self.amplitude == 0.0:
                raise UnsupportedPotential("amplitude-0 potential has no nontrivial closed form")
            return 0.25 / self.amplitude
        raise UnsupportedPotential(f"no closed form for kind {self.kind.value}")

    def closed_form(self, r, R: Optional[float] = None):
        """Exact positive solution of the reduced equation for this entry,
        evaluated at radius r (valid multiplier from closed_form_multiplier);
        float or ndarray, like ``value``.
        """
        if self.kind is Kind.CONSTANT:
            if R is None:
                R = self.r_max
            return bessel_j0(bessel_j0_first_zero() * r / R)
        xp = np if isinstance(r, np.ndarray) else math
        if np.min(r) <= 0.0:
            raise DomainError(f"closed form of {self.kind.value} needs r > 0, got {np.min(r)}")
        if self.kind is Kind.ADIMURTHI_LOG:
            return xp.sqrt(_log_chain(self.m, xp.log(self.rho / r), xp)[1])
        if self.kind is Kind.FILIPPAS_TERTIKAS_X:
            return _x_chain(self.m, 1.0 / (1.0 - xp.log(r / self.d_scale)), xp)[1] ** -0.5
        raise UnsupportedPotential(f"no closed form for kind {self.kind.value}")

    # -- config -------------------------------------------------------------

    @classmethod
    def from_config(cls, section: dict) -> "RadialPotential":
        """Build from a parsed config mapping with keys kind / alpha / m /
        rho / d_scale / amplitude / r_max / samples."""
        kind = section.get("kind", "").strip().lower()
        r_max = float(section.get("r_max", 1.0))
        amplitude = float(section.get("amplitude", 1.0))
        if kind == Kind.CONSTANT.value:
            return cls.constant(amplitude, r_max)
        if kind == Kind.POWER_LAW.value:
            if "alpha" not in section:
                raise DomainError("power_law potential needs key 'alpha'")
            return cls.power_law(float(section["alpha"]), amplitude, r_max)
        if kind == Kind.ADIMURTHI_LOG.value:
            m = int(section.get("m", 1))
            rho = float(section["rho"]) if "rho" in section else None
            return cls.adimurthi_log(m, rho, amplitude, r_max)
        if kind == Kind.FILIPPAS_TERTIKAS_X.value:
            m = int(section.get("m", 1))
            d = float(section["d_scale"]) if "d_scale" in section else None
            return cls.filippas_tertikas(m, d, amplitude, r_max)
        if kind == Kind.CUSTOM.value:
            if "samples" not in section:
                raise DomainError("custom potential needs key 'samples' (CSV path)")
            r, v = load_samples_csv(section["samples"])
            sigma = float(section["sigma"]) if "sigma" in section else None
            return cls.custom(r, v, r_max if "r_max" in section else None, sigma)
        raise DomainError(f"unknown potential kind {kind!r}")


def load_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV with header ``r,v`` and monotone radii."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["r", "v"]:
            raise DomainError(f"expected CSV header 'r,v' in {path}, got {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise DomainError(f"expected two columns in {path}")
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# Classification: admissible after scaling (X) vs never admissible (Y)
# ---------------------------------------------------------------------------

class Label(Enum):
    X = "X"                      # liminf ln(r) int_0^r s v finite
    Y = "Y"                      # the limit is -infinity
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ClassLabel:
    label: Label
    evidence: np.ndarray         # ln(r_k) * int_0^{r_k} s v(s) ds at the probes
    probe_radii: np.ndarray
    limit_estimate: Optional[float] = None


def inner_integral(p: RadialPotential, r: float) -> float:
    """int_0^r s v(s) ds, computed as a log-variable integral to infinity.

    With u = e^(-s) the integral becomes int_{ln(1/r)}^inf r^2 v | ... ds,
    i.e. the integral of ``log_weight`` over [ln(1/r), inf), which scipy's
    adaptive quadrature handles including the slow 1/s^2 critical tails.
    """
    if not 0.0 < r <= p.r_max * (1.0 + 1e-12):
        raise DomainError(f"radius {r} outside (0, {p.r_max}]")
    s_r = math.log(1.0 / r)
    result = quad(p.log_weight, s_r, np.inf, limit=400,
                  epsabs=0.0, epsrel=1e-10, full_output=1)
    val, err = result[0], result[1]
    clean = len(result) == 3
    converged = math.isfinite(val) and (clean or err <= 1e-6 * max(abs(val), 1e-300))
    if not converged:
        raise QuadratureError(
            f"inner integral at r = {r} did not converge (value {val}, error {err})")
    return val


def _certified_divergent(p: RadialPotential) -> bool:
    """True when int_0^r s v(s) ds can be certified divergent.

    Certificate: r^2 v(r) is bounded below by a positive constant and not
    decaying (fitted log-slope >= -1e-5) over a deep window of log-radii,
    which makes s v(s) >= delta / s near the origin.  The window reaches
    r ~ e^(-620); the stable ``log_weight`` form avoids underflow there.
    """
    s_grid = np.linspace(25.0, 620.0, 120)
    vals = p.log_weight(s_grid)
    if np.any(vals < 1e-10):
        return False
    slope = np.polyfit(s_grid, np.log(vals), 1)[0]
    return slope >= -1e-5


def classify(p: RadialPotential, probes: Optional[np.ndarray] = None,
             threshold: float = -1e6) -> ClassLabel:
    """Classify the potential by the decay of L(r) = ln(r) int_0^r s v ds.

    Heuristic, with an honest Indeterminate escape:

      * divergent inner integral (certified)            -> Y
      * L monotone decreasing past ``threshold``        -> Y
      * 1/|ln r| extrapolations of L over the last five
        probes agreeing on a finite limit               -> X
      * otherwise                                       -> Indeterminate
    """
    if probes is None:
        probes = p.r_max * np.logspace(-2, -8, 13)
    probes = np.asarray(probes, dtype=float)
    if np.any(np.diff(probes) >= 0.0):
        raise DomainError("probe radii must be strictly decreasing")
    if probes[-1] > 1e-6 * p.r_max:
        raise DomainError("smallest probe must be <= 1e-6 * r_max")

    if _certified_divergent(p):
        evidence = np.full(probes.shape, -np.inf)
        return ClassLabel(Label.Y, evidence, probes)

    inner = np.array([inner_integral(p, r) for r in probes])
    evidence = np.log(probes) * inner

    tail = evidence[-5:]
    decreasing = bool(np.all(np.diff(evidence) < 0.0))
    if decreasing and evidence[-1] < threshold:
        return ClassLabel(Label.Y, evidence, probes)

    # Certify boundedness two ways: shrinking magnitude (power-law-type
    # tails, L -> 0), or agreeing 1/|ln r| extrapolations (log-family tails,
    # L -> finite negative limit).
    magnitudes = np.abs(tail)
    if np.all(np.diff(magnitudes) < 0.0) and magnitudes.max() <= 10.0:
        return ClassLabel(Label.X, evidence, probes, limit_estimate=float(tail[-1]))

    s = -np.log(probes[-5:])
    extrapolants = []
    for i in range(len(tail) - 1):
        b = (tail[i] - tail[i + 1]) / (1.0 / s[i] - 1.0 / s[i + 1])
        extrapolants.append(tail[i + 1] - b / s[i + 1])
    extrapolants = np.array(extrapolants)
    spread = float(np.max(extrapolants) - np.min(extrapolants))
    limit = float(np.mean(extrapolants))
    if spread <= 0.05 * (1.0 + abs(limit)) and np.isfinite(limit):
        return ClassLabel(Label.X, evidence, probes, limit_estimate=limit)
    return ClassLabel(Label.INDETERMINATE, evidence, probes, limit_estimate=limit)
