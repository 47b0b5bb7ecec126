"""Radial potential catalog, the borderline chain, and the admissibility
classifier.

A potential here is a nonnegative radial coefficient v(r) on (0, r_max],
with a leading singularity v(r) ~ A * r^(-sigma) as r -> 0 (a table's is
its inner cell's).  Catalog entries:

  constant            v(r) = amplitude
  power_law           v(r) = amplitude * r^(-alpha)
  adimurthi_log       v(r) = amplitude / r^2 * sum_{j<=m} prod_{i<=j} log^(i)(rho/r)^(-2)
  filippas_tertikas_x v(r) = amplitude / r^2 * sum_{i<=m} prod_{j<=i} X_j(r/d)^2
  custom              log-log interpolation of a sampled (r, v) table

Each family defines one thing, the coefficient of the radial equation in
s = ln(1/r): ``log_weight(s)`` = r^2 v(r) at r = e^(-s).  The two log
families are one chain (``_chain``), X_1 = 1/(s - s0), X_(i+1) = 1/(kappa -
ln X_i), r^2 v = A sum_j prod_{i<=j} X_i^2, that differs only by kappa: 0 for
the iterated logs (X_i = 1/log^(i)(rho/r)), 1 for the X family.  Constants,
power laws and tables evaluate it on ``log_cells`` (the last cell,
``inner_cell``), the piecewise-linear model of ln(r^2 v) in s that their
exact sweeps integrate.  ``value`` is derived from it.  Both, and
``closed_form``, keep a float or ndarray's shape.

The two log families carry exact positive solutions of the reduced radial
equation at multiplier 1/4, (prod X_i)^(-1/2) (see ``closed_form`` /
``closed_form_multiplier``); the constant potential carries the J0 profile
at multiplier z0^2/R^2.

The kind of a potential's inner tail is decided once, in floats, by
``RadialPotential.tail``: the inner cell, a ``FallingCell`` or a
``RisingCell`` by the sign of its slope; a log family's ``EulerTail``; or,
where the model is 0 (a cell kind's ln A = -inf, a log family's A = 0), the
one ``VANISHING``.

Admissibility classification follows the sign of
liminf_{r->0} ln(r) * int_0^r s v(s) ds: finite liminf means the potential is
admissible after scaling (label X), divergence to -infinity means no scaling
ever works (label Y).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, UnsupportedPotential

# z0, the first positive zero of J0: scipy.special.jn_zeros(0, 1)[0] bit for bit,
# as a literal, so that importing the package loads no scipy
J0_FIRST_ZERO = float.fromhex('0x1.33d152e971b3fp+1')
TINY = 2.0 ** -1022           # the least normal double
HUGE = math.nextafter(math.inf, 0.0)    # the largest double
S_MAX_DEFAULT = 1e300         # default log-domain horizon


def exp_or_inf(exponent):
    """e^exponent, inf past the largest double, with no warning; float or ndarray."""
    if isinstance(exponent, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(exponent)
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def exprel(x: np.ndarray) -> np.ndarray:
    """(e^x - 1) / x elementwise from numpy's expm1: 1 at x = 0, inf where
    e^x overflows (``scipy.special.exprel``, within an ulp)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 1.0, np.expm1(x) / x)


def _times_power(x, beta: float, power: float, what: str):
    """x beta^power for x > 0, float or ndarray, through logarithms where
    beta^power alone is not a normal float (a subnormal power has already
    lost digits); an image that is not a normal float raises DomainError."""
    try:
        factor = beta ** power
    except OverflowError:
        factor = math.inf
    with np.errstate(over="ignore"):
        y = x * factor if TINY <= factor < math.inf else np.exp(np.log(x) + power * math.log(beta))
    if not np.all((TINY <= y) & (y < math.inf)):
        raise DomainError(f"{what} scaled by {beta!r}^{power!r} rounds to 0, a subnormal or inf")
    return y


# ---------------------------------------------------------------------------
# The exponential tower and the borderline chain
# ---------------------------------------------------------------------------

def exp_tower(m: int) -> float:
    """m-fold exponential of 1: e, e^e, e^(e^e); DomainError from m = 4 on."""
    if m < 1:
        raise DomainError(f"tower height must be >= 1, got {m}")
    value = 1.0
    try:
        for _ in range(m):
            value = math.exp(value)
    except OverflowError:
        raise DomainError(f"tower height m = {m}: exp^({m})(1) exceeds the largest float") from None
    return value


def _chain(m: int, sigma, kappa: float, xp):
    """The borderline families' X_1 = 1/sigma, ..., X_m by X_(i+1) = 1 /
    (kappa - log X_i), each required positive, sigma finite at any m, reduced to
    (sum_i prod_{j<=i} X_j^2, prod_j X_j); float or ndarray, ``xp`` math or np.
    An ndarray sigma is the caller's temporary: each sigma and X_i overwrite it."""
    total, prod, inplace = 0.0, 1.0, isinstance(sigma, np.ndarray)
    if not (np.isfinite(sigma).all() if xp is np else math.isfinite(sigma)):    # X_1 = +-0, nan
        raise DomainError("abscissa outside the family's domain: a chain factor is not > 0")
    for i in range(m):
        if i:    # kappa - log X, finite, as the last X is in (0, inf)
            sigma = np.subtract(kappa, np.log(x, out=x), out=x) if inplace else kappa - xp.log(x)
        if (sigma <= 0.0).any() if xp is np else sigma <= 0.0:
            raise DomainError("abscissa outside the family's domain: a chain factor is not > 0")
        x = np.divide(1.0, sigma, out=sigma) if inplace else 1.0 / sigma
        prod *= x
        total += prod * prod
    return total, prod


# ---------------------------------------------------------------------------
# The potential type
# ---------------------------------------------------------------------------

class Kind(Enum):
    __hash__ = object.__hash__    # singletons: hashed in C, not by Enum's Python __hash__
    CONSTANT = "constant"
    POWER_LAW = "power_law"
    ADIMURTHI_LOG = "adimurthi_log"
    FILIPPAS_TERTIKAS_X = "filippas_tertikas_x"
    CUSTOM = "custom"


# The borderline families: the kappa of their ``_chain``, the field of their scale
_BORDERLINE = {Kind.ADIMURTHI_LOG: (0.0, "rho"), Kind.FILIPPAS_TERTIKAS_X: (1.0, "d_scale")}


@dataclass(frozen=True)
class RadialPotential:
    """Evaluatable radial coefficient with declared behavior at r = 0.

    Immutable.  Every construction, by a factory, the constructor,
    ``dataclasses.replace`` or ``scaled``, runs the catalog guards
    (``__post_init__``): a finite amplitude >= 0, a finite r_max > 0, a
    finite alpha, an integer m (an integral float is stored as an int), and
    for the log families m >= 1 and an outer scale at least its floor, which
    keeps every log factor positive on (0, r_max].  sigma is read off the
    model there, never passed in, and a table's logs are stored as tuples of
    floats, so that equal potentials compare and hash equal.
    """

    kind: Kind
    amplitude: float = 1.0    # unread by a table, whose samples are its model
    r_max: float = 1.0
    alpha: float = 0.0        # power-law exponent
    m: int = 1                # iteration depth of the log families, an integer
    rho: Optional[float] = None        # outer scale of the iterated logs; None: its floor
    d_scale: Optional[float] = None    # outer scale of the X functions; None: its floor
    table_log_r: Optional[tuple] = field(default=None, repr=False)    # floats, so tables
    table_log_v: Optional[tuple] = field(default=None, repr=False)    # compare and hash
    sigma: float = field(init=False)    # v ~ A r^(-sigma) at r = 0; a table's is its inner cell's

    def __post_init__(self):
        """The guards, then sigma: alpha for a power law, 0 for a constant,
        2 for the log families, a table's first-segment exponent; a log
        family's outer scale defaults to its floor, r_max times exp^(m)(1)
        at kappa = 0, r_max at kappa = 1."""
        if not 0.0 <= self.amplitude < math.inf:
            raise DomainError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0.0 < self.r_max < math.inf:
            raise DomainError(f"r_max must be finite and > 0, got {self.r_max}")
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha}")
        if not (isinstance(self.m, (int, np.integer))
                or isinstance(self.m, (float, np.floating)) and float(self.m).is_integer()):
            raise DomainError(f"iteration depth must be an integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if self.kind in _BORDERLINE:
            if self.m < 1:
                raise DomainError(f"iteration depth must be >= 1, got {self.m}")
            kappa, key = _BORDERLINE[self.kind]
            floor = self.r_max if kappa else self.r_max * exp_tower(self.m)
            scale = floor if getattr(self, key) is None else getattr(self, key)
            if not floor * (1.0 - 1e-12) <= scale < math.inf:
                raise DomainError(f"{key} = {scale} must be finite and >= r_max"
                                  f"{'' if kappa else f' * exp^({self.m})(1)'} = {floor}")
            object.__setattr__(self, key, float(scale))
            sigma = 2.0
        elif self.kind is Kind.CUSTOM:
            for key in ("table_log_r", "table_log_v"):    # tuples of floats, from any sequence
                object.__setattr__(self, key, tuple(np.asarray(getattr(self, key), float).tolist()))
            (r0, r1), (v0, v1) = self.table_log_r[:2], self.table_log_v[:2]
            sigma = (v0 - v1) / (r1 - r0)
        else:
            sigma = float(self.alpha) if self.kind is Kind.POWER_LAW else 0.0
        object.__setattr__(self, "sigma", sigma)

    # -- factories ----------------------------------------------------------

    @classmethod
    def constant(cls, amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        return cls(Kind.CONSTANT, amplitude=amplitude, r_max=r_max)

    @classmethod
    def power_law(cls, alpha: float, amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        return cls(Kind.POWER_LAW, amplitude=amplitude, r_max=r_max, alpha=float(alpha))

    @classmethod
    def adimurthi_log(cls, m: int = 1, rho: Optional[float] = None,
                      amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        """Iterated-log family, the chain at kappa = 0.  rho defaults to, and
        must be at least, r_max times the m-fold exponential tower of 1,
        which keeps every factor log^(i)(rho/r) positive on (0, r_max]."""
        return cls(Kind.ADIMURTHI_LOG, amplitude=amplitude, r_max=r_max, m=m, rho=rho)

    @classmethod
    def filippas_tertikas(cls, m: int = 1, d_scale: Optional[float] = None,
                          amplitude: float = 1.0, r_max: float = 1.0) -> "RadialPotential":
        """X-function family, the chain at kappa = 1; d defaults to r_max and
        must not be smaller, so r/d stays in (0, 1] where every X_i is defined."""
        return cls(Kind.FILIPPAS_TERTIKAS_X, amplitude=amplitude, r_max=r_max, m=m,
                   d_scale=d_scale)

    @classmethod
    def custom(cls, r: np.ndarray, v: np.ndarray,
               r_max: Optional[float] = None) -> "RadialPotential":
        """Tabulated potential, interpolated log-linearly (linear in log r vs
        log v) and extrapolated with the boundary slopes.

        Below r[0] the table is exactly v[0] (r / r[0])^(-sigma), so sigma is
        its inner cell's exponent -(ln v1 - ln v0) / (ln r1 - ln r0), 0 when
        the first segment is flat.  The samples are checked here, before
        their logarithms are taken.
        """
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise DomainError("custom potential needs matching 1-d r and v arrays, length >= 2")
        if not (np.isfinite(r).all() and np.isfinite(v).all()):
            raise DomainError("custom potential samples must be finite")
        if np.any(np.diff(r) <= 0.0):
            raise DomainError("custom potential radii must be strictly increasing")
        if np.any(r <= 0.0) or np.any(v <= 0.0):
            raise DomainError("custom potential samples must be strictly positive")
        return cls(Kind.CUSTOM, r_max=float(r[-1] if r_max is None else r_max),
                   table_log_r=np.log(r), table_log_v=np.log(v))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r):
        return self.value(r)

    def value(self, r):
        """v(r) for 0 < r <= r_max; a float gives a float, an ndarray an
        ndarray of the same shape.  Derived from the coefficient in s =
        ln(1/r): ``log_weight(s) / r^2`` for the log families, ln v on the
        cells of ``log_cells`` for the other kinds; inf past the largest double."""
        xp = np if isinstance(r, np.ndarray) else math
        r = r.astype(float, copy=False) if xp is np else float(r)
        self.check_radius(r)
        if self.log_cells is None:
            with np.errstate(over="ignore"):     # r * r underflows below 1.5e-154
                return self.log_weight(-xp.log(r)) / r / r
        return exp_or_inf(self.log_weight_exponent(-xp.log(r), 2.0))

    def check_radius(self, r) -> None:
        """DomainError unless each r (float or ndarray) is in (0, r_max (1 + 1e-12)]."""
        inside = (0.0 < r) & (r <= self.r_max * (1.0 + 1e-12))
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            bad = r[~inside].flat[0] if isinstance(r, np.ndarray) else r
            raise DomainError(f"radius {bad} outside (0, r_max = {self.r_max}]")

    def log_weight(self, s):
        """r^2 * v(r) evaluated at r = e^(-s), computed stably in s; float or
        ndarray, like ``value``.  This is the coefficient (up to the
        multiplier) of the equation in the log variable; direct evaluation of
        v(e^(-s)) would underflow for s >~ 700, so each entry works in s.  On
        cells it is e^``log_weight_exponent``, inf past the largest double."""
        xp = np if isinstance(s, np.ndarray) else math
        s = s.astype(float, copy=False) if xp is np else float(s)
        euler = self._euler
        if euler is not None:
            total = _chain(self.m, s - euler.s0, euler.kappa, xp)[0]
            total *= self.amplitude    # in place for an ndarray, the chain's own
            return total
        return exp_or_inf(self.log_weight_exponent(s))

    @functools.cached_property
    def _euler(self) -> Optional[EulerTail]:
        """A log family's chain at its shift s0 = -(kappa + ln scale), at any
        amplitude (its ``tail`` where A > 0), else None."""
        if self.kind not in _BORDERLINE:
            return None
        kappa, key = _BORDERLINE[self.kind]
        A = self.amplitude
        c = 0.25 / A if A else math.inf    # 1/(4A) rounded: c or the float below it is c_closed
        return EulerTail(self.m, kappa, A, -(kappa + math.log(getattr(self, key))),
                         c if _closed_form_covers(c, A) else math.nextafter(c, 0.0))

    def log_weight_exponent(self, s, lift: float = 0.0):
        """ln(r^2 v) + lift s at r = e^(-s): ell + lift anchor + (q + lift)(s -
        anchor) on the ``log_cells`` cell of s (lift = 2 gives ln v
        without the ulp(2 s) of adding 2 s afterwards; -inf at amplitude 0);
        float or ndarray, like ``log_weight``.  One cell skips the search."""
        knot, anchor, ell, q = self.inner_cell
        if knot > -math.inf:    # a table: the cell of s
            k = self.log_cells[0].searchsorted(s, side="right")
            anchor, ell, q = (line[k] for line in self.log_cells[1:])
        return ell + lift * anchor + (q + lift) * (s - anchor)

    @functools.cached_property
    def inner_cell(self) -> Optional[FallingCell | RisingCell]:
        """The last cell of ``log_cells`` in floats (knot, anchor, ell, q), from
        its knot (-inf for one cell) up to s = inf, a ``FallingCell`` or a
        ``RisingCell`` by the sign of q; None for the log families."""
        if self.kind in (Kind.CONSTANT, Kind.POWER_LAW):    # ln A and sigma - 2, no arrays
            ell = math.log(self.amplitude) if self.amplitude > 0.0 else -math.inf
            cell = -math.inf, 0.0, ell, self.sigma - 2.0
        elif self.kind is not Kind.CUSTOM:
            return None
        else:
            knots, *lines = self.log_cells
            cell = (float(knots[-1]), *(float(x[-1]) for x in lines))
        return (RisingCell if cell[3] >= 0.0 else FallingCell)(cell)

    @functools.cached_property
    def tail(self) -> FallingCell | RisingCell | EulerTail | VanishingTail:
        """``VANISHING`` where the model is 0 (a log family's A = 0 or an inner
        cell's ell = -inf), else a log family's ``EulerTail`` or ``inner_cell``.
        Each form has ``log_domain`` (whether a probe is decided in s: all but
        a falling cell) and ``certificate(c, R, s_max)``, that of a = c r^2 v
        at c > 0 past the outer edge of the ball."""
        if self.kind in _BORDERLINE:
            return self._euler if self.amplitude else VANISHING
        return self.inner_cell if self.inner_cell[2] > -math.inf else VANISHING

    @functools.cached_property
    def log_cells(self) -> Optional[tuple[np.ndarray, ...]]:
        """ln(r^2 v) at r = e^(-s) as a chain of cells on which it is linear
        in s, or None for the two log families.

        Returns (knots, anchors, ell, q): the knots increase, cell k lies
        between knots[k-1] and knots[k] (the first cell reaches down to
        s = -inf, the last, the inner cell, up to +inf), and there
        ln(r^2 v) = ell[k] + q[k] (s - anchors[k]).  A constant or a power
        law is one cell with q = sigma - 2 (ell = -inf at amplitude 0); a
        table has one cell per segment plus its two extrapolation cells.
        """
        if self.kind in (Kind.CONSTANT, Kind.POWER_LAW):
            return np.empty(0), np.zeros(1), *(np.array([x]) for x in self.inner_cell[2:])
        if self.kind is not Kind.CUSTOM:
            return None
        log_r, log_v = np.array(self.table_log_r), np.array(self.table_log_v)
        knots = -log_r[::-1]
        ell = (log_v + 2.0 * log_r)[::-1]
        q = np.diff(ell) / np.diff(knots)
        return (knots, np.concatenate([knots[:1], knots]), np.concatenate([ell[:1], ell]),
                np.concatenate([q[:1], q, q[-1:]]))

    # -- structure ----------------------------------------------------------

    def scaled(self, beta: float) -> "RadialPotential":
        """The rescaled potential r |-> beta^2 * v(beta r) on (0, r_max / beta].

        Every catalog family is closed under this map, so the result is a
        potential of the same kind.  An image that is not a normal float (a
        radius: that rounds to 0 or inf) raises DomainError naming beta.
        """
        if not 0.0 < beta < math.inf:
            raise DomainError(f"scaling factor must be finite and > 0, got {beta}")
        if self.kind in (Kind.CONSTANT, Kind.POWER_LAW):
            amplitude = float(_times_power(self.amplitude, beta, 2.0 - self.sigma,
                                           f"amplitude {self.amplitude!r}")) if self.amplitude else 0.0
            return replace(self, amplitude=amplitude, r_max=self.r_max / beta)
        if self.kind in _BORDERLINE:
            key = _BORDERLINE[self.kind][1]
            return replace(self, r_max=self.r_max / beta, **{key: getattr(self, key) / beta})
        with np.errstate(over="ignore"):
            r = np.exp(self.table_log_r) / beta
        if not np.all((0.0 < r) & (r < math.inf)):
            raise DomainError(f"table radii scaled by {beta!r}^-1 round to 0 or to inf")
        v = _times_power(np.exp(self.table_log_v), beta, 2.0, "a table sample")
        return RadialPotential.custom(r, v, self.r_max / beta)

    # -- closed forms -------------------------------------------------------

    def closed_form_multiplier(self, R: Optional[float] = None) -> float:
        """Multiplier c at which ``closed_form`` solves y'' + y'/r + c v y = 0.

        The log families solve at c = 1/4 / amplitude; the constant at c = z0^2 /
        (R^2 amplitude), z0 the first J0 zero, DomainError where R^2 or c is no normal float.
        """
        if self.kind is not Kind.CONSTANT and self._euler is None:
            raise UnsupportedPotential(f"no closed form for kind {self.kind.value}")
        if self.amplitude == 0.0:
            raise UnsupportedPotential("amplitude-0 potential has no nontrivial closed form")
        if self._euler is not None:
            return 0.25 / self.amplitude
        R = self.r_max if R is None else R
        c = J0_FIRST_ZERO * J0_FIRST_ZERO / max(R * R * self.amplitude, math.ulp(0.0))
        if not (TINY <= R * R and TINY <= c < math.inf):
            raise DomainError(f"closed-form multiplier z0^2/(R^2 A) at R = {R!r}: no normal float")
        return c

    def closed_form(self, r, R: Optional[float] = None):
        """Exact positive solution of the reduced equation for this entry,
        evaluated at radius r (valid multiplier from closed_form_multiplier);
        float or ndarray, like ``value``.
        """
        if self.kind is Kind.CONSTANT:
            if R is None:
                R = self.r_max
            from scipy import special
            return special.j0(J0_FIRST_ZERO * r / R)
        xp = np if isinstance(r, np.ndarray) else math
        if not np.min(r) > 0.0:
            raise DomainError(f"closed form of {self.kind.value} needs r > 0, got {np.min(r)}")
        if self._euler is None:
            raise UnsupportedPotential(f"no closed form for kind {self.kind.value}")
        kappa, key = _BORDERLINE[self.kind]    # X_1 = 1 / (kappa - ln(r / scale))
        scale, s0 = getattr(self, key), self._euler.s0
        ratio = r / scale    # where it underflows to 0, X_1 = 1 / (-ln r - s0)
        sigma = kappa - xp.log(ratio) if np.min(ratio) > 0.0 else -xp.log(r) - s0
        return _chain(self.m, sigma, kappa, xp)[1] ** -0.5


# ---------------------------------------------------------------------------
# The inner tail: one of four forms, in floats (``RadialPotential.tail``)
# ---------------------------------------------------------------------------

def outer_edge(R: float, s_max: Optional[float] = None) -> float:
    """Log abscissa just inside r = R, where the outward sweep and the tail
    certificates start; DomainError unless the log-domain horizon s_max,
    where given, is finite and beyond it."""
    lo = -math.log(R) + 1e-9
    if s_max is not None and not math.isfinite(s_max):
        raise DomainError(f"horizon s_max must be finite, got {s_max}")
    if s_max is not None and not s_max > lo:
        raise DomainError(f"horizon s_max = {s_max} not beyond the outer edge {lo}")
    return lo


def _closed_form_covers(c: float, A: float) -> bool:
    """Whether c A <= 1/4 exactly, for floats c, A >= 0 (c may be inf): with
    c = a/b and A = u/v, whether 4 a u <= b v."""
    if c == math.inf:
        return False
    (a, b), (u, v) = c.as_integer_ratio(), A.as_integer_ratio()
    return 4 * a * u <= b * v


@dataclass(frozen=True)
class TailCertificate:
    """Sturm-comparison verdict for the coefficient tail a(s).

    ``gamma`` is the extreme of a(s) (s - shift)^2 over the certified window:
    a maximum for the non-oscillatory side (at most 1/4, 0 where a = 0) on
    [s_max, inf), a minimum for the oscillatory side (must exceed 1/4 over a
    long enough window); a rising inner cell's (shift None) bounds a itself.
    """

    kind: str                 # "nonoscillatory" | "oscillatory"
    gamma: float
    shift: Optional[float]
    window: tuple             # (s1, s2) where the comparison holds


# An inner cell is a tuple (knot, anchor, ell, q), formed and read without a
# Python call: ln(r^2 v) = ell + q (s - anchor) from its knot (-inf for one cell) on

class FallingCell(tuple):
    """q < 0: J0 on the cell is the recessive start at r = 0, so a probe is
    a radius-domain shot: against a one cell's Bessel level, or a table's sweep."""
    __slots__ = ()
    log_domain = False

    def certificate(self, c: float, R: float, s_max: float):
        raise DomainError("an inner cell of slope q < 0 is swept in the radius domain")


class RisingCell(tuple):
    """q >= 0: every c > 0 oscillates on the cell, exact out to s = inf."""
    __slots__ = ()
    log_domain = True

    def certificate(self, c: float, R: float, s_max: float) -> Optional[TailCertificate]:
        """From s1 = max(outer edge, knot) on, a >= gamma = min(c g(s1), 1e300)
        (from ln g where g is 0, subnormal or inf), so every solution vanishes
        inside [s1, s1 + pi / sqrt(gamma)], within the horizon or not.  Where
        c g(s1) < 2^-1022 and q > 0, s1 moves out to where c g = 1, so gamma is
        normal (None only where q = 0 and c g is not)."""
        knot, anchor, ell, q = self
        s1 = max(outer_edge(R), knot)
        if q > 0.0 and c * exp_or_inf(ell + q * (s1 - anchor)) < TINY:
            s1 = anchor + (-math.log(c) - ell) / q
        log_g = ell + q * (s1 - anchor)
        g = exp_or_inf(log_g)
        gamma = min(c * g if TINY <= g < math.inf else exp_or_inf(math.log(c) + log_g), 1e300)
        if gamma < TINY:    # subnormal or 0: its rounding no longer bounds a
            return None
        return TailCertificate("oscillatory", gamma, None,
                               (s1, math.nextafter(s1 + math.pi / math.sqrt(gamma), math.inf)))

    def planned_end(self) -> float:
        """The least c it certifies, c(V) being 0: 2^-1022 where q > 0, else
        2^-1022 / min(e^ell, 1), in logs where e^ell is not normal, clamped
        to the largest double."""
        ell, q = self[2:]
        g, x = math.exp(min(ell, 0.0)), math.log(TINY) - ell    # min(e^ell, 1), ln(TINY/e^ell)
        return (TINY if q > 0.0 else TINY / g if g >= TINY
                else math.exp(x) if x <= math.log(HUGE) else HUGE)


@dataclass(frozen=True)
class EulerTail:
    """A log family, the chain (m, kappa) at amplitude A and Euler shift s0:
    r^2 v = A (1 + ...) / (s - s0)^2, s0 = -ln rho for the iterated logs,
    -(1 + ln d) for the X family.  gamma = r^2 v (s - s0)^2 does not rise on
    the ball and tends to A (Fact 1), so the closed form decides every c <=
    c_closed, the largest float with c A <= 1/4, and the Euler edge every c
    >= c_osc (``edge``)."""

    m: int
    kappa: float
    amplitude: float
    s0: float
    c_closed: float
    log_domain: ClassVar[bool] = True

    def gamma(self, tau):
        """gamma at s = s0 + e^tau: by self-similarity, A plus the chain one
        level shallower (scale 1) at abscissa tau, A at m = 1; float or ndarray."""
        xp = np if isinstance(tau, np.ndarray) else math
        kappa = self.kappa    # below, 0 tau gives tau's shape at m = 1
        return self.amplitude * (1.0 + _chain(self.m - 1, kappa + tau, kappa, xp)[0]) + 0.0 * tau

    def edge(self, R: float, s_max: float) -> tuple:
        """(c_osc, (gamma, s0, window)), checking s_max (``outer_edge``; R
        is the caller's): c_osc = (1/4 + (pi / ln(sigma_max /
        sigma_edge))^2) / min(gamma_edge, gamma_max), sigma = s - s0 (inf where
        that ratio rounds to 1), makes the outer edge to the horizon hold a
        half-oscillation of a minorant Euler solution (Hartman, Ch. XI); no
        shorter window needs less.  That min is gamma_max up to rounding, so
        the certificate's gamma also bounds gamma on [s_max, inf)."""
        lo = outer_edge(R, s_max)
        sigma_edge, sigma_max = lo - self.s0, s_max - self.s0
        gamma = min(self.gamma(math.log(sigma_edge)), self.gamma(math.log(sigma_max)))
        width = math.log(sigma_max / sigma_edge)    # 0 where s_max - s0 rounds to the edge's
        need = 0.25 + (math.pi / width) ** 2 if width > 0.0 else math.inf
        return need / gamma if gamma > 0.0 else math.inf, (gamma, self.s0, (lo, s_max))

    def certificate(self, c: float, R: float, s_max: float) -> Optional[TailCertificate]:
        c_osc, (gamma, shift, window) = self.edge(R, s_max)
        return TailCertificate("oscillatory", c * gamma, shift, window) if c >= c_osc else None


class VanishingTail:
    """a = 0 (a constant, power law or log family at amplitude 0, or c = 0):
    non-oscillatory, y = 1 solves and every c is feasible, in the log domain.
    One shared instance, ``VANISHING``."""
    __slots__ = ()
    log_domain = True

    def certificate(self, c: float, R: float, s_max: float) -> TailCertificate:
        return TailCertificate("nonoscillatory", 0.0, outer_edge(R) - 1.0, (s_max, math.inf))


VANISHING = VanishingTail()


# ---------------------------------------------------------------------------
# Classification: admissible after scaling (X) vs never admissible (Y)
# ---------------------------------------------------------------------------

# The 8-point Gauss-Legendre rule on [-1, 1]: numpy's leggauss(8) bit for bit,
# as literals, so that importing the package loads no numpy.polynomial
_GL_NODES = np.array([float.fromhex(x) for x in (
    '-0x1.ebab1cb0acc66p-1', '-0x1.97e4ab249f41ep-1', '-0x1.0d129583284b4p-1',
    '-0x1.77ac94f3c7344p-3', '0x1.77ac94f3c7344p-3', '0x1.0d129583284b4p-1',
    '0x1.97e4ab249f41ep-1', '0x1.ebab1cb0acc66p-1')])
_GL_WEIGHTS = np.array([float.fromhex(x) for x in (
    '0x1.9ea1d04ca03aep-4', '0x1.c76fb531d2b94p-3', '0x1.413c50a25560ep-2',
    '0x1.736360b19933dp-2', '0x1.736360b19933dp-2', '0x1.413c50a25560ep-2',
    '0x1.c76fb531d2b94p-3', '0x1.9ea1d04ca03aep-4')])
_TAIL_PANELS = 30            # unit panels in ln(s - s0) past the last abscissa
_PROBES = np.logspace(-2, -8, 13)   # classify's probe radii / r_max, decreasing


class Label(Enum):
    X = "X"                      # liminf ln(r) int_0^r s v finite
    Y = "Y"                      # the limit is -infinity


@dataclass(frozen=True)
class ClassLabel:
    label: Label
    evidence: np.ndarray         # ln(r_k) * int_0^{r_k} s v(s) ds at the probes
    probe_radii: np.ndarray
    limit_estimate: Optional[float] = None


def _cell_points(cells: tuple, s: np.ndarray, a: float, b: float) -> tuple:
    """The points of ``log_cell_tails``: the s_k and the knots past s_0, in
    order, with the exponent f = a ln g + b t there, its slope beta on the
    cell that starts at each point, and the widths between them."""
    knots, anchors, ell, q = cells
    points = np.sort(np.concatenate([s, knots[knots > s[0]]]))
    k = knots.searchsorted(points, "right")
    f = a * (ell[k] + q[k] * (points - anchors[k])) + b * points
    return points, f, a * q[k] + b, np.diff(points)


def log_cell_tails(cells: tuple, s: np.ndarray, a: float, b: float) -> np.ndarray:
    """ln int_{s_k}^inf e^(a ln g(t) + b t) dt for increasing s_k, exactly on
    ``log_cells``: on each cell the exponent f is linear, of slope beta = a q
    + b, so each piece between the s_k and the knots past them is e^(max f)
    w ``exprel``(-|beta| w), w its width, and the inner cell adds e^f /
    (-beta), +inf when beta >= 0; nothing where g = 0 (ell = -inf).  The
    pieces are summed from the right in log space.  numpy only."""
    points, f, beta, w = _cell_points(cells, s, a, b)
    with np.errstate(divide="ignore"):
        pieces = f[:-1] + np.maximum(beta[:-1], 0.0) * w + np.log(w * exprel(-np.abs(beta[:-1]) * w))
        inner = f[-1] if f[-1] == -math.inf else f[-1] - np.log(np.maximum(-beta[-1], 0.0))
    tails = np.logaddexp.accumulate(np.append(pieces, inner)[::-1])[::-1]
    return tails[points.searchsorted(s)]


def _tail_integrals(p: RadialPotential, s: np.ndarray) -> np.ndarray:
    """int_{s_k}^inf r^2 v ds at r = e^(-s) for increasing s_k, by p's tail.
    0 where it vanishes.  On ``log_cells`` each piece is exact, g w
    ``exprel``(q w) from its left end (g / -q on the inner cell; every tail
    is inf when q >= 0 there), summed from the right in linear space, to a
    few ulps, wherever every ln g lies in [-700, 700] and the sum is finite;
    elsewhere it is the exp of ``log_cell_tails`` at a = 1, b = 0, whose
    relative error grows like eps |ln int g|.  An Euler tail integrates
    G(tau) e^(-tau), G = its ``gamma``, by a composite Gauss rule on unit
    panels in tau = ln(s - s0), s0 its shift (geometric panels in u = 1 /
    (s - s0)), closed past the last one, T, by G(T) e^(-T), from one array
    ``gamma`` call.  numpy only."""
    tail = p.tail
    if tail is VANISHING:
        return np.zeros(s.shape)
    if not isinstance(tail, EulerTail):
        points, f, q, w = _cell_points(p.log_cells, s, 1.0, 0.0)
        if q[-1] >= 0.0 and f[-1] > -math.inf:
            return np.full(s.shape, math.inf)
        if np.all((np.abs(f) <= 700.0) | (f == -math.inf)):
            g = np.exp(f)
            with np.errstate(over="ignore", invalid="ignore"):
                pieces = np.append(g[:-1] * w * exprel(q[:-1] * w), g[-1] / -q[-1] if g[-1] else 0.0)
            tails = np.cumsum(pieces[::-1])[::-1]
            if np.isfinite(tails[0]):
                return tails[points.searchsorted(s)]
        return np.exp(log_cell_tails(p.log_cells, s, 1.0, 0.0))
    tau = np.log(s - tail.s0)
    edges = np.concatenate([tau, tau[-1] + np.arange(1.0, _TAIL_PANELS + 1.0)])
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    nodes = np.append(mid[:, None] + half[:, None] * _GL_NODES, edges[-1])
    terms = tail.gamma(nodes) * np.exp(-nodes)
    panels = terms[:-1].reshape(-1, _GL_NODES.size) @ _GL_WEIGHTS * half
    return np.cumsum(np.append(panels, terms[-1])[::-1])[::-1][:s.size]


def classify(p: RadialPotential) -> ClassLabel:
    """Classify the potential by L(r) = ln(r) int_0^r t v dt = -s int_s^inf g,
    s = ln(1/r), g = ``log_weight``, from its tail's form.  Every label is certified:

      * an inner cell, exactly by its slope q (g ~ e^(q s)): q < 0 makes
        L -> 0, X (limit_estimate 0); q >= 0 makes the integral diverge, Y
        (evidence infinite);
      * an Euler tail, exactly: gamma = g (s - s0)^2 falls to A (Fact 1),
        so L -> -A, X (limit_estimate -A);
      * a vanishing tail, g = 0: L = 0, X (limit_estimate 0).

    The evidence is L at the probe radii r_max 10^-2 ... 10^-8, from
    ``_tail_integrals``; no label reads it (it overflows at amplitude 1e308).
    """
    probes, tail = p.r_max * _PROBES, p.tail
    with np.errstate(over="ignore"):
        evidence = np.log(probes) * _tail_integrals(p, -np.log(probes))
    if isinstance(tail, EulerTail):
        return ClassLabel(Label.X, evidence, probes, limit_estimate=-tail.amplitude)
    if isinstance(tail, RisingCell):
        return ClassLabel(Label.Y, evidence, probes)
    return ClassLabel(Label.X, evidence, probes, limit_estimate=0.0)
