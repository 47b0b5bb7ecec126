"""Independent verification path: discretized eigenvalue problems and
weighted one-dimensional inequalities.

Everything here deliberately avoids the shooting machinery: quotients are
assembled as piecewise-linear finite elements on explicit grids, so
agreement with the ODE side is a genuine two-sided check of the
feasibility characterization.

Smallest eigenvalues are certified by Sylvester's law of inertia: the
tridiagonal K - sigma M has an unpivoted LDL^T factorization with positive
pivots exactly when every eigenvalue exceeds sigma.  A returned lambda1 is
a Rayleigh quotient at most _CERT_GAP (1e-6) relative above such a sigma.
Inverse iteration takes each Rayleigh quotient from its solve and aims each
shift at a predicted lower bound (see _smallest_eigenpair), so that a shift
seldom fails to factor.

Boundary treatment: Dirichlet at the outer radius, natural (free) at the
inner cutoff r_min.  The inner cutoff stands in for the boundedness
condition at the origin; forcing the value to zero there instead would
pollute eigenvalues logarithmically (the origin has zero capacity for these
weights, so the continuum problem does not see a Dirichlet condition at 0).
A cutoff so deep that the innermost cells underflow double precision is
rejected with DomainError.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import (BoundaryConditionViolated, DegenerateDenominator, DomainError,
                     HardyError, IndefiniteForm, NonMonotoneSequence, SingularMass)
from .potentials import TINY, RadialPotential

# The 6-point Gauss-Legendre rule on [-1, 1]: numpy's leggauss(6) bit for bit,
# as literals, so that importing the package loads no numpy.polynomial
_GL_NODES = np.array([float.fromhex(x) for x in (
    '-0x1.dd6ca4e80a01dp-1', '-0x1.528a09655c95ep-1', '-0x1.e8b12d03675c5p-3',
    '0x1.e8b12d03675c5p-3', '0x1.528a09655c95ep-1', '0x1.dd6ca4e80a01dp-1')])
_GL_WEIGHTS = np.array([float.fromhex(x) for x in (
    '0x1.5edf601e2dbf5p-3', '0x1.716b7b5794c1ep-2', '0x1.df24d499545e8p-2',
    '0x1.df24d499545e8p-2', '0x1.716b7b5794c1ep-2', '0x1.5edf601e2dbf5p-3')])
_CERT_GAP = 1e-6                   # relative gap from a certified shift up to lambda1
_EIG_TOL = 1e-10                   # relative settling of lambda~ that ends inverse iteration
_MAX_ITER = 80                     # inverse iteration steps before HardyError
_LIMIT_DEPTH = 12                  # lambda_limit's mu_k = (1 - 2^-k) mu_n, k = 1.._LIMIT_DEPTH


@functools.cache
def _flapack():
    """scipy's LAPACK extension, loaded by the first solve from its file in
    scipy/linalg without running the scipy.linalg package, whose import
    (numpy.f2py, numpy.testing and numpy.random among others) takes
    0.25-0.34 s of ``-X importtime`` on a 2-core x86_64 against 5-9 ms for
    the extension.  It is registered under its own name, scipy.linalg._flapack,
    so that a later ``import scipy.linalg`` shares this module and its
    routines.  ``import scipy`` (the top-level package only) comes first: on
    some platforms it sets the path of the bundled BLAS.  Raises ImportError
    if scipy/linalg holds no such extension."""
    import scipy
    directory = Path(scipy.__path__[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension _flapack in {directory}")


def dpttrf(*args, **kwargs):
    """LAPACK's dpttrf (scipy.linalg.lapack.dpttrf), under the name the
    tests patch (bench/spans.py patches only ``solve_banded``)."""
    return _flapack().dpttrf(*args, **kwargs)


def solve_banded(*args, **kwargs):
    """LAPACK's dpttrs (scipy.linalg.lapack.dpttrs), under the name
    bench/spans.py traces (ROADMAP item 5)."""
    return _flapack().dpttrs(*args, **kwargs)


class GridMapping(Enum):
    UNIFORM = "uniform"
    LOG_SPACED = "log"


@dataclass(frozen=True)
class GridSpec:
    """Node layout for the discretized quotients."""

    N: int
    mapping: GridMapping = GridMapping.LOG_SPACED
    R: float = 1.0
    r_min: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 16:
            raise DomainError(f"need an integer N of at least 16 nodes, got N = {self.N!r}")
        if not 0.0 < self.r_min < self.R < math.inf:
            raise DomainError(f"need 0 < r_min < R < inf, got r_min = {self.r_min}, R = {self.R}")

    def nodes(self) -> np.ndarray:
        if self.mapping is GridMapping.UNIFORM:
            return np.linspace(self.r_min, self.R, self.N)
        return np.exp(np.linspace(math.log(self.r_min), math.log(self.R), self.N))


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    eigenvector: np.ndarray       # samples at grid nodes (0 at the R node)
    grid: GridSpec
    residual_norm: float
    iterations: int


@dataclass(frozen=True)
class LambdaLimitResult:
    limit: float
    mu_values: np.ndarray
    lambdas: np.ndarray
    extrapolants: np.ndarray
    residual_norms: np.ndarray    # of each solve, as EigenResult.residual_norm


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _stiffness(nodes: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """P1 stiffness with weight r^a, a = n - 1 >= 1, at ``nodes``: returns
    (diagonal, off-diagonal).

    Raises DomainError when a squared cell width or a weight integral is
    below the smallest normal double (deep inner cutoffs), where the
    assembly would lose its precision and then overflow.
    """
    h2 = np.diff(nodes)
    h2 *= h2
    cell = np.diff(nodes ** (a + 1.0))
    cell /= a + 1.0                                      # int r^a dr per cell
    if min(h2.min(), cell.min()) < TINY:
        raise DomainError(
            f"grid cells near r_min = {nodes[0]:g} underflow double precision; "
            "raise r_min")
    cell /= h2
    diag = np.zeros(nodes.size)
    diag[:-1] += cell
    diag[1:] += cell
    return diag, np.negative(cell, out=cell)


def _pencil(p: RadialPotential, nodes: np.ndarray, n: int, hardy: bool = False):
    """P1 pencil of the dimension-n radial form, Dirichlet node at R dropped,
    assembled on the unit ball, rho = r / R with R the last node: the
    quotients do not change under dilation when v is read at r = R rho, so no
    power of R is formed.  Stiffness (diag, off-diag) rho^(n-1) and lumped
    mass R^2 v rho^(n-1) drho = g e^((n-2)t) dt, g = log_weight(ln(1/R) - t);
    with ``hardy``, also the lumped Hardy weight rho^(n-3) drho = e^((n-2)t) dt
    of the forms with an inverse-square term, from the same e^((n-2)t)
    samples.  Lumped weights integrate over each node's cell in t = ln rho,
    composite Gauss-Legendre per half-cell.  Besides the stiffness and
    log_weight's results it writes into rho (then t, s = ln(1/R) - t, -t and
    e^((n-2)t)), half-widths, midpoints and the sums, with the plain bits."""
    ln_r = math.log(nodes[-1])
    neg_t = np.divide(nodes, nodes[-1])               # rho
    k_diag, k_off = _stiffness(neg_t, float(n - 1))
    half, mid = np.empty(nodes.size), np.empty(nodes.size)
    np.log(neg_t, out=neg_t)
    # t in neg_t, the cell ends t_lo = (t_0, t_mid) in mid and t_hi = (t_mid, t_N) in half
    np.add(neg_t[:-1], neg_t[1:], out=mid[1:])
    mid[1:] *= 0.5                                   # t_mid: geometric midpoints in rho
    mid[0], half[-1], half[:-1] = neg_t[0], neg_t[-1], mid[1:]
    np.subtract(half, mid, out=neg_t)
    mid += half
    mid *= 0.5
    np.multiply(neg_t, 0.5, out=half)
    mid += ln_r                                      # ln R + the cells' centres in t
    m_diag = np.zeros(nodes.size)
    h_diag = np.zeros(nodes.size) if hardy else None
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        np.multiply(half, -xi, out=neg_t)
        neg_t -= mid                                 # s = ln(1/R) - t, t = centre + half xi
        lw = p.log_weight(neg_t)                     # a new array: scaled in place
        neg_t += ln_r                                # -t, exactly where R = 1
        # e^((n-2)t) over -t, which log_weight has read; 1 at n = 2
        e = np.exp(np.multiply(neg_t, 2.0 - n, out=neg_t), out=neg_t) if n != 2 else 1.0
        lw *= e
        lw *= wi
        m_diag += lw
        if hardy:
            h_diag += np.multiply(e, wi, out=lw)
    m_diag *= half
    if np.any(m_diag[:-1] < TINY):
        raise SingularMass("potential weight vanishes or underflows on a full cell")
    pencil = k_diag[:-1], k_off[:-1], m_diag[:-1]
    return pencil + (np.multiply(h_diag, half, out=h_diag)[:-1],) if hardy else pencil


def _smallest_eigenpair(k_diag, k_off, m_diag, start: Optional[np.ndarray] = None,
                        shift: float = 0.0) -> tuple[float, np.ndarray, float, int]:
    """Smallest eigenpair of (tridiagonal K) u = lambda (diagonal M) u by
    inverse iteration on certified shifts.

    By Sylvester's law of inertia a successful `dpttrf` of K - sigma M (all
    pivots positive) certifies sigma < lambda_1, a failed one lambda_1 <= sigma.
    No pivoting: it would not count the inertia, and on these pencils (diagonal
    from ~1e-39 to ~1e2, not diagonally dominant at the inner nodes) it wrecks
    inverse iteration.  Solving with the last certified factor, the iterate can
    only tend to the lowest mode.  Each step solves (K - sigma M) y = M x for
    the Rayleigh quotient lambda~ = sigma + y.Mx / y.My (Parlett, The
    Symmetric Eigenvalue Problem, 4.6).  The next shift aims at
    lambda~ - 2|step| until successive lambda~ agree within _CERT_GAP
    relative, then at lambda~(1 - _CERT_GAP), never below sigma; an aim not
    below the lowest failed shift goes halfway to it, and a shift that fails
    is retried once halfway back to sigma.  It stops once sigma >=
    lambda~(1 - _CERT_GAP) and lambda~ moved <= _EIG_TOL relative, returning
    the Rayleigh quotient of the final vector.  Raises HardyError if that
    takes more than _MAX_ITER steps.  A warm start replaces the initial vector
    sqrt(M) by ``start`` and tries ``shift`` > 0 as the first sigma, dropped
    (sigma = 0) if its factorization fails.  It runs on 4^-k M, 4^k near max
    M, so that y.My stays in the floats (a warm start's shift times 4^k, its
    vector 2^k), and returns lambda 4^-k and x 2^-k, which keeps every bit.
    Besides dpttrf's factors and each solve it writes, with the plain bits, into
    4^-k M, K - sigma M, and M x and M y, which trade places each step.
    """
    k = math.frexp(float(m_diag.max()))[1] // 2
    m_diag, shift = np.ldexp(m_diag, -2 * k), float(np.ldexp(shift, 2 * k))
    work, my = np.empty_like(m_diag), np.empty_like(m_diag)
    sigma, failed = 0.0, math.inf
    if shift > 0.0:
        d, e, info = dpttrf(_shifted(k_diag, shift, m_diag, work), k_off)
        sigma = 0.0 if info else shift
    if not sigma:
        d, e, info = dpttrf(k_diag, k_off)
        if info:
            raise IndefiniteForm(f"K is not positive definite (LDL^T pivot {info} <= 0)")
    x = (np.sqrt(np.maximum(m_diag, 1e-300, out=work), out=work) if start is None
         else np.ldexp(start, k, out=work))
    mx = m_diag * x
    lam = math.inf
    for iterations in range(1, _MAX_ITER + 1):
        y, _ = solve_banded(d, e, mx)
        y_my = float(y @ np.multiply(m_diag, y, out=my))
        lam, lam_prev = sigma + float(y @ mx) / y_my, lam   # y.Ky = y.Mx + sigma y.My
        scale = 1.0 / math.sqrt(y_my)
        my *= scale
        mx, my = my, mx
        target, step = lam * (1.0 - _CERT_GAP), abs(lam - lam_prev)
        aim = target if step <= _CERT_GAP * lam else lam - 2.0 * step
        if sigma < aim:
            shift = aim if aim < failed else 0.5 * (sigma + failed)
            for _ in range(2):
                d_new, e_new, info = dpttrf(_shifted(k_diag, shift, m_diag, work), k_off)
                if not info:
                    sigma, d, e = shift, d_new, e_new
                    break
                failed, shift = shift, 0.5 * (sigma + shift)
        if step <= _EIG_TOL * lam and sigma >= target:
            break
    else:
        raise HardyError(f"inverse iteration unsettled after {_MAX_ITER} steps: lambda_1 in "
                         f"[{np.ldexp(sigma, -2 * k):g}, {np.ldexp(lam, -2 * k):g}]")
    x = np.multiply(y, scale, out=y)                 # x = y scale, of the last step only
    # x.Kx via K's row sums and edge differences: x @ (K x) cancels to noise > tol
    np.copyto(work, k_diag)
    work[:-1] += k_off
    work[1:] += k_off
    dx = np.subtract(x[1:], x[:-1], out=mx[:-1])
    dx *= dx
    lam = float(work @ np.multiply(x, x, out=my) - k_off @ dx)
    kx = np.multiply(k_diag, x, out=work)
    kx[:-1] += np.multiply(k_off, x[1:], out=my[:-1])
    kx[1:] += np.multiply(k_off, x[:-1], out=my[:-1])
    lam_mx = np.multiply(m_diag, lam, out=my)
    lam_mx *= x
    r_norm = np.linalg.norm(np.subtract(kx, lam_mx, out=my))
    res_norm = float(r_norm / (np.linalg.norm(kx)
                               + lam * np.linalg.norm(np.multiply(m_diag, x, out=my))))
    return float(np.ldexp(lam, -2 * k)), np.ldexp(x, -k, out=x), res_norm, iterations


def _shifted(diag, sigma, weight, out):
    """diag - sigma weight, formed in ``out`` (which may be weight, not diag)."""
    np.multiply(weight, sigma, out=out)
    return np.subtract(diag, out, out=out)


# ---------------------------------------------------------------------------
# The quotients
# ---------------------------------------------------------------------------

def reduced_rayleigh_min(p: RadialPotential, grid: GridSpec) -> EigenResult:
    """Smallest value of int w'^2 r dr / int v w^2 r dr over w(R) = 0.

    This is the one-dimensional reduction of the Hardy gap (w absorbs the
    critical inverse-square weight).  The minimum is the best constant of the
    truncated interval [r_min, R], free at r_min: an upper bound on the best
    improvement constant c(V) of (0, R), tending to c(V) as r_min -> 0.  When
    c(V) is attained the gap is negligible at modest cutoffs and the value
    agrees with the shooting answer of best_constant.  For the borderline
    families it is not: for the m = 1 iterated-log potential the minimum is
    1/4 + w(L)^2, w the root of tan(w L) = -2w in (pi / 2L, pi / L),
    L = ln(ln(rho / r_min) / ln(rho / R)), so the gap closes only like
    (pi / L)^2.
    """
    p.check_radius(grid.R)
    # the reduced quotient is the radial form of dimension 2 (weight r)
    k_diag, k_off, m_diag = _pencil(p, grid.nodes(), 2)
    lam, x, res, iters = _smallest_eigenpair(k_diag, k_off, m_diag)
    return EigenResult(lam, np.concatenate([x, [0.0]]), grid, res, iters)


def weighted_eigen(p: RadialPotential, mu: float, n: int, grid: GridSpec) -> EigenResult:
    """First eigenvalue of the radial form with inverse-square weight mu:

        min [ int u'^2 r^(n-1) - mu int u^2 r^(n-3) ] / int v u^2 r^(n-1)

    over u(R) = 0, free at the inner cutoff.  Requires mu < ((n-2)/2)^2,
    otherwise the numerator form is not coercive.
    """
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    mu_crit = 0.25 * (n - 2) ** 2
    if not 0.0 <= mu < mu_crit:
        raise IndefiniteForm(f"mu = {mu} outside [0, mu_n = {mu_crit})")
    p.check_radius(grid.R)
    k_diag, k_off, m_diag, hardy_diag = _pencil(p, grid.nodes(), n, hardy=True)
    lam, x, res, iters = _smallest_eigenpair(_shifted(k_diag, mu, hardy_diag, hardy_diag),
                                             k_off, m_diag)
    return EigenResult(lam, np.concatenate([x, [0.0]]), grid, res, iters)


def lambda_limit(p: RadialPotential, n: int, R: float,
                 grid: Optional[GridSpec] = None) -> LambdaLimitResult:
    """Extrapolated limit of the first eigenvalue as mu increases to the
    critical coupling, along mu_k = (1 - 2^-k) mu_n, k = 1.._LIMIT_DEPTH,
    in dimension n >= 3.

    A continuation: each solve starts from the last eigenvector and first
    tries the shift 2 lambda_k - lambda_(k-1), below lambda_(k+1) while the
    steps shrink; each eigenvalue is certified as in a cold solve.  It
    approaches its limit linearly in nu = sqrt(mu_n - mu), so a two-point
    Richardson step in nu (ratio sqrt(2)) removes the leading term.  Deep in
    the sequence the inner cutoff contaminates the data (the plateau of the
    truncated interval), so the reported limit is the extrapolant where
    consecutive extrapolants agree best, the usual error proxy.  The raw
    sequence is returned for inspection; a non-monotone sequence aborts the
    extrapolation.
    """
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    if grid is None:
        # The near-critical eigenfunctions drift to the origin like
        # r^(nu - (n-2)/2) with nu -> 0, so the inner cutoff must be far
        # deeper than for a fixed-mu solve or it acts as a Dirichlet wall
        # and the sequence plateaus above the true limit.
        grid = GridSpec(4000, GridMapping.LOG_SPACED, R, 1e-40 * R)
    elif grid.R != R:
        raise DomainError(f"the grid ends at {grid.R}, not at R = {R}")
    p.check_radius(R)
    mu_n = 0.25 * (n - 2) ** 2
    mus = (1.0 - 2.0 ** -np.arange(1.0, _LIMIT_DEPTH + 1)) * mu_n
    # one assembly; each mu only shifts the stiffness diagonal, in one buffer
    k_diag, k_off, m_diag, hardy_diag = _pencil(p, grid.nodes(), n, hardy=True)
    lambdas, residuals, x, shift = [], [], None, 0.0
    shifted = np.empty_like(k_diag)
    for mu in mus:
        # warm start passed positionally, the way tests stub the solver
        lam, x, res = _smallest_eigenpair(_shifted(k_diag, float(mu), hardy_diag, shifted),
                                          k_off, m_diag, x, shift)[:3]
        shift = 2.0 * lam - lambdas[-1] if lambdas else 0.0
        lambdas.append(lam)
        residuals.append(res)
    lambdas = np.array(lambdas)
    diffs = np.diff(lambdas)
    if np.any(diffs > 1e-12 * np.abs(lambdas[:-1])):
        raise NonMonotoneSequence(
            "eigenvalues failed to decrease along the mu sequence: "
            f"{lambdas.tolist()}")
    root2 = math.sqrt(2.0)
    extrapolants = (root2 * lambdas[1:] - lambdas[:-1]) / (root2 - 1.0)
    agreement = np.abs(np.diff(extrapolants))
    best = int(np.argmin(agreement[1:])) + 1   # skip the warmup pair
    limit = float(extrapolants[best + 1])
    return LambdaLimitResult(limit, mus, lambdas, extrapolants, np.array(residuals))


# ---------------------------------------------------------------------------
# Weighted one-dimensional inequality checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFn:
    """Function with analytic first (and optionally second) derivative."""

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    deriv2: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class PoincareResult:
    lhs: float
    rhs: float
    margin: float
    boundary_a: float
    boundary_b: float


def poincare_check(k: SmoothFn, phi: SmoothFn, h: SmoothFn, a: float, b: float,
                   grid: GridSpec) -> PoincareResult:
    """Evaluate both sides of the weighted quotient inequality

        int_a^b h'^2 k dr  >=  int_a^b -h^2 (k' phi' + k phi'') / phi dr

    for strictly positive phi, by composite Gauss-Legendre quadrature on the
    grid cells.  The common boundary limit of k h^2 phi'/phi at a and b is
    verified first (the inequality's integration by parts needs it).
    """
    if phi.deriv2 is None:
        raise DomainError("phi needs an analytic second derivative")
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")

    def boundary(r: float) -> float:
        return k.value(r) * h.value(r) ** 2 * phi.deriv(r) / phi.value(r)

    span = b - a
    b_a = boundary(a + 1e-8 * span)
    b_a_next = boundary(a + 1e-7 * span)
    b_b = boundary(b - 1e-8 * span)
    b_b_next = boundary(b - 1e-7 * span)

    def lhs_integrand(r: np.ndarray) -> np.ndarray:
        return np.array([h.deriv(ri) ** 2 * k.value(ri) for ri in r])

    def rhs_integrand(r: np.ndarray) -> np.ndarray:
        out = np.empty(r.size)
        for i, ri in enumerate(r):
            out[i] = -h.value(ri) ** 2 * (
                k.deriv(ri) * phi.deriv(ri) + k.value(ri) * phi.deriv2(ri)) / phi.value(ri)
        return out

    cells = _quad_cells(a, b, grid)
    lhs = _composite_gl(lhs_integrand, cells)
    rhs = _composite_gl(rhs_integrand, cells)

    scale = max(1.0, abs(lhs))
    drift = max(abs(b_a - b_a_next), abs(b_b - b_b_next))
    if abs(b_a - b_b) > 1e-3 * scale + 10.0 * drift:
        raise BoundaryConditionViolated(
            f"boundary limits differ: {b_a} at a vs {b_b} at b")
    return PoincareResult(lhs, rhs, lhs - rhs, b_a, b_b)


def _quad_cells(a: float, b: float, grid: GridSpec) -> np.ndarray:
    if grid.mapping is GridMapping.LOG_SPACED:
        lo = a if a > 0.0 else min(1e-12 * (b - a), b * 1e-12)
        edges = np.exp(np.linspace(math.log(max(lo, 1e-300)), math.log(b), grid.N))
        if a < edges[0]:
            edges = np.concatenate([[a], edges])
        return edges
    return np.linspace(a, b, grid.N)


def _composite_gl(fn: Callable, edges: np.ndarray) -> float:
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    total = 0.0
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        total += wi * float(np.sum(half * fn(mid + half * xi)))
    return total


# ---------------------------------------------------------------------------
# Direct quotient on sampled test functions
# ---------------------------------------------------------------------------

def hardy_quotient(r: np.ndarray, u: np.ndarray, p: RadialPotential, n: int,
                   R: float, du: Optional[np.ndarray] = None) -> float:
    """[int u'^2 r^(n-1) - mu_n int u^2 r^(n-3)] / int v u^2 r^(n-1)
    on sampled u with u(R) = 0 (angular factors cancel in the quotient).

    Every admissible test function bounds the best improvement constant
    from above, so quotient >= c(V) up to quadrature error; used as a
    property check.  Derivative samples are optional (finite differences
    otherwise).
    """
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    if r.ndim != 1 or r.shape != u.shape or r.size < 8:
        raise DomainError("need matching 1-d sample arrays, length >= 8")
    if np.any(np.diff(r) <= 0.0):
        raise DomainError("radii must be strictly increasing")
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    scale = float(np.max(np.abs(u)))
    if abs(u[-1]) > 1e-6 * max(scale, 1e-300) or abs(r[-1] - R) > 1e-9 * R:
        raise DomainError("samples must end at r = R with u(R) = 0")
    if du is None:
        du = np.gradient(u, r)
    else:
        du = np.asarray(du, dtype=float)
    mu_n = 0.25 * (n - 2) ** 2
    v = p.value(r)
    numerator = np.trapezoid(du ** 2 * r ** (n - 1), r) - mu_n * np.trapezoid(u ** 2 * r ** (n - 3.0), r)
    with np.errstate(invalid="ignore"):     # v = inf times u^2 = 0 is nan, refused below
        denominator = np.trapezoid(v * u ** 2 * r ** (n - 1), r)
    if not 1e-300 < denominator < math.inf:
        raise DegenerateDenominator(f"potential-weighted mass is {denominator}")
    return float(numerator / denominator)
