"""Independent verification path: discretized eigenvalue problems and
weighted one-dimensional inequalities.

Everything here deliberately avoids the shooting machinery: quotients are
assembled as piecewise-linear finite elements on explicit grids, so
agreement with the ODE side is a genuine two-sided check of the
feasibility characterization.

Each quotient reads one eigensolve pass per pencil over its mu (_eigenpairs), certified by
Sylvester's law of inertia at most _CERT_GAP (1e-6) relative above a sigma at which K - sigma
M factors, by numpy's own OpenBLAS through ctypes, or scipy's LAPACK where numpy's lacks it.

Boundary treatment: Dirichlet at the outer radius, natural (free) at the
inner cutoff r_min.  The inner cutoff stands in for the boundedness
condition at the origin; forcing the value to zero there instead would
pollute eigenvalues logarithmically (the origin has zero capacity for these
weights, so the continuum problem does not see a Dirichlet condition at 0).
A cutoff so deep that the innermost cells underflow double precision, or
a grid whose nodes coincide in floats, is rejected with DomainError.
"""
from __future__ import annotations

import collections
import ctypes
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
_Lapack = collections.namedtuple("_Lapack", "name refs dpttrf dpttrs")    # see _lapack


@functools.cache
def _flapack():
    """The fallback LAPACK, scipy's extension, loaded from its file in scipy/linalg
    without the scipy.linalg package (0.25-0.34 s of ``-X importtime`` on a 2-core
    x86_64, against 5-9 ms), under its own name, which a later ``import scipy.linalg``
    shares; ``import scipy`` first, which on some platforms sets the BLAS's path."""
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


def _numpy_libraries() -> list:
    """numpy's wheels' own OpenBLAS (int64, scipy_ names): numpy.libs, or numpy/.dylibs on macOS."""
    package = Path(np.__file__).parent
    return sorted([*package.parent.glob("numpy.libs/*scipy_openblas64_*"),
                   *package.glob(".dylibs/*scipy_openblas64_*")])


@functools.cache
def _lapack() -> _Lapack:
    """The name, refs, dpttrf and dpttrs of the FE solves' LAPACK, chosen on the first:
    numpy's library where it exports scipy_dpttrf_64_ and scipy_dpttrs_64_, else
    _flapack.  dpttrf(n, d, e) and dpttrs(n, d, e, b) work in place and return info
    (ctypes': None, then INFO) on refs(*arrays): n, then each array's address or itself."""
    for path in _numpy_libraries():
        try:
            library = ctypes.CDLL(str(path))
            factor, solve = library.scipy_dpttrf_64_, library.scipy_dpttrs_64_
        except (OSError, AttributeError):
            continue
        factor.argtypes, solve.argtypes = [ctypes.c_void_p] * 4, [ctypes.c_void_p] * 7
        factor.restype = solve.restype = None

        def refs(*arrays):          # n: the int64s (N, NRHS = 1, INFO), then their addresses
            ints = (ctypes.c_int64 * 3)(arrays[0].size, 1, 0)
            at = ctypes.addressof(ints)
            return ((ints, at, at + 8, at + 16),
                    *(ctypes.addressof(ctypes.c_char.from_buffer(a)) for a in arrays))
        return _Lapack(str(path), refs, lambda n, d, e: factor(n[1], d, e, n[3]) or n[0][2],
                       lambda n, d, e, b: solve(n[1], n[2], d, e, b, n[1], n[3]) or n[0][2])
    try:
        flapack = _flapack()
    except ImportError as exc:
        raise ImportError("no LAPACK for the FE oracle: no scipy_dpttrf_64_ in numpy.libs or "
                          f"numpy/.dylibs beside {np.__file__}, and {exc}") from exc
    return _Lapack(flapack.__name__, lambda *arrays: (arrays[0].size, *arrays),
                   lambda n, d, e: flapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2],
                   lambda n, d, e, b: flapack.dpttrs(d, e, b, overwrite_b=1)[1])


def dpttrf(n, d, e) -> int:
    """LAPACK's dpttrf on _lapack()'s refs, under the name the tests patch."""
    return _lapack().dpttrf(n, d, e)


def solve_banded(n, d, e, b) -> int:
    """LAPACK's dpttrs on _lapack()'s refs, under the name bench/spans.py traces."""
    return _lapack().dpttrs(n, d, e, b)


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
        try:                            # the enum or its value, as nodes and _quad_cells read it
            object.__setattr__(self, "mapping", GridMapping(self.mapping))
        except ValueError:
            raise DomainError(f"unknown grid mapping {self.mapping!r}") from None
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
    below the smallest normal double, where the assembly would lose its
    precision and then overflow: nodes that coincide in floats (a grid
    narrower than their spacing), else a deep inner cutoff.
    """
    h2 = np.diff(nodes)
    h2 *= h2
    cell = np.diff(nodes ** (a + 1.0))
    cell /= a + 1.0                                      # int r^a dr per cell
    if min(h2.min(), cell.min()) < TINY:
        same = np.flatnonzero(np.diff(nodes) == 0.0)
        if same.size:
            raise DomainError(f"grid nodes coincide in double precision at r / R = "
                              f"{float(nodes[same[0]])!r}; use fewer nodes or a wider grid")
        raise DomainError(
            f"grid cells near r_min / R = {nodes[0]:g} underflow double precision; "
            "raise r_min")
    cell /= h2
    diag = np.zeros(nodes.size)
    diag[:-1] += cell
    diag[1:] += cell
    return diag, np.negative(cell, out=cell)


def _pencil(p: RadialPotential, nodes: np.ndarray, n: int):
    """P1 pencil of the dimension-n radial form, Dirichlet node at R dropped,
    assembled on the unit ball, rho = r / R with R the last node: the
    quotients do not change under dilation when v is read at r = R rho, so no
    power of R is formed.  Stiffness (diag, off-diag) rho^(n-1), lumped
    mass R^2 v rho^(n-1) drho = g e^((n-2)t) dt, g = log_weight(ln(1/R) - t),
    and the lumped Hardy weight rho^(n-3) drho = e^((n-2)t) dt of the
    inverse-square term, from the same e^((n-2)t) samples, or None at n = 2,
    whose reduced quotient has none.  Lumped weights integrate over each
    node's cell in t = ln rho, composite Gauss-Legendre per half-cell.
    Besides the stiffness and log_weight's results it writes into rho (then
    t, s = ln(1/R) - t, -t and e^((n-2)t)), half-widths, midpoints and the
    sums, with the plain bits."""
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
    h_diag = np.zeros(nodes.size) if n != 2 else None
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
        if n != 2:
            h_diag += np.multiply(e, wi, out=lw)
    m_diag *= half
    if np.any(m_diag[:-1] < TINY):
        raise SingularMass("potential weight vanishes or underflows on a full cell")
    hardy = np.multiply(h_diag, half, out=h_diag)[:-1] if n != 2 else None
    return k_diag[:-1], k_off[:-1], m_diag[:-1], hardy


def _eigenpairs(k_diag, k_off, m_diag, hardy_diag, mus):
    """For each mu of ``mus`` in turn, the smallest eigenpair (lambda, x,
    residual, iterations) of (K - mu H) u = lambda M u, K tridiagonal, H and M
    diagonal (H None: K u = lambda M u), by inverse iteration on certified shifts.

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
    lambda~(1 - _CERT_GAP) and lambda~ moved <= _EIG_TOL relative, yielding
    the Rayleigh quotient of the final vector; HardyError after _MAX_ITER
    steps.  The first mu starts cold, from sqrt(M) at sigma = 0; each later
    one from the last x, and from the third on first tries the shift
    2 lambda_k - lambda_(k-1), dropped (sigma = 0) if it fails to factor.
    Set up once: M scaled in place by 4^-k, 4^k near max M, so that y.My stays
    in the floats (yielding lambda 4^-k and x 2^-k keeps every bit); K - mu H,
    the certified and trial factor pairs, y, M x and M y; LAPACK's terms.
    x is yielded in place, in y: it is valid until the next step.
    """
    k = math.frexp(float(m_diag.max()))[1] // 2
    np.ldexp(m_diag, -2 * k, out=m_diag)
    k_mu = k_diag if hardy_diag is None else np.empty_like(k_diag)
    d, e, trial_d, trial_e, y, mx, my = (np.empty(m_diag.size - j) for j in (0, 1, 0, 1, 0, 0, 0))
    n, *refs = _lapack().refs(d, e, trial_d, trial_e, y)     # LAPACK's terms, read once per pass
    pairs = [(d, e, *refs[:2]), (trial_d, trial_e, *refs[2:4])]     # certified, trial

    def factor(shift: float) -> int:      # dpttrf of K - mu H - shift M in the trial pair
        d, e, *ref = pairs[1]
        _shifted(k_mu, shift, m_diag, d)
        np.copyto(e, k_off)
        if not (info := dpttrf(n, *ref)):
            pairs.reverse()
        return info

    lambdas = []
    for mu in mus:
        if hardy_diag is not None:
            _shifted(k_diag, mu, hardy_diag, k_mu)
        shift = float(np.ldexp(2.0 * lambdas[-1] - lambdas[-2], 2 * k)) if len(lambdas) > 1 else 0.0
        sigma, failed = (shift if shift > 0.0 and not factor(shift) else 0.0), math.inf
        if not sigma and (info := factor(0.0)):
            raise IndefiniteForm(f"K is not positive definite (LDL^T pivot {info} <= 0)")
        x = (np.ldexp(y, k, out=y) if lambdas
             else np.sqrt(np.maximum(m_diag, 1e-300, out=y), out=y))
        np.multiply(m_diag, x, out=mx)
        lam = math.inf
        for iterations in range(1, _MAX_ITER + 1):
            np.copyto(y, mx)
            solve_banded(n, *pairs[0][2:], refs[4])     # y = (K - sigma M)^-1 M x
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
                    if not factor(shift):
                        sigma = shift
                        break
                    failed, shift = shift, 0.5 * (sigma + shift)
            if step <= _EIG_TOL * lam and sigma >= target:
                break
        else:
            raise HardyError(f"inverse iteration unsettled after {_MAX_ITER} steps: lambda_1 in "
                             f"[{np.ldexp(sigma, -2 * k):g}, {np.ldexp(lam, -2 * k):g}]")
        x, work = np.multiply(y, scale, out=y), pairs[1][0]   # x = y scale, of the last step only
        # x.Kx via K's row sums and edge differences: x @ (K x) cancels to noise > tol
        np.copyto(work, k_mu)
        work[:-1] += k_off
        work[1:] += k_off
        dx = np.subtract(x[1:], x[:-1], out=mx[:-1])
        dx *= dx
        lam = float(work @ np.multiply(x, x, out=my) - k_off @ dx)
        kx = np.multiply(k_mu, x, out=work)
        kx[:-1] += np.multiply(k_off, x[1:], out=my[:-1])
        kx[1:] += np.multiply(k_off, x[:-1], out=my[:-1])
        lam_mx = np.multiply(m_diag, lam, out=my)
        lam_mx *= x
        r_norm = np.linalg.norm(np.subtract(kx, lam_mx, out=my))
        res_norm = float(r_norm / (np.linalg.norm(kx)
                                   + lam * np.linalg.norm(np.multiply(m_diag, x, out=my))))
        lambdas.append(float(np.ldexp(lam, -2 * k)))
        yield lambdas[-1], np.ldexp(x, -k, out=x), res_norm, iterations


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
    lam, x, res, iters = next(_eigenpairs(*_pencil(p, grid.nodes(), 2), (0.0,)))
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
    lam, x, res, iters = next(_eigenpairs(*_pencil(p, grid.nodes(), n), (mu,)))
    return EigenResult(lam, np.concatenate([x, [0.0]]), grid, res, iters)


def lambda_limit(p: RadialPotential, n: int, R: float,
                 grid: Optional[GridSpec] = None) -> LambdaLimitResult:
    """Extrapolated limit of the first eigenvalue as mu increases to the
    critical coupling, along mu_k = (1 - 2^-k) mu_n, k = 1.._LIMIT_DEPTH,
    in dimension n >= 3.

    One assembly and one continuation pass of _eigenpairs over the mu_k,
    each eigenvalue certified as in a cold solve.  It approaches its limit
    linearly in nu = sqrt(mu_n - mu), so a two-point Richardson step in nu
    (ratio sqrt(2)) removes the leading term.  Deep in the sequence the
    inner cutoff contaminates the data (the plateau of the truncated
    interval), so the reported limit is the extrapolant where consecutive
    extrapolants agree best, the usual error proxy.  The raw sequence is
    returned for inspection; a non-monotone sequence aborts the
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
    solves = [(lam, res) for lam, _, res, _ in _eigenpairs(*_pencil(p, grid.nodes(), n), mus)]
    lambdas, residuals = (np.array(column) for column in zip(*solves))
    if np.any(np.diff(lambdas) > 1e-12 * np.abs(lambdas[:-1])):
        raise NonMonotoneSequence(
            "eigenvalues failed to decrease along the mu sequence: "
            f"{lambdas.tolist()}")
    root2 = math.sqrt(2.0)
    extrapolants = (root2 * lambdas[1:] - lambdas[:-1]) / (root2 - 1.0)
    agreement = np.abs(np.diff(extrapolants))
    best = int(np.argmin(agreement[1:])) + 1   # skip the warmup pair
    limit = float(extrapolants[best + 1])
    return LambdaLimitResult(limit, mus, lambdas, extrapolants, residuals)


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
        if du.shape != r.shape or not np.all(np.isfinite(du)):
            raise DomainError("derivative samples du must be finite and match r's shape")
    mu_n = 0.25 * (n - 2) ** 2
    v = p.value(r)
    numerator = np.trapezoid(du ** 2 * r ** (n - 1), r) - mu_n * np.trapezoid(u ** 2 * r ** (n - 3.0), r)
    with np.errstate(invalid="ignore"):     # v = inf times u^2 = 0 is nan, refused below
        denominator = np.trapezoid(v * u ** 2 * r ** (n - 1), r)
    if not 1e-300 < denominator < math.inf:
        raise DegenerateDenominator(f"potential-weighted mass is {denominator}")
    return float(numerator / denominator)
