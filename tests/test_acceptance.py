"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the measured quantities (run with -s or look at captured output).

Criterion 6's borderline clause (5% oracle agreement for the m = 1
iterated-log potential at N = 1e5, r_min = 1e-10) compares the FE quotient
with the shooting constant after taking out the known truncation gap.  The
borderline constant 1/4 is not attained, so the FE quotient on [r_min, R]
converges to the threshold of the truncated interval, 1/4 + w(L)^2, which
is ~0.73 at that cutoff and closes only like (pi / L)^2 with
L = ln(ln(rho / r_min) / ln(rho / R)).  The test subtracts the closed-form
w(L)^2 and checks the rest against the bisection; see the comments there.
"""
import math
import time

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

from hardy_optim import (GridMapping, GridSpec, RadialPotential, ShootingOutcome,
                         SmoothFn, Status, best_constant, brezis_vazquez_lambda,
                         classify, dual_lower_bound, feasible, hardy_quotient,
                         integrate, lambda_limit, log_problem, poincare_check,
                         radius_problem, reduced_rayleigh_min, residual,
                         riccati_check, to_log_domain, unit_ball_volume,
                         weighted_eigen, Label)
from hardy_optim.errors import IndeterminateAtHorizon

from conftest import Z0, Z0_SQ


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_brezis_vazquez_constant():
    t0 = time.perf_counter()
    res = best_constant(RadialPotential.constant(1.0), 1.0, tol=1e-6)
    elapsed = time.perf_counter() - t0
    err = abs(res.c_best - Z0_SQ)
    _report("01", err <= 1e-4 and elapsed <= 1.0,
            f"c_best = {res.c_best:.10f}, |c - z0^2| = {err:.2e} (<= 1e-4), "
            f"runtime {elapsed:.2f}s (<= 1s)")


def test_criterion_02_scaling_law():
    products = {}
    for R in (0.5, 1.0, 2.0, 4.0):
        p = RadialPotential.constant(1.0, r_max=R)
        products[R] = best_constant(p, R, tol=1e-6).c_best * R * R
    spread = (max(products.values()) - min(products.values())) / min(products.values())
    formula_ok = True
    details = []
    for n in (3, 4, 5):
        lam = brezis_vazquez_lambda(n, unit_ball_volume(n) * 2.0 ** n)
        rel = abs(products[2.0] / 4.0 - lam) / lam
        formula_ok &= rel <= 1e-5
        details.append(f"n={n}: rel {rel:.1e}")
    _report("02", spread <= 1e-5 and formula_ok,
            f"c_best*R^2 spread {spread:.2e} (<= 1e-5); formula match " + ", ".join(details))


def test_criterion_03_closed_form_residuals():
    grid = np.exp(np.linspace(math.log(1e-6), math.log(1.0 - 1e-12), 10_000))
    worst = 0.0
    for family in ("adimurthi_log", "filippas_tertikas"):
        for m in (1, 2, 3):
            p = getattr(RadialPotential, family)(m)
            phi = np.array([p.closed_form(float(r), 1.0) for r in grid])
            prob = radius_problem(p, p.closed_form_multiplier(1.0), 1.0)
            worst = max(worst, residual(phi, prob, grid))
    _report("03", worst <= 1e-6,
            f"max closed-form residual over both families, m <= 3: {worst:.2e} (<= 1e-6)")


def test_criterion_04_critical_bracketing():
    ok = True
    details = []
    for family in ("adimurthi_log", "filippas_tertikas"):
        p = getattr(RadialPotential, family)(1)
        lo = feasible(p, 0.25, 1.0)
        hi = feasible(p, 0.35, 1.0)
        ok &= lo.feasible and not hi.feasible
        ok &= hi.evidence.certificate is not None and \
            hi.evidence.certificate.kind == "oscillatory"
        # the indeterminate band shrinks as the horizon grows: c = 0.35 is
        # undecidable at s_max = 1e4 and certified infeasible at 1e6
        try:
            feasible(p, 0.35, 1.0, s_max=1e4)
            shrank = False
        except IndeterminateAtHorizon:
            shrank = True
        ok &= shrank
        details.append(f"{family}: 0.25 feasible / 0.35 certified infeasible, "
                       f"band shrinks 1e4->1e6: {shrank}")
    _report("04", ok, "; ".join(details))


def test_criterion_05_classification_dichotomy():
    ok = True
    details = []
    for alpha, want in [(0.5, Label.X), (1.0, Label.X), (1.5, Label.X),
                        (2.0, Label.Y), (2.5, Label.Y)]:
        t0 = time.perf_counter()
        label = classify(RadialPotential.power_law(alpha)).label
        elapsed = time.perf_counter() - t0
        ok &= label is want and elapsed <= 1.0
        details.append(f"a={alpha}: {label.value} in {elapsed * 1e3:.0f}ms")
    _report("05", ok, "; ".join(details))


def test_criterion_06_oracle_equivalence_noncritical():
    ok = True
    details = []
    cases = [(RadialPotential.constant(1.0), "V=1"),
             (RadialPotential.power_law(0.5), "a=0.5"),
             (RadialPotential.power_law(1.0), "a=1")]
    grid = GridSpec(10_000, GridMapping.LOG_SPACED, 1.0, 1e-6)
    for p, name in cases:
        bc = best_constant(p, 1.0, tol=1e-6).c_best
        rr = reduced_rayleigh_min(p, grid).lambda1
        rel = abs(rr - bc) / bc
        ok &= rel <= 0.01
        details.append(f"{name}: |rr - bc|/bc = {rel:.2e}")
    _report("06a", ok, "; ".join(details) + " (<= 1%)")


def _truncation_gap(p: RadialPotential, R: float, r_min: float) -> tuple[float, float]:
    """(L, w^2) for the m = 1 iterated-log quotient truncated to [r_min, R].

    With s = ln(rho / r) and w = s^(1/2) g(t), t = ln(s / ln(rho / R)), the
    reduced quotient becomes int g'^2 + g^2 / 4 over int g^2 on [0, L], with
    g(0) = 0 and g'(L) + g(L) / 2 = 0.  Its minimum is 1/4 + w^2, where w is
    the root of w cos(w L) + sin(w L) / 2 = 0 in (pi / 2L, pi / L).
    """
    L = math.log(math.log(p.rho / r_min) / math.log(p.rho / R))
    lo, hi = 0.5 * math.pi / L, math.pi / L
    w = brentq(lambda x: x * math.cos(x * L) + 0.5 * math.sin(x * L),
               lo * (1.0 + 1e-12), hi * (1.0 - 1e-12), xtol=1e-15)
    return L, w * w


def test_criterion_06_oracle_equivalence_borderline():
    # <= 5% agreement for the m = 1 iterated-log potential at N = 1e5,
    # r_min = 1e-10.  The borderline constant 1/4 is not attained, so the FE
    # minimum on [r_min, R] (free at r_min) converges to the truncated
    # threshold 1/4 + w(L)^2, not to c(V): ~0.73 here, 191% above it.  The
    # closed-form w(L)^2 is subtracted before comparing with the bisection.
    # The truncated threshold bounds c(V) from above (extend a truncated
    # function by a constant below r_min and its quotient can only fall) and
    # P1 elements are conforming, so c_best <= rr; at a deeper cutoff rr must
    # fall as w(L)^2 does, not stay a fixed offset above c_best.  The
    # cutoff stops at 1e-100: below ~1e-157 the FE cell widths underflow.
    p = RadialPotential.adimurthi_log(1)
    bc = best_constant(p, 1.0, tol=1e-6).c_best
    ok = True
    details = []
    rrs = []
    for r_min in (1e-10, 1e-100):
        fe = reduced_rayleigh_min(p, GridSpec(100_000, GridMapping.LOG_SPACED, 1.0, r_min))
        rr = fe.lambda1
        L, gap = _truncation_gap(p, 1.0, r_min)
        rel = abs(rr - gap - bc) / bc if bc > 0.0 else math.inf
        converged = fe.iterations < 80      # the iteration cap of the FE eigensolve
        ok &= rel <= 0.05 and bc <= rr and converged
        rrs.append(rr)
        details.append(f"r_min = {r_min:.0e} (L = {L:.3f}): rr = {rr:.8f}, w^2 = {gap:.8f}, "
                       f"rr - w^2 = {rr - gap:.8f}, rel = {rel:.1e}, "
                       f"{fe.iterations} iterations")
    ok &= rrs[1] < rrs[0]
    _report("06b", ok,
            f"borderline m=1 vs c_best = {bc:.8f} (<= 5% after the truncation gap, "
            f"c_best <= rr, rr falls with r_min): " + "; ".join(details))


def test_criterion_07_weighted_eigenvalue():
    p = RadialPotential.constant(1.0)
    pi_sq = math.pi ** 2
    coarse = weighted_eigen(p, 0.0, 3, GridSpec(2500, GridMapping.LOG_SPACED,
                                                1.0, 1e-6)).lambda1
    fine = weighted_eigen(p, 0.0, 3, GridSpec(10_000, GridMapping.LOG_SPACED,
                                              1.0, 1e-6)).lambda1
    mode_ok = abs(fine - pi_sq) / pi_sq <= 1e-3 and abs(fine - pi_sq) <= abs(coarse - pi_sq)
    g = GridSpec(10_000, GridMapping.LOG_SPACED, 1.0, 1e-6)
    lams = [weighted_eigen(p, f * 0.25, 3, g).lambda1 for f in (0.0, 0.5, 0.9, 0.99)]
    monotone = all(lams[i + 1] < lams[i] for i in range(len(lams) - 1))
    rel_const = abs(lambda_limit(p, 3, 1.0).limit - Z0_SQ) / Z0_SQ
    pl = RadialPotential.power_law(1.0)
    bc_pl = best_constant(pl, 1.0, tol=1e-6).c_best
    rel_pl = abs(lambda_limit(pl, 3, 1.0).limit - bc_pl) / bc_pl
    _report("07", mode_ok and monotone and rel_const <= 0.02 and rel_pl <= 0.02,
            f"mode = {fine:.6f} vs pi^2 ({abs(fine - pi_sq) / pi_sq:.1e} rel, refining); "
            f"monotone in mu: {monotone}; limit agreement V=1: {rel_const:.2e}, "
            f"a=1: {rel_pl:.2e} (<= 2%)")


def test_criterion_08_inequality_property_suite():
    p = RadialPotential.constant(1.0)
    bc = best_constant(p, 1.0, tol=1e-6).c_best
    rng = np.random.default_rng(20260809)
    r = np.exp(np.linspace(math.log(1e-6), 0.0, 8001))
    r[-1] = 1.0
    worst = np.inf
    for _ in range(100):
        coeffs = rng.normal(size=8) / (1.0 + np.arange(8)) ** 2
        u = sum(a * np.sin((j + 1) * math.pi * r) for j, a in enumerate(coeffs))
        du = sum(a * (j + 1) * math.pi * np.cos((j + 1) * math.pi * r)
                 for j, a in enumerate(coeffs))
        worst = min(worst, hardy_quotient(r, u, p, 3, 1.0, du=du))
    quotient_ok = worst >= bc - 1e-3 * bc

    def j1(x):
        q, term, total, k = 0.25 * x * x, 0.5 * x, 0.5 * x, 0
        while abs(term) > 1e-17 * max(1.0, abs(total)):
            k += 1
            term *= -q / (k * (k + 1))
            total += term
        return total

    phi_j0 = SmoothFn(lambda x: j0(Z0 * x),
                      lambda x: -Z0 * j1(Z0 * x),
                      lambda x: -Z0_SQ * j0(Z0 * x) + (Z0 * j1(Z0 * x) / x
                                                              if x > 0 else -0.5 * Z0_SQ))
    phi_sin = SmoothFn(lambda x: math.sin(math.pi * x),
                       lambda x: math.pi * math.cos(math.pi * x),
                       lambda x: -math.pi ** 2 * math.sin(math.pi * x))
    h_sin2 = SmoothFn(lambda x: math.sin(2 * math.pi * x),
                      lambda x: 2 * math.pi * math.cos(2 * math.pi * x),
                      lambda x: -4 * math.pi ** 2 * math.sin(2 * math.pi * x))
    weight_r = SmoothFn(lambda x: x, lambda x: 1.0)
    weight_1 = SmoothFn(lambda x: 1.0, lambda x: 0.0)
    suite = [
        (weight_r, phi_j0, phi_j0, GridSpec(2000, GridMapping.LOG_SPACED, 1.0, 1e-10), True),
        (weight_1, phi_sin, phi_sin, GridSpec(2000, GridMapping.UNIFORM, 1.0, 1e-10), True),
        (weight_1, phi_sin, h_sin2, GridSpec(2000, GridMapping.UNIFORM, 1.0, 1e-10), False),
    ]
    margins_ok = True
    details = []
    for k, phi, h, g, equality in suite:
        res = poincare_check(k, phi, h, 0.0, 1.0, g)
        margins_ok &= res.margin >= -1e-8 * res.lhs
        if equality:
            margins_ok &= abs(res.margin) <= 1e-6 * res.lhs
        details.append(f"margin/lhs = {res.margin / res.lhs:.1e}")
    _report("08", quotient_ok and margins_ok,
            f"100 random quotients >= c(V)(1 - 1e-3): min = {worst:.4f} vs {bc:.4f}; "
            f"weighted-inequality margins: " + ", ".join(details))


def test_criterion_09_transform_identities():
    prob = radius_problem(RadialPotential.power_law(0.8, amplitude=1.7), 2.3, 1.0)
    lp = to_log_domain(prob)
    worst = 0.0
    for r in np.logspace(-8, -0.01, 40):
        lhs = lp.coefficient(math.log(1.0 / r))
        rhs = r * r * prob.coefficient(float(r))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    round_trip_ok = worst <= 1e-13

    pj = RadialPotential.constant(1.0, r_max=math.exp(-1.0))
    lpj = log_problem(pj, 1.0, math.exp(-1.0), s_max=5.0)
    res_j0 = riccati_check(integrate(lpj), lpj)

    pa = RadialPotential.adimurthi_log(1, rho=1.0, r_max=1.0 / math.e)
    lpa = log_problem(pa, 0.25, 1.0 / math.e)
    s = np.linspace(1.0, 5.0, 40001)
    exact = ShootingOutcome({"s": s, "z": np.sqrt(s), "dz": 0.5 / np.sqrt(s)},
                            None, Status.HORIZON_REACHED)
    res_sqrt = riccati_check(exact, lpa)
    _report("09", round_trip_ok and res_j0 <= 1e-6 and res_sqrt <= 1e-6,
            f"round-trip {worst:.1e} (<= 1e-13); riccati residuals: "
            f"J0 frame {res_j0:.1e}, sqrt(s) {res_sqrt:.1e} (<= 1e-6)")


def test_criterion_10_dual_bound():
    b = dual_lower_bound(RadialPotential.power_law(1.0), 1.0, 1.0, 3, 1.0)
    pl_ok = abs(b.bound - 1.0 / math.pi) <= 1e-6
    b2 = dual_lower_bound(RadialPotential.constant(1.0), Z0_SQ, 2.0, 3, 1.0)
    const_ok = b2.bound == Z0_SQ
    _report("10", pl_ok and const_ok,
            f"power-law p=1 bound {b.bound:.12f} vs 1/pi "
            f"(|diff| = {abs(b.bound - 1.0 / math.pi):.1e} <= 1e-6); "
            f"p=2 ess-inf exact: {const_ok}")
