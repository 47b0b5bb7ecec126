"""Improved Hardy inequalities on balls: which radial potentials admit an
improvement, at what best constant, and does an independent discretization
agree.
"""

from .bestconst import (BestConstantResult, FeasibilityCheck, best_constant,
                        brezis_vazquez_lambda, feasible, unit_ball_volume)
from .config import RunConfig, load_config
from .dual import DualBound, dual_lower_bound
from .ode import (Domain, HardyODEProblem, ShootingOutcome, Status, TailCertificate,
                  euler_tail_certificate, integrate, integrate_principal_tail, log_problem,
                  radius_problem, radius_rows, residual, riccati_check, to_log_domain)
from .oracle import (EigenResult, GridMapping, GridSpec, LambdaLimitResult,
                     PoincareResult, SmoothFn, hardy_quotient, lambda_limit,
                     poincare_check, reduced_rayleigh_min, weighted_eigen)
from .potentials import ClassLabel, Kind, Label, RadialPotential, classify, exp_tower

__version__ = "0.1.0"
