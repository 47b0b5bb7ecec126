import numpy as np
import pytest

from hardy_optim import RadialPotential
from hardy_optim.ode import S_MAX_DEFAULT

# First positive zero of J0 and derived constants, frozen from a
# high-precision evaluation (mpmath, 40 digits) independent of the package.
Z0 = 2.4048255576957727686
Z0_SQ = 5.7831859629467845212
J1_AT_Z0 = 0.51914749728946678814


@pytest.fixture(scope="session")
def s_max():
    return S_MAX_DEFAULT


@pytest.fixture(scope="session")
def constant_pot():
    return RadialPotential.constant(1.0)


@pytest.fixture(scope="session")
def adimurthi_1():
    return RadialPotential.adimurthi_log(1)


@pytest.fixture(scope="session")
def ft_1():
    return RadialPotential.filippas_tertikas(1)


def power_law_zero(alpha: float, c: float) -> float:
    """Analytic first zero of the recessive solution for v = r^-alpha.

    The substitution y = J0(2 sqrt(c) r^((2-alpha)/2) / (2-alpha)) solves the
    reduced equation exactly, so the first zero sits where the Bessel
    argument reaches Z0.
    """
    return (Z0 * (2.0 - alpha) / (2.0 * np.sqrt(c))) ** (2.0 / (2.0 - alpha))


def power_law_best_constant(alpha: float, R: float) -> float:
    """Feasibility threshold for v = r^-alpha: first zero at R."""
    return (Z0 * (2.0 - alpha) / 2.0) ** 2 * R ** (alpha - 2.0)
