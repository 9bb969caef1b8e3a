import numpy as np
import pytest

from qbm_sbs.model import EnvInitialState, EnvironmentSpec, SqueezeAxis, SystemParams
from qbm_sbs.observables import _exponent_sum

MASS_M = 1.0e-5
OMEGA_BIG = 3.0e8
GAMMA0 = 0.33e18
X_SEP = 1.0e-9
M_ENV = 1.0e-25
OMEGA_LOW = 3.0e9
OMEGA_HIGH = 6.0e9


@pytest.fixture
def system():
    return SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP)


@pytest.fixture
def system_position():
    return SystemParams(
        mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP, squeezing_axis=SqueezeAxis.POSITION
    )


def make_spec(macrofraction_size=30, traced_size=30):
    return EnvironmentSpec(
        macrofraction_size=macrofraction_size,
        omega_low=OMEGA_LOW,
        omega_high=OMEGA_HIGH,
        gamma0=GAMMA0,
        traced_size=traced_size,
    )


def log_factors(fraction, sys, state, t):
    """(ln|Gamma|, ln B) of one fraction at a scalar time t."""
    return tuple(-float(_exponent_sum(fraction, sys, state, t, kind)[0]) for kind in ("coth", "tanh"))


@pytest.fixture
def spec30():
    return make_spec()


@pytest.fixture
def thermal_state():
    return EnvInitialState(temperature=1.0e-2)
