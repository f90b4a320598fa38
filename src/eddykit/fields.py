"""Catalog of periodic incompressible velocity fields.

Every flow in the catalog is 2*pi-periodic in both spatial coordinates,
divergence free and has zero spatial mean over the cell [0, 2*pi]^2.
Velocities derive from a stream function psi through the perpendicular
gradient, v = (-dpsi/dy, dpsi/dx), so incompressibility holds by
construction. The three shear flows share the spatial factor sin(x) and
differ only in the time modulation eta(t):

    shear               v = (0, sin x)
    periodic_shear      v = (0, sin(omega t) sin x)
    ou_shear            v = (0, eta(t) sin x),  d eta = -alpha eta dt + sqrt(2 sigma) d beta

The two cellular flows are time independent:

    taylor_green        psi = sin x sin y
    childress_soward    psi = sin x sin y + lam cos x cos y,  lam in [0, 1]

All expressions are hard coded; there is no runtime expression parser.
This module holds what a flow is: its spec, label and Fourier data.
``FLOW_PARAMS`` names the parameters of each kind and holds the check of
each, which FlowSpec runs and whose float it stores, so flows that compare
equal compute the same paths. The integrator evaluates the velocity
itself, on its own state layout (``dynamics._drift`` for the cellular
flows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, nonnegative, positive

# canonical kind tags, also used in config files and on the command line
STEADY_SHEAR = "shear"
PERIODIC_SHEAR = "periodic_shear"
OU_SHEAR = "ou_shear"
TAYLOR_GREEN = "taylor_green"
CHILDRESS_SOWARD = "childress_soward"


def _unit(name: str, value) -> float:
    """value as a float if it is a number in [0, 1], else ParameterError naming it."""
    number = nonnegative(name, value)
    if number > 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return number


# the parameters each kind takes and the check of each; FlowSpec, flow_label,
# config files and the CLI read them here
FLOW_PARAMS = {
    STEADY_SHEAR: {},
    PERIODIC_SHEAR: {"omega": positive},
    OU_SHEAR: {"alpha": positive, "sigma": nonnegative},
    TAYLOR_GREEN: {},
    CHILDRESS_SOWARD: {"lam": _unit},
}
FLOW_KINDS = tuple(FLOW_PARAMS)
SHEAR_FAMILY = (STEADY_SHEAR, PERIODIC_SHEAR, OU_SHEAR)
TIME_INDEPENDENT = (STEADY_SHEAR, TAYLOR_GREEN, CHILDRESS_SOWARD)


@dataclass(frozen=True)
class FlowSpec:
    """Tagged description of one velocity field.

    Parameters
    ----------
    kind : str
        One of ``FLOW_KINDS``.
    omega : float, optional
        Angular frequency of the periodic modulation (periodic_shear only).
    alpha : float, optional
        Mean reversion rate of the OU modulation (ou_shear only).
    sigma : float, optional
        Noise intensity of the OU modulation (ou_shear only).
    lam : float, optional
        Interpolation parameter in [0, 1] (childress_soward only).
    """

    kind: str
    omega: float | None = None
    alpha: float | None = None
    sigma: float | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in FLOW_PARAMS:
            raise ParameterError(f"unknown flow kind {self.kind!r}; expected one of {FLOW_KINDS}")
        for name, value in vars(self).items():
            if name != "kind" and value is not None and name not in FLOW_PARAMS[self.kind]:
                raise ParameterError(f"{name} is not a parameter of {self.kind}")
        for name, check in FLOW_PARAMS[self.kind].items():
            object.__setattr__(self, name, check(name, getattr(self, name)))

    @property
    def is_shear(self) -> bool:
        return self.kind in SHEAR_FAMILY

    @property
    def is_time_independent(self) -> bool:
        return self.kind in TIME_INDEPENDENT


def steady_shear() -> FlowSpec:
    return FlowSpec(STEADY_SHEAR)


def periodic_shear(omega: float) -> FlowSpec:
    return FlowSpec(PERIODIC_SHEAR, omega=omega)


def ou_shear(alpha: float, sigma: float) -> FlowSpec:
    return FlowSpec(OU_SHEAR, alpha=alpha, sigma=sigma)


def taylor_green() -> FlowSpec:
    return FlowSpec(TAYLOR_GREEN)


def childress_soward(lam: float) -> FlowSpec:
    return FlowSpec(CHILDRESS_SOWARD, lam=lam)


def flow_label(flow: FlowSpec) -> str:
    """Short human readable label including parameter values."""
    params = ", ".join(f"{name}={getattr(flow, name):g}" for name in FLOW_PARAMS[flow.kind])
    return f"{flow.kind}({params})" if params else flow.kind


# ---------------------------------------------------------------------------
# Fourier data
# ---------------------------------------------------------------------------


def stream_modes(flow: FlowSpec) -> dict[tuple[int, int], complex]:
    """Fourier coefficients of the spatial stream function.

    Coefficients are with respect to exp(i k . z) on [0, 2*pi]^2, so
    psi(z) = sum_k psi_k exp(i k . z). Only the spatial factor is
    represented; the modulation of the time-dependent shears is excluded.
    """
    if flow.is_shear:
        # psi = -cos x gives v = (0, sin x)
        return {(1, 0): -0.5, (-1, 0): -0.5}
    # sin x sin y = -(1/4) [e^{i(x+y)} - e^{i(x-y)} - e^{-i(x-y)} + e^{-i(x+y)}]
    tg = {(1, 1): -0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): -0.25}
    if flow.kind == TAYLOR_GREEN:
        return tg
    # cos x cos y = (1/4) sum over the four (+-1, +-1) modes
    lam = flow.lam
    return {k: c + lam * 0.25 for k, c in tg.items()}


def velocity_modes(flow: FlowSpec) -> dict[tuple[int, int], np.ndarray]:
    """Fourier coefficients of the spatial velocity, v_k = (-i k2, i k1) psi_k."""
    return {
        k: np.array([-1j * k[1] * c, 1j * k[0] * c])
        for k, c in stream_modes(flow).items()
    }
