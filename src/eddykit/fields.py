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

# the parameters each kind takes; FlowSpec, config files and the CLI read them here
FLOW_PARAMS = {
    STEADY_SHEAR: (),
    PERIODIC_SHEAR: ("omega",),
    OU_SHEAR: ("alpha", "sigma"),
    TAYLOR_GREEN: (),
    CHILDRESS_SOWARD: ("lam",),
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
        if self.kind not in FLOW_PARAMS:
            raise ParameterError(f"unknown flow kind {self.kind!r}; expected one of {FLOW_KINDS}")
        for name, value in vars(self).items():
            if name != "kind" and value is not None and name not in FLOW_PARAMS[self.kind]:
                raise ParameterError(f"{name} is not a parameter of {self.kind}")
        if self.kind == PERIODIC_SHEAR:
            positive("omega", self.omega)
        if self.kind == OU_SHEAR:
            positive("alpha", self.alpha)
            nonnegative("sigma", self.sigma)
        if self.kind == CHILDRESS_SOWARD and nonnegative("lam", self.lam) > 1.0:
            raise ParameterError(f"lam must lie in [0, 1], got {self.lam!r}")

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
    if flow.kind == PERIODIC_SHEAR:
        return f"{flow.kind}(omega={flow.omega:g})"
    if flow.kind == OU_SHEAR:
        return f"{flow.kind}(alpha={flow.alpha:g}, sigma={flow.sigma:g})"
    if flow.kind == CHILDRESS_SOWARD:
        return f"{flow.kind}(lam={flow.lam:g})"
    return flow.kind


# ---------------------------------------------------------------------------
# velocity kernels
#
# The two cellular velocities in the flat form of the Euler-Maruyama step loop,
# which advances a whole block of realizations at once. A state of n rows is one
# 1-D array z = [x_0 ... x_{n-1}, y_{n-1} ... y_0], its y half mirrored, and
# trig = [sin z, cos z] one 1-D array of 4n that the loop fills once per step.
# The mirror lines each x_i up with y_i in the reversed view of a half: with
# s = sin z and c = cos z, s * c[::-1] is [sx cy, sy cx] in the state's own
# layout. Each helper is built once per block, with the signed factor [-h, h]
# and its views of trig, and returns drift(out), which writes h v(z) into the
# 1-D array out of 2n, every numpy call on 1-D operands; h = 1 gives v itself.
# The sign of v1 rides on the factor, which is exact. The shear drift
# (0, eta(t) sin x) is inlined in the shear kernel instead.
# ---------------------------------------------------------------------------


def _signed_factor(h: float, n: int) -> np.ndarray:
    factor = np.empty(2 * n)
    factor[:n] = -h
    factor[n:] = h
    return factor


def _taylor_green_drift(h: float, trig: np.ndarray):
    # psi = sin x sin y: h v = [-h, h] * [sx cy, sy cx]
    n = trig.size // 4
    factor = _signed_factor(h, n)
    s, c_mirror = trig[:2 * n], trig[2 * n:][::-1]
    multiply = np.multiply

    def drift(out: np.ndarray) -> None:
        multiply(s, c_mirror, out)
        multiply(out, factor, out)

    return drift


def _childress_soward_drift(lam: float, h: float, trig: np.ndarray):
    # psi = sin x sin y + lam cos x cos y: h v = [-h, h] * (P - Q) with
    # P = [sx cy, sy cx] and Q = [(lam cx) sy, (lam sx) cy]. lam multiplies
    # the x half's cosines but the y half's sines, so Q takes one product
    # per half of lam trig = [lam s, lam c], each half on views in its order
    n = trig.size // 4
    factor = _signed_factor(h, n)
    s, c = trig[:2 * n], trig[2 * n:]
    c_mirror = c[::-1]
    lam_trig = np.empty_like(trig)
    lam_cx, sy = lam_trig[2 * n:3 * n], s[::-1][:n]  # x order
    lam_sx, cy = lam_trig[n - 1::-1], c[n:]  # mirrored y order
    q = np.empty(2 * n)
    q_x, q_y = q[:n], q[n:]
    multiply, subtract = np.multiply, np.subtract

    def drift(out: np.ndarray) -> None:
        multiply(s, c_mirror, out)
        multiply(trig, lam, lam_trig)
        multiply(lam_cx, sy, q_x)
        multiply(lam_sx, cy, q_y)
        subtract(out, q, out)
        multiply(out, factor, out)

    return drift


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
