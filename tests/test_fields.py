"""Tests for the flow catalog.

The catalog velocities are hard coded, so the main risk is a sign or factor
slip relative to the stream functions. The cellular flows are checked against
an independent sympy evaluation of the perpendicular gradient, and the
Fourier data is checked by resumming the series at random points.
"""

import numpy as np
import pytest
import sympy as sp

from eddykit import (
    FlowSpec,
    ParameterError,
    childress_soward,
    flow_label,
    ou_shear,
    periodic_shear,
    steady_shear,
    stream_modes,
    taylor_green,
    velocity_modes,
)
from eddykit.dynamics import _drift
from eddykit.fields import FLOW_KINDS, FLOW_PARAMS

RNG = np.random.default_rng(20240817)
POINTS = RNG.uniform(-10.0, 10.0, size=(64, 2))


def _velocity(flow, z):
    """Spatial velocity at z = (x, y), leading axis of size 2.

    The cellular flows use the drift of the step loop with h = 1,
    which gives v exactly, on the loop's flat state [x, y mirrored]; the
    shear family shares the spatial factor (0, sin x), its modulation left
    out.
    """
    z = np.asarray(z, dtype=float)
    if flow.is_shear:
        return np.array([np.zeros_like(z[0]), np.sin(z[0])])
    x, y = z.reshape(2, -1)
    n = x.size
    state = np.concatenate([x, y[::-1]])
    trig = np.concatenate([np.sin(state), np.cos(state)])
    drift = _drift(flow, 1.0, trig)
    v = np.empty(2 * n)
    drift(v)
    return np.array([v[:n], v[n:][::-1]]).reshape(z.shape)


def _sympy_velocity(psi, x, y):
    """Perpendicular gradient of a sympy stream function, lambdified."""
    v1 = sp.lambdify((x, y), -sp.diff(psi, y), "numpy")
    v2 = sp.lambdify((x, y), sp.diff(psi, x), "numpy")
    return v1, v2


def test_taylor_green_matches_sympy_oracle():
    x, y = sp.symbols("x y", real=True)
    v1, v2 = _sympy_velocity(sp.sin(x) * sp.sin(y), x, y)
    v = _velocity(taylor_green(), POINTS.T)
    np.testing.assert_allclose(v[0], v1(POINTS[:, 0], POINTS[:, 1]), atol=1e-14)
    np.testing.assert_allclose(v[1], v2(POINTS[:, 0], POINTS[:, 1]), atol=1e-14)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_childress_soward_matches_sympy_oracle(lam):
    x, y = sp.symbols("x y", real=True)
    psi = sp.sin(x) * sp.sin(y) + lam * sp.cos(x) * sp.cos(y)
    v1, v2 = _sympy_velocity(psi, x, y)
    v = _velocity(childress_soward(lam), POINTS.T)
    np.testing.assert_allclose(v[0], v1(POINTS[:, 0], POINTS[:, 1]), atol=1e-14)
    np.testing.assert_allclose(v[1], v2(POINTS[:, 0], POINTS[:, 1]), atol=1e-14)


def test_childress_soward_lambda_zero_is_taylor_green():
    v_cs = _velocity(childress_soward(0.0), POINTS.T)
    v_tg = _velocity(taylor_green(), POINTS.T)
    np.testing.assert_array_equal(v_cs, v_tg)


ALL_FLOWS = [
    steady_shear(),
    periodic_shear(1.0),
    ou_shear(1.0, 0.1),
    taylor_green(),
    childress_soward(0.5),
]


@pytest.mark.parametrize("flow", ALL_FLOWS, ids=lambda f: f.kind)
def test_divergence_is_exactly_zero(flow):
    # incompressibility in Fourier space, k . v_k = 0, exactly in floating point
    for (k1, k2), vk in velocity_modes(flow).items():
        assert k1 * vk[0] + k2 * vk[1] == 0.0


@pytest.mark.parametrize("flow", ALL_FLOWS, ids=lambda f: f.kind)
def test_finite_difference_divergence_vanishes(flow):
    # independent check that the velocity itself is incompressible, not just
    # the hand written derivative expressions
    h = 1e-6
    for p in POINTS[:8]:
        vxp = _velocity(flow, p + [h, 0.0])
        vxm = _velocity(flow, p - [h, 0.0])
        vyp = _velocity(flow, p + [0.0, h])
        vym = _velocity(flow, p - [0.0, h])
        div = (vxp[0] - vxm[0]) / (2 * h) + (vyp[1] - vym[1]) / (2 * h)
        assert abs(div) < 1e-9


@pytest.mark.parametrize("flow", ALL_FLOWS, ids=lambda f: f.kind)
def test_velocity_is_2pi_periodic(flow):
    base = _velocity(flow, POINTS.T)
    for shift in ([2 * np.pi, 0.0], [0.0, 2 * np.pi], [-4 * np.pi, 2 * np.pi]):
        shifted = _velocity(flow, (POINTS + shift).T)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_stream_modes_literal_values():
    assert stream_modes(steady_shear()) == {(1, 0): -0.5, (-1, 0): -0.5}
    tg = stream_modes(taylor_green())
    assert tg == {(1, 1): -0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): -0.25}
    cs = stream_modes(childress_soward(0.5))
    assert cs == {(1, 1): -0.125, (1, -1): 0.375, (-1, 1): 0.375, (-1, -1): -0.125}
    # shear family shares the spatial factor
    assert stream_modes(ou_shear(1.0, 0.1)) == stream_modes(steady_shear())


@pytest.mark.parametrize("flow", ALL_FLOWS, ids=lambda f: f.kind)
def test_modes_are_hermitian(flow):
    for modes in (stream_modes(flow), velocity_modes(flow)):
        for (k1, k2), coeff in modes.items():
            np.testing.assert_array_equal(modes[(-k1, -k2)], np.conj(coeff))


@pytest.mark.parametrize(
    "flow", [steady_shear(), taylor_green(), childress_soward(0.3)], ids=lambda f: f.kind
)
def test_velocity_modes_resum_to_velocity(flow):
    v = np.zeros((2, len(POINTS)), dtype=complex)
    for (k1, k2), vk in velocity_modes(flow).items():
        phase = np.exp(1j * (k1 * POINTS[:, 0] + k2 * POINTS[:, 1]))
        v += vk[:, None] * phase[None, :]
    assert np.max(np.abs(v.imag)) < 1e-14
    np.testing.assert_allclose(v.real, _velocity(flow, POINTS.T), atol=1e-13)


@pytest.mark.parametrize("flow", ALL_FLOWS, ids=lambda f: f.kind)
def test_spatial_mean_is_zero(flow):
    # the cell average is the k = 0 coefficient, which no catalog flow carries
    assert (0, 0) not in velocity_modes(flow)


def test_kind_flags():
    assert steady_shear().is_shear and steady_shear().is_time_independent
    assert periodic_shear(1.0).is_shear and not periodic_shear(1.0).is_time_independent
    assert ou_shear(1.0, 0.1).is_shear and not ou_shear(1.0, 0.1).is_time_independent
    assert not taylor_green().is_shear and taylor_green().is_time_independent


def test_flow_labels():
    assert flow_label(steady_shear()) == "shear"
    assert flow_label(periodic_shear(0.5)) == "periodic_shear(omega=0.5)"
    assert flow_label(ou_shear(1.0, 0.1)) == "ou_shear(alpha=1, sigma=0.1)"
    assert flow_label(childress_soward(0.25)) == "childress_soward(lam=0.25)"


def test_spec_validation():
    with pytest.raises(ParameterError):
        FlowSpec("spiral")
    with pytest.raises(ParameterError):
        periodic_shear(0.0)
    with pytest.raises(ParameterError):
        periodic_shear(float("nan"))
    with pytest.raises(ParameterError):
        ou_shear(-1.0, 0.1)
    with pytest.raises(ParameterError):
        ou_shear(1.0, -0.1)
    with pytest.raises(ParameterError):
        childress_soward(1.5)
    # parameters of one kind are rejected on another
    with pytest.raises(ParameterError):
        FlowSpec("shear", omega=1.0)
    with pytest.raises(ParameterError):
        FlowSpec("taylor_green", lam=0.5)
    with pytest.raises(ParameterError):
        FlowSpec("periodic_shear", omega=1.0, alpha=1.0)


def test_flow_params_build_the_catalog_flows():
    # a config file's [flow] section builds FlowSpec(kind, **params) with these names
    builders = {"shear": steady_shear, "periodic_shear": periodic_shear,
                "ou_shear": ou_shear, "taylor_green": taylor_green,
                "childress_soward": childress_soward}
    values = {"omega": 2.0, "alpha": 1.5, "sigma": 0.3, "lam": 0.3}
    assert tuple(builders) == tuple(FLOW_PARAMS) == FLOW_KINDS
    for kind, params in FLOW_PARAMS.items():
        spec = FlowSpec(kind, **{p: values[p] for p in params})
        assert spec == builders[kind](*(values[p] for p in params))
        for other in set(values) - set(params):
            with pytest.raises(ParameterError, match=f"{other} is not a parameter of {kind}"):
                FlowSpec(kind, **{p: values[p] for p in params}, **{other: values[other]})
