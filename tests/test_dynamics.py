"""Tests for the trajectory integration.

One block loop runs every flow; the shear family advances through the
time-vectorised kernel and the cellular flows through the step loop, and
a scalar replay pins each kernel to the scheme step by step; the flat
cellular loop is also held bitwise to a two-array copy of itself, and the
OU modulation's banded solve bitwise to the scalar fold. The
deterministic checks exploit kappa -> 0: with a vanishing noise scale
the position freezes (or follows the drift ODE), so every
convention of the scheme (left endpoint velocity, modulation clock,
rescaling, eta handling) becomes exactly predictable. Statistical checks
use fixed seeds and z-score style bands of four to five standard errors.
"""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import kstest

from eddykit import (
    IntegrationBlowupError,
    ObservationSeries,
    ParameterError,
    SimConfig,
    Trajectory,
    childress_soward,
    delta_sweep,
    ou_shear,
    periodic_shear,
    qv_expectation_ou_shear,
    qv_expectation_shear,
    simulate_em,
    simulate_ensemble,
    stationary_eta_draw,
    steady_shear,
    stream_generator,
    taylor_green,
)
from eddykit import dynamics
from eddykit.cli import main
from eddykit.dynamics import SOURCE_BM, SOURCE_ETA0, SOURCE_OU

TINY = 1e-300  # kappa small enough that the Brownian part is negligible


def _qv_per_realization(block: np.ndarray, delta: float, component: int = 1) -> np.ndarray:
    inc = np.diff(block[:, :, component], axis=1)
    return np.mean(inc * inc, axis=1) / (2.0 * delta)


# ---------------------------------------------------------------------------
# determinism and stream layout
# ---------------------------------------------------------------------------


# ou_shear runs through the shear kernel, taylor_green through the step loop
KERNEL_AND_LOOP = [ou_shear(1.0, 0.1), taylor_green()]


@pytest.mark.parametrize("flow", KERNEL_AND_LOOP, ids=lambda f: f.kind)
def test_em_is_deterministic(flow):
    config = SimConfig(kappa=0.2, dt=1e-2, t_final=0.5, seed=42)
    a = simulate_em(flow, config)
    b = simulate_em(flow, config)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.positions, simulate_ensemble(flow, config, 2)[0])


def test_exact_sampler_is_deterministic():
    # the shear kernel repeats a whole block bitwise, also when rescaled
    for eps in (1.0, 0.5):
        config = SimConfig(kappa=0.2, dt=1e-3, t_final=0.5, epsilon=eps, seed=42,
                           burn_in=0.1, store_stride=3)
        a = simulate_ensemble(ou_shear(1.0, 0.1), config, 3)
        b = simulate_ensemble(ou_shear(1.0, 0.1), config, 3)
        np.testing.assert_array_equal(a, b)


# Two ways into the shear kernel: "em" builds the block path by path
# (simulate_em for realization 0, one-row blocks addressed by
# first_realization after it), "shear_exact" asks for the whole block at once.
ENTRIES = ["em", "shear_exact"]


def _shear_block(entry, flow, config, m):
    if entry == "shear_exact":
        return simulate_ensemble(flow, config, m)
    rows = [simulate_em(flow, config).positions]
    rows += [simulate_ensemble(flow, config, 1, first_realization=r)[0] for r in range(1, m)]
    return np.stack(rows)


@pytest.mark.parametrize("flow", KERNEL_AND_LOOP, ids=lambda f: f.kind)
def test_ensemble_blocks_compose_bitwise(flow):
    config = SimConfig(kappa=0.2, dt=1e-2, t_final=0.5, seed=7)
    whole = simulate_ensemble(flow, config, 6)
    head = simulate_ensemble(flow, config, 3)
    tail = simulate_ensemble(flow, config, 3, first_realization=3)
    np.testing.assert_array_equal(whole, np.concatenate([head, tail], axis=0))
    one = simulate_ensemble(flow, config, 1, first_realization=4)
    np.testing.assert_array_equal(whole[4], one[0])


@pytest.mark.parametrize("entry", ENTRIES)
def test_store_stride_slices_the_fine_path(entry):
    # fewer than one noise chunk so the summation order coincides
    flow = steady_shear()
    fine = _shear_block(entry, flow, SimConfig(kappa=0.3, dt=1e-3, t_final=2.0, seed=3), 2)
    coarse = _shear_block(entry, flow, SimConfig(kappa=0.3, dt=1e-3, t_final=2.0, seed=3,
                                                 store_stride=5), 2)
    np.testing.assert_array_equal(coarse, fine[:, ::5])


@pytest.mark.parametrize("flow", [steady_shear(), ou_shear(0.8, 0.2), taylor_green()],
                         ids=lambda f: f.kind)
def test_integral_float_stride_simulates_like_the_int(flow):
    config = SimConfig(kappa=0.1, dt=1e-3, t_final=0.01, seed=4, store_stride=2.0)
    assert type(config.store_stride) is int and type(config.seed) is int
    twin = SimConfig(kappa=0.1, dt=1e-3, t_final=0.01, seed=4, store_stride=2)
    np.testing.assert_array_equal(simulate_em(flow, config).positions,
                                  simulate_em(flow, twin).positions)


def test_burn_in_em_matches_shifted_run_bitwise():
    # the step loop carries its state across the burn boundary unchanged
    for flow in (taylor_green(), childress_soward(0.5)):
        burned = simulate_ensemble(
            flow, SimConfig(kappa=0.2, dt=1e-3, t_final=0.2, seed=5, store_stride=2,
                            burn_in=0.05), 2)
        full = simulate_ensemble(flow, SimConfig(kappa=0.2, dt=1e-3, t_final=0.25, seed=5), 2)
        np.testing.assert_array_equal(burned, full[:, 50::2])


def test_burn_in_exact_matches_shifted_run():
    # the shear kernel re-associates its cumulative sums (and the OU
    # recursion) at the burn boundary, so agreement is to rounding
    for flow in (steady_shear(), ou_shear(0.8, 0.2)):
        burned = simulate_ensemble(
            flow, SimConfig(kappa=0.2, dt=1e-3, t_final=0.2, seed=5, store_stride=2,
                            burn_in=0.05), 2)
        full = simulate_ensemble(flow, SimConfig(kappa=0.2, dt=1e-3, t_final=0.25, seed=5), 2)
        np.testing.assert_allclose(burned, full[:, 50::2], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("flow", [steady_shear(), ou_shear(0.8, 0.2), taylor_green()],
                         ids=lambda f: f.kind)
def test_long_stride_matches_sliced_fine_path(flow):
    # a stride above the draw chunk is integrated in chunk-sized pieces
    # carried across the stored interval; the stored rows are the fine path's
    fine = simulate_ensemble(flow, SimConfig(kappa=0.3, dt=1e-3, t_final=15.0, seed=13), 2)
    coarse = simulate_ensemble(
        flow, SimConfig(kappa=0.3, dt=1e-3, t_final=15.0, seed=13, store_stride=5000), 2)
    expected = fine[:, ::5000]
    assert coarse.shape == expected.shape == (2, 4, 2)
    if flow.is_shear:
        err = np.abs(coarse - expected)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(expected))), err.max()
    else:
        np.testing.assert_array_equal(coarse, expected)


def _ou_step(eta, alpha, sigma, dt, gaussian):
    """Exact one-step transition of d eta = -alpha eta dt + sqrt(2 sigma) d beta.

    exp(-alpha dt) eta + sqrt((sigma/alpha)(1 - exp(-2 alpha dt))) g for a
    standard normal g; the replays below fold the modulation with it.
    """
    decay = math.exp(-alpha * dt)
    scale = math.sqrt(sigma / alpha * -math.expm1(-2.0 * alpha * dt))
    return decay * eta + scale * gaussian


def _replay_shear(flow, config):
    """Scalar left endpoint replay of realization 0, one step at a time.

    Draws the same streams as the kernel: 2-D Brownian increments, then
    for the OU shear the stationary eta0 draw and the modulation driver.
    """
    eps = config.epsilon
    dt, n_burn = config.dt, config.burn_steps
    total = n_burn + config.store_stride * (config.n_stored - 1)
    noise = math.sqrt(2.0 * config.kappa * dt)
    g = stream_generator(config.seed, 0, SOURCE_BM).standard_normal((total, 2))
    eta = 1.0
    if flow.kind == "ou_shear":
        eta = stationary_eta_draw(flow.alpha, flow.sigma,
                                  stream_generator(config.seed, 0, SOURCE_ETA0))
        g_ou = stream_generator(config.seed, 0, SOURCE_OU).standard_normal(total)
    x, y = config.x0
    path = [(x, y)] if n_burn == 0 else []
    for k in range(total):
        t = k * dt / eps ** 2  # fast clock of the rescaled modulation
        if flow.kind == "periodic_shear":
            eta = math.sin(flow.omega * t)
        y += eta * math.sin(x / eps) * dt / eps + noise * g[k, 1]
        x += noise * g[k, 0]
        if flow.kind == "ou_shear":
            eta = _ou_step(eta, flow.alpha, flow.sigma, dt / eps ** 2, g_ou[k])
        done = k + 1
        if done >= n_burn and (done - n_burn) % config.store_stride == 0:
            path.append((x, y))
    return np.array(path)


@pytest.mark.parametrize("eps", [1.0, 0.5])
@pytest.mark.parametrize("flow", [steady_shear(), periodic_shear(1.7), ou_shear(0.8, 0.3)],
                         ids=lambda f: f.kind)
def test_shear_kernel_matches_scalar_replay(flow, eps):
    # 5000 steps cross a draw chunk in both the burn and the stored phase
    config = SimConfig(kappa=0.3, dt=1e-3, t_final=4.5, epsilon=eps, seed=31,
                       store_stride=3, burn_in=0.5)
    kernel = simulate_ensemble(flow, config, 2)[0]
    replay = _replay_shear(flow, config)
    assert replay.shape == kernel.shape
    err = np.abs(kernel - replay)
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(replay))), err.max()


def _replay_cellular(flow, config):
    """Scalar Euler-Maruyama replay of realization 0, one step at a time.

    The velocity comes from the stream function
    psi = sin x sin y + lam cos x cos y (lam = 0 for Taylor-Green) as
    (-d psi/dy, d psi/dx), evaluated at the start of each step.
    """
    eps = config.epsilon
    dt, n_burn = config.dt, config.burn_steps
    total = n_burn + config.store_stride * (config.n_stored - 1)
    noise = math.sqrt(2.0 * config.kappa * dt)
    g = stream_generator(config.seed, 0, SOURCE_BM).standard_normal((total, 2))
    lam = flow.lam if flow.kind == "childress_soward" else 0.0
    x, y = config.x0
    path = [(x, y)] if n_burn == 0 else []
    for k in range(total):
        sx, cx = math.sin(x / eps), math.cos(x / eps)
        sy, cy = math.sin(y / eps), math.cos(y / eps)
        u = -sx * cy + lam * cx * sy
        v = cx * sy - lam * sx * cy
        x, y = x + u * dt / eps + noise * g[k, 0], y + v * dt / eps + noise * g[k, 1]
        done = k + 1
        if done >= n_burn and (done - n_burn) % config.store_stride == 0:
            path.append((x, y))
    return np.array(path)


@pytest.mark.parametrize("eps", [1.0, 0.5])
@pytest.mark.parametrize("flow", [taylor_green(), childress_soward(0.5)], ids=lambda f: f.kind)
def test_cellular_loop_matches_scalar_replay(flow, eps):
    # 5000 steps cross a draw chunk in both the burn and the stored phase
    config = SimConfig(kappa=0.3, dt=1e-3, t_final=4.5, epsilon=eps, seed=31,
                       store_stride=3, burn_in=0.5)
    loop = simulate_ensemble(flow, config, 2)[0]
    replay = _replay_cellular(flow, config)
    assert replay.shape == loop.shape
    err = np.abs(loop - replay)
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(replay))), err.max()


def _two_array_loop(flow, config, first, count):
    """The cellular step loop on one array per coordinate, as the reference.

    It advances realizations first, ..., first+count-1 with the velocity
    written as (-sx cy + lam cx sy, cx sy - lam sx cy) and the same
    operation order as the flat loop: (v h + z) + scaled draw.
    """
    inv_eps = 1.0 / config.epsilon
    drift_dt = config.dt * inv_eps
    noise = math.sqrt(2.0 * config.kappa * config.dt)
    stride, n_burn = config.store_stride, config.burn_steps
    total = n_burn + stride * (config.n_stored - 1)
    g = np.array([stream_generator(config.seed, first + i, SOURCE_BM).standard_normal((total, 2))
                  for i in range(count)]) * noise

    def velocity(x, y):
        if flow.kind == "taylor_green":
            return -np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)
        sx, cx = np.sin(x), np.cos(x)
        sy, cy = np.sin(y), np.cos(y)
        return -sx * cy + flow.lam * cx * sy, cx * sy - flow.lam * sx * cy

    x, y = np.full(count, float(config.x0[0])), np.full(count, float(config.x0[1]))
    out = np.empty((count, config.n_stored, 2))
    for k in range(-1, total):
        if k >= 0:
            v1, v2 = velocity(x * inv_eps, y * inv_eps)
            x = v1 * drift_dt + x + g[:, k, 0]
            y = v2 * drift_dt + y + g[:, k, 1]
        done = k + 1 - n_burn
        if done >= 0 and done % stride == 0:
            out[:, done // stride, 0] = x
            out[:, done // stride, 1] = y
    return out


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.2])
@pytest.mark.parametrize("flow", [taylor_green(), childress_soward(0.0), childress_soward(0.5),
                                  childress_soward(1.0), childress_soward(0.3)],
                         ids=["taylor_green", "cs0", "cs0.5", "cs1", "cs0.3"])
def test_cellular_loop_is_bitwise_the_two_array_loop(flow, eps):
    # products with lam = 0, 0.5 or 1 are exact, so only lam = 0.3 pins
    # the association (lam cx) sy of the lam terms; a burn-in of 4100
    # steps crosses a 4096-step draw chunk, and so does the stride 5000.
    # Blocks of 1, 2 and 5 rows, starting at realization 0 or 2, check the
    # mirrored y half of the flat state: 2 and 5 rows pair each row with
    # another, which a wrong mirror would swap, while 1 row is its own mirror
    dt = eps ** 2 / 50.0
    for stride, n_stored, burn in ((1, 41, 0), (1, 41, 4100), (3, 21, 4100), (100, 4, 0),
                                   (5000, 2, 0)):
        config = SimConfig(kappa=0.3, dt=dt, t_final=stride * (n_stored - 1) * dt,
                           epsilon=eps, x0=(0.4, -1.3), seed=17, store_stride=stride,
                           burn_in=burn * dt)
        assert config.n_stored == n_stored and config.burn_steps == burn
        reference = _two_array_loop(flow, config, 0, 7)  # rows advance independently
        for rows in (1, 2, 5):
            for first in (0, 2):
                flat = simulate_ensemble(flow, config, rows, first_realization=first)
                np.testing.assert_array_equal(flat, reference[first:first + rows])


@pytest.mark.parametrize("flow, per_step", [(taylor_green(), 6), (childress_soward(0.3), 10)],
                         ids=["taylor_green", "cs0.3"])
@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_cellular_step_calls_take_1d_operands(flow, per_step, eps, monkeypatch):
    # every numpy call of a step gets 1-D operands and out, which is what
    # makes the flat state cheap; only the draw copy, two multiplies per
    # piece of at most _PIECE steps, reads the (rows, steps, 2) draws
    calls = []
    for name in ("sin", "cos", "multiply", "add", "subtract"):
        def spy(*args, _name=name, _real=getattr(np, name), **kwargs):
            arrays = [a for a in (*args, kwargs.get("out")) if isinstance(a, np.ndarray)]
            calls.append((_name, max([a.ndim for a in arrays], default=0)))
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    dt = eps ** 2 / 50.0
    steps = 300
    config = SimConfig(kappa=0.3, dt=dt, t_final=steps * dt, epsilon=eps, seed=5)
    assert config.n_steps == steps
    simulate_ensemble(flow, config, 3)
    monkeypatch.undo()
    pieces = -(-steps // dynamics._PIECE)
    wide = [call for call in calls if call[1] >= 2]
    assert wide == [("multiply", 2)] * (2 * pieces)
    assert len(calls) - len(wide) == steps * (per_step + (eps != 1.0))


# ---------------------------------------------------------------------------
# deterministic drift limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry", ENTRIES)
def test_steady_shear_drift_is_exact(entry):
    x0 = (0.7, -0.3)
    config = SimConfig(kappa=TINY, dt=1e-3, t_final=0.5, x0=x0, seed=1)
    traj = _shear_block(entry, steady_shear(), config, 1)[0]
    assert traj[-1, 0] == pytest.approx(x0[0], abs=1e-12)
    assert traj[-1, 1] == pytest.approx(x0[1] + 0.5 * math.sin(x0[0]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("entry", ENTRIES)
def test_periodic_shear_modulation_clock(entry):
    # left endpoint quadrature of sin(omega k dt) sin(x0), predictable term
    # by term once the noise is switched off
    omega, dt, n = 2.0, 1e-3, 400
    x0 = (1.1, 0.0)
    config = SimConfig(kappa=TINY, dt=dt, t_final=n * dt, x0=x0, seed=1)
    traj = _shear_block(entry, periodic_shear(omega), config, 1)[0]
    expected = x0[1] + math.sin(x0[0]) * dt * np.sum(np.sin(omega * np.arange(n) * dt))
    assert traj[-1, 1] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_rescaled_drift_and_clock():
    # epsilon enters as (1/eps) v(x/eps, t/eps^2); all three appearances are
    # pinned by the deterministic limit
    eps, dt, n, omega = 0.5, 1e-3, 300, 1.7
    x0 = (0.9, 0.2)
    config = SimConfig(kappa=TINY, dt=dt, t_final=n * dt, epsilon=eps, x0=x0, seed=1)
    steady = simulate_ensemble(steady_shear(), config, 1)[0]
    assert steady[-1, 1] == pytest.approx(
        x0[1] + (n * dt / eps) * math.sin(x0[0] / eps), rel=1e-12, abs=0.0)
    modulated = simulate_ensemble(periodic_shear(omega), config, 1)[0]
    phases = np.sin(omega * np.arange(n) * dt / eps ** 2)
    expected = x0[1] + (dt / eps) * math.sin(x0[0] / eps) * np.sum(phases)
    assert modulated[-1, 1] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("entry", ENTRIES)
def test_ou_modulation_recursion_matches_scalar_replay(entry):
    # replay the modulation driver stream and fold it with _ou_step; the
    # kernel must consume the identical sequence
    alpha, sigma, dt, n, eta0 = 1.3, 0.4, 1e-3, 200, 0.6
    x0 = (0.8, 0.0)
    flow = ou_shear(alpha, sigma)
    config = SimConfig(kappa=TINY, dt=dt, t_final=n * dt, x0=x0, eta0=eta0, seed=9)
    traj = _shear_block(entry, flow, config, 1)[0]
    g = stream_generator(9, 0, SOURCE_OU).standard_normal(n)
    eta, drift = eta0, 0.0
    for k in range(n):
        drift += eta * math.sin(x0[0]) * dt
        eta = _ou_step(eta, alpha, sigma, dt, g[k])
    assert traj[-1, 1] == pytest.approx(x0[1] + drift, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("alpha, sigma, dt, eps", [
    (1.3, 0.4, 1e-3, 1.0),
    (2.0, 0.0, 1e-2, 1.0),   # sigma = 0: the pure relaxation
    (40.0, 2.0, 1.0, 1.0),   # large alpha dt: decay e^-40
    (0.8, 0.3, 1e-3, 0.5),
], ids=["base", "sigma0", "large-alpha-dt", "eps0.5"])
@pytest.mark.parametrize("rows", [1, 5])
def test_ou_recursion_is_the_scalar_fold_bitwise(alpha, sigma, dt, eps, rows):
    # zero Brownian draws and x0 = eps pi/2 make sin(x/eps) = 1 with x fixed,
    # so each y increment is the left endpoint eta times dt/eps; chunks of
    # 7, 1, 7 and 3 steps on a 7-column buffer carry eta across calls
    flow = ou_shear(alpha, sigma)
    config = SimConfig(kappa=0.5, dt=dt, t_final=18 * dt, epsilon=eps, seed=5)
    chunks, width = [7, 1, 7, 3], 7
    eta0 = np.linspace(-0.9, 0.6, rows)
    gens = [stream_generator(5, r, SOURCE_OU) for r in range(rows)]
    g = np.zeros((rows, width, 2))
    x_path, y_path, advance = dynamics._shear_kernel(flow, config, g, (eta0, gens), width)
    x_path[:, 0] = eps * math.pi / 2.0
    y_path[:, 0] = 0.0
    xi = np.stack([stream_generator(5, r, SOURCE_OU).standard_normal(sum(chunks))
                   for r in range(rows)])
    eta = eta0.copy()
    y = np.zeros(rows)
    step = 0
    for c in chunks:
        left = np.empty((rows, c))  # the eta each step starts from
        for k in range(c):
            left[:, k] = eta
            eta = _ou_step(eta, alpha, sigma, dt / eps ** 2, xi[:, step + k])
        advance(c, step)
        assert np.all(x_path[:, 1:c + 1] == x_path[:, :1])
        expected = np.cumsum(left * (dt / eps), axis=1) + y[:, None]
        assert np.array_equal(y_path[:, 1:c + 1], expected)
        x_path[:, 0] = x_path[:, c]
        y_path[:, 0] = y_path[:, c]
        y = expected[:, -1]
        step += c


def test_fixed_eta0_with_zero_sigma_decays_deterministically():
    # sigma = 0 leaves the pure relaxation d eta = -alpha eta dt, so the
    # left endpoint sum is a geometric series in exp(-alpha dt)
    alpha, dt, n, eta0 = 1.0, 1e-3, 300, 5.0
    config = SimConfig(kappa=TINY, dt=dt, t_final=n * dt, x0=(0.5, 0.0), eta0=eta0, seed=2)
    traj = simulate_em(ou_shear(alpha, 0.0), config)
    decay = math.exp(-alpha * dt)
    drift = eta0 * math.sin(0.5) * dt * (1.0 - decay ** n) / (1.0 - decay)
    assert traj.positions[-1, 1] == pytest.approx(drift, rel=1e-12, abs=0.0)


def test_em_tracks_taylor_green_ode():
    # explicit Euler against an independent high order integration
    x0 = (1.0, 0.5)
    dt, t_final = 1e-3, 1.0
    traj = simulate_em(taylor_green(), SimConfig(kappa=TINY, dt=dt, t_final=t_final, x0=x0))

    def velocity(t, z):
        x, y = z
        return [-math.sin(x) * math.cos(y), math.cos(x) * math.sin(y)]

    sol = solve_ivp(velocity, (0.0, t_final), x0, rtol=1e-10, atol=1e-12)
    err = np.abs(traj.positions[-1] - sol.y[:, -1]).max()
    assert err < 2e-3  # first order in dt


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry", ENTRIES)
def test_x_channel_is_brownian(entry):
    # the first shear coordinate is exactly sqrt(2 kappa) W(t)
    kappa, t_final, m = 0.3, 1.0, 3000
    config = SimConfig(kappa=kappa, dt=1e-2, t_final=t_final, seed=13, store_stride=100)
    block = _shear_block(entry, steady_shear(), config, m)
    x_end = block[:, -1, 0]
    var = 2.0 * kappa * t_final
    assert abs(x_end.mean()) < 4.0 * math.sqrt(var / m)
    assert abs(x_end.var(ddof=1) - var) < 5.0 * var * math.sqrt(2.0 / (m - 1))


def test_ou_step_preserves_stationary_law():
    # validates the reference transition that the scalar replays fold with
    alpha, sigma, dt = 1.5, 0.7, 0.3
    rng = np.random.default_rng(101)
    n = 200000
    eta = math.sqrt(sigma / alpha) * rng.standard_normal(n)
    eta_next = _ou_step(eta, alpha, sigma, dt, rng.standard_normal(n))
    var = sigma / alpha
    assert abs(eta_next.var(ddof=1) - var) < 5.0 * var * math.sqrt(2.0 / n)
    # exact transition: corr(eta(0), eta(dt)) = exp(-alpha dt)
    corr = np.mean(eta * eta_next) / var
    assert corr == pytest.approx(math.exp(-alpha * dt), abs=5.0 / math.sqrt(n))


def test_stationary_eta_draw_law():
    alpha, sigma = 2.0, 0.5
    draws = np.array([stationary_eta_draw(alpha, sigma, np.random.default_rng(i))
                      for i in range(20000)])
    var = sigma / alpha
    assert abs(draws.mean()) < 4.0 * math.sqrt(var / draws.size)
    assert abs(draws.var(ddof=1) - var) < 5.0 * var * math.sqrt(2.0 / draws.size)
    assert isinstance(stationary_eta_draw(alpha, sigma, 3), float)


def test_steady_shear_qv_matches_oracle():
    kappa, delta, m = 0.5, 1.0, 80
    config = SimConfig(kappa=kappa, dt=2e-3, t_final=200.0, seed=21, store_stride=500)
    sample = _qv_per_realization(simulate_ensemble(steady_shear(), config, m), delta)
    expected = qv_expectation_shear(kappa, 200, delta)
    assert abs(sample.mean() - expected) < 4.0 * sample.std(ddof=1) / math.sqrt(m)


def test_ou_shear_qv_matches_oracle():
    kappa, delta, m = 0.1, 1.0, 80
    flow = ou_shear(1.0, 0.1)
    config = SimConfig(kappa=kappa, dt=2e-3, t_final=200.0, seed=22, store_stride=500,
                       burn_in=20.0)
    sample = _qv_per_realization(simulate_ensemble(flow, config, m), delta)
    expected = qv_expectation_ou_shear(kappa, 1.0, 0.1, delta)
    assert abs(sample.mean() - expected) < 4.0 * sample.std(ddof=1) / math.sqrt(m)


# ---------------------------------------------------------------------------
# row shares on threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [1.0, 0.5])
@pytest.mark.parametrize("flow", [steady_shear(), periodic_shear(1.7), ou_shear(0.8, 0.3)],
                         ids=lambda f: f.kind)
def test_row_shares_are_bitwise_identical(monkeypatch, flow, eps):
    config = SimConfig(kappa=0.3, dt=1e-3, t_final=5.0, epsilon=eps, seed=17,
                       store_stride=3, burn_in=0.2)
    blocks = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(dynamics, "_cpu_count", lambda cpus=cpus: cpus)
        blocks.append(simulate_ensemble(flow, config, 5, first_realization=2))
    for block in blocks[1:]:
        np.testing.assert_array_equal(block, blocks[0])


def _record_shares(monkeypatch, cpus):
    """Patch the CPU count; record the pool sizes and the rows of every share."""
    pools, shares = [], []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    block = dynamics._block

    def recording_block(flow, config, first, gens, ou, out):
        shares.append((first, len(gens)))
        block(flow, config, first, gens, ou, out)

    monkeypatch.setattr(dynamics, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(dynamics, "_block", recording_block)
    return pools, shares


@pytest.mark.parametrize("cpus, rows", [(1, 5), (2, 5), (4, 3), (4, 1), (3, 7)])
def test_share_count_is_bounded_by_cpus_and_rows(monkeypatch, cpus, rows):
    pools, shares = _record_shares(monkeypatch, cpus)
    config = SimConfig(kappa=0.3, dt=1e-3, t_final=0.05, seed=2)
    simulate_ensemble(ou_shear(1.0, 0.1), config, rows, first_realization=4)
    n_shares = min(cpus, rows)
    assert len(shares) == n_shares
    assert pools == ([] if n_shares == 1 else [n_shares])
    # contiguous, nonempty shares that cover the block once
    shares.sort()
    assert shares[0][0] == 4 and all(n >= 1 for _, n in shares)
    assert [f + n for f, n in shares] == [f for f, _ in shares[1:]] + [4 + rows]


def test_cellular_block_starts_no_pool(monkeypatch):
    # the step loop holds the interpreter lock: one share covers every row,
    # and a sweep reduces them in the calling thread too
    pools, shares = _record_shares(monkeypatch, 2)
    config = SimConfig(kappa=0.3, dt=1e-2, t_final=0.1)
    simulate_ensemble(taylor_green(), config, 4)
    assert pools == [] and shares == [(0, 4)]
    delta_sweep(taylor_green(), config, "qv", [0.02, 0.05], theta=0.1, n_realizations=5)
    assert pools == [] and shares == [(0, 4), (0, 5)]


def test_row_shares_under_short_switch_interval(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows;
    # a share writing outside its own rows would change the block
    config = SimConfig(kappa=0.3, dt=1e-3, t_final=1.0, seed=23, store_stride=7)
    flow = ou_shear(1.0, 0.2)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 1)
    reference = simulate_ensemble(flow, config, 8)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            np.testing.assert_array_equal(simulate_ensemble(flow, config, 8), reference)
        # rounds of four one-row shares, each reduced on its own thread
        monkeypatch.setattr(dynamics, "_GROUP_BYTES", dynamics._row_bytes(flow, config))
        copies = simulate_ensemble(flow, config, 8,
                                   reduce=lambda rows: lambda i, path: path.copy())
        np.testing.assert_array_equal(copies, reference)
    finally:
        sys.setswitchinterval(interval)


def test_blowup_with_threads_reports_the_first_realization(monkeypatch):
    # both shares blow up in the first chunk (the noise scale overflows);
    # the tie goes to the lowest share
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    config = SimConfig(kappa=1e308, dt=1.0, t_final=10.0)
    with pytest.raises(IntegrationBlowupError,
                       match="realization 7 between steps 0 and 10") as info:
        simulate_ensemble(steady_shear(), config, 2, first_realization=7)
    assert info.value.step == 10

    # one thread would have stopped at the earliest step, ties going to the
    # lowest realization, whichever share finished first
    def failing_block(flow, config, first, gens, ou, out):
        step = {7: 5, 8: 3, 9: 3}[first]
        raise IntegrationBlowupError(step, f"realization {first} at step {step}")

    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 3)
    monkeypatch.setattr(dynamics, "_block", failing_block)
    with pytest.raises(IntegrationBlowupError, match="realization 8 at step 3"):
        simulate_ensemble(steady_shear(), config, 3, first_realization=7)


def test_share_lets_other_errors_propagate(monkeypatch):
    # only blow-ups and reduction errors are ranked; a failed LAPACK call in
    # one share propagates as it was raised
    def failing_block(flow, config, first, gens, ou, out):
        if first == 8:
            raise RuntimeError("banded OU solve failed: dtbtrs info=-1")

    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dynamics, "_block", failing_block)
    with pytest.raises(RuntimeError, match="^banded OU solve failed"):
        simulate_ensemble(steady_shear(), SimConfig(kappa=0.3, dt=0.1, t_final=1.0), 2,
                          first_realization=7)


# ---------------------------------------------------------------------------
# bookkeeping and validation
# ---------------------------------------------------------------------------


def test_storage_arithmetic():
    config = SimConfig(kappa=1.0, dt=0.1, t_final=1.0)
    assert (config.n_steps, config.n_stored, config.dt_stored) == (10, 11, 0.1)
    for stride, expected in [(2, 6), (3, 4), (7, 2), (10, 2)]:
        strided = SimConfig(kappa=1.0, dt=0.1, t_final=1.0, store_stride=stride)
        assert strided.n_stored == expected
        assert strided.dt_stored == stride * 0.1
    # 0.3 / 0.1 rounds below 3 in floating point; the floor must not bite
    assert SimConfig(kappa=1.0, dt=0.1, t_final=0.3).n_steps == 3
    assert SimConfig(kappa=1.0, dt=0.1, t_final=1.0, burn_in=0.3).burn_steps == 3


def test_simulated_shapes_and_times():
    config = SimConfig(kappa=0.5, dt=0.01, t_final=0.1, store_stride=2)
    traj = simulate_em(steady_shear(), config)
    assert traj.positions.shape == (6, 2)
    assert traj.n_points == 6
    np.testing.assert_allclose(traj.times, 0.02 * np.arange(6), rtol=1e-15)
    block = simulate_ensemble(steady_shear(), config, 3)
    assert block.shape == (3, 6, 2)


def test_blowup_reports_realization_and_step():
    config = SimConfig(kappa=1e308, dt=1.0, t_final=10.0)
    with pytest.raises(IntegrationBlowupError,
                       match="realization 0 between steps 0 and 10") as info:
        simulate_em(steady_shear(), config)
    assert info.value.step == 10
    with pytest.raises(IntegrationBlowupError, match="realization 7 "):
        simulate_ensemble(steady_shear(), config, 2, first_realization=7)
    with pytest.raises(IntegrationBlowupError, match="realization 0 between steps 0 and 10"):
        simulate_em(taylor_green(), config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flow", [steady_shear(), taylor_green()], ids=lambda f: f.kind)
def test_blowup_names_its_step_interval(tmp_path, capsys, monkeypatch, flow):
    # the noise scale sqrt(2 kappa dt) overflows to inf, so the state goes
    # non-finite in the first step; the check after the chunk names it, and
    # no numpy warning escapes a share, on the calling thread or another
    config = SimConfig(kappa=1e308, dt=1.0, t_final=10.0)
    with pytest.raises(IntegrationBlowupError,
                       match="realization 0 between steps 0 and 10") as info:
        simulate_ensemble(flow, config, 1)
    assert info.value.step == 10
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    with pytest.raises(IntegrationBlowupError, match="realization 0 between steps 0 and 10"):
        simulate_ensemble(flow, config, 2)
    ini = tmp_path / "overflow.ini"
    kind = "shear" if flow.is_shear else flow.kind
    ini.write_text(f"[flow]\nkind = {kind}\n\n[simulation]\n"
                   "kappa = 1e308\ndt = 1.0\nt_final = 10.0\n")
    assert main(["simulate", "--config", str(ini), "--output", str(tmp_path / "x.npz")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "between steps 0 and 10" in err[0]


def test_simulate_ensemble_validation():
    config = SimConfig(kappa=0.5, dt=0.01, t_final=0.1)
    with pytest.raises(ParameterError):
        simulate_ensemble(steady_shear(), config, 0)


def test_sim_config_validation():
    good = dict(kappa=0.5, dt=0.01, t_final=1.0)
    SimConfig(**good)  # sanity
    for bad in [
        dict(good, kappa=0.0),
        dict(good, kappa=float("nan")),
        dict(good, dt=-0.01),
        dict(good, t_final=0.001),          # below dt
        dict(good, epsilon=0.0),
        dict(good, epsilon=0.1),            # dt above epsilon^2 / 50
        dict(good, store_stride=0),
        dict(good, store_stride=2.5),
        dict(good, burn_in=-1.0),
        dict(good, eta0="warm"),
        dict(good, eta0=float("inf")),
        dict(good, x0=(1.0, 2.0, 3.0)),
    ]:
        with pytest.raises(ParameterError):
            SimConfig(**bad)
    # the step constraint applies only to rescaled runs
    SimConfig(kappa=0.5, dt=0.1, t_final=1.0, epsilon=1.0)
    SimConfig(kappa=0.5, dt=0.1 ** 2 / 50, t_final=1.0, epsilon=0.1)


@pytest.mark.parametrize("x0", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
def test_non_finite_x0_is_bad_input(tmp_path, capsys, x0):
    with pytest.raises(ParameterError, match="x0 must be finite"):
        SimConfig(kappa=0.5, x0=x0)
    ini = tmp_path / "x0.ini"
    ini.write_text(f"[flow]\nkind = shear\n\n[simulation]\nkappa = 0.5\nx0 = {x0[0]}, {x0[1]}\n")
    assert main(["simulate", "--config", str(ini), "--output", str(tmp_path / "x.npz")]) == 2
    assert "x0 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("call", [
    lambda: SimConfig(kappa=0.5, seed=-1),
    lambda: SimConfig(kappa=0.5, seed=1.5),
    lambda: stream_generator(-1, 0, 0),
    lambda: dynamics.noise_generator(0, -2),
    lambda: simulate_ensemble(steady_shear(), SimConfig(kappa=0.5, dt=0.01, t_final=0.1), 2,
                              first_realization=-1),
], ids=["config", "fractional-config", "stream", "noise", "first-realization"])
def test_negative_seed_is_refused(call):
    with pytest.raises(ParameterError, match="nonnegative"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: dynamics.noise_generator(1.5, 0), "seed"),
    (lambda: stream_generator(0, 2.5, SOURCE_BM), "realization"),
    (lambda: stream_generator(0, 0, 0.5), "source"),
    (lambda: dynamics.noise_generator(0, 0, index=1.5), "index"),
    (lambda: dynamics.noise_generator(0, math.nan), "realization"),
    (lambda: simulate_ensemble(steady_shear(), SimConfig(kappa=0.5, dt=0.01, t_final=0.05), 2,
                               first_realization=0.5), "first_realization"),
], ids=["seed", "realization", "source", "index", "nan", "first-realization"])
def test_fractional_stream_key_is_refused(call, name):
    # a fractional key used to be truncated to the stream of its integer part
    with pytest.raises(ParameterError, match=f"^{name} must be a nonnegative integer"):
        call()


def test_integral_stream_keys_give_the_same_streams():
    draws = dynamics.noise_generator(7, 3, 2).standard_normal(64)
    for key in ((7.0, 3.0, 2.0), (np.int64(7), np.int32(3), np.uint8(2))):
        np.testing.assert_array_equal(dynamics.noise_generator(*key).standard_normal(64), draws)
    np.testing.assert_array_equal(stream_generator(7.0, 3.0, float(SOURCE_BM)).standard_normal(8),
                                  stream_generator(7, 3, SOURCE_BM).standard_normal(8))
    config = SimConfig(kappa=0.5, dt=0.01, t_final=0.05, seed=4)
    rows = simulate_ensemble(steady_shear(), config, 2, first_realization=3)
    np.testing.assert_array_equal(
        simulate_ensemble(steady_shear(), config, 2, first_realization=3.0), rows)
    np.testing.assert_array_equal(
        simulate_ensemble(steady_shear(), config, 2, first_realization=np.int64(3)), rows)


def test_keyed_streams_are_normal_and_uncorrelated():
    # margins declared before the seed was frozen: a KS p-value above 1e-3, and
    # |corr| <= 4/sqrt(n), four standard errors of a correlation of independent draws
    seed, n = 11, 2048

    def first_draws(make):
        return np.array([make(r).standard_normal() for r in range(n + 1)])

    bm = first_draws(lambda r: stream_generator(seed, r, SOURCE_BM))
    assert kstest(bm[:n], "norm").pvalue > 1e-3
    sources = [bm] + [first_draws(lambda r, s=s: stream_generator(seed, r, s))
                      for s in (SOURCE_OU, SOURCE_ETA0)]
    noise = [first_draws(lambda r, j=j: dynamics.noise_generator(seed, r, j)) for j in range(3)]
    pairs = [(bm[:n], bm[1:])]  # adjacent realizations
    pairs += itertools.combinations(sources + noise[:1], 2)  # sources of one realization
    pairs += [(noise[j], noise[j + 1]) for j in range(2)]  # neighbouring noise indices
    for a, b in pairs:
        assert abs(np.corrcoef(a[:n], b[:n])[0, 1]) <= 4.0 / math.sqrt(n)


def test_trajectory_validation():
    with pytest.raises(ParameterError):
        Trajectory(np.zeros((4, 3)), 0.1)
    with pytest.raises(ParameterError):
        Trajectory(np.zeros((4, 2)), 0.0)
    config = SimConfig(kappa=0.5, dt=0.01, t_final=0.1)
    with pytest.raises(ParameterError):
        Trajectory(np.zeros((5, 2)), 0.01, steady_shear(), config)  # expects 11 rows


@pytest.mark.parametrize("build, bad", [
    pytest.param(build, bad, id=f"{prefix}{bad}")
    for prefix, build in (("", Trajectory), ("series-", ObservationSeries))
    for bad in (math.nan, math.inf, -math.inf)])
def test_non_finite_positions_are_refused(build, bad):
    positions = np.zeros((6, 2))
    positions[3, 1] = bad
    positions[5, 0] = bad
    with pytest.raises(ParameterError, match=r"^positions must be finite, row 3 is "):
        build(positions, 0.1)
