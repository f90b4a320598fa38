"""Time integration of the Lagrangian tracer dynamics.

The unrescaled dynamics is

    dx = v(x, t) dt + sqrt(2 kappa) dW,

and for a scale separation parameter eps < 1 the rescaled process obeys

    dx = (1/eps) v(x/eps, t/eps^2) dt + sqrt(2 kappa) dW,

which is the equation satisfied by eps * x(t / eps^2). eps = 1 reduces to
the unrescaled form bitwise (all rescaling factors become exact identities
in floating point).

Every flow is integrated by the Euler-Maruyama scheme: each step adds the
start-of-step drift times dt and an exact Brownian increment, and the
Ornstein-Uhlenbeck modulation advances by its exact one step transition
after the position step consumed the start-of-step value. For the shear
family the drift does not act on x, so x is sampled exactly on the dt
grid as a Brownian path and y is the left endpoint quadrature of
(1/eps) eta(t/eps^2) sin(x/eps) along it plus its own Brownian part; that
triangular structure lets the scheme run vectorised over time.

One block loop runs every flow: it draws the noise, runs the burn-in, stores
every stride-th state and, after each chunk of at most 4096 steps,
checks that the state is finite, naming the steps in which it went bad.
Its advance kernel is time-vectorised for the shear family and a step
loop for the cellular flows (Taylor-Green, Childress-Soward). A shear
block runs on one thread per CPU in the process's affinity mask, each on
a contiguous share of the realizations (``_run_shares``, which the
harness's estimator reduction uses too), bitwise identical to one thread:
the kernel's draws, cumulative sums and filters work row by row and
release the interpreter lock on long rows. A cellular block runs as one
share: each step advances one stacked (2, rows) state [x, y] with one
sin and one cos call shared by both coordinates, and its few small numpy
calls per step hold the lock, so threads would only slow it down.

Randomness is organized so ensembles are reproducible independently of
batching: realization r of a run with master seed s draws from generators
keyed by (s, r, source), one source tag per noise channel. Simulating
realization r alone or inside any block yields bitwise identical output.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import IntegrationBlowupError, ParameterError
from .fields import (
    OU_SHEAR,
    PERIODIC_SHEAR,
    TAYLOR_GREEN,
    FlowSpec,
    _childress_soward_drift,
    _taylor_green_drift,
)

# substream tags; (master seed, realization index, tag) identifies a stream
SOURCE_BM = 0      # 2-D Brownian driver of the position equation
SOURCE_OU = 1      # Brownian driver of the OU modulation
SOURCE_ETA0 = 2    # stationary initial draw for eta
SOURCE_NOISE = 3   # observation noise, consumed by the harness

_CHUNK = 4096
_PIECE = 256  # steps of scaled draws the cellular loop copies at a time


def _keyed_generator(*key: int) -> np.random.Generator:
    key = tuple(int(k) for k in key)
    if min(key) < 0:
        raise ParameterError(f"seed and stream keys must be nonnegative, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def stream_generator(seed: int, realization: int, source: int) -> np.random.Generator:
    """Independent generator for one (seed, realization, source) triple."""
    return _keyed_generator(seed, realization, source)


def noise_generator(seed: int, realization: int, index: int = 0) -> np.random.Generator:
    """Observation-noise stream, independent of all dynamics streams.

    ``index`` separates repeated noise applications to the same realization
    (one per subsampling interval in a sweep, for instance).
    """
    return _keyed_generator(seed, realization, SOURCE_NOISE, index)


# ---------------------------------------------------------------------------
# configuration and trajectory containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one trajectory integration.

    Attributes
    ----------
    kappa : float
        Molecular diffusivity, positive.
    dt : float
        Integration step. For rescaled runs (epsilon < 1) the step must
        resolve the fast scale: dt <= epsilon^2 / 50.
    t_final : float
        Time horizon T >= dt.
    epsilon : float
        Scale separation parameter; 1 means unrescaled.
    x0 : tuple of float
        Initial position.
    eta0 : float or "stationary"
        Initial OU modulation state; "stationary" draws from N(0, sigma/alpha).
    seed : int
        Master seed of the run.
    store_stride : int
        Positions are retained every store_stride steps.
    burn_in : float
        Time integrated and discarded before the stored segment starts.
    """

    kappa: float
    dt: float = 1e-3
    t_final: float = 1.0
    epsilon: float = 1.0
    x0: tuple[float, float] = (0.0, 0.0)
    eta0: float | str = "stationary"
    seed: int = 0
    store_stride: int = 1
    burn_in: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ParameterError(f"kappa must be positive, got {self.kappa!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ParameterError("t_final must be at least dt")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if int(self.store_stride) != self.store_stride or self.store_stride < 1:
            raise ParameterError(f"store_stride must be a positive integer, got {self.store_stride!r}")
        if not (math.isfinite(self.burn_in) and self.burn_in >= 0.0):
            raise ParameterError(f"burn_in must be nonnegative, got {self.burn_in!r}")
        if self.epsilon < 1.0 and self.dt > self.epsilon ** 2 / 50.0 * (1.0 + 1e-12):
            raise ParameterError(
                f"rescaled run with epsilon={self.epsilon} requires dt <= epsilon^2/50 "
                f"= {self.epsilon ** 2 / 50.0:g}, got dt={self.dt}"
            )
        if isinstance(self.eta0, str):
            if self.eta0 != "stationary":
                raise ParameterError(f"eta0 must be a number or 'stationary', got {self.eta0!r}")
        elif not math.isfinite(float(self.eta0)):
            raise ParameterError(f"eta0 must be finite, got {self.eta0!r}")
        if len(self.x0) != 2:
            raise ParameterError("x0 must have two components")

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_final / self.dt + 1e-9))

    @property
    def n_stored(self) -> int:
        return self.n_steps // self.store_stride + 1

    @property
    def dt_stored(self) -> float:
        return self.store_stride * self.dt

    @property
    def burn_steps(self) -> int:
        return int(math.floor(self.burn_in / self.dt + 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled 2-D path plus the metadata that produced it."""

    positions: np.ndarray  # (n, 2), row i is the position at time i * dt_stored
    dt_stored: float
    flow: FlowSpec | None = None
    config: SimConfig | None = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ParameterError("positions must be an (n, 2) array with n >= 1")
        object.__setattr__(self, "positions", pos)
        if not (math.isfinite(self.dt_stored) and self.dt_stored > 0.0):
            raise ParameterError(f"dt_stored must be positive, got {self.dt_stored!r}")
        if self.config is not None and pos.shape[0] != self.config.n_stored:
            raise ParameterError(
                f"expected {self.config.n_stored} stored positions, got {pos.shape[0]}"
            )

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dt_stored


# ---------------------------------------------------------------------------
# OU modulation
# ---------------------------------------------------------------------------


def stationary_eta_draw(alpha: float, sigma: float, rng) -> float:
    """One draw from the stationary law N(0, sigma/alpha) of the OU modulation."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ParameterError(f"alpha must be positive, got {alpha!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ParameterError(f"sigma must be nonnegative, got {sigma!r}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return math.sqrt(sigma / alpha) * float(gen.standard_normal())


# ---------------------------------------------------------------------------
# integration engines
# ---------------------------------------------------------------------------


def _raise_if_not_finite(x: np.ndarray, y: np.ndarray, first: int, start: int, end: int) -> None:
    # the state at step start was finite; name the steps in which it went bad
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        i = int(np.argmax(bad))
        where = f"at step {end}" if start == end else f"between steps {start} and {end}"
        raise IntegrationBlowupError(end, f"non-finite state in realization {first + i} {where}")


def _ou_streams(flow: FlowSpec, config: SimConfig, first: int, count: int):
    """Initial eta vector and per-realization driver generators of the OU modulation."""
    if config.eta0 == "stationary":
        eta = np.array([
            stationary_eta_draw(flow.alpha, flow.sigma,
                                stream_generator(config.seed, first + i, SOURCE_ETA0))
            for i in range(count)
        ])
    else:
        eta = np.full(count, float(config.eta0))
    gens = [stream_generator(config.seed, first + i, SOURCE_OU) for i in range(count)]
    return eta, gens


def _shear_kernel(flow: FlowSpec, config: SimConfig, g: np.ndarray, ou: tuple | None,
                  width: int):
    """Path buffers and the chunk advance of the shear family, vectorised over time.

    x does not depend on y, so a chunk of x is one cumulative sum of its
    Brownian increments; y then sums the left endpoint drift along that
    path plus its own Brownian increments, and the OU modulation runs as
    its AR(1) recursion through lfilter (``ou`` holds its initial eta
    vector and noise generators, None for the other shear flows). Every
    operation works row by row, so any partition of the rows gives bitwise
    identical output.
    """
    dt = config.dt
    inv_eps = 1.0 / config.epsilon
    drift_dt = dt * inv_eps
    clock_dt = dt / (config.epsilon * config.epsilon)
    noise_scale = math.sqrt(2.0 * config.kappa * dt)
    kind = flow.kind
    count = g.shape[0]
    x_path = np.empty((count, width + 1))
    y_path = np.empty((count, width + 1))
    if kind == OU_SHEAR:
        eta0, gens_ou = ou
        ou_decay = math.exp(-flow.alpha * clock_dt)
        ou_scale = math.sqrt(flow.sigma / flow.alpha * -math.expm1(-2.0 * flow.alpha * clock_dt))
        g_mod = np.empty((count, width))
        eta_path = np.empty((count, width + 1))  # column 0 holds the previous eta
        eta_path[:, 0] = eta0

    def advance(c: int, step0: int) -> None:
        xs = x_path[:, 1:c + 1]
        np.cumsum(g[:, :c, 0], axis=1, out=xs)
        xs *= noise_scale
        xs += x_path[:, :1]
        # y increments, built in place on the left endpoint phases x/eps
        ys = y_path[:, 1:c + 1]
        np.multiply(x_path[:, :c], inv_eps, out=ys)
        np.sin(ys, out=ys)
        if kind == OU_SHEAR:
            for i, gen in enumerate(gens_ou):
                gen.standard_normal(c, out=g_mod[i, :c])
            eta_path[:, 1:c + 1], _ = lfilter([ou_scale], [1.0, -ou_decay], g_mod[:, :c],
                                               axis=1, zi=ou_decay * eta_path[:, :1])
            ys *= eta_path[:, :c]
            eta_path[:, 0] = eta_path[:, c]
        elif kind == PERIODIC_SHEAR:
            ys *= np.sin(flow.omega * ((step0 + np.arange(c)) * clock_dt))
        ys *= drift_dt
        g_y = g[:, :c, 1]
        g_y *= noise_scale
        ys += g_y
        np.cumsum(ys, axis=1, out=ys)
        ys += y_path[:, :1]

    return x_path, y_path, advance


def _cellular_kernel(flow: FlowSpec, config: SimConfig, g: np.ndarray, ou: None,
                     width: int):
    """Path buffers and the chunk advance of the cellular flows: the step loop.

    The paths are one time-major (width+1, 2, rows) state, so step k's state
    z = [x, y] is one contiguous (2, rows) array. Each step takes sin and
    cos of the phase z/eps (z itself at eps = 1, since z * 1.0 == z) into
    one trig buffer, writes the drift h v of ``fields`` into the next state
    and adds z and the step's scaled draws. The draws are scaled and copied
    transposed in pieces of at most _PIECE steps, so each step's are
    contiguous while the copy stays small.
    """
    inv_eps = 1.0 / config.epsilon
    drift_dt = config.dt * inv_eps
    noise_scale = math.sqrt(2.0 * config.kappa * config.dt)
    count = g.shape[0]
    steps = np.empty((width + 1, 2, count))
    trig = np.empty((2, 2, count))
    sin_z, cos_z = trig
    if flow.kind == TAYLOR_GREEN:
        drift = _taylor_green_drift(drift_dt, trig)
    else:
        drift = _childress_soward_drift(flow.lam, drift_dt, trig)
    rescaled = config.epsilon != 1.0
    scaled = np.empty((2, count))
    g_piece = np.empty((min(_PIECE, width), 2, count))

    def advance(c: int, step0: int) -> None:
        for p in range(0, c, _PIECE):
            n = min(_PIECE, c - p)
            np.multiply(g[:, p:p + n].transpose(1, 2, 0), noise_scale, out=g_piece[:n])
            for z, nxt, g_k in zip(steps[p:p + n], steps[p + 1:p + n + 1], g_piece):
                phase = np.multiply(z, inv_eps, out=scaled) if rescaled else z
                np.sin(phase, out=sin_z)
                np.cos(phase, out=cos_z)
                drift(nxt)
                nxt += z
                nxt += g_k

    return steps[:, 0].T, steps[:, 1].T, advance


@np.errstate(invalid="ignore", over="ignore")
def _block(flow: FlowSpec, config: SimConfig, first: int, gens: list,
           ou: tuple | None, out: np.ndarray) -> None:
    """Integrate realizations first, first+1, ... into the rows of ``out``.

    ``gens`` are their Brownian generators and ``ou`` the OU modulation's
    initial eta vector and noise generators (None for the other flows).
    The burn phase and then the stored phase run in chunks: the loop
    draws a chunk's increments, the flow family's ``advance(c, step0)``
    fills the chunk's x and y paths, whose column 0 holds the state before
    it, and the loop stores every stride-th column and checks that the
    state after the chunk is finite. Buffers are allocated once per share.
    A state going non-finite is reported by that check alone: numpy's
    overflow and invalid-value warnings are off here, per thread, since the
    error state is thread-local.
    """
    stride = config.store_stride
    span = stride * (config.n_stored - 1)
    burn = config.burn_steps
    # stored chunks hold whole strides; a stride longer than _CHUNK runs in
    # _CHUNK-step pieces, so the buffers never outgrow _CHUNK columns
    chunk = stride * (_CHUNK // stride) or _CHUNK
    width = min(_CHUNK, max(burn, span))
    g = np.empty((len(gens), width, 2))  # Brownian draws of x and y
    kernel = _shear_kernel if flow.is_shear else _cellular_kernel
    x_path, y_path, advance = kernel(flow, config, g, ou, width)
    x_path[:, 0] = float(config.x0[0])
    y_path[:, 0] = float(config.x0[1])
    _raise_if_not_finite(x_path[:, 0], y_path[:, 0], first, 0, 0)

    def run_chunk(c: int, step0: int) -> None:
        for i, gen in enumerate(gens):
            gen.standard_normal((c, 2), out=g[i, :c])
        advance(c, step0)
        x_path[:, 0] = x_path[:, c]
        y_path[:, 0] = y_path[:, c]
        _raise_if_not_finite(x_path[:, 0], y_path[:, 0], first, step0, step0 + c)

    # burn phase, nothing stored
    step = 0
    while step < burn:
        c = min(_CHUNK, burn - step)
        run_chunk(c, step)
        step += c

    out[:, 0, 0] = x_path[:, 0]
    out[:, 0, 1] = y_path[:, 0]
    done = 0
    j = 1
    while done < span:
        c = min(chunk, span - done)
        run_chunk(c, burn + done)
        k0 = (-done - 1) % stride  # first local step that ends a stored interval
        nj = len(range(k0, c, stride))
        out[:, j:j + nj, 0] = x_path[:, k0 + 1:c + 1:stride]
        out[:, j:j + nj, 1] = y_path[:, k0 + 1:c + 1:stride]
        done += c
        j += nj


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_shares(run, count: int, threads: bool = True) -> None:
    """Call ``run(rows)`` on contiguous row shares that cover range(count) once.

    With ``threads`` the rows split into one share per CPU in the process's
    affinity mask (at most one per row), each run on a thread of its own;
    otherwise one share covers every row. ``run`` writes only its own rows
    of whatever it fills, so the result is bitwise identical to one thread.
    An error is re-raised as one thread would have raised it: the earliest
    ``step``, ties going to the lowest share; an error without a step
    arose before any step.
    """
    n_shares = min(_cpu_count(), count) if threads else 1
    if n_shares == 1:
        run(slice(0, count))
        return
    bounds = [count * k // n_shares for k in range(n_shares + 1)]
    with ThreadPoolExecutor(max_workers=n_shares) as pool:
        futures = [pool.submit(run, slice(a, b)) for a, b in zip(bounds, bounds[1:])]
    errors = [f.exception() for f in futures]
    raised = [(getattr(e, "step", -1), k) for k, e in enumerate(errors) if e is not None]
    if raised:
        raise errors[min(raised)[1]]


def simulate_ensemble(flow: FlowSpec, config: SimConfig, n_realizations: int,
                      first_realization: int = 0) -> np.ndarray:
    """Simulate a block of realizations.

    Returns an (n_realizations, n_stored, 2) array. Every flow runs through
    the one block loop, with the time-vectorised advance for the shear family
    and the step loop for the cellular flows (see the module docstring).
    Realization r draws from substreams keyed by (config.seed,
    first_realization + r, source), so blocks compose: simulating [0, 200)
    in one call or in any partition yields bitwise identical rows.

    A shear block runs on the row shares of ``_run_shares``, one thread per
    CPU, each writing its own rows of the output; the result is bitwise
    identical to one thread. A cellular block runs as one share: its step
    loop holds the interpreter lock, so threads would only slow it down. A
    non-finite state raises IntegrationBlowupError naming its realization
    and steps.
    """
    if n_realizations < 1:
        raise ParameterError("n_realizations must be at least 1")
    first, count = first_realization, n_realizations

    # every stream is created here, in the calling thread; the shares only draw
    gens = [stream_generator(config.seed, first + i, SOURCE_BM) for i in range(count)]
    eta = gens_ou = None
    if flow.kind == OU_SHEAR:
        eta, gens_ou = _ou_streams(flow, config, first, count)
    out = np.empty((count, config.n_stored, 2))

    def run(rows: slice) -> None:
        ou = None if gens_ou is None else (eta[rows], gens_ou[rows])
        _block(flow, config, first + rows.start, gens[rows], ou, out[rows])

    _run_shares(run, count, threads=flow.is_shear)
    return out


def simulate_em(flow: FlowSpec, config: SimConfig) -> Trajectory:
    """Integrate one trajectory; realization 0 of ``simulate_ensemble``.

    Identical (flow, config) inputs reproduce bitwise identical
    trajectories.
    """
    positions = simulate_ensemble(flow, config, 1)[0]
    return Trajectory(positions, config.dt_stored, flow, config)
