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
triangular structure lets the scheme run vectorised over time, the OU
recursion included: one in-place banded triangular solve per chunk,
bitwise the scalar recursion (see ``_shear_kernel``).

One block loop runs every flow: it draws the noise, runs the burn-in, stores
every stride-th state and, after each chunk of at most 4096 steps,
checks that the state is finite, naming the steps in which it went bad.
Its advance kernel is time-vectorised for the shear family and a step
loop for the cellular flows (Taylor-Green, Childress-Soward). A shear
block runs on one thread per CPU in the process's affinity mask, each on
a contiguous share of the realizations (``_run_shares``), bitwise
identical to one thread: the kernel's draws, cumulative sums and the OU
modulation's banded solve work row by row and release the interpreter
lock on long rows. A share integrates its rows in groups whose stored
paths fit ``_GROUP_BYTES``. Given a row reduction (the harness sweeps
pass their estimators), it reduces each group as soon as it is
integrated and reuses one group buffer, so a sweep's memory is bounded
per share rather than by batch size times stored points. A cellular block
runs in the calling thread as one group: each step advances one stacked
(2, rows) state [x, y] with one sin and one cos call shared by both
coordinates, and its few small numpy calls per step hold the lock, so
threads would only slow it down; its rows are then reduced on the row
shares.

Randomness is organized so ensembles are reproducible independently of
batching: realization r of a run with master seed s draws from generators
keyed by (s, r, source), one source tag per noise channel. Simulating
realization r alone or inside any block yields bitwise identical output.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack

from .errors import IntegrationBlowupError, ParameterError, integer, nonnegative, positive
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
_GROUP_BYTES = 16 << 20  # stored paths of the group of rows a share integrates at once
_PIECE = 256  # steps of scaled draws the cellular loop copies at a time


def _keyed_generator(*key: int) -> np.random.Generator:
    # every key is a nonnegative integer; an integral float keys the same stream
    names = ("seed", "realization", "source", "index")
    key = tuple(integer(name, k, 0) for name, k in zip(names, key))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def as_generator(rng) -> np.random.Generator:
    """rng itself if it is a numpy Generator, else numpy.random.default_rng(rng)."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


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
        positive("kappa", self.kappa)
        positive("dt", self.dt)
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ParameterError("t_final must be at least dt")
        positive("epsilon", self.epsilon)
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        object.__setattr__(self, "store_stride", integer("store_stride", self.store_stride, 1))
        nonnegative("burn_in", self.burn_in)
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
        if not all(math.isfinite(float(c)) for c in self.x0):
            raise ParameterError(f"x0 must be finite, got {self.x0!r}")

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
    """Uniformly sampled 2-D path plus the metadata that produced it.

    ``positions`` is stored C-ordered (no copy for C-ordered input), so the
    estimators see the same layout whatever array the caller passed.
    """

    positions: np.ndarray  # (n, 2), row i is the position at time i * dt_stored
    dt_stored: float
    flow: FlowSpec | None = None
    config: SimConfig | None = None

    def __post_init__(self) -> None:
        pos = np.ascontiguousarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ParameterError("positions must be an (n, 2) array with n >= 1")
        if not np.isfinite(pos).all():
            row = int(np.argmax(~np.isfinite(pos).all(axis=1)))
            raise ParameterError(f"positions must be finite, row {row} is {pos[row].tolist()}")
        object.__setattr__(self, "positions", pos)
        positive("dt_stored", self.dt_stored)
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
    alpha = positive("alpha", alpha)
    sigma = nonnegative("sigma", sigma)
    return math.sqrt(sigma / alpha) * float(as_generator(rng).standard_normal())


# ---------------------------------------------------------------------------
# integration engines
# ---------------------------------------------------------------------------


def _cython_lapack(name: str, n_args: int):
    """ctypes handle of a scipy.linalg.cython_lapack routine; every argument is a pointer.

    The wrappers of scipy.linalg.lapack hold the interpreter lock for the
    whole call, which serialises the row shares; a ctypes call releases it.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)
    return routine(pointer_of(capsule, name_of(capsule)))


_DTBTRS = _cython_lapack("dtbtrs", 11)


def _ou_solve(band: np.ndarray, eta: np.ndarray) -> None:
    """Solve U^T x = b in place for every row b of the C-ordered (rows, c) ``eta``.

    U is unit upper bidiagonal with superdiagonal band[0, 1:c], in LAPACK
    band storage (a Fortran-ordered (2, >= c) array); eta.T is the Fortran
    (c, rows) right-hand side of LAPACK's dtbtrs, so nothing is copied.
    """
    rows, c = eta.shape
    n, kd, nrhs, ldab = (ctypes.byref(ctypes.c_int(v)) for v in (c, 1, rows, 2))
    info = ctypes.c_int()
    _DTBTRS(b"U", b"T", b"U", n, kd, nrhs, band.ctypes.data, ldab, eta.ctypes.data, n,
            ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(f"banded OU solve failed: dtbtrs info={info.value}")


def _raise_if_not_finite(x: np.ndarray, y: np.ndarray, first: int, start: int, end: int) -> None:
    # the state at step start was finite; name the steps in which it went bad
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationBlowupError(
            end, f"non-finite state in realization {first + i} between steps {start} and {end}")


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
    path plus its own Brownian increments (``ou`` holds the OU modulation's
    initial eta vector and noise generators, None for the other shear
    flows). The modulation's exact AR(1) step eta_n = d eta_{n-1} + s xi_n
    runs over a chunk as one unit bidiagonal solve U^T eta = b, where U has
    superdiagonal -d and b = s xi plus d eta_prev in step 0: LAPACK's
    banded triangular solver dtbtrs (``_ou_solve``), in place on the draws,
    without the interpreter lock. The transposed upper form takes each step as
    round(round(s xi_n) + round(d eta_{n-1})), the two roundings of the
    scalar step, so it is bitwise the scalar fold; the lower untransposed
    form runs an axpy that may fuse the multiply and the add. Every
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
        g_mod = np.empty(count * width)  # each chunk's (count, c) view is C-ordered
        band = np.empty((2, width), order="F")  # U: unit diagonal, superdiagonal -decay
        band[0] = -ou_decay
        band[1] = 1.0
        eta_prev = np.array(eta0, dtype=float)

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
            eta = g_mod[:count * c].reshape(count, c)
            for i, gen in enumerate(gens_ou):
                gen.standard_normal(c, out=eta[i])
            eta *= ou_scale
            eta[:, 0] += ou_decay * eta_prev
            _ou_solve(band, eta)
            ys[:, 0] *= eta_prev
            ys[:, 1:] *= eta[:, :c - 1]
            eta_prev[:] = eta[:, c - 1]
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
    state after the chunk is finite. Buffers are allocated once per call.
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


def _run_shares(run, count: int) -> None:
    """Call ``run(rows)`` on contiguous row shares that cover range(count) once.

    The rows split into one share per CPU in the process's affinity mask (at
    most one per row), each run on a thread of its own. ``run`` writes only
    its own rows of whatever it fills, so the result is bitwise identical to
    one thread. An error is re-raised as one thread would have raised it: a
    blow-up before any other error, the earliest ``step`` first, ties going
    to the lowest share; among errors without a step (a row reduction's),
    the lowest share's.
    """
    n_shares = min(_cpu_count(), count)
    if n_shares == 1:
        run(slice(0, count))
        return
    bounds = [count * k // n_shares for k in range(n_shares + 1)]
    with ThreadPoolExecutor(max_workers=n_shares) as pool:
        futures = [pool.submit(run, slice(a, b)) for a, b in zip(bounds, bounds[1:])]
    errors = [f.exception() for f in futures]
    raised = [(getattr(e, "step", math.inf), k) for k, e in enumerate(errors) if e is not None]
    if raised:
        raise errors[min(raised)[1]]


def simulate_ensemble(flow: FlowSpec, config: SimConfig, n_realizations: int,
                      first_realization: int = 0, reduce=None) -> np.ndarray:
    """Simulate a block of realizations, and reduce each one if asked to.

    Returns an (n_realizations, n_stored, 2) array. Every flow runs through
    the one block loop, with the time-vectorised advance for the shear family
    and the step loop for the cellular flows (see the module docstring).
    Realization r draws from substreams keyed by (config.seed,
    first_realization + r, source), so blocks compose: simulating [0, 200)
    in one call or in any partition yields bitwise identical rows.

    A shear block runs on the row shares of ``_run_shares``, one thread per
    CPU. Each share integrates its rows in groups whose stored paths fit
    ``_GROUP_BYTES``; the result is bitwise identical to one thread and to
    any grouping. A cellular block runs in the calling thread as one group:
    its step loop holds the interpreter lock, so threads would only slow it
    down. A non-finite state raises IntegrationBlowupError naming its
    realization and steps: the earliest step interval, ties going to the
    lowest realization.

    ``reduce``, if given, replaces each stored path by its reduction, so
    that a shear block never holds more than one group of paths per share.
    ``reduce()`` is called once per share, on the share's thread, and
    returns ``row(i, path)``, which gets row i of the block and its
    (n_stored, 2) path as soon as the row's group is integrated (for a
    cellular block, after the whole block, on the row shares) and returns
    an array of one shape for every row; the path's buffer is reused once
    ``row`` returns. The result is then those arrays stacked in row order.
    A blow-up anywhere in the block outranks an error raised by ``row``,
    and among those errors the lowest row's is raised.
    """
    first = integer("first_realization", first_realization, 0)
    count = integer("n_realizations", n_realizations, 1)

    # every stream is created here, in the calling thread; the shares only draw
    gens = [stream_generator(config.seed, first + i, SOURCE_BM) for i in range(count)]
    eta = gens_ou = None
    if flow.kind == OU_SHEAR:
        eta, gens_ou = _ou_streams(flow, config, first, count)
    shape = (config.n_stored, 2)
    group_rows = max(1, _GROUP_BYTES // (8 * math.prod(shape)))
    # the whole block's paths, unless each shear group is reduced at once
    out = np.empty((count, *shape)) if reduce is None or not flow.is_shear else None
    reduced = [None] * count

    def integrate(rows: slice, paths: np.ndarray) -> None:
        ou = None if gens_ou is None else (eta[rows], gens_ou[rows])
        _block(flow, config, first + rows.start, gens[rows], ou, paths)

    def reduce_rows(row, rows: slice, paths: np.ndarray) -> None:
        for i, path in zip(range(rows.start, rows.stop), paths):
            reduced[i] = row(i, path)

    def share(rows: slice) -> None:
        # every group runs even after an error, so the share raises what one
        # _block call over all its rows would have: the earliest blow-up
        size = min(rows.stop - rows.start, group_rows)
        if reduce is not None:
            buffer = np.empty((size, *shape))
            row = reduce()
        blowup = failed = None
        for a in range(rows.start, rows.stop, size):
            group = slice(a, min(a + size, rows.stop))
            paths = out[group] if reduce is None else buffer[:group.stop - a]
            try:
                integrate(group, paths)
            except IntegrationBlowupError as exc:
                if blowup is None or exc.step < blowup.step:
                    blowup = exc
                continue
            if reduce is not None and blowup is None and failed is None:
                try:
                    reduce_rows(row, group, paths)
                except Exception as exc:  # kept until no group can blow up
                    failed = exc
        if blowup is not None or failed is not None:
            raise blowup or failed

    if flow.is_shear:
        _run_shares(share, count)
    else:
        integrate(slice(0, count), out)
        if reduce is not None:
            _run_shares(lambda rows: reduce_rows(reduce(), rows, out[rows]), count)
    return out if reduce is None else np.stack(reduced)


def simulate_em(flow: FlowSpec, config: SimConfig) -> Trajectory:
    """Integrate one trajectory; realization 0 of ``simulate_ensemble``.

    Identical (flow, config) inputs reproduce bitwise identical
    trajectories.
    """
    positions = simulate_ensemble(flow, config, 1)[0]
    return Trajectory(positions, config.dt_stored, flow, config)
