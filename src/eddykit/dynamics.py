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
bitwise the scalar recursion (see ``_shear_kernel``). That solve is
LAPACK's dtbtrs, taken from the scipy.linalg.cython_lapack extension
when the first OU shear block starts (``_dtbtrs``), which loads that one
extension and not the scipy.linalg package; no other flow imports scipy.

One block loop runs every flow: it draws the noise, runs the burn-in, stores
every stride-th state and, after each chunk of at most 4096 steps,
checks that the state is finite, naming the steps in which it went bad.
Its advance kernel is time-vectorised for the shear family and a step
loop for the cellular flows (Taylor-Green, Childress-Soward).
``simulate_ensemble`` alone splits the realizations, into rounds of
n_shares * group_rows rows, each split evenly into at most n_shares
contiguous shares; the flow family sets only the two counts.
A shear block has one share per CPU in the process's affinity mask, each
on a thread of its own, and groups of as many rows as fit the 4 MiB
``_GROUP_BYTES``, at least one. A row is priced by all it holds
(``_row_bytes``): its stored path plus its chunk buffers (draws, x and y
chunk paths and, for OU shear, the modulation), so a full-resolution
share of 10^5 points per path integrates two paths at a time. The
kernel's draws, cumulative sums and the OU modulation's banded solve
work row by row and release the interpreter lock on long rows. A
cellular round is one share of ``_CELL_ROWS`` rows in the calling thread:
each step advances one flat 1-D state [x, y mirrored] with one sin and one
cos call shared by both coordinates, and its few small numpy calls per
step, all on 1-D operands, hold the lock, so threads would only slow it
down. Before a round starts, the calling thread makes its streams and,
given a row reduction (the harness sweeps pass their estimators), calls
``reduce(rows)`` per share for its noise streams and work buffers; each
share reduces its rows once they are integrated, and a round's buffers
go before the next round's are built, so a sweep holds one round.

Randomness is organized so ensembles are reproducible independently of
batching: realization r of a run with master seed s draws from generators
keyed by (s, r, source), one source tag per noise channel. Simulating
realization r alone or inside any block yields bitwise identical output.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, ParameterError, finite, integer, nonnegative, positive
from .fields import OU_SHEAR, PERIODIC_SHEAR, TAYLOR_GREEN, FlowSpec

# substream tags; (master seed, realization index, tag) identifies a stream
SOURCE_BM = 0      # 2-D Brownian driver of the position equation
SOURCE_OU = 1      # Brownian driver of the OU modulation
SOURCE_ETA0 = 2    # stationary initial draw for eta
SOURCE_NOISE = 3   # observation noise, consumed by the harness

_CHUNK = 4096
_GROUP_BYTES = 4 << 20  # what a shear share's group of rows holds at once (``_row_bytes``)
_CELL_ROWS = 64  # rows of a cellular round: a count, as each step's numpy calls cost per call
_PIECE = 256  # steps of scaled draws the cellular loop copies at a time


def _width(config: SimConfig) -> int:
    """Columns of a block's chunk buffers: at most _CHUNK steps."""
    span = config.store_stride * (config.n_stored - 1)
    return min(_CHUNK, max(config.burn_steps, span))


def _row_bytes(flow: FlowSpec, config: SimConfig) -> int:
    """Bytes one row of a shear group holds: its stored path and chunk buffers.

    The stored (n_stored, 2) path, the (width, 2) draws, the x and y chunk
    paths of width+1 columns each and, for OU shear, the width-column
    modulation, all float64.
    """
    width = _width(config)
    modulation = width if flow.kind == OU_SHEAR else 0
    return 8 * (2 * config.n_stored + 2 * width + 2 * (width + 1) + modulation)


def _keyed_generator(*key: int) -> np.random.Generator:
    # every key is a nonnegative integer; an integral float keys the same stream
    names = ("seed", "realization", "source", "index")
    key = tuple(integer(name, k, 0) for name, k in zip(names, key))
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
        # each number is stored as the float its check returns: run and record agree,
        # and x0 as a tuple of two, so equal configs compare and hash equal
        for name in ("kappa", "dt", "t_final", "epsilon"):
            object.__setattr__(self, name, positive(name, getattr(self, name)))
        if self.t_final < self.dt:
            raise ParameterError("t_final must be at least dt")
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        object.__setattr__(self, "store_stride", integer("store_stride", self.store_stride, 1))
        object.__setattr__(self, "burn_in", nonnegative("burn_in", self.burn_in))
        if self.epsilon < 1.0 and self.dt > self.epsilon ** 2 / 50.0 * (1.0 + 1e-12):
            raise ParameterError(
                f"rescaled run with epsilon={self.epsilon} requires dt <= epsilon^2/50 "
                f"= {self.epsilon ** 2 / 50.0:g}, got dt={self.dt}"
            )
        if not isinstance(self.eta0, str):
            object.__setattr__(self, "eta0", finite("eta0", self.eta0))
        elif self.eta0 != "stationary":
            raise ParameterError(f"eta0 must be a number or 'stationary', got {self.eta0!r}")
        x0 = tuple(self.x0) if np.iterable(self.x0) else ()
        if len(x0) != 2:
            raise ParameterError(f"x0 must have two components, got {self.x0!r}")
        object.__setattr__(self, "x0", tuple(finite("x0", c) for c in x0))

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


def _check_finite_positions(pos: np.ndarray) -> None:
    """Refuse an (n, 2) array of positions with a non-finite entry, naming its row."""
    if not np.isfinite(pos).all():
        row = int(np.argmax(~np.isfinite(pos).all(axis=1)))
        raise ParameterError(f"positions must be finite, row {row} is {pos[row].tolist()}")


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
        _check_finite_positions(pos)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "dt_stored", positive("dt_stored", self.dt_stored))
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
    return math.sqrt(sigma / alpha) * float(np.random.default_rng(rng).standard_normal())


# ---------------------------------------------------------------------------
# integration engines
# ---------------------------------------------------------------------------


@functools.cache
def _dtbtrs():
    """ctypes handle of LAPACK's dtbtrs from scipy.linalg.cython_lapack.

    That extension is loaded here, on the first OU shear block, so that a
    process which never runs one does not pay for it, and it is loaded
    alone: importing it as scipy.linalg.cython_lapack would first run the
    scipy.linalg package, which pulls in scipy.sparse and some 300 modules
    for one function pointer. The extension file is found in scipy's
    linalg directory, run, and registered in sys.modules under its own
    name, so a later ``import scipy.linalg`` reuses it and ``from
    scipy.linalg import cython_lapack`` gives the same module (the package
    then has no ``cython_lapack`` attribute: the import system sets one only
    when it loads the submodule itself); if scipy.linalg was imported
    first, its module is reused. The wrappers of scipy.linalg.lapack hold
    the interpreter lock for the whole call, which serialises the row
    shares; a ctypes call releases it. Every argument is a pointer.
    """
    name = "scipy.linalg.cython_lapack"
    cython_lapack = sys.modules.get(name)
    if cython_lapack is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy.__path__[0], "linalg")])
        if spec is None:
            raise ImportError(f"the OU shear needs LAPACK's dtbtrs from {name}, "
                              f"which this scipy does not provide", name=name)
        cython_lapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cython_lapack)
        sys.modules[name] = cython_lapack

    capsule = cython_lapack.__pyx_capi__["dtbtrs"]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)
    return routine(pointer_of(capsule, name_of(capsule)))


def _ou_solve(band: np.ndarray, eta: np.ndarray) -> None:
    """Solve U^T x = b in place for every row b of the C-ordered (rows, c) ``eta``.

    U is unit upper bidiagonal with superdiagonal band[0, 1:c], in LAPACK
    band storage (a Fortran-ordered (2, >= c) array); eta.T is the Fortran
    (c, rows) right-hand side of LAPACK's dtbtrs, so nothing is copied.
    """
    rows, c = eta.shape
    n, kd, nrhs, ldab = (ctypes.byref(ctypes.c_int(v)) for v in (c, 1, rows, 2))
    info = ctypes.c_int()
    _dtbtrs()(b"U", b"T", b"U", n, kd, nrhs, band.ctypes.data, ldab, eta.ctypes.data, n,
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


def _ou_streams(flow: FlowSpec, config: SimConfig, realizations: range):
    """Initial eta vector and per-realization driver generators of the OU modulation.

    Also resolves the dtbtrs handle that ``_ou_solve`` uses, so that it is
    made here in the calling thread and no share thread ever imports.
    """
    _dtbtrs()
    if config.eta0 == "stationary":
        eta = np.array([
            stationary_eta_draw(flow.alpha, flow.sigma,
                                stream_generator(config.seed, r, SOURCE_ETA0))
            for r in realizations
        ])
    else:
        eta = np.full(len(realizations), config.eta0)
    gens = [stream_generator(config.seed, r, SOURCE_OU) for r in realizations]
    return eta, gens


def _shear_kernel(flow: FlowSpec, config: SimConfig, g: np.ndarray, ou: tuple | None,
                  width: int):
    """Path buffers and the chunk advance of the shear family, vectorised over time.

    x does not depend on y, so a chunk of x is one cumulative sum of its
    Brownian increments; y then sums the left endpoint drift along that
    path, whose phase x/eps is x itself at eps = 1 (x * 1.0 == x), plus
    its own Brownian increments (``ou`` holds the OU modulation's
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
    rescaled = config.epsilon != 1.0
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
        phase = np.multiply(x_path[:, :c], inv_eps, out=ys) if rescaled else x_path[:, :c]
        np.sin(phase, out=ys)
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


def _drift(flow: FlowSpec, h: float, trig: np.ndarray):
    """drift(out), which writes h v(z) of a cellular flow for the step loop's state.

    A state of n rows is one 1-D array z = [x_0 ... x_{n-1}, y_{n-1} ... y_0],
    its y half mirrored, and trig = [sin z, cos z] one 1-D array of 4n that
    the loop fills once per step. The mirror lines each x_i up with y_i in
    the reversed view of a half: with s = sin z and c = cos z, s * c[::-1]
    is [sx cy, sy cx] in the state's own layout. The signed factor [-h, h]
    and the views of trig are made once per block; drift(out) writes h v(z)
    into the 1-D array out of 2n, every numpy call on 1-D operands, and
    h = 1 gives v itself. The sign of v1 rides on the factor, which is
    exact. The shear drift (0, eta(t) sin x) is inlined in ``_shear_kernel``.
    """
    n = trig.size // 4
    factor = np.repeat([-h, h], n)
    s, c = trig[:2 * n], trig[2 * n:]
    c_mirror = c[::-1]
    multiply, subtract = np.multiply, np.subtract

    if flow.kind == TAYLOR_GREEN:
        # psi = sin x sin y: h v = [-h, h] * [sx cy, sy cx]
        def drift(out: np.ndarray) -> None:
            multiply(s, c_mirror, out)
            multiply(out, factor, out)

        return drift

    # psi = sin x sin y + lam cos x cos y: h v = [-h, h] * (P - Q) with
    # P = [sx cy, sy cx] and Q = [(lam cx) sy, (lam sx) cy]. lam multiplies
    # the x half's cosines but the y half's sines, so Q takes one product
    # per half of lam trig = [lam s, lam c], each half on views in its order
    lam = flow.lam
    lam_trig = np.empty_like(trig)
    lam_cx, sy = lam_trig[2 * n:3 * n], s[::-1][:n]  # x order
    lam_sx, cy = lam_trig[n - 1::-1], c[n:]  # mirrored y order
    q = np.empty(2 * n)
    q_x, q_y = q[:n], q[n:]

    def drift(out: np.ndarray) -> None:
        multiply(s, c_mirror, out)
        multiply(trig, lam, lam_trig)
        multiply(lam_cx, sy, q_x)
        multiply(lam_sx, cy, q_y)
        subtract(out, q, out)
        multiply(out, factor, out)

    return drift


def _cellular_kernel(flow: FlowSpec, config: SimConfig, g: np.ndarray, ou: None,
                     width: int):
    """Path buffers and the chunk advance of the cellular flows: the step loop.

    The paths are one time-major (width+1, 2 rows) state, so step k's state
    z = [x_0 ... x_{n-1}, y_{n-1} ... y_0] is one contiguous 1-D row whose y
    half is mirrored (see ``_drift``). Each step takes sin and cos of the
    phase z/eps (z itself at eps = 1, since z * 1.0 == z) into one trig
    buffer, writes the drift h v of ``_drift`` into the next state and adds
    z and the step's scaled draws, every numpy call on 1-D operands. The
    draws are scaled and copied into the same mirrored layout in pieces of
    at most _PIECE steps, so each step's are one contiguous row while the
    copy stays small. The buffers serve every chunk of the block, so their
    per-step rows are taken once.
    """
    inv_eps = 1.0 / config.epsilon
    drift_dt = config.dt * inv_eps
    noise_scale = math.sqrt(2.0 * config.kappa * config.dt)
    count = g.shape[0]
    steps = np.empty((width + 1, 2 * count))
    trig = np.empty(4 * count)
    sin_z, cos_z = trig[:2 * count], trig[2 * count:]
    drift = _drift(flow, drift_dt, trig)
    rescaled = config.epsilon != 1.0
    scaled = np.empty(2 * count)
    g_piece = np.empty((min(_PIECE, width), 2 * count))
    state_rows = list(steps)
    g_rows = list(g_piece)

    # looked up once and given out positionally: on rows of a few hundred
    # elements a call's dispatch costs about as much as its arithmetic
    sin, cos, add, multiply = np.sin, np.cos, np.add, np.multiply

    def advance(c: int, step0: int) -> None:
        for p in range(0, c, _PIECE):
            n = min(_PIECE, c - p)
            multiply(g[:, p:p + n, 0].T, noise_scale, g_piece[:n, :count])
            multiply(g[::-1, p:p + n, 1].T, noise_scale, g_piece[:n, count:])
            for z, nxt, g_k in zip(state_rows[p:p + n], state_rows[p + 1:p + n + 1], g_rows):
                phase = multiply(z, inv_eps, scaled) if rescaled else z
                sin(phase, sin_z)
                cos(phase, cos_z)
                drift(nxt)
                add(nxt, z, nxt)
                add(nxt, g_k, nxt)

    return steps[:, :count].T, steps[:, count:][:, ::-1].T, advance


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
    width = _width(config)
    g = np.empty((len(gens), width, 2))  # Brownian draws of x and y
    kernel = _shear_kernel if flow.is_shear else _cellular_kernel
    x_path, y_path, advance = kernel(flow, config, g, ou, width)
    x_path[:, 0], y_path[:, 0] = config.x0

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


def simulate_ensemble(flow: FlowSpec, config: SimConfig, n_realizations: int,
                      first_realization: int = 0, reduce=None) -> np.ndarray:
    """Simulate a block of realizations, and reduce each one if asked to.

    Returns an (n_realizations, n_stored, 2) array. Every flow runs through
    the one block loop, with the time-vectorised advance for the shear family
    and the step loop for the cellular flows (see the module docstring).
    Realization r draws from substreams keyed by (config.seed,
    first_realization + r, source), so blocks compose: simulating [0, 200)
    in one call or in any partition yields bitwise identical rows.

    The rows run in rounds that the flow family sets (see the module
    docstring): a shear share integrates groups of
    ``_GROUP_BYTES // _row_bytes(flow, config)`` rows, at least one, each
    row priced by its stored path and its chunk buffers; a cellular round
    is one share of ``_CELL_ROWS`` rows in the calling thread. The result is
    bitwise identical to one thread and any rounds.

    ``reduce``, if given, replaces each stored path by its reduction, so
    that a block never holds more than one round of paths.
    ``reduce(rows)`` is called once per share, in the calling thread before
    the round starts, on the range of block rows the share runs, and
    returns ``row(i, path)``, which gets row i of the block and its
    (n_stored, 2) path on the share's thread once the share is integrated,
    in row order, and returns an array of one shape for every row. The
    result is then those arrays stacked in row order.

    Every round runs to its end; the block then raises what one thread over
    all its rows would have. A non-finite state raises
    IntegrationBlowupError naming its realization and steps: the earliest
    step interval first, ties going to the lowest realization. Any blow-up
    outranks an error raised by ``row``, and among those the lowest row's
    is raised.
    """
    first = integer("first_realization", first_realization, 0)
    count = integer("n_realizations", n_realizations, 1)
    if flow.is_shear:
        n_shares = min(_cpu_count(), count)
        group_rows = max(1, _GROUP_BYTES // _row_bytes(flow, config))
    else:
        n_shares, group_rows = 1, _CELL_ROWS
    shape = (config.n_stored, 2)
    out = np.empty((count, *shape)) if reduce is None else None
    reduced = [None] * count
    # ((step, row), error) of every share; a blow-up's row is the first of its
    # share and a reduction error's step is inf, so the least key is raised
    raised = []

    def share(rows: range, gens: list, ou: tuple | None, row) -> None:
        paths = out[rows.start:rows.stop] if row is None else np.empty((len(rows), *shape))
        try:
            _block(flow, config, first + rows.start, gens, ou, paths)
        except IntegrationBlowupError as exc:
            raised.append(((exc.step, rows.start), exc))
            return
        if row is None:
            return
        for i, path in zip(rows, paths):
            try:
                reduced[i] = row(i, path)
            except Exception as exc:  # no later row of the share can outrank it
                raised.append(((math.inf, i), exc))
                return

    def streams(rows: range) -> tuple:
        # every stream is made here, in the calling thread; the shares only draw
        keys = range(first + rows.start, first + rows.stop)
        gens = [stream_generator(config.seed, r, SOURCE_BM) for r in keys]
        ou = _ou_streams(flow, config, keys) if flow.kind == OU_SHEAR else None
        return rows, gens, ou, None if reduce is None else reduce(rows)

    round_rows = n_shares * group_rows
    with ThreadPoolExecutor(n_shares) if n_shares > 1 else nullcontext() as pool:
        for a in range(0, count, round_rows):
            b = min(a + round_rows, count)
            k = min(n_shares, b - a)
            bounds = [a + (b - a) * s // k for s in range(k + 1)]
            tasks = [streams(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
            list((map if pool is None else pool.map)(share, *zip(*tasks)))
            del tasks  # the round's streams and buffers go before the next round's
    if raised:
        raise min(raised, key=lambda keyed: keyed[0])[1]
    return out if reduce is None else np.stack(reduced)


def simulate_em(flow: FlowSpec, config: SimConfig) -> Trajectory:
    """Integrate one trajectory; realization 0 of ``simulate_ensemble``.

    Identical (flow, config) inputs reproduce bitwise identical
    trajectories.
    """
    positions = simulate_ensemble(flow, config, 1)[0]
    return Trajectory(positions, config.dt_stored, flow, config)
