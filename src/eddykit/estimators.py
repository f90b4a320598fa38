"""Subsampling, observation noise and diffusivity estimators.

The core object is the quadratic-variation tensor of a uniformly sampled
path: with N increments at spacing delta,

    K = (1/(2 N delta)) sum_n (x_{n+1} - x_n) (x_{n+1} - x_n)^T.

``box_estimate`` and ``shift_estimate`` are the two averaging refinements.
Both consume the full-resolution trajectory and a subsampling interval
delta = J dt_stored: box averaging replaces each bin of J consecutive
points by its mean before taking the quadratic variation; shift averaging
averages the J quadratic variations obtained on the delta-grids offset by
0, 1, ..., J-1 fine steps. All three normalize by the number of increments
actually summed, which makes J = 1 collapse onto the plain estimator
bitwise.

All three run through one row reduction, ``_reduce_row``, which
``estimate_tensor``, the library estimators here and the harness sweeps
call alike. Under observation noise box perturbs each bin mean once, with
the law of the mean of J perturbed points, rather than every point. Box
sums each bin sequentially, bitwise equal to ``np.mean`` along the bin
axis. ``Trajectory`` stores C-ordered positions, so an estimate never
depends on the memory layout of the caller's array.

This module owns the estimation inputs: which estimators exist
(``ESTIMATORS``) and how many stored points each needs and what a
direction spec means. The harness and the CLI check their inputs here;
theta and delta, like every numeric domain, are checked by ``errors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CommensurabilityError,
    InsufficientDataError,
    ParameterError,
    nonnegative,
    positive,
)
from .fields import FlowSpec
from .dynamics import Trajectory, as_generator

ESTIMATORS = ("qv", "box", "shift")
PROVENANCES = ESTIMATORS + ("spectral",)


def _check_estimator(estimator: str) -> None:
    """Refuse a name that is not one of ESTIMATORS."""
    if estimator not in ESTIMATORS:
        raise ParameterError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")


def _check_points(estimator: str, delta: float, j: int, n: int) -> None:
    """Refuse n stored points too few for one estimate at delta = j stored steps."""
    _check_estimator(estimator)
    # qv needs one increment of j steps; box two full bins, shift two points per grid
    needed = j + 1 if estimator == "qv" else 2 * j
    if n < needed:
        raise InsufficientDataError(
            f"{estimator} at delta={delta:g} ({j} stored steps) needs at least {needed} "
            f"stored points, got {n}")


@dataclass(frozen=True)
class ObservationSeries:
    """Positions retained at a uniform observation interval delta."""

    positions: np.ndarray  # (n_obs, 2)
    delta: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ParameterError("positions must be an (n, 2) array")
        if pos.shape[0] < 2:
            raise InsufficientDataError("an observation series needs at least 2 points")
        object.__setattr__(self, "positions", pos)
        positive("delta", self.delta)
        nonnegative("theta", self.theta)

    @property
    def n_obs(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class DiffusivityTensor:
    """Symmetric 2x2 diffusivity tensor plus provenance metadata.

    ``provenance`` records how the entries were produced; the remaining
    fields carry whatever run metadata makes sense for that provenance and
    stay None otherwise.
    """

    entries: np.ndarray
    provenance: str
    flow: FlowSpec | None = None
    kappa: float | None = None
    delta: float | None = None
    theta: float | None = None
    n_increments: int | None = None

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=float)
        if ent.shape != (2, 2):
            raise ParameterError("entries must be a 2x2 matrix")
        if ent[0, 1] != ent[1, 0]:
            raise ParameterError("entries must be symmetric")
        object.__setattr__(self, "entries", ent)
        if self.provenance not in PROVENANCES:
            raise ParameterError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )

    def project(self, xi) -> float:
        """Directional value xi . K xi (not normalized by |xi|^2)."""
        v = np.asarray(xi, dtype=float)
        if v.shape != (2,):
            raise ParameterError("xi must be a 2-vector")
        return float(v @ self.entries @ v)


def _parse_direction(direction: str) -> int | tuple[float, float]:
    """Diagonal index of "x" or "y", or the vector (a, b) of "xi:a,b"."""
    if direction in ("x", "y"):
        return "xy".index(direction)
    if direction.startswith("xi:"):
        parts = direction[3:].split(",")
        if len(parts) != 2:
            raise ParameterError(f"bad direction spec {direction!r}, expected xi:<a>,<b>")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParameterError(f"bad direction spec {direction!r}, expected xi:<a>,<b>") from None
        if not (math.isfinite(a) and math.isfinite(b)) or a == b == 0.0:
            raise ParameterError(f"direction {direction!r} must be a finite nonzero vector")
        return a, b
    raise ParameterError(f"direction must be x, y or xi:<a>,<b>, got {direction!r}")


def directional_component(tensor: DiffusivityTensor, direction: str) -> float:
    """Resolve a CLI/config direction spec against a tensor.

    "x" and "y" give the diagonal entries; "xi:a,b" gives the projection
    onto (a, b), unnormalized.
    """
    axis = _parse_direction(direction)
    if isinstance(axis, int):
        return float(tensor.entries[axis, axis])
    return tensor.project(axis)


def _resolve_multiple(delta: float, dt_stored: float) -> tuple[int, float]:
    """(m, canonical delta = m * dt_stored) or CommensurabilityError."""
    positive("delta", delta)
    m = int(round(delta / dt_stored))
    if m < 1 or not math.isclose(m * dt_stored, delta, rel_tol=1e-9, abs_tol=0.0):
        raise CommensurabilityError(
            f"delta={delta!r} is not an integer multiple of dt_stored={dt_stored!r}"
        )
    return m, m * dt_stored


def subsample(traj: Trajectory, delta: float) -> ObservationSeries:
    """Retain every m-th stored point, m = delta / dt_stored.

    The trailing remainder shorter than delta is discarded. The series
    carries the canonical interval m * dt_stored, which removes float
    drift from repeated delta arithmetic downstream.
    """
    m, delta_c = _resolve_multiple(delta, traj.dt_stored)
    _check_points("qv", delta_c, m, traj.n_points)
    return ObservationSeries(traj.positions[::m], delta_c)


def add_observation_noise(series: ObservationSeries, theta: float, rng) -> ObservationSeries:
    """Perturb every coordinate by independent N(0, theta^2) noise.

    theta = 0 returns the input series object unchanged. ``rng`` is a
    numpy Generator (or a seed acceptable to numpy.random.default_rng);
    callers who need reproducibility across batch layouts should pass a
    stream keyed per realization, as the harness does.
    """
    nonnegative("theta", theta)
    if theta == 0.0:
        return series
    noisy = _perturbed(series.positions, theta, as_generator(rng),
                       np.empty(series.positions.shape))
    return ObservationSeries(noisy, series.delta, math.hypot(series.theta, theta))


def _qv_tensor(points: np.ndarray, delta: float, diffs: np.ndarray) -> tuple[np.ndarray, int]:
    """Quadratic-variation matrix of one point sequence and its increment count.

    The increments are written into the leading rows of ``diffs``.
    """
    n_inc = points.shape[0] - 1
    d = np.subtract(points[1:], points[:-1], out=diffs[:n_inc])
    k00 = float(d[:, 0] @ d[:, 0])
    k01 = float(d[:, 0] @ d[:, 1])
    k11 = float(d[:, 1] @ d[:, 1])
    scale = 1.0 / (2.0 * n_inc * delta)
    return np.array([[k00 * scale, k01 * scale], [k01 * scale, k11 * scale]]), n_inc


def _row_buffers(n: int) -> np.ndarray:
    """Work space of ``_reduce_row`` for rows of up to n points; one per thread."""
    return np.empty((2, n, 2))


def _perturbed(points: np.ndarray, scale: float, gen: np.random.Generator,
               out: np.ndarray) -> np.ndarray:
    """points + scale N(0, 1), drawn in row-major order, written into ``out``."""
    gen.standard_normal(out.shape, out=out)
    out *= scale
    out += points
    return out


def _reduce_row(estimator: str, row: np.ndarray, j: int, delta: float, theta: float,
                gen: np.random.Generator | None, work: np.ndarray) -> tuple[np.ndarray, int]:
    """Entries and increment count of one estimate from one (n, 2) row of points.

    qv observes every j-th point; box replaces each bin of j consecutive
    points (the trailing partial bin is discarded) by its mean, summed
    sequentially within the bin and divided by j, which is bitwise equal
    to ``np.mean`` along the bin axis; shift
    averages the qv of the j grids offset by 0, 1, ..., j-1 points, with
    the fewest increments of any grid as its count. delta = j dt_stored.
    With theta > 0, ``gen`` draws the observation noise: qv and shift add
    theta N(0, 1) to every point they observe; box adds theta/sqrt(j) N(0, 1)
    to every bin mean, the law of the mean of j points with theta noise
    each, at one draw per bin coordinate. ``work`` is from ``_row_buffers``;
    nothing else is allocated in proportion to the row.
    """
    points, diffs = work
    n = row.shape[0]
    _check_points(estimator, delta, j, n)
    if estimator == "qv":
        obs = row[::j]
        if theta > 0.0:
            obs = _perturbed(obs, theta, gen, points[:obs.shape[0]])
        return _qv_tensor(obs, delta, diffs)
    if estimator == "box":
        n_bins = n // j
        # sequential sum within each bin: the bits of np.mean along axis 1
        means = np.einsum("bjc->bc", row[:n_bins * j].reshape(n_bins, j, 2), out=points[:n_bins])
        means /= j
        if theta == 0.0:
            return _qv_tensor(means, delta, diffs)
        # the noisy means go to diffs, so their increments go to points
        noisy = _perturbed(means, theta / math.sqrt(j), gen, diffs[:n_bins])
        return _qv_tensor(noisy, delta, points)
    if theta > 0.0:
        row = _perturbed(row, theta, gen, points[:n])
    total = np.zeros((2, 2))
    n_inc_min = None
    for s in range(j):
        entries, n_inc = _qv_tensor(row[s::j], delta, diffs)
        total += entries
        n_inc_min = n_inc if n_inc_min is None else min(n_inc_min, n_inc)
    return total / j, n_inc_min


def qv_estimate(series: ObservationSeries) -> DiffusivityTensor:
    """Quadratic-variation estimator (1/(2 N delta)) sum dx dx^T."""
    entries, n_inc = _reduce_row("qv", series.positions, 1, series.delta, 0.0, None,
                                 _row_buffers(series.n_obs))
    return DiffusivityTensor(entries, "qv", delta=series.delta,
                             theta=series.theta, n_increments=n_inc)


def estimate_tensor(traj: Trajectory, estimator: str, delta: float, theta: float = 0.0,
                    noise: np.random.Generator | None = None) -> DiffusivityTensor:
    """One estimate from one trajectory, optionally under observation noise.

    The row reduction that ``harness.delta_sweep`` runs on every
    realization: qv adds the noise to the points it observes, shift to every
    stored point and box to every bin mean, with the law of the mean of J
    noisy points. ``noise`` draws the N(0, 1) perturbations and is only
    consulted when theta > 0; a seed, or None for fresh entropy, makes a new
    generator.
    """
    nonnegative("theta", theta)
    j, delta_c = _resolve_multiple(delta, traj.dt_stored)
    gen = as_generator(noise) if theta > 0.0 else None
    entries, n_inc = _reduce_row(estimator, traj.positions, j, delta_c, theta, gen,
                                 _row_buffers(traj.n_points))
    return DiffusivityTensor(entries, estimator, flow=traj.flow, delta=delta_c,
                             theta=theta, n_increments=n_inc)


def box_estimate(traj: Trajectory, delta: float) -> DiffusivityTensor:
    """Box-averaged estimator at subsampling interval delta = J dt_stored.

    The stored points are grouped into consecutive bins of J points (the
    trailing partial bin is discarded), each bin is replaced by its mean,
    and the quadratic-variation formula is applied to the bin means with
    the increment-count normalization. Each mean is summed sequentially
    within its bin, bitwise equal to ``np.mean`` along the bin axis.
    """
    return estimate_tensor(traj, "box", delta)


def shift_estimate(traj: Trajectory, delta: float) -> DiffusivityTensor:
    """Shift-averaged estimator at subsampling interval delta = J dt_stored.

    Averages the J quadratic-variation estimators computed on the
    delta-grids starting at offsets 0, 1, ..., J-1 fine steps, each with
    its own increment-count normalization.
    """
    return estimate_tensor(traj, "shift", delta)
