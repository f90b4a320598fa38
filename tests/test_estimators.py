"""Tests for subsampling, observation noise and the three estimators.

Most checks run on synthetic Brownian paths built directly from a seeded
generator, which keeps them independent of the integrators. The exact
identities (J = 1 collapse, quadratic scaling) are asserted bitwise, the
floating point ones (translation) to tight relative tolerances.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from eddykit import (
    CommensurabilityError,
    DiffusivityTensor,
    InsufficientDataError,
    ObservationSeries,
    ParameterError,
    SimConfig,
    Trajectory,
    add_observation_noise,
    bm_box_expectation,
    box_estimate,
    directional_component,
    qv_estimate,
    shift_estimate,
    simulate_em,
    steady_shear,
    subsample,
    taylor_green,
)
from eddykit.dynamics import noise_generator
from eddykit.estimators import _qv_entries, _reduce_row, estimate_tensor


def _bm_trajectory(rng, n_steps: int, kappa: float, dt: float) -> Trajectory:
    steps = math.sqrt(2.0 * kappa * dt) * rng.standard_normal((n_steps, 2))
    positions = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    return Trajectory(positions, dt)


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_point_counts():
    traj = Trajectory(np.zeros((11, 2)), 0.1)
    series = subsample(traj, 0.5)
    assert series.n_obs == 3  # indices 0, 5, 10
    assert series.delta == 5 * 0.1
    assert subsample(traj, 0.1).n_obs == 11
    big = Trajectory(np.zeros((10 ** 6 + 1, 2)), 1e-3)
    assert subsample(big, 1.0).n_obs == 1001


def test_subsample_returns_canonical_delta():
    traj = Trajectory(np.zeros((7, 2)), 0.1)
    series = subsample(traj, 0.3)  # 0.3 / 0.1 is 2.999... in floating point
    assert series.delta == 3 * 0.1
    assert series.positions.shape == (3, 2)


def test_subsample_rejects_incommensurate_delta():
    traj = Trajectory(np.zeros((11, 2)), 0.1)
    with pytest.raises(CommensurabilityError, match="dt_stored"):
        subsample(traj, 0.25)
    with pytest.raises(CommensurabilityError):
        subsample(traj, 0.05)  # below the stored step
    with pytest.raises(ParameterError):
        subsample(traj, -0.1)


def test_subsample_needs_enough_points():
    traj = Trajectory(np.zeros((5, 2)), 0.1)
    with pytest.raises(InsufficientDataError):
        subsample(traj, 0.5)
    subsample(traj, 0.4)  # 5 points just cover one increment


@pytest.mark.parametrize("call, estimate", [
    (lambda traj: subsample(traj, 0.5), "qv at delta=0.5 (5 stored steps)"),
    (lambda traj: estimate_tensor(traj, "qv", 0.5), "qv at delta=0.5 (5 stored steps)"),
    (lambda traj: box_estimate(traj, 0.3), "box at delta=0.3 (3 stored steps)"),
    (lambda traj: shift_estimate(traj, 0.3), "shift at delta=0.3 (3 stored steps)"),
], ids=["subsample", "qv", "box", "shift"])
def test_too_few_points_refusal_names_delta_and_both_counts(call, estimate):
    message = estimate + " needs at least 6 stored points, got 5"
    with pytest.raises(InsufficientDataError, match=re.escape(message)):
        call(Trajectory(np.zeros((5, 2)), 0.1))


def test_observation_series_validation():
    with pytest.raises(InsufficientDataError):
        ObservationSeries(np.zeros((1, 2)), 0.1)
    with pytest.raises(ParameterError):
        ObservationSeries(np.zeros((3, 4)), 0.1)
    with pytest.raises(ParameterError):
        ObservationSeries(np.zeros((3, 2)), -1.0)
    with pytest.raises(ParameterError):
        ObservationSeries(np.zeros((3, 2)), 0.1, theta=-0.5)


# ---------------------------------------------------------------------------
# observation noise
# ---------------------------------------------------------------------------


def test_zero_noise_returns_same_object():
    series = ObservationSeries(np.zeros((4, 2)), 0.1)
    assert add_observation_noise(series, 0.0, np.random.default_rng(0)) is series


def test_noise_is_reproducible_and_composes():
    series = ObservationSeries(np.arange(8, dtype=float).reshape(4, 2), 0.1)
    a = add_observation_noise(series, 0.3, np.random.default_rng(5))
    b = add_observation_noise(series, 0.3, np.random.default_rng(5))
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.theta == 0.3
    twice = add_observation_noise(a, 0.4, np.random.default_rng(6))
    assert twice.theta == pytest.approx(0.5, rel=1e-15, abs=0.0)


def test_noise_inflates_qv_by_theta_sq_over_delta():
    # on a frozen path the noisy qv expectation is base + theta^2 / delta
    rng = np.random.default_rng(11)
    theta, delta = 0.05, 0.25
    series = ObservationSeries(np.zeros((40001, 2)), delta)
    noisy = qv_estimate(add_observation_noise(series, theta, rng))
    expected = theta * theta / delta
    for diag in (noisy.entries[0, 0], noisy.entries[1, 1]):
        assert diag == pytest.approx(expected, rel=0.05, abs=0.0)
    assert abs(noisy.entries[0, 1]) < 0.05 * expected


# ---------------------------------------------------------------------------
# estimator identities
# ---------------------------------------------------------------------------


def test_j_one_collapses_bitwise():
    traj = _bm_trajectory(np.random.default_rng(1), 500, 0.2, 0.01)
    plain = qv_estimate(subsample(traj, 0.01))
    box = box_estimate(traj, 0.01)
    shift = shift_estimate(traj, 0.01)
    np.testing.assert_array_equal(plain.entries, box.entries)
    np.testing.assert_array_equal(plain.entries, shift.entries)
    assert plain.n_increments == box.n_increments == shift.n_increments == 500
    # under noise too: one-point bins draw qv's (n, 2) noise at theta/sqrt(1) = theta
    noisy_qv = estimate_tensor(traj, "qv", 0.01, 0.3, np.random.default_rng(4))
    noisy_box = estimate_tensor(traj, "box", 0.01, 0.3, np.random.default_rng(4))
    np.testing.assert_array_equal(noisy_qv.entries, noisy_box.entries)
    assert noisy_qv.n_increments == noisy_box.n_increments == 500
    assert not np.array_equal(noisy_qv.entries, plain.entries)


def test_quadratic_scaling_is_exact():
    traj = _bm_trajectory(np.random.default_rng(2), 300, 0.2, 0.01)
    doubled = Trajectory(2.0 * traj.positions, traj.dt_stored)
    for estimate in (lambda t: qv_estimate(subsample(t, 0.05)),
                     lambda t: box_estimate(t, 0.05),
                     lambda t: shift_estimate(t, 0.05)):
        np.testing.assert_array_equal(estimate(doubled).entries, 4.0 * estimate(traj).entries)


@pytest.mark.parametrize("offset", [(1000.0, -500.0), (3.0, 2.0 ** 20)])
def test_translation_invariance(offset):
    traj = _bm_trajectory(np.random.default_rng(3), 400, 0.2, 0.01)
    moved = Trajectory(traj.positions + np.asarray(offset), traj.dt_stored)
    for estimate in (lambda t: qv_estimate(subsample(t, 0.05)),
                     lambda t: box_estimate(t, 0.05),
                     lambda t: shift_estimate(t, 0.05)):
        np.testing.assert_allclose(estimate(moved).entries, estimate(traj).entries,
                                   rtol=1e-9, atol=1e-12)


def test_qv_tensor_is_positive_semidefinite():
    rng = np.random.default_rng(4)
    for _ in range(25):
        series = ObservationSeries(rng.standard_normal((30, 2)), 0.1)
        k = qv_estimate(series).entries
        assert k[0, 0] >= 0.0 and k[1, 1] >= 0.0
        assert k[0, 0] * k[1, 1] - k[0, 1] ** 2 >= -1e-15 * (k[0, 0] + k[1, 1]) ** 2


def test_qv_known_small_case():
    # two increments worked out by hand
    positions = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 3.0]])
    k = qv_estimate(ObservationSeries(positions, 0.5)).entries
    # sum dx dx^T = [[1+4, 2+2], [2+2, 4+1]], scale 1/(2*2*0.5)
    np.testing.assert_allclose(k, np.array([[2.5, 2.0], [2.0, 2.5]]), rtol=1e-15)


# ---------------------------------------------------------------------------
# box and shift behaviour on Brownian paths
# ---------------------------------------------------------------------------


def test_box_estimate_matches_bm_oracle():
    rng = np.random.default_rng(8)
    kappa, dt, j, m = 0.2, 0.01, 10, 300
    values = np.array([
        box_estimate(_bm_trajectory(rng, 2000, kappa, dt), j * dt).entries[0, 0]
        for _ in range(m)
    ])
    expected = bm_box_expectation(kappa, j * dt, j)
    stderr = values.std(ddof=1) / math.sqrt(m)
    assert abs(values.mean() - expected) < 4.0 * stderr
    # and the J = 10 mean sits well below the molecular value
    assert values.mean() < 0.9 * kappa


def test_shift_estimate_is_unbiased_on_bm():
    rng = np.random.default_rng(9)
    kappa, dt, j, m = 0.2, 0.01, 10, 300
    values = np.array([
        shift_estimate(_bm_trajectory(rng, 2000, kappa, dt), j * dt).entries[0, 0]
        for _ in range(m)
    ])
    stderr = values.std(ddof=1) / math.sqrt(m)
    assert abs(values.mean() - kappa) < 4.0 * stderr


def test_box_bin_bookkeeping():
    # 10 points in bins of 3: three full bins, one point dropped
    traj = Trajectory(np.arange(20, dtype=float).reshape(10, 2), 0.1)
    est = box_estimate(traj, 0.3)
    assert est.n_increments == 2
    assert est.delta == 3 * 0.1
    with pytest.raises(InsufficientDataError):
        box_estimate(Trajectory(np.zeros((5, 2)), 0.1), 0.3)  # one full bin only


def test_shift_grid_bookkeeping():
    # 10 points on 3 grids: sizes 4, 3, 3 -> increment counts 3, 2, 2
    traj = _bm_trajectory(np.random.default_rng(10), 9, 0.2, 0.1)
    est = shift_estimate(traj, 0.3)
    assert est.n_increments == 2
    with pytest.raises(InsufficientDataError):
        shift_estimate(Trajectory(np.zeros((5, 2)), 0.1), 0.3)  # needs 2 J = 6


def test_estimates_carry_metadata():
    traj = Trajectory(np.cumsum(np.ones((12, 2)), axis=0), 0.1,
                      flow=steady_shear())
    sub = subsample(traj, 0.2)
    q = qv_estimate(sub)
    assert (q.provenance, q.delta, q.theta) == ("qv", 2 * 0.1, 0.0)
    b = box_estimate(traj, 0.2)
    s = shift_estimate(traj, 0.2)
    assert b.provenance == "box" and s.provenance == "shift"
    assert b.flow == s.flow == steady_shear()


@pytest.mark.parametrize("j", [1, 10, 100])
@pytest.mark.parametrize("estimator", ["qv", "box", "shift"])
def test_estimate_does_not_depend_on_memory_layout(estimator, j):
    # a Fortran-ordered copy of the path gives the same bits as the C-ordered one
    traj = _bm_trajectory(np.random.default_rng(11), 20000, 0.5, 0.01)
    fortran = np.asfortranarray(traj.positions)
    assert not fortran.flags.c_contiguous
    c_est = estimate_tensor(traj, estimator, j * 0.01)
    f_est = estimate_tensor(Trajectory(fortran, 0.01), estimator, j * 0.01)
    assert f_est.entries.tobytes() == c_est.entries.tobytes()
    assert f_est.n_increments == c_est.n_increments


_BIN_SIZES = [*range(1, 20), 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 500, 1000, 4096]


def _qv_reference(points, delta):
    """qv entries and increment count, the increments in an array of their own."""
    d = points[1:] - points[:-1]
    return _qv_entries(d, delta), d.shape[0]


def _box_reference(row, j, delta):
    n_bins = row.shape[0] // j
    means = np.mean(row[:n_bins * j].reshape(n_bins, j, 2), axis=1)
    return _qv_reference(means, delta)


@pytest.mark.parametrize("n", [17, 1001, 100001, 250000])
def test_box_bin_means_are_np_mean_bitwise(n):
    # the bin means are summed in np.mean's order, so box keeps its bits
    # exactly; most of these sizes leave a trailing partial bin
    row = _bm_trajectory(np.random.default_rng(n), n - 1, 0.5, 0.01).positions + 100.0
    diffs = np.empty((n, 2))
    partial = 0
    for j in [jj for jj in _BIN_SIZES + [n // 2] if 2 * jj <= n]:
        entries, n_inc = _reduce_row("box", row, j, j * 0.01, 0.0, None, diffs)
        ref_entries, ref_n_inc = _box_reference(row, j, j * 0.01)
        assert entries.tobytes() == ref_entries.tobytes(), j
        assert n_inc == ref_n_inc
        partial += n % j != 0
    assert partial > 0


# ---------------------------------------------------------------------------
# box averaging under observation noise: one draw per bin mean
# ---------------------------------------------------------------------------


class _CountingGenerator(np.random.Generator):
    """Generator that counts the normals it draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.normals = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self.normals += 1 if size is None else int(np.prod(size))
        return super().standard_normal(size, dtype, out)


def test_noisy_box_at_j_one_is_noisy_qv_bitwise():
    traj = _bm_trajectory(np.random.default_rng(12), 400, 0.2, 0.01)
    box = estimate_tensor(traj, "box", 0.01, 0.05, np.random.default_rng(5))
    qv = estimate_tensor(traj, "qv", 0.01, 0.05, np.random.default_rng(5))
    np.testing.assert_array_equal(box.entries, qv.entries)
    noisy = add_observation_noise(subsample(traj, 0.01), 0.05, np.random.default_rng(5))
    np.testing.assert_array_equal(box.entries, qv_estimate(noisy).entries)


@pytest.mark.parametrize("theta", [0.0, 0.05])
@pytest.mark.parametrize("delta", [0.02, 0.1, 1.0])
@pytest.mark.parametrize("flow", [steady_shear(), taylor_green()], ids=["shear", "taylor_green"])
def test_public_qv_pipeline_is_estimate_tensor_bitwise(flow, delta, theta):
    # subsample -> add_observation_noise -> qv_estimate is one computation
    # with estimate_tensor("qv"), draws included
    traj = simulate_em(flow, SimConfig(kappa=0.3, dt=0.01, t_final=5.0, x0=(0.4, 1.1), seed=8))
    series = add_observation_noise(subsample(traj, delta), theta, np.random.default_rng(21))
    piped = qv_estimate(series)
    direct = estimate_tensor(traj, "qv", delta, theta, np.random.default_rng(21))
    np.testing.assert_array_equal(piped.entries, direct.entries)
    assert piped.n_increments == direct.n_increments
    assert piped.theta == direct.theta == theta
    assert piped.delta == direct.delta


@pytest.mark.parametrize("n, j", [(401, 1), (401, 4), (401, 7), (1003, 10)])
def test_noisy_box_draws_once_per_bin_coordinate(n, j):
    traj = _bm_trajectory(np.random.default_rng(13), n - 1, 0.2, 0.01)
    gen = _CountingGenerator(6)
    estimate_tensor(traj, "box", j * 0.01, 0.05, gen)
    assert gen.normals == 2 * (n // j)


def _one_shot(estimator, row, j, delta, theta, gen):
    """Each estimator with every observed point and its noise made in one array.

    shift takes the qv of each of its j grids in a separate subtraction,
    sums them from zeros and divides by j.
    """
    if estimator == "box" and j > 1:
        n_bins = row.shape[0] // j
        obs = np.mean(row[:n_bins * j].reshape(n_bins, j, 2), axis=1)
        theta /= math.sqrt(j)
    elif estimator == "shift":
        obs = row
    else:
        obs = row[::j]
    if theta > 0.0:
        obs = obs + theta * gen.standard_normal(obs.shape)
    if estimator != "shift":
        return _qv_reference(obs, delta)
    total, counts = np.zeros((2, 2)), []
    for s in range(j):
        entries, n_inc = _qv_reference(obs[s::j], delta)
        total += entries
        counts.append(n_inc)
    return total / j, min(counts)


@pytest.mark.parametrize("theta", [0.0, 0.05])
@pytest.mark.parametrize("estimator", ["qv", "box", "shift"])
def test_points_and_increments_in_one_buffer_are_bitwise(estimator, theta):
    # every estimator keeps its points in one (n, 2) buffer and one
    # subtraction turns them into increments in place, overlapping operands
    # included: the bits of separate points and increments, and for shift
    # of j separate grids
    for n in (16383, 16384, 16385, 32769, 49157):
        row = _bm_trajectory(np.random.default_rng(n), n - 1, 0.5, 0.01).positions + 100.0
        for j in (1, 2, 3, 7):
            got = _reduce_row(estimator, row, j, j * 0.01, theta, np.random.default_rng(4),
                              np.empty((n, 2)))
            want = _one_shot(estimator, row, j, j * 0.01, theta, np.random.default_rng(4))
            assert got[0].tobytes() == want[0].tobytes(), (n, j)
            assert got[1] == want[1]


@pytest.mark.parametrize("theta", [0.0, 0.05])
@pytest.mark.parametrize("estimator", ["qv", "box", "shift"])
def test_qv_and_box_hold_one_row_of_increments(estimator, theta):
    # the (n, 2) points and increments plus numpy's iteration buffers, well
    # under 1 MiB; a noisy copy, the bin means of the whole row apart from
    # the increments or a temporary for the overlapping subtraction would
    # add another (n, 2), 3.2 MB
    n = 200_001
    traj = _bm_trajectory(np.random.default_rng(3), n - 1, 0.5, 0.01)
    for j in (1, 2, 100):
        tracemalloc.start()
        try:
            estimate_tensor(traj, estimator, j * 0.01, theta, np.random.default_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 2 * 8 + (1 << 20), j


def test_noisy_box_on_a_zero_path_has_mean_theta_sq_over_j_delta():
    # each bin mean carries N(0, theta^2 / J) per coordinate, so the box
    # estimate of a path at rest has expectation theta^2 / (J delta) in x
    # and y. Margin 3 standard errors and M = 400, fixed before the seed.
    n, dt, j, theta, m = 201, 0.01, 4, 0.05, 400
    still = Trajectory(np.zeros((n, 2)), dt)
    values = np.array([
        estimate_tensor(still, "box", j * dt, theta, noise_generator(0, r, 0)).entries
        for r in range(m)
    ])
    expected = theta * theta / (j * j * dt)
    for k in (0, 1):
        diag = values[:, k, k]
        stderr = diag.std(ddof=1) / math.sqrt(m)
        assert abs(diag.mean() - expected) < 3.0 * stderr


# ---------------------------------------------------------------------------
# tensors and directions
# ---------------------------------------------------------------------------


def test_directional_component():
    k = DiffusivityTensor(np.array([[2.0, 0.5], [0.5, 3.0]]), "spectral")
    assert directional_component(k, "x") == 2.0
    assert directional_component(k, "y") == 3.0
    assert directional_component(k, "xi:1,1") == pytest.approx(2.0 + 3.0 + 2 * 0.5)
    assert directional_component(k, "xi:3,4") == pytest.approx(9 * 2.0 + 16 * 3.0 + 24 * 0.5)
    for bad in ("z", "xi:1", "xi:a,b", "xi:1,2,3"):
        with pytest.raises(ParameterError):
            directional_component(k, bad)


def test_tensor_validation():
    with pytest.raises(ParameterError):
        DiffusivityTensor(np.array([[1.0, 0.2], [0.3, 1.0]]), "qv")  # asymmetric
    with pytest.raises(ParameterError):
        DiffusivityTensor(np.eye(3), "qv")
    with pytest.raises(ParameterError):
        DiffusivityTensor(np.eye(2), "guesswork")
    k = DiffusivityTensor(np.eye(2), "spectral")
    with pytest.raises(ParameterError):
        k.project((1.0, 2.0, 3.0))
    assert k.project((3.0, 4.0)) == 25.0


def test_unknown_estimator_and_provenance_are_refused():
    traj = Trajectory(np.zeros((10, 2)), 0.1)
    with pytest.raises(ParameterError, match="estimator must be"):
        _reduce_row("median", traj.positions, 1, 0.1, 0.0, None, np.empty((10, 2)))
    with pytest.raises(ParameterError, match="estimator must be"):
        estimate_tensor(traj, "median", 0.1)
    for stale in ("analytic", "oracle"):
        with pytest.raises(ParameterError, match="provenance"):
            DiffusivityTensor(np.eye(2), stale)
