"""Acceptance suite: one test per shipped guarantee.

Each test pins the tolerance the package commits to, nothing tighter.
Monte Carlo checks run with frozen seeds so the suite is deterministic;
the statistical margins (3 standard errors) were chosen before the seeds
were fixed. Rough runtime on one core is two to three minutes, dominated
by the million-step ensembles in the plateau and adjudication tests.
"""

import math

import numpy as np
import pytest

from eddykit import (
    SimConfig,
    adjudicate_periodic_shear,
    bm_box_expectation,
    box_estimate,
    delta_sweep,
    eddy_diffusivity_from_cell,
    k_ou_shear,
    k_periodic_shear,
    k_shear,
    ou_shear,
    qv_estimate,
    qv_expectation_ou_shear,
    qv_expectation_shear,
    rescaled_study,
    run_ensemble,
    shift_estimate,
    simulate_ensemble,
    solve_cell_problem,
    spectral_diffusivity,
    steady_shear,
    subsample,
    taylor_green,
    fit_scaling_exponent,
)


def test_criterion_01_analytic_reference_values():
    assert k_shear(0.1) == 5.1
    assert round(k_ou_shear(0.1, 1.0, 0.1), 3) == 0.145


def test_criterion_02_taylor_green_spectral_value():
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(taylor_green(), 0.1, modes=16))
    k = tensor.entries
    assert abs(k[0, 0] - 0.342) <= 0.005
    assert abs(k[1, 1] - 0.342) <= 0.005
    assert abs(k[0, 1]) <= 1e-8
    assert abs(k[0, 0] - k[1, 1]) <= 1e-8


@pytest.mark.parametrize("kappa", [0.05, 0.1, 0.5, 1.0])
def test_criterion_03_spectral_matches_analytic_shear(kappa):
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(steady_shear(), kappa, modes=8))
    assert tensor.entries[1, 1] == pytest.approx(k_shear(kappa), rel=1e-10)


def test_criterion_04_taylor_green_sqrt_kappa_scaling():
    samples = []
    for kappa in (0.002, 0.005, 0.01, 0.02, 0.05):
        tensor, _ = spectral_diffusivity(taylor_green(), kappa, rtol=1e-6,
                                         initial_modes=16, max_modes=256)
        samples.append((kappa, tensor.entries[0, 0]))
    fit = fit_scaling_exponent(samples)
    assert abs(fit.exponent - 0.5) <= 0.05


@pytest.mark.parametrize("kappa, delta, n_increments", [
    (0.5, 1.0, 100),
    (0.1, 10.0, 100),
    (0.1, 100.0, 10),
])
def test_criterion_05_qv_mean_matches_finite_t_oracle(kappa, delta, n_increments):
    t_final = n_increments * delta
    config = SimConfig(kappa=kappa, dt=0.005, t_final=t_final, seed=3,
                       store_stride=round(delta / 0.005))
    rec = run_ensemble(steady_shear(), config, "qv", delta, n_realizations=200)
    expected = qv_expectation_shear(kappa, n_increments, delta)
    assert abs(rec.mean - expected) <= 3.0 * rec.stderr


def test_criterion_06_small_delta_recovers_molecular_kappa():
    config = SimConfig(kappa=0.1, dt=0.005, t_final=1000.0, seed=11, store_stride=2)
    rec = run_ensemble(steady_shear(), config, "qv", 0.01, n_realizations=200)
    assert 0.09 <= rec.mean <= 0.13


def test_criterion_07_noise_inflates_qv_by_theta_sq_over_delta():
    config = SimConfig(kappa=0.1, dt=0.01, t_final=1000.0, seed=9, store_stride=10)
    theta = 0.1
    for delta in (0.1, 1.0):
        clean = run_ensemble(steady_shear(), config, "qv", delta,
                             n_realizations=200, direction="x")
        noisy = run_ensemble(steady_shear(), config, "qv", delta,
                             n_realizations=200, direction="x", theta=theta)
        combined = math.hypot(clean.stderr, noisy.stderr)
        assert abs((noisy.mean - clean.mean) - theta ** 2 / delta) <= 3.0 * combined


def test_criterion_08_shift_estimator_is_unbiased_on_brownian_motion():
    config = SimConfig(kappa=0.1, dt=0.001, t_final=100.0, seed=2)
    rec = run_ensemble(steady_shear(), config, "shift", 1.0,
                       n_realizations=200, direction="x", batch_size=32)
    assert abs(rec.mean - 0.1) <= 3.0 * rec.stderr


def test_criterion_09_box_estimator_matches_its_oracle():
    config = SimConfig(kappa=0.1, dt=0.01, t_final=1000.0, seed=6)
    assert bm_box_expectation(0.1, 0.01, 1) == 0.1
    for j in (1, 2, 10, 100):
        delta = j * 0.01
        rec = run_ensemble(steady_shear(), config, "box", delta,
                           n_realizations=200, direction="x", batch_size=32)
        assert abs(rec.mean - bm_box_expectation(0.1, delta, j)) <= 3.0 * rec.stderr


def test_criterion_10_ou_modulated_sweep_has_interior_optimum():
    # the exact mean rises monotonically in delta, so the optimum is one of
    # the error: the sampling rate that minimises bias^2 + variance
    config = SimConfig(kappa=0.1, dt=1e-3, t_final=1000.0, seed=0, store_stride=1000)
    report = delta_sweep(ou_shear(1.0, 0.1), config, "qv",
                         [1.0, 2.0, 5.0, 10.0, 20.0, 50.0], n_realizations=200)
    means = [row.mean for row in report.rows]
    target = k_ou_shear(0.1, 1.0, 0.1)
    assert min(abs(m - target) for m in means) <= 0.015
    for row in report.rows:
        expected = qv_expectation_ou_shear(0.1, 1.0, 0.1, row.delta)
        assert abs(row.mean - expected) <= 3.0 * row.stderr
    errors = [(row.mean - target) ** 2 + row.std ** 2 for row in report.rows]
    best = int(np.argmin(errors))
    assert 0 < best < len(errors) - 1


def test_criterion_11_rescaled_error_shrinks_with_epsilon():
    report = rescaled_study(steady_shear(), 0.1, [0.4, 0.05], 1.0,
                            n_realizations=200, t_final=1.0)
    errors = {row.epsilon: abs(row.mean - 5.1) for row in report.rows}
    assert errors[0.05] < errors[0.4]


def test_criterion_12_periodic_shear_adjudication():
    verdict = adjudicate_periodic_shear()
    gaps = {name: abs(verdict.plateau - value) / value
            for name, value in verdict.candidates.items()}
    assert sum(gap <= 0.25 for gap in gaps.values()) == 1
    assert verdict.verdict == "figure"
    assert k_periodic_shear(0.1, 1.0, verdict.verdict) == min(
        verdict.candidates.values(), key=lambda v: abs(verdict.plateau - v))
    assert len(verdict.report.strip()) > 0


def test_criterion_13_estimator_algebraic_identities():
    from eddykit import Trajectory

    flow = steady_shear()
    rng = np.random.default_rng(20240822)
    config = SimConfig(kappa=0.4, dt=0.01, t_final=5.0, seed=17, store_stride=2)
    block = simulate_ensemble(flow, config, n_realizations=6)
    for r in range(block.shape[0]):
        one = Trajectory(block[r], config.dt_stored, flow)
        delta = one.dt_stored
        full = qv_estimate(subsample(one, delta))
        np.testing.assert_array_equal(box_estimate(one, delta).entries, full.entries)
        np.testing.assert_array_equal(shift_estimate(one, delta).entries, full.entries)
        # translation invariance of every estimator
        shifted = Trajectory(one.positions + rng.normal(size=2) * 100.0,
                             one.dt_stored, flow)
        coarse = 5 * delta
        for a, b in (
            (qv_estimate(subsample(one, coarse)), qv_estimate(subsample(shifted, coarse))),
            (box_estimate(one, coarse), box_estimate(shifted, coarse)),
            (shift_estimate(one, coarse), shift_estimate(shifted, coarse)),
        ):
            np.testing.assert_allclose(a.entries, b.entries, rtol=1e-9, atol=1e-12)
        # positive semidefiniteness
        for tensor in (full, box_estimate(one, coarse), shift_estimate(one, coarse)):
            eigs = np.linalg.eigvalsh(tensor.entries)
            assert eigs.min() >= -1e-12 * max(1.0, eigs.max())
