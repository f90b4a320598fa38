"""Every public numeric parameter refuses None, a numeric string and nan by name.

One table of (callable, parameter) pairs: each call puts a bad value in the
one parameter and must raise ParameterError (or CommensurabilityError) whose
message names it, before any simulation or solve runs.
"""

import math
import re

import numpy as np
import pytest

from eddykit import (
    CellSolution,
    CommensurabilityError,
    DiffusivityTensor,
    FlowSpec,
    ObservationSeries,
    ParameterError,
    RunPlan,
    SimConfig,
    Trajectory,
    adjudicate_periodic_shear,
    childress_soward,
    delta_sweep,
    eddy_diffusivity_from_cell,
    fit_scaling_exponent,
    ou_shear,
    periodic_shear,
    qv_estimate,
    simulate_ensemble,
    solve_cell_problem,
    steady_shear,
    subsample,
    taylor_green,
)
from eddykit.estimators import estimate_tensor
from eddykit.errors import finite

BAD = [None, "0.1", math.nan]
CONFIG = SimConfig(kappa=0.1, dt=0.1, t_final=1.0)
SOLUTION = CellSolution(np.zeros((2, 5, 5), dtype=complex), 0.1, 2, 0.0)
TENSOR = DiffusivityTensor(np.eye(2), "spectral")
SAMPLES = [(0.1, 1.0), (0.2, 2.0)]
POSITIONS = np.zeros((3, 2))


def _plan(**kwargs):
    return RunPlan(steady_shear(), CONFIG, **kwargs)


def _sweep(**kwargs):
    args = dict(deltas=[0.2], theta=0.0, n_realizations=2) | kwargs
    return delta_sweep(steady_shear(), CONFIG, "qv", **args)


CASES = {
    "finite": (lambda v: finite("x", v), "x"),
    "SimConfig.kappa": (lambda v: SimConfig(kappa=v), "kappa"),
    "SimConfig.dt": (lambda v: SimConfig(kappa=0.1, dt=v), "dt"),
    "SimConfig.t_final": (lambda v: SimConfig(kappa=0.1, t_final=v), "t_final"),
    "SimConfig.epsilon": (lambda v: SimConfig(kappa=0.1, epsilon=v), "epsilon"),
    "SimConfig.x0": (lambda v: SimConfig(kappa=0.1, x0=(0.0, v)), "x0"),
    "SimConfig.eta0": (lambda v: SimConfig(kappa=0.1, eta0=v), "eta0"),
    "SimConfig.seed": (lambda v: SimConfig(kappa=0.1, seed=v), "seed"),
    "SimConfig.store_stride": (lambda v: SimConfig(kappa=0.1, store_stride=v), "store_stride"),
    "SimConfig.burn_in": (lambda v: SimConfig(kappa=0.1, burn_in=v), "burn_in"),
    "delta_sweep.delta": (lambda v: _sweep(deltas=[0.2, v]), "delta"),
    "delta_sweep.theta": (lambda v: _sweep(theta=v), "theta"),
    "delta_sweep.n_realizations": (lambda v: _sweep(n_realizations=v), "n_realizations"),
    "delta_sweep.direction": (lambda v: _sweep(direction=v), "direction"),
    "RunPlan.delta": (lambda v: _plan(deltas=(0.2, v)), "delta"),
    "RunPlan.theta": (lambda v: _plan(theta=v), "theta"),
    "RunPlan.realizations": (lambda v: _plan(realizations=v), "realizations"),
    "RunPlan.direction": (lambda v: _plan(direction=v), "direction"),
    "RunPlan.epsilon": (lambda v: _plan(epsilons=(0.5, v)), "epsilon"),
    "RunPlan.alpha_exponent": (lambda v: _plan(alpha_exponent=v), "alpha_exponent"),
    "FlowSpec.kind": (lambda v: FlowSpec([v]), "kind"),
    "periodic_shear.omega": (periodic_shear, "omega"),
    "ou_shear.alpha": (lambda v: ou_shear(v, 0.1), "alpha"),
    "ou_shear.sigma": (lambda v: ou_shear(0.1, v), "sigma"),
    "childress_soward.lam": (childress_soward, "lam"),
    "adjudicate.dt": (lambda v: adjudicate_periodic_shear(dt=v), "dt"),
    "adjudicate.delta": (lambda v: adjudicate_periodic_shear(deltas=(1.0, v)), "delta"),
    "fit_scaling_exponent.kappa": (lambda v: fit_scaling_exponent([*SAMPLES, (v, 3.0)]),
                                   "kappa"),
    "fit_scaling_exponent.K": (lambda v: fit_scaling_exponent([*SAMPLES, (0.3, v)]), "K"),
    "coefficient.component": (lambda v: SOLUTION.coefficient(v, 1, 1), "component"),
    "coefficient.k1": (lambda v: SOLUTION.coefficient(1, v, 1), "k1"),
    "coefficient.k2": (lambda v: SOLUTION.coefficient(1, 1, v), "k2"),
    "project.xi": (lambda v: TENSOR.project((v, 1.0)), "xi"),
    "Trajectory.dt_stored": (lambda v: Trajectory(POSITIONS, v), "dt_stored"),
    "ObservationSeries.delta": (lambda v: ObservationSeries(POSITIONS, v), "delta"),
    "ObservationSeries.theta": (lambda v: ObservationSeries(POSITIONS, 0.1, v), "theta"),
    "fit_scaling_exponent.sample": (lambda v: fit_scaling_exponent([*SAMPLES, v]),
                                    "sample 2"),
    "fit_scaling_exponent.short_sample": (lambda v: fit_scaling_exponent([*SAMPLES, (v,)]),
                                          "sample 2"),
    "DiffusivityTensor.diagonal": (lambda v: DiffusivityTensor([[v, 0.0], [0.0, 1.0]], "qv"),
                                   r"entries\[0, 0"),
    "DiffusivityTensor.off_diagonal": (
        lambda v: DiffusivityTensor([[1.0, v], [v, 1.0]], "qv"), r"entries\[0, 1"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_bad_numbers_are_refused_by_name(call, name):
    for value in BAD:
        with pytest.raises(ParameterError, match=rf"\b{name}\b"):
            call(value)


def test_adjudication_names_dt_for_a_delta_below_it():
    with pytest.raises(CommensurabilityError,
                       match=r"^delta=0\.0001 is not an integer multiple of dt_stored=0\.001$"):
        adjudicate_periodic_shear(dt=1e-3, deltas=(1e-4, 1.0))


@pytest.mark.parametrize("x0", [[0.0, 0.0], np.array([0.0, 0.0]), (0, 0)],
                         ids=["list", "array", "ints"])
def test_sim_config_stores_x0_as_a_tuple_of_floats(x0):
    config = SimConfig(kappa=0.1, x0=x0)
    assert config == SimConfig(kappa=0.1)
    assert hash(config) == hash(SimConfig(kappa=0.1))
    assert all(type(c) is float for c in config.x0) and type(config.x0) is tuple


def test_sim_config_refuses_x0_that_is_not_a_pair_and_stores_eta0_as_float():
    with pytest.raises(ParameterError, match="^x0 must have two components, got 5$"):
        SimConfig(kappa=0.1, x0=5)
    eta0 = SimConfig(kappa=0.1, eta0=np.float32(0.1)).eta0
    assert type(eta0) is float and eta0 == float(np.float32(0.1))


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)], ids=str)
def test_diffusivity_tensor_refuses_an_infinite_entry_by_name(entry):
    entries = np.eye(2)
    entries[entry] = entries[entry[::-1]] = math.inf
    with pytest.raises(ParameterError, match=r"^entries\[%d, %d\] must be finite" % entry):
        DiffusivityTensor(entries, "qv")


def test_trajectory_and_series_store_the_floats_their_checks_return():
    positions = np.cumsum(np.random.default_rng(2).standard_normal((101, 2)), axis=0)
    dt = float(np.float32(0.1))
    traj = Trajectory(positions, np.float32(0.1))
    assert type(traj.dt_stored) is float and traj.dt_stored == dt
    assert type(subsample(traj, 2 * dt).delta) is float
    series = ObservationSeries(positions, np.float32(0.1), np.float32(0.05))
    assert type(series.delta) is float and type(series.theta) is float
    # a float32 delta once scaled the estimate in float32
    same = qv_estimate(ObservationSeries(positions, dt)).entries
    assert qv_estimate(series).entries.tobytes() == same.tobytes()


def test_integral_float_indices_name_the_same_coefficient():
    coefficients = np.arange(50, dtype=complex).reshape(2, 5, 5)
    solution = CellSolution(coefficients, 0.1, 2, 0.0)
    assert solution.coefficient(2.0, 1.0, -1.0) == solution.coefficient(2, 1, -1) == 41


def _ou_paths(alpha):
    flow = ou_shear(alpha, 0.1)
    config = SimConfig(kappa=0.1, dt=0.01, t_final=2.0, seed=1)
    return simulate_ensemble(flow, config, 2), flow.alpha


def _box(theta):
    positions = np.cumsum(np.random.default_rng(2).standard_normal((101, 2)), axis=0)
    tensor = estimate_tensor(Trajectory(positions, 0.01), "box", 0.03, theta, 3)
    return tensor.entries, tensor.theta


def _cell(kappa):
    solution = solve_cell_problem(taylor_green(), kappa, 16)
    return eddy_diffusivity_from_cell(solution).entries, solution.kappa


@pytest.mark.parametrize("run, value", [(_ou_paths, 0.1), (_box, 0.05), (_cell, 0.1)],
                         ids=["FlowSpec.alpha", "estimate_tensor.theta",
                              "solve_cell_problem.kappa"])
def test_float32_inputs_run_as_the_floats_their_checks_return(run, value):
    # a float32 once ran in float32: the OU decay, box's theta/sqrt(J), kappa |k|^2 w
    single = np.float32(value)
    result, stored = run(single)
    twin, _ = run(float(single))
    assert type(stored) is float and stored == float(single)
    assert result.tobytes() == twin.tobytes()


def test_flow_parameters_keep_their_messages():
    for call, message in [
        (lambda: periodic_shear(0.0), "omega must be finite and positive, got 0.0"),
        (lambda: ou_shear(-1.0, 0.1), "alpha must be finite and positive, got -1.0"),
        (lambda: ou_shear(1.0, -0.1), "sigma must be finite and nonnegative, got -0.1"),
        (lambda: childress_soward(-0.5), "lam must be finite and nonnegative, got -0.5"),
        (lambda: childress_soward(1.5), "lam must lie in [0, 1], got 1.5"),
    ]:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call()
