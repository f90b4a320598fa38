"""Passive-tracer transport in periodic flows and eddy diffusivity estimation.

The package simulates Lagrangian trajectories dx = v(x, t) dt +
sqrt(2 kappa) dW for a small catalog of incompressible 2-D flows,
estimates the eddy diffusivity tensor from subsampled (optionally noisy)
observations by quadratic-variation, box-averaged and shift-averaged
estimators, and provides two independent sources of reference values: a
spectral cell-problem solver for time-independent flows and closed-form
expressions for the shear family.
"""

from .errors import (
    CommensurabilityError,
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    IntegrationBlowupError,
    ParameterError,
    UnsupportedFlowError,
)
from .fields import (
    FlowSpec,
    childress_soward,
    flow_label,
    ou_shear,
    periodic_shear,
    steady_shear,
    stream_modes,
    taylor_green,
    velocity_modes,
)
from .dynamics import (
    SimConfig,
    Trajectory,
    noise_generator,
    simulate_em,
    simulate_ensemble,
    stationary_eta_draw,
    stream_generator,
)
from .estimators import (
    DiffusivityTensor,
    ObservationSeries,
    add_observation_noise,
    box_estimate,
    directional_component,
    qv_estimate,
    shift_estimate,
    subsample,
)
from .homogenization import (
    CellSolution,
    DoublingStep,
    ScalingFit,
    eddy_diffusivity_from_cell,
    fit_scaling_exponent,
    solve_cell_problem,
    spectral_diffusivity,
)
from .theory import (
    bm_box_expectation,
    k_ou_shear,
    k_periodic_shear,
    k_shear,
    qv_expectation_ou_shear,
    qv_expectation_shear,
    subsample_bias_limit_shear,
)
from .harness import (
    EnsembleRecord,
    PeriodicShearVerdict,
    RunPlan,
    SweepReport,
    adjudicate_periodic_shear,
    delta_sweep,
    parse_config,
    rescaled_config,
    rescaled_study,
    run_ensemble,
)

__version__ = "0.1.0"
