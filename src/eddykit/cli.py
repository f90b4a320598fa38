"""Command line interface.

Subcommands mirror the library layers: ``simulate`` integrates one
trajectory to an .npz file, ``estimate`` turns such a file into a
diffusivity tensor, ``sweep`` and ``rescaled`` drive Monte Carlo studies
from an INI config into CSV, ``diffusivity`` prints spectral reference
tensors and ``oracle`` exposes the closed forms. Exit codes: 0 success,
2 configuration or input error, 3 numerical failure: a non-finite path,
an unconverged cell solve, or a non-finite estimate, named by its
estimator and delta and, in a sweep, its realization.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from .dynamics import SimConfig, Trajectory, noise_generator, simulate_em
from .errors import (
    CommensurabilityError,
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    ParameterError,
    UnsupportedFlowError,
)
from .estimators import ESTIMATORS, directional_component, estimate_tensor
from .fields import CHILDRESS_SOWARD, TIME_INDEPENDENT, FlowSpec, flow_label
from .harness import adjudicate_periodic_shear, delta_sweep, parse_config, rescaled_study
from .homogenization import eddy_diffusivity_from_cell, solve_cell_problem, spectral_diffusivity
from .theory import (
    bm_box_expectation,
    k_ou_shear,
    k_periodic_shear,
    k_shear,
    qv_expectation_ou_shear,
    qv_expectation_shear,
    subsample_bias_limit_shear,
)

# each closed-form oracle subcommand: its theory function and help text; the
# subcommand's flags are the function's parameters, typed by their annotations
_ORACLES = {
    "k-shear": (k_shear, "kappa + 1/(2 kappa)"),
    "k-periodic-shear": (k_periodic_shear, "modulated-shear candidates"),
    "k-ou-shear": (k_ou_shear, "kappa + sigma/(2 (kappa+alpha) alpha)"),
    "shear-qv": (qv_expectation_shear, "E[qv 22-entry] for the steady shear"),
    "ou-qv": (qv_expectation_ou_shear, "stationary E[qv 22-entry] for the OU shear"),
    "bias-limit": (subsample_bias_limit_shear, "small-kappa qv bias limit"),
    "bm-box": (bm_box_expectation, "exact discrete-BM box-estimator mean"),
}

_LAM = 0.5  # childress_soward's lam when diffusivity is not given --lam


def _print_tensor(entries) -> None:
    print(f"K11 = {entries[0, 0]:.12g}")
    print(f"K12 = {entries[0, 1]:.12g}")
    print(f"K22 = {entries[1, 1]:.12g}")


def _write_report(report, path: str) -> None:
    """Write a sweep report as CSV to ``path``, or to stdout for "-"."""
    if path == "-":
        report.to_csv(sys.stdout)
    else:
        report.to_csv(path)
        print(f"wrote {len(report.rows)} rows to {path}")


def _cmd_simulate(args) -> int:
    plan = parse_config(args.config)
    traj = simulate_em(plan.flow, plan.sim)
    # np.savez appends .npz to a path without it; a file object keeps the name given
    with open(args.output, "wb") as fh:
        np.savez(fh, positions=traj.positions, dt_stored=traj.dt_stored,
                 flow=flow_label(plan.flow), kappa=plan.sim.kappa, seed=plan.sim.seed)
    print(f"wrote {traj.n_points} positions at dt_stored={traj.dt_stored:g} to {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    try:
        with np.load(args.input) as data:
            positions = np.asarray(data["positions"], dtype=float)
            dt_stored = float(data["dt_stored"])
    except KeyError as exc:
        raise ParameterError(f"{args.input}: {exc.args[0]}; simulate writes "
                             f"'positions' and 'dt_stored'") from exc
    except (ValueError, TypeError, EOFError) as exc:
        # np.load refuses pickles, and an empty or plain array file is no archive
        raise ParameterError(f"{args.input} is not an .npz archive with numeric "
                             f"'positions' and 'dt_stored'") from exc
    noise = noise_generator(args.noise_seed, 0, 0) if args.theta > 0.0 else None
    tensor = estimate_tensor(Trajectory(positions, dt_stored), args.estimator, args.delta,
                             args.theta, noise)
    component = directional_component(tensor, args.direction)  # refuse a bad spec first
    _print_tensor(tensor.entries)
    print(f"{args.direction} component = {component:.12g}")
    return 0


def _cmd_sweep(args) -> int:
    plan = parse_config(args.config)
    if not plan.deltas:
        raise ConfigError("[estimation] must set delta for the sweep command")
    report = delta_sweep(plan.flow, plan.sim, plan.estimator, plan.deltas,
                         plan.theta, plan.realizations, plan.direction)
    _write_report(report, args.output)
    return 0


def _cmd_rescaled(args) -> int:
    plan = parse_config(args.config)
    if not plan.epsilons:
        raise ConfigError("[sweep] must set epsilons for the rescaled command")
    # rescaled_study derives dt, store_stride and epsilon for each epsilon and
    # runs from SimConfig's default x0, eta0 and burn_in, so other values there
    # would be dropped
    start = SimConfig(plan.sim.kappa)
    dropped = [key for key in ("x0", "eta0", "burn_in")
               if getattr(plan.sim, key) != getattr(start, key)]
    if dropped:
        raise ConfigError(f"rescaled runs start at the default x0, eta0 and burn_in; "
                          f"remove [simulation] keys {dropped}")
    report = rescaled_study(plan.flow, plan.sim.kappa, plan.epsilons,
                            plan.alpha_exponent, plan.realizations,
                            plan.sim.t_final, plan.estimator, plan.direction,
                            plan.theta, plan.sim.seed)
    _write_report(report, args.output)
    return 0


def _cmd_diffusivity(args) -> int:
    # FlowSpec refuses a given --lam for a flow without lam
    lam = _LAM if args.lam is None and args.flow == CHILDRESS_SOWARD else args.lam
    flow = FlowSpec(args.flow, lam=lam)
    if args.modes is not None and "rtol" in args:
        raise ParameterError("--rtol sets the tolerance of adaptive doubling, which "
                             "--modes turns off; give --modes or --rtol, not both")
    if args.modes is not None:
        sol = solve_cell_problem(flow, args.kappa, args.modes)
        tensor = eddy_diffusivity_from_cell(sol)
    else:
        rtol = {"rtol": args.rtol} if "rtol" in args else {}
        tensor, sol = spectral_diffusivity(flow, args.kappa, **rtol)
    _print_tensor(tensor.entries)
    print(f"modes = {sol.modes}")
    print(f"residual = {sol.residual:.3e}")
    verdict = {True: "yes", False: "no", None: "not tested (fixed --modes)"}
    print(f"converged = {verdict[sol.converged]}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("flow,kappa,provenance,k11,k12,k22,modes,residual\n")
            e = tensor.entries
            fh.write(f"{flow_label(flow)},{args.kappa:.17g},spectral,"
                     f"{e[0, 0]:.17g},{e[0, 1]:.17g},{e[1, 1]:.17g},"
                     f"{sol.modes},{sol.residual:.17g}\n")
    return 0


def _cmd_oracle(args) -> int:
    oracle = _ORACLES[args.oracle][0] if args.oracle in _ORACLES else adjudicate_periodic_shear
    params = inspect.signature(oracle).parameters
    # a flag left out is absent from args, so the parameter keeps its default
    result = oracle(**{name: value for name, value in vars(args).items() if name in params})
    if args.oracle in _ORACLES:
        print(f"{result:.17g}")
        return 0
    print(result.report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(result.report + "\n")
    if args.csv:
        result.sweep.to_csv(args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eddykit",
        description="Lagrangian trajectories in periodic flows and eddy "
                    "diffusivity estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory to an .npz file")
    p.add_argument("--config", required=True, help="INI file with [flow] and [simulation]")
    p.add_argument("--output", required=True,
                   help="output path; an .npz archive is written there as named")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a diffusivity tensor from a trajectory file")
    p.add_argument("--input", required=True, help=".npz produced by simulate")
    p.add_argument("--estimator", default="qv", choices=ESTIMATORS)
    p.add_argument("--delta", type=float, required=True, help="subsampling interval")
    p.add_argument("--theta", type=float, default=0.0, help="observation-noise strength")
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--direction", default="y", help="x, y or xi:<a>,<b>")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sweep", help="delta sweep from a config file to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rescaled", help="rescaled-dynamics study to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=_cmd_rescaled)

    p = sub.add_parser("diffusivity", help="spectral reference diffusivity")
    p.add_argument("--flow", required=True, choices=TIME_INDEPENDENT)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--lam", type=float, default=None,
                   help=f"childress_soward parameter (default {_LAM:g})")
    p.add_argument("--modes", type=int, default=None,
                   help="fixed truncation M; omit for adaptive doubling")
    p.add_argument("--rtol", type=float, default=argparse.SUPPRESS,
                   help="adaptive-doubling relative tolerance (default: the library's)")
    p.add_argument("--csv", default=None, help="also write a machine-readable row")
    p.set_defaults(func=_cmd_diffusivity)

    p = sub.add_parser("oracle", help="closed-form reference values")
    osub = p.add_subparsers(dest="oracle", required=True)

    for name, (oracle, text) in _ORACLES.items():
        q = osub.add_parser(name, help=text)
        for param in inspect.signature(oracle, eval_str=True).parameters.values():
            q.add_argument(f"--{param.name}", type=param.annotation, required=True)

    # no defaults here: a flag left out takes adjudicate_periodic_shear's
    q = osub.add_parser("adjudicate", help="periodic-shear empirical adjudication",
                        argument_default=argparse.SUPPRESS)
    q.add_argument("--kappa", type=float)
    q.add_argument("--omega", type=float)
    q.add_argument("--realizations", type=int, dest="n_realizations")
    q.add_argument("--t-final", type=float)
    q.add_argument("--dt", type=float)
    q.add_argument("--seed", type=int)
    q.add_argument("--output", default=None, help="write the text report here")
    q.add_argument("--csv", default=None, help="write the underlying sweep CSV here")

    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, CommensurabilityError, InsufficientDataError,
            UnsupportedFlowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a missing input, an output path that is a directory, a full disk
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, ConvergenceError) as exc:  # IntegrationBlowupError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
