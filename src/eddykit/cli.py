"""Command line interface.

Subcommands mirror the library layers: ``simulate`` integrates one
trajectory to an .npz file, ``estimate`` turns such a file into a
diffusivity tensor, ``sweep`` and ``rescaled`` drive Monte Carlo studies
from an INI config into CSV, ``diffusivity`` prints spectral reference
tensors and ``oracle`` exposes the closed forms. Exit codes: 0 success,
2 configuration or input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dynamics import Trajectory, noise_generator, simulate_em
from .errors import (
    CommensurabilityError,
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    IntegrationBlowupError,
    ParameterError,
    UnsupportedFlowError,
)
from .estimators import directional_component
from .fields import FlowSpec, childress_soward, flow_label, steady_shear, taylor_green
from .harness import (
    adjudicate_periodic_shear,
    delta_sweep,
    estimate_tensor,
    parse_config,
    rescaled_study,
)
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


def _print_tensor(entries) -> None:
    print(f"K11 = {entries[0, 0]:.12g}")
    print(f"K12 = {entries[0, 1]:.12g}")
    print(f"K22 = {entries[1, 1]:.12g}")


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _cmd_simulate(args) -> int:
    plan = parse_config(args.config)
    traj = simulate_em(plan.flow, plan.sim)
    np.savez(args.output, positions=traj.positions, dt_stored=traj.dt_stored,
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
    _print_tensor(tensor.entries)
    print(f"{args.direction} component = "
          f"{directional_component(tensor, args.direction):.12g}")
    return 0


def _cmd_sweep(args) -> int:
    plan = parse_config(args.config)
    if not plan.deltas:
        raise ConfigError("[estimation] must set delta for the sweep command")
    report = delta_sweep(plan.flow, plan.sim, plan.estimator, plan.deltas,
                         plan.theta, plan.realizations, plan.direction,
                         plan.batch_size)
    out, close = _open_out(args.output)
    try:
        report.to_csv(out)
    finally:
        if close:
            out.close()
    if close:
        print(f"wrote {len(report.rows)} rows to {args.output}")
    return 0


def _cmd_rescaled(args) -> int:
    plan = parse_config(args.config)
    if not plan.epsilons:
        raise ConfigError("[sweep] must set epsilons for the rescaled command")
    report = rescaled_study(plan.flow, plan.sim.kappa, plan.epsilons,
                            plan.alpha_exponent, plan.realizations,
                            plan.sim.t_final, plan.estimator, plan.direction,
                            plan.theta, plan.sim.seed, plan.batch_size)
    out, close = _open_out(args.output)
    try:
        report.to_csv(out)
    finally:
        if close:
            out.close()
    if close:
        print(f"wrote {len(report.rows)} rows to {args.output}")
    return 0


def _flow_from_name(name: str, lam: float) -> FlowSpec:
    if name == "shear":
        return steady_shear()
    if name == "taylor_green":
        return taylor_green()
    if name == "childress_soward":
        return childress_soward(lam)
    raise ConfigError(
        f"diffusivity supports time-independent flows (shear, taylor_green, "
        f"childress_soward), got {name!r}"
    )


def _cmd_diffusivity(args) -> int:
    flow = _flow_from_name(args.flow, args.lam)
    if args.modes is not None:
        sol = solve_cell_problem(flow, args.kappa, args.modes)
        tensor = eddy_diffusivity_from_cell(sol)
    else:
        tensor, sol = spectral_diffusivity(flow, args.kappa, rtol=args.rtol)
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
    if args.oracle == "k-shear":
        print(f"{k_shear(args.kappa):.17g}")
    elif args.oracle == "k-periodic-shear":
        print(f"{k_periodic_shear(args.kappa, args.omega, args.variant):.17g}")
    elif args.oracle == "k-ou-shear":
        print(f"{k_ou_shear(args.kappa, args.alpha, args.sigma):.17g}")
    elif args.oracle == "shear-qv":
        print(f"{qv_expectation_shear(args.kappa, args.n, args.delta):.17g}")
    elif args.oracle == "ou-qv":
        print(f"{qv_expectation_ou_shear(args.kappa, args.alpha, args.sigma, args.delta):.17g}")
    elif args.oracle == "bias-limit":
        print(f"{subsample_bias_limit_shear(args.n):.17g}")
    elif args.oracle == "bm-box":
        print(f"{bm_box_expectation(args.kappa, args.delta, args.j):.17g}")
    elif args.oracle == "adjudicate":
        verdict = adjudicate_periodic_shear(
            args.kappa, args.omega, args.realizations, args.t_final,
            args.dt, seed=args.seed)
        print(verdict.report)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(verdict.report + "\n")
        if args.csv:
            verdict.sweep.to_csv(args.csv)
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
    p.add_argument("--output", required=True, help="output .npz path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a diffusivity tensor from a trajectory file")
    p.add_argument("--input", required=True, help=".npz produced by simulate")
    p.add_argument("--estimator", default="qv", choices=["qv", "box", "shift"])
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
    p.add_argument("--flow", required=True,
                   help="shear, taylor_green or childress_soward")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--lam", type=float, default=0.5,
                   help="childress_soward parameter (default 0.5)")
    p.add_argument("--modes", type=int, default=None,
                   help="fixed truncation M; omit for adaptive doubling")
    p.add_argument("--rtol", type=float, default=1e-6,
                   help="adaptive-doubling relative tolerance")
    p.add_argument("--csv", default=None, help="also write a machine-readable row")
    p.set_defaults(func=_cmd_diffusivity)

    p = sub.add_parser("oracle", help="closed-form reference values")
    osub = p.add_subparsers(dest="oracle", required=True)

    q = osub.add_parser("k-shear", help="kappa + 1/(2 kappa)")
    q.add_argument("--kappa", type=float, required=True)

    q = osub.add_parser("k-periodic-shear", help="modulated-shear candidates")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--omega", type=float, required=True)
    q.add_argument("--variant", required=True, choices=["printed", "figure"])

    q = osub.add_parser("k-ou-shear", help="kappa + sigma/(2 (kappa+alpha) alpha)")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--sigma", type=float, required=True)

    q = osub.add_parser("shear-qv", help="E[qv 22-entry] for the steady shear")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--delta", type=float, required=True)

    q = osub.add_parser("ou-qv", help="stationary E[qv 22-entry] for the OU shear")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)

    q = osub.add_parser("bias-limit", help="small-kappa qv bias limit")
    q.add_argument("--n", type=int, required=True)

    q = osub.add_parser("bm-box", help="exact discrete-BM box-estimator mean")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--j", type=int, required=True)

    q = osub.add_parser("adjudicate", help="periodic-shear empirical adjudication")
    q.add_argument("--kappa", type=float, default=0.1)
    q.add_argument("--omega", type=float, default=1.0)
    q.add_argument("--realizations", type=int, default=200)
    q.add_argument("--t-final", type=float, default=1000.0)
    q.add_argument("--dt", type=float, default=1e-3)
    q.add_argument("--seed", type=int, default=0)
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
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationBlowupError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
