"""Monte Carlo experiment driver: ensembles, delta sweeps, rescaled studies.

Every ensemble statistic is reproducible from (flow, config, master seed)
alone: realization r draws from substreams keyed by (seed, r), values are
stored in realization order and reduced with a fixed summation order, so
the batch size never changes a digit. Within a sweep the trajectories are
simulated once and re-subsampled at every delta, mirroring how a single
observed dataset is analyzed at several sampling rates (this also gives
the delta-to-delta comparison a common noise background).

A sweep reduces each simulated block in place, on the same row shares as
the simulation (``dynamics._run_shares``, one thread per CPU, for every
flow), through the one row reduction of the estimators that
``estimators.estimate_tensor`` and the library estimators call too; the
thread count never changes a digit either. Noise streams and direction
values are made in the calling thread; the shares only draw and reduce.

The rules for valid inputs live with their owners: the flow kinds and their
parameters in ``fields``, the estimators, theta and direction specs in
``estimators``. This module and the CLI only call those checks.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import SimConfig, _run_shares, noise_generator, simulate_ensemble
from .errors import ConfigError, InsufficientDataError, ParameterError
from .estimators import (
    ESTIMATORS,
    DiffusivityTensor,
    _check_theta,
    _parse_direction,
    _points_needed,
    _reduce_row,
    _resolve_multiple,
    _row_buffers,
    directional_component,
)

# unused here, but perfbench/tracing.py patches these names on this module
from .dynamics import Trajectory  # noqa: F401
from .estimators import (  # noqa: F401
    ObservationSeries,
    add_observation_noise,
    box_estimate,
    qv_estimate,
    shift_estimate,
    subsample,
)
from .fields import FLOW_PARAMS, FlowSpec, flow_label, periodic_shear
from .theory import k_periodic_shear

_CSV_COLUMNS = ("flow", "kappa", "epsilon", "theta", "delta", "estimator",
                "direction", "mean", "std", "stderr", "M", "T", "dt", "seed")


@dataclass(frozen=True)
class EnsembleRecord:
    """One aggregated row: estimator statistics for a single (flow, delta)."""

    flow: str
    kappa: float
    epsilon: float
    theta: float
    delta: float
    estimator: str
    direction: str
    mean: float
    std: float
    stderr: float
    n_realizations: int
    t_final: float
    dt: float
    seed: int


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


@dataclass(frozen=True)
class SweepReport:
    """Ordered collection of ensemble records plus the CSV writer."""

    rows: tuple[EnsembleRecord, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        for rec in rows:
            expected = rec.std / math.sqrt(rec.n_realizations)
            if abs(rec.stderr - expected) > 1e-12 * max(1.0, abs(expected)):
                raise ParameterError(
                    f"stderr {rec.stderr} inconsistent with std/sqrt(M) = {expected}"
                )

    def to_csv(self, target) -> None:
        """Write the exact column schema; floats carry 17 significant digits."""
        values_for = {
            "M": lambda r: r.n_realizations,
            "T": lambda r: r.t_final,
        }
        own = io.StringIO()
        own.write(",".join(_CSV_COLUMNS) + "\n")
        for rec in self.rows:
            cells = []
            for col in _CSV_COLUMNS:
                getter = values_for.get(col)
                value = getter(rec) if getter else getattr(rec, col)
                cells.append(_format_cell(value))
            own.write(",".join(cells) + "\n")
        text = own.getvalue()
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as fh:
                fh.write(text)


def delta_sweep(flow: FlowSpec, config: SimConfig, estimator: str, deltas,
                theta: float = 0.0, n_realizations: int = 1000,
                direction: str = "y", batch_size: int = 64) -> SweepReport:
    """One record per delta, all deltas sharing the same M trajectories.

    Realizations run in blocks of ``batch_size``. Each block is reduced on
    its simulation's row shares (one thread per CPU; each share allocates
    its work buffers once), and realization r's value at the j-th delta is
    bitwise ``directional_component(estimators.estimate_tensor(traj_r,
    estimator, delta_j, theta, noise_generator(seed, r, j)), direction)``,
    whatever the batch size and the thread count. Observation noise is thus
    drawn independently per (realization, delta) from streams disjoint from
    the dynamics streams. Estimator statistics use the sample standard
    deviation (ddof=1); stderr = std / sqrt(M).
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ParameterError("deltas must be non-empty")
    if n_realizations < 2:
        raise ParameterError("n_realizations must be at least 2")
    _check_theta(theta)
    if batch_size < 1:
        raise ParameterError("batch_size must be positive")
    _parse_direction(direction)

    resolved = []
    for d in deltas:
        m, d_c = _resolve_multiple(d, config.dt_stored)
        needed = _points_needed(estimator, m)
        if config.n_stored < needed:
            raise InsufficientDataError(
                f"delta={d} needs {needed} stored points, run stores {config.n_stored}"
            )
        resolved.append((m, d_c))

    values = np.empty((len(resolved), n_realizations))
    first = 0
    while first < n_realizations:
        count = min(batch_size, n_realizations - first)
        block = simulate_ensemble(flow, config, count, first_realization=first)
        noise = [[noise_generator(config.seed, first + i, j) if theta > 0.0 else None
                  for j in range(len(resolved))] for i in range(count)]
        entries = np.empty((count, len(resolved), 2, 2))

        def reduce(rows: slice) -> None:
            work = _row_buffers(config.n_stored)
            for i in range(rows.start, rows.stop):
                for j, (m, d_c) in enumerate(resolved):
                    try:
                        entries[i, j], _ = _reduce_row(estimator, block[i], m, d_c, theta,
                                                       noise[i][j], work)
                    except (InsufficientDataError, ParameterError) as exc:
                        raise type(exc)(f"realization {first + i}: {exc}") from exc

        _run_shares(reduce, count)
        for i in range(count):
            for j in range(len(resolved)):
                tensor = DiffusivityTensor(entries[i, j], estimator)
                values[j, first + i] = directional_component(tensor, direction)
        first += count

    rows = []
    label = flow_label(flow)
    for j, (_, d_c) in enumerate(resolved):
        mean = float(np.mean(values[j]))
        std = float(np.std(values[j], ddof=1))
        rows.append(EnsembleRecord(
            flow=label, kappa=config.kappa, epsilon=config.epsilon, theta=theta,
            delta=d_c, estimator=estimator, direction=direction, mean=mean,
            std=std, stderr=std / math.sqrt(n_realizations),
            n_realizations=n_realizations, t_final=config.t_final,
            dt=config.dt, seed=config.seed,
        ))
    return SweepReport(tuple(rows))


def run_ensemble(flow: FlowSpec, config: SimConfig, estimator: str, delta: float,
                 theta: float = 0.0, n_realizations: int = 1000,
                 direction: str = "y", batch_size: int = 64) -> EnsembleRecord:
    """Single-delta ensemble; identical to a one-entry delta_sweep row."""
    report = delta_sweep(flow, config, estimator, [delta], theta, n_realizations,
                         direction, batch_size)
    return report.rows[0]


def rescaled_config(kappa: float, epsilon: float, alpha_exponent: float,
                    t_final: float = 1.0, seed: int = 0) -> tuple[SimConfig, float]:
    """SimConfig for one rescaled run plus its subsampling interval delta.

    delta = epsilon^alpha; the step divides delta exactly and satisfies
    dt <= epsilon^2 / 50, and the store stride is chosen so the stored
    grid spacing is delta itself.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not (0.0 < alpha_exponent < 2.0):
        raise ParameterError(f"alpha_exponent must lie in (0, 2), got {alpha_exponent!r}")
    delta = epsilon ** alpha_exponent
    fast = epsilon ** 2 / 50.0
    m = max(1, int(math.ceil(delta / fast - 1e-9)))
    dt = delta / m
    config = SimConfig(kappa=kappa, dt=dt, t_final=t_final, epsilon=epsilon,
                       seed=seed, store_stride=m)
    return config, delta


def rescaled_study(flow: FlowSpec, kappa: float, epsilons, alpha_exponent: float,
                   n_realizations: int = 1000, t_final: float = 1.0,
                   estimator: str = "qv", direction: str = "y", theta: float = 0.0,
                   seed: int = 0, batch_size: int = 64) -> SweepReport:
    """Estimator statistics for the rescaled dynamics at each epsilon.

    Every epsilon is observed at delta = epsilon^alpha over the same fixed
    horizon. All configurations are constructed (and therefore validated,
    including the dt <= epsilon^2/50 constraint) before the first
    simulation starts. The same master seed drives every epsilon, so the
    comparison across epsilons is paired. epsilon = 1 reduces to the
    unrescaled pipeline bitwise.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ParameterError("epsilons must be non-empty")
    planned = [rescaled_config(kappa, eps, alpha_exponent, t_final, seed)
               for eps in epsilons]
    rows = []
    for config, delta in planned:
        report = delta_sweep(flow, config, estimator, [delta], theta,
                             n_realizations, direction, batch_size)
        rows.append(report.rows[0])
    return SweepReport(tuple(rows))


# ---------------------------------------------------------------------------
# periodic-shear adjudication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicShearVerdict:
    """Outcome of the empirical test deciding between the two closed forms."""

    sweep: SweepReport
    plateau: float
    candidates: dict[str, float]
    verdict: str
    report: str


def adjudicate_periodic_shear(kappa: float = 0.1, omega: float = 1.0,
                              n_realizations: int = 200, t_final: float = 1000.0,
                              dt: float = 1e-3, deltas=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
                              seed: int = 0, batch_size: int = 64) -> PeriodicShearVerdict:
    """Monte Carlo adjudication between the two candidate closed forms.

    The eddy diffusivity of the sinusoidally modulated shear has two
    inequivalent published expressions (see k_periodic_shear). A long
    quadratic-variation sweep estimates the true plateau as the average of
    the means at the two largest deltas and checks which candidate lies
    within 25% of it. The returned report spells out the comparison.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"dt must be finite and positive, got {dt!r}")
    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 2:
        raise ParameterError("need at least 2 deltas to form a plateau estimate")
    multiples = [int(round(d / dt)) for d in deltas]
    stride = math.gcd(*multiples)
    flow = periodic_shear(omega)
    config = SimConfig(kappa=kappa, dt=dt, t_final=t_final, seed=seed,
                       store_stride=stride)
    sweep = delta_sweep(flow, config, "qv", deltas, 0.0, n_realizations,
                        "y", batch_size)
    plateau = float(np.mean([rec.mean for rec in sweep.rows[-2:]]))
    candidates = {
        "printed": k_periodic_shear(kappa, omega, "printed"),
        "figure": k_periodic_shear(kappa, omega, "figure"),
    }
    hits = {name: abs(plateau - val) <= 0.25 * val for name, val in candidates.items()}
    if hits["printed"] and not hits["figure"]:
        verdict = "printed"
    elif hits["figure"] and not hits["printed"]:
        verdict = "figure"
    elif hits["printed"] and hits["figure"]:
        verdict = "both"
    else:
        verdict = "neither"

    lines = [
        "Periodic-shear eddy diffusivity: empirical adjudication",
        f"flow: sinusoidally modulated shear, kappa={kappa:g}, omega={omega:g}",
        f"ensemble: M={n_realizations}, T={t_final:g}, dt={dt:g}, seed={seed}",
        "",
        "quadratic-variation means by delta:",
    ]
    for rec in sweep.rows:
        lines.append(f"  delta={rec.delta:<8g} mean={rec.mean:.6f}  stderr={rec.stderr:.2e}")
    lines += [
        "",
        f"plateau estimate (mean of the two largest deltas): {plateau:.6f}",
        "",
        "candidate closed forms:",
    ]
    for name, val in candidates.items():
        frm = ("kappa + 1/(4(omega + kappa^2))" if name == "printed"
               else "kappa + kappa/(4(omega^2 + kappa^2))")
        dev = abs(plateau - val) / val
        flag = "within 25%" if hits[name] else "outside 25%"
        lines.append(f"  {name:8s} {frm} = {val:.6f}   relative deviation {dev:.1%} ({flag})")
    lines += [
        "",
        f"verdict: the plateau is consistent with the '{verdict}' candidate"
        if verdict in ("printed", "figure") else
        f"verdict: {verdict} candidates lie within 25% of the plateau",
    ]
    return PeriodicShearVerdict(sweep, plateau, candidates, verdict, "\n".join(lines))


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunPlan:
    """Everything a CLI run needs, parsed from one INI file."""

    flow: FlowSpec
    sim: SimConfig
    estimator: str = "qv"
    deltas: tuple[float, ...] = ()
    theta: float = 0.0
    direction: str = "y"
    realizations: int = 1000
    batch_size: int = 64
    epsilons: tuple[float, ...] = ()
    alpha_exponent: float = 1.0


_FLOW_KEYS = {"kind", *(key for keys in FLOW_PARAMS.values() for key in keys)}
_SIM_KEYS = {"kappa", "dt", "t_final", "epsilon", "x0", "eta0", "seed",
             "store_stride", "burn_in"}
_EST_KEYS = {"estimator", "delta", "theta", "direction"}
_SWEEP_KEYS = {"realizations", "batch_size", "epsilons", "alpha_exponent"}


def _build_flow(options: dict) -> FlowSpec:
    kind = options.pop("kind", None)
    if kind is None:
        raise ConfigError("[flow] must set kind")
    if kind not in FLOW_PARAMS:
        raise ConfigError(f"unknown flow kind {kind!r}")
    params = FLOW_PARAMS[kind]
    missing = [k for k in params if k not in options]
    if missing:
        raise ConfigError(f"flow kind {kind!r} requires keys {missing}")
    extra = sorted(set(options) - set(params))
    if extra:
        raise ConfigError(f"[flow] keys {extra} do not apply to kind {kind!r}")
    try:
        values = {k: float(options[k]) for k in params}
    except ValueError as exc:
        raise ConfigError(f"bad [flow] value: {exc}") from None
    try:
        return FlowSpec(kind, **values)
    except ParameterError as exc:
        raise ConfigError(f"bad [flow] parameters: {exc}") from exc


def _floats(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(float(p) for p in parts)


def parse_config(source) -> RunPlan:
    """Parse an INI run description (path, file object, or literal text).

    Sections [flow] and [simulation] are required for simulation-backed
    commands; [estimation] and [sweep] provide estimator and ensemble
    settings with the documented defaults. Unknown sections or keys raise
    ConfigError so typos never silently fall back to defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        elif isinstance(source, str) and "\n" in source:
            parser.read_string(source)
        elif os.path.exists(source):
            with open(source) as fh:
                parser.read_file(fh)
        else:
            raise ConfigError(f"config file not found: {source!r}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    known = {"flow": _FLOW_KEYS, "simulation": _SIM_KEYS,
             "estimation": _EST_KEYS, "sweep": _SWEEP_KEYS}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(parser[section]) - known[section]
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
    if not parser.has_section("flow"):
        raise ConfigError("missing [flow] section")
    if not parser.has_section("simulation"):
        raise ConfigError("missing [simulation] section")

    flow = _build_flow(dict(parser["flow"]))

    sim_raw = dict(parser["simulation"])
    if "kappa" not in sim_raw:
        raise ConfigError("[simulation] must set kappa")
    try:
        kwargs = {"kappa": float(sim_raw.pop("kappa"))}
        for key, cast in (("dt", float), ("t_final", float), ("epsilon", float),
                          ("seed", int), ("store_stride", int), ("burn_in", float)):
            if key in sim_raw:
                kwargs[key] = cast(sim_raw.pop(key))
        if "x0" in sim_raw:
            x0 = _floats(sim_raw.pop("x0"))
            if len(x0) != 2:
                raise ConfigError("x0 must have two components")
            kwargs["x0"] = x0
        if "eta0" in sim_raw:
            raw = sim_raw.pop("eta0")
            kwargs["eta0"] = raw if raw == "stationary" else float(raw)
        sim = SimConfig(**kwargs)
    except (ValueError, ParameterError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad [simulation] value: {exc}") from exc

    est_raw = dict(parser["estimation"]) if parser.has_section("estimation") else {}
    sweep_raw = dict(parser["sweep"]) if parser.has_section("sweep") else {}
    try:
        plan = RunPlan(
            flow=flow,
            sim=sim,
            estimator=est_raw.get("estimator", "qv"),
            deltas=_floats(est_raw["delta"]) if "delta" in est_raw else (),
            theta=float(est_raw.get("theta", 0.0)),
            direction=est_raw.get("direction", "y"),
            realizations=int(sweep_raw.get("realizations", 1000)),
            batch_size=int(sweep_raw.get("batch_size", 64)),
            epsilons=_floats(sweep_raw["epsilons"]) if "epsilons" in sweep_raw else (),
            alpha_exponent=float(sweep_raw.get("alpha_exponent", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad estimation/sweep value: {exc}") from exc
    if plan.estimator not in ESTIMATORS:
        raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {plan.estimator!r}")
    return plan
