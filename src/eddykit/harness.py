"""Monte Carlo experiment driver: ensembles, delta sweeps, rescaled studies.

Every ensemble statistic is reproducible from (flow, config, master seed)
alone: realization r draws from substreams keyed by (seed, r), values are
stored in realization order and reduced with a fixed summation order, so
the batch size never changes a digit. Within a sweep the trajectories are
simulated once and re-subsampled at every delta, mirroring how a single
observed dataset is analyzed at several sampling rates (this also gives
the delta-to-delta comparison a common noise background).

A sweep hands ``dynamics.simulate_ensemble`` the one row reduction of the
estimators, which ``estimators.estimate_tensor`` and the library
estimators call too, and the simulation's row shares (one thread per CPU)
run it. A shear share reduces each group of rows as soon as it is
integrated, so a sweep holds one group of stored paths per share, never
a (batch, n_stored, 2) block; a cellular block is reduced on the shares
once its step loop is done. Neither the thread count nor the group size
changes a digit. Noise streams and direction values are made in the
calling thread; the shares only draw and reduce.

The rules for valid inputs live with their owners: the flow kinds and their
parameters in ``fields``, the estimators, the points each needs and direction
specs in ``estimators``, numeric domains (theta, counts, steps) in
``errors``. This module and the CLI only call those checks; a config file's
[flow] and [simulation] sections are built by FlowSpec and SimConfig, and
its [estimation] and [sweep] sections are checked by RunPlan.
"""

from __future__ import annotations

import configparser
import inspect
import io
import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .dynamics import SimConfig, noise_generator, simulate_ensemble
from .errors import (
    ConfigError,
    InsufficientDataError,
    ParameterError,
    integer,
    nonnegative,
    positive,
)
from .estimators import (
    DiffusivityTensor,
    _check_estimator,
    _check_points,
    _parse_direction,
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

    Realizations run in blocks of ``batch_size``, one ``simulate_ensemble``
    call each, which reduces every row on its simulation's row shares (one
    thread per CPU; each share allocates its work buffers once). A shear
    share integrates and reduces its rows in groups of at most
    ``dynamics._GROUP_BYTES`` of stored paths, so memory is bounded per
    share, not by batch_size times n_stored. Realization r's value at the
    j-th delta is bitwise ``directional_component(
    estimators.estimate_tensor(traj_r, estimator, delta_j, theta,
    noise_generator(seed, r, j)), direction)``, whatever the batch size,
    the group size and the thread count. Observation noise is thus
    drawn independently per (realization, delta) from streams disjoint from
    the dynamics streams. Estimator statistics use the sample standard
    deviation (ddof=1); stderr = std / sqrt(M).
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ParameterError("deltas must be non-empty")
    n_realizations = integer("n_realizations", n_realizations, 2)
    nonnegative("theta", theta)
    batch_size = integer("batch_size", batch_size, 1)
    _parse_direction(direction)

    resolved = []
    for d in deltas:
        m, d_c = _resolve_multiple(d, config.dt_stored)
        _check_points(estimator, d_c, m, config.n_stored)
        resolved.append((m, d_c))

    values = np.empty((len(resolved), n_realizations))
    first = 0
    while first < n_realizations:
        count = min(batch_size, n_realizations - first)
        noise = [[noise_generator(config.seed, first + i, j) if theta > 0.0 else None
                  for j in range(len(resolved))] for i in range(count)]

        def reduction():
            work = _row_buffers(config.n_stored)

            def row(i: int, path: np.ndarray) -> np.ndarray:
                entries = np.empty((len(resolved), 2, 2))
                for j, (m, d_c) in enumerate(resolved):
                    try:
                        entries[j], _ = _reduce_row(estimator, path, m, d_c, theta,
                                                    noise[i][j], work)
                    except (InsufficientDataError, ParameterError) as exc:
                        raise type(exc)(f"realization {first + i}: {exc}") from exc
                return entries

            return row

        entries = simulate_ensemble(flow, config, count, first_realization=first,
                                    reduce=reduction)
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
    positive("dt", dt)
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


_SWEEP_PARAMS = inspect.signature(delta_sweep).parameters


@dataclass(frozen=True)
class RunPlan:
    """Everything a CLI run needs, parsed from one INI file.

    The sweep settings take delta_sweep's defaults and are checked when the
    plan is built, by the checks delta_sweep calls: the estimator and the
    direction spec by ``estimators``, theta, each delta and the counts by
    ``errors``.
    """

    flow: FlowSpec
    sim: SimConfig
    estimator: str = "qv"
    deltas: tuple[float, ...] = ()
    theta: float = _SWEEP_PARAMS["theta"].default
    direction: str = _SWEEP_PARAMS["direction"].default
    realizations: int = _SWEEP_PARAMS["n_realizations"].default
    batch_size: int = _SWEEP_PARAMS["batch_size"].default
    epsilons: tuple[float, ...] = ()
    alpha_exponent: float = 1.0

    def __post_init__(self) -> None:
        _check_estimator(self.estimator)
        for delta in self.deltas:
            positive("delta", delta)
        nonnegative("theta", self.theta)
        _parse_direction(self.direction)
        integer("realizations", self.realizations, 2)
        integer("batch_size", self.batch_size, 1)


def _floats(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(float(p) for p in parts)


def _eta0(text: str) -> float | str:
    return text if text == "stationary" else float(text)


# the INI schema, one {key: cast} table per section. [flow] keys are the
# FlowSpec fields and [simulation] keys the SimConfig fields of their name,
# [estimation] and [sweep] keys the RunPlan fields (the key delta fills
# deltas). A key left out keeps the dataclass default.
_SCHEMA = {
    "flow": {"kind": str, **{key: float for keys in FLOW_PARAMS.values() for key in keys}},
    "simulation": {"kappa": float, "dt": float, "t_final": float, "epsilon": float,
                   "x0": _floats, "eta0": _eta0, "seed": int, "store_stride": int,
                   "burn_in": float},
    "estimation": {"estimator": str, "delta": _floats, "theta": float, "direction": str},
    "sweep": {"realizations": int, "batch_size": int, "epsilons": _floats,
              "alpha_exponent": float},
}


def _build(cls, section: str, values: dict):
    """cls(**values), refusing a missing required field or a bad value as ConfigError."""
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"[{section}] must set {', '.join(missing)}")
    try:
        return cls(**values)
    except ValueError as exc:  # ParameterError included
        raise ConfigError(f"bad [{section}] value: {exc}") from exc


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

    values = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        schema = _SCHEMA.get(section)
        if schema is None:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(parser[section]).difference(schema)
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
        for key, text in parser[section].items():
            try:
                values[section][key] = schema[key](text)
            except ValueError as exc:
                raise ConfigError(f"bad [{section}] value for {key}: {exc}") from exc
    for section in ("flow", "simulation"):
        if not parser.has_section(section):
            raise ConfigError(f"missing [{section}] section")

    given = {"flow": _build(FlowSpec, "flow", values["flow"]),
             "sim": _build(SimConfig, "simulation", values["simulation"])}
    if "delta" in values["estimation"]:
        values["estimation"]["deltas"] = values["estimation"].pop("delta")
    # [estimation] is checked before [sweep] joins it, so a refusal names its section
    for section in ("estimation", "sweep"):
        given.update(values[section])
        plan = _build(RunPlan, section, given)
    return plan
