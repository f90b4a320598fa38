"""Monte Carlo experiment driver: ensembles, delta sweeps, rescaled studies.

Every ensemble statistic is reproducible from (flow, config, master seed)
alone: realization r draws from substreams keyed by (seed, r), values are
stored in realization order and reduced with a fixed summation order, so
the way the rows are split never changes a digit. Within a sweep the
trajectories are simulated once and re-subsampled at every delta,
mirroring how a single observed dataset is analyzed at several sampling
rates (this also gives the delta-to-delta comparison a common noise
background).

A sweep makes one ``dynamics.simulate_ensemble`` call for all its rows
and hands it the one row reduction of the estimators, which
``estimators.estimate_tensor`` and the library estimators call too. That
call alone splits the rows, into rounds whose shares run the reduction
as soon as their rows are integrated: a shear block's per-CPU share
threads, so a sweep holds one round of stored paths, never an (M,
n_stored, 2) block, and a cellular block's one share, in the calling
thread. Neither the share thread count nor the group size changes a digit.
``run_ensemble`` and the INI [sweep] section still accept a ``batch_size``,
which they check and drop: it changes nothing.
Noise streams and direction values are made in the calling thread; the
shares only draw and reduce.

The rules for valid inputs live with their owners: the flow kinds and their
parameters in ``fields``, the estimators, the points each needs and direction
specs in ``estimators``, numeric domains (theta, counts, steps) in
``errors``. This module and the CLI only call those checks. ``_value`` reads
every INI value and CLI value flag as an int, else a float, else the text,
and leaves its type and domain to its owner: a config file's [flow] and
[simulation] keys are the fields of FlowSpec and SimConfig, which build those
sections, and its [estimation] and [sweep] sections are checked by RunPlan.
"""

from __future__ import annotations

import configparser
import inspect
import io
import math
import os
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np

from .dynamics import SimConfig, noise_generator, simulate_ensemble
from .errors import (
    ConfigError,
    InsufficientDataError,
    ParameterError,
    finite,
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
from .fields import FlowSpec, flow_label, periodic_shear
from .theory import k_periodic_shear

# the EnsembleRecord fields in order, n_realizations as M and t_final as T
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
        own = io.StringIO()
        own.write(",".join(_CSV_COLUMNS) + "\n")
        for rec in self.rows:
            own.write(",".join(_format_cell(value) for value in astuple(rec)) + "\n")
        text = own.getvalue()
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as fh:
                fh.write(text)


def delta_sweep(flow: FlowSpec, config: SimConfig, estimator: str, deltas,
                theta: float = 0.0, n_realizations: int = 1000,
                direction: str = "y") -> SweepReport:
    """One record per delta, all deltas sharing the same M trajectories.

    All M realizations run in one ``simulate_ensemble`` call, which
    reduces every row on its simulation's shares (one thread per CPU for a
    shear block, the calling thread for a cellular one), round by round,
    making each round's streams and work buffers just before it runs. A
    shear share integrates and reduces groups whose stored paths and chunk
    buffers fit ``dynamics._GROUP_BYTES`` (4 MiB; two rows of 10^5 points),
    a cellular round ``dynamics._CELL_ROWS`` rows, so only the (n_delta, M)
    values and entries grow with M. Realization r's value at the j-th
    delta is bitwise ``directional_component(estimators.estimate_tensor(
    traj_r, estimator, delta_j, theta, noise_generator(seed, r, j)),
    direction)``, whatever the group size and the share thread count.
    Observation noise is thus drawn independently per (realization, delta)
    from streams disjoint from the dynamics streams. Estimator statistics
    use the sample standard deviation (ddof=1); stderr = std / sqrt(M).
    The values do not depend on the BLAS thread pool either; they are
    bitwise per (host CPU features, numpy build).
    """
    deltas = [positive("delta", d) for d in deltas]
    if not deltas:
        raise ParameterError("deltas must be non-empty")
    n_realizations = integer("n_realizations", n_realizations, 2)
    theta = nonnegative("theta", theta)
    _parse_direction(direction)

    resolved = []
    for d in deltas:
        m, d_c = _resolve_multiple(d, config.dt_stored)
        _check_points(estimator, d_c, m, config.n_stored)
        resolved.append((m, d_c))

    def reduction(rows: range):
        noise = [[noise_generator(config.seed, i, j) if theta > 0.0 else None
                  for j in range(len(resolved))] for i in rows]
        diffs = np.empty((config.n_stored, 2))

        def row(i: int, path: np.ndarray) -> np.ndarray:
            entries = np.empty((len(resolved), 2, 2))
            for j, (m, d_c) in enumerate(resolved):
                try:
                    entries[j], _ = _reduce_row(estimator, path, m, d_c, theta,
                                                noise[i - rows.start][j], diffs)
                except (InsufficientDataError, ParameterError, FloatingPointError) as exc:
                    raise type(exc)(f"realization {i}: {exc}") from exc
            return entries

        return row

    entries = simulate_ensemble(flow, config, n_realizations, reduce=reduction)
    values = np.empty((len(resolved), n_realizations))
    for i, row_entries in enumerate(entries):
        values[:, i] = [directional_component(DiffusivityTensor(e, estimator), direction)
                        for e in row_entries]

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
    """Single-delta ensemble; identical to a one-entry delta_sweep row.

    ``batch_size`` is checked (an integer >= 1) and changes nothing.
    """
    integer("batch_size", batch_size, 1)
    report = delta_sweep(flow, config, estimator, [delta], theta, n_realizations,
                         direction)
    return report.rows[0]


def rescaled_config(kappa: float, epsilon: float, alpha_exponent: float,
                    t_final: float = 1.0, seed: int = 0) -> tuple[SimConfig, float]:
    """SimConfig for one rescaled run plus its subsampling interval delta.

    delta = epsilon^alpha; the step divides delta exactly and satisfies
    dt <= epsilon^2 / 50, and the store stride is chosen so the stored
    grid spacing is delta itself.
    """
    epsilon = positive("epsilon", epsilon)
    if epsilon > 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    alpha_exponent = positive("alpha_exponent", alpha_exponent)
    if alpha_exponent >= 2.0:
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
                   seed: int = 0) -> SweepReport:
    """Estimator statistics for the rescaled dynamics at each epsilon.

    Every epsilon is observed at delta = epsilon^alpha over the same fixed
    horizon. All configurations are constructed (and therefore validated,
    including the dt <= epsilon^2/50 constraint) and each is checked to
    store enough points for the estimator at its delta before the first
    simulation starts. The same master seed drives every epsilon, so the
    comparison across epsilons is paired. epsilon = 1 reduces to the
    unrescaled pipeline bitwise.
    """
    epsilons = list(epsilons)
    if not epsilons:
        raise ParameterError("epsilons must be non-empty")
    planned = [rescaled_config(kappa, eps, alpha_exponent, t_final, seed)
               for eps in epsilons]
    for config, delta in planned:
        _check_points(estimator, delta, 1, config.n_stored)
    return SweepReport(tuple(
        run_ensemble(flow, config, estimator, delta, theta, n_realizations, direction)
        for config, delta in planned))


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
                              seed: int = 0) -> PeriodicShearVerdict:
    """Monte Carlo adjudication between the two candidate closed forms.

    The eddy diffusivity of the sinusoidally modulated shear has two
    inequivalent published expressions (see k_periodic_shear). A long
    quadratic-variation sweep estimates the true plateau as the average of
    the means at the two largest deltas and checks which candidate lies
    within 25% of it. The returned report spells out the comparison.
    """
    dt = positive("dt", dt)
    deltas = sorted(positive("delta", d) for d in deltas)
    if len(deltas) < 2:
        raise ParameterError("need at least 2 deltas to form a plateau estimate")
    multiples = [_resolve_multiple(d, dt)[0] for d in deltas]
    stride = math.gcd(*multiples)
    flow = periodic_shear(omega)
    config = SimConfig(kappa=kappa, dt=dt, t_final=t_final, seed=seed,
                       store_stride=stride)
    sweep = delta_sweep(flow, config, "qv", deltas, 0.0, n_realizations, "y")
    plateau = float(np.mean([rec.mean for rec in sweep.rows[-2:]]))
    candidates = {
        "printed": k_periodic_shear(kappa, omega, "printed"),
        "figure": k_periodic_shear(kappa, omega, "figure"),
    }
    hits = {name: abs(plateau - val) <= 0.25 * val for name, val in candidates.items()}
    inside = [name for name, hit in hits.items() if hit]
    verdict = inside[0] if len(inside) == 1 else "both" if inside else "neither"

    lines = [
        "Periodic-shear eddy diffusivity: empirical adjudication",
        f"flow: sinusoidally modulated shear, kappa={kappa:g}, omega={omega:g}",
        f"ensemble: M={sweep.rows[0].n_realizations}, T={t_final:g}, dt={dt:g}, seed={config.seed}",
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
    ``errors``. Each number is stored as the float or int its check returns;
    epsilons and alpha_exponent, which only ``rescaled_study`` reads, are
    checked as finite here.
    """

    flow: FlowSpec
    sim: SimConfig
    estimator: str = "qv"
    deltas: tuple[float, ...] = ()
    theta: float = _SWEEP_PARAMS["theta"].default
    direction: str = _SWEEP_PARAMS["direction"].default
    realizations: int = _SWEEP_PARAMS["n_realizations"].default
    epsilons: tuple[float, ...] = ()
    alpha_exponent: float = 1.0

    def __post_init__(self) -> None:
        _check_estimator(self.estimator)
        object.__setattr__(self, "deltas", tuple(positive("delta", d) for d in self.deltas))
        object.__setattr__(self, "theta", nonnegative("theta", self.theta))
        _parse_direction(self.direction)
        object.__setattr__(self, "realizations", integer("realizations", self.realizations, 2))
        object.__setattr__(self, "epsilons", tuple(finite("epsilon", e) for e in self.epsilons))
        object.__setattr__(self, "alpha_exponent", finite("alpha_exponent", self.alpha_exponent))


def _value(text: str):
    """int(text), else float(text), else the text: every INI value and CLI value flag.

    Its owner (FlowSpec, SimConfig, RunPlan or the library function called)
    checks its type and domain. "-0" is read as the float -0.0, so a float
    value keeps its sign.
    """
    for cast in (int, float):
        try:
            number = cast(text)
        except ValueError:
            continue
        return -0.0 if cast is int and not number and "-" in text else number
    return text


# the keys of each INI section: [flow] keys are the FlowSpec fields and
# [simulation] keys the SimConfig fields, [estimation] and [sweep] keys the
# RunPlan fields (delta fills deltas, and batch_size is checked and dropped).
# A key left out keeps the dataclass default. The list keys are read word by
# word, split on commas and spaces.
_SECTIONS = {
    "flow": tuple(f.name for f in fields(FlowSpec)),
    "simulation": tuple(f.name for f in fields(SimConfig)),
    "estimation": ("estimator", "delta", "theta", "direction"),
    "sweep": ("realizations", "batch_size", "epsilons", "alpha_exponent"),
}
_LISTS = ("x0", "delta", "epsilons")


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
    ConfigError so typos never silently fall back to defaults. [sweep]
    batch_size is checked (an integer >= 1) and dropped: it changes nothing.
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

    values = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(parser[section]).difference(_SECTIONS[section])
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
        for key, text in parser[section].items():
            values[section][key] = (tuple(map(_value, text.replace(",", " ").split()))
                                    if key in _LISTS else _value(text))
    for section in ("flow", "simulation"):
        if not parser.has_section(section):
            raise ConfigError(f"missing [{section}] section")

    given = {"flow": _build(FlowSpec, "flow", values["flow"]),
             "sim": _build(SimConfig, "simulation", values["simulation"])}
    if "delta" in values["estimation"]:
        values["estimation"]["deltas"] = values["estimation"].pop("delta")
    batch_size = values["sweep"].pop("batch_size", 1)
    # [estimation] is checked before [sweep] joins it, so a refusal names its section
    for section in ("estimation", "sweep"):
        given.update(values[section])
        plan = _build(RunPlan, section, given)
    try:
        integer("batch_size", batch_size, 1)
    except ParameterError as exc:
        raise ConfigError(f"bad [sweep] value: {exc}") from exc
    return plan
