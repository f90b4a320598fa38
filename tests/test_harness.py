"""Tests for the ensemble harness, config parsing and the CLI.

The bitwise invariants matter most here: realization streams are keyed by
(seed, realization, source), so results must not depend on batch size, on
whether deltas share a sweep, or on epsilon = 1 going through the rescaled
path. CLI tests drive main() in process and assert on exit codes.
"""

import csv
import inspect
import io
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest

from eddykit import (
    ConfigError,
    EnsembleRecord,
    InsufficientDataError,
    IntegrationBlowupError,
    ObservationSeries,
    ParameterError,
    SimConfig,
    SweepReport,
    Trajectory,
    add_observation_noise,
    adjudicate_periodic_shear,
    delta_sweep,
    directional_component,
    k_periodic_shear,
    parse_config,
    qv_expectation_shear,
    rescaled_config,
    rescaled_study,
    run_ensemble,
    simulate_em,
    simulate_ensemble,
    spectral_diffusivity,
    steady_shear,
    taylor_green,
)
from eddykit import dynamics, harness
from eddykit.cli import build_parser, main
from eddykit.dynamics import noise_generator
from eddykit.estimators import ESTIMATORS, estimate_tensor
from eddykit.harness import _CSV_COLUMNS

FLOW = steady_shear()
FAST = SimConfig(kappa=0.5, dt=0.01, t_final=2.0, seed=1, store_stride=2)


def _record(**overrides) -> EnsembleRecord:
    base = dict(flow="shear", kappa=0.5, epsilon=1.0, theta=0.0, delta=0.1,
                estimator="qv", direction="y", mean=1.0, std=0.2,
                stderr=0.2 / math.sqrt(16), n_realizations=16, t_final=2.0,
                dt=0.01, seed=1)
    base.update(overrides)
    return EnsembleRecord(**base)


# ---------------------------------------------------------------------------
# report invariants and CSV schema
# ---------------------------------------------------------------------------


def test_report_rejects_inconsistent_stderr():
    with pytest.raises(ParameterError):
        SweepReport((_record(stderr=0.9),))
    SweepReport((_record(),))


def test_csv_schema_and_roundtrip(tmp_path):
    report = SweepReport((_record(), _record(delta=0.2, mean=1.0 / 3.0)))
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "flow,kappa,epsilon,theta,delta,estimator,direction,mean,std,stderr,M,T,dt,seed"
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 2
    assert rows[0]["flow"] == "shear"
    assert rows[0]["M"] == "16" and rows[0]["T"] == "2"
    # 17 significant digits survive the text round trip bitwise
    assert float(rows[1]["mean"]) == 1.0 / 3.0
    path = tmp_path / "rows.csv"
    report.to_csv(path)
    assert path.read_text().splitlines()[0] == ",".join(_CSV_COLUMNS)


# ---------------------------------------------------------------------------
# sweep mechanics
# ---------------------------------------------------------------------------


def test_run_ensemble_is_a_one_delta_sweep():
    rec = run_ensemble(FLOW, FAST, "qv", 0.1, n_realizations=8)
    row = delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8).rows[0]
    assert rec == row


def test_qv_and_shift_coincide_at_j_one():
    qv = delta_sweep(FLOW, FAST, "qv", [FAST.dt_stored], n_realizations=8).rows[0]
    shift = delta_sweep(FLOW, FAST, "shift", [FAST.dt_stored], n_realizations=8).rows[0]
    box = delta_sweep(FLOW, FAST, "box", [FAST.dt_stored], n_realizations=8).rows[0]
    assert qv.mean == shift.mean == box.mean
    assert qv.std == shift.std == box.std


@pytest.mark.parametrize("theta", [0.0, 0.2])
def test_results_do_not_depend_on_batch_size(theta):
    reports = [
        delta_sweep(FLOW, FAST, "qv", [0.1, 0.2], theta=theta, n_realizations=10,
                    batch_size=bs)
        for bs in (1, 3, 64)
    ]
    for other in reports[1:]:
        assert other.rows == reports[0].rows


def test_deltas_share_trajectories():
    pair = delta_sweep(FLOW, FAST, "qv", [0.1, 0.2], n_realizations=8)
    single = delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8)
    assert pair.rows[0] == single.rows[0]
    # and the noisy case keeps the first delta's noise stream aligned
    pair_n = delta_sweep(FLOW, FAST, "qv", [0.1, 0.2], theta=0.1, n_realizations=8)
    single_n = delta_sweep(FLOW, FAST, "qv", [0.1], theta=0.1, n_realizations=8)
    assert pair_n.rows[0] == single_n.rows[0]


def _csv(report) -> str:
    out = io.StringIO()
    report.to_csv(out)
    return out.getvalue()


@pytest.mark.parametrize("flow", [steady_shear(), taylor_green()], ids=lambda f: f.kind)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_sweep_rows_do_not_depend_on_shares_or_batches(monkeypatch, flow, estimator):
    # the reduction runs on min(CPUs, rows) shares for every flow, and a
    # shear share integrates and reduces its rows in groups of one row, of
    # three (the last group of a share partial) or of the whole share
    config = SimConfig(kappa=0.5, dt=0.01, t_final=2.0, seed=3)
    row_bytes = config.n_stored * 2 * 8
    texts = set()
    for budget in (row_bytes, 3 * row_bytes, dynamics._GROUP_BYTES):
        monkeypatch.setattr(dynamics, "_GROUP_BYTES", budget)
        for cpus in (1, 3):
            monkeypatch.setattr(dynamics, "_cpu_count", lambda cpus=cpus: cpus)
            for batch_size in (5, 64):
                texts.add(_csv(delta_sweep(flow, config, estimator, [0.01, 0.05, 0.3],
                                           theta=0.05, n_realizations=13,
                                           direction="xi:1,2", batch_size=batch_size)))
    assert len(texts) == 1


@pytest.mark.parametrize("batch_size", [3, 10])
def test_reduction_error_names_its_realization(monkeypatch, batch_size):
    # realizations 4 and 8 fail in different shares; one thread meets 4 first
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 3)
    block = simulate_ensemble(FLOW, FAST, 10)
    reduce_row = harness._reduce_row

    def failing(estimator, row, *args):
        if any(np.array_equal(row, block[r]) for r in (4, 8)):
            raise ParameterError("bad row")
        return reduce_row(estimator, row, *args)

    monkeypatch.setattr(harness, "_reduce_row", failing)
    with pytest.raises(ParameterError, match="^realization 4: bad row$"):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=10, batch_size=batch_size)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("group_rows", [1, 2])
def test_sweep_errors_do_not_depend_on_groups(monkeypatch, cpus, group_rows):
    # one _block call over the whole batch raises its earliest blow-up, ties
    # going to the lowest realization; a blow-up anywhere in the batch
    # outranks a reduction error, which names the lowest failing realization
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", group_rows * FAST.n_stored * 2 * 8)
    block = simulate_ensemble(FLOW, FAST, 12)
    reduce_row, run_block = harness._reduce_row, dynamics._block
    failing_rows, blowups = (), {}

    def failing(estimator, row, *args):
        if any(np.array_equal(row, block[r]) for r in failing_rows):
            raise ParameterError("bad row")
        return reduce_row(estimator, row, *args)

    def blowing_block(flow, config, first, gens, ou, out):
        run_block(flow, config, first, gens, ou, out)
        hit = [(blowups[r], r) for r in range(first, first + len(gens)) if r in blowups]
        if hit:
            step, r = min(hit)
            raise IntegrationBlowupError(step, f"realization {r} at step {step}")

    monkeypatch.setattr(harness, "_reduce_row", failing)
    monkeypatch.setattr(dynamics, "_block", blowing_block)
    cases = [
        ((4, 8, 10), {}, ParameterError, "^realization 4: bad row$"),
        ((0, 1), {11: 40}, IntegrationBlowupError, "^realization 11 at step 40$"),
        ((0,), {9: 30, 2: 50, 5: 30, 11: 30}, IntegrationBlowupError,
         "^realization 5 at step 30$"),
    ]
    for failing_rows, blowups, error, message in cases:
        with pytest.raises(error, match=message):
            delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=12, batch_size=12)
    # a real blow-up: every group goes non-finite in its first chunk
    monkeypatch.setattr(dynamics, "_block", run_block)
    overflow = SimConfig(kappa=1e308, dt=1.0, t_final=10.0)
    with pytest.raises(IntegrationBlowupError, match="realization 0 between steps 0 and 10"):
        delta_sweep(FLOW, overflow, "qv", [1.0], n_realizations=6)


def test_sweep_memory_is_bounded_by_the_group_budget(monkeypatch):
    # a full-resolution batch would be (64, 20001, 2) doubles, 20 MB; each of
    # two shares holds a group of two paths, a reduction buffer and the
    # chunk buffers instead
    config = SimConfig(kappa=0.5, dt=0.01, t_final=200.0, seed=5)
    m = 64
    block_bytes = m * config.n_stored * 2 * 8
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", 2 * config.n_stored * 2 * 8)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    tracemalloc.start()
    try:
        delta_sweep(steady_shear(), config, "box", [0.01, 0.1], 0.05, m, "x", batch_size=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes / 4


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_sweep_values_are_estimate_tensor_bitwise(monkeypatch, estimator):
    # library, CLI and sweep share one reduction: realization r's value at
    # the j-th delta is the one estimate_tensor gives with stream (seed, r, j)
    config = SimConfig(kappa=0.5, dt=0.01, t_final=2.0, seed=9)
    deltas, theta, direction, m = [0.01, 0.04, 0.3], 0.05, "xi:1,2", 7
    seen = []

    def recording(tensor, spec):
        value = directional_component(tensor, spec)
        seen.append(value)
        return value

    monkeypatch.setattr(harness, "directional_component", recording)
    delta_sweep(FLOW, config, estimator, deltas, theta, m, direction, batch_size=3)
    block = simulate_ensemble(FLOW, config, m)
    expected = [
        directional_component(
            estimate_tensor(Trajectory(block[r], config.dt_stored), estimator, d, theta,
                            noise_generator(config.seed, r, j)),
            direction)
        for r in range(m) for j, d in enumerate(deltas)
    ]
    assert seen == expected


def test_sweep_mean_tracks_oracle():
    config = SimConfig(kappa=0.5, dt=0.01, t_final=50.0, seed=4, store_stride=10)
    rec = run_ensemble(steady_shear(), config, "qv", 1.0, n_realizations=64)
    expected = qv_expectation_shear(0.5, 50, 1.0)
    assert abs(rec.mean - expected) < 4.0 * rec.stderr


def test_sweep_validation_happens_before_any_simulation():
    with pytest.raises(ParameterError):
        delta_sweep(FLOW, FAST, "median", [0.1], n_realizations=8)
    with pytest.raises(ParameterError):
        delta_sweep(FLOW, FAST, "qv", [], n_realizations=8)
    with pytest.raises(ParameterError):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=1)
    with pytest.raises(ParameterError):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8, theta=-0.1)
    with pytest.raises(ParameterError):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8, direction="z")
    with pytest.raises(ParameterError):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8, batch_size=0)
    # FAST stores 101 points: qv at delta = 2.0 fits (101 needed), box needs 200
    delta_sweep(FLOW, FAST, "qv", [2.0], n_realizations=2)
    with pytest.raises(InsufficientDataError, match=re.escape(
            "box at delta=2 (100 stored steps) needs at least 200 stored points, got 101")):
        delta_sweep(FLOW, FAST, "box", [2.0], n_realizations=2)


# ---------------------------------------------------------------------------
# rescaled studies
# ---------------------------------------------------------------------------


def test_rescaled_config_arithmetic():
    config, delta = rescaled_config(0.1, 0.4, 1.0, t_final=1.0, seed=3)
    assert delta == pytest.approx(0.4)
    assert config.store_stride == 125  # ceil(0.4 / 0.0032)
    assert config.dt == pytest.approx(0.4 / 125)
    assert config.dt_stored == pytest.approx(delta)
    assert config.dt <= 0.4 ** 2 / 50.0 * (1 + 1e-12)
    with pytest.raises(ParameterError):
        rescaled_config(0.1, 1.5, 1.0)
    with pytest.raises(ParameterError):
        rescaled_config(0.1, 0.4, 2.0)
    with pytest.raises(ParameterError):
        rescaled_config(0.1, 0.4, 0.0)


def test_rescaled_epsilon_one_reduces_to_plain_sweep():
    study = rescaled_study(FLOW, 0.5, [1.0], 1.0, n_realizations=6, t_final=2.0)
    config, delta = rescaled_config(0.5, 1.0, 1.0, t_final=2.0, seed=0)
    plain = delta_sweep(FLOW, config, "qv", [delta], n_realizations=6)
    assert study.rows == plain.rows
    assert study.rows[0].epsilon == 1.0


def test_rescaled_study_is_paired_and_validated_upfront():
    study = rescaled_study(FLOW, 0.5, [0.4, 0.2], 1.0, n_realizations=4, t_final=0.5)
    assert [r.epsilon for r in study.rows] == [0.4, 0.2]
    assert all(r.seed == 0 for r in study.rows)
    with pytest.raises(ParameterError):
        rescaled_study(FLOW, 0.5, [], 1.0, n_realizations=4)
    with pytest.raises(ParameterError):
        rescaled_study(FLOW, 0.5, [0.4, 1.7], 1.0, n_realizations=4)


# ---------------------------------------------------------------------------
# adjudication harness (small instance; the full run is an acceptance test)
# ---------------------------------------------------------------------------


def test_adjudication_structure():
    verdict = adjudicate_periodic_shear(n_realizations=8, t_final=40.0,
                                        deltas=(0.5, 1.0, 2.0), seed=2)
    assert [r.delta for r in verdict.sweep.rows] == [0.5, 1.0, 2.0]
    assert verdict.plateau == pytest.approx(
        0.5 * (verdict.sweep.rows[-1].mean + verdict.sweep.rows[-2].mean))
    assert verdict.candidates["printed"] == k_periodic_shear(0.1, 1.0, "printed")
    assert verdict.candidates["figure"] == k_periodic_shear(0.1, 1.0, "figure")
    assert verdict.verdict in ("printed", "figure", "both", "neither")
    for needle in ("kappa + 1/(4(omega + kappa^2))",
                   "kappa + kappa/(4(omega^2 + kappa^2))",
                   "plateau estimate", "verdict"):
        assert needle in verdict.report
    with pytest.raises(ParameterError):
        adjudicate_periodic_shear(deltas=(1.0,))


@pytest.mark.parametrize("dt", ["0", "nan"])
def test_cli_adjudicate_rejects_bad_dt(capsys, dt):
    assert main(["oracle", "adjudicate", "--dt", dt]) == 2
    assert "dt must be finite and positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

FULL_CONFIG = textwrap.dedent("""\
    [flow]
    kind = ou_shear
    alpha = 1.0
    sigma = 0.1

    [simulation]
    kappa = 0.1
    dt = 0.005
    t_final = 10.0
    seed = 7
    store_stride = 2
    x0 = 3.14, 0.0
    eta0 = stationary
    burn_in = 1.0

    [estimation]
    estimator = shift
    delta = 0.1 0.2, 0.5
    theta = 0.05
    direction = xi:1,1

    [sweep]
    realizations = 32
    batch_size = 8
    epsilons = 0.4 0.2
    alpha_exponent = 1.0
    """)


def test_parse_full_config():
    plan = parse_config(FULL_CONFIG)
    assert plan.flow.kind == "ou_shear" and plan.flow.alpha == 1.0
    assert plan.sim.kappa == 0.1 and plan.sim.seed == 7
    assert plan.sim.x0 == (3.14, 0.0) and plan.sim.eta0 == "stationary"
    assert plan.sim.burn_in == 1.0
    assert plan.estimator == "shift"
    assert plan.deltas == (0.1, 0.2, 0.5)
    assert plan.theta == 0.05 and plan.direction == "xi:1,1"
    assert plan.realizations == 32 and plan.batch_size == 8
    assert plan.epsilons == (0.4, 0.2) and plan.alpha_exponent == 1.0


def test_parse_minimal_config_defaults():
    plan = parse_config("[flow]\nkind = shear\n\n[simulation]\nkappa = 0.5\n")
    assert plan.flow == steady_shear()
    assert plan.sim.dt == 1e-3 and plan.sim.t_final == 1.0
    assert plan.estimator == "qv" and plan.deltas == ()
    assert plan.direction == "y" and plan.realizations == 1000
    assert plan.epsilons == ()


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL_CONFIG)
    assert parse_config(str(path)) == parse_config(FULL_CONFIG)
    with open(path) as fh:
        assert parse_config(fh) == parse_config(FULL_CONFIG)


@pytest.mark.parametrize("mutation, needle", [
    ("[typo]\nx = 1\n", "unknown section"),
    ("[flow]\nkind = shear\nomega = 1\n\n[simulation]\nkappa = 1\n", "omega is not a parameter of"),
    ("[flow]\nkind = spiral\n\n[simulation]\nkappa = 1\n", "unknown flow kind"),
    ("[flow]\nkind = periodic_shear\n\n[simulation]\nkappa = 1\n",
     "omega must be finite and positive"),
    ("[flow]\nomega = 1\n\n[simulation]\nkappa = 1\n", "must set kind"),
    ("[simulation]\nkappa = 1\n", "missing \\[flow\\]"),
    ("[flow]\nkind = shear\n", "missing \\[simulation\\]"),
    ("[flow]\nkind = shear\n\n[simulation]\ndt = 0.1\n", "must set kappa"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = fast\n", "bad \\[simulation\\]"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\nx0 = 1 2 3\n", "two components"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\nnote = hi\n", "unknown keys"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\n\n[estimation]\nestimator = mad\n",
     "estimator must be"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = -1\n", "bad \\[simulation\\]"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\n\n[sweep]\nrealizations = 1\n",
     "bad \\[sweep\\] value: realizations must be an integer >= 2"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\n\n[sweep]\nbatch_size = 0\n",
     "bad \\[sweep\\] value: batch_size must be an integer >= 1"),
])
def test_parse_config_rejections(mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(mutation)


def test_run_plan_defaults_are_the_sweep_defaults():
    plan = parse_config("[flow]\nkind = shear\n\n[simulation]\nkappa = 0.5\n")
    params = inspect.signature(delta_sweep).parameters
    for field, param in [("theta", "theta"), ("direction", "direction"),
                         ("realizations", "n_realizations"), ("batch_size", "batch_size")]:
        assert getattr(plan, field) == params[param].default


@pytest.mark.parametrize("key, value, needle", [
    ("theta", "-1", "theta must be finite and nonnegative"),
    ("direction", "z", "direction must be x, y or xi:<a>,<b>, got 'z'"),
    ("delta", "0.1 -3", "delta must be finite and positive, got -3.0"),
    ("estimator", "mad", "estimator must be one of"),
])
def test_estimation_section_is_checked_at_parse_time(tmp_path, capsys, key, value, needle):
    # refused while parsing, so even simulate, which ignores the section, exits 2
    text = SIM_CONFIG + f"\n[estimation]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=re.escape(f"bad [estimation] value: {needle}")):
        parse_config(text)
    config = _write(tmp_path, "run.ini", text)
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "x.npz")]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "x.npz").exists()


def test_parse_config_malformed_and_missing():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("kind = shear\nno section header\n")
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.ini")


def test_parse_config_numeric_eta0():
    plan = parse_config(
        "[flow]\nkind = ou_shear\nalpha = 1.0\nsigma = 0.1\n\n"
        "[simulation]\nkappa = 0.5\neta0 = 0.25\n")
    assert plan.sim.eta0 == 0.25


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

SIM_CONFIG = textwrap.dedent("""\
    [flow]
    kind = shear

    [simulation]
    kappa = 0.5
    dt = 0.01
    t_final = 2.0
    seed = 3
    store_stride = 2
    """)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_simulate_estimate_roundtrip(tmp_path, capsys):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    assert main(["simulate", "--config", config, "--output", out]) == 0
    with np.load(out) as data:
        assert data["positions"].shape == (101, 2)
        assert float(data["dt_stored"]) == pytest.approx(0.02)
    capsys.readouterr()
    assert main(["estimate", "--input", out, "--delta", "0.1",
                 "--direction", "y"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("K11 = ")
    assert any(line.startswith("y component = ") for line in lines)
    value = float(lines[0].split("=")[1])
    assert value >= 0.0


def test_cli_estimate_with_noise_is_reproducible(tmp_path, capsys):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    main(["simulate", "--config", config, "--output", out])
    capsys.readouterr()
    args = ["estimate", "--input", out, "--delta", "0.1", "--theta", "0.05",
            "--noise-seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("estimator", ["qv", "box"])
def test_cli_estimate_matches_library(tmp_path, capsys, estimator):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    main(["simulate", "--config", config, "--output", out])
    capsys.readouterr()
    assert main(["estimate", "--input", out, "--estimator", estimator, "--delta", "0.1",
                 "--theta", "0.05", "--noise-seed", "4"]) == 0
    printed = capsys.readouterr().out.splitlines()
    plan = parse_config(config)
    tensor = estimate_tensor(simulate_em(plan.flow, plan.sim), estimator, 0.1, 0.05,
                             noise_generator(4, 0, 0))
    assert printed[0] == f"K11 = {tensor.entries[0, 0]:.12g}"
    assert printed[2] == f"K22 = {tensor.entries[1, 1]:.12g}"


def test_cli_sweep_csv(tmp_path, capsys):
    text = SIM_CONFIG + textwrap.dedent("""\

        [estimation]
        delta = 0.1 0.2

        [sweep]
        realizations = 8
        batch_size = 3
        """)
    config = _write(tmp_path, "run.ini", text)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", config, "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2 and rows[0]["estimator"] == "qv"
    capsys.readouterr()
    # stdout target
    assert main(["sweep", "--config", config, "--output", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(_CSV_COLUMNS)


def test_cli_rescaled_csv(tmp_path):
    text = SIM_CONFIG + textwrap.dedent("""\

        [sweep]
        realizations = 4
        epsilons = 0.4, 1.0
        alpha_exponent = 1.0
        """)
    config = _write(tmp_path, "run.ini", text)
    out = tmp_path / "rescaled.csv"
    assert main(["rescaled", "--config", config, "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [float(r["epsilon"]) for r in rows] == [0.4, 1.0]


RESCALED_SWEEP = "\n[sweep]\nrealizations = 4\nepsilons = 0.4, 1.0\n"


@pytest.mark.parametrize("line", ["x0 = 3.0, 1.0", "eta0 = 0.5", "burn_in = 0.2"])
def test_cli_rescaled_refuses_start_keys_it_cannot_apply(tmp_path, capsys, line):
    config = _write(tmp_path, "run.ini", SIM_CONFIG + line + "\n" + RESCALED_SWEEP)
    assert main(["rescaled", "--config", config, "--output", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(line.split()[0]) in err


def test_cli_rescaled_takes_start_keys_at_their_defaults(tmp_path, capsys):
    plain = _write(tmp_path, "plain.ini", SIM_CONFIG + RESCALED_SWEEP)
    spelled = _write(tmp_path, "spelled.ini", SIM_CONFIG
                     + "x0 = 0.0, 0.0\neta0 = stationary\nburn_in = 0.0\n" + RESCALED_SWEEP)
    assert main(["rescaled", "--config", plain, "--output", "-"]) == 0
    expected = capsys.readouterr().out
    assert main(["rescaled", "--config", spelled, "--output", "-"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_flags_left_out_take_the_library_defaults(capsys):
    parser = build_parser()
    library = set(inspect.signature(adjudicate_periodic_shear).parameters)
    assert not library & set(vars(parser.parse_args(["oracle", "adjudicate"])))
    assert "rtol" not in parser.parse_args(["diffusivity", "--flow", "shear", "--kappa", "1"])
    assert main(["oracle", "adjudicate", "--realizations", "4", "--t-final", "60",
                 "--dt", "0.01"]) == 0
    verdict = adjudicate_periodic_shear(n_realizations=4, t_final=60.0, dt=0.01)
    assert capsys.readouterr().out == verdict.report + "\n"
    assert main(["diffusivity", "--flow", "taylor_green", "--kappa", "0.5"]) == 0
    tensor, _ = spectral_diffusivity(taylor_green(), 0.5)
    assert f"K11 = {tensor.entries[0, 0]:.12g}\n" in capsys.readouterr().out


def test_cli_diffusivity(tmp_path, capsys):
    assert main(["diffusivity", "--flow", "shear", "--kappa", "0.1",
                 "--modes", "8"]) == 0
    out = capsys.readouterr().out
    assert "K22 = 5.1" in out
    csv_path = tmp_path / "diff.csv"
    assert main(["diffusivity", "--flow", "taylor_green", "--kappa", "0.1",
                 "--csv", str(csv_path)]) == 0
    row = list(csv.DictReader(csv_path.read_text().splitlines()))[0]
    assert float(row["k11"]) == pytest.approx(0.34166, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("flow", ["taylor_green", "shear"])
@pytest.mark.parametrize("lam", ["0.9", "7"])
def test_cli_diffusivity_refuses_lam_for_other_flows(capsys, flow, lam):
    assert main(["diffusivity", "--flow", flow, "--kappa", "0.5", "--modes", "8",
                 "--lam", lam]) == 2
    captured = capsys.readouterr()
    assert "lam is not a parameter of" in captured.err and captured.out == ""


def test_cli_diffusivity_childress_soward_lam_defaults_to_one_half(capsys):
    argv = ["diffusivity", "--flow", "childress_soward", "--kappa", "0.5", "--modes", "8"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--lam", "0.5"]) == 0
    assert capsys.readouterr().out == default
    assert main(argv + ["--lam", "0.2"]) == 0
    assert capsys.readouterr().out != default


def test_cli_diffusivity_reports_convergence(capsys):
    assert main(["diffusivity", "--flow", "taylor_green", "--kappa", "0.5"]) == 0
    assert "converged = yes" in capsys.readouterr().out
    assert main(["diffusivity", "--flow", "shear", "--kappa", "0.1",
                 "--modes", "8"]) == 0
    assert "converged = not tested" in capsys.readouterr().out


def test_cli_oracles(capsys):
    assert main(["oracle", "k-shear", "--kappa", "0.1"]) == 0
    assert float(capsys.readouterr().out) == 5.1
    assert main(["oracle", "shear-qv", "--kappa", "0.5", "--n", "100",
                 "--delta", "1.0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.7116942911991108, rel=1e-12, abs=0.0)
    assert main(["oracle", "ou-qv", "--kappa", "0.1", "--alpha", "1.0",
                 "--sigma", "0.1", "--delta", "1.0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.11788723486355701, rel=1e-12, abs=0.0)
    assert main(["oracle", "bias-limit", "--n", "100"]) == 0
    assert float(capsys.readouterr().out) == -0.50125
    assert main(["oracle", "bm-box", "--kappa", "0.1", "--delta", "1.0",
                 "--j", "10"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.067, rel=1e-12, abs=0.0)
    assert main(["oracle", "k-periodic-shear", "--kappa", "0.1", "--omega", "1.0",
                 "--variant", "figure"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.12475247524752475, rel=1e-12, abs=0.0)
    assert main(["oracle", "k-ou-shear", "--kappa", "0.1", "--alpha", "1.0",
                 "--sigma", "0.1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.14545454545454545, rel=1e-12, abs=0.0)


def test_cli_oracle_refuses_bad_variant(capsys):
    assert main(["oracle", "k-periodic-shear", "--kappa", "0.1", "--omega", "1.0",
                 "--variant", "table"]) == 2
    err = capsys.readouterr().err
    assert "variant" in err and "'table'" in err


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ini", "[flow]\nkind = spiral\n\n[simulation]\nkappa = 1\n")
    assert main(["simulate", "--config", bad, "--output", str(tmp_path / "x.npz")]) == 2
    assert "config error" in capsys.readouterr().err

    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    main(["simulate", "--config", config, "--output", out])
    capsys.readouterr()
    assert main(["estimate", "--input", out, "--delta", "0.13"]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["estimate", "--input", str(tmp_path / "none.npz"),
                 "--delta", "0.1"]) == 2

    nan_cfg = _write(tmp_path, "nan.ini", SIM_CONFIG + "x0 = nan 0.0\n")
    assert main(["simulate", "--config", nan_cfg, "--output",
                 str(tmp_path / "y.npz")]) == 2
    assert "x0 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["-1", "nan"])
def test_estimate_rejects_bad_theta(tmp_path, capsys, theta):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    main(["simulate", "--config", config, "--output", out])
    capsys.readouterr()
    assert main(["estimate", "--input", out, "--delta", "0.1", "--theta", theta]) == 2
    assert "theta must be finite and nonnegative" in capsys.readouterr().err
    with pytest.raises(ParameterError, match="theta"):
        estimate_tensor(simulate_em(FLOW, FAST), "qv", 0.1, float(theta))


@pytest.mark.parametrize("theta", [-0.1, float("nan")])
def test_theta_rule_has_one_message(theta):
    series = ObservationSeries(np.zeros((6, 2)), 0.1)
    calls = [
        lambda: ObservationSeries(series.positions, 0.1, theta),
        lambda: add_observation_noise(series, theta, 0),
        lambda: estimate_tensor(Trajectory(series.positions, 0.1), "qv", 0.1, theta),
        lambda: delta_sweep(FLOW, FAST, "qv", [0.1], theta, n_realizations=8),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="theta must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("command", ["simulate", "estimate", "adjudicate"])
def test_cli_negative_seed_is_an_input_error(tmp_path, capsys, command):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    assert main(["simulate", "--config", config, "--output", out]) == 0
    capsys.readouterr()
    argv = {
        "simulate": ["simulate", "--config",
                     _write(tmp_path, "neg.ini", SIM_CONFIG.replace("seed = 3", "seed = -1")),
                     "--output", str(tmp_path / "neg.npz")],
        "estimate": ["estimate", "--input", out, "--delta", "0.1", "--theta", "0.1",
                     "--noise-seed", "-3"],
        "adjudicate": ["oracle", "adjudicate", "--realizations", "2", "--seed", "-1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "nonnegative" in err
    if command == "simulate":
        assert "bad [simulation] value" in err


def test_cli_output_directory_is_a_file_error(tmp_path, capsys):
    assert main(["diffusivity", "--flow", "shear", "--kappa", "0.5", "--modes", "8",
                 "--csv", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(tmp_path) in err


def test_cli_diffusivity_refuses_time_dependent_flow(capsys):
    with pytest.raises(SystemExit) as info:
        main(["diffusivity", "--flow", "periodic_shear", "--kappa", "0.1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "periodic_shear" in err


@pytest.mark.parametrize("spec", ["xi:nan,1", "xi:inf,1", "xi:0,0"])
def test_degenerate_direction_is_refused(tmp_path, capsys, monkeypatch, spec):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    main(["simulate", "--config", config, "--output", out])
    capsys.readouterr()
    assert main(["estimate", "--input", out, "--delta", "0.1", "--direction", spec]) == 2
    captured = capsys.readouterr()
    assert spec in captured.err and captured.out == ""
    # the sweep refuses the spec before it simulates anything
    monkeypatch.setattr(harness, "simulate_ensemble", None)
    with pytest.raises(ParameterError, match=spec):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8, direction=spec)


def test_cli_estimate_names_missing_array(tmp_path, capsys):
    path = str(tmp_path / "partial.npz")
    np.savez(path, dt_stored=0.02)
    assert main(["estimate", "--input", path, "--delta", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "partial.npz" in err and "positions" in err


def test_cli_estimate_refuses_non_finite_positions(tmp_path, capsys):
    path = str(tmp_path / "nan.npz")
    positions = np.zeros((11, 2))
    positions[7, 0] = np.nan
    np.savez(path, positions=positions, dt_stored=0.1)
    assert main(["estimate", "--input", path, "--delta", "0.2", "--estimator", "box"]) == 2
    captured = capsys.readouterr()
    assert "positions must be finite, row 7" in captured.err and captured.out == ""


@pytest.mark.parametrize("option, value", [("n_realizations", 3.5), ("batch_size", 2.5)])
def test_sweep_refuses_fractional_counts(monkeypatch, option, value):
    # refused before anything is simulated
    monkeypatch.setattr(harness, "simulate_ensemble", None)
    with pytest.raises(ParameterError, match=f"^{option} must be an integer >= "):
        delta_sweep(FLOW, FAST, "qv", [0.1], **{"n_realizations": 8, option: value})


@pytest.mark.parametrize("name", ["notes.txt", "empty.npz", "array.npy"])
def test_cli_estimate_rejects_non_archive(tmp_path, capsys, name):
    path = tmp_path / name
    if name == "notes.txt":
        path.write_text("positions, dt_stored\n")
    elif name == "empty.npz":
        path.write_bytes(b"")
    else:
        np.save(path, np.zeros((4, 2)))
    assert main(["estimate", "--input", str(path), "--delta", "0.1"]) == 2
    err = capsys.readouterr().err
    assert name in err and "not an .npz archive" in err


def test_removed_integrator_choice_fails_loudly(tmp_path, capsys):
    # configs and command lines written for the old integrator choice exit 2
    sweep_cfg = _write(tmp_path, "old.ini", SIM_CONFIG + textwrap.dedent("""\

        [estimation]
        delta = 0.1

        [sweep]
        realizations = 4
        integrator = em
        """))
    assert main(["sweep", "--config", sweep_cfg]) == 2
    assert "integrator" in capsys.readouterr().err
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", config, "--output", str(tmp_path / "traj.npz"),
              "--integrator", "em"])
    assert info.value.code == 2
    assert "--integrator" in capsys.readouterr().err
