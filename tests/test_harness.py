"""Tests for the ensemble harness, config parsing and the CLI.

The bitwise invariants matter most here: realization streams are keyed by
(seed, realization, source), so results must not depend on how the rows are
split, on whether deltas share a sweep, or on epsilon = 1 going through the
rescaled path. CLI tests drive main() in process and assert on exit codes.
"""

import csv
import dataclasses
import inspect
import io
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eddykit import (
    ConfigError,
    EnsembleRecord,
    InsufficientDataError,
    IntegrationBlowupError,
    ObservationSeries,
    ParameterError,
    RunPlan,
    SimConfig,
    SweepReport,
    Trajectory,
    add_observation_noise,
    adjudicate_periodic_shear,
    delta_sweep,
    directional_component,
    k_periodic_shear,
    ou_shear,
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


def test_csv_fields_read_back_as_the_values_the_run_used():
    # an np.float32 kappa or theta runs as the float it converts to, and the
    # record holds that float, so the CSV writes all 17 digits of it
    kappa, theta = np.float32(0.1), np.float32(0.05)
    settings = dict(dt=0.01, t_final=2.0, seed=1, store_stride=2)
    report = delta_sweep(FLOW, SimConfig(kappa=kappa, **settings), "qv", [0.1], theta, 8)
    twin = delta_sweep(FLOW, SimConfig(kappa=float(kappa), **settings), "qv", [0.1],
                       float(theta), 8)
    assert _csv(report) == _csv(twin)
    rec = report.rows[0]
    assert rec.kappa == 0.10000000149011612 and rec.theta == float(theta)
    row = next(csv.DictReader(io.StringIO(_csv(report))))
    for column, value in zip(_CSV_COLUMNS, dataclasses.astuple(rec)):
        assert type(value) in (str, int, float)
        assert type(value)(row[column]) == value, column
    # an integer prints as it did before it was cast: 1 either way
    ints = delta_sweep(FLOW, SimConfig(kappa=1, dt=0.01, t_final=2, seed=1), "qv", [0.1],
                       0, 8)
    row = next(csv.DictReader(io.StringIO(_csv(ints))))
    assert (row["kappa"], row["T"], row["theta"]) == ("1", "2", "0")


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
    # run_ensemble still takes batch_size, checks it and drops it
    records = [run_ensemble(FLOW, FAST, "qv", 0.1, theta, 10, batch_size=bs)
               for bs in (1, 3, 64, 10**6)]
    assert records == [delta_sweep(FLOW, FAST, "qv", [0.1], theta, 10).rows[0]] * 4


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
    # a shear block runs in rounds of min(CPUs, rows) shares, each share
    # integrating and reducing one row, three (the last round partial) or
    # the whole block; a cellular block runs one share of all 13 rows,
    # since a group holds dynamics._CELL_ROWS rows, whatever the CPU count
    # and the group budget
    config = SimConfig(kappa=0.5, dt=0.01, t_final=2.0, seed=3)
    row_bytes = dynamics._row_bytes(flow, config)
    texts = set()
    for budget in (row_bytes, 3 * row_bytes, dynamics._GROUP_BYTES):
        monkeypatch.setattr(dynamics, "_GROUP_BYTES", budget)
        for cpus in (1, 3):
            monkeypatch.setattr(dynamics, "_cpu_count", lambda cpus=cpus: cpus)
            texts.add(_csv(delta_sweep(flow, config, estimator, [0.01, 0.05, 0.3],
                                       theta=0.05, n_realizations=13, direction="xi:1,2")))
    assert len(texts) == 1


_POOL_SWEEP = """
import hashlib, io
from eddykit import SimConfig, delta_sweep, steady_shear
config = SimConfig(kappa=0.1, dt=0.01, t_final=1000.0, seed=7)
report = delta_sweep(steady_shear(), config, "qv", [0.01, 0.1], n_realizations=8, direction="x")
text = io.StringIO()
report.to_csv(text)
print(hashlib.sha256(text.getvalue().encode()).hexdigest())
"""


def test_sweep_does_not_depend_on_the_blas_pool():
    # full-resolution rows of 10^5 increments, long enough for a threaded
    # BLAS dot to split its sum across the pool; two fresh interpreters,
    # since the pool size is read once at load
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        pool = {name: threads for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        done = subprocess.run([sys.executable, "-c", _POOL_SWEEP],
                              env=dict(os.environ, PYTHONPATH=path, **pool),
                              capture_output=True, text=True, check=True, timeout=120)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("cpus", [3, 10])
def test_reduction_error_names_its_realization(monkeypatch, cpus):
    # realizations 4 and 8 fail in different shares, of three rows or of one;
    # the error names 4 whichever share fails first
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: cpus)
    block = simulate_ensemble(FLOW, FAST, 10)
    reduce_row = harness._reduce_row

    def failing(estimator, row, *args):
        if any(np.array_equal(row, block[r]) for r in (4, 8)):
            raise ParameterError("bad row")
        return reduce_row(estimator, row, *args)

    monkeypatch.setattr(harness, "_reduce_row", failing)
    with pytest.raises(ParameterError, match="^realization 4: bad row$"):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=10)


@pytest.mark.parametrize("flow, cpus, group_rows", [
    pytest.param(flow, cpus, group_rows, id=f"{prefix}{group_rows}-{cpus}")
    for prefix, flow in (("", FLOW), ("taylor_green-", taylor_green()))
    for cpus in (1, 3) for group_rows in (1, 2)])
def test_sweep_errors_do_not_depend_on_groups(monkeypatch, flow, cpus, group_rows):
    # one _block call over the whole batch raises its earliest blow-up, ties
    # going to the lowest realization; a blow-up anywhere in the batch
    # outranks a reduction error, which names the lowest failing realization
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", group_rows * dynamics._row_bytes(flow, FAST))
    block = simulate_ensemble(flow, FAST, 12)
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
            delta_sweep(flow, FAST, "qv", [0.1], n_realizations=12)
    # a real blow-up: every group goes non-finite in its first chunk
    monkeypatch.setattr(dynamics, "_block", run_block)
    overflow = SimConfig(kappa=1e308, dt=1.0, t_final=10.0)
    with pytest.raises(IntegrationBlowupError, match="realization 0 between steps 0 and 10"):
        delta_sweep(flow, overflow, "qv", [1.0], n_realizations=6)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_bounded_by_the_group_budget(monkeypatch):
    # a full-resolution batch would be (64, 20001, 2) doubles, 20 MB; each of
    # two shares holds a group of two paths, a reduction buffer and the
    # chunk buffers instead
    config = SimConfig(kappa=0.5, dt=0.01, t_final=200.0, seed=5)
    m = 64
    block_bytes = m * config.n_stored * 2 * 8
    row_bytes = dynamics._row_bytes(steady_shear(), config)
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", 2 * row_bytes)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    peak = _traced_peak(lambda: delta_sweep(steady_shear(), config, "box", [0.01, 0.1], 0.05,
                                            m, "x"))
    assert peak < block_bytes / 4


def test_group_budget_counts_the_chunk_buffers(monkeypatch):
    # a stride-1000 path stores 6 points but its chunk buffers (draws, x and
    # y chunk paths, OU modulation) take 4096 columns; priced by its stored
    # path alone, each share would integrate all its 128 rows at once, about
    # 21 MB of chunk buffers
    config = SimConfig(kappa=0.1, dt=1e-3, t_final=5.0, store_stride=1000, seed=7)
    m, shares = 256, 2
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", 4 << 20)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: shares)
    dynamics._dtbtrs()  # scipy's import is not the sweep's memory
    peak = _traced_peak(lambda: delta_sweep(ou_shear(1.0, 0.1), config, "qv", [1.0, 2.0],
                                            n_realizations=m))
    assert peak < 2 * shares * dynamics._GROUP_BYTES


def test_full_resolution_sweep_memory_does_not_grow_with_m(monkeypatch):
    # at the default budget a share of 10^5-point paths integrates two rows at
    # a time, so M = 8 and M = 64 hold the same rounds, streams included; only
    # the (n_delta, M) values and the stacked entries grow with M, far less
    # than a path
    config = SimConfig(kappa=0.1, dt=0.01, t_final=1000.0, seed=7)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    peaks = [_traced_peak(lambda m=m: delta_sweep(steady_shear(), config, "box", [0.01, 1.0],
                                                  0.05, m, "x"))
             for m in (8, 64)]
    assert peaks[1] < peaks[0] + config.n_stored * 2 * 8


def test_cellular_sweep_memory_does_not_grow_with_m():
    # a cellular block runs in groups of _CELL_ROWS rows whatever M, so
    # M = 512 holds the rounds of M = 64 plus its longer (n_delta, M)
    # values and its (M, n_delta, 2, 2) entries, kept per row and stacked
    config = SimConfig(kappa=0.05, dt=0.01, t_final=5.0, seed=8)
    deltas = [0.1, 0.5, 1.0]

    def sweep(m):
        delta_sweep(taylor_green(), config, "qv", deltas, 0.05, m, "x")

    sweep(2)  # what the first sweep allocates once is not growth with M
    peaks = [_traced_peak(lambda m=m: sweep(m)) for m in (64, 512)]
    extra = 512 - 64
    growth = _traced_peak(lambda: (
        np.empty((len(deltas), extra)),
        np.stack([np.empty((len(deltas), 2, 2)) for _ in range(extra)])))
    assert peaks[1] < peaks[0] + growth


@pytest.mark.parametrize("flow", [steady_shear(), taylor_green()], ids=lambda f: f.kind)
def test_batch_size_decides_no_block(monkeypatch, flow):
    # simulate_ensemble alone splits the rows: a shear block in rounds of two
    # shares of two-row groups, a cellular one in groups of _CELL_ROWS rows;
    # run_ensemble's batch_size is only checked
    config = SimConfig(kappa=0.5, dt=0.01, t_final=0.5, seed=6)
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", 2 * dynamics._row_bytes(flow, config))
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    run_block, calls = dynamics._block, []

    def recording_block(flow, config, first, gens, ou, out):
        calls.append((first, len(gens)))
        run_block(flow, config, first, gens, ou, out)

    monkeypatch.setattr(dynamics, "_block", recording_block)
    m = 10 if flow.is_shear else dynamics._CELL_ROWS + 6
    seen = []
    for batch_size in (1, 7, 10**6):
        calls.clear()
        run_ensemble(flow, config, "qv", 0.1, 0.05, m, "x", batch_size)
        seen.append(sorted(calls))
    expected = ([(0, 2), (2, 2), (4, 2), (6, 2), (8, 1), (9, 1)] if flow.is_shear
                else [(0, dynamics._CELL_ROWS), (dynamics._CELL_ROWS, 6)])
    assert seen == [expected] * 3


def test_sweep_makes_its_streams_per_round(monkeypatch):
    # rounds of two shares of two-row groups: each round's BM, OU and noise
    # streams are made just before it, so no _block call starts after more
    # streams than the rows already run and one round need
    flow = ou_shear(1.0, 0.1)
    config = SimConfig(kappa=0.3, dt=0.01, t_final=1.0, seed=4)
    deltas = [0.02, 0.1, 0.5]
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", 2 * dynamics._row_bytes(flow, config))
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    lock, state, starts = threading.Lock(), {"streams": 0, "run": 0}, []

    def counting(make):
        def made(*key):
            with lock:
                state["streams"] += 1
            return make(*key)
        return made

    run_block = dynamics._block

    def recording_block(flow, config, first, gens, ou, out):
        with lock:
            starts.append((state["streams"], state["run"]))
        run_block(flow, config, first, gens, ou, out)
        with lock:
            state["run"] += len(gens)

    monkeypatch.setattr(dynamics, "stream_generator", counting(dynamics.stream_generator))
    monkeypatch.setattr(harness, "noise_generator", counting(harness.noise_generator))
    monkeypatch.setattr(dynamics, "_block", recording_block)
    m, round_rows = 20, 4
    per_row = 3 + len(deltas)  # BM, OU, stationary eta0 and one noise stream per delta
    delta_sweep(flow, config, "qv", deltas, 0.05, m, "x")
    assert state == {"streams": m * per_row, "run": m}
    assert len(starts) == m // 2
    for streams, run in starts:
        assert streams <= (run + round_rows) * per_row


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
    delta_sweep(FLOW, config, estimator, deltas, theta, m, direction)
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
    with pytest.raises(ParameterError, match="^batch_size must be an integer >= 1, got 0$"):
        run_ensemble(FLOW, FAST, "qv", 0.1, n_realizations=8, batch_size=0)
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
    with pytest.raises(ParameterError, match=re.escape("epsilon must lie in (0, 1], got 1.5")):
        rescaled_config(0.1, 1.5, 1.0)
    with pytest.raises(ParameterError,
                       match=re.escape("alpha_exponent must lie in (0, 2), got 2.0")):
        rescaled_config(0.1, 0.4, 2.0)
    with pytest.raises(ParameterError):
        rescaled_config(0.1, 0.4, 0.0)


@pytest.mark.parametrize("call, name", [
    (lambda: rescaled_config(0.1, None, 1.0), "epsilon"),
    (lambda: rescaled_config(0.1, "0.5", 1.0), "epsilon"),
    (lambda: rescaled_config(0.1, 0.5, math.nan), "alpha_exponent"),
    (lambda: rescaled_config(0.1, 0.5, "1"), "alpha_exponent"),
    (lambda: rescaled_study(FLOW, 0.5, [0.4, None], 1.0), "epsilon"),
    (lambda: adjudicate_periodic_shear(deltas=(1.0, math.nan)), "delta"),
    (lambda: adjudicate_periodic_shear(deltas=(1.0, math.inf)), "delta"),
    (lambda: adjudicate_periodic_shear(deltas=(1.0, None)), "delta"),
], ids=["epsilon-none", "epsilon-text", "alpha-nan", "alpha-text", "study-epsilon-none",
        "delta-nan", "delta-inf", "delta-none"])
def test_rescaling_and_adjudication_check_their_numbers_first(monkeypatch, call, name):
    monkeypatch.setattr(harness, "simulate_ensemble", None)
    with pytest.raises(ParameterError, match=f"^{name} must be finite and positive, got "):
        call()


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


def test_rescaled_study_checks_points_before_simulating(monkeypatch):
    # delta = 1 at epsilon = 1 leaves one stored point over t_final = 0.5;
    # the epsilon = 0.05 sweep before it must not run first
    calls = []
    monkeypatch.setattr(harness, "simulate_ensemble", lambda *args, **kw: calls.append(args))
    with pytest.raises(InsufficientDataError, match=r"^qv at delta=1 .* got 1$"):
        rescaled_study(steady_shear(), 0.5, [0.05, 1.0], 1.0, n_realizations=8, t_final=0.5)
    assert calls == []


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
    assert plan.realizations == 32
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
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = fast\n",
     "^bad \\[simulation\\] value: kappa must be finite and positive, got 'fast'$"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\nseed = 2.5\n",
     "^bad \\[simulation\\] value: seed must be a nonnegative integer, got 2.5$"),
    ("[flow]\nkind = shear\n\n[simulation]\nkappa = 1\n\n[sweep]\nepsilons = 0.4 abc\n",
     "^bad \\[sweep\\] value: epsilon must be finite, got 'abc'$"),
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


def test_batch_size_is_gone_from_the_sweeps():
    # run_ensemble and the INI [sweep] key are the only places that take it
    for function in (delta_sweep, rescaled_study, adjudicate_periodic_shear):
        assert "batch_size" not in inspect.signature(function).parameters
    assert "batch_size" not in {field.name for field in dataclasses.fields(RunPlan)}
    assert "batch_size" in inspect.signature(run_ensemble).parameters
    with pytest.raises(TypeError):
        delta_sweep(FLOW, FAST, "qv", [0.1], n_realizations=8, batch_size=64)


def test_run_plan_defaults_are_the_sweep_defaults():
    plan = parse_config("[flow]\nkind = shear\n\n[simulation]\nkappa = 0.5\n")
    params = inspect.signature(delta_sweep).parameters
    for field, param in [("theta", "theta"), ("direction", "direction"),
                         ("realizations", "n_realizations")]:
        assert getattr(plan, field) == params[param].default


@pytest.mark.parametrize("key, value, needle", [
    ("theta", "-1", "theta must be finite and nonnegative"),
    ("direction", "z", "direction must be x, y or xi:<a>,<b>, got 'z'"),
    ("delta", "0.1 -3", "delta must be finite and positive, got -3"),
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


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("12345678901234567890", 12345678901234567890), ("3.0", 3.0), ("2e2", 200.0),
    ("-0", -0.0), ("nan", math.nan), ("fast", "fast"), ("xi:1,1", "xi:1,1"), ("", ""),
])
def test_value_reads_an_int_else_a_float_else_the_text(text, value):
    # an int above 2**53 stays exact for a seed, and "-0" keeps its sign for a float
    assert repr(harness._value(text)) == repr(value)


def test_ini_counts_take_integral_floats():
    # errors.integer takes an integral float, in a config file as in the library
    plan = parse_config("[flow]\nkind = shear\n\n[simulation]\nkappa = 0.5\nseed = 3.0\n"
                        "store_stride = 1e3\n\n[sweep]\nrealizations = 2e2\n")
    counts = (plan.sim.seed, plan.sim.store_stride, plan.realizations)
    assert counts == (3, 1000, 200) and all(type(n) is int for n in counts)


def test_run_plan_stores_what_its_checks_return():
    plan = RunPlan(FLOW, FAST, deltas=[1, np.float32(0.5)], theta=0, realizations=4.0,
                   epsilons=[1], alpha_exponent=1)
    assert plan.deltas == (1.0, float(np.float32(0.5))) and plan.epsilons == (1.0,)
    assert all(type(v) is float for v in (*plan.deltas, plan.theta, *plan.epsilons,
                                          plan.alpha_exponent))
    assert type(plan.realizations) is int and plan.realizations == 4


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


def test_cli_simulate_writes_the_path_it_names(tmp_path, capsys):
    # np.savez given a path would append .npz to this suffix-less name
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj")
    assert main(["simulate", "--config", config, "--output", out]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f" to {out}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "traj"]
    assert main(["estimate", "--input", out, "--delta", "0.1"]) == 0
    suffixless = capsys.readouterr().out
    named = str(tmp_path / "traj.npz")
    assert main(["simulate", "--config", config, "--output", named]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", named, "--delta", "0.1"]) == 0
    assert capsys.readouterr().out == suffixless


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


def test_ini_batch_size_is_checked_and_dropped(tmp_path, capsys):
    base = SIM_CONFIG + "\n[estimation]\ndelta = 0.1 0.2\n\n[sweep]\nrealizations = 8\n"
    plain = _write(tmp_path, "plain.ini", base)
    batched = _write(tmp_path, "batched.ini", base + "batch_size = 8\n")
    assert parse_config(batched) == parse_config(plain)
    assert main(["sweep", "--config", plain, "--output", "-"]) == 0
    expected = capsys.readouterr().out
    assert main(["sweep", "--config", batched, "--output", "-"]) == 0
    assert capsys.readouterr().out == expected
    bad = _write(tmp_path, "bad.ini", base + "batch_size = 0\n")
    assert main(["sweep", "--config", bad, "--output", "-"]) == 2
    captured = capsys.readouterr()
    assert "bad [sweep] value: batch_size must be an integer >= 1, got 0" in captured.err
    assert captured.out == ""


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


def test_cli_diffusivity_nan_residual_is_a_numerical_failure(capsys):
    assert main(["diffusivity", "--flow", "childress_soward", "--lam", "0.2",
                 "--kappa", "1e-100", "--modes", "32"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: cell-problem residual nan exceeds 1e-10"
                            " at modes=32\n")


def test_cli_diffusivity_refuses_rtol_with_fixed_modes(capsys):
    # a fixed truncation runs no doubling, so the tolerance would be dropped
    assert main(["diffusivity", "--flow", "taylor_green", "--kappa", "0.1",
                 "--modes", "8", "--rtol", "1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.out == ""
    assert "--modes" in captured.err and "--rtol" in captured.err


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

    # an estimate that overflows is a numerical failure that names where it happened
    overflow = _write(tmp_path, "overflow.ini", textwrap.dedent("""\
        [flow]
        kind = shear

        [simulation]
        kappa = 1e307
        dt = 1.0
        t_final = 10.0

        [estimation]
        delta = 1.0

        [sweep]
        realizations = 2
        """))
    assert main(["sweep", "--config", overflow]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: realization 0: qv at delta=1 ")
    big = str(tmp_path / "big.npz")
    assert main(["simulate", "--config", overflow, "--output", big]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", big, "--delta", "1"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: qv at delta=1 ")


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


@pytest.mark.parametrize("argv, needle", [
    (["--theta", "abc"], "theta must be finite and nonnegative, got 'abc'"),
    (["--delta", "abc"], "delta must be finite and positive, got 'abc'"),
    (["--noise-seed", "1.5"], "seed must be a nonnegative integer, got 1.5"),
])
def test_estimate_flags_are_checked_by_the_library(tmp_path, capsys, argv, needle):
    config = _write(tmp_path, "run.ini", SIM_CONFIG)
    out = str(tmp_path / "traj.npz")
    main(["simulate", "--config", config, "--output", out])
    capsys.readouterr()
    assert main(["estimate", "--input", out, "--delta", "0.1", *argv]) == 2
    assert capsys.readouterr().err == f"input error: {needle}\n"


@pytest.mark.parametrize("command", [
    "oracle shear-qv --kappa 0.5 --delta 1.0 --n 10{}",
    "diffusivity --flow taylor_green --kappa 0.5 --modes 8{}",
    "oracle adjudicate --kappa 0.2 --t-final 60 --dt 0.01 --realizations 4{} --seed 9{}",
])
def test_cli_counts_take_integral_floats(capsys, command):
    # each count reaches the library as written, and errors.integer takes 10.0 as 10
    assert main(command.format("", "").split()) == 0
    expected = capsys.readouterr().out
    assert main(command.format(".0", ".0").split()) == 0
    assert capsys.readouterr().out == expected
    assert main(command.format(".5", "").split()) == 2
    assert "must be an integer >= " in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["simulate", "estimate", "estimate_noiseless",
                                     "adjudicate"])
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
        # at theta = 0 no noise is drawn, and the bad seed is still refused
        "estimate_noiseless": ["estimate", "--input", out, "--delta", "0.1",
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
    # refused before anything is simulated; run_ensemble is the one sweep taking batch_size
    monkeypatch.setattr(harness, "simulate_ensemble", None)
    with pytest.raises(ParameterError, match=f"^{option} must be an integer >= "):
        run_ensemble(FLOW, FAST, "qv", 0.1, **{"n_realizations": 8, option: value})


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
