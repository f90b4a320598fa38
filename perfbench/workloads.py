"""The benchmark's workloads: inputs from a seed, one timed pass, oracle checks.

A pass is the unit that is timed: one delta sweep, one CLI sweep or one
spectral scan. Pass p of a run with workload seed s draws its inputs from
``pass_seed(s, p)``, so the passes of a run are independent samples and a
repeat of the same seed on the same source reproduces every pass bitwise.

Each pass yields a fixed number of operations (sweep rows or spectral
cases); each operation is checked against its oracle after the timed
region. Monte Carlo rows pass when |mean - reference| <= Z_MAX * stderr.
The margin was fixed before any benchmark seed was run and is repeated in
the workload descriptions of BENCHMARK.json; seeds are never re-picked.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from eddykit import cli, harness, homogenization
from eddykit import (
    SimConfig,
    bm_box_expectation,
    childress_soward,
    fit_scaling_exponent,
    ou_shear,
    qv_expectation_ou_shear,
    taylor_green,
)

# Monte Carlo margin in standard errors. A row of M >= 32 realizations is
# close to Student-t with M-1 degrees of freedom, for which P(|t| > 6) is
# about 1e-6, so a correct program fails no row over thousands of runs.
Z_MAX = 6.0

# spectral contract: relative residual, doubling cap, Taylor-Green exponent
RESIDUAL_MAX = 1e-10
SPECTRAL_CAP = 256
TG_EXPONENT = 0.5
TG_EXPONENT_TOL = 0.05

_CHUNK = 4096  # draws per realization per chunk in the dynamics step loop


def pass_seed(seed: int, p: int) -> int:
    return seed * 1000 + p


@dataclass(frozen=True)
class Op:
    """One checked operation: a sweep row or a spectral case."""

    name: str
    ok: bool
    detail: str


def _z_op(name: str, mean: float, stderr: float, ref: float) -> Op:
    z = (mean - ref) / stderr if stderr > 0.0 else math.inf
    ok = math.isfinite(z) and abs(z) <= Z_MAX
    return Op(name, ok, f"mean={mean:.6g} ref={ref:.6g} stderr={stderr:.3g} z={z:+.2f}")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


class Workload:
    """Defaults shared by every workload."""

    path_steps = 0
    # Parts of the calibration probe (worker.make_probe): the kinds of work
    # the workload spends its time on, so the probe slows when it does.
    probe: tuple[str, ...]
    rng_shape = (64, _CHUNK)  # realizations, draws per chunk; probed in traced runs

    def prepare(self, p: int) -> None:
        """Untimed work before pass p."""

    def collect(self, result):
        """Untimed work after a pass; returns what the checks consume."""
        return result


class _DeltaSweep(Workload):
    """delta_sweep of one flow through the library API (the caller waits)."""

    direction = "y"
    chunk = _CHUNK

    def config(self, p: int) -> SimConfig:
        return SimConfig(kappa=self.kappa, dt=self.dt, t_final=self.t_final,
                         seed=pass_seed(self.seed, p), store_stride=self.store_stride)

    def run(self, p: int):
        return harness.delta_sweep(self.flow, self.config(p), "qv", self.deltas,
                                   n_realizations=self.realizations,
                                   direction=self.direction)

    @property
    def ops_per_pass(self) -> int:
        return len(self.deltas)

    @property
    def path_steps(self) -> int:
        cfg = self.config(0)
        return self.realizations * (cfg.burn_steps + cfg.store_stride * (cfg.n_stored - 1))

    @property
    def rng_shape(self) -> tuple[int, int]:
        return min(64, self.realizations), min(self.chunk, self.config(0).n_steps)

    def digest(self, report) -> str:
        table = np.array([[r.delta, r.mean, r.std, r.stderr] for r in report.rows])
        return _sha(table.tobytes())

    def block_bytes(self) -> dict:
        count = min(64, self.realizations)
        cfg = self.config(0)
        return {"block_bytes": count * cfg.n_stored * 2 * 8,
                "chunk_bytes": count * min(self.chunk, cfg.n_steps) * 2 * 8}


class OuShearSweep(_DeltaSweep):
    """The criterion-10 shape: OU-modulated shear, six deltas, stride 1000."""

    name = "ou_shear_sweep"
    probe = ("draws",)  # normal draws and prefix sums over (32, chunk) blocks
    alpha, sigma = 1.0, 0.1
    kappa, dt, store_stride = 0.1, 1e-3, 1000
    deltas = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.flow = ou_shear(self.alpha, self.sigma)
        self.t_final = 50.0 if tiny else 1000.0
        self.realizations = 8 if tiny else 32
        if tiny:
            self.deltas = (1.0, 2.0, 5.0, 10.0)
        self.chunk = self.store_stride * max(1, _CHUNK // self.store_stride)

    def references(self) -> dict:
        return {d: qv_expectation_ou_shear(self.kappa, self.alpha, self.sigma, d)
                for d in self.deltas}

    def check(self, report, refs) -> list[Op]:
        return [_z_op(f"delta={r.delta:g}", r.mean, r.stderr, refs[r.delta])
                for r in report.rows]


class TaylorGreenSweep(_DeltaSweep):
    """Euler-Maruyama step loop on the cellular flow, checked at the largest delta."""

    name = "tg_em_sweep"
    probe = ("python",)  # one interpreted step at a time over (64, 2) arrays
    kappa, dt, store_stride = 0.05, 0.01, 100
    deltas = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    direction = "x"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.flow = taylor_green()
        self.t_final = 100.0 if tiny else 1000.0
        self.realizations = 8 if tiny else 64
        if tiny:
            self.deltas = (1.0, 2.0, 5.0, 10.0)

    def references(self) -> dict:
        tensor, _ = homogenization.spectral_diffusivity(self.flow, self.kappa, rtol=1e-6,
                                                        max_modes=SPECTRAL_CAP)
        return {"k11": float(tensor.entries[0, 0])}

    def check(self, report, refs) -> list[Op]:
        # Only the largest delta has an exact reference (the spectral K11);
        # shorter windows are checked for finite, positive statistics.
        ops = []
        last = max(self.deltas)
        for r in report.rows:
            if r.delta == last:
                ops.append(_z_op(f"delta={r.delta:g}", r.mean, r.stderr, refs["k11"]))
            else:
                ok = math.isfinite(r.mean) and r.mean > 0.0 and r.stderr > 0.0
                ops.append(Op(f"delta={r.delta:g}", ok, f"mean={r.mean:.6g} (no exact oracle)"))
        return ops


class NoisyBoxCli(Workload):
    """`eddykit sweep` in-process: box estimator on full-resolution noisy paths."""

    name = "noisy_box_cli"
    probe = ("stream", "draws")  # noise draws and passes over 100 MB paths
    kappa, dt, theta = 0.1, 0.01, 0.05
    deltas = (0.01, 0.1, 1.0, 10.0)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.t_final = 50.0 if tiny else 1000.0
        self.realizations = 8 if tiny else 64
        self.ini = os.path.join(workdir, f"noisy_box_{seed}.ini")
        self.csv = os.path.join(workdir, f"noisy_box_{seed}.csv")

    def prepare(self, p: int) -> None:
        """Write the pass's INI file; runs before the timed call."""
        text = (
            "[flow]\nkind = shear\n\n"
            "[simulation]\n"
            f"kappa = {self.kappa!r}\ndt = {self.dt!r}\nt_final = {self.t_final!r}\n"
            f"seed = {pass_seed(self.seed, p)}\nstore_stride = 1\n\n"
            "[estimation]\nestimator = box\n"
            f"delta = {' '.join(repr(d) for d in self.deltas)}\n"
            f"theta = {self.theta!r}\ndirection = x\n\n"
            f"[sweep]\nrealizations = {self.realizations}\nbatch_size = 64\n"
        )
        with open(self.ini, "w") as fh:
            fh.write(text)

    def run(self, p: int):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", self.ini, "--output", self.csv])
        return code

    def collect(self, code):
        """Read the CSV the pass wrote; runs after the timed call."""
        with open(self.csv) as fh:
            return code, fh.read()

    @property
    def ops_per_pass(self) -> int:
        return len(self.deltas)

    @property
    def path_steps(self) -> int:
        return self.realizations * int(round(self.t_final / self.dt))

    def digest(self, output) -> str:
        code, text = output
        return _sha(str(code).encode(), text.encode())

    def block_bytes(self) -> dict:
        count = min(64, self.realizations)
        n_stored = int(round(self.t_final / self.dt)) + 1
        return {"block_bytes": count * n_stored * 2 * 8,
                "chunk_bytes": count * _CHUNK * 2 * 8}

    def references(self) -> dict:
        refs = {}
        for d in self.deltas:
            j = int(round(d / self.dt))
            refs[d] = bm_box_expectation(self.kappa, d, j) + self.theta ** 2 / (j * d)
        return refs

    def check(self, output, refs) -> list[Op]:
        code, text = output
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != len(self.deltas):
            return [Op(f"delta={d:g}", False, f"exit code {code}, {len(rows)} rows")
                    for d in self.deltas]
        ops = []
        for d, row in zip(self.deltas, rows):
            ops.append(_z_op(f"delta={d:g}", float(row["mean"]), float(row["stderr"]), refs[d]))
        return ops


class CellSpectralScan(Workload):
    """Adaptive spectral cell-problem solves; only homogenization runs."""

    name = "cell_spectral_scan"
    probe = ("stream",)  # sparse factorizations are bound by memory traffic

    def __init__(self, seed: int, tiny: bool, workdir: str):
        if tiny:
            self.max_modes = 128
            tg, cs = (0.02, 0.05, 0.1), (0.05,)
        else:
            self.max_modes = SPECTRAL_CAP
            tg, cs = (0.005, 0.01, 0.02, 0.05), (0.002, 0.005, 0.01)
        self.cases = ([("taylor_green", taylor_green(), k) for k in tg]
                      + [("childress_soward(0.5)", childress_soward(0.5), k) for k in cs])

    def run(self, p: int):
        # Deterministic: the seed changes nothing here. A fixed case order
        # also fixes the allocator's peak, which otherwise moves with it.
        out = []
        for _, flow, kappa in self.cases:
            tensor, sol = homogenization.spectral_diffusivity(flow, kappa, rtol=1e-6,
                                                              max_modes=self.max_modes)
            out.append((tensor.entries.copy(), sol.modes, sol.residual))
        return out

    @property
    def ops_per_pass(self) -> int:
        return len(self.cases)

    def digest(self, out) -> str:
        return _sha(*(e.tobytes() + repr((m, r)).encode() for e, m, r in out))

    def block_bytes(self) -> dict:
        # largest system solved below the cap: (2M+1)^2 complex unknowns, two RHS
        n = (2 * (self.max_modes // 2) + 1) ** 2
        return {"unknowns_at_largest_M": n, "rhs_bytes": n * 2 * 16}

    def references(self) -> dict:
        return {"residual_max": RESIDUAL_MAX, "cap": self.max_modes,
                "exponent": TG_EXPONENT, "exponent_tol": TG_EXPONENT_TOL}

    def check(self, out, refs) -> list[Op]:
        tg = [(kappa, e[0, 0]) for (label, _, kappa), (e, _, _) in zip(self.cases, out)
              if label == "taylor_green"]
        exponent = fit_scaling_exponent(tg).exponent
        fit_ok = abs(exponent - refs["exponent"]) <= refs["exponent_tol"]
        ops = []
        for (label, _, kappa), (e, modes, residual) in zip(self.cases, out):
            ok = residual <= refs["residual_max"] and modes < refs["cap"]
            detail = f"K11={e[0, 0]:.10g} modes={modes} residual={residual:.2e}"
            if label == "taylor_green":
                ok = ok and fit_ok
                detail += f" exponent={exponent:.4f}"
            ops.append(Op(f"{label} kappa={kappa:g}", ok, detail))
        return ops


WORKLOADS = {w.name: w for w in (OuShearSweep, NoisyBoxCli, TaylorGreenSweep, CellSpectralScan)}
