"""Identity tables: recorded outputs that a refactor must reproduce.

The spectral table holds one row per ``spectral_diffusivity(flow, kappa,
rtol=1e-6, max_modes=256)`` call: the seven cases of perfbench's
``cell_spectral_scan`` and the Taylor-Green kappa of acceptance
criterion 4, which share that call. A row records the entries of K to 17
significant digits, the final truncation and the truncations tried. A
change to the solver that claims "identical up to rounding" must keep K
within rtol 1e-12 (and 1e-12 of the largest entry) and the truncations
exactly. ``SPECTRAL_DIGESTS`` pins the same calls bitwise: the sha256 of
K's bytes, the final residual and the final ``CellSolution.coefficients``,
which a change that claims "bitwise identical" must keep.

The digest table: each row is the sha256 of the bytes of one small run,
either ``simulate_ensemble`` rows of one flow kind and config, the raw
entries of ``estimate_tensor`` for each estimator on one short path, or the
output of one ``eddykit`` command (sweep and rescaled CSVs, simulate,
estimate, every oracle subcommand). A change that claims "bitwise identical" must
keep every digest. The digests hold only in the environment they were
recorded in (``DIGEST_ENV``); elsewhere the test fails and names both
environments, so a new environment means recording a fresh table.

Print fresh tables, for pasting here after a change that is allowed to
move these values, with

    PYTHONPATH=src python tests/test_identity.py
"""

import contextlib
import functools
import hashlib
import io
import os
import platform
import tempfile

import numpy as np
import pytest
import scipy

from eddykit import (
    SimConfig,
    Trajectory,
    childress_soward,
    ou_shear,
    periodic_shear,
    simulate_ensemble,
    spectral_diffusivity,
    steady_shear,
    taylor_green,
)
from eddykit.cli import main
from eddykit.dynamics import noise_generator
from eddykit.estimators import estimate_tensor

FLOWS = {"taylor_green": taylor_green, "childress_soward(0.5)": lambda: childress_soward(0.5)}
RTOL, MAX_MODES = 1e-6, 256
# criterion 4's kappa cover the scan's Taylor-Green ones, plus 0.002
CASES = ([("taylor_green", k) for k in (0.002, 0.005, 0.01, 0.02, 0.05)]
         + [("childress_soward(0.5)", k) for k in (0.002, 0.005, 0.01)])

# (flow, kappa, final modes, history modes, (K11, K12, K21, K22))
TABLE = [
    ('taylor_green', 0.002, 256, (16, 32, 64, 128, 256),
     (0.047701868646038634, -4.6845690184886072e-18, -4.6845690184886072e-18, 0.047701868646038634)),
    ('taylor_green', 0.005, 128, (16, 32, 64, 128),
     (0.075506924579730489, -2.1469815916206459e-18, -2.1469815916206459e-18, 0.075506924579730503)),
    ('taylor_green', 0.01, 128, (16, 32, 64, 128),
     (0.10693459672914589, 4.6943270528624217e-18, 4.6943270528624217e-18, 0.10693459672914589)),
    ('taylor_green', 0.02, 64, (16, 32, 64),
     (0.15154713381643767, 9.0459916875848383e-19, 9.0459916875848383e-19, 0.15154713381643767)),
    ('taylor_green', 0.05, 32, (16, 32),
     (0.24051332369461009, -1.6520868715819188e-18, -1.6520868715819188e-18, 0.24051332369461009)),
    ('childress_soward(0.5)', 0.002, 128, (16, 32, 64, 128),
     (13.356456648162236, 13.35245568253403, 13.35245568253403, 13.356456648162238)),
    ('childress_soward(0.5)', 0.005, 128, (16, 32, 64, 128),
     (6.1439128270900083, 6.1344006826686792, 6.1344006826686792, 6.1439128270900083)),
    ('childress_soward(0.5)', 0.01, 64, (16, 32, 64),
     (3.5627790728348394, 3.5447231668373651, 3.5447231668373651, 3.5627790728348394)),
]


# sha256 of K's bytes, repr(residual) and the coefficients, per CASES row;
# recorded in DIGEST_ENV
SPECTRAL_DIGESTS = {
    'taylor_green 0.002': '9e7b7f5ba3b87e11b513bebe143678fe94181da09cbbe23b0df868bf11e65709',
    'taylor_green 0.005': 'fd8aa11520a247e943294cf38cc24fec20661f6d461ed5cd815a9db445f0affb',
    'taylor_green 0.01': 'c8e935c42533e5642d0e521cbd354abdd3822a0bced1646e033fb8b6101d6aa0',
    'taylor_green 0.02': '18c9f5c1d240af7bc41b6fe0986f8e6dbd8a5f5ba6cd989f5ec8f011761e2f4c',
    'taylor_green 0.05': '5a42e246f43c8c530068ce1a5ef27ae866ff6de4779f4aa21cd3e64d74b25c97',
    'childress_soward(0.5) 0.002': '1f20880e3cfa22bf0f535e12b7e069cbdb8d995331df0700d133bcd902665f20',
    'childress_soward(0.5) 0.005': '05cfc10cc3e99dd30e61ae7c6872561cc6f56c0bc1c0862a474f190b51397bcc',
    'childress_soward(0.5) 0.01': '9d67c206ac0de37461236ab707ed05e1bf8349f5d2dd1abd4142233fa76c39ae',
}


@functools.lru_cache(maxsize=None)
def _solve(label, kappa):
    """Final modes, truncations tried, K and the row's bitwise digest."""
    tensor, sol = spectral_diffusivity(FLOWS[label](), kappa, rtol=RTOL, max_modes=MAX_MODES)
    digest = _sha(_array_bytes(tensor.entries), repr(sol.residual).encode(),
                  _array_bytes(sol.coefficients))
    return sol.modes, tuple(step.modes for step in sol.history), tensor.entries, digest


@pytest.mark.parametrize("label, kappa, modes, history, entries", TABLE,
                         ids=[f"{row[0]}-{row[1]:g}" for row in TABLE])
def test_spectral_identity_table(label, kappa, modes, history, entries):
    got_modes, got_history, got_entries, _ = _solve(label, kappa)
    assert got_modes == modes
    assert got_history == history
    # Taylor-Green's K12 is zero in exact arithmetic and recorded as
    # rounding, so every entry is also allowed 1e-12 of the tensor's scale
    scale = max(abs(v) for v in entries)
    np.testing.assert_allclose(got_entries.ravel(), entries, rtol=1e-12, atol=1e-12 * scale)


def test_table_covers_the_scan_and_criterion_4():
    assert [(label, kappa) for label, kappa, *_ in TABLE] == CASES
    assert list(SPECTRAL_DIGESTS) == [_spectral_name(label, kappa) for label, kappa in CASES]


def _spectral_name(label, kappa):
    return f"{label} {kappa!r}"


@pytest.mark.parametrize("label, kappa", CASES, ids=[_spectral_name(*case) for case in CASES])
def test_spectral_digest_table(label, kappa):
    got = _solve(label, kappa)[3]
    name = _spectral_name(label, kappa)
    assert got == SPECTRAL_DIGESTS.get(name), (
        f"{name}: sha256 {got} differs from the recorded {SPECTRAL_DIGESTS.get(name)}; "
        f"recorded on {DIGEST_ENV}, running on {_environment()}")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

ENSEMBLE_FLOWS = {
    "shear": steady_shear,
    "periodic_shear": lambda: periodic_shear(2.0),
    "ou_shear": lambda: ou_shear(1.0, 0.1),
    "taylor_green": taylor_green,
    "childress_soward": lambda: childress_soward(0.5),
}
# burn-in, an offset start and a stride; a rescaled run with a numeric eta0;
# a stride above the shear advance's 4096-step chunk
ENSEMBLE_CONFIGS = {
    "base": SimConfig(kappa=0.3, dt=0.01, t_final=0.6, x0=(0.4, 1.1), seed=5,
                      store_stride=3, burn_in=0.05),
    "eps0.5": SimConfig(kappa=0.3, dt=0.004, t_final=0.2, epsilon=0.5, eta0=0.25, seed=5),
    "stride4100": SimConfig(kappa=0.3, dt=1e-4, t_final=0.5, seed=5, store_stride=4100),
}

SWEEP_INIS = {
    "sweep-qv": """
        [flow]
        kind = periodic_shear
        omega = 2.0
        [simulation]
        kappa = 0.5
        dt = 0.01
        t_final = 5.0
        seed = 3
        store_stride = 2
        x0 = 1.0, 0.5
        burn_in = 0.3
        [estimation]
        estimator = qv
        delta = 0.02 0.1, 0.5
        theta = 0.05
        direction = y
        [sweep]
        realizations = 6
        batch_size = 4
        """,
    "sweep-box": """
        [flow]
        kind = taylor_green
        [simulation]
        kappa = 0.05
        dt = 0.004
        t_final = 2.0
        epsilon = 0.5
        seed = 11
        [estimation]
        estimator = box
        delta = 0.004 0.02 0.2
        theta = 0.05
        direction = xi:1,2
        [sweep]
        realizations = 5
        """,
    "sweep-shift": """
        [flow]
        kind = ou_shear
        alpha = 1.0
        sigma = 0.1
        [simulation]
        kappa = 0.1
        dt = 0.005
        t_final = 5.0
        seed = 7
        store_stride = 2
        eta0 = 0.25
        [estimation]
        estimator = shift
        delta = 0.1 0.2 0.5
        theta = 0.05
        direction = x
        [sweep]
        realizations = 6
        batch_size = 4
        """,
    # perfbench's noisy_box_cli at its tiny size
    "sweep-noisy-box": """
        [flow]
        kind = shear
        [simulation]
        kappa = 0.1
        dt = 0.01
        t_final = 50.0
        seed = 777
        store_stride = 1
        [estimation]
        estimator = box
        delta = 0.01 0.1 1.0 10.0
        theta = 0.05
        direction = x
        [sweep]
        realizations = 8
        batch_size = 64
        """,
}
RESCALED_INI = """
    [flow]
    kind = childress_soward
    lam = 0.5
    [simulation]
    kappa = 0.5
    t_final = 1.0
    seed = 2
    [estimation]
    estimator = qv
    theta = 0.05
    direction = x
    [sweep]
    realizations = 4
    epsilons = 0.5 0.25
    alpha_exponent = 1.0
    """
SIMULATE_INI = """
    [flow]
    kind = shear
    [simulation]
    kappa = 0.5
    dt = 0.01
    t_final = 2.0
    seed = 3
    store_stride = 2
    """
ESTIMATE_ARGS = {
    "estimate-qv": ["--delta", "0.1"],
    "estimate-box": ["--estimator", "box", "--delta", "0.1", "--theta", "0.05",
                     "--noise-seed", "4", "--direction", "xi:1,2"],
    "estimate-shift": ["--estimator", "shift", "--delta", "0.06", "--theta", "0.05",
                       "--direction", "x"],
}
ORACLE_ARGS = {
    "k-shear": ["--kappa", "0.3"],
    "k-periodic-shear": ["--kappa", "0.1", "--omega", "1.0", "--variant", "figure"],
    "k-ou-shear": ["--kappa", "0.1", "--alpha", "1.0", "--sigma", "0.1"],
    "shear-qv": ["--kappa", "0.1", "--n", "100", "--delta", "10.0"],
    "ou-qv": ["--kappa", "0.1", "--alpha", "1.0", "--sigma", "0.1", "--delta", "5.0"],
    "bias-limit": ["--n", "7"],
    "bm-box": ["--kappa", "0.5", "--delta", "0.3", "--j", "3"],
    "adjudicate": ["--kappa", "0.2", "--omega", "1.5", "--realizations", "4",
                   "--t-final", "60", "--dt", "0.01", "--seed", "9"],
}


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _array_bytes(a: np.ndarray) -> bytes:
    return repr((a.dtype.str, a.shape)).encode() + np.ascontiguousarray(a).tobytes()


def _ensemble(flow: str, config: str) -> str:
    rows = simulate_ensemble(ENSEMBLE_FLOWS[flow](), ENSEMBLE_CONFIGS[config], 5,
                             first_realization=2)
    return _sha(_array_bytes(rows))


def _estimates(estimator: str) -> str:
    """Raw entries at theta 0 and 0.05 on a short path, so one ULP of a bin mean shows."""
    config = ENSEMBLE_CONFIGS["base"]
    traj = Trajectory(simulate_ensemble(taylor_green(), config, 1)[0], config.dt_stored)
    chunks = []
    for theta in (0.0, 0.05):
        tensor = estimate_tensor(traj, estimator, 3 * config.dt_stored, theta,
                                 noise_generator(5, 0, 1))
        chunks += [_array_bytes(tensor.entries), repr(tensor.n_increments).encode()]
    return _sha(*chunks)


def _ini(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(line.strip() for line in text.splitlines()) + "\n")
    return path


def _cli(*argv: str) -> bytes:
    """stdout of one ``eddykit`` command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"eddykit {' '.join(argv)} exited {code}"
    return out.getvalue().encode()


def _command(name: str) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        if name in SWEEP_INIS:
            return _sha(_cli("sweep", "--config", _ini(workdir, "run.ini", SWEEP_INIS[name]),
                             "--output", "-"))
        if name == "rescaled":
            return _sha(_cli("rescaled", "--config", _ini(workdir, "run.ini", RESCALED_INI),
                             "--output", "-"))
        if name == "simulate" or name in ESTIMATE_ARGS:
            npz = os.path.join(workdir, "traj.npz")
            _cli("simulate", "--config", _ini(workdir, "run.ini", SIMULATE_INI), "--output", npz)
            if name in ESTIMATE_ARGS:
                return _sha(_cli("estimate", "--input", npz, *ESTIMATE_ARGS[name]))
            # the archive's own bytes carry a timestamp, so hash what it holds
            with np.load(npz) as data:
                return _sha(*(key.encode() + _array_bytes(data[key]) for key in sorted(data)))
        if name == "oracle adjudicate":
            csv = os.path.join(workdir, "rows.csv")
            report = _cli("oracle", "adjudicate", *ORACLE_ARGS["adjudicate"], "--csv", csv)
            with open(csv, "rb") as fh:
                return _sha(report, fh.read())
        oracle = name.split()[1]
        return _sha(_cli("oracle", oracle, *ORACLE_ARGS[oracle]))


DIGEST_CASES = (
    [f"ensemble {flow} {config}" for flow in ENSEMBLE_FLOWS for config in ENSEMBLE_CONFIGS]
    + [f"estimate_tensor {estimator}" for estimator in ("qv", "box", "shift")]
    + list(SWEEP_INIS) + ["rescaled", "simulate"] + list(ESTIMATE_ARGS)
    + [f"oracle {name}" for name in ORACLE_ARGS]
)


def _digest(name: str) -> str:
    if name.startswith("ensemble "):
        return _ensemble(*name.split()[1:])
    if name.startswith("estimate_tensor "):
        return _estimates(name.split()[1])
    return _command(name)


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


# the environment DIGESTS were recorded in
DIGEST_ENV = {'python': '3.11.7', 'numpy': '2.4.6', 'scipy': '1.17.1', 'machine': 'x86_64'}
DIGESTS = {
    'ensemble shear base': 'a1171aa2b74098f4bfe1762bb02aebeeec85bf20851bfbf372ffde7a16474769',
    'ensemble shear eps0.5': 'a83018572e51a012bb119ba7f3690c8cd1fb950aa94556017ef37920ff1e7903',
    'ensemble shear stride4100': '1630dcda15cb679971352be53d4a14801e792af4268a1c324e722f1c1d34383d',
    'ensemble periodic_shear base': 'de6c24ec9de8f27ac5aa483587a7ec91c89898368beb19e7da2d505ff0f731bf',
    'ensemble periodic_shear eps0.5': 'b4a1470c103006cb3d24aa98650289742a1ac246bcb995fc263c0fbcfc4c09dc',
    'ensemble periodic_shear stride4100': '601e66dd5f8e9f2b4b2f592f7e9a4d48520f4f531b465c33cfc0e6b1d7f411fa',
    'ensemble ou_shear base': '12234daff1e5b425be206812ab418ebb1238ec12e6d504c45d64ff00c0b2811a',
    'ensemble ou_shear eps0.5': 'ec0cad159c3d819b6fc356081ffc52fef07f1ab19a9f5a242463d6085e9bcce3',
    'ensemble ou_shear stride4100': '995e2e6b875a9d043003d4614ac7d1d93bbf05cdd7d0b9ce8cf719ad112a4551',
    'ensemble taylor_green base': 'd55201b3395afff10a6d9ff26623b7c3b4d16d5f28ed27dc94dd1d1d97176901',
    'ensemble taylor_green eps0.5': '04291d63ca324337249e01f8701bd5911aeb0f1efa7612b86ef6eccdacca7796',
    'ensemble taylor_green stride4100': 'c7185a8e8a08f02ec73f502a904b252fce30379554507f475c096e31c965d68c',
    'ensemble childress_soward base': '9daf2d52b7b10b90034a215039d0fc94c89e37127b6905fe3e828e88e5c308f8',
    'ensemble childress_soward eps0.5': 'ef6fe2fec77b3487b9bc4b1f5a2942ae8ce76e193f07ef439b414e9e48d20c3e',
    'ensemble childress_soward stride4100': 'e116db93ab70c1da9a1d3f8b7bb810e23aa0a7a58972492ac3eae7c20e82a602',
    'estimate_tensor qv': '36bd2eb429df56bb8e7b79d759e6feab6dda81f68cf41207df3d208e712f3179',
    'estimate_tensor box': '5cb8d572b3f19943292ff5d8609a7df83a92e546c3d16f0cec8cdc191a027feb',
    'estimate_tensor shift': '5e0fb13e26a8f862634d5b0b6864a3386e7c4a341acf482298b964c7095c4926',
    'sweep-qv': '64402780bdf8fe0aabea9ad4641dc1fbde12fda31e2fe11a24d6feaeb9c68ac2',
    'sweep-box': '1ca21b2423ff66a73267ea5e4f32df3fb743f2ef7966eac57f8e2b207b38eb28',
    'sweep-shift': '3545934e831998cb7810e7feb680cefe5e2115ad734b4eea1e3b1c989bfb2df7',
    'sweep-noisy-box': '17ca57f9b2b5a41093c7bb5c45392bd11daf22d3aee35f5431f66870a6ab7214',
    'rescaled': '6b70c54a5b2fb83083fa44563cff21558bc845265d17260ba1714a7c359936f2',
    'simulate': 'ed6226bbe06ea1bc82b1dd9a40125c92ec1429fc76319675f6fd846f98555959',
    'estimate-qv': '90577fe7c8e7592f916361c97368d55afae27f10060476d31f57e17be8514392',
    'estimate-box': 'be22d67d30d0909c95272d8dfe96c624130ebe723fc3709ac56940688a3722e0',
    'estimate-shift': '72d87d4eb81dcad3ff2fb18d964f5ac1623389434ad2563e72d7fa4999e14917',
    'oracle k-shear': 'e077ea99ed5b569f57fdf9d4543e58125c0421e754b76271293e61f9923d58dd',
    'oracle k-periodic-shear': 'c31ef1244cdf9cb4bb0053698aed4965e4a96756fccd4083f394e1c019879864',
    'oracle k-ou-shear': '6b84e7b3344c57fe675d1f4b161fd0bce1fd0c28008269dec7518dee79f1f6f1',
    'oracle shear-qv': 'd9073fe26dae2faf8fbb15d3c7f22663c08e0e1e6db86bf3700c1bbbc02dcf95',
    'oracle ou-qv': 'ff10ab51bc217e1ca9396d3d874dd73db2f64d506d3975053d18af1d12f326a4',
    'oracle bias-limit': 'c85ce6e2ac240bf6a5c8f275c26b2a653ae4678eb0c69c41e78ab5f8d4633063',
    'oracle bm-box': 'efbf31e83d870e167f599fddf501336dd06acdcf5fd78143510b0ab803acb19c',
    'oracle adjudicate': '280a02183ce409daeed7e42ddfba8fcd9ae1a25119e28ccc5fdfed5e0993f736',
}


def test_digest_environment_is_the_recorded_one():
    assert _environment() == DIGEST_ENV, (
        f"DIGESTS were recorded on {DIGEST_ENV}, this is {_environment()}; "
        f"record a fresh table here (see the module docstring)")


@pytest.mark.parametrize("name", DIGEST_CASES)
def test_digest_table(name):
    got = _digest(name)
    assert got == DIGESTS.get(name), (
        f"{name}: sha256 {got} differs from the recorded {DIGESTS.get(name)}; "
        f"recorded on {DIGEST_ENV}, running on {_environment()}")


def test_digest_table_covers_every_case():
    assert list(DIGESTS) == DIGEST_CASES


if __name__ == "__main__":
    for label, kappa in CASES:
        modes, history, entries, _ = _solve(label, kappa)
        values = ", ".join(f"{v:.17g}" for v in entries.ravel())
        print(f"    ({label!r}, {kappa!r}, {modes}, {history},\n     ({values})),")
    print("SPECTRAL_DIGESTS = {")
    for label, kappa in CASES:
        print(f"    {_spectral_name(label, kappa)!r}: {_solve(label, kappa)[3]!r},")
    print("}")
    print(f"DIGEST_ENV = {_environment()!r}")
    print("DIGESTS = {")
    for name in DIGEST_CASES:
        print(f"    {name!r}: {_digest(name)!r},")
    print("}")
