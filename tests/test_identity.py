"""Spectral identity table: adaptive cell solves against recorded values.

Each row is one ``spectral_diffusivity(flow, kappa, rtol=1e-6,
max_modes=256)`` call: the seven cases of perfbench's
``cell_spectral_scan`` and the Taylor-Green kappa of acceptance
criterion 4, which share that call. A row records the entries of K to 17
significant digits, the final truncation and the truncations tried. A
change to the solver that claims "identical up to rounding" must keep K
within rtol 1e-12 (and 1e-12 of the largest entry) and the truncations
exactly.

Print a fresh table, for pasting here after a change that is allowed to
move these values, with

    PYTHONPATH=src python tests/test_identity.py
"""

import numpy as np
import pytest

from eddykit import childress_soward, spectral_diffusivity, taylor_green

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


def _solve(label, kappa):
    tensor, sol = spectral_diffusivity(FLOWS[label](), kappa, rtol=RTOL, max_modes=MAX_MODES)
    return sol.modes, tuple(step.modes for step in sol.history), tensor.entries


@pytest.mark.parametrize("label, kappa, modes, history, entries", TABLE,
                         ids=[f"{row[0]}-{row[1]:g}" for row in TABLE])
def test_spectral_identity_table(label, kappa, modes, history, entries):
    got_modes, got_history, got_entries = _solve(label, kappa)
    assert got_modes == modes
    assert got_history == history
    # Taylor-Green's K12 is zero in exact arithmetic and recorded as
    # rounding, so every entry is also allowed 1e-12 of the tensor's scale
    scale = max(abs(v) for v in entries)
    np.testing.assert_allclose(got_entries.ravel(), entries, rtol=1e-12, atol=1e-12 * scale)


def test_table_covers_the_scan_and_criterion_4():
    assert [(label, kappa) for label, kappa, *_ in TABLE] == CASES


if __name__ == "__main__":
    for label, kappa in CASES:
        modes, history, entries = _solve(label, kappa)
        values = ", ".join(f"{v:.17g}" for v in entries.ravel())
        print(f"    ({label!r}, {kappa!r}, {modes}, {history},\n     ({values})),")
