"""Tests for the spectral cell-problem solver.

The steady shear flow is the exact reference: its corrector is
chi = (0, -sin(x)/kappa), band limited, so the Galerkin solution must
reproduce both the coefficients and kappa + 1/(2 kappa) to solver
precision at any truncation. The cellular flows are checked against
values frozen from an independent prototype of the same discretization
and against structural invariants (symmetry, isotropy, lower bound).
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eddykit import (
    CellSolution,
    ConvergenceError,
    DoublingStep,
    FlowSpec,
    ParameterError,
    ScalingFit,
    UnsupportedFlowError,
    childress_soward,
    eddy_diffusivity_from_cell,
    fit_scaling_exponent,
    flow_label,
    homogenization,
    k_shear,
    ou_shear,
    periodic_shear,
    solve_cell_problem,
    spectral_diffusivity,
    steady_shear,
    taylor_green,
    velocity_modes,
)
from eddykit import fields
from eddykit.fields import FLOW_PARAMS, TIME_INDEPENDENT

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# steady shear: exact reference
# ---------------------------------------------------------------------------


def test_shear_corrector_coefficients():
    kappa = 0.1
    sol = solve_cell_problem(steady_shear(), kappa, modes=8)
    # chi^2 = -sin(x)/kappa picks out the (+-1, 0) modes with weight +-i/(2 kappa)
    assert sol.coefficient(2, 1, 0) == pytest.approx(1j / (2 * kappa), abs=1e-12)
    assert sol.coefficient(2, -1, 0) == pytest.approx(-1j / (2 * kappa), abs=1e-12)
    # chi^1 vanishes, as does everything off the shear band
    assert np.max(np.abs(sol.coefficients[0])) < 1e-13
    other = sol.coefficients[1].copy()
    m = sol.modes
    other[m + 1, m] = other[m - 1, m] = 0.0
    assert np.max(np.abs(other)) < 1e-13
    assert abs(sol.coefficient(1, 0, 0)) == 0.0
    assert abs(sol.coefficient(2, 0, 0)) == 0.0


@pytest.mark.parametrize("kappa", [0.05, 0.1, 0.5, 1.0])
def test_spectral_matches_analytic_shear(kappa):
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(steady_shear(), kappa, modes=8))
    assert tensor.entries[1, 1] == pytest.approx(k_shear(kappa), rel=1e-10, abs=0.0)
    assert tensor.entries[0, 0] == pytest.approx(kappa, abs=1e-12)
    assert abs(tensor.entries[0, 1]) < 1e-12


# ---------------------------------------------------------------------------
# cellular flows against frozen prototype values
# ---------------------------------------------------------------------------


def test_taylor_green_frozen_value_and_isotropy():
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(taylor_green(), 0.1, modes=16))
    assert tensor.entries[0, 0] == pytest.approx(0.3416574503389721, rel=1e-9, abs=0.0)
    assert abs(tensor.entries[0, 0] - tensor.entries[1, 1]) < 1e-10
    assert abs(tensor.entries[0, 1]) < 1e-10


def test_taylor_green_truncation_converged():
    coarse = eddy_diffusivity_from_cell(solve_cell_problem(taylor_green(), 0.1, modes=16))
    fine = eddy_diffusivity_from_cell(solve_cell_problem(taylor_green(), 0.1, modes=32))
    assert np.max(np.abs(fine.entries - coarse.entries)) < 1e-8 * fine.entries[0, 0]


def test_childress_soward_frozen_values():
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(childress_soward(0.5), 0.1, modes=48))
    np.testing.assert_allclose(
        tensor.entries,
        np.array([[0.92554337, 0.79087976], [0.79087976, 0.92554337]]),
        atol=1e-7,
    )
    assert tensor.project((1 / SQ2, 1 / SQ2)) == pytest.approx(
        1.716423126170169, rel=1e-8, abs=0.0)
    assert tensor.project((-1 / SQ2, 1 / SQ2)) == pytest.approx(
        0.13466361475636562, rel=1e-8, abs=0.0)


def test_childress_soward_lambda_zero_reduces_to_taylor_green():
    a = eddy_diffusivity_from_cell(solve_cell_problem(taylor_green(), 0.2, modes=16))
    b = eddy_diffusivity_from_cell(solve_cell_problem(childress_soward(0.0), 0.2, modes=16))
    np.testing.assert_array_equal(a.entries, b.entries)


def test_childress_soward_anisotropic_scaling():
    # along the open channel (1, 1) the diffusivity grows as kappa drops,
    # across it the trend is the opposite; the fitted exponents must split
    along, across = [], []
    for kappa in (0.05, 0.1, 0.2):
        tensor = eddy_diffusivity_from_cell(
            solve_cell_problem(childress_soward(0.5), kappa, modes=48))
        along.append((kappa, tensor.project((1 / SQ2, 1 / SQ2))))
        across.append((kappa, tensor.project((-1 / SQ2, 1 / SQ2))))
    fit_along = fit_scaling_exponent(along)
    fit_across = fit_scaling_exponent(across)
    assert fit_along.exponent < 0.0 < fit_across.exponent


def test_high_kappa_is_molecular():
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(taylor_green(), 1e6, modes=8))
    assert abs(tensor.entries[0, 0] - 1e6) < 1e-5
    assert abs(tensor.entries[0, 1]) < 1e-8


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flow", [taylor_green(), childress_soward(0.5)], ids=lambda f: f.kind)
def test_molecular_lower_bound(flow):
    kappa = 0.1
    tensor = eddy_diffusivity_from_cell(solve_cell_problem(flow, kappa, modes=16))
    rng = np.random.default_rng(17)
    for _ in range(100):
        xi = rng.standard_normal(2)
        assert tensor.project(xi) >= kappa * (xi @ xi) * (1.0 - 1e-12)


def test_conjugate_symmetry_of_corrector():
    # the solve writes 1j*y on H and -1j*y on -H, so the symmetry is exact
    for flow in (taylor_green(), childress_soward(0.5), steady_shear()):
        sol = solve_cell_problem(flow, 0.1, modes=16)
        for comp in (0, 1):
            coef = sol.coefficients[comp]
            flipped = np.flip(np.flip(coef, axis=0), axis=1)
            np.testing.assert_array_equal(flipped, np.conj(coef))


def test_residual_is_recorded_and_small():
    sol = solve_cell_problem(childress_soward(0.3), 0.05, modes=24)
    assert 0.0 <= sol.residual <= 1e-10


def test_small_kappa_residual_meets_the_contract():
    # the diagonal-pivot factorization alone leaves about 8e-10 here;
    # the refinement step brings it back under the contract
    sol = solve_cell_problem(childress_soward(0.5), 1e-5, modes=64)
    assert sol.residual <= 1e-10


def test_refined_residual_above_contract_raises(monkeypatch):
    # factoring 1.5 A leaves x/1.5 after the first solve and 8x/9 after the
    # refinement step, so the refined residual is 1/9 in each component
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: real_splu(1.5 * a, **kw))
    with pytest.raises(ConvergenceError) as caught:
        solve_cell_problem(taylor_green(), 0.1, modes=8)
    assert caught.value.residual == pytest.approx(1.0 / 9.0, rel=1e-10, abs=0.0)


def _representatives(block):
    """Flat lattice index of each unknown's orbit representative.

    _fold takes an orbit's value at its last point, so the representative
    of unknown j is the last point of the reachable set that coef keeps
    and column maps to j.
    """
    kept = np.flatnonzero(block.coef != 0)
    last = np.zeros(block.ksq.size, dtype=np.intp)
    np.maximum.at(last, block.column[kept], kept)
    return block.points[last]


@pytest.mark.parametrize("kind", TIME_INDEPENDENT)
@pytest.mark.parametrize("m", [8, 24])
def test_symmetric_part_is_the_diagonal_diffusion(kind, m):
    # diagonal pivots are safe only because every block's B + B^T is positive
    # definite; the zero mode is in no block, so every diagonal entry is
    # 2 w kappa |k|^2 > 0, with w in {1, 2} the orbit size over 2
    kappa = 0.1
    flow = FlowSpec(kind, **{name: 0.5 for name in FLOW_PARAMS[kind]})
    blocks, _, _ = homogenization._assemble(flow, kappa, m)
    for block in blocks:
        sym = (block.matrix + block.matrix.T).tocoo()
        off = sym.row != sym.col
        assert np.all(sym.data[off] == 0.0)
        k1, k2 = np.divmod(_representatives(block), 2 * m + 1)
        expected = 2.0 * kappa * ((k1 - m) ** 2 + (k2 - m) ** 2) * block.weight
        np.testing.assert_array_equal(sym.diagonal(), expected)
        assert np.all(expected > 0.0)
        assert set(block.weight.tolist()) <= {1.0, 2.0}


# ---------------------------------------------------------------------------
# reachable real system against the full-lattice complex Galerkin system
# ---------------------------------------------------------------------------


def _full_lattice_system(flow, kappa, m):
    """Reference: the complex Galerkin system on every |k1|, |k2| <= m."""
    side = 2 * m + 1
    n = side * side
    ks = np.arange(-m, m + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    rows, cols = [np.arange(n)], [np.arange(n)]
    vals = [(kappa * (k1 ** 2 + k2 ** 2)).astype(complex).ravel()]
    rhs = np.zeros((n, 2), dtype=complex)
    for mode, vhat in velocity_modes(flow).items():
        s1, s2 = k1 - mode[0], k2 - mode[1]
        ok = (np.abs(s1) <= m) & (np.abs(s2) <= m)
        rows.append((k1[ok] + m) * side + (k2[ok] + m))
        cols.append((s1[ok] + m) * side + (s2[ok] + m))
        vals.append(-1j * (vhat[0] * s1[ok] + vhat[1] * s2[ok]))
        rhs[(mode[0] + m) * side + (mode[1] + m)] = -vhat
    zero = m * side + m
    rows.append([zero])
    cols.append([zero])
    vals.append([1.0])
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n), dtype=complex).tocsc()
    return matrix, rhs


def _full_lattice_coefficients(flow, kappa, m):
    matrix, rhs = _full_lattice_system(flow, kappa, m)
    side = 2 * m + 1
    lu = spla.splu(matrix)
    return np.stack([lu.solve(rhs[:, i]).reshape(side, side) for i in range(2)])


REACHABLE_CASES = [
    (steady_shear(), "line"),
    (taylor_green(), "parity"),
    (childress_soward(0.5), "parity"),
    (childress_soward(1.0), "parity"),
]
REACHABLE_IDS = [flow_label(flow) for flow, _ in REACHABLE_CASES]


@pytest.mark.parametrize("flow, shape", REACHABLE_CASES, ids=REACHABLE_IDS)
@pytest.mark.parametrize("m, kappa", [(8, 0.1), (24, 0.1), (8, 0.005), (24, 0.005)],
                         ids=["8", "24", "8-kappa0.005", "24-kappa0.005"])
def test_reachable_real_system_matches_full_lattice(flow, shape, m, kappa):
    sol = solve_cell_problem(flow, kappa, modes=m)
    ref = _full_lattice_coefficients(flow, kappa, m)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(sol.coefficients, ref, rtol=0.0, atol=1e-12 * scale)


def _reachable_and_half(shape, m):
    """The reachable set of a REACHABLE_CASES shape and its half H."""
    ks = np.arange(-m, m + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    reachable = k2 == 0 if shape == "line" else (k1 + k2) % 2 == 0
    return reachable, reachable & ((k1 > 0) | ((k1 == 0) & (k2 > 0)))


@pytest.mark.parametrize("flow, shape", REACHABLE_CASES, ids=REACHABLE_IDS)
@pytest.mark.parametrize("m", [8, 24])
def test_reachable_set_size_and_zero_off_set(flow, shape, m):
    side = 2 * m + 1
    blocks, swap, _ = homogenization._assemble(flow, 0.1, m)
    expected, half = _reachable_and_half(shape, m)
    size = side if shape == "line" else (side * side + 1) // 2
    assert np.count_nonzero(expected) == size
    # the blocks solve on orbits of H; without G the one block is H itself,
    # and the two G blocks together cover every nonzero reachable mode
    n_half = (size - 1) // 2
    if swap is None:
        assert len(blocks) == 1 and blocks[0].matrix.shape == (n_half, n_half)
        np.testing.assert_array_equal(_representatives(blocks[0]), np.flatnonzero(half))
    else:
        assert all(block.matrix.shape == (n_half // 2, n_half // 2) for block in blocks)
    covered = np.zeros(side * side, dtype=bool)
    for block in blocks:
        assert np.all(half.ravel()[_representatives(block)])
        # the embedding lives on the reachable set and is odd under k -> -k
        np.testing.assert_array_equal(block.points, np.flatnonzero(expected))
        coef = np.zeros(side * side)
        coef[block.points] = block.coef
        np.testing.assert_array_equal(coef[::-1], -coef)
        covered |= coef != 0.0
        assert block.matrix.dtype == np.float64 and block.rhs.dtype == np.float64
    if len(blocks) == 1 + (swap is not None):
        nonzero = expected.ravel().copy()
        nonzero[side * side // 2] = False
        np.testing.assert_array_equal(covered, nonzero)

    sol = solve_cell_problem(flow, 0.1, modes=m)
    off = sol.coefficients[:, ~expected]
    assert np.all(off == 0.0)


# (flow, shape, has G, has R)
SYMMETRY_CASES = [
    (steady_shear(), "line", False, False),
    (taylor_green(), "parity", True, True),
    (childress_soward(0.0), "parity", True, True),
    (childress_soward(0.5), "parity", True, False),
    (childress_soward(1.0), "parity", True, False),
]
SYMMETRY_IDS = [flow_label(case[0]) for case in SYMMETRY_CASES]


@pytest.mark.parametrize("flow, shape, swap, mirror", SYMMETRY_CASES, ids=SYMMETRY_IDS)
def test_factorization_sees_only_the_half_set(flow, shape, swap, mirror, monkeypatch):
    # guards against a silent return to the whole H, or to the reachable set:
    # H whole without G, else one (|H|/2)^2 factorization per G block solved
    m = 16
    seen = []
    real_splu = spla.splu

    def recording_splu(a, **kw):
        seen.append(a.shape)
        return real_splu(a, **kw)

    monkeypatch.setattr(spla, "splu", recording_splu)
    solve_cell_problem(flow, 0.1, modes=m)
    reachable, _ = _reachable_and_half(shape, m)
    n = (np.count_nonzero(reachable) - 1) // 2
    if not swap:
        assert seen == [(n, n)]
    else:
        assert n % 2 == 0
        assert seen == [(n // 2, n // 2)] * (1 if mirror else 2)


# ---------------------------------------------------------------------------
# symmetry blocks
# ---------------------------------------------------------------------------


def test_symmetry_cases_cover_every_time_independent_kind():
    assert {case[0].kind for case in SYMMETRY_CASES} == set(TIME_INDEPENDENT)


@pytest.mark.parametrize("flow, shape, swap, mirror", SYMMETRY_CASES, ids=SYMMETRY_IDS)
def test_symmetries_are_read_from_the_stream_modes(flow, shape, swap, mirror):
    assert homogenization._symmetries(homogenization.stream_modes(flow)) == (swap, mirror)


def _dense(t, size):
    # T x for every unit vector x: the columns of T
    return t.apply(np.eye(size)).T


def test_lattice_maps_act_as_documented():
    # (T_N f)_(a,b) = f_(-a,-b), (T_G f)_(a,b) = (-1)^b f_(b,a), (T_R f)_(a,b) = f_(-a,b)
    m = 5
    side = 2 * m + 1
    grid = np.random.default_rng(3).standard_normal((side, side))
    parity = (-1.0) ** np.arange(-m, m + 1)
    for t, expected in ((homogenization._N, grid[::-1, ::-1]),
                        (homogenization._G, parity[None, :] * grid.T),
                        (homogenization._R, grid[::-1, :])):
        np.testing.assert_array_equal(t.apply(grid.ravel()).reshape(side, side), expected)


@pytest.mark.parametrize("flow, shape, swap, mirror", SYMMETRY_CASES, ids=SYMMETRY_IDS)
def test_detected_maps_commute_with_the_h_matrix(flow, shape, swap, mirror):
    # B = P^T A P / 2 on H for the odd embedding P, from the independent
    # full-lattice operator; each detected map, folded onto H the same way,
    # must commute with it exactly. On the parity set a map that is not
    # detected must not; the shear's line carries no advection at all.
    m = 8
    side = 2 * m + 1
    matrix, _ = _full_lattice_system(flow, 0.1, m)
    full = matrix.toarray()
    assert np.all(full.imag == 0.0)
    _, half = _reachable_and_half(shape, m)
    h = np.flatnonzero(half)
    embed = np.zeros((side * side, h.size))
    embed[h, np.arange(h.size)] = 1.0
    embed[side * side - 1 - h, np.arange(h.size)] = -1.0
    b = embed.T @ full.real @ embed / 2.0
    for t, detected in ((homogenization._G, swap), (homogenization._R, mirror)):
        s = embed.T @ _dense(t, side * side) @ embed / 2.0
        if detected:
            assert np.all(np.count_nonzero(s, axis=1) == 1)
            np.testing.assert_array_equal(s @ b, b @ s)
        elif shape == "parity":
            assert not np.array_equal(s @ b, b @ s)


def test_even_flow_without_swap_runs_as_one_block(monkeypatch):
    # Taylor-Green plus cos 2x is even but has neither G nor R, so it must
    # go through the same loop as one block with both right-hand sides
    def with_cosine(flow):
        modes = {(1, 1): -0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): -0.25}
        return {**modes, (2, 0): 0.2, (-2, 0): 0.2}

    monkeypatch.setattr(fields, "stream_modes", with_cosine)
    monkeypatch.setattr(homogenization, "stream_modes", with_cosine)
    assert homogenization._symmetries(with_cosine(None)) == (False, False)
    seen = []
    real_splu = spla.splu

    def recording_splu(a, **kw):
        seen.append(a.shape)
        return real_splu(a, **kw)

    monkeypatch.setattr(spla, "splu", recording_splu)
    for m, kappa in ((8, 0.1), (24, 0.005)):
        seen.clear()
        sol = solve_cell_problem(taylor_green(), kappa, modes=m)
        reachable, _ = _reachable_and_half("parity", m)
        n = (np.count_nonzero(reachable) - 1) // 2
        assert seen == [(n, n)]
        ref = _full_lattice_coefficients(taylor_green(), kappa, m)
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(sol.coefficients, ref, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("flow", [steady_shear(), taylor_green(), childress_soward(0.5)],
                         ids=flow_label)
def test_reported_residual_is_the_full_lattice_one(flow, monkeypatch):
    # factoring A (I + c E) for a diagonal E that differs between blocks
    # leaves a refined residual of order c^2 that differs between them too;
    # the reported residual must be the full operator's on the coefficients
    real_splu = spla.splu
    calls = []

    def perturbed_splu(a, **kw):
        calls.append(a.shape)
        c = 3e-6 * len(calls) ** 2
        return real_splu((a @ sp.diags(1.0 + c * np.linspace(1.0, 2.0, a.shape[0]))).tocsc(),
                         **kw)

    monkeypatch.setattr(spla, "splu", perturbed_splu)
    m, kappa = 12, 0.1
    sol = solve_cell_problem(flow, kappa, modes=m)
    matrix, rhs = _full_lattice_system(flow, kappa, m)
    full = 0.0
    for i in range(2):
        err = np.linalg.norm(matrix @ sol.coefficients[i].ravel() - rhs[:, i])
        scale = np.linalg.norm(rhs[:, i])
        full = max(full, err / scale if scale > 0.0 else err)
    assert 1e-13 < full < 1e-10
    assert sol.residual == pytest.approx(full, rel=1e-5, abs=0.0)


def test_velocity_with_real_part_is_refused(monkeypatch):
    def modes_with_real_part(flow):
        return {(1, 0): np.array([0.0, 0.5 - 0.5j]), (-1, 0): np.array([0.0, 0.5 + 0.5j])}

    monkeypatch.setattr(homogenization, "velocity_modes", modes_with_real_part)
    with pytest.raises(UnsupportedFlowError, match=r"\(1, 0\)"):
        solve_cell_problem(steady_shear(), 0.1, modes=8)


# ---------------------------------------------------------------------------
# the kappa-free operator, built once per (velocity modes, symmetries, M)
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_operators(monkeypatch):
    """An empty operator cache for one test, and the list of M built in it."""
    monkeypatch.setattr(homogenization, "_operators", {})
    built = []
    real_operator = homogenization._operator

    def recording_operator(vm, folds, components, m_trunc):
        built.append(m_trunc)
        return real_operator(vm, folds, components, m_trunc)

    monkeypatch.setattr(homogenization, "_operator", recording_operator)
    return built


def _cache_bytes():
    return sum(nbytes for _, nbytes in homogenization._operators.values())


@pytest.mark.parametrize("flow", [steady_shear(), taylor_green(), childress_soward(0.5)],
                         ids=flow_label)
def test_kappa_enters_only_the_diagonal(flow, fresh_operators):
    m = 12
    first, _, _ = homogenization._assemble(flow, 0.1, m)
    second, _, _ = homogenization._assemble(flow, 0.003, m)
    assert fresh_operators == [m]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.matrix.indptr, b.matrix.indptr)
        np.testing.assert_array_equal(a.matrix.indices, b.matrix.indices)
        assert a.matrix.indices.dtype == a.matrix.indptr.dtype == np.int32
        rows = np.repeat(np.arange(a.matrix.shape[1]), np.diff(a.matrix.indptr))
        on_diagonal = a.matrix.indices == rows
        assert np.count_nonzero(on_diagonal) == a.matrix.shape[0]
        np.testing.assert_array_equal(np.flatnonzero(on_diagonal), a.diagonal)
        assert a.matrix.data[~on_diagonal].tobytes() == b.matrix.data[~on_diagonal].tobytes()
        for kappa, block in ((0.1, a), (0.003, b)):
            expected = kappa * block.ksq.astype(float) * block.weight
            assert block.matrix.data[block.diagonal].tobytes() == expected.tobytes()


def test_scan_builds_each_structure_once(fresh_operators):
    # perfbench's scan: 24 solves on 8 (flow, M) structures, the rest reuse
    for flow, kappas in ((taylor_green(), (0.005, 0.01, 0.02, 0.05)),
                         (childress_soward(0.5), (0.002, 0.005, 0.01))):
        for kappa in kappas:
            spectral_diffusivity(flow, kappa, rtol=1e-6, max_modes=256)
    assert sorted(fresh_operators) == [16, 16, 32, 32, 64, 64, 128, 128]


def _cosine_patched_modes(flow):
    # Taylor-Green plus cos 2x, as in test_even_flow_without_swap_runs_as_one_block
    modes = {(1, 1): -0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): -0.25}
    return {**modes, (2, 0): 0.2, (-2, 0): 0.2}


def test_patched_modes_do_not_share_the_cached_operator(fresh_operators, monkeypatch):
    # keyed by the modes, not the FlowSpec: Taylor-Green, then the same FlowSpec
    # with cosine-patched modes, then Taylor-Green again factor the shapes and
    # give the bits of solves on an empty cache
    m, kappa = 12, 0.05
    seen = []
    real_splu = spla.splu

    def recording_splu(a, **kw):
        seen.append(a.shape)
        return real_splu(a, **kw)

    monkeypatch.setattr(spla, "splu", recording_splu)
    reachable, _ = _reachable_and_half("parity", m)
    n = (np.count_nonzero(reachable) - 1) // 2
    first = solve_cell_problem(taylor_green(), kappa, modes=m)
    with monkeypatch.context() as patch:
        patch.setattr(fields, "stream_modes", _cosine_patched_modes)
        patch.setattr(homogenization, "stream_modes", _cosine_patched_modes)
        patched = solve_cell_problem(taylor_green(), kappa, modes=m)
        homogenization._operators.clear()
        patched_fresh = solve_cell_problem(taylor_green(), kappa, modes=m)
    again = solve_cell_problem(taylor_green(), kappa, modes=m)
    assert seen == [(n // 2, n // 2), (n, n), (n, n), (n // 2, n // 2)]
    assert fresh_operators == [m, m, m, m]
    assert patched.coefficients.tobytes() == patched_fresh.coefficients.tobytes()
    assert again.coefficients.tobytes() == first.coefficients.tobytes()
    assert not np.array_equal(patched.coefficients, first.coefficients)


def test_real_part_is_refused_on_a_warm_cache(fresh_operators, monkeypatch):
    # the patched modes keep the shear's imaginary parts, so only the refusal,
    # not the cache key, tells them apart
    solve_cell_problem(steady_shear(), 0.1, modes=8)
    real_modes = velocity_modes(steady_shear())

    def modes_with_real_part(flow):
        return {mode: vhat + np.array([0.0, 0.5]) for mode, vhat in real_modes.items()}

    monkeypatch.setattr(homogenization, "velocity_modes", modes_with_real_part)
    with pytest.raises(UnsupportedFlowError, match=r"\(1, 0\)"):
        solve_cell_problem(steady_shear(), 0.1, modes=8)
    assert fresh_operators == [8]


@pytest.mark.parametrize("flow", [steady_shear(), taylor_green(), childress_soward(0.5)],
                         ids=flow_label)
def test_mutating_returned_arrays_leaves_the_next_solve_unchanged(flow, fresh_operators):
    m, kappa = 12, 0.05
    sol = solve_cell_problem(flow, kappa, modes=m)
    reference = sol.coefficients.copy()
    sol.coefficients[...] = 7.0
    blocks, _, _ = homogenization._assemble(flow, kappa, m)
    for block in blocks:
        for array in homogenization._block_arrays(block):
            try:
                array[...] = 1
            except ValueError:
                pass  # a read-only view of the cached operator
    again = solve_cell_problem(flow, kappa, modes=m)
    assert again.coefficients.tobytes() == reference.tobytes()
    assert fresh_operators == [m]


def test_cached_operators_stay_within_their_byte_bound(fresh_operators):
    # each ladder to M = 256 fits the bound on its own; the three together
    # do not, so the least recently used operators make way
    ladder = [16, 32, 64, 128, 256]
    for flow in (taylor_green(), childress_soward(0.5), childress_soward(1.0)):
        for m in ladder:
            solve_cell_problem(flow, 0.05, modes=m)
            assert _cache_bytes() <= homogenization._OPERATOR_BYTES
        assert [key[-1] for key in homogenization._operators][-len(ladder):] == ladder
    for blocks, nbytes in homogenization._operators.values():
        arrays = {id(a): a for block in blocks for a in homogenization._block_arrays(block)}
        assert nbytes == sum(a.nbytes for a in arrays.values())
    assert len(homogenization._operators) < 3 * len(ladder)
    # a hit makes its operator the most recently used, and builds nothing
    solve_cell_problem(childress_soward(1.0), 0.05, modes=16)
    assert next(reversed(homogenization._operators))[-1] == 16
    assert len(fresh_operators) == 3 * len(ladder)


# ---------------------------------------------------------------------------
# adaptive refinement and scaling fit
# ---------------------------------------------------------------------------


def test_spectral_diffusivity_converges():
    tensor, sol = spectral_diffusivity(taylor_green(), 0.1, rtol=1e-8)
    assert tensor.entries[0, 0] == pytest.approx(0.3416574503389721, rel=1e-6, abs=0.0)
    assert sol.modes >= 32
    assert tensor.provenance == "spectral"


def test_spectral_diffusivity_stops_at_cap():
    # rtol = 0 never converges, so the loop must return the cap quietly
    tensor, sol = spectral_diffusivity(taylor_green(), 0.5, rtol=0.0,
                                       initial_modes=4, max_modes=8)
    assert sol.modes == 8
    assert tensor.entries[0, 0] > 0.5


def test_spectral_diffusivity_records_history_and_convergence():
    tensor, sol = spectral_diffusivity(taylor_green(), 0.1, rtol=1e-8)
    assert sol.converged is True
    assert [step.modes for step in sol.history] == [16 * 2 ** j for j in range(len(sol.history))]
    assert sol.history[-1].modes == sol.modes
    assert math.isnan(sol.history[0].change)
    assert sol.history[-1].change <= 1e-8
    assert all(step.residual <= 1e-10 for step in sol.history)
    assert isinstance(sol.history[0], DoublingStep)
    assert solve_cell_problem(taylor_green(), 0.1, modes=16).converged is None


def test_spectral_diffusivity_flags_cap_as_unconverged():
    _, sol = spectral_diffusivity(taylor_green(), 0.5, rtol=0.0,
                                  initial_modes=4, max_modes=8)
    assert sol.converged is False
    assert [step.modes for step in sol.history] == [4, 8]
    assert sol.history[1].change >= 0.0


def test_spectral_diffusivity_tries_a_cap_off_the_doubling_ladder():
    # 100 is not 16 * 2^k, and must still be the last truncation tried
    _, sol = spectral_diffusivity(taylor_green(), 0.5, rtol=0.0,
                                  initial_modes=16, max_modes=100)
    assert sol.modes == 100
    assert [step.modes for step in sol.history] == [16, 32, 64, 100]
    assert sol.converged is False


def test_fit_scaling_exponent_exact_power_law():
    samples = [(k, 3.0 * k ** 0.5) for k in (0.01, 0.04, 0.09, 0.25)]
    fit = fit_scaling_exponent(samples)
    assert fit.exponent == pytest.approx(0.5, rel=1e-12, abs=0.0)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12, abs=0.0)
    assert isinstance(fit, ScalingFit)


def test_fit_scaling_exponent_validation():
    with pytest.raises(ParameterError):
        fit_scaling_exponent([(0.1, 1.0), (0.2, 2.0)])
    for bad in ((0.3, -1.0), (0.3, math.nan), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ParameterError, match=r"sample 2 \(kappa="):
            fit_scaling_exponent([(0.1, 1.0), (0.2, 2.0), bad])
    with pytest.raises(ParameterError, match="fewer than two distinct kappa"):
        fit_scaling_exponent([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])


# ---------------------------------------------------------------------------
# domain errors
# ---------------------------------------------------------------------------


def test_time_dependent_flows_are_rejected():
    for flow in (periodic_shear(1.0), ou_shear(1.0, 0.1)):
        with pytest.raises(UnsupportedFlowError):
            solve_cell_problem(flow, 0.1)


def test_solver_validation():
    with pytest.raises(ParameterError):
        solve_cell_problem(taylor_green(), 0.0)
    with pytest.raises(ParameterError):
        solve_cell_problem(taylor_green(), 0.1, modes=3)
    with pytest.raises(ParameterError):
        solve_cell_problem(taylor_green(), 0.1, modes=8.5)
    with pytest.raises(ParameterError):
        spectral_diffusivity(taylor_green(), 0.1, initial_modes=2)
    with pytest.raises(ParameterError):
        spectral_diffusivity(taylor_green(), 0.1, initial_modes=16, max_modes=8)
    with pytest.raises(ParameterError):
        spectral_diffusivity(taylor_green(), 0.1, rtol=-1e-6)


@pytest.mark.parametrize("value", [4.5, math.nan, math.inf, 3])
@pytest.mark.parametrize("name", ["modes", "initial_modes", "max_modes"])
def test_truncation_must_be_an_integer_of_at_least_4(name, value):
    solve = solve_cell_problem if name == "modes" else spectral_diffusivity
    with pytest.raises(ParameterError, match=f"^{name} must be an integer >= 4"):
        solve(taylor_green(), 0.1, **{name: value})


def test_cell_solution_accessors():
    sol = solve_cell_problem(taylor_green(), 0.1, modes=8)
    with pytest.raises(ParameterError):
        sol.coefficient(3, 0, 0)
    with pytest.raises(ParameterError):
        sol.coefficient(1, 9, 0)
    with pytest.raises(ParameterError):
        CellSolution(np.zeros((2, 3, 3), dtype=complex), 0.1, 8, 0.0)


def test_convergence_error_carries_residual():
    err = ConvergenceError("residual too large", residual=3e-9)
    assert err.residual == 3e-9
    assert "residual" in str(err)
