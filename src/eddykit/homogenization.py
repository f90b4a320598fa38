"""Spectral cell-problem solver and eddy diffusivity for steady flows.

For a time-independent incompressible velocity v the corrector field
chi = (chi^1, chi^2) solves

    v . grad chi + kappa Lap chi = v,        <chi> = 0,

(the steady shear solution is chi = (0, -sin(x)/kappa)) and the eddy
diffusivity follows by Parseval from the corrector gradients:

    K_ij = kappa delta_ij + kappa sum_k |k|^2 chihat^i_k conj(chihat^j_k).

Because every catalog flow has finitely many Fourier modes, the advection
term is an exact sparse mode-shift stencil on the truncated lattice
|k1|, |k2| <= M. The stencil couples a mode only to its shifts by the
flow's modes, so the Galerkin system splits into blocks and only the
block reachable from the right-hand side (and the zero mode) carries a
nonzero solution: the parity sublattice k1 + k2 even for the cellular
flows, the line k2 = 0 for the shear. Every catalog stream function is
even, so its coefficients are real, the velocity coefficients purely
imaginary, and the system A x = b on the reachable set is real once
chi = i x is substituted.

That real system commutes with the reflection k -> -k, and its
right-hand side b = -Im vhat is odd, so its solution is odd: x_-k = -x_k
and x_0 = 0. The solver therefore keeps only the half
H = {k reachable : k1 > 0, or k1 = 0 and k2 > 0} as unknowns and folds
every coupling onto it: a source k' = k - m enters column k' with its
weight when k' is in H, column -k' with the opposite weight when -k' is
in H, and drops out when k' = 0. The zero mode is not an unknown, so
nothing needs pinning; its row of A vanishes identically, because
incompressibility gives Im(vhat_m) . m = 0, and the condition <chi> = 0
is x_0 = 0 itself. The folded matrix is B = P^T A P / 2 for the odd
embedding P of H into the reachable set, and the solution is written
back as i y on H and -i y on -H, which makes the corrector exactly
conjugate symmetric.

The advection part of A is skew-symmetric: the velocity is real and
divergence free, so Im(vhat_-m) = -Im(vhat_m) and Im(vhat_m) . m = 0,
and the weight coupling k to k - m is minus the one coupling k - m to k.
Hence A + A^T = diag(2 kappa |k|^2), and so is B + B^T on H, where
every |k| is at least 1. The symmetric part of B is therefore positive
definite, which makes every principal submatrix of B nonsingular, so B
has an LU factorization in any symmetric ordering without row exchanges.
The system is factored once by sparse LU with a minimum-degree ordering
of B + B^T and diagonal pivots, which keeps the fill of that symmetric
ordering. One step of iterative refinement follows every solve, and an
explicit residual check on the refined solution enforces the 1e-10
relative residual contract. The full system's residual and b are odd
and its row 0 is zero, so the relative residual on H equals the full one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConvergenceError,
    ParameterError,
    UnsupportedFlowError,
    integer,
    nonnegative,
    positive,
)
from .estimators import DiffusivityTensor
from .fields import FlowSpec, velocity_modes


class DoublingStep(NamedTuple):
    """One truncation of the adaptive doubling in spectral_diffusivity.

    ``change`` is the largest entrywise change of K from the previous
    truncation relative to the tensor scale, the quantity compared with
    rtol; it is nan for the first truncation.
    """

    modes: int
    change: float
    residual: float


@dataclass(frozen=True)
class CellSolution:
    """Truncated Fourier solution of the cell problem.

    ``coefficients[i, k1 + modes, k2 + modes]`` is the coefficient of
    exp(i (k1 x + k2 y)) in chi^{i+1}. The modes reachable from the flow's
    modes are solved on their half H (see the module docstring) and
    mirrored to -H, so coefficient(-k) is exactly conj(coefficient(k));
    the zero mode and every mode off the reachable set are exactly zero.

    ``history`` and ``converged`` are filled in by spectral_diffusivity:
    one DoublingStep per truncation tried, and whether the last doubling
    met the tolerance. A single fixed-truncation solve leaves them at
    () and None.
    """

    coefficients: np.ndarray  # complex, (2, 2M+1, 2M+1)
    kappa: float
    modes: int
    residual: float
    flow: FlowSpec | None = None
    history: tuple[DoublingStep, ...] = ()
    converged: bool | None = None

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=complex)
        side = 2 * self.modes + 1
        if coef.shape != (2, side, side):
            raise ParameterError(
                f"coefficients must have shape (2, {side}, {side}), got {coef.shape}"
            )
        object.__setattr__(self, "coefficients", coef)

    def coefficient(self, component: int, k1: int, k2: int) -> complex:
        """Coefficient of exp(i k . z) in chi^component, component in {1, 2}."""
        if component not in (1, 2):
            raise ParameterError("component must be 1 or 2")
        m = self.modes
        if abs(k1) > m or abs(k2) > m:
            raise ParameterError(f"wavenumber ({k1}, {k2}) outside truncation M={m}")
        return complex(self.coefficients[component - 1, k1 + m, k2 + m])


class ScalingFit(NamedTuple):
    exponent: float
    prefactor: float


def _shifted(shift: int, side: int) -> tuple[slice, slice]:
    """Destination and source slices of one axis moved by shift."""
    return (slice(max(shift, 0), side + min(shift, 0)),
            slice(max(-shift, 0), side - max(shift, 0)))


def _reachable(shifts, m_trunc: int) -> np.ndarray:
    """Boolean mask of the modes connected to the seeds and the zero mode.

    Seeds are the shifts themselves (the right-hand side support). The
    mask grows through k -> k +- m for every shift m, staying inside the
    truncation, until it stops changing. Each sweep moves along every
    shift ray with doubling strides, so it takes O(log M) array passes
    per shift; a stride jump is exact because the box is convex.
    """
    side = 2 * m_trunc + 1
    mask = np.zeros((side, side), dtype=bool)
    mask[m_trunc, m_trunc] = True
    for s1, s2 in shifts:
        mask[s1 + m_trunc, s2 + m_trunc] = True
    rays = {r for s1, s2 in shifts if (s1, s2) != (0, 0) for r in ((s1, s2), (-s1, -s2))}
    count, grown = 0, np.count_nonzero(mask)
    while grown != count:
        count = grown
        for s1, s2 in rays:
            stride = 1
            while stride * max(abs(s1), abs(s2)) < side:
                d1, r1 = _shifted(stride * s1, side)
                d2, r2 = _shifted(stride * s2, side)
                mask[d1, d2] |= mask[r1, r2]
                stride *= 2
        grown = np.count_nonzero(mask)
    return mask


def _assemble(flow: FlowSpec, kappa: float, m_trunc: int):
    """Real sparse Galerkin system on the half H of the reachable modes.

    H holds the reachable k with k1 > 0, or k1 = 0 and k2 > 0. Returns the
    CSC matrix, the (n, 2) right-hand side -Im vhat and the flat lattice
    indices of H. The full complex system is A chi = -vhat with chi = i x;
    its odd solution x_-k = -x_k, x_0 = 0 folds a source k' = k - m onto
    +column k' when k' is in H, -column -k' when -k' is in H, and nothing
    when k' = 0. A velocity coefficient with a real part would make the
    system genuinely complex and is refused.
    """
    vm = velocity_modes(flow)
    for mode, vhat in vm.items():
        if np.any(vhat.real != 0.0):
            raise UnsupportedFlowError(
                f"velocity coefficient at mode {mode} has a nonzero real part "
                f"{vhat.real.tolist()}; the cell solver needs an even stream function"
            )
    side = 2 * m_trunc + 1
    ks = np.arange(-m_trunc, m_trunc + 1)
    upper = (ks[:, None] > 0) | ((ks[:, None] == 0) & (ks[None, :] > 0))
    lattice = np.flatnonzero(_reachable(list(vm), m_trunc) & upper)
    n = lattice.size
    # column and sign of each source mode: +1 on H, -1 on -H, whose flat
    # index is side^2 - 1 minus that of its mirror in H
    mirror = side * side - 1 - lattice
    position = np.full(side * side, -1)
    position[lattice] = position[mirror] = np.arange(n)
    sign = np.zeros(side * side)
    sign[lattice] = 1.0
    sign[mirror] = -1.0
    k1, k2 = np.divmod(lattice, side)
    k1 -= m_trunc
    k2 -= m_trunc

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [kappa * (k1 ** 2 + k2 ** 2).astype(float)]
    # -v . grad chi couples mode k' to k = k' - m with weight -i (vhat_m . k),
    # which is Im(vhat_m) . k once vhat_m is purely imaginary
    for mode, vhat in vm.items():
        w = vhat.imag
        s1 = k1 - mode[0]
        s2 = k2 - mode[1]
        # x_0 = 0, so a source at the zero mode is dropped
        ok = (np.abs(s1) <= m_trunc) & (np.abs(s2) <= m_trunc) & ((s1 != 0) | (s2 != 0))
        src1, src2 = s1[ok], s2[ok]
        src = (src1 + m_trunc) * side + (src2 + m_trunc)
        rows.append(np.flatnonzero(ok))
        cols.append(position[src])
        vals.append(sign[src] * (w[0] * src1 + w[1] * src2))

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()

    rhs = np.zeros((n, 2))
    for mode, vhat in vm.items():
        flat = (mode[0] + m_trunc) * side + (mode[1] + m_trunc)
        if sign[flat] > 0.0:
            rhs[position[flat]] = -vhat.imag
    return matrix, rhs, lattice


def solve_cell_problem(flow: FlowSpec, kappa: float, modes: int = 16) -> CellSolution:
    """Galerkin solution of the cell problem on |k1|, |k2| <= modes.

    The unknowns are the half H of the modes reachable from the flow's
    modes, (|reachable| - 1) / 2 of them, in real arithmetic; the solution
    y is written as i y on H and -i y on -H, and the rest of the lattice,
    the zero mode included, is exactly zero. The sparse system is
    factorized once by LU, ordered by minimum degree on B + B^T and
    pivoted on the diagonal only; that is safe because the symmetric part
    of B is positive definite (see the module docstring). Both components
    are solved together from that factorization, followed by one step of
    iterative refinement, which recovers the accuracy that partial
    pivoting would give at small kappa. The relative residual of each
    refined solve is computed explicitly; a residual above 1e-10 raises
    ConvergenceError carrying the measured value. A flow whose velocity
    coefficients are not purely imaginary raises UnsupportedFlowError.
    """
    if not flow.is_time_independent:
        raise UnsupportedFlowError(
            f"the cell problem is solved for time-independent flows only, got {flow.kind}"
        )
    positive("kappa", kappa)
    modes = integer("modes", modes, 4)

    matrix, rhs, lattice = _assemble(flow, kappa, modes)
    lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    sol = lu.solve(rhs)
    sol += lu.solve(rhs - matrix @ sol)
    side = 2 * modes + 1
    coef = np.zeros((2, side * side), dtype=complex)
    residual = 0.0
    for i in range(2):
        err = np.linalg.norm(matrix @ sol[:, i] - rhs[:, i])
        scale = np.linalg.norm(rhs[:, i])
        residual = max(residual, float(err / scale) if scale > 0.0 else float(err))
        coef[i, lattice] = 1j * sol[:, i]
        coef[i, side * side - 1 - lattice] = -1j * sol[:, i]
    if residual > 1e-10:
        raise ConvergenceError(
            f"cell-problem residual {residual:.3e} exceeds 1e-10 at modes={modes}",
            residual=residual,
        )
    return CellSolution(coef.reshape(2, side, side), kappa, modes, residual, flow)


def eddy_diffusivity_from_cell(sol: CellSolution) -> DiffusivityTensor:
    """K = kappa I + kappa int grad chi (x) grad chi, evaluated by Parseval.

    The off-diagonal is computed once and placed symmetrically, so the
    output is exactly symmetric; K - kappa I is a Gram matrix and hence
    positive semidefinite.
    """
    m = sol.modes
    ks = np.arange(-m, m + 1)
    k1_grid, k2_grid = np.meshgrid(ks, ks, indexing="ij")
    ksq = (k1_grid ** 2 + k2_grid ** 2).astype(float)
    c1, c2 = sol.coefficients[0], sol.coefficients[1]
    kappa = sol.kappa
    g11 = float(np.real(np.sum(ksq * c1 * np.conj(c1))))
    g22 = float(np.real(np.sum(ksq * c2 * np.conj(c2))))
    g12 = float(np.real(np.sum(ksq * c1 * np.conj(c2))))
    entries = np.array([
        [kappa + kappa * g11, kappa * g12],
        [kappa * g12, kappa + kappa * g22],
    ])
    return DiffusivityTensor(entries, "spectral", flow=sol.flow, kappa=kappa)


def spectral_diffusivity(flow: FlowSpec, kappa: float, rtol: float = 1e-6,
                         initial_modes: int = 16, max_modes: int = 512,
                         ) -> tuple[DiffusivityTensor, CellSolution]:
    """Eddy diffusivity with the truncation doubled until K stabilizes.

    Doubling stops once the maximum entrywise change between consecutive
    truncations drops below rtol relative to the tensor scale, or at
    max_modes. Each step goes to min(2 M, max_modes), so a cap that is not
    initial_modes times a power of two is still tried. The returned
    CellSolution records every truncation tried in ``history`` as
    DoublingStep(modes, change, residual) and sets ``converged`` to
    whether the tolerance was met. A cap reached without meeting it
    returns with ``converged=False`` rather than raising: the corrector
    boundary layers sharpen like kappa^(1/2), so small kappa legitimately
    needs large M, and the caller decides whether an unconverged K will do.
    """
    m_trunc = integer("initial_modes", initial_modes, 4)
    max_modes = integer("max_modes", max_modes, 4)
    if max_modes < m_trunc:
        raise ParameterError("max_modes must be at least initial_modes")
    nonnegative("rtol", rtol)

    sol = solve_cell_problem(flow, kappa, m_trunc)
    tensor = eddy_diffusivity_from_cell(sol)
    history = [DoublingStep(m_trunc, math.nan, sol.residual)]
    converged = False
    while m_trunc < max_modes:
        m_trunc = min(2 * m_trunc, max_modes)
        sol_next = solve_cell_problem(flow, kappa, m_trunc)
        tensor_next = eddy_diffusivity_from_cell(sol_next)
        change = np.max(np.abs(tensor_next.entries - tensor.entries))
        scale = max(np.max(np.abs(tensor_next.entries)), kappa)
        sol, tensor = sol_next, tensor_next
        history.append(DoublingStep(m_trunc, float(change / scale), sol.residual))
        if change <= rtol * scale:
            converged = True
            break
    return tensor, replace(sol, history=tuple(history), converged=converged)


def fit_scaling_exponent(samples) -> ScalingFit:
    """Least-squares fit of K = c kappa^p from (kappa, K) pairs.

    Fits log K against log kappa and returns (p, c). Needs at least three
    samples, all finite and strictly positive in both coordinates, with
    at least two distinct kappa.
    """
    pairs = [(float(k), float(v)) for k, v in samples]
    if len(pairs) < 3:
        raise ParameterError(f"need at least 3 samples, got {len(pairs)}")
    for i, (k, v) in enumerate(pairs):
        if not (0.0 < k < math.inf and 0.0 < v < math.inf):
            raise ParameterError(
                f"sample {i} (kappa={k!r}, K={v!r}) must be finite and strictly positive")
    if len({k for k, _ in pairs}) < 2:
        raise ParameterError("fewer than two distinct kappa were given")
    log_k = np.log([k for k, _ in pairs])
    log_v = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(log_k, log_v, 1)
    return ScalingFit(float(slope), float(math.exp(intercept)))
