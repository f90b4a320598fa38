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
every |k| is at least 1.

The system on H splits further on the flow's symmetries, which are read
from its stream modes. An orientation-reversing map preserves
v = (-psi_y, psi_x) exactly when it negates psi. Two such maps matter:

  G: (x, y) -> (y + pi, x), a symmetry iff (-1)^b psi_(b,a) = -psi_(a,b),
     which holds for Taylor-Green and every Childress-Soward flow;
  R: (x, y) -> (-x, y), a symmetry iff psi_(-a,b) = -psi_(a,b), which
     holds for Taylor-Green (Childress-Soward at lambda = 0) only.

Composition with G acts on coefficients as (T_G f)_(a,b) = (-1)^b f_(b,a),
a signed permutation that commutes with the operator and with k -> -k
when G preserves v; T_G^2 is the translation by (pi, pi), the identity on
the sublattice k1 + k2 even. That sublattice is all a flow with G can
reach, since applying the condition twice gives psi_(a,b) =
(-1)^(a+b) psi_(a,b), so T_G is an involution there. Uniqueness of
the corrector then gives chi^2 = T_G chi^1, and since T_G commutes with B
on H, chi^1 = chi^+ + chi^- splits into its G-even and G-odd parts, each
of which solves its own block with one right-hand side. Each block is
assembled directly as B_+- = P_+-^T B P_+-, where P_+- is the signed orbit
embedding: one unknown per orbit {k, T_G k} of H, signed entries +-1 at
the orbit's points, and an orbit fixed by T_G with the wrong sign left
out. The flows without G (the shears) take the same path with trivial
orbits: one block, H itself, with both right-hand sides. R commutes with
the operator too, but anticommutes with T_G on odd vectors, so it maps
the G-even block onto the G-odd one; chi^1 is odd under R, hence
chi^- = -T_R chi^+, and only the G-even block is factored.

Since P_+- has entries +-1, P_+-^T P_+- = diag(w) with w in {1, 2} the
number of points of each orbit in H, and B_+- + B_+-^T =
P_+-^T (B + B^T) P_+- = diag(2 w kappa |k|^2), because |k| is the same on
an orbit. The symmetric part of every block is therefore diagonal and
positive definite, which makes every principal submatrix nonsingular, so
each block has an LU factorization in any symmetric ordering without row
exchanges; every entry is exact, with no 1/sqrt(2) normalisation to
round. Each block is factored once by sparse LU with a minimum-degree
ordering of B_+- + B_+-^T and diagonal pivots, which keeps the fill of
that symmetric ordering. One step of iterative refinement follows every
solve, and an explicit residual check on the refined solution enforces
the 1e-10 relative residual contract. The blocks are orthogonal
eigenspaces of T_G, so the squared norms of their parts of the residual
on H add, and so do those of the right-hand side; a block residual
r = P^T (B x - b) has squared norm sum_i r_i^2 / w_i on H. The G-odd part
given by R has the same norms as the G-even one, which leaves the ratio
unchanged, and chi^2 = T_G chi^1 has the relative residual of chi^1. The
full system's residual and b are odd and its row 0 is zero, so the
relative residual on H equals the full one.

kappa enters the blocks only on their diagonals, as kappa |k|^2 w: the
folded advection is skew-symmetric and has none. Everything else (the
reachable set, the fold embeddings, the sparse pattern with the
advection entries, the right-hand sides) is built once per (velocity
modes, symmetries, M) by _operator and kept read-only in a cache keyed
by those modes, not by the FlowSpec, that holds at most _OPERATOR_BYTES
(16 MiB, a whole doubling ladder to M = 256 of one cellular flow) and
drops the least recently used operator first. Each solve copies the
cached entries, writes kappa |k|^2 w into the diagonal slots, and gets
the matrix that assembling from scratch gives, bit for bit. The refusal
of a velocity with a real part runs on every solve, before the cache.

The sparse matrices and the LU come from scipy.sparse, which the first
assembly and the first solve import, so importing this module loads no
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    ParameterError,
    UnsupportedFlowError,
    integer,
    nonnegative,
    positive,
)
from .estimators import DiffusivityTensor
from .fields import FlowSpec, stream_modes, velocity_modes

if TYPE_CHECKING:
    import scipy.sparse


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
        m = self.modes
        c = integer("component", component, 1)
        k1, k2 = integer("k1", k1, -m), integer("k2", k2, -m)
        if c > 2:
            raise ParameterError(f"component must be 1 or 2, got {component!r}")
        if k1 > m or k2 > m:
            raise ParameterError(f"wavenumber ({k1}, {k2}) outside truncation M={m}")
        return complex(self.coefficients[c - 1, k1 + m, k2 + m])


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


class _Map(NamedTuple):
    """Signed lattice permutation (T f)_k = (-1)^(shift . k) f_(matrix k).

    This is composition with an affine map of the torus: its linear part
    acts on wavenumbers through ``matrix``, a signed permutation matrix,
    and a translation by pi in the coordinates flagged by ``shift`` gives
    the sign.
    """

    matrix: tuple[tuple[int, int], tuple[int, int]]
    shift: tuple[int, int]

    def image(self, k1: np.ndarray, k2: np.ndarray):
        """The wavenumber that T reads at k, and the sign it applies."""
        (a, b), (c, d) = self.matrix
        i1 = a * k1 if a else b * k2
        i2 = c * k1 if c else d * k2
        s1, s2 = self.shift
        sign = 1.0 - 2.0 * ((s1 * k1 + s2 * k2) & 1) if s1 or s2 else 1.0
        return i1, i2, sign

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T applied to coefficients x[..., (k1 + M) (2M + 1) + k2 + M]."""
        side = math.isqrt(x.shape[-1])
        m = side // 2
        ks = np.arange(-m, m + 1)
        i1, i2, sign = self.image(ks[:, None], ks[None, :])
        grid = x.reshape(*x.shape[:-1], side, side)
        return (sign * grid[..., i1 + m, i2 + m]).reshape(x.shape)


# k -> -k; composition with (x, y) -> (y + pi, x); composition with (x, y) -> (-x, y)
_N = _Map(((-1, 0), (0, -1)), (0, 0))
_G = _Map(((0, 1), (1, 0)), (0, 1))
_R = _Map(((-1, 0), (0, 1)), (0, 0))


def _symmetries(modes: dict[tuple[int, int], complex]) -> tuple[bool, bool]:
    """Whether G and R, each reversing orientation, preserve the velocity.

    An orientation-reversing map preserves v = (-psi_y, psi_x) exactly when
    it negates psi, so G is a symmetry iff (-1)^b psi_(b,a) = -psi_(a,b)
    and R iff psi_(-a,b) = -psi_(a,b), for every stream mode (a, b).
    """
    swap = all((-1) ** b * modes.get((b, a), 0.0) == -c for (a, b), c in modes.items())
    mirror = all(modes.get((-a, b), 0.0) == -c for (a, b), c in modes.items())
    return swap, mirror


def _fold(k1: np.ndarray, k2: np.ndarray, local: np.ndarray, maps):
    """Signed orbit embedding P of one symmetry block of a set of modes.

    The set is given by the wavenumbers k1, k2 of its points in increasing
    flat order, and ``local`` maps a flat lattice index of the set to its
    position there. ``maps`` holds (map, character) pairs of commuting
    signed involutions that preserve the set; the block is their common
    eigenspace T x = character x on it. A vector of the block is x = P z:
    x_i = coef_i z_column(i) at point i, where z holds one value per orbit,
    taken at the orbit's last point; coef is 0 on an orbit that the
    characters force to zero, such as the zero mode of the odd fold
    (_N, -1), which the even fold (_N, +1) keeps. Returns column, coef and
    the positions of the orbits' representatives, in increasing order.
    """
    side = math.isqrt(local.size)
    m = side // 2
    count = k1.size
    rep = np.arange(count)
    coef = np.ones(count)
    heads = np.arange(count)
    for t, character in maps:
        i1, i2, sign = t.image(k1[heads], k2[heads])
        image = local[(i1 + m) * side + i2 + m]
        # on the block, x_head = character sign x_image = factor x_other
        other = rep[image]
        factor = character * sign * coef[image]
        joins = other > heads
        vanishes = (other == heads) & (factor != 1.0)
        link = np.arange(count)
        scale = np.ones(count)
        link[heads[joins]] = other[joins]
        scale[heads[joins]] = factor[joins]
        scale[heads[vanishes]] = 0.0
        coef *= scale[rep]
        rep = link[rep]
        heads = heads[~(joins | vanishes)]
    column = np.zeros(count, dtype=np.intp)
    column[heads] = np.arange(heads.size)
    return column[rep], coef, heads


class _Block(NamedTuple):
    """One symmetry block of the cell problem: matrix z = rhs.

    ``matrix`` is P^T A P / 2 and ``rhs`` P^T b / 2 for the block's signed
    orbit embedding P (see _fold) into the reachable set, on which A is the
    real Galerkin matrix; P^T P / 2 = diag(weight), with weight the orbit
    size over 2, which is 1 or 2. ``points`` are the flat lattice indices
    of the reachable set, where x = coef * z[column], and ``ksq`` holds
    |k|^2 at each unknown's orbit representative. ``diagonal`` gives the
    position of each unknown's diagonal entry in ``matrix.data``, the only
    entries kappa enters.
    """

    matrix: scipy.sparse.csc_matrix
    rhs: np.ndarray
    weight: np.ndarray
    points: np.ndarray
    column: np.ndarray
    coef: np.ndarray
    ksq: np.ndarray
    diagonal: np.ndarray


def _block_arrays(block: _Block) -> tuple[np.ndarray, ...]:
    """Every array of a block, its matrix's three included."""
    return (block.matrix.data, block.matrix.indices, block.matrix.indptr, *block[1:])


def _operator(vm, folds, components: slice, m_trunc: int) -> tuple[_Block, ...]:
    """The kappa-free blocks of the cell problem on |k1|, |k2| <= m_trunc.

    ``vm`` are the velocity modes, whose coefficients must be purely
    imaginary, and ``folds`` holds one list of (map, character) pairs per
    block, as _fold takes them; ``components`` selects the right-hand
    sides kept. Each matrix holds the folded advection with the pattern,
    entry order and duplicate sums that coo_matrix.tocsc gives the whole
    operator, and zeros in the diagonal slots, which _assemble fills with
    kappa |k|^2 weight. The advection part is skew-symmetric, so its
    diagonal is zero: a coupling that folds onto the diagonal (a shift by
    m = 2k, or within a G orbit) is left out, which no catalog flow has.
    The blocks share ``points``, and every array is read-only.
    """
    import scipy.sparse as sp

    side = 2 * m_trunc + 1
    points = np.flatnonzero(_reachable(list(vm), m_trunc))
    shared = points.astype(np.int32)
    local = np.full(side * side, -1)
    local[points] = np.arange(points.size)
    p1, p2 = np.divmod(points, side)
    p1 -= m_trunc
    p2 -= m_trunc
    blocks = []
    for maps in folds:
        column, coef, heads = _fold(p1, p2, local, maps)
        n = heads.size
        weight = np.bincount(column[coef != 0.0], minlength=n) / 2.0
        k1, k2 = p1[heads], p2[heads]
        rows = [np.arange(n)]
        cols = [np.arange(n)]
        vals = [np.zeros(n)]
        # -v . grad chi couples mode k' to k = k' - m with weight -i (vhat_m . k),
        # which is Im(vhat_m) . k once vhat_m is purely imaginary
        for mode, vhat in vm.items():
            w = vhat.imag
            s1 = k1 - mode[0]
            s2 = k2 - mode[1]
            inside = np.flatnonzero((np.abs(s1) <= m_trunc) & (np.abs(s2) <= m_trunc))
            src1, src2 = s1[inside], s2[inside]
            src = local[(src1 + m_trunc) * side + (src2 + m_trunc)]
            # a source off the block, the zero mode among them, is dropped,
            # and so is one on the diagonal
            ok = (coef[src] != 0.0) & (column[src] != inside)
            src1, src2, src, row = src1[ok], src2[ok], src[ok], inside[ok]
            rows.append(row)
            cols.append(column[src])
            vals.append(weight[row] * coef[src] * (w[0] * src1 + w[1] * src2))
        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()
        diagonal = np.flatnonzero(
            matrix.indices == np.repeat(np.arange(n), np.diff(matrix.indptr)))

        rhs = np.zeros((n, 2))
        for mode, vhat in vm.items():
            i = local[(mode[0] + m_trunc) * side + (mode[1] + m_trunc)]
            if coef[i] != 0.0:
                rhs[column[i]] -= coef[i] * vhat.imag / 2.0
        blocks.append(_Block(matrix, np.ascontiguousarray(rhs[:, components]), weight,
                             shared, column.astype(np.int32),
                             coef.astype(np.int8), (k1 ** 2 + k2 ** 2).astype(np.int32),
                             diagonal.astype(np.int32)))
    for block in blocks:
        for array in _block_arrays(block):
            array.setflags(write=False)
    return tuple(blocks)


# The operators _operator built, least recently used first, keyed by the
# velocity modes' imaginary parts in order, the symmetry flags and M, each
# with the bytes of its distinct arrays; together they stay within
# _OPERATOR_BYTES, which holds a whole doubling ladder to M = 256 of
# Taylor-Green (5.6 MB) or Childress-Soward (10.5 MB).
_OPERATOR_BYTES = 16 << 20
_operators: dict[tuple, tuple[tuple[_Block, ...], int]] = {}


def _cached_operator(key: tuple, build) -> tuple[_Block, ...]:
    """The operator stored under key, built by build() and stored if new."""
    blocks, nbytes = _operators.pop(key, (None, 0))
    if blocks is None:
        blocks = build()
        arrays = {id(a): a for block in blocks for a in _block_arrays(block)}
        nbytes = sum(a.nbytes for a in arrays.values())
    _operators[key] = blocks, nbytes
    total = sum(size for _, size in _operators.values())
    while total > _OPERATOR_BYTES:
        total -= _operators.pop(next(iter(_operators)))[1]
    return blocks


def _assemble(flow: FlowSpec, kappa: float, m_trunc: int):
    """Real sparse Galerkin blocks of the cell problem, one per symmetry block.

    The full complex system is A chi = -vhat with chi = i x; each block
    solves for the odd x (x_-k = -x_k, x_0 = 0) in one common eigenspace
    of the flow's symmetries. Without G there is one block, the half H,
    with the right-hand sides of both components. With G there are the
    G-even and the G-odd block of chi^1, each with one right-hand side,
    and chi^2 = T_G chi^1; with R as well only the G-even block is
    returned, and the G-odd part of chi^1 is -T_R of the G-even part.

    The kappa-free part comes from _operator, cached per (velocity modes,
    symmetries, M); each call copies its matrix entries and writes
    kappa |k|^2 weight into the diagonal slots. Returns the blocks, G (or
    None) and R (or None). A velocity coefficient with a real part would
    make the system genuinely complex and is refused, on every call.
    """
    import scipy.sparse as sp

    vm = velocity_modes(flow)
    for mode, vhat in vm.items():
        if np.any(vhat.real != 0.0):
            raise UnsupportedFlowError(
                f"velocity coefficient at mode {mode} has a nonzero real part "
                f"{vhat.real.tolist()}; the cell solver needs an even stream function"
            )
    has_swap, has_mirror = _symmetries(stream_modes(flow))
    swap = _G if has_swap else None
    mirror = _R if has_swap and has_mirror else None
    odd = (_N, -1.0)
    if swap is None:
        folds = [[odd]]
    else:
        parities = (1.0,) if mirror is not None else (1.0, -1.0)
        folds = [[odd, (swap, parity)] for parity in parities]
    components = slice(0, 2) if swap is None else slice(0, 1)
    key = (tuple((mode, vhat.imag.tobytes()) for mode, vhat in vm.items()),
           has_swap, has_mirror, m_trunc)
    blocks = _cached_operator(key, lambda: _operator(vm, folds, components, m_trunc))

    filled = []
    for block in blocks:
        data = block.matrix.data.copy()
        data[block.diagonal] = kappa * block.ksq * block.weight
        matrix = sp.csc_matrix((data, block.matrix.indices, block.matrix.indptr),
                               shape=block.matrix.shape)
        filled.append(block._replace(matrix=matrix))
    return filled, swap, mirror


def _solve_block(block: _Block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refined solution of one block and the squared norms, on H, of its
    residual and right-hand side per column."""
    import scipy.sparse.linalg as spla

    lu = spla.splu(block.matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    z = lu.solve(block.rhs)
    z += lu.solve(block.rhs - block.matrix @ z)
    err = block.matrix @ z - block.rhs
    inverse = 1.0 / block.weight[:, None]
    return z, np.sum(err * err * inverse, axis=0), np.sum(block.rhs * block.rhs * inverse, axis=0)


def solve_cell_problem(flow: FlowSpec, kappa: float, modes: int = 16) -> CellSolution:
    """Galerkin solution of the cell problem on |k1|, |k2| <= modes.

    The unknowns are the half H of the modes reachable from the flow's
    modes, (|reachable| - 1) / 2 of them, in real arithmetic, split into
    the blocks of the flow's symmetries (see the module docstring): two
    blocks of about |H| / 2 for a flow with the swap-translation G, one
    of them for a flow with the reflection R as well, and H whole for a
    flow without G. The solution y is written as i y on H and -i y on -H,
    and the rest of the lattice, the zero mode included, is exactly zero.
    Each block is factorized once by sparse LU, ordered by minimum degree
    on B + B^T and pivoted on the diagonal only; that is safe because the
    symmetric part of every block is diagonal and positive definite. Its
    right-hand sides are solved together from that factorization, followed
    by one step of iterative refinement, which recovers the accuracy that
    partial pivoting would give at small kappa. The relative residual of
    each component on H is computed explicitly from the refined block
    residuals; a residual above 1e-10, or nan, raises ConvergenceError
    carrying the measured value. A flow whose velocity coefficients are
    not purely imaginary raises UnsupportedFlowError.

    kappa sits only on the diagonal of each block. The rest of the
    operator is built once per (velocity modes, symmetries, modes) and
    cached read-only, at most 16 MiB of operators, least recently used
    dropped first; a solve at another kappa, or again at the same one,
    only rewrites the diagonal, so its results are bitwise those of a
    solve on an empty cache.
    """
    if not flow.is_time_independent:
        raise UnsupportedFlowError(
            f"the cell problem is solved for time-independent flows only, got {flow.kind}"
        )
    kappa = positive("kappa", kappa)
    modes = integer("modes", modes, 4)

    blocks, swap, mirror = _assemble(flow, kappa, modes)
    side = 2 * modes + 1
    err = scale = 0.0
    solutions = []
    for block in blocks:
        z, block_err, block_scale = _solve_block(block)
        err, scale = err + block_err, scale + block_scale
        solutions.append(z)
    # the lattice-sized arrays come after the factorizations, not alongside
    x = np.zeros((blocks[0].rhs.shape[1], side * side))
    for block, z in zip(blocks, solutions):
        x[:, block.points] += block.coef * z[block.column].T
    if mirror is not None:
        x -= mirror.apply(x)
    if swap is not None:
        x = np.concatenate([x, swap.apply(x)])
    # np.max keeps a nan, which max() and a > comparison would both drop
    e, s = np.sqrt(err), np.sqrt(scale)
    residual = float(np.max(np.divide(e, s, out=e.copy(), where=s > 0.0)))
    if not residual <= 1e-10:
        raise ConvergenceError(
            f"cell-problem residual {residual:.3e} exceeds 1e-10 at modes={modes}",
            residual=residual,
        )
    coef = np.zeros((2, side * side), dtype=complex)
    coef.imag = x
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
    pairs = []
    for i, sample in enumerate(samples):
        try:
            k, v = sample
        except (TypeError, ValueError):
            raise ParameterError(f"sample {i} must be a (kappa, K) pair, got {sample!r}") from None
        try:
            pairs.append((positive("kappa", k), positive("K", v)))
        except ParameterError:
            raise ParameterError(f"sample {i} (kappa={k!r}, K={v!r}) must be finite and "
                                 "strictly positive") from None
    if len(pairs) < 3:
        raise ParameterError(f"need at least 3 samples, got {len(pairs)}")
    if len({k for k, _ in pairs}) < 2:
        raise ParameterError("fewer than two distinct kappa were given")
    log_k = np.log([k for k, _ in pairs])
    log_v = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(log_k, log_v, 1)
    return ScalingFit(float(slope), float(math.exp(intercept)))
