"""Block-partitioned state-space realizations and their certificates.

A realization ``(A, B, C, D)`` paired with :class:`~netreal.graphs.NodeDims`
stores states, inputs and outputs node-major.  Block ``(i, j)`` of a matrix
means the rows belonging to node ``i`` and the columns belonging to node
``j``.  The update law is the discrete-time recursion

    x[t+1] = A x[t] + B u[t],      y[t] = C x[t] + D u[t]

and "stable" always means spectral radius below one.

A realization is *compatible* with a graph when A and C vanish on every
block off the edge set and B and D are block-diagonal; the *edge-sparse*
mode additionally admits direct-term blocks on edges.  A compatible,
stabilizable and detectable realization is a *witness* that its transfer
matrix is realizable on the network.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError, PoleError
from .graphs import NetworkGraph, NodeDims

#: Evaluation of C (zI - A)^{-1} B refuses condition numbers at or above this.
#: The solve certifies the refusal with a Frobenius bound on the 2-norm
#: condition number; an SVD runs only when the bound reaches half of this.
POLE_COND_LIMIT = 1e12

_EPS = float(np.finfo(float).eps)


class DMode(enum.Enum):
    """How the direct term may be structured in a compatibility check."""

    #: D must be block-diagonal.
    STRICT = "strict"
    #: D blocks also allowed wherever the graph has an edge.
    EDGE_SPARSE = "edge"


def _as_matrix(value, shape: tuple[int, int], name: str) -> np.ndarray:
    if value is None:
        arr = np.zeros(shape)
    else:
        try:
            arr = np.array(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{name} is not a numeric matrix") from exc
        if arr.size == shape[0] * shape[1] and arr.ndim != 2:
            arr = arr.reshape(shape)
        if arr.shape != shape:
            raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def block_occupancy(matrix: np.ndarray, row_counts, col_counts) -> np.ndarray:
    """Largest entry magnitude of every block of ``matrix``.

    Rows are split node-major by ``row_counts`` and columns by
    ``col_counts``; entry ``(i, j)`` of the result is the largest
    ``|matrix[r, c]|`` over the rows of node ``i`` and the columns of node
    ``j``.  A block without a nonzero entry, an empty one included,
    reads 0.  Cost grows with the number of nonzero entries, plus the
    size of the returned node grid.
    """
    rows, cols = np.nonzero(matrix)
    grid = np.zeros((len(row_counts), len(col_counts)))
    row_node = np.repeat(np.arange(len(row_counts)), row_counts)
    col_node = np.repeat(np.arange(len(col_counts)), col_counts)
    np.maximum.at(grid, (row_node[rows], col_node[cols]), np.abs(matrix[rows, cols]))
    grid.setflags(write=False)
    return grid


class BlockOccupancy(NamedTuple):
    """:func:`block_occupancy` of each of the four matrices of a realization."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockRealization:
    """State-space matrices with a node partition.

    Matrices may be passed as ``None`` (filled with zeros), nested lists,
    or arrays.  They are copied and frozen; instances are safe to share.

    Parameters
    ----------
    dims : NodeDims
        Per-node state/input/output counts.
    A, B, C, D : array_like, optional
        ``A`` is ``n x n``, ``B`` is ``n x m``, ``C`` is ``p x n`` and
        ``D`` is ``p x m`` where ``n``, ``m``, ``p`` are the totals of
        ``dims``.
    """

    dims: NodeDims
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    C: Optional[np.ndarray] = None
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.dims, NodeDims):
            raise InputError("dims must be a NodeDims instance")
        n, m, p = self.dims.n_total, self.dims.m_total, self.dims.p_total
        object.__setattr__(self, "A", _as_matrix(self.A, (n, n), "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, (n, m), "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, (p, n), "C"))
        object.__setattr__(self, "D", _as_matrix(self.D, (p, m), "D"))

    @property
    def n(self) -> int:
        return self.dims.n_total

    @property
    def m(self) -> int:
        return self.dims.m_total

    @property
    def p(self) -> int:
        return self.dims.p_total

    @property
    def num_nodes(self) -> int:
        return self.dims.num_nodes

    def a_block(self, i: int, j: int) -> np.ndarray:
        return self.A[self.dims.state_slice(i), self.dims.state_slice(j)]

    def b_block(self, i: int, j: int) -> np.ndarray:
        return self.B[self.dims.state_slice(i), self.dims.input_slice(j)]

    def c_block(self, i: int, j: int) -> np.ndarray:
        return self.C[self.dims.output_slice(i), self.dims.state_slice(j)]

    def d_block(self, i: int, j: int) -> np.ndarray:
        return self.D[self.dims.output_slice(i), self.dims.input_slice(j)]

    # The matrices are frozen, so values derived from them are computed
    # once, on first use, and kept outside the dataclass fields.
    @cached_property
    def occupancy(self) -> BlockOccupancy:
        """Largest entry magnitude of every node block of A, B, C and D."""
        d = self.dims
        return BlockOccupancy(
            block_occupancy(self.A, d.states, d.states),
            block_occupancy(self.B, d.states, d.inputs),
            block_occupancy(self.C, d.outputs, d.states),
            block_occupancy(self.D, d.outputs, d.inputs),
        )

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, read-only.

        Raises :class:`~netreal.errors.NumericalError` when one is not finite.
        """
        if self.n == 0:
            eigs = np.zeros(0, dtype=complex)
        else:
            try:
                eigs = np.linalg.eigvals(self.A)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
            if not np.isfinite(eigs).all():
                raise NumericalError("eigenvalue computation failed: non-finite eigenvalues")
        eigs.setflags(write=False)
        return eigs


@dataclass(frozen=True)
class Violation:
    """One structurally forbidden block carrying a nonzero entry."""

    matrix: str
    block: tuple[int, int]
    max_abs: float


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    violations: tuple[Violation, ...]


def check_compatibility(
    real: BlockRealization,
    graph: NetworkGraph,
    mode: DMode = DMode.STRICT,
    zero_tol: float = 0.0,
) -> CompatibilityReport:
    """Test the block-sparsity rules of a realization against a graph.

    A and C blocks must vanish off the edge set; B must be block-diagonal.
    In strict mode D must be block-diagonal too; in edge-sparse mode D
    blocks are additionally allowed on edges.  Entries with absolute value
    at most ``zero_tol`` (default exactly zero) count as zero.

    Returns a report listing every offending block with its largest
    magnitude; ``ok`` is True iff there are none.
    """
    dims = real.dims
    if dims.num_nodes != graph.num_nodes:
        raise InputError(
            f"realization has {dims.num_nodes} nodes, graph has {graph.num_nodes}")
    if zero_tol < 0:
        raise InputError(f"zero_tol must be nonnegative, got {zero_tol}")

    edges = graph.adjacency
    diagonal = np.eye(dims.num_nodes, dtype=bool)
    if mode is DMode.STRICT:
        d_ok = diagonal
    elif mode is DMode.EDGE_SPARSE:
        d_ok = diagonal | edges
    else:
        raise InputError(f"unknown D mode {mode!r}")

    occ = real.occupancy
    violations = [
        Violation(name, (int(i), int(j)), float(grid[i, j]))
        for name, grid, allowed in (
            ("A", occ.A, edges), ("B", occ.B, diagonal),
            ("C", occ.C, edges), ("D", occ.D, d_ok))
        for i, j in zip(*np.nonzero((grid > zero_tol) & ~allowed))
    ]
    return CompatibilityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class OffendingMode:
    """An eigenvalue on or outside the unit circle that fails a rank test."""

    eigenvalue: complex
    test: str
    deficiency: int


@dataclass(frozen=True)
class PbhTestResult:
    passed: bool
    test: str
    offending: tuple[OffendingMode, ...]


@dataclass(frozen=True)
class PbhReport:
    stabilizable: bool
    detectable: bool
    offending_modes: tuple[OffendingMode, ...]


def _shifted(a: np.ndarray, z: complex, negate: bool = False) -> np.ndarray:
    """``z I - a`` if ``negate``, else ``a + z I``, as one new array.

    Real when ``a`` and ``z`` are: a real eigenvalue keeps the PBH pencil
    real, and a real SVD is faster than a complex one.
    """
    dtype = np.result_type(a, z)
    out = np.negative(a, dtype=dtype) if negate else np.array(a, dtype=dtype)
    out.flat[:: len(a) + 1] += z
    return out


def _frobenius_cond_bound(matrix: np.ndarray, inverse: np.ndarray) -> float:
    """``||matrix||_F ||inverse||_F``, never below the 2-norm condition number.

    Overflow reads as ``inf``, which certifies nothing.
    """
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(matrix)) * float(np.linalg.norm(inverse))


def _certified_solve(
    matrix: np.ndarray,
    rhs: Optional[np.ndarray],
    limit: float,
    refuse: Callable[[float], Exception],
) -> tuple[np.ndarray, np.ndarray]:
    """``matrix^{-1} rhs`` and ``matrix^{-1}`` from one solve, refusing ``cond >= limit``.

    One LU solve with the right-hand side ``[rhs | I]`` yields both.  The
    inverse certifies the guard: ``cond_2(matrix)`` is at most
    :func:`_frobenius_cond_bound`, so a bound that is finite and below
    ``limit / 2`` passes without an SVD (the half absorbs the rounding of
    the computed inverse, whose relative error is about ``cond * eps``).
    Otherwise, and when the solve finds ``matrix`` exactly singular, the
    exact ``np.linalg.cond`` decides: ``refuse(cond)`` is raised at or
    above ``limit`` or when it is not finite; below it the solve's result,
    or its ``LinAlgError``, stands.  ``rhs`` takes the dtype of ``matrix``;
    ``rhs=None`` solves for the inverse alone.
    """
    n = len(matrix)
    width = 0 if rhs is None else rhs.shape[1]
    augmented = np.zeros((n, width + n), dtype=matrix.dtype)
    if width:
        augmented[:, :width] = rhs
    augmented.flat[width :: width + n + 1] = 1.0
    try:
        solution = np.linalg.solve(matrix, augmented)
    except np.linalg.LinAlgError as exc:
        solution, failure = None, exc
    else:
        if _frobenius_cond_bound(matrix, solution[:, width:]) < 0.5 * limit:
            return solution[:, :width], solution[:, width:]
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond >= limit:
        raise refuse(cond)
    if solution is None:
        raise failure
    return solution[:, :width], solution[:, width:]


def _rank(pencil: np.ndarray, tol: float) -> int:
    try:
        sv = np.linalg.svd(pencil, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"rank test failed: {exc}") from exc
    if sv.size == 0:
        return 0
    cutoff = sv[0] * max(max(pencil.shape) * _EPS, tol)
    return int(np.count_nonzero(sv > cutoff))


def _group_heads(eigs, tol: float) -> list[complex]:
    """One eigenvalue per group: each joins the first head within ``tol * max(1, |head|)``."""
    heads: list[complex] = []
    for lam in eigs:
        if not any(abs(lam - head) <= tol * max(1.0, abs(head)) for head in heads):
            heads.append(lam)
    return heads


def _pbh_scan(real: BlockRealization, other: np.ndarray, stack_rows: bool,
              test: str, tol: float) -> PbhTestResult:
    """One rank test per group of repeated eigenvalues on or outside ``1 - tol``."""
    n = real.n
    outer = [lam for lam in real.eigenvalues if abs(lam) >= 1.0 - tol]
    offending = []
    for lam in _group_heads(outer, tol):
        shifted = _shifted(real.A, -lam)
        pencil = np.vstack([shifted, other]) if stack_rows else np.hstack([shifted, other])
        rank = _rank(pencil, tol)
        if rank < n:
            offending.append(OffendingMode(complex(lam), test, n - rank))
    return PbhTestResult(not offending, test, tuple(offending))


def pbh_stabilizable(real: BlockRealization, tol: float = 1e-9) -> PbhTestResult:
    """Rank test ``[A - lambda I, B]`` at every eigenvalue with ``|lambda| >= 1 - tol``.

    Singular values below ``smax * max(max(shape) * eps, tol)`` count as
    zero.  Eigenvalues within ``tol`` (relative to their magnitude, when
    above 1) of each other form one group, tested once and reported as
    one mode whose deficiency covers the whole group.
    """
    return _pbh_scan(real, real.B, False, "stabilizable", tol)


def pbh_detectable(real: BlockRealization, tol: float = 1e-9) -> PbhTestResult:
    """Rank test ``[A - lambda I; C]`` at every eigenvalue with ``|lambda| >= 1 - tol``.

    Repeated eigenvalues are grouped as in :func:`pbh_stabilizable`.
    """
    return _pbh_scan(real, real.C, True, "detectable", tol)


@dataclass(frozen=True)
class CertificationResult:
    ok: bool
    compatibility: CompatibilityReport
    pbh: PbhReport


def certify_witness(
    real: BlockRealization,
    graph: NetworkGraph,
    mode: DMode = DMode.STRICT,
    tol: float = 1e-9,
    zero_tol: float = 0.0,
) -> CertificationResult:
    """Full witness certificate: compatibility plus both PBH tests."""
    compat = check_compatibility(real, graph, mode, zero_tol)
    stab = pbh_stabilizable(real, tol)
    det = pbh_detectable(real, tol)
    pbh = PbhReport(stab.passed, det.passed, stab.offending + det.offending)
    return CertificationResult(compat.ok and stab.passed and det.passed, compat, pbh)


def spectral_radius(real: BlockRealization) -> float:
    """Largest eigenvalue magnitude of A; zero for a static system.

    Reads the eigenvalues cached on the realization, so A is decomposed
    once however often this is asked.
    """
    eigs = real.eigenvalues
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def eval_transfer(real: BlockRealization, z: complex) -> np.ndarray:
    """Evaluate ``C (zI - A)^{-1} B + D`` at one complex frequency.

    One LU solve of ``zI - A`` against ``[B | I]`` yields the states
    ``(zI - A)^{-1} B``, from which the transfer is formed, and
    ``(zI - A)^{-1}``, which only certifies the pole guard.  Raises
    :class:`~netreal.errors.PoleError` when ``zI - A`` has condition
    number at or above ``POLE_COND_LIMIT``.
    """
    if real.n == 0:
        return real.D.astype(complex)
    try:
        states, _ = _certified_solve(
            _shifted(real.A, complex(z), negate=True), real.B, POLE_COND_LIMIT,
            lambda cond: PoleError(
                f"z = {z} is too close to a pole: cond(zI - A) = {cond:.3e}"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"transfer evaluation failed at z = {z}: {exc}") from exc
    # Contiguous, as numpy picks a different product kernel for a strided column.
    return real.C @ np.ascontiguousarray(states) + real.D


def scaled_deviation(left: np.ndarray, right: np.ndarray) -> float:
    """Largest entrywise gap under a mixed absolute/relative scale.

    Each entry's gap is divided by ``max(1, |left|, |right|)``, so the
    result reads as an absolute error for small values and a relative
    one for large values.
    """
    if left.size == 0:
        return 0.0
    scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
    return float(np.max(np.abs(left - right) / scale))


@dataclass(frozen=True)
class TransferComparison:
    equal: bool
    max_deviation: float
    num_points: int
    radius: float


_MAX_RESAMPLES = 8


def circle_samples(
    systems: Sequence[BlockRealization], num_points: int, evaluate: Callable[[complex], object]
) -> tuple[list, float]:
    """Apply ``evaluate`` at ``num_points`` frequencies around every pole.

    The points lie evenly on the circle of radius
    ``2 (1 + max spectral radius)`` over ``systems``, which encloses
    every pole.  A point where ``evaluate`` raises
    :class:`~netreal.errors.PoleError` or ``LinAlgError`` is pushed
    outward by a factor 1.37 and retried a bounded number of times
    before :class:`~netreal.errors.NumericalError` is raised.  Returns
    the values in point order and the radius.
    """
    if num_points < 1:
        raise InputError(f"num_points must be positive, got {num_points}")
    radius = 2.0 * (1.0 + max(spectral_radius(s) for s in systems))
    values = []
    for k in range(num_points):
        z = radius * np.exp(2j * np.pi * k / num_points)
        for _ in range(_MAX_RESAMPLES):
            try:
                values.append(evaluate(z))
                break
            except (PoleError, np.linalg.LinAlgError):
                z *= 1.37
        else:
            raise NumericalError(
                f"no usable sample point found near radius {radius:.3e}")
    return values, radius


def transfer_equal(
    r1: BlockRealization,
    r2: BlockRealization,
    num_points: int = 16,
    rel_tol: float = 1e-8,
) -> TransferComparison:
    """Compare two transfer matrices on a circle of sample frequencies.

    Samples ``num_points`` points with :func:`circle_samples`.  Equality
    holds when the worst :func:`scaled_deviation` over all points is at
    most ``rel_tol``.
    """
    if (r1.p, r1.m) != (r2.p, r2.m):
        raise InputError(
            f"cannot compare a {r1.p}x{r1.m} transfer with a {r2.p}x{r2.m} one")
    gaps, radius = circle_samples(
        (r1, r2), num_points,
        lambda z: scaled_deviation(eval_transfer(r1, z), eval_transfer(r2, z)))
    worst = max(gaps)
    return TransferComparison(worst <= rel_tol, worst, num_points, radius)
