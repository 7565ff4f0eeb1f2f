"""Dense-matrix substrate: field tags, rank-revealing spans, spectral norms,
principal angles, polar factors, sampling and the ``[re, im]`` matrix codec.

Everything here works on plain numpy arrays.  A matrix is "real-tagged" when
its dtype is a float type and "complex-tagged" when it is a complex type;
mixing tags in one operation raises ``FieldMismatchError`` instead of silently
promoting.  All functions never mutate their inputs, and all but the samplers,
which advance their generator, are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import FieldMismatchError, NonFiniteError, SingularMatrixError, ZeroInputError

REAL = "real"
COMPLEX = "complex"
_DTYPES = {REAL: np.dtype(np.float64), COMPLEX: np.dtype(np.complex128)}

#: Default relative tolerance for rank and residual decisions. Ambient
#: dimensions stay <= 8 in double precision, which leaves several orders of
#: magnitude of headroom above roundoff.
DEFAULT_TOL = 1e-9


def field_dtype(field: str) -> np.dtype:
    """The dtype of a field tag's arrays, float64 for real and complex128 for
    complex: the library's one reading of a tag.  An unknown tag raises
    ``ValueError``."""
    try:
        return _DTYPES[field]
    except (KeyError, TypeError):
        raise ValueError(f"unknown field tag {field!r}") from None


def as_matrix(a, field: str | None = None) -> np.ndarray:
    """Return ``a`` as a float64 or complex128 2-d array.

    ``field`` forces the tag; without it, complex input stays complex and
    everything else becomes real.  Real-tagged output with a nonzero
    imaginary part raises ``FieldMismatchError``.
    """
    m = np.asarray(a)
    dtype = field_dtype(field_of(m) if field is None else field)
    if dtype.kind == "f" and np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise FieldMismatchError("complex entries in real-tagged matrix")
        m = m.real
    return np.atleast_2d(np.asarray(m, dtype=dtype))


def field_of(m: np.ndarray) -> str:
    """Field tag of an array, derived from its dtype."""
    return COMPLEX if np.iscomplexobj(m) else REAL


def require_same_field(*arrays: np.ndarray) -> str:
    """Check that all arrays carry one field tag and return it."""
    tags = {field_of(a) for a in arrays}
    if len(tags) > 1:
        raise FieldMismatchError("operation mixes real- and complex-tagged matrices")
    return tags.pop()


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack (a view
    of ``m`` when ``m`` is real)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def _number(value, kind) -> bool:
    # a bool is an Integral, but no dimension, count, fraction or tolerance
    return isinstance(value, kind) and not isinstance(value, bool)


def _integer(value, error: type[Exception] = ValueError) -> int:
    """``value`` as an int; raises ``error`` unless a Python or numpy integer."""
    if type(value) is int:  # skips the slower abstract-class check
        return value
    if not _number(value, Integral):
        raise error(f"{value!r} is not an integer")
    return int(value)


def require_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is a real number, not a bool, with
    ``0 < tol < inf``; a NaN, a string, ``None``, a complex number and an
    array are refused too."""
    # a float, np.float64 included, skips the slower abstract-class check
    if not ((isinstance(tol, float) or _number(tol, Real)) and 0.0 < tol < math.inf):
        raise ValueError(f"tol must be a finite positive real number, got {tol!r}")


def spectral_norm(m: np.ndarray):
    """Largest singular value of a matrix, as a float, or of every matrix in a
    ``(..., r, c)`` stack, as an array; 0 for an empty matrix.

    A vector or a single column has one singular value, its Euclidean norm.
    A lone matrix takes its SVD.  A stack takes the square root of the top
    eigenvalue of each ``M^H M``, which beats an SVD per matrix and keeps the
    relative accuracy of the largest singular value; one with a non-finite
    norm or Gram entry takes the SVD, which scales an overflowed finite matrix
    and refuses a NaN or infinite one with ``NonFiniteError``.  Those squares
    overflow on finite entries above about 1e154, without a warning.
    """
    m = np.asarray(m)
    if m.ndim == 1:
        m = m[:, None]
    if m.size == 0:
        return np.zeros(m.shape[:-2]) if m.ndim > 2 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if m.ndim == 2:
            if m.shape[1] == 1:
                norm = float(np.linalg.norm(m))
                if math.isfinite(norm):
                    return norm
            return float(_finite_svd(m, compute_uv=False)[0])
        if m.shape[-1] == 1:
            norms = np.linalg.norm(m[..., 0], axis=-1)
            if math.isfinite(norms.sum()):
                return norms
        else:
            gram = adjoint(m) @ m
            # the eigensolver ignores a NaN; the sum of the Gram entries does not
            if math.isfinite(abs(gram.sum())):
                return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
        return _finite_svd(m, compute_uv=False)[..., 0]


def _finite_svd(m: np.ndarray, compute_uv: bool, full_matrices: bool = False):
    """SVD of a matrix or stack, thin unless ``full_matrices``: the library's
    only SVD.  NaN or infinite entries raise ``NonFiniteError``; they are
    looked for first when singular vectors are asked for, since LAPACK's
    divide-and-conquer SVD need not return on a non-finite matrix."""
    if compute_uv and not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    try:
        out = np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError("matrix has non-finite entries") from exc
    s = out[1] if compute_uv else out
    if s.size and not math.isfinite(s[0] if s.ndim == 1 else s[..., 0].max()):
        raise NonFiniteError("matrix has non-finite entries")
    return out


def _outside(qa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G = Q_B^H Q_A`` and ``Q_A - Q_B G``, the part of each column of
    ``Q_A`` outside the span of the orthonormal ``Q_B``, for two bases or two
    stacks.  A NaN or infinite entry makes NaN or infinite entries; the
    caller silences numpy's warnings about them and refuses them."""
    g = adjoint(qb) @ qa
    return g, qa - qb @ g


def residual_norms(qa: np.ndarray, qb: np.ndarray):
    """Sine of the largest principal angle of span ``Q_A`` against span
    ``Q_B``: the :func:`spectral_norm` of ``Q_A - Q_B (Q_B^H Q_A)``.

    ``Q_A`` and ``Q_B`` are orthonormal bases, or ``(B, n, k)`` stacks of
    them, one sine per pair.  It is at most ``tol`` when A lies in B within
    ``tol``, and at equal dimensions it is the projector distance
    ``|P_A - P_B|`` (Bjorck-Golub 1973).  NaN or infinite entries raise
    ``NonFiniteError``, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        outside = _outside(qa, qb)[1]
    return spectral_norm(outside)


def _principal(qa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``G = Q_B^H Q_A`` and the sines ``S`` and principal directions ``V`` of
    span ``Q_A`` against ``Q_B``, from the thin SVD ``Q_A - Q_B G = U S V^H``.

    When ``Q_A`` is one column, so is ``Q_A - Q_B G``, and its one singular
    value is its norm, at ``V = 1``: no SVD is taken.  A norm that is not
    finite takes the SVD, which refuses NaN or infinite entries with
    ``NonFiniteError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g, outside = _outside(qa, qb)
    if outside.shape[-1] == 1:
        sines = _column_norms(outside)[..., 0, :]
        if math.isfinite(sines.sum()):
            return g, sines, np.ones_like(outside[..., :1, :])
    _, sines, vh = _finite_svd(outside, compute_uv=True)
    return g, sines, adjoint(vh)


def principal_angles(qa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal angles of span ``Q_A`` against span ``Q_B`` (Bjorck-Golub
    1973), for two orthonormal bases or two ``(B, n, k)`` stacks of them.

    From one thin SVD ``Q_A - Q_B (Q_B^H Q_A) = U S V^H``: returns the sines
    ``S``, descending along the last axis, and the principal vectors
    ``Q_A V`` of A, column j at sine ``S[j]``.  A single column ``Q_A`` takes
    no SVD: its one sine is the norm of ``Q_A - Q_B (Q_B^H Q_A)`` and its
    principal vector is ``Q_A`` itself, which the SVD gives up to a phase.
    The vectors at sine at most ``tol`` span the meet of A and B at ``tol``.
    NaN or infinite entries raise ``NonFiniteError``, without a numpy warning.
    """
    _, sines, v = _principal(qa, qb)
    return sines, qa @ v


def span(cols: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the column space of ``cols`` and its dimension
    (the numerical rank): the batch of one of :func:`span_stack`.

    Raises ``ZeroInputError`` when the rank is 0 and ``NonFiniteError`` when
    an entry is NaN or infinite.
    """
    m = np.asarray(cols)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError("need a matrix with at least one column")
    u, rank = span_stack(m, tol)
    rank = int(rank)
    if rank == 0:
        raise ZeroInputError("all columns are numerically zero")
    return u[:, :rank], rank


def span_stack(cols: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases for the column spaces of a ``(..., n, k)`` stack of
    matrices, from one thin SVD of the stack: the library's rank rule.

    The rank of a matrix is the count of its singular values above ``tol``
    times the largest, and 0 when the largest is at most ``tol``.  Returns the
    left singular vectors and the ranks: the first ``rank`` columns of an
    entry span its matrix.  The columns beyond each rank are zeroed when some
    rank falls short of the width, so zero columns in ``cols`` change neither
    output.  A stack of single columns is normalized (:func:`unit_columns`).

    Raises ``NonFiniteError`` when an entry is NaN or infinite.
    """
    m = np.asarray(cols)
    require_tol(tol)
    if m.shape[-1] == 1:
        try:
            return unit_columns(m, tol), np.ones(m.shape[:-2], dtype=np.intp)
        except ZeroInputError:
            pass  # a numerically zero column has rank 0, as below
    u, s, _, _ = _svd_up_to_scale(m)
    top = s[..., :1]
    rank = (s > tol * top).sum(axis=-1)
    width = u.shape[-1]
    if not (tol < top.min(initial=math.inf) and rank.min(initial=width) == width):
        rank = np.where(top[..., 0] > tol, rank, 0)
        u = u * (np.arange(width) < rank[..., None])[..., None, :]
    return u, rank


def _full_rank_span(m: np.ndarray, tol: float) -> np.ndarray | None:
    """The left singular vectors of a finite ``(..., n, k)`` stack when each
    matrix has rank ``k`` at ``tol``, as :func:`span_stack` gives them;
    ``None`` when one falls short, its top value overflowing included, or
    the SVD fails."""
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    top = s[..., 0]
    return u if tol < top.min() and (s[..., -1] > tol * top).all() else None


def _svd_up_to_scale(m: np.ndarray) -> tuple:
    """``U, S, V^H`` as :func:`_finite_svd` gives them, and whether ``m`` was
    scaled: when a finite matrix's top singular value overflows, every matrix
    with an entry above 1 in magnitude is divided by its largest first, which
    keeps its singular vectors and the ratios of its singular values."""
    try:
        return (*_finite_svd(m, compute_uv=True), False)
    except NonFiniteError:
        if not np.isfinite(m).all():
            raise
    largest = np.max(np.abs(m), axis=(-2, -1), keepdims=True)
    return (*_finite_svd(m / np.maximum(largest, 1.0), compute_uv=True), True)


def _column_norms(m: np.ndarray) -> np.ndarray:
    """The norm of every column, shaped to divide ``m``.  Each column is
    summed as one contiguous vector, so its norm does not depend on the
    memory layout of ``m`` or on the other columns, bit for bit."""
    rows = np.ascontiguousarray(np.swapaxes(m, -1, -2))
    # an infinite entry gives a NaN imaginary part here, and a finite one
    # above 1e154 an infinite square; the callers refuse the first and
    # rescale the second, or hand both to the SVD, without numpy's warnings
    with np.errstate(invalid="ignore", over="ignore"):
        if np.iscomplexobj(rows):
            squares = (rows.conj() * rows).real
        else:
            squares = rows * rows
        return np.sqrt(np.add.reduce(squares, axis=-1))[..., None, :]


def unit_columns(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Every column of a matrix or stack divided by its norm: the span of a
    single column, as in :func:`span_stack`.

    Raises ``ZeroInputError`` when a column has norm <= ``tol`` and
    ``NonFiniteError`` when an entry is NaN or infinite.
    """
    require_tol(tol)
    norms = _column_norms(m)
    # the initial values pass an empty stack, which has no column to refuse
    low, high = float(norms.min(initial=math.inf)), float(norms.max(initial=0.0))
    # false for a NaN norm too
    if not (tol < low and high < math.inf):
        if not np.isfinite(m).all():
            raise NonFiniteError("matrix has non-finite entries")
        overflowed = norms == math.inf
        if overflowed.any():
            # a finite column whose norm overflows is divided by its largest
            # entry first
            largest = np.max(np.abs(m), axis=-2, keepdims=True)
            m = m / np.where(overflowed, largest, 1.0)
            norms = _column_norms(m)
        if (norms <= tol).any():
            raise ZeroInputError("a column is numerically zero")
    return m / norms


def gaussian(rng: np.random.Generator, shape: tuple, field: str) -> np.ndarray:
    """Standard Gaussian array; complex entries have unit variance split
    evenly between the real and imaginary parts, drawn after all real parts.
    The batch of one of :func:`gaussian_stack`."""
    return gaussian_stack([rng], shape, field)[0]


def gaussian_stack(rngs, shape: tuple, field: str) -> np.ndarray:
    """One :func:`gaussian` array of ``shape`` from each generator, stacked.

    Each generator fills its slot of one buffer in a single call, all its
    real parts and then all its imaginary parts; the buffer is combined
    once.  An unknown field tag raises ``ValueError`` before any draw."""
    complex_ = field_dtype(field).kind == "c"
    buf = np.empty((len(rngs), 1 + complex_) + tuple(shape))
    for rng, draws in zip(rngs, buf):
        rng.standard_normal(out=draws)
    if complex_:
        return (buf[:, 0] + 1j * buf[:, 1]) / np.sqrt(2.0)
    return buf[:, 0]


def conditioned_gaussian_stack(rngs, n: int, field: str, cap: float) -> np.ndarray:
    """One ``n x n`` :func:`gaussian` matrix per generator, each redrawn from
    its own generator until its condition number is below ``cap``: until it
    has full rank at ``1 / cap`` (:func:`_full_rank`).  Every round judges the
    pending stack at once and redraws only the rejected entries, so each
    generator sees exactly the draws of a one-matrix loop."""
    g = gaussian_stack(rngs, (n, n), field)
    pending = np.flatnonzero(~_full_rank(g, 1.0 / cap))
    while pending.size:
        g[pending] = gaussian_stack([rngs[i] for i in pending], (n, n), field)
        pending = pending[~_full_rank(g[pending], 1.0 / cap)]
    return g


def _full_rank(m: np.ndarray, tol: float, inverse: np.ndarray | None = None) -> np.ndarray:
    """The ``(B,)`` mask of the ``(B, n, n)`` matrices with full rank at
    ``tol``: ``s[-1] > tol s[0]`` on their descending singular values ``s``.

    Most are certified without an SVD: ``s[0] / s[-1] <= |M|_F |M^-1|_F``
    (Higham 2002, sec. 6.2), and a computed product below ``min(1 / tol,
    1e6)`` by a relative 1e-6 shows full rank; up to 1e6 that margin is far
    above the rounding of either side.  The rest take one SVD and the rule,
    and all do when ``inv`` raises.  ``inverse`` is the stack's inverse or its
    adjoint, if the caller holds it.  NaN or infinite entries raise
    ``NonFiniteError``.
    """
    try:
        inverse = np.linalg.inv(m) if inverse is None else inverse
        # a NaN product, or squares that overflow, certify nothing
        with np.errstate(over="ignore", invalid="ignore"):
            squares = [np.einsum("...ij,...ij->...", a.conj(), a).real for a in (m, inverse)]
            full = squares[0] * squares[1] <= (min(1.0 / tol, 1e6) * (1.0 - 1e-6)) ** 2
    except np.linalg.LinAlgError:
        full = np.zeros(len(m), dtype=bool)
    if not full.all():
        rest = np.flatnonzero(~full)
        s = _finite_svd(m[rest], compute_uv=False)
        full[rest] = s[:, -1] > tol * s[:, 0]
    return full


def haar(rng: np.random.Generator, shape: tuple, field: str) -> np.ndarray:
    """Orthonormal columns with a Haar-distributed span: the Q factor of a
    :func:`gaussian` array of ``shape``, which may be a stack ``(..., n, d)``."""
    return np.linalg.qr(gaussian(rng, shape, field)).Q


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of ``[re, im]`` pairs, as plain floats."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows: list) -> np.ndarray:
    """Complex matrix from rows of ``[re, im]`` pairs (inverse of :func:`matrix_to_json`)."""
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=np.complex128)


@dataclass(frozen=True)
class PolarFactors:
    """Unitary and positive factors of an invertible square matrix."""

    unitary: np.ndarray
    positive: np.ndarray


def polar_decompose(m: np.ndarray, tol: float = DEFAULT_TOL) -> PolarFactors:
    """Factor an invertible square matrix as unitary times positive Hermitian.

    From one SVD ``m = W S V^H``: the unitary factor is ``W V^H`` and the
    positive one ``V S V^H``.

    Raises ``SingularMatrixError`` when the smallest singular value is
    <= ``tol`` times the largest, and ``NonFiniteError`` when an entry is NaN
    or infinite or when the largest singular value overflows.
    """
    require_tol(tol)
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("polar decomposition needs a square matrix")
    w, s, vh, scaled = _svd_up_to_scale(a)
    if s[-1] <= tol * s[0]:
        raise SingularMatrixError("matrix is singular at the working tolerance")
    if scaled:
        raise NonFiniteError("positive factor overflows")
    # halved before the sum, which would overflow near the largest float
    half = 0.5 * ((adjoint(vh) * s) @ vh)
    return PolarFactors(unitary=w @ vh, positive=half + adjoint(half))
