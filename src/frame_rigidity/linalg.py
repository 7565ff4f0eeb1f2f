"""Dense-matrix substrate: field tags, spans, rank, polar factors, sampling and
the ``[re, im]`` matrix codec.

Everything here works on plain numpy arrays.  A matrix is "real-tagged" when
its dtype is a float type and "complex-tagged" when it is a complex type;
mixing tags in one operation raises ``FieldMismatchError`` instead of silently
promoting.  All functions never mutate their inputs, and all but the samplers,
which advance their generator, are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatchError, NonFiniteError, SingularMatrixError, ZeroInputError

REAL = "real"
COMPLEX = "complex"

#: Default relative tolerance for rank and residual decisions. Ambient
#: dimensions stay <= 8 in double precision, which leaves several orders of
#: magnitude of headroom above roundoff.
DEFAULT_TOL = 1e-9


def as_matrix(a, field: str | None = None) -> np.ndarray:
    """Return ``a`` as a float64 or complex128 2-d array.

    ``field`` forces the tag; without it, complex input stays complex and
    everything else becomes real.  Real-tagged output with a nonzero
    imaginary part raises ``FieldMismatchError``.
    """
    m = np.asarray(a)
    if field is None:
        field = COMPLEX if np.iscomplexobj(m) else REAL
    if field == REAL:
        if np.iscomplexobj(m):
            if np.any(m.imag != 0):
                raise FieldMismatchError("complex entries in real-tagged matrix")
            m = m.real
        m = np.asarray(m, dtype=np.float64)
    elif field == COMPLEX:
        m = np.asarray(m, dtype=np.complex128)
    else:
        raise ValueError(f"unknown field tag {field!r}")
    if m.ndim != 2:
        m = np.atleast_2d(m)
    return m


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


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; 0.0 for an empty matrix.

    A vector or a single column has one singular value, its Euclidean norm.
    Raises ``NonFiniteError`` when an entry is NaN or infinite.
    """
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    if m.ndim == 1 or m.shape[1] == 1:
        r = float(np.linalg.norm(m))
        if np.isfinite(r):
            return r
        # a non-finite norm goes to the SVD, which scales an overflowed finite
        # vector and refuses a NaN or infinite one
        m = m.reshape(-1, 1)
    return float(_finite_svd(m, compute_uv=False)[0])


def _finite_svd(m: np.ndarray, compute_uv: bool):
    """Thin SVD; NaN or infinite entries raise ``NonFiniteError``."""
    try:
        out = np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError("matrix has non-finite entries") from exc
    if not math.isfinite((out[1] if compute_uv else out)[0]):
        raise NonFiniteError("matrix has non-finite entries")
    return out


def span(cols: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the column space of ``cols``, from one thin SVD.

    Keeps the left singular vectors whose singular values exceed ``tol``
    times the largest one and returns them with their count (the numerical
    rank).  A single column is its own SVD: ``v / |v|``.

    Raises ``ZeroInputError`` when the largest singular value is <= ``tol``
    and ``NonFiniteError`` when an entry is NaN or infinite.
    """
    m = np.asarray(cols)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError("need a matrix with at least one column")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if m.shape[1] == 1:
        # an overflowed norm of a finite column goes to the SVD, which scales
        top = float(np.linalg.norm(m))
        if np.isfinite(top):
            if top <= tol:
                raise ZeroInputError("the column is numerically zero")
            return m / top, 1
    u, s, _ = _finite_svd(m, compute_uv=True)
    top = float(s[0])
    if top <= tol:
        raise ZeroInputError("all columns are numerically zero")
    rank = int(np.count_nonzero(s > tol * top))
    return u[:, :rank], rank


def orthonormalize(cols: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the column space of ``cols``.

    Modified Gram-Schmidt with column rejection: column k is dropped when its
    residual after projection against the columns already retained has norm
    <= ``tol`` times the largest input column norm.  Returns the retained
    orthonormal columns and their count (the numerical rank).

    This is the public reference construction; :func:`span` gives the same
    column space from one SVD.

    Raises ``ZeroInputError`` when every input column has norm <= ``tol``
    and ``NonFiniteError`` when an entry is NaN or infinite.
    """
    m = np.array(cols, copy=True)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError("need a matrix with at least one column")
    if tol <= 0:
        raise ValueError("tol must be positive")
    norms = np.linalg.norm(m, axis=0)
    scale = float(norms.max())
    if not np.isfinite(scale):
        raise NonFiniteError("matrix has non-finite entries")
    if scale <= tol:
        raise ZeroInputError("all columns are numerically zero")
    thresh = tol * scale
    kept = []
    for k in range(m.shape[1]):
        v = m[:, k]
        # project twice against the retained block; one pass loses
        # orthogonality for nearly dependent columns
        for q in kept:
            v = v - q * (np.vdot(q, v))
        for q in kept:
            v = v - q * (np.vdot(q, v))
        r = np.linalg.norm(v)
        if r > thresh:
            kept.append(v / r)
    q = np.column_stack(kept) if kept else np.zeros((m.shape[0], 0), dtype=m.dtype)
    return q, len(kept)


def gaussian(rng: np.random.Generator, shape: tuple, field: str) -> np.ndarray:
    """Standard Gaussian array; complex entries have unit variance split
    evenly between the real and imaginary parts, drawn after all real parts."""
    g = rng.standard_normal(shape)
    if field == COMPLEX:
        g = (g + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return g


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


def rank_with_tol(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


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
    <= ``tol`` times the largest.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("polar decomposition needs a square matrix")
    w, s, vh = np.linalg.svd(a)
    if s[-1] <= tol * s[0]:
        raise SingularMatrixError("matrix is singular at the working tolerance")
    p = (adjoint(vh) * s) @ vh
    p = 0.5 * (p + adjoint(p))
    return PolarFactors(unitary=w @ vh, positive=p)
