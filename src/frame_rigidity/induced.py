"""Semilinear maps and the transformations they induce on subspaces and frames.

A semilinear map is an invertible matrix together with a field automorphism
tag (identity or conjugation).  Beyond the pointwise action this module
provides the transform that moves eversion past an induced map (the
contragredient ``inv(T)^H``, which is U P^{-1} for the polar factors T = U P),
and the reconstruction of hidden maps from their action on lines alone, asked
of a stacked line oracle.
"""

from __future__ import annotations

import functools
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    DegenerateOracleError,
    FieldMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroInputError,
)
from .frames import FrameTuple, _frame, _one_each, span_components
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    _finite_svd,
    _full_rank,
    _number,
    adjoint,
    as_matrix,
    conditioned_gaussian_stack,
    field_dtype,
    field_of,
    gaussian,
    matrix_from_json,
    matrix_to_json,
    require_tol,
    span_stack,
    unit_columns,
)
from .partitions import IntPartition
from .subspaces import Subspace

IDENTITY = "id"
CONJUGATION = "conj"

# sampled maps have condition number at most this, which keeps induced-map
# arithmetic well away from degeneracy
_MAX_CONDITION = 1e3

# deterministic probe stream for reconstruction verification, and its length
_PROBE_SEED = 0x1D6A
_PROBE_COUNT = 50


def apply_tagged_stack(
    matrices: np.ndarray, conj: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """``M_k conj?(V_k)``: the ``(B, n, n)`` matrices ``matrices`` applied to
    the columns of ``vectors``, a ``(..., B, n, k)`` stack or one ``(n, k)``
    matrix for all, conjugated first for map k where the boolean ``(B,)``
    array ``conj`` holds True.

    The one place where a conjugation tag acts: images of subspaces, induced
    frames, line oracles and reconstructed candidates all go through it.
    """
    if conj.any():
        vectors = np.where(conj[:, None, None], vectors.conj(), vectors)
    return matrices @ vectors


class SemilinearMap:
    """Invertible square matrix with an automorphism tag.

    Conjugation is only meaningful over the complex field; real-tagged
    matrices must carry the identity automorphism.  A matrix with a NaN or
    infinite entry raises ``NonFiniteError``.
    """

    __slots__ = ("matrix", "automorphism")

    def __init__(self, matrix, automorphism: str = IDENTITY, tol: float = DEFAULT_TOL):
        require_tol(tol)
        m = as_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatchError(f"matrix must be square, got {m.shape}")
        if m.size == 0 or not _full_rank(m[None], tol)[0]:
            raise SingularMatrixError("matrix is singular at the working tolerance")
        self._init(m, automorphism)

    def _init(self, m: np.ndarray, automorphism: str) -> None:
        if automorphism not in (IDENTITY, CONJUGATION):
            raise ValueError(f"unknown automorphism {automorphism!r}")
        if automorphism == CONJUGATION and field_of(m) == REAL:
            raise ValueError("a real matrix cannot carry the conjugation tag")
        m = np.array(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "automorphism", automorphism)

    @classmethod
    def _invertible(cls, m: np.ndarray, automorphism: str) -> "SemilinearMap":
        """A map on a square matrix already checked finite and invertible."""
        t = object.__new__(cls)
        t._init(m, automorphism)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("SemilinearMap is immutable")

    def __repr__(self):
        return (
            f"SemilinearMap(ambient={self.ambient}, field={self.field!r}, "
            f"automorphism={self.automorphism!r})"
        )

    @property
    def ambient(self) -> int:
        return self.matrix.shape[0]

    @property
    def field(self) -> str:
        return field_of(self.matrix)

    def to_json(self) -> dict:
        return {"automorphism": self.automorphism, "matrix": matrix_to_json(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict, tol: float = DEFAULT_TOL) -> "SemilinearMap":
        entries = matrix_from_json(obj["matrix"])
        if obj["automorphism"] == IDENTITY and np.all(entries.imag == 0.0):
            entries = entries.real
        return cls(entries, obj["automorphism"], tol)


def apply_to_subspace_stack(matrices, conj, bases, tol: float = DEFAULT_TOL) -> tuple:
    """The image of ``bases[..., j, :, :]``, padded with zero columns, under
    map j, ``M_j conj?(Q_j)``: the spans and ranks of
    :func:`linalg.span_stack`, a zero subspace at rank 0."""
    return span_stack(apply_tagged_stack(matrices, conj, bases), tol)


def apply_to_subspace(t: SemilinearMap, a: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Image subspace: :func:`apply_to_subspace_stack` at a batch of one.
    Dimension is preserved since the map is invertible; a nonzero subspace
    whose image is numerically zero raises ``ZeroInputError``.

    A real subspace fed to a complex map is promoted along the standard
    embedding; a complex subspace cannot be pushed through a real-tagged map.
    """
    if t.ambient != a.ambient:
        raise AmbientMismatchError(f"map on {t.ambient} dims, subspace in {a.ambient}")
    if a.field == COMPLEX and t.field == REAL:
        raise FieldMismatchError("complex subspace under a real-tagged map")
    conj = np.array([t.automorphism == CONJUGATION])
    q, rank = apply_to_subspace_stack(t.matrix[None], conj, a.basis[None], tol)
    if rank[0] == 0 < a.dim:
        raise ZeroInputError("all columns are numerically zero")
    return Subspace(a.ambient, q[0, :, : rank[0]])


def induced_on_frame_stack(
    matrices: np.ndarray,
    conj: np.ndarray,
    bases: np.ndarray,
    shapes: Sequence[IntPartition],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Stacked :func:`induced_on_frame`: the ``(B, n, n)`` stacked bases of the
    image of frame k of ``bases``, of shape ``shapes[k]``, under map k, whose
    matrix is ``matrices[k]`` and which conjugates first where the boolean
    array ``conj`` holds True.

    One product ``M @ conj?(A)`` for the whole stack
    (:func:`apply_tagged_stack`), then every component re-spanned at ``tol``
    (:func:`frames.span_components`).  A real frame under complex maps is
    promoted along the standard embedding.
    """
    if matrices.shape != bases.shape:
        raise AmbientMismatchError(f"maps {matrices.shape} do not fit frames {bases.shape}")
    _one_each(bases, conj, "conjugation flags")
    if np.iscomplexobj(bases) and not np.iscomplexobj(matrices):
        raise FieldMismatchError("complex subspace under a real-tagged map")
    return span_components(apply_tagged_stack(matrices, conj, bases), shapes, tol)


def induced_on_frame(t: SemilinearMap, frame: FrameTuple, tol: float = DEFAULT_TOL) -> FrameTuple:
    """Componentwise image frame; the batch of one of
    :func:`induced_on_frame_stack`.  A map on another ambient raises
    ``AmbientMismatchError``.
    """
    shape = frame.shape
    conj = np.array([t.automorphism == CONJUGATION])
    basis = induced_on_frame_stack(
        t.matrix[None], conj, frame.stacked_basis()[None], [shape], tol
    )[0]
    return _frame(basis, shape)


def evert_conjugate_stack(matrices: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stacked :func:`evert_conjugate`: the contragredients ``inv(T)^H`` of a
    ``(B, n, n)`` stack of invertible matrices, from one ``inv``.

    Every contragredient is checked finite and invertible at ``tol`` as
    :class:`SemilinearMap` checks a matrix (:func:`linalg._full_rank`):
    ``NonFiniteError`` or ``SingularMatrixError`` otherwise.
    """
    require_tol(tol)
    try:
        out = adjoint(np.linalg.inv(matrices))
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(matrices).all():
            raise NonFiniteError("matrix has non-finite entries") from exc
        raise SingularMatrixError("matrix is singular; it has no contragredient") from exc
    if matrices.shape[-1] == 0 or not _full_rank(out, tol, matrices).all():
        raise SingularMatrixError("matrix is singular at the working tolerance")
    return out


def evert_conjugate(t: SemilinearMap, tol: float = DEFAULT_TOL) -> SemilinearMap:
    """The map that plays t's role on the everted side: U P^{-1} for t = U P,
    which is the contragredient ``inv(t)^H``; the batch of one of
    :func:`evert_conjugate_stack`.

    Pushing a frame through this map and everting gives the same frame as
    everting first and pushing through t.
    """
    matrix = evert_conjugate_stack(t.matrix[None], tol)[0]
    return SemilinearMap._invertible(matrix, t.automorphism)


def random_semilinear_stack(
    ambient: int, field: str, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Stacked :func:`random_semilinear`: the ``(B, n, n)`` matrices of one map
    per generator, each drawn from its own generator as
    :func:`random_semilinear` draws it.

    The condition cap is checked on the whole stack at once, with redraws
    only for the rejected matrices.
    """
    return conditioned_gaussian_stack(rngs, ambient, field, _MAX_CONDITION)


def random_semilinear(
    ambient: int,
    field: str,
    rng: np.random.Generator,
    automorphism: str = IDENTITY,
) -> SemilinearMap:
    """Random invertible map with condition number at most ``_MAX_CONDITION``;
    the batch of one of :func:`random_semilinear_stack`."""
    if field == REAL and automorphism != IDENTITY:
        raise ValueError("real maps carry the identity automorphism")
    matrix = random_semilinear_stack(ambient, field, [rng])[0]
    return SemilinearMap._invertible(matrix, automorphism)


# -- reconstruction from the action on lines ------------------------------------
#
# A stacked line oracle maps a (B, n, P) stack of line bases, P unit columns
# per trial, to the (B, n, P) stack of their unit image columns, trial k under
# hidden map k.


@functools.lru_cache(maxsize=64)
def _probe_lines(ambient: int, field: str) -> tuple[np.ndarray, np.ndarray]:
    """The unit bases, side by side and read-only, of the probe lines (the
    coordinate lines, the lines through e_1 + e_k for k = 2..n and, over the
    complex field, e_1 + i e_2) and of the verification sweep's deterministic
    random lines."""
    eye = np.eye(ambient)
    probes = [eye[:, k] for k in range(ambient)]
    probes += [eye[:, 0] + eye[:, k] for k in range(1, ambient)]
    if field == COMPLEX:
        probes.append(eye[:, 0] + 1j * eye[:, 1])
    probe_rng = np.random.default_rng(_PROBE_SEED)
    sweep = [gaussian(probe_rng, (ambient,), field) for _ in range(_PROBE_COUNT)]
    dtype = field_dtype(field)
    out = tuple(unit_columns(np.stack(v, axis=1).astype(dtype)) for v in (probes, sweep))
    for bases in out:
        bases.setflags(write=False)
    return out


def _ask(oracle, lines: np.ndarray, size: int, field: str) -> np.ndarray:
    """The stacked oracle's image columns of the ``(n, P)`` line bases
    ``lines``, asked for all ``size`` trials in one call.  Images of another
    shape, or complex images of real lines, raise ``DegenerateOracleError``."""
    stack = np.broadcast_to(lines, (size,) + lines.shape)
    images = oracle(stack)
    if np.shape(images) != stack.shape:
        raise DegenerateOracleError(
            f"oracle returned {np.shape(images)} images of {stack.shape} line bases"
        )
    if field == REAL and np.iscomplexobj(images):
        raise DegenerateOracleError("oracle returned complex images of real lines")
    return images


def _solve_two_term(w: np.ndarray, c1: np.ndarray, c2: np.ndarray, tol: float) -> tuple:
    """Coefficients ``(alpha, beta)`` of ``w = alpha c1 + beta c2`` for
    ``(..., n)`` stacks of vectors, each the minimum-norm least-squares
    solution that ``lstsq`` gives (singular values at most ``eps n`` times
    the largest dropped), and the mask of the equations whose residual is at
    most ``1e3 tol max(|w|, 1)``."""
    a = np.stack([c1, c2], axis=-1)
    u, s, vh = _finite_svd(a, compute_uv=True)
    kept = s > np.finfo(np.float64).eps * a.shape[-2] * s[..., :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    coeff = adjoint(vh) @ (inverse[..., None] * (adjoint(u) @ w[..., None]))
    residual = np.linalg.norm((a @ coeff)[..., 0] - w, axis=-1)
    fits = residual <= 1e3 * tol * np.maximum(np.linalg.norm(w, axis=-1), 1.0)
    return coeff[..., 0, 0], coeff[..., 1, 0], fits


def reconstruct_from_line_images_stack(
    oracle, size: int, ambient: int, field: str, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover ``size`` semilinear maps, each up to scale, from a stacked line
    oracle: trial k from the oracle's action on lines under hidden map k.

    The oracle is asked twice.  The first call takes the probe lines: the
    coordinate lines give the matrix columns, the lines through e_1 + e_k
    the relative column scales, and over the complex field e_1 + i e_2 the
    automorphism.  The second takes a sweep of 50 deterministic random
    lines, which guards against oracles that only pretend to be semilinear
    on the probe set: a trial is refused when some sweep image lies farther
    than ``tol`` from the candidate's (``|y - x (x^H y)|``, as
    ``Subspace.equals`` measures it).

    Returns the ``(size, n, n)`` recovered matrices, their ``(size,)``
    conjugation flags, and the ``(size,)`` mask of refused trials: those
    whose candidate is singular at ``tol`` (one SVD for the stack) or fails
    the sweep.  A probe image that no invertible map produces, outside the
    span the other probes fix or missing a column, raises
    ``DegenerateOracleError``, as do images of another shape than the lines
    asked and complex images of real lines.  A ``size`` that is no non-negative integer,
    or an ``ambient`` that is no integer of at least 2, raises ``ValueError``
    before the oracle is asked.
    """
    if not _number(size, Integral) or size < 0:
        raise ValueError(f"size must be a non-negative integer, got {size!r}")
    if not _number(ambient, Integral) or ambient < 2:
        raise ValueError(f"ambient must be an integer >= 2, got {ambient!r}")
    require_tol(tol)
    n = ambient
    probes, sweep = _probe_lines(n, field)
    # the image of probe p of trial k is row p of images[k]
    images = _ask(oracle, probes, size, field).swapaxes(1, 2)
    columns, diagonals = images[:, :n], images[:, n : 2 * n - 1]
    first = np.broadcast_to(columns[:, :1], diagonals.shape)
    alpha, beta, fits = _solve_two_term(diagonals, first, columns[:, 1:], tol)
    if not fits.all():
        raise DegenerateOracleError("the image of a diagonal probe escapes its column span")
    if ((np.abs(alpha) <= tol) | (np.abs(beta) <= tol)).any():
        raise DegenerateOracleError("diagonal probe image misses a column")
    matrices = columns.swapaxes(1, 2).copy()
    matrices[:, :, 1:] *= (beta / alpha)[:, None, :]
    conj = np.zeros(size, dtype=bool)
    if field == COMPLEX:
        alpha, beta, fits = _solve_two_term(
            images[:, -1], matrices[:, :, 0], matrices[:, :, 1], tol
        )
        if not fits.all():
            raise DegenerateOracleError("imaginary probe image escapes the column span")
        if (np.abs(alpha) <= tol).any():
            raise DegenerateOracleError("imaginary probe image misses the first column")
        ratio = beta / alpha
        conj = np.abs(ratio - 1j) > np.abs(ratio + 1j)
    refused = ~_full_rank(matrices, tol)
    kept = np.flatnonzero(~refused)
    if kept.size:
        expected = _ask(oracle, sweep, size, field)[kept]
        got = unit_columns(apply_tagged_stack(matrices[kept], conj[kept], sweep), tol)
        overlap = np.sum(got.conj() * expected, axis=1, keepdims=True)
        distance = np.linalg.norm(expected - got * overlap, axis=1)
        # written so that a NaN distance refuses the trial
        refused[kept] = ~(distance <= tol).all(axis=-1)
    return matrices, conj, refused


def induced_line_map_stack(matrices: np.ndarray, conj: np.ndarray):
    """The stacked line oracle of the ``(B, n, n)`` maps ``matrices`` with
    conjugation flags ``conj``: ``(B, n, P)`` line bases to the unit columns
    of their images.  A flag array of another length than the stack raises
    ``ShapeMismatchError``."""
    _one_each(matrices, conj, "conjugation flags")

    def oracle(lines: np.ndarray) -> np.ndarray:
        return unit_columns(apply_tagged_stack(matrices, conj, lines))

    return oracle


def cubic_line_distortion_stack(eps: float, tol: float = DEFAULT_TOL):
    """A line self-map that is scaling-gauge-invariant but not semilinear:
    ``(..., n, P)`` line bases to the unit columns of their distorted lines,
    each column warped on its own.

    Each column is normalized, its first entry above ``10 tol`` in modulus
    (the pivot) made real positive by dividing out its phase, every entry
    boosted to v_k (1 + eps |v_k|^2), and the result re-spanned.  At eps = 0
    this is the identity on lines.  Coordinate lines and equal-magnitude
    diagonal lines are fixed, so the distortion slips past columnwise probes
    and only genuinely random lines, such as the reconstruction sweep's,
    catch it.

    A NaN or infinite entry raises ``NonFiniteError``; a column whose norm
    is at most ``tol``, or that has no pivot, raises ``DegenerateOracleError``.
    """
    require_tol(tol)

    def distort(lines: np.ndarray) -> np.ndarray:
        try:
            v = unit_columns(lines, tol)
        except ZeroInputError as exc:
            raise DegenerateOracleError("a line column is numerically zero") from exc
        large = np.abs(v) > 10.0 * tol
        if not large.any(axis=-2).all():
            raise DegenerateOracleError("zero representative")
        pivot = np.take_along_axis(v, large.argmax(axis=-2)[..., None, :], axis=-2)
        v = v / (pivot / np.abs(pivot))
        return unit_columns(v * (1.0 + eps * np.abs(v) ** 2))

    return distort
