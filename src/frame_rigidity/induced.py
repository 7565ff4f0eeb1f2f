"""Semilinear maps and the transformations they induce on subspaces and frames.

A semilinear map is an invertible matrix together with a field automorphism
tag (identity or conjugation).  Beyond the pointwise action this module
provides: scale-equivalence (the "same map up to a global scalar" relation),
the transform that moves eversion past an induced map (the contragredient
``inv(T)^H``, which is U P^{-1} for the polar factors T = U P), and the
reconstruction of a hidden map from its action on lines alone.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    DegenerateOracleError,
    FieldMismatchError,
    NonFiniteError,
    NotSemilinearError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .frames import FrameTuple, _frame, span_components
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    adjoint,
    as_matrix,
    conditioned_gaussian_stack,
    field_of,
    gaussian,
    haar,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
    unit_columns,
)
from .partitions import IntPartition
from .subspaces import Subspace

IDENTITY = "id"
CONJUGATION = "conj"

# deterministic probe stream for reconstruction verification, and its length
_PROBE_SEED = 0x1D6A
_PROBE_COUNT = 50


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or of every matrix in a stack; an SVD that
    fails on a NaN or infinite entry raises ``NonFiniteError``."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError("matrix has non-finite entries") from exc


def _require_invertible(s: np.ndarray, tol: float) -> None:
    """Refuse the matrices whose singular values, descending along the last
    axis of ``s``, show a NaN or infinite entry or a matrix singular at
    ``tol``."""
    if s.shape[-1] == 0:
        raise SingularMatrixError("matrix is singular at the working tolerance")
    # false for a NaN or infinite largest singular value too
    if not (s[..., -1] > tol * s[..., 0]).all():
        if not np.isfinite(s[..., 0]).all():
            raise NonFiniteError("matrix has non-finite entries")
        raise SingularMatrixError("matrix is singular at the working tolerance")


class SemilinearMap:
    """Invertible square matrix with an automorphism tag.

    Conjugation is only meaningful over the complex field; real-tagged
    matrices must carry the identity automorphism.  A matrix with a NaN or
    infinite entry raises ``NonFiniteError``.
    """

    __slots__ = ("matrix", "automorphism")

    def __init__(self, matrix, automorphism: str = IDENTITY, tol: float = DEFAULT_TOL):
        m = as_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatchError(f"matrix must be square, got {m.shape}")
        _require_invertible(_singular_values(m), tol)
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

    def apply_to_vector(self, v: np.ndarray) -> np.ndarray:
        if self.automorphism == CONJUGATION:
            v = np.conj(v)
        return self.matrix @ v

    def to_json(self) -> dict:
        return {"automorphism": self.automorphism, "matrix": matrix_to_json(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict, tol: float = DEFAULT_TOL) -> "SemilinearMap":
        entries = matrix_from_json(obj["matrix"])
        if obj["automorphism"] == IDENTITY and np.all(entries.imag == 0.0):
            entries = entries.real
        return cls(entries, obj["automorphism"], tol)


def apply_to_subspace(t: SemilinearMap, a: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Image subspace: conjugate the basis if the tag says so, multiply,
    re-span.  Dimension is preserved since the map is invertible.

    A real subspace fed to a complex map is promoted along the standard
    embedding; a complex subspace cannot be pushed through a real-tagged map.
    """
    if t.ambient != a.ambient:
        raise AmbientMismatchError(f"map on {t.ambient} dims, subspace in {a.ambient}")
    if a.field == COMPLEX and t.field == REAL:
        raise FieldMismatchError("complex subspace under a real-tagged map")
    basis = a.basis.astype(np.complex128) if t.field == COMPLEX else a.basis
    if a.dim == 0:
        return Subspace.zero(a.ambient, t.field)
    image = t.apply_to_vector(basis)
    return Subspace.from_columns(image, tol)


def is_unitary_up_to_scale(t: SemilinearMap, tol: float = DEFAULT_TOL) -> bool:
    gram = adjoint(t.matrix) @ t.matrix
    lam = np.trace(gram).real / t.ambient
    return spectral_norm(gram - lam * np.eye(t.ambient)) <= 10.0 * tol * abs(lam)


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

    One product ``M @ conj?(A)`` for the whole stack, then every component
    re-spanned at ``tol`` (:func:`frames.span_components`).  A real frame
    under complex maps is promoted along the standard embedding.
    """
    if matrices.shape != bases.shape:
        raise AmbientMismatchError(f"maps {matrices.shape} do not fit frames {bases.shape}")
    if np.iscomplexobj(bases) and not np.iscomplexobj(matrices):
        raise FieldMismatchError("complex subspace under a real-tagged map")
    if conj.any():
        bases = np.where(conj[:, None, None], bases.conj(), bases)
    return span_components(matrices @ bases, shapes, tol)


def induced_on_frame(t: SemilinearMap, frame: FrameTuple, tol: float = DEFAULT_TOL) -> FrameTuple:
    """Componentwise image frame; the batch of one of
    :func:`induced_on_frame_stack`.

    The orthogonal flag survives only when the map is unitary up to scale;
    otherwise images of perpendicular components need not stay perpendicular.
    """
    if t.ambient != frame.ambient:
        raise AmbientMismatchError(f"map on {t.ambient} dims, frame in {frame.ambient}")
    shape = frame.shape
    conj = np.array([t.automorphism == CONJUGATION])
    basis = induced_on_frame_stack(
        t.matrix[None], conj, frame.stacked_basis()[None], [shape], tol
    )[0]
    keep_flag = frame.orthogonal and is_unitary_up_to_scale(t, tol)
    return _frame(basis, shape, keep_flag)


def scale_equivalent(t1: SemilinearMap, t2: SemilinearMap, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two maps agree up to one global nonzero scalar.

    The scalar estimate comes from the largest-magnitude entry of the second
    matrix (avoiding division by near-zeros), then the whole matrix is
    verified entrywise.
    """
    if t1.automorphism != t2.automorphism:
        return False
    if t1.ambient != t2.ambient:
        return False
    m1, m2 = np.asarray(t1.matrix), np.asarray(t2.matrix)
    flat = np.argmax(np.abs(m2))
    i, j = np.unravel_index(flat, m2.shape)
    if abs(m2[i, j]) == 0.0:
        return False
    lam = m1[i, j] / m2[i, j]
    if abs(lam) <= tol:
        return False
    scale = max(np.max(np.abs(m1)), abs(lam) * np.max(np.abs(m2)))
    return float(np.max(np.abs(m1 - lam * m2))) <= tol * scale


def evert_conjugate_stack(matrices: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stacked :func:`evert_conjugate`: the contragredients ``inv(T)^H`` of a
    ``(B, n, n)`` stack of invertible matrices, from one ``inv``.

    Every contragredient is checked finite and invertible at ``tol`` as
    :class:`SemilinearMap` checks a matrix, with one SVD for the stack:
    ``NonFiniteError`` or ``SingularMatrixError`` otherwise.
    """
    try:
        out = adjoint(np.linalg.inv(matrices))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular; it has no contragredient") from exc
    _require_invertible(_singular_values(out), tol)
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
    ambient: int,
    field: str,
    rngs: Sequence[np.random.Generator],
    max_condition: float = 1e3,
) -> np.ndarray:
    """Stacked :func:`random_semilinear`: the ``(B, n, n)`` matrices of one map
    per generator, each drawn from its own generator as
    :func:`random_semilinear` draws it.

    The condition cap is checked on the whole stack at once, with redraws
    only for the rejected matrices, and the accepted singular values are
    checked as :class:`SemilinearMap` checks a matrix.
    """
    g, s = conditioned_gaussian_stack(
        rngs, ambient, field, lambda s: s[:, 0] <= max_condition * s[:, -1]
    )
    _require_invertible(s, DEFAULT_TOL)
    return g


def random_semilinear(
    ambient: int,
    field: str,
    rng: np.random.Generator,
    automorphism: str = IDENTITY,
    max_condition: float = 1e3,
) -> SemilinearMap:
    """Random invertible map with condition number at most ``max_condition``;
    the batch of one of :func:`random_semilinear_stack`."""
    if field == REAL and automorphism != IDENTITY:
        raise ValueError("real maps carry the identity automorphism")
    matrix = random_semilinear_stack(ambient, field, [rng], max_condition)[0]
    return SemilinearMap._invertible(matrix, automorphism)


def random_unitary_map(
    ambient: int, field: str, rng: np.random.Generator, automorphism: str = IDENTITY
) -> SemilinearMap:
    if field != COMPLEX and automorphism != IDENTITY:
        raise ValueError("real maps carry the identity automorphism")
    return SemilinearMap(haar(rng, (ambient, ambient), field), automorphism)


# -- reconstruction from the action on lines ------------------------------------


def _line(ambient: int, vector: np.ndarray, field: str) -> Subspace:
    v = vector.astype(np.complex128 if field == COMPLEX else np.float64)
    return Subspace.from_columns(v.reshape(ambient, 1))


@functools.lru_cache(maxsize=64)
def _sweep_probes(ambient: int, field: str) -> tuple[tuple[Subspace, ...], np.ndarray]:
    """The verification sweep's deterministic random lines, and their bases
    side by side as one matrix."""
    probe_rng = np.random.default_rng(_PROBE_SEED)
    lines = tuple(
        _line(ambient, gaussian(probe_rng, (ambient,), field), field)
        for _ in range(_PROBE_COUNT)
    )
    bases = np.hstack([line.basis for line in lines])
    bases.setflags(write=False)
    return lines, bases


def _probe(oracle, ambient: int, vector: np.ndarray, field: str) -> np.ndarray:
    image = oracle(_line(ambient, vector, field))
    if not isinstance(image, Subspace) or image.dim != 1 or image.ambient != ambient:
        raise DegenerateOracleError("probe image is not a line of the same space")
    return image.basis[:, 0]


def _solve_two_term(w: np.ndarray, c1: np.ndarray, c2: np.ndarray, tol: float):
    """Coefficients (alpha, beta) with w = alpha c1 + beta c2, or None."""
    stacked = np.column_stack([c1, c2])
    coeff, *_ = np.linalg.lstsq(stacked, w, rcond=None)
    residual = np.linalg.norm(stacked @ coeff - w)
    if residual > 1e3 * tol * max(np.linalg.norm(w), 1.0):
        return None
    return coeff[0], coeff[1]


def reconstruct_from_line_images(
    oracle, ambient: int, field: str, tol: float = DEFAULT_TOL
) -> SemilinearMap:
    """Recover a semilinear map (up to scale) from its action on lines.

    Probes the coordinate lines for the matrix columns, the lines through
    e_1 + e_k for the relative column scales, and e_1 + i e_2 for the
    automorphism; a final sweep of 50 deterministic random lines guards
    against oracles that only pretend to be semilinear on the probe set.  The
    candidate's images of the sweep lines come from one product; the oracle
    is asked about them one at a time, in order, up to the first deviation.
    """
    if ambient < 2:
        raise ValueError("need ambient dimension at least 2")
    eye = np.eye(ambient)
    columns = [_probe(oracle, ambient, eye[:, k], field) for k in range(ambient)]
    matrix = np.zeros(
        (ambient, ambient), dtype=np.complex128 if field == COMPLEX else np.float64
    )
    matrix[:, 0] = columns[0]
    for k in range(1, ambient):
        w = _probe(oracle, ambient, eye[:, 0] + eye[:, k], field)
        coeffs = _solve_two_term(w, columns[0], columns[k], tol)
        if coeffs is None:
            raise DegenerateOracleError(
                f"image of the diagonal probe 1..{k + 1} escapes the column span"
            )
        alpha, beta = coeffs
        if abs(alpha) <= tol or abs(beta) <= tol:
            raise DegenerateOracleError("diagonal probe image misses a column")
        matrix[:, k] = (beta / alpha) * columns[k]
    automorphism = IDENTITY
    if field == COMPLEX:
        w = _probe(oracle, ambient, eye[:, 0] + 1j * eye[:, 1], field)
        coeffs = _solve_two_term(w, matrix[:, 0], matrix[:, 1], tol)
        if coeffs is None:
            raise DegenerateOracleError("imaginary probe image escapes the column span")
        alpha, beta = coeffs
        if abs(alpha) <= tol:
            raise DegenerateOracleError("imaginary probe image misses the first column")
        ratio = beta / alpha
        automorphism = IDENTITY if abs(ratio - 1j) <= abs(ratio + 1j) else CONJUGATION
    try:
        candidate = SemilinearMap(matrix, automorphism, tol)
    except SingularMatrixError as exc:
        raise NotSemilinearError(
            "probe images are linearly dependent; no invertible map fits"
        ) from exc
    lines, probes = _sweep_probes(ambient, field)
    if automorphism == CONJUGATION:
        probes = probes.conj()
    images = unit_columns(candidate.matrix @ probes, tol)
    for k, line in enumerate(lines):
        expected = oracle(line)
        if not Subspace(ambient, images[:, k : k + 1]).equals(expected, tol):
            raise NotSemilinearError("oracle deviates from every semilinear model")
    return candidate


def induced_line_map(t: SemilinearMap):
    """The oracle view of a map: its action on lines only."""

    def oracle(line: Subspace) -> Subspace:
        return apply_to_subspace(t, line)

    return oracle


def cubic_line_distortion(eps: float, tol: float = DEFAULT_TOL):
    """A line self-map that is scaling-gauge-invariant but not semilinear.

    Each line picks its normalized representative (unit norm, first
    above-tolerance coordinate made real positive); every coordinate then
    gets the cubic boost v_k (1 + eps |v_k|^2).  At eps = 0 this is the
    identity on lines.  Coordinate lines and equal-magnitude diagonal lines
    are fixed, so the distortion slips past columnwise probes and must be
    caught by genuinely random ones.
    """

    def distort(line: Subspace) -> Subspace:
        if line.dim != 1:
            raise ShapeMismatchError("distortion acts on lines")
        v = line.basis[:, 0].copy()
        v = v / np.linalg.norm(v)
        pivot = None
        for k in range(v.shape[0]):
            if abs(v[k]) > 10.0 * tol:
                pivot = k
                break
        if pivot is None:
            raise DegenerateOracleError("zero representative")
        phase = v[pivot] / abs(v[pivot])
        v = v / phase
        w = v * (1.0 + eps * np.abs(v) ** 2)
        return Subspace.from_columns(w.reshape(-1, 1))

    return distort
