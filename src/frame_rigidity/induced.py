"""Semilinear maps and the transformations they induce on subspaces and frames.

A semilinear map is an invertible matrix together with a field automorphism
tag (identity or conjugation).  Beyond the pointwise action this module
provides: scale-equivalence (the "same map up to a global scalar" relation),
the plane-projection construction used to transport lines, the transform that
moves eversion past an induced map (the contragredient ``inv(T)^H``, which is
U P^{-1} for the polar factors T = U P), and the reconstruction of a hidden
map from its action on lines alone.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AmbientMismatchError,
    DegenerateConfigurationError,
    DegenerateOracleError,
    FieldMismatchError,
    NonFiniteError,
    NotSemilinearError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .frames import FrameTuple
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    adjoint,
    as_matrix,
    field_of,
    gaussian,
    haar,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)
from .subspaces import Subspace

IDENTITY = "id"
CONJUGATION = "conj"

# deterministic probe stream for reconstruction verification
_PROBE_SEED = 0x1D6A


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
        try:
            s = np.linalg.svd(m, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteError("matrix has non-finite entries") from exc
        if s.size and not np.isfinite(s[0]):
            raise NonFiniteError("matrix has non-finite entries")
        if s.size == 0 or s[-1] <= tol * s[0]:
            raise SingularMatrixError("matrix is singular at the working tolerance")
        if automorphism not in (IDENTITY, CONJUGATION):
            raise ValueError(f"unknown automorphism {automorphism!r}")
        if automorphism == CONJUGATION and field_of(m) == REAL:
            raise ValueError("a real matrix cannot carry the conjugation tag")
        m = np.array(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "automorphism", automorphism)

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


def induced_on_frame(t: SemilinearMap, frame: FrameTuple, tol: float = DEFAULT_TOL) -> FrameTuple:
    """Componentwise image frame.

    The orthogonal flag survives only when the map is unitary up to scale;
    otherwise images of perpendicular components need not stay perpendicular.
    """
    comps = [apply_to_subspace(t, c, tol) for c in frame.components]
    keep_flag = frame.orthogonal and is_unitary_up_to_scale(t, tol)
    return FrameTuple(comps, keep_flag)


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


def line_projection_construct(
    ell: Subspace, ell_prime: Subspace, plane: Subspace, tol: float = DEFAULT_TOL
) -> tuple[Subspace, Subspace]:
    """Transport a line toward a plane: returns (ell'', plane').

    plane' is spanned by ell' together with the plane's normal; ell'' is the
    meet of the two planes, which works out to the orthogonal projection of
    ell' onto the plane.  Only defined in ambient dimension 3, where every
    line off the normal determines the configuration uniquely.
    """
    if ell.ambient != 3:
        raise ValueError("construction is defined in ambient dimension 3 only")
    if ell.dim != 1 or ell_prime.dim != 1 or plane.dim != 2:
        raise ShapeMismatchError("need two lines and a plane")
    if not plane.contains(ell, tol * 10):
        raise ValueError("the line must lie inside the plane")
    normal = plane.orthocomplement()
    if ell_prime.equals(normal, tol * 10):
        raise DegenerateConfigurationError(
            "the moving line coincides with the plane's normal"
        )
    plane_prime = ell_prime.sum(normal, tol)
    ell_dd = plane.intersect(plane_prime, tol)
    return ell_dd, plane_prime


def evert_conjugate(t: SemilinearMap, tol: float = DEFAULT_TOL) -> SemilinearMap:
    """The map that plays t's role on the everted side: U P^{-1} for t = U P,
    which is the contragredient ``inv(t)^H``.

    Pushing a frame through this map and everting gives the same frame as
    everting first and pushing through t.
    """
    return SemilinearMap(adjoint(np.linalg.inv(t.matrix)), t.automorphism, tol)


def random_semilinear(
    ambient: int,
    field: str,
    rng: np.random.Generator,
    automorphism: str = IDENTITY,
    max_condition: float = 1e3,
) -> SemilinearMap:
    """Random invertible map with condition number at most ``max_condition``."""
    if field == REAL and automorphism != IDENTITY:
        raise ValueError("real maps carry the identity automorphism")
    while True:
        g = gaussian(rng, (ambient, ambient), field)
        s = np.linalg.svd(g, compute_uv=False)
        if s[0] <= max_condition * s[-1]:
            return SemilinearMap(g, automorphism)


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
    against oracles that only pretend to be semilinear on the probe set.
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
    probe_rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(50):
        v = gaussian(probe_rng, (ambient,), field)
        expected = oracle(_line(ambient, v, field))
        got = apply_to_subspace(candidate, _line(ambient, v, field), tol)
        if not got.equals(expected, tol):
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
