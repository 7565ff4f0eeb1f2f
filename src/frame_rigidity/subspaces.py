"""Points of the Grassmannian and their lattice arithmetic.

A ``Subspace`` is an ambient dimension together with an orthonormal basis,
stored column-wise.  Identity of a subspace is basis-independent: the meet,
equality, containment and the strip-the-meet commensurability route are all
read from the principal angles of one basis against the other
(:func:`linalg.principal_angles` and :func:`linalg.residual_norms`), and the
other commensurability route from the projector commutator; nothing compares
basis entries.  Both routes take two bases or two ``(B, n, k)`` stacks of
them, so the batched kernel runs the same two functions.

The zero subspace (a basis with no columns) is a first-class value: it is
what intersections return when they collapse, and it is the bottom element
that makes the lattice identities hold without special cases.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbientMismatchError
from .linalg import (
    DEFAULT_TOL,
    REAL,
    _finite_svd,
    _principal,
    adjoint,
    as_matrix,
    field_dtype,
    field_of,
    matrix_from_json,
    matrix_to_json,
    principal_angles,
    require_same_field,
    require_tol,
    residual_norms,
    span,
    spectral_norm,
)


class Subspace:
    """A linear subspace of k^n, k real or complex, held as an orthonormal basis.

    Instances are immutable.  Use :meth:`from_columns` to build one from an
    arbitrary spanning set; the plain constructor trusts its input to be
    orthonormal already.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: np.ndarray):
        if basis.ndim != 2 or basis.shape[0] != ambient:
            raise ValueError(f"basis must be {ambient} x d, got {basis.shape}")
        object.__setattr__(self, "ambient", int(ambient))
        b = np.array(basis)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def _view(cls, ambient: int, basis: np.ndarray) -> "Subspace":
        """The subspace on a read-only ``ambient x d`` orthonormal basis,
        kept as it is rather than copied."""
        s = object.__new__(cls)
        object.__setattr__(s, "ambient", ambient)
        object.__setattr__(s, "basis", basis)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim}, field={self.field!r})"

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def field(self) -> str:
        return field_of(self.basis)

    @classmethod
    def from_columns(cls, cols, tol: float = DEFAULT_TOL, field: str | None = None) -> "Subspace":
        """Span of the given columns at tolerance ``tol``.

        The basis is the left singular vectors of ``cols`` whose singular
        values exceed ``tol`` times the largest (see :func:`linalg.span`), so
        it is orthonormal but need not align with the input columns; a single
        column is only normalized.
        """
        m = as_matrix(cols, field)
        q, _ = span(m, tol)
        return cls(m.shape[0], q)

    @classmethod
    def zero(cls, ambient: int, field: str = REAL) -> "Subspace":
        return cls(ambient, np.zeros((ambient, 0), dtype=field_dtype(field)))

    @classmethod
    def full(cls, ambient: int, field: str = REAL) -> "Subspace":
        return cls(ambient, np.eye(ambient, dtype=field_dtype(field)))

    # -- lattice operations ------------------------------------------------

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (Hermitian idempotent)."""
        return self.basis @ adjoint(self.basis)

    def orthocomplement(self) -> "Subspace":
        """Orthogonal complement; dimensions add up to the ambient one.

        The trailing left singular vectors of one full SVD of the basis.
        Raises ``NonFiniteError`` when the basis holds NaN or infinite entries.
        """
        n, d = self.basis.shape
        if d == 0:
            return Subspace.full(n, self.field)
        u = _finite_svd(self.basis, compute_uv=True, full_matrices=True)[0]
        return Subspace(n, u[:, d:])

    def sum(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Smallest subspace containing both operands (the lattice join)."""
        self._check_compatible(other)
        require_tol(tol)
        stacked = np.hstack([self.basis, other.basis])
        if stacked.shape[1] == 0:
            return Subspace.zero(self.ambient, self.field)
        q, _ = span(stacked, tol)
        return Subspace(self.ambient, q)

    def intersect(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Lattice meet: the principal vectors of ``self`` whose angle to
        ``other`` has sine at most ``tol`` (:func:`linalg.principal_angles`,
        Bjorck-Golub 1973).
        """
        self._check_compatible(other)
        require_tol(tol)
        sines, vectors = principal_angles(self.basis, other.basis)
        return Subspace(self.ambient, vectors[:, sines <= tol])

    # -- relations ----------------------------------------------------------

    def contains(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """True when every vector of ``other`` lies in ``self`` within ``tol``:
        the sine of the largest principal angle of ``other`` against ``self``
        is at most ``tol``."""
        self._check_compatible(other)
        require_tol(tol)
        return other.dim <= self.dim and residual_norms(other.basis, self.basis) <= tol

    def equals(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Basis-independent equality: projector distance at most ``tol``.

        At equal dimensions the projector distance |P_a - P_b| is the sine of
        the largest principal angle (Bjorck-Golub 1973), which :meth:`contains`
        measures; at unequal ones it is 1.
        """
        self._check_compatible(other)
        require_tol(tol)
        return self.dim == other.dim and residual_norms(other.basis, self.basis) <= tol

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )
        require_same_field(self.basis, other.basis)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready dict: ambient, field, and the basis as [re, im] pairs per row."""
        return {
            "ambient": self.ambient,
            "field": self.field,
            "basis": matrix_to_json(self.basis),
        }

    @classmethod
    def from_json(cls, obj: dict, tol: float = DEFAULT_TOL) -> "Subspace":
        """Rebuild a subspace, re-spanning the basis and validating the rank.

        Rejects payloads whose declared column count is not the numerical
        rank of the given basis, and real-tagged payloads with nonzero
        imaginary parts.
        """
        require_tol(tol)
        ambient = int(obj["ambient"])
        field = obj["field"]
        field_dtype(field)  # refuses an unknown tag
        rows = obj["basis"]
        if len(rows) != ambient:
            raise ValueError("basis row count does not match ambient dimension")
        declared = len(rows[0]) if rows else 0
        if any(len(r) != declared for r in rows):
            raise ValueError("ragged basis rows")
        if declared == 0:
            return cls.zero(ambient, field)
        m = as_matrix(matrix_from_json(rows), field)
        q, rank = span(m, tol)
        if rank != declared:
            raise ValueError(f"declared dim {declared} but basis has rank {rank}")
        return cls(ambient, q)


# -- the commensurability relation, both characterizations ---------------------


def commutator_norms(qa: np.ndarray, qb: np.ndarray):
    """Route 1: the spectral norm of the commutator of the orthogonal
    projectors onto span ``Q_A`` and span ``Q_B``, for two orthonormal bases
    (a float) or for each pair of two ``(B, n, k)`` stacks (an array).
    The projectors are Hermitian, so ``P_B P_A`` is the adjoint of
    ``P_A P_B``."""
    product = (qa @ adjoint(qa)) @ (qb @ adjoint(qb))
    return spectral_norm(product - adjoint(product))


def remainder_norms(qa: np.ndarray, qb: np.ndarray, tol: float):
    """Route 2: ``|(P_A - P_C)(P_B - P_C)|`` for the meet C of span ``Q_A``
    and span ``Q_B`` at ``tol``, for two orthonormal bases or two stacks.

    The principal directions ``V_r`` of A at sine above ``tol`` map to the
    part of A orthogonal to C (:func:`linalg.principal_angles`), whose
    projector is ``P_A - P_C``.  So ``(P_A - P_C) P_C = 0`` and
    ``(P_A - P_C)(P_B - P_C) = (P_A - P_C) P_B``, whose norm is that of
    ``Q_B^H Q_A V_r = G V_r``, with ``G`` the product the angles came from.
    """
    g, sines, v = _principal(qa, qb)
    return spectral_norm(g @ (v * (sines > tol)[..., None, :]))


def commeasurable(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """Projector test: the two orthogonal projectors commute within 10*tol
    (:func:`commutator_norms`)."""
    a._check_compatible(b)
    require_tol(tol)
    return commutator_norms(a.basis, b.basis) <= 10.0 * tol


def commeasurable_via_complements(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """Lattice test: the parts of each operand beyond the meet are orthogonal
    within 10*tol (:func:`remainder_norms`).

    Kept deliberately independent of the projector-commutator route so the
    two can cross-check each other.
    """
    a._check_compatible(b)
    require_tol(tol)
    return remainder_norms(a.basis, b.basis, tol) <= 10.0 * tol
