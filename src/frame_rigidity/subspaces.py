"""Points of the Grassmannian and their lattice arithmetic.

A ``Subspace`` is an ambient dimension together with an orthonormal basis,
stored column-wise.  Identity of a subspace is basis-independent: equality,
containment and the commensurability relation are all decided through
orthogonal projectors or, equivalently, residuals of one basis against the
other, never by comparing basis entries.

The zero subspace (a basis with no columns) is a first-class value: it is
what intersections return when they collapse, and it is the bottom element
that makes the lattice identities hold without special cases.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbientMismatchError, NotContainedError
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    adjoint,
    as_matrix,
    field_of,
    haar,
    matrix_from_json,
    matrix_to_json,
    require_same_field,
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
        dtype = np.complex128 if field == COMPLEX else np.float64
        return cls(ambient, np.zeros((ambient, 0), dtype=dtype))

    @classmethod
    def full(cls, ambient: int, field: str = REAL) -> "Subspace":
        dtype = np.complex128 if field == COMPLEX else np.float64
        return cls(ambient, np.eye(ambient, dtype=dtype))

    # -- lattice operations ------------------------------------------------

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (Hermitian idempotent)."""
        return self.basis @ adjoint(self.basis)

    def orthocomplement(self) -> "Subspace":
        """Orthogonal complement; dimensions add up to the ambient one."""
        n, d = self.basis.shape
        if d == 0:
            return Subspace.full(n, self.field)
        if d == n:
            return Subspace.zero(n, self.field)
        q = np.linalg.qr(self.basis, mode="complete").Q
        return Subspace(n, q[:, d:])

    def sum(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Smallest subspace containing both operands (the lattice join)."""
        self._check_compatible(other)
        stacked = np.hstack([self.basis, other.basis])
        if stacked.shape[1] == 0:
            return Subspace.zero(self.ambient, self.field)
        q, _ = span(stacked, tol)
        return Subspace(self.ambient, q)

    def intersect(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Lattice meet, computed as the complement of the sum of complements.

        This route reuses the span kernel and keeps the complement-of-sum
        identity structurally exact, at the cost of a single rank decision
        inside the sum.
        """
        self._check_compatible(other)
        return self.orthocomplement().sum(other.orthocomplement(), tol).orthocomplement()

    def ominus(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Relative orthocomplement of ``other`` inside ``self``.

        Raises ``NotContainedError`` unless ``other`` is contained in
        ``self`` at the given tolerance.
        """
        self._check_compatible(other)
        if not self.contains(other, tol):
            raise NotContainedError("relative complement of a non-contained subspace")
        if self.dim == other.dim:
            return Subspace.zero(self.ambient, self.field)
        residual = self.basis - other.basis @ (adjoint(other.basis) @ self.basis)
        q, _ = span(residual, tol)
        return Subspace(self.ambient, q)

    # -- relations ----------------------------------------------------------

    def contains(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """True when every vector of ``other`` lies in ``self`` within ``tol``."""
        self._check_compatible(other)
        if other.dim == 0:
            return True
        if other.dim > self.dim:
            return False
        residual = other.basis - self.basis @ (adjoint(self.basis) @ other.basis)
        return spectral_norm(residual) <= tol

    def equals(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Basis-independent equality: projector distance at most ``tol``.

        For equal dimensions the projector distance |P_a - P_b| is the sine
        of the largest principal angle, which is the containment residual
        |B - A A^H B| (Bjorck-Golub 1973); that residual is what is measured.
        """
        if self.dim != other.dim:
            self._check_compatible(other)
            return False
        return self.contains(other, tol)

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
        ambient = int(obj["ambient"])
        field = obj["field"]
        if field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {field!r}")
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


def commutator_norm(a: Subspace, b: Subspace) -> float:
    """Spectral norm of the commutator of the two orthogonal projectors."""
    pa, pb = a.projector(), b.projector()
    return spectral_norm(pa @ pb - pb @ pa)


def commeasurable(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """Projector test: the two orthogonal projectors commute within 10*tol."""
    return commutator_norm(a, b) <= 10.0 * tol


def commeasurable_via_complements(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """Lattice test: the parts of each operand beyond the meet are orthogonal.

    Strips the intersection from both sides and checks the remainders for
    orthogonality (largest cosine of a principal angle at most 10*tol).
    Kept deliberately independent of the projector-commutator route so the
    two can cross-check each other.
    """
    c = a.intersect(b, tol)
    x = a.ominus(c, _containment_slack(tol))
    y = b.ominus(c, _containment_slack(tol))
    if x.dim == 0 or y.dim == 0:
        return True
    return spectral_norm(adjoint(x.basis) @ y.basis) <= 10.0 * tol


def _containment_slack(tol: float) -> float:
    # the computed meet sits inside each operand only up to one extra
    # orthonormalization, so the containment precheck gets a looser band
    return 100.0 * tol


def product_range(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Range of the product projector P_a P_b (equals the meet exactly when
    the operands are commeasurable)."""
    a._check_compatible(b)
    if b.dim == 0:
        return Subspace.zero(a.ambient, a.field)
    cols = a.basis @ (adjoint(a.basis) @ b.basis)
    if spectral_norm(cols) <= tol:
        return Subspace.zero(a.ambient, a.field)
    return Subspace.from_columns(cols, tol)


def random_subspace(ambient: int, dim: int, field: str, rng: np.random.Generator) -> Subspace:
    """Haar-distributed ``dim``-dimensional subspace of k^ambient.

    Orthonormalizes a Gaussian matrix; rotation invariance of the ensemble
    makes the distribution invariant under the unitary (orthogonal) group.
    """
    if not 1 <= dim <= ambient:
        raise ValueError("need 1 <= dim <= ambient")
    return Subspace(ambient, haar(rng, (ambient, dim), field))
