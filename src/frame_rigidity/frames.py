"""Frames: tuples of independent subspaces spanning the ambient space.

Covers the frame spaces (orthogonal and general), block-linkage of two
frames along a partition of the component indices, coarsening along a
refinement arrow, the symmetric-group action on equal-dimension components,
the block-intersection splitting relation, and eversion (the dual-frame
involution).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    FieldMismatchError,
    IllegalPermutationError,
    InconsistencyError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .linalg import DEFAULT_TOL, adjoint, gaussian, haar, spectral_norm
from .partitions import IntPartition, RefinementArrow, Tableau, is_legal_permutation
from .subspaces import Subspace

MAX_CONDITION = 1e6


class FrameTuple:
    """Ordered tuple of subspaces with weakly decreasing dimensions summing
    to the ambient dimension.

    The constructor performs structural checks only (ambient and field
    agreement, dimension profile); numerical soundness — actual linear
    independence, conditioning, orthogonality when flagged — is the job of
    :func:`validate`, so that defective frames can still be built and
    diagnosed.
    """

    __slots__ = ("ambient", "components", "orthogonal")

    def __init__(self, components: Sequence[Subspace], orthogonal: bool = False):
        components = tuple(components)
        if not components:
            raise ValueError("frame needs at least one component")
        ambient = components[0].ambient
        field = components[0].field
        for c in components:
            if c.ambient != ambient:
                raise AmbientMismatchError("components live in different ambients")
            if c.field != field:
                raise FieldMismatchError("components carry different field tags")
        dims = [c.dim for c in components]
        if any(d <= 0 for d in dims):
            raise ShapeMismatchError("zero-dimensional component")
        if any(dims[i] < dims[i + 1] for i in range(len(dims) - 1)):
            raise ShapeMismatchError("component dims must be weakly decreasing")
        if sum(dims) != ambient:
            raise ShapeMismatchError(
                f"component dims {dims} do not sum to ambient {ambient}"
            )
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "orthogonal", bool(orthogonal))

    def __setattr__(self, name, value):
        raise AttributeError("FrameTuple is immutable")

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __repr__(self):
        return (
            f"FrameTuple(ambient={self.ambient}, shape={self.shape.parts}, "
            f"orthogonal={self.orthogonal})"
        )

    @property
    def shape(self) -> IntPartition:
        return IntPartition(tuple(c.dim for c in self.components))

    @property
    def field(self) -> str:
        return self.components[0].field

    def stacked_basis(self) -> np.ndarray:
        """All component bases side by side; square by the dimension count."""
        return np.hstack([c.basis for c in self.components])

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient,
            "shape": list(self.shape.parts),
            "orthogonal": self.orthogonal,
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict, tol: float = DEFAULT_TOL) -> "FrameTuple":
        comps = [Subspace.from_json(c, tol) for c in obj["components"]]
        frame = cls(comps, bool(obj["orthogonal"]))
        if list(frame.shape.parts) != [int(p) for p in obj["shape"]]:
            raise ShapeMismatchError("declared shape does not match components")
        return frame


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: Optional[str] = None


def validate(t: FrameTuple, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Numerical soundness check; names the first violated condition."""
    m = t.stacked_basis()
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= tol * s[0]:
        return ValidationReport(False, "rank deficiency: components are dependent")
    if s[0] > MAX_CONDITION * s[-1]:
        return ValidationReport(False, "ill-conditioned: near-dependent components")
    if t.orthogonal:
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                cross = spectral_norm(adjoint(t.components[i].basis) @ t.components[j].basis)
                if cross > 10.0 * tol:
                    return ValidationReport(
                        False, f"orthogonality: components {i} and {j} overlap"
                    )
    return ValidationReport(True)


def _sum_components(components: Sequence[Subspace], ambient: int, field: str) -> Subspace:
    cols = [c.basis for c in components if c.dim > 0]
    if not cols:
        return Subspace.zero(ambient, field)
    return Subspace.from_columns(np.hstack(cols))


def pi_linked(a: FrameTuple, b: FrameTuple, pi: Tableau, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two frames agree blockwise along the partition ``pi``.

    ``pi`` partitions the component indices 1..s; the frames are linked when
    for every block the sums of the respective components coincide as
    subspaces.  For line frames this is the linkage relation on n symbols.
    """
    if a.ambient != b.ambient:
        raise AmbientMismatchError("frames live in different ambients")
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape.parts} vs {b.shape.parts}")
    if pi.n != len(a):
        raise ShapeMismatchError(
            f"partition of {pi.n} symbols cannot index {len(a)} components"
        )
    for block in pi.blocks:
        idx = sorted(block)
        sum_a = _sum_components([a.components[i - 1] for i in idx], a.ambient, a.field)
        sum_b = _sum_components([b.components[i - 1] for i in idx], b.ambient, b.field)
        if not sum_a.equals(sum_b, tol):
            return False
    return True


def refine_map(t: FrameTuple, arrow: RefinementArrow) -> FrameTuple:
    """Coarsen a frame along a refinement arrow.

    The arrow's fine tableau indexes the components of ``t`` in canonical
    block order (block j of size d stands for component j of dimension d);
    coarse component k is the sum of the components whose blocks map to k.
    """
    fine_sizes = [len(b) for b in arrow.fine.blocks]
    if fine_sizes != [c.dim for c in t.components]:
        raise ShapeMismatchError(
            f"fine block sizes {fine_sizes} do not match component dims"
        )
    coarse_components = []
    for k in range(len(arrow.coarse.blocks)):
        members = [t.components[j] for j, m in enumerate(arrow.block_map) if m == k]
        coarse_components.append(_sum_components(members, t.ambient, t.field))
    return FrameTuple(coarse_components, t.orthogonal)


def permute(t: FrameTuple, sigma: Sequence[int]) -> FrameTuple:
    """Reorder components by sigma (new index -> old index).

    Only permutations moving indices within runs of equal dimensions are
    allowed; anything else would break the weakly-decreasing profile.
    """
    sigma = tuple(int(i) for i in sigma)
    if not is_legal_permutation(t.shape, sigma):
        raise IllegalPermutationError(
            f"{sigma} moves indices across different dimensions"
        )
    return FrameTuple([t.components[i] for i in sigma], t.orthogonal)


def evert(t: FrameTuple) -> FrameTuple:
    """The dual frame: each component becomes the orthocomplement of the sum
    of all the others.  Involutive on valid frames, identity on orthogonal
    ones, and for line frames it produces the dual basis lines.

    With M the stacked basis, ``inv(M)^H`` is the dual basis: its block i is
    orthogonal to every block j != i of M, so it spans exactly that
    orthocomplement.

    Raises ``SingularMatrixError`` when the components are dependent or
    their bases hold non-finite entries.
    """
    try:
        dual = adjoint(np.linalg.inv(t.stacked_basis()))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("components are dependent; the frame has no dual") from exc
    if not np.all(np.isfinite(dual)):
        raise SingularMatrixError("the stacked basis has no finite inverse")
    new_components = []
    start = 0
    for c in t.components:
        new_components.append(Subspace.from_columns(dual[:, start : start + c.dim]))
        start += c.dim
    return FrameTuple(new_components, t.orthogonal)


def bigobot(a: FrameTuple, b: FrameTuple, tol: float = DEFAULT_TOL) -> bool:
    """Block-intersection splitting: every component of each frame is the
    sum of its intersections with the other frame's components.

    The relation is symmetric for genuinely independent frames; both
    directions are evaluated and a disagreement raises an inconsistency
    error rather than silently picking a side.  The directions read the same
    meets, each computed when first needed, so a direction stops at its
    first component that does not split.
    """
    if a.ambient != b.ambient:
        raise AmbientMismatchError("frames live in different ambients")

    @functools.cache
    def meet(i: int, j: int) -> Subspace:
        return a.components[i].intersect(b.components[j], tol)

    def splits(t: FrameTuple, pieces) -> bool:
        return all(
            _sum_components(pieces(k), t.ambient, t.field).equals(comp, tol)
            for k, comp in enumerate(t.components)
        )

    forward = splits(a, lambda i: [meet(i, j) for j in range(len(b))])
    backward = splits(b, lambda j: [meet(i, j) for i in range(len(a))])
    if forward != backward:
        raise InconsistencyError(
            "block-intersection relation is asymmetric at this tolerance"
        )
    return forward


def random_frame(
    ambient: int,
    shape: IntPartition,
    field: str,
    orthogonal: bool,
    rng: np.random.Generator,
) -> FrameTuple:
    """Random frame of the given shape.

    Orthogonal frames partition the columns of a Haar unitary (orthogonal)
    matrix.  General frames partition the columns of a Gaussian matrix,
    resampled until the smallest singular value exceeds 1e-3 of the largest,
    with each block orthonormalized; the conditioning floor keeps eversion
    and induced-map arithmetic well away from degeneracy.
    """
    if shape.n != ambient:
        raise ShapeMismatchError(f"shape {shape.parts} is not a partition of {ambient}")
    if orthogonal:
        m = haar(rng, (ambient, ambient), field)
    else:
        while True:
            m = gaussian(rng, (ambient, ambient), field)
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] > 1e-3 * s[0]:
                break
    components = []
    start = 0
    for d in shape.parts:
        block = m[:, start : start + d]
        if orthogonal:
            components.append(Subspace(ambient, block))
        else:
            components.append(Subspace.from_columns(block))
        start += d
    return FrameTuple(components, orthogonal)


def linked_partner(
    t: FrameTuple, pi: Tableau, rng: np.random.Generator
) -> FrameTuple:
    """Sample a frame linked to ``t`` along ``pi`` by remixing each block.

    Within every block the component sum is kept fixed while the individual
    components are redrawn from a unitary remix of the block span, so the
    result is linked to ``t`` along ``pi`` by construction (and generically
    along no strictly finer partition).
    """
    if pi.n != len(t):
        raise ShapeMismatchError(
            f"partition of {pi.n} symbols cannot index {len(t)} components"
        )
    new_components: list[Optional[Subspace]] = [None] * len(t)
    for block in pi.blocks:
        idx = sorted(block)
        span = _sum_components([t.components[i - 1] for i in idx], t.ambient, t.field)
        d = span.dim
        mix = haar(rng, (d, d), t.field)
        cols = span.basis @ mix
        start = 0
        for i in idx:
            di = t.components[i - 1].dim
            new_components[i - 1] = Subspace(t.ambient, cols[:, start : start + di])
            start += di
    return FrameTuple([c for c in new_components if c is not None], t.orthogonal)
