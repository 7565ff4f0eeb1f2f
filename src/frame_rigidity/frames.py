"""Frames: tuples of independent subspaces spanning the ambient space.

Covers the frame spaces (orthogonal and general), block-linkage of two
frames along a partition of the component indices, coarsening along a
refinement arrow, the symmetric-group action on equal-dimension components,
the block-intersection splitting relation, and eversion (the dual-frame
involution).
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    FieldMismatchError,
    IllegalPermutationError,
    InconsistencyError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroInputError,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    conditioned_gaussian_stack,
    field_of,
    gaussian,
    gaussian_stack,
    principal_angles,
    require_same_field,
    require_tol,
    residual_norms,
    span_stack,
    unit_columns,
)
from .partitions import IntPartition, RefinementArrow, Tableau, is_legal_permutation
from .subspaces import Subspace

# general sampled frames have their smallest singular value above this share
# of the largest, which keeps eversion and induced-map arithmetic well away
# from degeneracy
_CONDITION_FLOOR = 1e-3


class FrameTuple:
    """Ordered tuple of subspaces with weakly decreasing dimensions summing
    to the ambient dimension.

    The constructor performs structural checks only (ambient and field
    agreement, dimension profile); numerical soundness — actual linear
    independence, orthogonality when flagged — is not checked, so defective
    frames can still be built, and the operations that need an independent
    frame (:func:`evert`, say) refuse a dependent one.
    """

    __slots__ = ("ambient", "components", "orthogonal", "_stacked", "_shape")

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
        object.__setattr__(self, "_stacked", None)
        object.__setattr__(self, "_shape", None)

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
        """The component dimensions, built on first access and kept."""
        if self._shape is None:
            shape = IntPartition(tuple(c.dim for c in self.components))
            object.__setattr__(self, "_shape", shape)
        return self._shape

    @property
    def field(self) -> str:
        return self.components[0].field

    def stacked_basis(self) -> np.ndarray:
        """All component bases side by side; square by the dimension count.

        Built once per frame, which is immutable, and read-only.
        """
        if self._stacked is None:
            m = np.hstack([c.basis for c in self.components])
            m.setflags(write=False)
            object.__setattr__(self, "_stacked", m)
        return self._stacked

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


def _shaped(
    components: Sequence[Subspace],
    orthogonal: bool,
    shape: IntPartition,
    stacked: np.ndarray | None = None,
) -> FrameTuple:
    """The frame of these components, which are known to make a frame of
    ``shape`` (a frame's components legally permuted, or the column blocks of
    one stacked basis), built without the constructor's checks; the shape,
    and ``stacked`` as the stacked basis, are kept rather than rebuilt."""
    frame = object.__new__(FrameTuple)
    object.__setattr__(frame, "ambient", components[0].ambient)
    object.__setattr__(frame, "components", tuple(components))
    object.__setattr__(frame, "orthogonal", bool(orthogonal))
    object.__setattr__(frame, "_stacked", stacked)
    object.__setattr__(frame, "_shape", shape)
    return frame


def _frame(basis: np.ndarray, shape: IntPartition, orthogonal: bool) -> FrameTuple:
    """The frame whose components are the column blocks of the square
    ``basis`` along ``shape``, which are trusted to be orthonormal.

    ``basis`` is taken over, not copied: it is made read-only and kept as the
    stacked basis, and the components keep read-only views of its blocks, so
    the caller must hand over an array that nothing else writes to.
    """
    n = basis.shape[0]
    if shape.n != n or basis.shape != (n, n):
        raise ShapeMismatchError(f"shape {shape.parts} does not fit a {basis.shape} basis")
    basis.setflags(write=False)
    components = [Subspace._view(n, basis[:, sl]) for sl in _column_blocks(shape)]
    return _shaped(components, orthogonal, shape, basis)


@functools.lru_cache(maxsize=256)
def _column_blocks(shape: IntPartition) -> tuple[slice, ...]:
    """The columns of each component in a stacked basis of this shape."""
    blocks, start = [], 0
    for d in shape.parts:
        blocks.append(slice(start, start + d))
        start += d
    return tuple(blocks)


def _blocks_by_size(shape: IntPartition, pis: Sequence[Tableau], n: int) -> dict:
    """``{k: (trials, columns)}``: every block of every trial's tableau, in
    trial and then block order, grouped by its column count ``k``; the
    columns of a block are those of its components in a stacked basis of
    width ``n``, which ``shape`` must partition."""
    _require_partitions([shape], n)
    components = [range(sl.start, sl.stop) for sl in _column_blocks(shape)]
    groups: dict[int, tuple[list, list]] = {}
    for trial, pi in enumerate(pis):
        if pi.n != len(components):
            raise ShapeMismatchError(
                f"partition of {pi.n} symbols cannot index {len(components)} components"
            )
        for block in pi.blocks:
            cols = [c for i in sorted(block) for c in components[i - 1]]
            trials, columns = groups.setdefault(len(cols), ([], []))
            trials.append(trial)
            columns.append(cols)
    return groups


def _gather(stack: np.ndarray, trials: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Columns ``columns[p]`` of frame ``trials[p]``, as a ``(P, n, k)`` stack."""
    return stack[trials[:, None], :, columns].swapaxes(1, 2)


def _require_partitions(shapes: Sequence[IntPartition], n: int) -> None:
    """Raise ``ShapeMismatchError`` unless every shape is a partition of ``n``."""
    # each distinct shape object once; a chunk shares a few of them
    for shape in {id(s): s for s in shapes}.values():
        if shape.n != n:
            raise ShapeMismatchError(f"shape {shape.parts} is not a partition of {n}")


def _component_table(shapes: Sequence[IntPartition], n: int) -> tuple[np.ndarray, ...]:
    """``(trials, starts, dims)``: the basis, first column and dimension of
    every component of the stacked bases of width ``n``, basis k of shape
    ``shapes[k]``, as ``(P,)`` arrays in trial and then component order.

    Raises ``ShapeMismatchError`` unless every shape partitions ``n``.
    """
    _require_partitions(shapes, n)
    dims = np.fromiter(itertools.chain.from_iterable(s.parts for s in shapes), np.intp)
    # every basis has n columns, so the bases lie side by side
    return (*np.divmod(np.cumsum(dims) - dims, n), dims)


def _components_by_size(shapes: Sequence[IntPartition], n: int) -> dict:
    """``{d: (trials, columns)}``: every ``d``-dimensional component of every
    stacked basis of width ``n``, basis k of shape ``shapes[k]``, as a
    ``(P,)`` array of trials and a ``(P, d)`` array of the component's
    columns, in trial and then component order."""
    trials, starts, dims = _component_table(shapes, n)
    # a stable sort keeps each dimension's components in trial order
    order = np.argsort(dims, kind="stable")
    trials, starts = trials[order], starts[order]
    groups, lo = {}, 0
    for d, count in enumerate(np.bincount(dims).tolist()):
        if count:
            groups[d] = (trials[lo : lo + count], starts[lo : lo + count, None] + np.arange(d))
            lo += count
    return groups


def _in_slots(n: int, starts: np.ndarray, widths) -> np.ndarray:
    """``(P, 1, n)`` masks of the columns ``starts[p]`` to ``starts[p] +
    widths[p] - 1``."""
    cols = np.arange(n)
    return ((cols >= starts[:, None]) & (cols < (starts + widths)[:, None]))[:, None, :]


def span_components(
    m: np.ndarray, shapes: Sequence[IntPartition], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal component bases for a ``(B, n, n)`` stack of stacked bases,
    basis k of shape ``shapes[k]`` (a list or tuple).

    Every column block is re-spanned at ``tol`` as ``Subspace.from_columns``
    spans it.  The components of one dimension are spanned in one stack
    across all bases (the lines by one column normalization): under one
    shape each run of them is a slice of the stack, under mixed shapes they
    are gathered.  Either way a row of the result does not depend on the
    other rows, bit for bit.

    Raises ``ShapeMismatchError`` when a shape does not partition the basis
    width, or when a component spans fewer dimensions than it has, a
    numerically zero line included, since the result would be no frame; a
    NaN or infinite entry raises ``NonFiniteError``.
    """
    if len(shapes) != len(m):
        raise ShapeMismatchError(f"{len(shapes)} shapes for {len(m)} stacked bases")
    require_tol(tol)
    out = np.empty_like(m)
    n = m.shape[-1]
    if shapes.count(shapes[0]) == len(shapes):
        _require_partitions(shapes[:1], n)
        start = 0
        for d, run in itertools.groupby(shapes[0].parts):
            stop = start + d * len(list(run))
            out[:, :, start:stop] = _span_run(m[:, :, start:stop], d, tol)
            start = stop
        return out
    for d, (t, c) in _components_by_size(shapes, n).items():
        out[t[:, None], :, c] = _span_run(_gather(m, t, c), d, tol).swapaxes(1, 2)
    return out


def _span_run(cols: np.ndarray, d: int, tol: float) -> np.ndarray:
    """Orthonormal bases for side-by-side ``d``-dimensional components of a
    ``(B, n, count * d)`` stack, spanned in one stack of ``B * count``."""
    if d == 1:
        try:
            return unit_columns(cols, tol)
        except ZeroInputError as exc:
            raise ShapeMismatchError("a line component is numerically zero") from exc
    b, n, width = cols.shape
    count = width // d
    if count > 1:
        cols = cols.reshape(b, n, count, d).swapaxes(1, 2).reshape(b * count, n, d)
    u, rank = span_stack(cols, tol)
    if rank.min() < d:
        raise ShapeMismatchError(f"a {d}-dimensional component lost rank")
    if count > 1:
        u = u.reshape(b, count, n, d).swapaxes(1, 2).reshape(b, n, width)
    return u


def pi_linked_stack(
    a: np.ndarray,
    b: np.ndarray,
    shape: IntPartition,
    pis: Sequence[Tableau],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Stacked :func:`pi_linked`: whether frame k of ``a`` and of ``b``, given
    as ``(B, n, n)`` stacked bases of one ``shape``, are linked along
    ``pis[k]``.

    The blocks of all trials are grouped by their column count, so each group
    takes one span of both sides' blocks and one residual norm for the whole
    stack; a trial's blocks of later groups are skipped once it is unlinked.
    A numerically zero block raises ``ZeroInputError``.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    require_same_field(a, b)
    require_tol(tol)
    linked = np.ones(len(pis), dtype=bool)
    for k, (trials, columns) in _blocks_by_size(shape, pis, a.shape[-1]).items():
        t, c = np.array(trials), np.array(columns)
        # a trial found unlinked at a block of an earlier size is done
        pending = linked[t]
        if not pending.all():
            if not pending.any():
                continue
            t, c = t[pending], c[pending]
        # both sides' blocks spanned in one stack
        q, rank = span_stack(np.concatenate([_gather(a, t, c), _gather(b, t, c)]))
        if rank.min() == 0:
            raise ZeroInputError("a block of a frame is numerically zero")
        qa, qb = q[: len(t)], q[len(t) :]
        rank_a, rank_b = rank[: len(t)], rank[len(t) :]
        # equal spans: the largest principal-angle sine is at most tol
        norms = residual_norms(qb, qa)
        linked[t[(rank_a != rank_b) | (norms > tol)]] = False
    return linked


def pi_linked(a: FrameTuple, b: FrameTuple, pi: Tableau, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two frames agree blockwise along the partition ``pi``.

    ``pi`` partitions the component indices 1..s; the frames are linked when
    for every block the sums of the respective components coincide as
    subspaces.  For line frames this is the linkage relation on n symbols.
    The batch of one of :func:`pi_linked_stack`.
    """
    if a.ambient != b.ambient:
        raise AmbientMismatchError("frames live in different ambients")
    shape = a.shape
    if shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {shape.parts} vs {b.shape.parts}")
    linked = pi_linked_stack(a.stacked_basis()[None], b.stacked_basis()[None], shape, [pi], tol)
    return bool(linked[0])


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
    coarse_components = [
        Subspace.from_columns(
            np.hstack([c.basis for c, m in zip(t.components, arrow.block_map) if m == k])
        )
        for k in range(len(arrow.coarse.blocks))
    ]
    return FrameTuple(coarse_components, t.orthogonal)


def permute(t: FrameTuple, sigma: Sequence[int]) -> FrameTuple:
    """Reorder components by sigma (new index -> old index).

    Only permutations moving indices within runs of equal dimensions are
    allowed; anything else would break the weakly-decreasing profile.
    """
    sigma = tuple(int(i) for i in sigma)
    shape = t.shape
    if not is_legal_permutation(shape, sigma):
        raise IllegalPermutationError(
            f"{sigma} moves indices across different dimensions"
        )
    return _shaped([t.components[i] for i in sigma], t.orthogonal, shape)


def evert_stack(bases: np.ndarray, shapes: Sequence[IntPartition]) -> np.ndarray:
    """Stacked :func:`evert`: the ``(B, n, n)`` stacked bases of the dual
    frames of the ``(B, n, n)`` stacked bases ``bases``, basis k of shape
    ``shapes[k]``.

    One ``inv`` for the whole stack, then every component re-spanned
    (:func:`span_components`).  Raises ``SingularMatrixError`` when the
    components of some frame are dependent at ``DEFAULT_TOL`` or its basis
    holds a non-finite entry.
    """
    try:
        dual = adjoint(np.linalg.inv(bases))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("components are dependent; the frame has no dual") from exc
    # the largest entry of inv(M) is within a factor n of 1 / sigma_min(M),
    # and M has orthonormal blocks, so sigma_max(M) is in [1, sqrt(n)]; the
    # comparison is false for a NaN or infinite entry too
    if not np.abs(dual).max() < 1.0 / DEFAULT_TOL:
        raise SingularMatrixError("components are dependent or not finite; the frame has no dual")
    return span_components(dual, shapes)


def evert(t: FrameTuple) -> FrameTuple:
    """The dual frame: each component becomes the orthocomplement of the sum
    of all the others.  Involutive on valid frames, identity on orthogonal
    ones, and for line frames it produces the dual basis lines.

    With M the stacked basis, ``inv(M)^H`` is the dual basis: its block i is
    orthogonal to every block j != i of M, so it spans exactly that
    orthocomplement.  The batch of one of :func:`evert_stack`.

    Raises ``SingularMatrixError`` when the components are dependent or
    their bases hold non-finite entries.
    """
    shape = t.shape
    return _frame(evert_stack(t.stacked_basis()[None], [shape])[0], shape, t.orthogonal)


def bigobot_stack(
    a: np.ndarray,
    b: np.ndarray,
    shapes_a: Sequence[IntPartition],
    shapes_b: Sequence[IntPartition],
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`bigobot`: ``(B,)`` masks of whether every component of
    frame k of the ``(B, n, n)`` stacked bases ``a``, of shape ``shapes_a[k]``,
    is the sum of its meets with the components of ``b[k]`` (forward), and
    the converse (backward).

    The meets of all pairs whose ``a`` component has one dimension take one
    principal-angle SVD, ``b`` padded with zero columns.  A component's sum
    holds each meet in the other component's column slots; all sums take one
    span (as ``Subspace.from_columns``) and one residual against their
    component (as ``Subspace.equals``).
    """
    if a.shape != b.shape:
        raise AmbientMismatchError(f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    require_same_field(a, b)
    require_tol(tol)
    size, n = len(a), a.shape[-1]
    ta, sa, da = _component_table(shapes_a, n)
    tb, sb, db = _component_table(shapes_b, n)
    # the dimension and table row of the component of b[k] at column c
    dim_b, row_b = np.zeros((2, size, n), dtype=np.intp)
    dim_b[tb, sb], row_b[tb, sb] = db, np.arange(len(tb))
    # forward sums, then backward ones
    sums = np.zeros((len(ta) + len(tb), n, n), dtype=a.dtype)
    for d in dict.fromkeys(da.tolist()):
        # each d-dimensional component of a, row i, against the component of
        # b at column j
        i, j = np.nonzero((da == d)[:, None] & (dim_b[ta] > 0))
        t, dj, slot = ta[i], dim_b[ta[i], j], sa[i, None] + np.arange(d)
        sines, vectors = principal_angles(_gather(a, t, slot), b[t] * _in_slots(n, j, dj))
        meets = vectors * (sines <= tol)[:, None, :]
        sums[len(ta) + row_b[t, j][:, None], :, slot] = meets.swapaxes(1, 2)
        # only the last min(d, dj) sines can lie below 1: they end the slot
        p, r = np.nonzero(np.arange(d) >= (d - dj)[:, None])
        sums[i[p], :, (j + dj - d)[p] + r] = meets[p, :, r]
    starts, dims = np.concatenate([sa, sb]), np.concatenate([da, db])
    components = np.concatenate([a[ta], b[tb]]) * _in_slots(n, starts, dims)
    q, rank = span_stack(sums)
    split = (rank == dims) & (residual_norms(components, q) <= tol)
    failed = np.bincount(np.concatenate([ta, tb + size])[~split], minlength=2 * size)
    return failed[:size] == 0, failed[size:] == 0


def bigobot(a: FrameTuple, b: FrameTuple, tol: float = DEFAULT_TOL) -> bool:
    """Block-intersection splitting: every component of each frame is the
    sum of its intersections with the other frame's components.  The batch
    of one of :func:`bigobot_stack`; the two directions agree on genuinely
    independent frames, and a disagreement raises ``InconsistencyError``.
    """
    forward, backward = bigobot_stack(
        a.stacked_basis()[None], b.stacked_basis()[None], [a.shape], [b.shape], tol
    )
    if forward[0] != backward[0]:
        raise InconsistencyError("block-intersection relation is asymmetric at this tolerance")
    return bool(forward[0])


def random_frame_stack(
    ambient: int,
    shapes: Sequence[IntPartition],
    field: str,
    orthogonal: bool,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Stacked :func:`random_frame`: the ``(B, n, n)`` stacked bases of one
    frame per generator, frame k of shape ``shapes[k]`` and drawn from
    ``rngs[k]`` exactly as :func:`random_frame` draws it.

    The conditioning floor of general frames is checked on the whole stack
    at once, and only the rejected draws are redrawn.
    """
    _require_partitions(shapes, ambient)
    if orthogonal:
        return np.linalg.qr(gaussian_stack(rngs, (ambient, ambient), field)).Q
    m, _ = conditioned_gaussian_stack(
        rngs, ambient, field, lambda s: s[:, -1] > _CONDITION_FLOOR * s[:, 0]
    )
    return span_components(m, shapes)


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
    and induced-map arithmetic well away from degeneracy.  The batch of one
    of :func:`random_frame_stack`.
    """
    basis = random_frame_stack(ambient, [shape], field, orthogonal, [rng])[0]
    return _frame(basis, shape, orthogonal)


def linked_partner_stack(
    bases: np.ndarray,
    shape: IntPartition,
    pis: Sequence[Tableau],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Stacked :func:`linked_partner`: a partner of frame k of the ``(B, n, n)``
    stacked bases, linked along ``pis[k]`` and drawn from ``rngs[k]``.

    Each generator draws its block remixes in its tableau's block order, as
    :func:`linked_partner` does; the blocks of all trials are then spanned and
    remixed in one stack per block dimension.  A numerically zero block
    raises ``ZeroInputError`` and one that lost rank ``ShapeMismatchError``.
    """
    field = field_of(bases)
    groups = _blocks_by_size(shape, pis, bases.shape[-1])
    # every generator draws its remixes in its own block order
    draws: dict[int, list] = {d: [] for d in groups}
    for pi, rng in zip(pis, rngs):
        for block in pi.blocks:
            d = sum(shape.parts[i - 1] for i in block)
            draws[d].append(gaussian(rng, (d, d), field))
    out = np.empty_like(bases)
    for d, (trials, columns) in groups.items():
        t, c = np.array(trials), np.array(columns)
        span, rank = span_stack(_gather(bases, t, c))
        if rank.min() == 0:
            raise ZeroInputError("a block of the frame is numerically zero")
        if rank.min() < d:
            raise ShapeMismatchError("a block of the frame lost rank; it has no partner")
        mixed = span @ np.linalg.qr(np.stack(draws[d])).Q
        out[t[:, None], :, c] = mixed.swapaxes(1, 2)
    return out


def linked_partner(
    t: FrameTuple, pi: Tableau, rng: np.random.Generator
) -> FrameTuple:
    """Sample a frame linked to ``t`` along ``pi`` by remixing each block.

    Within every block the component sum is kept fixed while the individual
    components are redrawn from a unitary remix of the block span, so the
    result is linked to ``t`` along ``pi`` by construction (and generically
    along no strictly finer partition).  The batch of one of
    :func:`linked_partner_stack`.
    """
    shape = t.shape
    basis = linked_partner_stack(t.stacked_basis()[None], shape, [pi], [rng])[0]
    return _frame(basis, shape, t.orthogonal)
