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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    FieldMismatchError,
    IllegalPermutationError,
    InconsistencyError,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroInputError,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    conditioned_gaussian_stack,
    field_of,
    gaussian_stack,
    principal_angles,
    require_same_field,
    require_tol,
    residual_norms,
    span_stack,
)
from .partitions import IntPartition, RefinementArrow, Tableau, is_legal_permutation
from .subspaces import Subspace

# general sampled frames have their smallest singular value above this share
# of the largest, which keeps eversion and induced-map arithmetic well away
# from degeneracy
_CONDITION_FLOOR = 1e-3


class FrameTuple:
    """Ordered tuple of subspaces with weakly decreasing dimensions summing
    to the ambient dimension, held as one square stacked basis cut into
    column blocks along its shape.

    The constructor stacks the components' bases and performs structural
    checks only (ambient and field agreement, dimension profile); numerical
    soundness — actual linear independence, orthogonality when flagged — is
    not checked, so defective frames can still be built, and the operations
    that need an independent frame (:func:`evert`, say) refuse a dependent
    one.  The components are read-only views of the column blocks, built on
    first read and kept.
    """

    __slots__ = ("_basis", "shape", "orthogonal", "_components")

    def __init__(self, components: Sequence[Subspace], orthogonal: bool = False):
        components = tuple(components)
        if not components:
            raise ValueError("frame needs at least one component")
        ambient, field = components[0].ambient, components[0].field
        for c in components:
            if c.ambient != ambient:
                raise AmbientMismatchError("components live in different ambients")
            if c.field != field:
                raise FieldMismatchError("components carry different field tags")
        try:
            shape = IntPartition(tuple(c.dim for c in components))
        except ValueError as exc:
            raise ShapeMismatchError(f"component dims: {exc}") from None
        self._hold(np.hstack([c.basis for c in components]), shape, orthogonal)

    def _hold(self, basis: np.ndarray, shape: IntPartition, orthogonal: bool) -> None:
        """Keep ``basis``, made read-only, cut along ``shape``, which must
        partition its width and its height."""
        n = basis.shape[0]
        if shape.n != n or basis.shape != (n, n):
            raise ShapeMismatchError(f"shape {shape.parts} does not fit a {basis.shape} basis")
        basis.setflags(write=False)
        for name, value in zip(self.__slots__, (basis, shape, bool(orthogonal), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FrameTuple is immutable")

    def __len__(self):
        return len(self.shape)

    def __iter__(self):
        return iter(self.components)

    def __repr__(self):
        return (
            f"FrameTuple(ambient={self.ambient}, shape={self.shape.parts}, "
            f"orthogonal={self.orthogonal})"
        )

    @property
    def ambient(self) -> int:
        return self._basis.shape[0]

    @property
    def field(self) -> str:
        return field_of(self._basis)

    @property
    def components(self) -> tuple[Subspace, ...]:
        """The column blocks of the stacked basis as read-only subspace
        views, built on first read and kept."""
        if self._components is None:
            parts = self.shape.parts
            views = tuple(
                Subspace._view(self.ambient, self._basis[:, end - d : end])
                for d, end in zip(parts, itertools.accumulate(parts))
            )
            object.__setattr__(self, "_components", views)
        return self._components

    def stacked_basis(self) -> np.ndarray:
        """All component bases side by side, square and read-only."""
        return self._basis

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


def _frame(basis: np.ndarray, shape: IntPartition, orthogonal: bool) -> FrameTuple:
    """The frame whose components are the column blocks of the square
    ``basis`` along ``shape``, which are trusted to be orthonormal; it is
    built without the constructor's checks on components.

    ``basis`` is taken over, not copied: it is made read-only and kept as the
    stacked basis, so the caller must hand over an array that nothing else
    writes to.
    """
    frame = object.__new__(FrameTuple)
    frame._hold(basis, shape, orthogonal)
    return frame


class _Layout(NamedTuple):
    """The components of ``(B, n, n)`` stacked bases, listed in trial and
    then component order.  Every array is read-only."""

    trials: np.ndarray  # (P,): the basis of each component
    starts: np.ndarray  # (P,): its first column
    sizes: np.ndarray  # (P,): its column count
    masks: np.ndarray  # (P, 1, n): its columns
    # (k, trials, index) per column count k, ascending: the (Q,) trials of the
    # components of k columns, in trial and then component order, and the
    # (Q, k, n) flat positions of their columns in a C-ordered (B, n, n) stack
    by_size: tuple
    labels: np.ndarray  # (B, n): the component of each column of each basis


# a chunk reads each of its layouts and masks several times (to draw, evert,
# coarsen and compare its frames) and uses at most three of either kind;
# batches of one ask for one layout per shape, and ambient 8 has 22 shapes
_LAYOUTS = 24


@functools.lru_cache(maxsize=_LAYOUTS)
def _component_layout(shapes: tuple[IntPartition, ...], n: int) -> _Layout:
    """The components of ``(B, n, n)`` stacked bases, basis k of shape
    ``shapes[k]``.  Raises ``ShapeMismatchError`` unless every shape
    partitions ``n``."""
    for shape in dict.fromkeys(shapes):
        if shape.n != n:
            raise ShapeMismatchError(f"shape {shape.parts} is not a partition of {n}")
    labels = [i for shape in shapes for i, d in enumerate(shape.parts) for _ in range(d)]
    size = len(shapes)
    labels = np.array(labels, dtype=np.intp).reshape(size, n)
    counts = labels.max(axis=1) + 1
    # one number per group of the stack, in trial and then group order
    group = (labels + (np.cumsum(counts) - counts)[:, None]).ravel()
    sizes = np.bincount(group)
    # every column of the stack by the size of its group, then by its group,
    # then ascending, as a flat index into the (B, n) columns
    order = np.argsort(sizes[group] * len(sizes) + group, kind="stable")
    trial_of, column_of = np.divmod(order, n)
    # the groups in that order, and where each one's first column lies in it
    ranked = np.argsort(sizes, kind="stable")
    starts = np.empty_like(sizes)
    starts[ranked] = column_of[np.cumsum(sizes[ranked]) - sizes[ranked]]
    trials = np.repeat(np.arange(size), counts)
    masks = (group.reshape(size, n)[trials] == np.arange(len(sizes))[:, None])[:, None, :]
    # the flat position of row 0 of each column in the (B, n, n) stack
    first = (trial_of * n * n + column_of)[:, None] + n * np.arange(n)
    by_size, lo = [], 0
    for k, count in enumerate(np.bincount(sizes).tolist()):
        if count:
            hi = lo + k * count
            by_size.append((k, trial_of[lo:hi:k], first[lo:hi].reshape(count, k, n)))
            lo = hi
    for array in (trials, starts, sizes, masks, labels, *(a for e in by_size for a in e[1:])):
        array.setflags(write=False)
    return _Layout(trials, starts, sizes, masks, tuple(by_size), labels)


@functools.lru_cache(maxsize=_LAYOUTS)
def _block_mask(shape: IntPartition, pis: tuple[Tableau, ...], n: int) -> np.ndarray:
    """The read-only ``(B, n, n)`` mask of the transition entries between
    stacked bases of one ``shape`` that frames linked along ``pis[k]`` allow:
    row and column in one block.  Raises ``ShapeMismatchError`` unless
    ``shape`` partitions ``n`` and every tableau partitions its components."""
    if shape.n != n:
        raise ShapeMismatchError(f"shape {shape.parts} is not a partition of {n}")
    s = len(shape.parts)
    for pi in pis:
        if pi.n != s:
            raise ShapeMismatchError(f"partition of {pi.n} symbols cannot index {s} components")
    # the block of each component of each trial, then of each column
    blocks = np.array([[pi.block_of(i) for i in range(1, s + 1)] for pi in pis], dtype=np.intp)
    labels = blocks.reshape(len(pis), s)[:, np.repeat(np.arange(s), shape.parts)]
    mask = labels[:, :, None] == labels[:, None, :]
    mask.setflags(write=False)
    return mask


def _one_each(stack: Sequence, items: Sequence, what: str) -> tuple:
    """``items`` as a tuple, one for each row of ``stack``: another count,
    which numpy would broadcast or truncate, raises ``ShapeMismatchError``."""
    if len(items) != len(stack):
        raise ShapeMismatchError(f"{len(items)} {what} for a stack of {len(stack)}")
    return tuple(items)


def _components_of(stack: np.ndarray, shapes: Sequence[IntPartition]) -> _Layout:
    """The component layout of the ``(B, n, n)`` stack, basis k of shape
    ``shapes[k]``: one shape per basis, each partitioning ``n``."""
    return _component_layout(_one_each(stack, shapes, "shapes"), stack.shape[-1])


def _gather(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The ``(Q, n, k)`` stack of the column groups at a layout's ``index``."""
    return np.take(stack, index).swapaxes(1, 2)


def span_components(
    m: np.ndarray, shapes: Sequence[IntPartition], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal component bases for a ``(B, n, n)`` stack of stacked bases,
    basis k of shape ``shapes[k]`` (a list or tuple).

    Every column block is re-spanned at ``tol`` as ``Subspace.from_columns``
    spans it.  The components of one dimension are gathered from all bases
    and spanned in one stack (the lines by one column normalization), and a
    row of the result does not depend on the other rows, bit for bit.

    Raises ``ShapeMismatchError`` when a shape does not partition the basis
    width, or when a component spans fewer dimensions than it has, a
    numerically zero line included, since the result would be no frame; a
    NaN or infinite entry raises ``NonFiniteError``.
    """
    layout = _components_of(m, shapes)
    # C-ordered, so the raveled view below writes into it
    out = np.empty(m.shape, m.dtype)
    for d, _, index in layout.by_size:
        u, rank = span_stack(_gather(m, index), tol)
        if rank.min() < d:
            raise ShapeMismatchError(f"a {d}-dimensional component lost rank")
        out.reshape(-1)[index] = u.swapaxes(1, 2)
    return out


def frame_distances(a: np.ndarray, b: np.ndarray, shapes: Sequence[IntPartition]) -> np.ndarray:
    """The largest projector distance ``|P_x - P_y|`` between matching
    components of the ``(B, n, n)`` stacked bases ``a[k]`` and ``b[k]``, both
    of shape ``shapes[k]``: the largest principal-angle sine.  All components
    of one dimension take one :func:`linalg.residual_norms`."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    out = np.zeros(len(a))
    for _, t, index in _components_of(a, shapes).by_size:
        np.maximum.at(out, t, residual_norms(_gather(b, index), _gather(a, index)))
    return out


def _transition(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The moduli of the entries of ``a^-1 b``, every matrix of the stack ``a``
    a basis.  An entry of ``1 / DEFAULT_TOL`` or more raises ``NonFiniteError``
    if ``a`` holds a NaN or infinite entry, ``ZeroInputError`` if it holds a
    numerically zero column, and ``SingularMatrixError`` otherwise."""
    try:
        size = np.abs(np.linalg.solve(a, b))
    except np.linalg.LinAlgError:
        size = np.array(np.inf)
    # false for a NaN entry too
    if not size.max(initial=0.0) < 1.0 / DEFAULT_TOL:
        if not np.isfinite(a).all():
            raise NonFiniteError("a frame has non-finite entries")
        if (np.abs(a).max(axis=-2) <= DEFAULT_TOL).any():
            raise ZeroInputError("a column of a frame is numerically zero")
        raise SingularMatrixError("the components of a frame are dependent")
    return size


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

    Frames are bases, so they are linked exactly when the transition
    ``A^-1 B`` is block-diagonal along the tableau's blocks of columns.  One
    solve of ``[a; b]`` against ``[b; a]`` gives both transitions, so the
    verdict is symmetric: linked when no off-block entry of either exceeds
    ``tol`` in modulus.  Such an entry and the largest principal-angle sine
    between block spans differ by up to the frames' condition number
    (Higham 2002, ch. 7).

    Raises ``NonFiniteError`` on a NaN or infinite entry, ``ZeroInputError``
    on a numerically zero column, and ``SingularMatrixError`` when either
    side is no basis: a transition entry reaches ``1 / DEFAULT_TOL``.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    mask = _block_mask(shape, _one_each(a, pis, "tableaux"), a.shape[-1])
    require_same_field(a, b)
    require_tol(tol)
    both = np.stack([a, b])
    return (_transition(both, both[::-1]) * ~mask).max(axis=(0, 2, 3), initial=0.0) <= tol


def pi_linked(a: FrameTuple, b: FrameTuple, pi: Tableau, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two frames agree blockwise along the partition ``pi``.

    ``pi`` partitions the component indices 1..s; the frames are linked when
    for every block the sums of the respective components coincide as
    subspaces.  For line frames this is the linkage relation on n symbols.
    The batch of one of :func:`pi_linked_stack`: no off-block entry of the
    transition between the two bases exceeds ``tol``, which agrees with
    principal-angle sines up to the frames' condition number.
    """
    if a.ambient != b.ambient:
        raise AmbientMismatchError("frames live in different ambients")
    shape = a.shape
    if shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {shape.parts} vs {b.shape.parts}")
    linked = pi_linked_stack(a.stacked_basis()[None], b.stacked_basis()[None], shape, [pi], tol)
    return bool(linked[0])


def _regroup(bases: np.ndarray, shapes: Sequence[IntPartition], keys: Sequence) -> np.ndarray:
    """The ``(B, n, n)`` stacked bases with the components of basis k, of
    shape ``shapes[k]``, sorted stably by ``keys[k]``, one key per component:
    the one rule by which frames are permuted and coarsened."""
    layout = _components_of(bases, shapes)
    # the key of every column, by the first group of its basis in the layout
    first = np.searchsorted(layout.trials, np.arange(len(bases)))
    column_keys = np.array([key for row in keys for key in row])[layout.labels + first[:, None]]
    columns = np.argsort(column_keys, axis=1, kind="stable")
    return np.take_along_axis(bases, columns[:, None, :], axis=2)


def refine_map_stack(
    bases: np.ndarray, shapes: Sequence[IntPartition], arrows: Sequence[RefinementArrow]
) -> np.ndarray:
    """Stacked :func:`refine_map`: frame k of the ``(B, n, n)`` stacked
    bases, of shape ``shapes[k]``, coarsened along ``arrows[k]`` to the shape
    of its coarse tableau.  The components are regrouped by the coarse block
    of their fine block, and each coarse group spanned (:func:`span_components`).
    """
    for shape, arrow in zip(shapes, _one_each(bases, arrows, "arrows")):
        if arrow.fine.shape != shape:
            raise ShapeMismatchError(f"an arrow's fine block sizes are not {shape.parts}")
    regrouped = _regroup(bases, shapes, [arrow.block_map for arrow in arrows])
    return span_components(regrouped, [arrow.coarse.shape for arrow in arrows])


def refine_map(t: FrameTuple, arrow: RefinementArrow) -> FrameTuple:
    """Coarsen a frame along a refinement arrow.

    The arrow's fine tableau indexes the components of ``t`` in canonical
    block order (block j of size d stands for component j of dimension d);
    coarse component k is the sum of the components whose blocks map to k.
    The batch of one of :func:`refine_map_stack`.
    """
    basis = refine_map_stack(t.stacked_basis()[None], [t.shape], [arrow])[0]
    return _frame(basis, arrow.coarse.shape, t.orthogonal)


def permute(t: FrameTuple, sigma: Sequence[int]) -> FrameTuple:
    """Reorder components by sigma (new index -> old index).

    Only permutations moving indices within runs of equal dimensions are
    allowed; anything else would break the weakly-decreasing profile.  The
    batch of one of :func:`permute_stack`.
    """
    shape = t.shape
    basis = permute_stack(t.stacked_basis()[None], [shape], [sigma])[0]
    return _frame(basis, shape, t.orthogonal)


def permute_stack(
    bases: np.ndarray, shapes: Sequence[IntPartition], sigmas: Sequence[Sequence[int]]
) -> np.ndarray:
    """Stacked :func:`permute`: the ``(B, n, n)`` stacked bases with the
    components of basis k, of shape ``shapes[k]``, reordered by ``sigmas[k]``
    (new index -> old index)."""
    places = []
    for shape, sigma in zip(shapes, _one_each(bases, sigmas, "permutations")):
        sigma = tuple(int(i) for i in sigma)
        if not is_legal_permutation(shape, sigma):
            raise IllegalPermutationError(f"{sigma} moves indices across different dimensions")
        # the new place of every old component
        places.append(sorted(range(len(sigma)), key=sigma.__getitem__))
    return _regroup(bases, shapes, places)


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

    A count of dimensions.  The meet of components ``A_i`` and ``B_j`` has
    dimension ``m_ij``, the count of their principal-angle sines at most
    ``tol`` (Bjorck-Golub 1973); the pairs whose ``a`` component has one
    dimension take one SVD, ``b`` padded with zero columns.  The meets of
    ``A_i`` with the independent ``B_j`` are independent, so ``A_i`` is their
    sum exactly when ``sum_j m_ij`` reaches ``dim A_i``; backward, ``B_j`` is
    the sum of its meets when ``sum_i m_ij`` reaches ``dim B_j``.
    """
    if a.shape != b.shape:
        raise AmbientMismatchError(f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    require_same_field(a, b)
    require_tol(tol)
    size, n = len(a), a.shape[-1]
    ta, _, da, _, by_size_a, _ = _components_of(a, shapes_a)
    tb, sb, db, masks_b, _, _ = _components_of(b, shapes_b)
    # the table row of the component of b[k] that starts at column c, or -1
    row_b = np.full((size, n), -1, dtype=np.intp)
    row_b[tb, sb] = np.arange(len(tb))
    # the summed meet dimensions of every component of a, then of b
    met = np.zeros(len(ta) + len(tb), dtype=np.intp)
    for d, _, index in by_size_a:
        # the p-th d-dimensional component of a, row i, against the component
        # of b at column c, row j
        rows_a = np.flatnonzero(da == d)
        p, c = np.nonzero(row_b[ta[rows_a]] >= 0)
        i = rows_a[p]
        j = row_b[ta[i], c]
        sines, _ = principal_angles(_gather(a, index[p]), b[ta[i]] * masks_b[j])
        meets = (sines <= tol).sum(axis=-1)
        np.add.at(met, i, meets)
        np.add.at(met, len(ta) + j, meets)
    split = met >= np.concatenate([da, db])
    failed = np.bincount(np.concatenate([ta, tb + size])[~split], minlength=2 * size)
    return failed[:size] == 0, failed[size:] == 0


def bigobot(a: FrameTuple, b: FrameTuple, tol: float = DEFAULT_TOL) -> bool:
    """Block-intersection splitting: every component of each frame is the
    sum of its intersections with the other frame's components, which holds
    exactly when the dimensions of those intersections, each the count of
    principal-angle sines at most ``tol``, add up to the component's own.
    The batch of one of :func:`bigobot_stack`; the two directions agree on
    genuinely independent frames, and a disagreement raises
    ``InconsistencyError``.
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
    # refuses a count or shape that does not fit before any draw
    _component_layout(_one_each(rngs, shapes, "shapes"), ambient)
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
    stacked bases, of one ``shape``, linked along ``pis[k]`` and drawn from
    ``rngs[k]``.

    Each generator draws one ``n x n`` Gaussian, masked to the transition
    entries its tableau allows; its unitary QR factor is a block-diagonal
    remix, so ``bases @ remix`` keeps every block span (and an orthogonal
    frame stays orthogonal) before each component is re-spanned.  Before any
    draw it refuses what :func:`pi_linked_stack` refuses: an inverse entry of
    ``1 / DEFAULT_TOL`` or more, dependence across blocks included.
    """
    n = bases.shape[-1]
    mask = _block_mask(shape, _one_each(bases, pis, "tableaux"), n)
    _one_each(bases, rngs, "generators")
    _transition(bases, np.eye(n))
    remix = np.linalg.qr(gaussian_stack(rngs, (n, n), field_of(bases)) * mask).Q
    return span_components(bases @ remix, [shape] * len(bases))


def linked_partner(
    t: FrameTuple, pi: Tableau, rng: np.random.Generator
) -> FrameTuple:
    """Sample a frame linked to ``t`` along ``pi`` by remixing each block.

    Within every block the component sum is kept fixed while the individual
    components are redrawn by a unitary remix of the block's columns, so the
    result is linked to ``t`` along ``pi`` by construction (and generically
    along no strictly finer partition).  The batch of one of
    :func:`linked_partner_stack`, whose refusals it shares: a frame whose
    components are dependent, even across blocks, raises
    ``SingularMatrixError``.
    """
    shape = t.shape
    basis = linked_partner_stack(t.stacked_basis()[None], shape, [pi], [rng])[0]
    return _frame(basis, shape, t.orthogonal)
