"""Batched verification kernels.

The pairwise commensurability cross-check has to cover tens of thousands of
pairs per dimension/field cell, which is too slow one pair at a time in
Python.  This module samples the pairs and runs BOTH characterizations of
the relation on stacked arrays, through the route functions that the scalar
``commeasurable`` and ``commeasurable_via_complements`` call on single
bases: the projector commutator (:func:`subspaces.commutator_norms`) and the
strip-the-meet verdict (:func:`subspaces.remainders_orthogonal`).  Neither
route calls the other or reads its results: they share only the inputs.

At a few dozen pairs per stack, numpy's cost per LAPACK call is as large as
the arithmetic, so the kernel makes few calls and pads nothing: one QR per
column width, and both routes once per unordered pair of widths, oriented
narrower operand first, on ``n x min(d_A, d_B)`` matrices.  A width pair
with a line operand takes neither an SVD nor an eigensolve; any other takes
one eigensolve per route and, for the few pairs that route 2's certificate
leaves undecided, an SVD and one more.  At n = 6 a call makes 6 QRs, 30 to
45 eigensolves and at most 15 SVDs: 44 calls over 2000 seeded pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .linalg import _number, field_dtype, gaussian, require_tol
from .subspaces import commutator_norms, remainders_orthogonal

ADVERSARIAL_ANGLES = (1e-12, 1e-6, 1e-3)


@dataclass
class DualPathBatch:
    """Outcome of one batch: per-pair booleans for each route."""

    via_commutator: np.ndarray
    via_complements: np.ndarray
    commutator_norms: np.ndarray
    dims_a: np.ndarray
    dims_b: np.ndarray
    adversarial: np.ndarray

    @property
    def count(self) -> int:
        return self.via_commutator.shape[0]

    @property
    def disagreements(self) -> int:
        return int(np.sum(self.via_commutator != self.via_complements))


def _dual_paths_for_bucket(qa: np.ndarray, qb: np.ndarray, tol: float) -> tuple:
    """Both commensurability verdicts, at band ``10*tol``, and the commutator
    norms for two ``(B, n, k)`` stacks of orthonormal bases, one width each."""
    comm_norms = commutator_norms(qa, qb)
    return comm_norms <= 10.0 * tol, remainders_orthogonal(qa, qb, tol), comm_norms


def _adversarial_operands(q: np.ndarray, da: np.ndarray, eps: np.ndarray) -> tuple:
    """Near-commuting pairs with an exactly controlled perturbation angle.

    From a Haar frame ``q[k]``, A spans its first ``da[k]`` columns and B the
    first column rotated by ``eps[k]`` toward the last, followed by columns
    ``da[k]`` onward: a commuting configuration sharing one direction, which
    B turns.  The projector commutator norm is then cos(eps)sin(eps) exactly,
    so every pair sits a safe factor away from any reasonable tolerance band.
    Returns, for A and for B, the stack whose column windows the operands
    are and each window's first column: B's turned column stands at
    ``da[k] - 1`` in a copy of ``q``.
    """
    turned = q.copy()
    turned[np.arange(q.shape[0]), :, da - 1] = (
        np.cos(eps)[:, None] * q[:, :, 0] + np.sin(eps)[:, None] * q[:, :, -1]
    )
    return (q, turned), (np.zeros_like(da), da - 1)


def _check_arguments(
    ambient: int, field: str, count: int, tol: float, adversarial_fraction: float
) -> None:
    if not _number(ambient, Integral) or ambient < 2:
        raise ValueError(f"ambient must be an integer >= 2, got {ambient!r}")
    field_dtype(field)  # refuses an unknown tag
    if not _number(count, Integral) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    require_tol(tol)
    if not (_number(adversarial_fraction, Real) and 0.0 <= adversarial_fraction <= 1.0):
        raise ValueError(
            f"adversarial_fraction must be a real number in [0, 1], "
            f"got {adversarial_fraction!r}"
        )


def batched_commeasurability_check(
    ambient: int,
    field: str,
    count: int,
    rng: np.random.Generator,
    tol: float,
    adversarial_fraction: float = 0.1,
) -> DualPathBatch:
    """Run both commensurability routes on ``count`` seeded pairs.

    A fixed fraction of the pairs are adversarial near-commuting
    configurations at perturbation angles 1e-12, 1e-6, 1e-3; the rest are
    independent Haar pairs of random dimensions.

    The draws are those of one loop over the (dim A, dim B) buckets, dim A
    major: per bucket the Gaussians of its A bases, then of its B bases, and
    after the loop one ``n x n`` Gaussian per adversarial pair.  Every basis
    is the Q factor of its Gaussian, taken by one QR per column width.  Both
    routes are symmetric in the two operands, so each pair is oriented
    narrower operand first and both run once per unordered pair of widths;
    the results go back to their pairs.  Nothing is zero-padded, and the
    only copies of the bases beyond the QR factors are the adversarial
    operands and one width pair's gathered stacks at a time.

    Raises ``ValueError``, before any draw, unless ``ambient`` is an integer
    of at least 2, ``field`` is real or complex, ``count`` is a non-negative
    integer, ``tol`` is finite and positive and ``adversarial_fraction`` is a
    real number (not a bool) in [0, 1].
    """
    _check_arguments(ambient, field, count, tol, adversarial_fraction)
    n = ambient
    n_adv = int(round(count * adversarial_fraction))
    n_rand = count - n_adv
    dims = np.zeros((2, count), dtype=np.int64)  # of A and of B, per pair
    rows = np.zeros((2, count), dtype=np.int64)  # in the stack of their width
    dims[0, :n_rand] = rng.integers(1, n + 1, size=n_rand)
    dims[1, :n_rand] = rng.integers(1, n + 1, size=n_rand)

    # per column width one stack of Gaussians, then in its place their Q factors
    sizes = np.bincount(dims[:, :n_rand].ravel(), minlength=n + 1)
    sizes[n] += n_adv
    bases = [np.empty((m, n, w), dtype=field_dtype(field)) for w, m in enumerate(sizes)]
    filled = np.zeros(n + 1, dtype=np.int64)

    def draw(width: int, m: int) -> np.ndarray:
        """Rows of the next ``m`` Gaussians drawn into the stack of ``width``."""
        first = filled[width]
        filled[width] += m
        bases[width][first : first + m] = gaussian(rng, (m, n, width), field)
        return np.arange(first, first + m)

    for da in range(1, n + 1):
        for db in range(1, n + 1):
            idx = np.flatnonzero((dims[0, :n_rand] == da) & (dims[1, :n_rand] == db))
            if idx.size:
                rows[0, idx] = draw(da, idx.size)
                rows[1, idx] = draw(db, idx.size)
    if n_adv > 0:
        draw(n, n_adv)
        dims[0, n_rand:] = rng.integers(1, n, size=n_adv)
        dims[1, n_rand:] = rng.integers(1, n - dims[0, n_rand:] + 1)
    for width in range(1, n + 1):
        bases[width] = np.linalg.qr(bases[width]).Q

    if n_adv > 0:
        # each adversarial operand is a window of its pair's frame, at most
        # n - 1 wide, appended to the stack of its width
        sources, starts = _adversarial_operands(
            bases[n][-n_adv:], dims[0, n_rand:], np.resize(ADVERSARIAL_ANGLES, n_adv)
        )
        for width in range(1, n):
            pieces = [bases[width]]
            for side in range(2):
                sel = np.flatnonzero(dims[side, n_rand:] == width)
                rows[side, n_rand + sel] = sum(map(len, pieces)) + np.arange(sel.size)
                cols = starts[side][sel, None, None] + np.arange(width)
                pieces.append(np.take_along_axis(sources[side][sel], cols, axis=2))
            bases[width] = np.concatenate(pieces)

    order = np.argsort(dims, axis=0, kind="stable")  # the narrower operand first
    (narrow, wide), (rows_narrow, rows_wide) = (
        np.take_along_axis(a, order, axis=0) for a in (dims, rows)
    )
    via_comm = np.zeros(count, dtype=bool)
    via_comp = np.zeros(count, dtype=bool)
    comm_norms = np.zeros(count, dtype=float)
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            idx = np.flatnonzero((narrow == w1) & (wide == w2))
            if idx.size:
                via_comm[idx], via_comp[idx], comm_norms[idx] = _dual_paths_for_bucket(
                    bases[w1][rows_narrow[idx]], bases[w2][rows_wide[idx]], tol
                )

    return DualPathBatch(
        via_commutator=via_comm,
        via_complements=via_comp,
        commutator_norms=comm_norms,
        dims_a=dims[0],
        dims_b=dims[1],
        adversarial=np.arange(count) >= n_rand,
    )
