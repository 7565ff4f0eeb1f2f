"""Batched verification kernels.

The pairwise commensurability cross-check has to cover tens of thousands of
pairs per dimension/field cell, which is too slow one pair at a time in
Python.  This module samples the pairs and runs BOTH characterizations of
the relation on stacked arrays, through the two route functions that the
scalar ``commeasurable`` and ``commeasurable_via_complements`` call on single
bases: the projector commutator (:func:`subspaces.commutator_norms`) and the
strip-the-meet orthogonality read from principal angles
(:func:`subspaces.remainder_norms`).  Neither route calls the other or reads
its results: they share only the sampled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import COMPLEX, REAL, haar, require_tol
from .subspaces import commutator_norms, remainder_norms

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
    norms for ``(B, n, k)`` stacks of orthonormal bases."""
    band = 10.0 * tol
    comm_norms = commutator_norms(qa, qb)
    return comm_norms <= band, remainder_norms(qa, qb, tol) <= band, comm_norms


def _adversarial_bases(
    rng: np.random.Generator, m: int, n: int, field: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Near-commuting pairs with an exactly controlled perturbation angle.

    Start from a commuting configuration sharing one direction of a Haar
    frame and rotate the shared direction by eps inside the second operand;
    the projector commutator norm is then cos(eps)sin(eps) exactly, so every
    pair sits a safe factor away from any reasonable tolerance band.
    """
    q = haar(rng, (m, n, n), field)
    dims_a = rng.integers(1, n, size=m)
    dims_b = rng.integers(1, n - dims_a + 1)
    eps = np.resize(ADVERSARIAL_ANGLES, m)
    return q, dims_a, dims_b, eps


def _integer(value) -> bool:
    # a bool is an Integral, but no dimension or count
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_arguments(
    ambient: int, field: str, count: int, tol: float, adversarial_fraction: float
) -> None:
    if not _integer(ambient) or ambient < 2:
        raise ValueError(f"ambient must be an integer >= 2, got {ambient!r}")
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    if not _integer(count) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    require_tol(tol)
    if not 0.0 <= adversarial_fraction <= 1.0:
        raise ValueError(
            f"adversarial_fraction must lie in [0, 1], got {adversarial_fraction!r}"
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

    Raises ``ValueError``, before any draw, unless ``ambient`` is an integer
    of at least 2, ``field`` is real or complex, ``count`` is a non-negative
    integer, ``tol`` is finite and positive and ``adversarial_fraction`` lies
    in [0, 1].
    """
    _check_arguments(ambient, field, count, tol, adversarial_fraction)
    n = ambient
    n_adv = int(round(count * adversarial_fraction))
    n_rand = count - n_adv

    via_comm = np.zeros(count, dtype=bool)
    via_comp = np.zeros(count, dtype=bool)
    comm_norms = np.zeros(count, dtype=float)
    dims_a = np.zeros(count, dtype=np.int64)
    dims_b = np.zeros(count, dtype=np.int64)
    adversarial = np.zeros(count, dtype=bool)

    def buckets(da_all: np.ndarray, db_all: np.ndarray):
        for da in range(1, n + 1):
            for db in range(1, n + 1):
                idx = np.nonzero((da_all == da) & (db_all == db))[0]
                if idx.size:
                    yield da, db, idx

    def record(idx: np.ndarray, da: int, db: int, qa: np.ndarray, qb: np.ndarray) -> None:
        via_comm[idx], via_comp[idx], comm_norms[idx] = _dual_paths_for_bucket(qa, qb, tol)
        dims_a[idx], dims_b[idx] = da, db

    da_rand = rng.integers(1, n + 1, size=n_rand)
    db_rand = rng.integers(1, n + 1, size=n_rand)
    for da, db, idx in buckets(da_rand, db_rand):
        qa = haar(rng, (idx.size, n, da), field)
        record(idx, da, db, qa, haar(rng, (idx.size, n, db), field))

    if n_adv > 0:
        q, da_adv, db_adv, eps = _adversarial_bases(rng, n_adv, n, field)
        rotated = (
            np.cos(eps)[:, None] * q[:, :, 0] + np.sin(eps)[:, None] * q[:, :, n - 1]
        )
        for da, db, sel in buckets(da_adv, db_adv):
            qb = np.concatenate(
                [rotated[sel][:, :, None], q[sel][:, :, da : da + db - 1]], axis=2
            )
            record(n_rand + sel, da, db, q[sel, :, :da], qb)
        adversarial[n_rand:] = True

    return DualPathBatch(
        via_commutator=via_comm,
        via_complements=via_comp,
        commutator_norms=comm_norms,
        dims_a=dims_a,
        dims_b=dims_b,
        adversarial=adversarial,
    )
