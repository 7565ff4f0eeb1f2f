"""Batched verification kernels.

The pairwise commensurability cross-check has to cover tens of thousands of
pairs per dimension/field cell, which is too slow one pair at a time in
Python.  This module re-implements BOTH characterizations of the relation on
stacked arrays while keeping the two computation routes strictly independent
of each other: the projector-commutator route forms both projectors and
their commutator, the strip-the-meet orthogonality route reads the principal
angles between the operands from one thin SVD per pair (Bjorck-Golub 1973).
They share nothing but the sampled inputs.  Spectral norms come from the
largest eigenvalue of a Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import COMPLEX, REAL, adjoint, haar

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


def _spectral_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack.

    The square root of the top eigenvalue of ``M^H M``: the Gram matrix
    scales with ``M``, so the largest singular value keeps its relative
    accuracy, and a zero matrix gives exactly 0.
    """
    gram = adjoint(batch) @ batch
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def _dual_paths_for_bucket(
    qa: np.ndarray, qb: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both commensurability tests for stacked orthonormal bases.

    Route 1 forms the projectors and accepts when their commutator has norm
    at most ``10*tol``.

    Route 2 strips the meet ``C`` of A and B and accepts when the remainders
    ``A ominus C`` and ``B ominus C`` are orthogonal, i.e. when
    ``|(P_A - P_C)(P_B - P_C)| <= 10*tol``.  It reads the meet from the
    principal angles of A against B (Bjorck-Golub 1973): with
    ``G = Q_B^H Q_A``, the thin SVD ``Q_A - Q_B G = (I - P_B) Q_A = U S V^H``
    has the sines of the angles in ``S`` and the principal directions in
    ``Q_A V``.  The directions with sine at most ``tol`` (the convention of
    ``Subspace.contains`` and ``equals``) span C, the others ``Q_A V_r`` span
    ``A ominus C``.  Because ``A ominus C`` is orthogonal to C,
    ``(P_A - P_C) P_C = 0`` and so ``(P_A - P_C)(P_B - P_C) = (P_A - P_C) P_B``,
    whose norm is ``|Q_B^H Q_A V_r| = |G V_r|``.  When B is the full space
    every sine is zero and ``V_r`` is empty, so the norm is 0 without a
    special case.
    """
    band = 10.0 * tol

    # route 1: commutator of the orthogonal projectors
    pa = qa @ adjoint(qa)
    pb = qb @ adjoint(qb)
    comm = pa @ pb - pb @ pa
    comm_norms = _spectral_norms(comm)
    via_commutator = comm_norms <= band

    # route 2: principal angles of A against B; the zero angles span the meet
    g = adjoint(qb) @ qa
    _, sines, vh = np.linalg.svd(qa - qb @ g, full_matrices=False)
    beyond_meet = adjoint(vh) * (sines > tol)[:, None, :]
    via_complements = _spectral_norms(g @ beyond_meet) <= band
    return via_commutator, via_complements, comm_norms


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
    dims_b = np.array([int(rng.integers(1, n - da + 1)) for da in dims_a])
    eps = np.array([ADVERSARIAL_ANGLES[i % len(ADVERSARIAL_ANGLES)] for i in range(m)])
    return q, dims_a, dims_b, eps


def _check_arguments(
    ambient: int, field: str, count: int, tol: float, adversarial_fraction: float
) -> None:
    if not isinstance(ambient, Integral) or ambient < 2:
        raise ValueError(f"ambient must be an integer >= 2, got {ambient!r}")
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    if not isinstance(count, Integral) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
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
