"""Batched verification kernels.

The pairwise commensurability cross-check has to cover tens of thousands of
pairs per dimension/field cell, which is too slow one pair at a time in
Python.  This module re-implements BOTH characterizations of the relation on
stacked arrays (vectorized QR/SVD) while keeping the two computation routes
strictly independent of each other: the projector-commutator route and the
strip-the-meet orthogonality route share nothing but the sampled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, haar

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
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def _dual_paths_for_bucket(
    qa: np.ndarray, qb: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both commensurability tests for stacked orthonormal bases."""
    m, n, da = qa.shape
    db = qb.shape[2]
    band = 10.0 * tol

    # route 1: commutator of the orthogonal projectors
    pa = qa @ adjoint(qa)
    pb = qb @ adjoint(qb)
    comm = pa @ pb - pb @ pa
    comm_norms = _spectral_norms(comm)
    via_commutator = comm_norms <= band

    # route 2: strip the meet from both sides, test for orthogonality
    if (n - da) + (n - db) == 0:
        # both operands are the full space; remainders are zero
        return via_commutator, np.ones(m, dtype=bool), comm_norms
    comp_a = np.linalg.qr(qa, mode="complete").Q[..., da:]
    comp_b = np.linalg.qr(qb, mode="complete").Q[..., db:]
    stacked = np.concatenate([comp_a, comp_b], axis=2)
    u, s, _ = np.linalg.svd(stacked, full_matrices=True)
    ranks = np.sum(s > tol * s[..., [0]], axis=1)
    # meet projector: span of the left-singular directions beyond the rank
    null_mask = np.arange(n)[None, :] >= ranks[:, None]
    pc = np.einsum("bik,bk,bjk->bij", u, null_mask.astype(u.real.dtype), np.conj(u))
    residual_products = (pa - pc) @ (pb - pc)
    via_complements = _spectral_norms(residual_products) <= band
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
    dims_a = rng.integers(1, n, size=m) if n > 1 else np.ones(m, dtype=np.int64)
    dims_b = np.array([int(rng.integers(1, n - da + 1)) for da in dims_a])
    eps = np.array([ADVERSARIAL_ANGLES[i % len(ADVERSARIAL_ANGLES)] for i in range(m)])
    return q, dims_a, dims_b, eps


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
    """
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
