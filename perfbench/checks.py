"""Independent checks of the library's answers, computed with plain numpy/scipy.

Each check is a property of the method, not a stored copy of an earlier
output.  Inputs are drawn here from a numpy generator seeded by the run's
``--seed``; every check is one operation of the run.  A check returns True
when the library agrees with the independent computation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from frame_rigidity import (
    CONJUGATION,
    IDENTITY,
    FrameTuple,
    SemilinearMap,
    Subspace,
    Tableau,
    apply_to_subspace,
    commeasurable,
    commeasurable_via_complements,
    evert,
    induced_on_frame,
    linked_partner,
    polar_decompose,
)
from frame_rigidity.kernels import ADVERSARIAL_ANGLES

from workloads import COMPLEX, FIELDS, KERNEL_TOL

#: Agreement band for projector distances and factor entries.  Inputs are
#: conditioned below 1e3, so roundoff stays near 1e-13.
AGREE = 1e-8
#: Absolute band for the closed-form commutator norm cos(eps) sin(eps).
CLOSED_FORM = 1e-13
MAX_CONDITION = 1e3


def _gaussian(rng, shape, field):
    g = rng.standard_normal(shape)
    if field == COMPLEX:
        g = g + 1j * rng.standard_normal(shape)
    return g


def _invertible(rng, n, field):
    while True:
        m = _gaussian(rng, (n, n), field)
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] <= MAX_CONDITION * s[-1]:
            return m


def _projector(cols):
    q = np.linalg.qr(cols).Q
    return q @ q.conj().T


def _distance(p, q):
    return float(np.linalg.norm(p - q, 2))


def _random_parts(rng, n):
    parts, left = [], n
    while left:
        p = int(rng.integers(1, left + 1))
        parts.append(p)
        left -= p
    return sorted(parts, reverse=True)


def _blocks(m, parts):
    out, start = [], 0
    for d in parts:
        out.append(m[:, start : start + d])
        start += d
    return out


def dual_basis_eversion(rng, n, field, parts) -> bool:
    """Everted component i is the span of block i of inv(M)^H."""
    m = _invertible(rng, n, field)
    frame = FrameTuple([Subspace.from_columns(b) for b in _blocks(m, parts)])
    dual = np.linalg.inv(m).conj().T
    got = evert(frame).components
    return max(
        _distance(c.projector(), _projector(b)) for c, b in zip(got, _blocks(dual, parts))
    ) <= AGREE


def polar_matches_scipy(rng, n, field) -> bool:
    m = _invertible(rng, n, field)
    ours = polar_decompose(m).unitary
    reference, _ = scipy.linalg.polar(m)
    return float(np.max(np.abs(ours - reference))) <= AGREE


def _map(rng, n, field):
    conj = field == COMPLEX and rng.random() < 0.5
    m = _invertible(rng, n, field)
    return SemilinearMap(m, CONJUGATION if conj else IDENTITY), m, conj


def image_is_direct_span(rng, n, field) -> bool:
    """apply_to_subspace(T, span B) is the span of M B (M conj(B) if T is
    conjugate-linear)."""
    t, m, conj = _map(rng, n, field)
    b = _gaussian(rng, (n, int(rng.integers(1, n + 1))), field)
    image = apply_to_subspace(t, Subspace.from_columns(b))
    expected = _projector(m @ (b.conj() if conj else b))
    return _distance(image.projector(), expected) <= AGREE


def _linked(a: FrameTuple, b: FrameTuple, blocks) -> bool:
    """Block spans agree iff stacking both blocks adds no rank."""
    for block in blocks:
        cols_a = np.hstack([a.components[i - 1].basis for i in sorted(block)])
        cols_b = np.hstack([b.components[i - 1].basis for i in sorted(block)])
        s = np.linalg.svd(np.hstack([cols_a, cols_b]), compute_uv=False)
        if int(np.sum(s > AGREE * s[0])) != len(block):
            return False
    return True


def partner_stays_linked(rng, n, field) -> bool:
    """A linked partner is linked before and after a semilinear map."""
    q = np.linalg.qr(_gaussian(rng, (n, n), field)).Q
    a = FrameTuple([Subspace(n, q[:, [i]]) for i in range(n)], True)
    labels = rng.integers(0, n, size=n)
    groups = {}
    for symbol, label in enumerate(labels, start=1):
        groups.setdefault(int(label), []).append(symbol)
    pi = Tableau(n, tuple(tuple(g) for g in groups.values()))
    b = linked_partner(a, pi, rng)
    t, _, _ = _map(rng, n, field)
    return _linked(a, b, pi.blocks) and _linked(
        induced_on_frame(t, a), induced_on_frame(t, b), pi.blocks
    )


def common_basis_commutes(rng, n, field) -> bool:
    """Two subspaces cut from one Haar basis commute on both routes."""
    q = np.linalg.qr(_gaussian(rng, (n, n), field)).Q
    da, db = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
    overlap = int(rng.integers(max(0, da + db - n), min(da, db) + 1))
    a = Subspace(n, q[:, :da])
    b = Subspace(n, q[:, da - overlap : da - overlap + db])
    return commeasurable(a, b) and commeasurable_via_complements(a, b)


def routes_agree(rng, n, field) -> bool:
    """The commutator and complement routes agree on an independent pair."""
    pair = []
    for _ in range(2):
        d = int(rng.integers(1, n + 1))
        pair.append(Subspace(n, np.linalg.qr(_gaussian(rng, (n, d), field)).Q))
    return commeasurable(*pair) == commeasurable_via_complements(*pair)


def kernel_verdict(batch, pairs: int) -> tuple:
    """(failed pairs, answers correct) for one kernel call.

    A pair fails when the two routes disagree.  The answers are wrong when an
    adversarial pair's commutator norm misses the closed form cos(eps) sin(eps)
    for its angle, or its verdict misses the band; such pairs fail too.  The
    angles cycle through ADVERSARIAL_ANGLES, so each angle's share of the
    adversarial pairs is fixed as well.
    """
    if batch.count != pairs:
        return pairs, False
    failed = batch.via_commutator != batch.via_complements
    eps = np.array(ADVERSARIAL_ANGLES)
    closed = np.cos(eps) * np.sin(eps)
    norms = batch.commutator_norms[batch.adversarial]
    nearest = np.argmin(np.abs(norms[:, None] - closed[None, :]), axis=1)
    off = np.abs(norms - closed[nearest]) > CLOSED_FORM
    off |= batch.via_commutator[batch.adversarial] != (closed[nearest] <= 10.0 * KERNEL_TOL)
    adv = norms.size
    expected = [len(range(k, adv, len(eps))) for k in range(len(eps))]
    if np.bincount(nearest, minlength=len(eps)).tolist() != expected:
        return pairs, False
    failed[np.flatnonzero(batch.adversarial)[off]] = True
    return int(np.sum(failed)), not off.any()


def _passes(check, *args) -> bool:
    """A check that raises has failed."""
    try:
        return bool(check(*args))
    except Exception:
        return False


def round_checks(workload: str, seed: int) -> list:
    """The fixed list of independent checks made once per round."""
    rng = np.random.default_rng([seed, 0x5EED])
    results = []
    if workload == "eversion":
        for n in range(3, 9):
            for f in FIELDS:
                results.append(_passes(dual_basis_eversion, rng, n, f, [1] * n))
                results.append(_passes(dual_basis_eversion, rng, n, f, _random_parts(rng, n)))
                results.append(_passes(polar_matches_scipy, rng, n, f))
    elif workload == "transport":
        for n in range(3, 9):
            for f in FIELDS:
                results.append(_passes(image_is_direct_span, rng, n, f))
                results.append(_passes(partner_stays_linked, rng, n, f))
    else:
        for n in range(2, 9):
            for f in FIELDS:
                results.append(_passes(common_basis_commutes, rng, n, f))
                results.append(_passes(routes_agree, rng, n, f))
    return results
