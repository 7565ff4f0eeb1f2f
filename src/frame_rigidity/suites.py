"""Named property suites over the whole library.

Each suite bundles the invariants of one module (or one theorem-shaped
cluster of them) into seeded Monte-Carlo trials.  Every trial draws its
randomness from a stream keyed by (seed, suite, property, trial), so reports
are reproducible regardless of execution order.

A property runs its trials in batches: it receives a chunk of trial indices
with one stream each and returns one outcome per trial.  The streams are
one generator per trial from a per-thread pool (:func:`rng._trial_rngs`),
each reset to (its trial's key, counter 0), so they draw exactly what a new
:func:`rng.trial_rng` would; they are valid only for their chunk.  Batched
properties keep their trials as ``(B, n, n)`` stacks, subspaces of smaller
dimension padded with zero columns, and draw each trial's randomness from
its own stream in the order one trial alone would, so the chunk size changes
no report.  ``reconstruction`` recovers a chunk's hidden maps through the
stacked line-oracle protocol (:func:`induced.reconstruct_from_line_images_stack`),
which asks the oracle twice per chunk: once for every probe line and once
for all 50 sweep lines.  ``partitions``, which draws no frame, keeps a
chunk as lists of combinatorial objects, one per stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .frames import (
    bigobot_stack,
    evert_stack,
    frame_distances,
    linked_partner_stack,
    permute_stack,
    pi_linked_stack,
    random_frame_stack,
    refine_map_stack,
)
from .induced import (
    CONJUGATION,
    IDENTITY,
    apply_to_subspace_stack,
    cubic_line_distortion_stack,
    evert_conjugate_stack,
    induced_line_map_stack,
    induced_on_frame_stack,
    random_semilinear_stack,
    reconstruct_from_line_images_stack,
)
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    _full_rank,
    field_dtype,
    gaussian,
    gaussian_stack,
    residual_norms,
    span_stack,
)
from .partitions import (
    IntPartition,
    RefinementArrow,
    Tableau,
    compose_refinements,
    dominance_leq,
    equal_part_runs,
    identity_refinement,
    lift_coarse_permutation,
    partitions_of,
    reverse_refines,
    set_partitions,
)
from .report import PropertyResult, VerificationReport
from .rng import _trial_rngs
from .subspaces import commutator_norms, meet_stack, remainders_orthogonal

EXHAUSTIVE_PARTITION_LIMIT = 6
FALSIFY_EPS = 0.1

# linkage is judged at this multiple of the base tolerance: the transitions
# of linked frames carry roundoff scaled by the frames' condition
LINKAGE_BAND = 10.0

# trials handed to a property at once; bounds the memory of one batch
_CHUNK = 128

# smallest accepted base tolerance: rank, containment and equality decisions on
# n <= 8 double-precision matrices carry roundoff up to about 1e-14 relative
# to the largest singular value, so at 1e-14 true obot properties already
# report failures (n >= 5) and far below it meets and reconstructions raise
# instead; 1e-12 keeps a factor of ten above the smallest tolerance at which
# every true property passed
MIN_TOL = 1e-12

# largest accepted base tolerance: sampled frames and maps each have condition
# numbers up to 1e3, and an image line frame compounds the two to 1e6, so above
# 1e-6 rank decisions call true sampled configurations singular and true
# properties report failures
MAX_TOL = 1e-6

# suites whose underlying statements need at least three dimensions
_MIN_AMBIENT_THREE = frozenset(
    {"clr", "clr-bis", "pfr-perp", "pfr", "reconstruction", "falsify"}
)


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of one suite run."""

    suite: str
    ambient: int = 4
    field: str = COMPLEX
    trials: int = 1000
    seed: int = 0
    tol: float = DEFAULT_TOL

    def validate(self) -> None:
        if self.suite not in _REGISTRY:
            raise ConfigError(
                f"unknown suite {self.suite!r}; choose from {', '.join(list_suites())}"
            )
        # bool is an int subclass, and the report would echo true for 1
        if not _plain_int(self.ambient) or not 2 <= self.ambient <= 8:
            raise ConfigError(f"ambient must be an integer in 2..8, got {self.ambient}")
        if self.suite in _MIN_AMBIENT_THREE and self.ambient < 3:
            raise ConfigError(f"suite {self.suite!r} requires ambient >= 3")
        if self.field not in (REAL, COMPLEX):
            raise ConfigError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not _plain_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials}")
        if not _plain_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        # other number types (numpy float32, say) would not serialize
        if not isinstance(self.tol, float):
            raise ConfigError(f"tol must be a float, got {self.tol!r}")
        if not MIN_TOL <= self.tol <= MAX_TOL:
            raise ConfigError(f"tol must be in [{MIN_TOL:g}, {MAX_TOL:g}], got {self.tol}")

    def echo(self) -> dict:
        return dict(vars(self))


def _plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# a batch of trials returns what each trial measured, in trial order: its
# verdict (True when the property holds) or a residual
BatchFn = Callable[
    [SuiteConfig, Sequence[int], Sequence[np.random.Generator]], Sequence["bool | float"]
]


@dataclass(frozen=True)
class _Property:
    name: str
    run: BatchFn
    # a residual is violated above band * tol
    band: float = 10.0
    # accepted range of the share of violated trials, which is then reported;
    # None: no trial may be violated, and no share is reported
    rate: Optional[tuple[float, float]] = None


# -- shared samplers -------------------------------------------------------------


def _breakable(p: Tableau) -> bool:
    """Has a block of more than one but not all symbols."""
    return any(1 < len(block) < p.n for block in p.blocks)


@lru_cache(maxsize=None)
def _set_partitions(n: int, breakable: bool) -> tuple:
    return tuple(p for p in set_partitions(n) if not breakable or _breakable(p))


@lru_cache(maxsize=None)
def _shapes(n: int, proper: bool) -> tuple:
    return tuple(s for s in partitions_of(n) if not proper or len(s.parts) > 1)


def _random_set_partition(n: int, rng: np.random.Generator) -> Tableau:
    return Tableau.from_labels(rng.integers(0, n, size=n).tolist())


def _partition_for_trial(
    n: int, trial: int, rng: np.random.Generator, breakable: bool = False
) -> Tableau:
    """Cycle through all set partitions (only breakable ones if asked) when
    small, sample when large."""
    if n <= EXHAUSTIVE_PARTITION_LIMIT:
        parts = _set_partitions(n, breakable)
        return parts[trial % len(parts)]
    while True:
        p = _random_set_partition(n, rng)
        if not breakable or _breakable(p):
            return p


def _random_shape(n: int, rng: np.random.Generator, proper: bool = False) -> IntPartition:
    """A shape, with at least two components if ``proper``."""
    shapes = _shapes(n, proper)
    return shapes[int(rng.integers(0, len(shapes)))]


def _random_partition_number(m: int, rng: np.random.Generator) -> IntPartition:
    parts: list[int] = []
    remaining = m
    while remaining > 0:
        p = int(rng.integers(1, remaining + 1))
        parts.append(p)
        remaining -= p
    return IntPartition(tuple(sorted(parts, reverse=True)))


def _random_legal_permutation(
    shape: IntPartition, rng: np.random.Generator
) -> tuple[int, ...]:
    sigma = list(range(len(shape.parts)))
    for run in equal_part_runs(shape):
        for pos, i in zip(run, rng.permutation(len(run))):
            sigma[pos] = run[i]
    return tuple(sigma)


# one object per ambient, so a chunk's layout is found by identity
@lru_cache(maxsize=None)
def _line_shape(n: int) -> IntPartition:
    return IntPartition((1,) * n)


def _random_automorphism(field: str, rng: np.random.Generator) -> str:
    """The identity, or over the complex field conjugation with probability 1/2."""
    return CONJUGATION if field == COMPLEX and rng.random() < 0.5 else IDENTITY


def _random_maps(cfg: SuiteConfig, rngs) -> tuple[np.ndarray, np.ndarray]:
    """One map per stream, its automorphism (:func:`_random_automorphism`)
    drawn before its matrix: the matrices and the conjugation flags."""
    conj = np.array([_random_automorphism(cfg.field, rng) == CONJUGATION for rng in rngs])
    return random_semilinear_stack(cfg.ambient, cfg.field, rngs), conj


def _line_frames(cfg: SuiteConfig, orthogonal: bool, rngs) -> np.ndarray:
    return random_frame_stack(
        cfg.ambient, [_line_shape(cfg.ambient)] * len(rngs), cfg.field, orthogonal, rngs
    )


def _images(cfg: SuiteConfig, maps: tuple, frames: np.ndarray) -> np.ndarray:
    """Image line frames under stacked maps from :func:`_random_maps`."""
    return induced_on_frame_stack(
        *maps, frames, [_line_shape(cfg.ambient)] * len(frames), cfg.tol
    )


def _partitions_for_trials(cfg: SuiteConfig, trials, rngs, breakable: bool = False) -> list:
    return [
        _partition_for_trial(cfg.ambient, t, rng, breakable) for t, rng in zip(trials, rngs)
    ]


def _contiguous_tableau(shape: IntPartition) -> Tableau:
    return Tableau.from_labels(np.repeat(np.arange(len(shape.parts)), shape.parts).tolist())


def _merge_blocks(tab: Tableau, rng: np.random.Generator) -> Tableau:
    k = int(rng.integers(1, len(tab.blocks) + 1))
    merged = rng.integers(0, k, size=len(tab.blocks)).tolist()
    return Tableau.from_labels([merged[j] for j in tab.labels])


# -- clr: induced maps respect the partial lattice -------------------------------


def _clr_pairs(cfg: SuiteConfig, rngs) -> tuple:
    """Per stream two column blocks of one Haar unitary and a map: the
    ``(2, B, n, n)`` bases of both blocks, padded with zero columns, their
    ``(2, B)`` dimensions, and the maps of :func:`_random_maps`."""
    n = cfg.ambient
    q = np.linalg.qr(gaussian_stack(rngs, (n, n), cfg.field)).Q
    dims = []
    for rng in rngs:
        da, db = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        dims.append((da, db, int(rng.integers(max(0, da + db - n), min(da, db) + 1))))
    da, db, overlap = np.array(dims).T
    cols = np.arange(n)
    # the second block starts at column da - overlap; it moves to the front
    b = np.take_along_axis(q, ((cols + (da - overlap)[:, None]) % n)[:, None, :], axis=2)
    dims = np.stack([da, db])
    pair = np.stack([q, b]) * (cols < dims[..., None])[..., None, :]
    return pair, dims, _random_maps(cfg, rngs)


def _clr_dims(cfg, trials, rngs):
    pair, dims, maps = _clr_pairs(cfg, rngs)
    return (apply_to_subspace_stack(*maps, pair, cfg.tol)[1] == dims).all(axis=0)


def _clr_joins(cfg, trials, rngs):
    pair, _, maps = _clr_pairs(cfg, rngs)
    join, _ = span_stack(np.concatenate(pair, axis=-1), cfg.tol)
    images, rank = apply_to_subspace_stack(*maps, np.concatenate([pair, join[None]]), cfg.tol)
    rhs, rank_rhs = span_stack(np.concatenate(images[:2], axis=-1), cfg.tol)
    # the projector distance is 1 between subspaces of unequal dimensions
    return np.where(rank[2] == rank_rhs, residual_norms(rhs, images[2]), 1.0)


def _clr_meets(cfg, trials, rngs):
    pair, dims, maps = _clr_pairs(cfg, rngs)
    meet, _ = meet_stack(*pair, dims[0], cfg.tol)
    images, rank = apply_to_subspace_stack(*maps, np.concatenate([pair, meet[None]]), cfg.tol)
    rhs, rank_rhs = meet_stack(images[0], images[1], rank[0], cfg.tol)
    return np.where(rank[2] == rank_rhs, residual_norms(rhs, images[2]), 1.0)


def _clr_containment(cfg, trials, rngs):
    pair, dims, maps = _clr_pairs(cfg, rngs)
    meet, _ = meet_stack(*pair, dims[0], cfg.tol)
    images, _ = apply_to_subspace_stack(*maps, np.concatenate([pair, meet[None]]), cfg.tol)
    return residual_norms(images[2][None], images[:2]).max(axis=0)


# -- clr-bis: independence of line systems survives ------------------------------


def _clrbis_images(cfg, rngs):
    frames = _line_frames(cfg, False, rngs)
    return _images(cfg, _random_maps(cfg, rngs), frames)


def _clrbis_independent(cfg, trials, rngs):
    return _full_rank(_clrbis_images(cfg, rngs), cfg.tol)


def _clrbis_sum_dims(cfg, trials, rngs):
    n = cfg.ambient
    image = _clrbis_images(cfg, rngs)
    sizes = np.array([int(rng.integers(2, n + 1)) for rng in rngs])
    order = np.array([rng.permutation(n) for rng in rngs])
    lines = np.take_along_axis(image, order[:, None, :], axis=2)
    # the first ``size`` lines, the others zeroed, span a sum of their count
    _, rank = span_stack(lines * (np.arange(n) < sizes[:, None])[:, None, :], cfg.tol)
    return rank == sizes


# -- pfr-perp: linkage of orthogonal line frames ---------------------------------


def _pfrp_forward(cfg, trials, rngs):
    shape, band = _line_shape(cfg.ambient), LINKAGE_BAND * cfg.tol
    pis = _partitions_for_trials(cfg, trials, rngs)
    a = _line_frames(cfg, True, rngs)
    b = linked_partner_stack(a, shape, pis, rngs)
    maps = _random_maps(cfg, rngs)
    return pi_linked_stack(_images(cfg, maps, a), _images(cfg, maps, b), shape, pis, band)


def _pfrp_both_directions(cfg, trials, rngs):
    shape = _line_shape(cfg.ambient)
    pis = _partitions_for_trials(cfg, trials, rngs)
    a = _line_frames(cfg, True, rngs)
    # half the partners are linked, the others independent
    linked = np.array([rng.random() < 0.5 for rng in rngs])
    b = np.empty_like(a)
    partners, fresh = np.flatnonzero(linked), np.flatnonzero(~linked)
    b[partners] = linked_partner_stack(
        a[partners], shape, [pis[i] for i in partners], [rngs[i] for i in partners]
    )
    b[fresh] = _line_frames(cfg, True, [rngs[i] for i in fresh])
    maps = _random_maps(cfg, rngs)
    before = pi_linked_stack(a, b, shape, pis, LINKAGE_BAND * cfg.tol)
    after = pi_linked_stack(
        _images(cfg, maps, a), _images(cfg, maps, b), shape, pis, LINKAGE_BAND * cfg.tol
    )
    return before == after


def _pfrp_equivariance(cfg, trials, rngs):
    n = cfg.ambient
    a = _line_frames(cfg, True, rngs)
    maps = _random_maps(cfg, rngs)
    sigma = np.array([rng.permutation(n) for rng in rngs])[:, None, :]
    lhs = _images(cfg, maps, np.take_along_axis(a, sigma, axis=2))
    rhs = np.take_along_axis(_images(cfg, maps, a), sigma, axis=2)
    # the largest projector distance between matching lines, each line a
    # single-column basis
    lines = (rhs.swapaxes(1, 2)[..., None], lhs.swapaxes(1, 2)[..., None])
    return residual_norms(*lines).max(axis=1)


# -- pfr: the eversion branch -----------------------------------------------------


def _random_shapes(cfg: SuiteConfig, rngs, proper: bool = False) -> list:
    return [_random_shape(cfg.ambient, rng, proper) for rng in rngs]


def _general_frames(cfg: SuiteConfig, shapes: list, rngs) -> np.ndarray:
    return random_frame_stack(cfg.ambient, shapes, cfg.field, False, rngs)


def _pfr_involution(cfg, trials, rngs):
    shapes = _random_shapes(cfg, rngs)
    t = _general_frames(cfg, shapes, rngs)
    return frame_distances(evert_stack(evert_stack(t, shapes), shapes), t, shapes)


def _pfr_fixes_orthogonal(cfg, trials, rngs):
    shapes = _random_shapes(cfg, rngs)
    t = random_frame_stack(cfg.ambient, shapes, cfg.field, True, rngs)
    return frame_distances(evert_stack(t, shapes), t, shapes)


def _pfr_preserves_linkage(cfg, trials, rngs):
    shape = _line_shape(cfg.ambient)
    pis = _partitions_for_trials(cfg, trials, rngs)
    a = _line_frames(cfg, False, rngs)
    b = linked_partner_stack(a, shape, pis, rngs)
    # both sides everted in one stack
    both = evert_stack(np.concatenate([a, b]), [shape] * (2 * len(rngs)))
    return pi_linked_stack(*np.split(both, 2), shape, pis, LINKAGE_BAND * cfg.tol)


def _pfr_permutations(cfg, trials, rngs):
    shapes = _random_shapes(cfg, rngs)
    t = _general_frames(cfg, shapes, rngs)
    sigmas = [_random_legal_permutation(shape, rng) for shape, rng in zip(shapes, rngs)]
    lhs = evert_stack(permute_stack(t, shapes, sigmas), shapes)
    rhs = permute_stack(evert_stack(t, shapes), shapes, sigmas)
    return frame_distances(lhs, rhs, shapes)


# -- eversion-order: transporting eversion through an induced map ----------------


def _evorder_commutes(cfg, trials, rngs):
    matrices, conj = _random_maps(cfg, rngs)
    shapes = _random_shapes(cfg, rngs)
    t = _general_frames(cfg, shapes, rngs)
    image = induced_on_frame_stack(matrices, conj, t, shapes, cfg.tol)
    # t and its image everted in one stack
    everted = evert_stack(np.concatenate([t, image]), shapes + shapes)
    lhs = induced_on_frame_stack(
        evert_conjugate_stack(matrices, cfg.tol), conj, everted[: len(rngs)], shapes, cfg.tol
    )
    return frame_distances(lhs, everted[len(rngs) :], shapes)


def _evorder_unitary_fixed(cfg, trials, rngs):
    # the automorphism is drawn, as every map draws it, but the contragredient
    # carries it through unchanged, so only the matrices are compared
    for rng in rngs:
        _random_automorphism(cfg.field, rng)
    u = np.linalg.qr(gaussian_stack(rngs, (cfg.ambient, cfg.ambient), cfg.field)).Q
    v = evert_conjugate_stack(u, cfg.tol)
    return np.max(np.abs(v - u), axis=(1, 2))


def _evorder_involution(cfg, trials, rngs):
    matrices, _ = _random_maps(cfg, rngs)
    back = evert_conjugate_stack(evert_conjugate_stack(matrices, cfg.tol), cfg.tol)
    scale = np.max(np.abs(matrices), axis=(1, 2))
    return np.max(np.abs(back - matrices), axis=(1, 2)) / scale


# -- obot: frame-level commensurability ------------------------------------------


@lru_cache(maxsize=None)
def _two_block_shape(n: int, d: int) -> IntPartition:
    return IntPartition((max(d, n - d), min(d, n - d)))


def _obot_matches_pairwise(cfg, trials, rngs):
    n, band = cfg.ambient, 10.0 * cfg.tol
    # per stream a Haar subspace of dimension 1..n-1 and then another: the
    # complete Q of its Gaussian, padded with zero columns, is its basis and
    # then one of its orthocomplement
    g = np.zeros((2, len(rngs), n, n), dtype=field_dtype(cfg.field))
    dims = np.empty((2, len(rngs)), dtype=np.intp)
    for side in range(2):
        for k, rng in enumerate(rngs):
            d = dims[side, k] = int(rng.integers(1, n))
            g[side, k, :, :d] = gaussian(rng, (n, d), cfg.field)
    q, cols = np.linalg.qr(g).Q, np.arange(n)
    bases = q * (cols < dims[..., None])[..., None, :]
    route_one = commutator_norms(*bases) <= band
    route_two = remainders_orthogonal(*bases, cfg.tol)
    # each subspace and its orthocomplement as a frame, the larger first
    order = np.where((dims >= n - dims)[..., None], cols, (cols + dims[..., None]) % n)
    frames = np.take_along_axis(q, order[..., None, :], axis=-1)
    shapes = [[_two_block_shape(n, d) for d in side] for side in dims.tolist()]
    forward, backward = bigobot_stack(*frames, *shapes, cfg.tol)
    # an asymmetric verdict is a violated trial
    return (route_one == route_two) & (route_two == forward) & (forward == backward)


def _obot_common_basis_splits(cfg, trials, rngs):
    n = cfg.ambient
    q = np.linalg.qr(gaussian_stack(rngs, (n, n), cfg.field)).Q
    perms = np.array([rng.permutation(n) for rng in rngs])[:, None, :]
    shapes_s, shapes_t = _random_shapes(cfg, rngs), _random_shapes(cfg, rngs)
    t = np.take_along_axis(q, perms, axis=2)
    return np.logical_and(*bigobot_stack(q, t, shapes_s, shapes_t, cfg.tol))


def _obot_reflexive(cfg, trials, rngs):
    shapes = _random_shapes(cfg, rngs)
    s = _general_frames(cfg, shapes, rngs)
    return np.logical_and(*bigobot_stack(s, s, shapes, shapes, cfg.tol))


def _obot_generic_rejected(cfg, trials, rngs):
    # per stream a shape and its frame, then the other shape and frame
    shapes_s = _random_shapes(cfg, rngs, proper=True)
    s = _general_frames(cfg, shapes_s, rngs)
    shapes_t = _random_shapes(cfg, rngs, proper=True)
    t = _general_frames(cfg, shapes_t, rngs)
    return ~np.logical_or(*bigobot_stack(s, t, shapes_s, shapes_t, cfg.tol))


# -- refinement: summing components along tableau arrows --------------------------


def _coarsening(fine: Tableau, rng: np.random.Generator) -> RefinementArrow:
    """The arrow from ``fine`` to a random merge of its blocks."""
    return reverse_refines(fine, _merge_blocks(fine, rng))


def _refinement_identity(cfg, trials, rngs):
    shapes = _random_shapes(cfg, rngs)
    t = _general_frames(cfg, shapes, rngs)
    arrows = [identity_refinement(_contiguous_tableau(shape)) for shape in shapes]
    return frame_distances(refine_map_stack(t, shapes, arrows), t, shapes)


def _refinement_functorial(cfg, trials, rngs):
    f = [_coarsening(_random_set_partition(cfg.ambient, rng), rng) for rng in rngs]
    g = [_coarsening(arrow.coarse, rng) for arrow, rng in zip(f, rngs)]
    fine, mid = [a.fine.shape for a in f], [a.coarse.shape for a in f]
    t = _general_frames(cfg, fine, rngs)
    chained = refine_map_stack(refine_map_stack(t, fine, f), mid, g)
    direct = refine_map_stack(t, fine, [compose_refinements(a, b) for a, b in zip(f, g)])
    return frame_distances(chained, direct, [a.coarse.shape for a in g])


def _refinement_lift_equivariance(cfg, trials, rngs):
    arrows = [_coarsening(_random_set_partition(cfg.ambient, rng), rng) for rng in rngs]
    fine, coarse = [a.fine.shape for a in arrows], [a.coarse.shape for a in arrows]
    t = _general_frames(cfg, fine, rngs)
    sigmas = [_random_legal_permutation(shape, rng) for shape, rng in zip(coarse, rngs)]
    lifts = [lift_coarse_permutation(a, sigma) for a, sigma in zip(arrows, sigmas)]
    # a permutation that moves a block onto one with a different fiber profile
    # has no lift and nothing to transport: the trial holds, and the identity
    # stands in for its lift
    stand_ins = [lift or range(len(shape.parts)) for lift, shape in zip(lifts, fine)]
    lhs = refine_map_stack(permute_stack(t, fine, stand_ins), fine, arrows)
    rhs = permute_stack(refine_map_stack(t, fine, arrows), coarse, sigmas)
    distances = frame_distances(lhs, rhs, coarse).tolist()
    return [True if lift is None else d for lift, d in zip(lifts, distances)]


# -- partitions: pure combinatorics -----------------------------------------------


def _partitions_drawn(rngs, most: int) -> list:
    """One partition per stream, of a number it draws from 1..most."""
    return [_random_partition_number(int(rng.integers(1, most + 1)), rng) for rng in rngs]


def _partitions_involution(cfg, trials, rngs):
    return [mu.conjugate().conjugate() == mu for mu in _partitions_drawn(rngs, 30)]


def _partitions_conjugate_dominance(cfg, trials, rngs):
    out = []
    for rng in rngs:
        m = int(rng.integers(1, 13))
        mu, nu = _random_partition_number(m, rng), _random_partition_number(m, rng)
        out.append(dominance_leq(mu, nu) == dominance_leq(nu.conjugate(), mu.conjugate()))
    return out


def _partitions_refinement_dominance(cfg, trials, rngs):
    fines = [_random_set_partition(int(rng.integers(2, 10)), rng) for rng in rngs]
    arrows = [_coarsening(fine, rng) for fine, rng in zip(fines, rngs)]
    return [a is not None and dominance_leq(a.fine.shape, a.coarse.shape) for a in arrows]


def _partitions_jump_sum(cfg, trials, rngs):
    return [sum(mu.jmp_sequence()) == mu.parts[0] for mu in _partitions_drawn(rngs, 40)]


def _partitions_symmetry_count(cfg, trials, rngs):
    return [sum(mu.symmetry_factors()) == len(mu.parts) for mu in _partitions_drawn(rngs, 40)]


# -- reconstruction: recovering a map from its action on lines --------------------


def _reconstruction_roundtrip(cfg, trials, rngs):
    hidden, conj = _random_maps(cfg, rngs)
    got, got_conj, refused = reconstruct_from_line_images_stack(
        induced_line_map_stack(hidden, conj), len(rngs), cfg.ambient, cfg.field, cfg.tol
    )
    # the distance of the recovered matrix from the line through the hidden
    # one, relative to the recovered matrix: |R - lam H| / |R| at the
    # least-squares scale lam = <H, R> / <H, H>
    lam = np.sum(hidden.conj() * got, axis=(1, 2)) / np.sum(np.abs(hidden) ** 2, axis=(1, 2))
    residual = np.linalg.norm(got - lam[:, None, None] * hidden, axis=(1, 2))
    residual /= np.linalg.norm(got, axis=(1, 2))
    return np.where(refused | (got_conj != conj), 1.0, residual)


def _reconstruction_rejects_distortion(cfg, trials, rngs):
    # distort the input line first: coordinate and diagonal probes are fixed
    # by the warp, so the candidate matrix is that of the hidden map and the
    # random-probe stage is what must catch the lie
    base = induced_line_map_stack(*_random_maps(cfg, rngs))
    warp = cubic_line_distortion_stack(FALSIFY_EPS, cfg.tol)
    _, _, refused = reconstruct_from_line_images_stack(
        lambda lines: base(warp(lines)), len(rngs), cfg.ambient, cfg.field, cfg.tol
    )
    return refused


# -- falsify: the distortion should be caught by linkage --------------------------


def _falsify(cfg, trials, rngs, eps):
    shape = _line_shape(cfg.ambient)
    pis = _partitions_for_trials(cfg, trials, rngs, breakable=True)
    a = _line_frames(cfg, False, rngs)
    b = linked_partner_stack(a, shape, pis, rngs)
    warp = cubic_line_distortion_stack(eps, cfg.tol)
    return pi_linked_stack(warp(a), warp(b), shape, pis, LINKAGE_BAND * cfg.tol)


_REGISTRY: dict[str, tuple[_Property, ...]] = {
    "clr": (
        _Property("preserves-dimensions", _clr_dims),
        _Property("preserves-joins", _clr_joins),
        _Property("preserves-meets", _clr_meets),
        _Property("preserves-containment", _clr_containment),
    ),
    "clr-bis": (
        _Property("image-lines-independent", _clrbis_independent),
        _Property("image-preserves-sum-dimension", _clrbis_sum_dims),
    ),
    "pfr-perp": (
        _Property("linkage-preserved-forward", _pfrp_forward),
        _Property("linkage-agreement-both-directions", _pfrp_both_directions),
        _Property("permutation-equivariance", _pfrp_equivariance),
    ),
    "pfr": (
        _Property("eversion-involution", _pfr_involution),
        _Property("eversion-fixes-orthogonal", _pfr_fixes_orthogonal),
        _Property("eversion-preserves-linkage", _pfr_preserves_linkage),
        _Property("eversion-commutes-with-permutations", _pfr_permutations),
    ),
    "eversion-order": (
        _Property("conjugate-transport-commutes", _evorder_commutes, band=100.0),
        _Property("unitary-maps-fixed", _evorder_unitary_fixed),
        _Property("transport-involution", _evorder_involution, band=100.0),
    ),
    "obot": (
        _Property("matches-pairwise-commeasurability", _obot_matches_pairwise),
        _Property("common-basis-groupings-split", _obot_common_basis_splits),
        _Property("reflexive", _obot_reflexive),
        _Property("generic-pairs-rejected", _obot_generic_rejected),
    ),
    "refinement": (
        _Property("identity-arrow-fixes-frame", _refinement_identity),
        _Property("composition-functoriality", _refinement_functorial),
        _Property("lifted-permutation-equivariance", _refinement_lift_equivariance),
    ),
    "partitions": (
        _Property("conjugate-involution", _partitions_involution),
        _Property("conjugation-reverses-dominance", _partitions_conjugate_dominance),
        _Property("refinement-implies-dominance", _partitions_refinement_dominance),
        _Property("jump-sum-recovers-largest-part", _partitions_jump_sum),
        _Property("symmetry-factors-count-parts", _partitions_symmetry_count),
    ),
    "reconstruction": (
        _Property("hidden-map-round-trip", _reconstruction_roundtrip, band=100.0),
        _Property("rejects-distorted-oracle", _reconstruction_rejects_distortion),
    ),
    "falsify": (
        # a violated trial is one whose linkage the distortion broke
        _Property(
            "breaks-linkage",
            partial(_falsify, eps=FALSIFY_EPS),
            rate=(0.95, 1.0),
        ),
        _Property(
            "zero-distortion-control",
            partial(_falsify, eps=0.0),
            rate=(0.0, 0.0),
        ),
    ),
}


def list_suites() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def suite_properties(suite: str) -> tuple[str, ...]:
    if suite not in _REGISTRY:
        raise ConfigError(f"unknown suite {suite!r}")
    return tuple(p.name for p in _REGISTRY[suite])


def _outcomes(cfg: SuiteConfig, prop: _Property):
    """Yield ``(trial, outcome)`` for every trial, running the property on
    chunks of ``_CHUNK`` trials with one stream per trial.  The streams come
    from this thread's pool and are reset for each chunk, so a chunk's
    outcomes are all read before the next chunk draws its streams."""
    for start in range(0, cfg.trials, _CHUNK):
        trials = range(start, min(start + _CHUNK, cfg.trials))
        rngs = _trial_rngs(cfg.seed, cfg.suite, prop.name, trials)
        yield from zip(trials, prop.run(cfg, trials, rngs), strict=True)


def _run_property(cfg: SuiteConfig, prop: _Property) -> PropertyResult:
    """Judge every trial's outcome and the property's rate rule.

    The property runs on chunks of at most ``_CHUNK`` trials, each trial with
    its own stream, and returns one outcome per trial; the outcomes do not
    depend on the chunking.  A verdict counts 0.0 when it holds and 1.0
    (violated) when not; a residual is violated above ``prop.band * cfg.tol``
    or when it is NaN, and a NaN residual is the worst one.
    """
    worst = 0.0
    violated_count = 0
    first_violated: Optional[int] = None
    first_clean: Optional[int] = None
    for trial, outcome in _outcomes(cfg, prop):
        if isinstance(outcome, (bool, np.bool_)):
            residual, violated = (0.0, False) if outcome else (1.0, True)
        else:
            residual = float(outcome)
            # written so that a NaN residual counts as violated
            violated = not residual <= prop.band * cfg.tol
        if residual > worst or math.isnan(residual):
            # max() would keep worst over a NaN; a NaN stays once seen
            worst = residual
        if violated:
            violated_count += 1
            if first_violated is None:
                first_violated = trial
        elif first_clean is None:
            first_clean = trial

    low, high = prop.rate or (0.0, 0.0)
    rate = violated_count / cfg.trials
    if rate < low:
        # too few violations: the clean trials are the failing ones
        failures, first_failing = cfg.trials - violated_count, first_clean
    elif rate > high:
        failures, first_failing = violated_count, first_violated
    else:
        failures, first_failing = 0, None
    return PropertyResult(
        name=prop.name,
        trials=cfg.trials,
        failures=failures,
        worst_residual=worst,
        first_failing_trial=first_failing,
        violation_rate=None if prop.rate is None else rate,
    )


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run every property of the configured suite; deterministic given cfg."""
    cfg.validate()
    start = time.perf_counter()
    results = [_run_property(cfg, prop) for prop in _REGISTRY[cfg.suite]]
    elapsed = time.perf_counter() - start
    return VerificationReport(
        config=cfg.echo(),
        properties=results,
        wall_time_s=elapsed,
    )

