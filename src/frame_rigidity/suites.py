"""Named property suites over the whole library.

Each suite bundles the invariants of one module (or one theorem-shaped
cluster of them) into seeded Monte-Carlo trials.  Every trial draws its
randomness from a stream keyed by (seed, suite, property, trial), so reports
are reproducible regardless of execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InconsistencyError, NotSemilinearError
from .frames import (
    FrameTuple,
    evert,
    bigobot,
    linked_partner,
    permute,
    pi_linked,
    random_frame,
    refine_map,
)
from .induced import (
    CONJUGATION,
    IDENTITY,
    SemilinearMap,
    apply_to_subspace,
    cubic_line_distortion,
    evert_conjugate,
    induced_line_map,
    induced_on_frame,
    random_semilinear,
    random_unitary_map,
    reconstruct_from_line_images,
    scale_equivalent,
)
from .linalg import COMPLEX, DEFAULT_TOL, REAL, spectral_norm
from .partitions import (
    IntPartition,
    Tableau,
    compose_refinements,
    dominance_leq,
    identity_refinement,
    lift_coarse_permutation,
    partitions_of,
    reverse_refines,
    set_partitions,
)
from .report import PropertyResult, VerificationReport
from .rng import trial_rng
from .subspaces import (
    Subspace,
    commeasurable,
    commeasurable_via_complements,
    random_subspace,
)

EXHAUSTIVE_PARTITION_LIMIT = 6
FALSIFY_EPS = 0.1

# largest accepted base tolerance: sampled frames and maps may have condition
# numbers up to 1e3, so above 1e-3 the rank decisions start to call sampled
# inputs singular and trials raise instead of reaching a verdict
MAX_TOL = 1e-3

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
    report_path: Optional[str] = None

    def validate(self) -> None:
        if self.suite not in _REGISTRY:
            raise ConfigError(
                f"unknown suite {self.suite!r}; choose from {', '.join(list_suites())}"
            )
        if not isinstance(self.ambient, int) or not 2 <= self.ambient <= 8:
            raise ConfigError(f"ambient must be an integer in 2..8, got {self.ambient}")
        if self.suite in _MIN_AMBIENT_THREE and self.ambient < 3:
            raise ConfigError(f"suite {self.suite!r} requires ambient >= 3")
        if self.field not in (REAL, COMPLEX):
            raise ConfigError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not 0.0 < self.tol <= MAX_TOL:
            raise ConfigError(f"tol must be in (0, {MAX_TOL:g}], got {self.tol}")

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "ambient": self.ambient,
            "field": self.field,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
        }


# a trial reports (residual, violated)
TrialFn = Callable[[SuiteConfig, int, np.random.Generator], "tuple[float, bool]"]


@dataclass(frozen=True)
class _Property:
    name: str
    run: TrialFn
    # "no-violations": pass iff no trial violates.
    # "min-violation-rate": pass iff the violation rate reaches min_rate.
    pass_rule: str = "no-violations"
    min_rate: float = 0.95
    record_rate: bool = False


# -- shared samplers -------------------------------------------------------------


@lru_cache(maxsize=None)
def _all_set_partitions(n: int) -> tuple:
    return tuple(set_partitions(n))


@lru_cache(maxsize=None)
def _breakable_set_partitions(n: int) -> tuple:
    return tuple(
        p
        for p in _all_set_partitions(n)
        if any(1 < len(block) < n for block in p.blocks)
    )


@lru_cache(maxsize=None)
def _all_shapes(n: int) -> tuple:
    return tuple(partitions_of(n))


def _random_set_partition(n: int, rng: np.random.Generator) -> Tableau:
    labels = rng.integers(0, n, size=n)
    blocks: dict[int, list[int]] = {}
    for symbol, label in enumerate(labels, start=1):
        blocks.setdefault(int(label), []).append(symbol)
    return Tableau(n, tuple(tuple(b) for b in blocks.values()))


def _partition_for_trial(n: int, trial: int, rng: np.random.Generator) -> Tableau:
    """Cycle through all set partitions when small, sample when large."""
    if n <= EXHAUSTIVE_PARTITION_LIMIT:
        parts = _all_set_partitions(n)
        return parts[trial % len(parts)]
    return _random_set_partition(n, rng)


def _breakable_partition_for_trial(
    n: int, trial: int, rng: np.random.Generator
) -> Tableau:
    if n <= EXHAUSTIVE_PARTITION_LIMIT:
        parts = _breakable_set_partitions(n)
        return parts[trial % len(parts)]
    while True:
        p = _random_set_partition(n, rng)
        if any(1 < len(block) < n for block in p.blocks):
            return p


def _random_shape(n: int, rng: np.random.Generator) -> IntPartition:
    shapes = _all_shapes(n)
    return shapes[int(rng.integers(0, len(shapes)))]


def _random_proper_shape(n: int, rng: np.random.Generator) -> IntPartition:
    """A shape with at least two components."""
    shapes = [s for s in _all_shapes(n) if len(s.parts) > 1]
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
    start = 0
    for k in range(1, len(shape.parts) + 1):
        if k == len(shape.parts) or shape.parts[k] != shape.parts[start]:
            run = list(range(start, k))
            shuffled = [run[i] for i in rng.permutation(len(run))]
            for pos, src in zip(run, shuffled):
                sigma[pos] = src
            start = k
    return tuple(sigma)


def _line_shape(n: int) -> IntPartition:
    return IntPartition((1,) * n)


def _random_map(cfg: SuiteConfig, rng: np.random.Generator) -> SemilinearMap:
    automorphism = IDENTITY
    if cfg.field == COMPLEX and rng.random() < 0.5:
        automorphism = CONJUGATION
    return random_semilinear(cfg.ambient, cfg.field, rng, automorphism)


def _commuting_pair(
    n: int, field: str, rng: np.random.Generator
) -> tuple[Subspace, Subspace]:
    """A pair spanned by column blocks of one common unitary basis."""
    g = rng.standard_normal((n, n))
    if field == COMPLEX:
        g = (g + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q = np.linalg.qr(g).Q
    da = int(rng.integers(1, n + 1))
    db = int(rng.integers(1, n + 1))
    overlap = int(rng.integers(max(0, da + db - n), min(da, db) + 1))
    a = Subspace(n, q[:, :da])
    b = Subspace(n, q[:, da - overlap : da - overlap + db])
    return a, b


def _projector_distance(a: Subspace, b: Subspace) -> float:
    return spectral_norm(a.projector() - b.projector())


def _frame_distance(s: FrameTuple, t: FrameTuple) -> float:
    return max(
        _projector_distance(x, y) for x, y in zip(s.components, t.components)
    )


def _contiguous_tableau(shape: IntPartition) -> Tableau:
    blocks = []
    start = 1
    for d in shape.parts:
        blocks.append(tuple(range(start, start + d)))
        start += d
    return Tableau(shape.n, tuple(blocks))


def _merge_blocks(tab: Tableau, rng: np.random.Generator) -> Tableau:
    k = int(rng.integers(1, len(tab.blocks) + 1))
    labels = rng.integers(0, k, size=len(tab.blocks))
    merged: dict[int, list[int]] = {}
    for block, label in zip(tab.blocks, labels):
        merged.setdefault(int(label), []).extend(block)
    return Tableau(tab.n, tuple(tuple(b) for b in merged.values()))


def _distort_lines(t: FrameTuple, eps: float, tol: float) -> FrameTuple:
    f = cubic_line_distortion(eps, tol)
    return FrameTuple([f(c) for c in t.components], False)


# -- clr: induced maps respect the partial lattice -------------------------------


def _clr_dims(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    ok = (
        apply_to_subspace(t, a, cfg.tol).dim == a.dim
        and apply_to_subspace(t, b, cfg.tol).dim == b.dim
    )
    return (0.0 if ok else 1.0), not ok


def _clr_joins(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    lhs = apply_to_subspace(t, a.sum(b, cfg.tol), cfg.tol)
    rhs = apply_to_subspace(t, a, cfg.tol).sum(apply_to_subspace(t, b, cfg.tol), cfg.tol)
    residual = _projector_distance(lhs, rhs)
    return residual, residual > 10.0 * cfg.tol


def _clr_meets(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    lhs = apply_to_subspace(t, a.intersect(b, cfg.tol), cfg.tol)
    rhs = apply_to_subspace(t, a, cfg.tol).intersect(
        apply_to_subspace(t, b, cfg.tol), cfg.tol
    )
    residual = _projector_distance(lhs, rhs)
    return residual, residual > 10.0 * cfg.tol


def _clr_containment(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    inner = apply_to_subspace(t, a.intersect(b, cfg.tol), cfg.tol)
    residual = 0.0
    for outer in (apply_to_subspace(t, a, cfg.tol), apply_to_subspace(t, b, cfg.tol)):
        leak = spectral_norm(inner.basis - outer.projector() @ inner.basis)
        residual = max(residual, leak)
    return residual, residual > 10.0 * cfg.tol


# -- clr-bis: independence of line systems survives ------------------------------


def _clrbis_independent(cfg, trial, rng):
    t = random_frame(cfg.ambient, _line_shape(cfg.ambient), cfg.field, False, rng)
    m = _random_map(cfg, rng)
    image = induced_on_frame(m, t, cfg.tol)
    s = np.linalg.svd(image.stacked_basis(), compute_uv=False)
    ok = s[-1] > cfg.tol * s[0]
    return (0.0 if ok else 1.0), not ok


def _clrbis_sum_dims(cfg, trial, rng):
    n = cfg.ambient
    t = random_frame(n, _line_shape(n), cfg.field, False, rng)
    m = _random_map(cfg, rng)
    image = induced_on_frame(m, t, cfg.tol)
    size = int(rng.integers(2, n + 1))
    chosen = rng.permutation(n)[:size]
    total = image.components[chosen[0]]
    for k in chosen[1:]:
        total = total.sum(image.components[k], cfg.tol)
    ok = total.dim == size
    return (0.0 if ok else 1.0), not ok


# -- pfr-perp: linkage of orthogonal line frames ---------------------------------


def _pfrp_forward(cfg, trial, rng):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, True, rng)
    b = linked_partner(a, pi, rng)
    m = _random_map(cfg, rng)
    ok = pi_linked(
        induced_on_frame(m, a, cfg.tol),
        induced_on_frame(m, b, cfg.tol),
        pi,
        10.0 * cfg.tol,
    )
    return (0.0 if ok else 1.0), not ok


def _pfrp_both_directions(cfg, trial, rng):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, True, rng)
    if rng.random() < 0.5:
        b = linked_partner(a, pi, rng)
    else:
        b = random_frame(n, _line_shape(n), cfg.field, True, rng)
    m = _random_map(cfg, rng)
    before = pi_linked(a, b, pi, 10.0 * cfg.tol)
    after = pi_linked(
        induced_on_frame(m, a, cfg.tol),
        induced_on_frame(m, b, cfg.tol),
        pi,
        10.0 * cfg.tol,
    )
    ok = before == after
    return (0.0 if ok else 1.0), not ok


def _pfrp_equivariance(cfg, trial, rng):
    n = cfg.ambient
    a = random_frame(n, _line_shape(n), cfg.field, True, rng)
    m = _random_map(cfg, rng)
    sigma = tuple(int(k) for k in rng.permutation(n))
    lhs = induced_on_frame(m, permute(a, sigma), cfg.tol)
    rhs = permute(induced_on_frame(m, a, cfg.tol), sigma)
    residual = _frame_distance(lhs, rhs)
    return residual, residual > 10.0 * cfg.tol


# -- pfr: the eversion branch -----------------------------------------------------


def _pfr_involution(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    residual = _frame_distance(evert(evert(t)), t)
    return residual, residual > 10.0 * cfg.tol


def _pfr_fixes_orthogonal(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, True, rng)
    residual = _frame_distance(evert(t), t)
    return residual, residual > 10.0 * cfg.tol


def _pfr_preserves_linkage(cfg, trial, rng):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, False, rng)
    b = linked_partner(a, pi, rng)
    ok = pi_linked(evert(a), evert(b), pi, 10.0 * cfg.tol)
    return (0.0 if ok else 1.0), not ok


def _pfr_permutations(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    sigma = _random_legal_permutation(shape, rng)
    residual = _frame_distance(evert(permute(t, sigma)), permute(evert(t), sigma))
    return residual, residual > 10.0 * cfg.tol


# -- eversion-order: transporting eversion through an induced map ----------------


def _evorder_commutes(cfg, trial, rng):
    m = _random_map(cfg, rng)
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    lhs = induced_on_frame(evert_conjugate(m, cfg.tol), evert(t), cfg.tol)
    rhs = evert(induced_on_frame(m, t, cfg.tol))
    residual = _frame_distance(lhs, rhs)
    return residual, residual > 100.0 * cfg.tol


def _evorder_unitary_fixed(cfg, trial, rng):
    automorphism = IDENTITY
    if cfg.field == COMPLEX and rng.random() < 0.5:
        automorphism = CONJUGATION
    u = random_unitary_map(cfg.ambient, cfg.field, rng, automorphism)
    v = evert_conjugate(u, cfg.tol)
    residual = float(np.max(np.abs(v.matrix - u.matrix)))
    ok = residual <= 10.0 * cfg.tol and v.automorphism == u.automorphism
    return residual, not ok


def _evorder_involution(cfg, trial, rng):
    m = _random_map(cfg, rng)
    back = evert_conjugate(evert_conjugate(m, cfg.tol), cfg.tol)
    scale = float(np.max(np.abs(m.matrix)))
    residual = float(np.max(np.abs(back.matrix - m.matrix))) / scale
    return residual, residual > 100.0 * cfg.tol


# -- obot: frame-level commensurability ------------------------------------------


def _two_block_frame(a: Subspace) -> FrameTuple:
    comps = sorted([a, a.orthocomplement()], key=lambda s: -s.dim)
    return FrameTuple(comps, True)


def _obot_matches_pairwise(cfg, trial, rng):
    n = cfg.ambient
    a = random_subspace(n, int(rng.integers(1, n)), cfg.field, rng)
    b = random_subspace(n, int(rng.integers(1, n)), cfg.field, rng)
    route_one = commeasurable(a, b, cfg.tol)
    route_two = commeasurable_via_complements(a, b, cfg.tol)
    try:
        framewise = bigobot(_two_block_frame(a), _two_block_frame(b), cfg.tol)
    except InconsistencyError:
        return 1.0, True
    ok = route_one == route_two == framewise
    return (0.0 if ok else 1.0), not ok


def _obot_common_basis_splits(cfg, trial, rng):
    n = cfg.ambient
    g = rng.standard_normal((n, n))
    if cfg.field == COMPLEX:
        g = (g + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q = np.linalg.qr(g).Q
    perm = rng.permutation(n)

    def grouped(shape: IntPartition, cols: np.ndarray) -> FrameTuple:
        comps, start = [], 0
        for d in shape.parts:
            comps.append(Subspace(n, cols[:, start : start + d]))
            start += d
        return FrameTuple(comps, True)

    s = grouped(_random_shape(n, rng), q)
    t = grouped(_random_shape(n, rng), q[:, perm])
    try:
        ok = bigobot(s, t, cfg.tol)
    except InconsistencyError:
        ok = False
    return (0.0 if ok else 1.0), not ok


def _obot_reflexive(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    s = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    ok = bigobot(s, s, cfg.tol)
    return (0.0 if ok else 1.0), not ok


def _obot_generic_rejected(cfg, trial, rng):
    n = cfg.ambient
    s = random_frame(n, _random_proper_shape(n, rng), cfg.field, False, rng)
    t = random_frame(n, _random_proper_shape(n, rng), cfg.field, False, rng)
    try:
        ok = not bigobot(s, t, cfg.tol)
    except InconsistencyError:
        ok = False
    return (0.0 if ok else 1.0), not ok


# -- refinement: summing components along tableau arrows --------------------------


def _refinement_identity(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    arrow = identity_refinement(_contiguous_tableau(shape))
    residual = _frame_distance(refine_map(t, arrow), t)
    return residual, residual > 10.0 * cfg.tol


def _refinement_functorial(cfg, trial, rng):
    n = cfg.ambient
    fine = _random_set_partition(n, rng)
    mid = _merge_blocks(fine, rng)
    coarse = _merge_blocks(mid, rng)
    f = reverse_refines(fine, mid)
    g = reverse_refines(mid, coarse)
    assert f is not None and g is not None
    t = random_frame(n, fine.shape, cfg.field, False, rng)
    chained = refine_map(refine_map(t, f), g)
    direct = refine_map(t, compose_refinements(f, g))
    residual = _frame_distance(chained, direct)
    return residual, residual > 10.0 * cfg.tol


def _refinement_lift_equivariance(cfg, trial, rng):
    n = cfg.ambient
    fine = _random_set_partition(n, rng)
    coarse = _merge_blocks(fine, rng)
    arrow = reverse_refines(fine, coarse)
    assert arrow is not None
    t = random_frame(n, fine.shape, cfg.field, False, rng)
    coarse_frame = refine_map(t, arrow)
    sigma_coarse = _random_legal_permutation(coarse_frame.shape, rng)
    sigma_fine = lift_coarse_permutation(arrow, sigma_coarse)
    if sigma_fine is None:
        # the permutation moves a block onto one with a different fiber
        # profile; nothing to transport
        return 0.0, False
    lhs = refine_map(permute(t, sigma_fine), arrow)
    rhs = permute(coarse_frame, sigma_coarse)
    residual = _frame_distance(lhs, rhs)
    return residual, residual > 10.0 * cfg.tol


# -- partitions: pure combinatorics -----------------------------------------------


def _partitions_involution(cfg, trial, rng):
    mu = _random_partition_number(int(rng.integers(1, 31)), rng)
    ok = mu.conjugate().conjugate() == mu
    return (0.0 if ok else 1.0), not ok


def _partitions_conjugate_dominance(cfg, trial, rng):
    m = int(rng.integers(1, 13))
    mu = _random_partition_number(m, rng)
    nu = _random_partition_number(m, rng)
    ok = dominance_leq(mu, nu) == dominance_leq(nu.conjugate(), mu.conjugate())
    return (0.0 if ok else 1.0), not ok


def _partitions_refinement_dominance(cfg, trial, rng):
    m = int(rng.integers(2, 10))
    fine = _random_set_partition(m, rng)
    coarse = _merge_blocks(fine, rng)
    arrow = reverse_refines(fine, coarse)
    ok = arrow is not None and dominance_leq(fine.shape, coarse.shape)
    return (0.0 if ok else 1.0), not ok


def _partitions_jump_sum(cfg, trial, rng):
    mu = _random_partition_number(int(rng.integers(1, 41)), rng)
    ok = sum(mu.jmp_sequence()) == mu.parts[0]
    return (0.0 if ok else 1.0), not ok


def _partitions_symmetry_count(cfg, trial, rng):
    mu = _random_partition_number(int(rng.integers(1, 41)), rng)
    ok = sum(mu.symmetry_factors()) == len(mu.parts)
    return (0.0 if ok else 1.0), not ok


# -- reconstruction: recovering a map from its action on lines --------------------


def _reconstruction_roundtrip(cfg, trial, rng):
    m = _random_map(cfg, rng)
    try:
        recovered = reconstruct_from_line_images(
            induced_line_map(m), cfg.ambient, cfg.field, cfg.tol
        )
    except NotSemilinearError:
        return 1.0, True
    ok = scale_equivalent(recovered, m, 100.0 * cfg.tol)
    return (0.0 if ok else 1.0), not ok


def _reconstruction_rejects_distortion(cfg, trial, rng):
    # distort the input line first: coordinate and diagonal probes are fixed
    # by the warp, so the candidate matrix is that of the hidden map and the
    # random-probe stage is what must catch the lie
    m = _random_map(cfg, rng)
    base = induced_line_map(m)
    warp = cubic_line_distortion(FALSIFY_EPS, cfg.tol)

    def oracle(line):
        return base(warp(line))

    try:
        reconstruct_from_line_images(oracle, cfg.ambient, cfg.field, cfg.tol)
    except NotSemilinearError:
        return 0.0, False
    return 1.0, True


# -- falsify: the distortion should be caught by linkage --------------------------


def _falsify_trial(cfg, trial, rng, eps):
    n = cfg.ambient
    pi = _breakable_partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, False, rng)
    b = linked_partner(a, pi, rng)
    broken = not pi_linked(
        _distort_lines(a, eps, cfg.tol),
        _distort_lines(b, eps, cfg.tol),
        pi,
        10.0 * cfg.tol,
    )
    return 0.0, broken


def _falsify_breaks(cfg, trial, rng):
    return _falsify_trial(cfg, trial, rng, FALSIFY_EPS)


def _falsify_control(cfg, trial, rng):
    residual, broken = _falsify_trial(cfg, trial, rng, 0.0)
    return (1.0 if broken else 0.0), broken


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
        _Property("conjugate-transport-commutes", _evorder_commutes),
        _Property("unitary-maps-fixed", _evorder_unitary_fixed),
        _Property("transport-involution", _evorder_involution),
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
        _Property("hidden-map-round-trip", _reconstruction_roundtrip),
        _Property("rejects-distorted-oracle", _reconstruction_rejects_distortion),
    ),
    "falsify": (
        _Property(
            "breaks-linkage",
            _falsify_breaks,
            pass_rule="min-violation-rate",
            min_rate=0.95,
        ),
        _Property("zero-distortion-control", _falsify_control, record_rate=True),
    ),
}


def list_suites() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def suite_properties(suite: str) -> tuple[str, ...]:
    if suite not in _REGISTRY:
        raise ConfigError(f"unknown suite {suite!r}")
    return tuple(p.name for p in _REGISTRY[suite])


def _run_property(cfg: SuiteConfig, prop: _Property) -> PropertyResult:
    worst = 0.0
    violated_count = 0
    first_violated: Optional[int] = None
    first_clean: Optional[int] = None
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, cfg.suite, prop.name, trial)
        residual, violated = prop.run(cfg, trial, rng)
        worst = max(worst, float(residual))
        if violated:
            violated_count += 1
            if first_violated is None:
                first_violated = trial
        elif first_clean is None:
            first_clean = trial

    if prop.pass_rule == "min-violation-rate":
        rate = violated_count / cfg.trials
        passed = rate >= prop.min_rate
        failures = 0 if passed else cfg.trials - violated_count
        first_failing = None if passed else first_clean
        return PropertyResult(
            name=prop.name,
            trials=cfg.trials,
            failures=failures,
            worst_residual=worst,
            first_failing_trial=first_failing,
            violation_rate=rate,
            passed=passed,
        )

    failures = violated_count
    rate = (violated_count / cfg.trials) if prop.record_rate else None
    return PropertyResult(
        name=prop.name,
        trials=cfg.trials,
        failures=failures,
        worst_residual=worst,
        first_failing_trial=first_violated,
        violation_rate=rate,
        passed=failures == 0,
    )


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run every property of the configured suite; deterministic given cfg."""
    cfg.validate()
    start = time.perf_counter()
    results = [_run_property(cfg, prop) for prop in _REGISTRY[cfg.suite]]
    elapsed = time.perf_counter() - start
    return VerificationReport(
        suite=cfg.suite,
        config=cfg.echo(),
        properties=results,
        wall_time_s=elapsed,
    )


def falsify(cfg: SuiteConfig) -> VerificationReport:
    """The falsification search, as a suite run."""
    if cfg.suite != "falsify":
        cfg = SuiteConfig(
            suite="falsify",
            ambient=cfg.ambient,
            field=cfg.field,
            trials=cfg.trials,
            seed=cfg.seed,
            tol=cfg.tol,
            report_path=cfg.report_path,
        )
    return run_suite(cfg)
