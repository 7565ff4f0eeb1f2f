"""Stacked trials: the batched suite properties against their one-trial forms,
the stacked samplers' rejection loops, and the scalar frame API as the batch
of one of the stacked API."""

from functools import partial

import numpy as np
import pytest

from frame_rigidity import frames, induced, suites
from frame_rigidity.errors import (
    AmbientMismatchError,
    DegenerateOracleError,
    FieldMismatchError,
    FrameRigidityError,
    IllegalPermutationError,
    InconsistencyError,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroInputError,
)
from frame_rigidity.frames import (
    FrameTuple,
    _frame,
    bigobot,
    bigobot_stack,
    evert,
    evert_stack,
    frame_distances,
    linked_partner,
    linked_partner_stack,
    permute,
    permute_stack,
    pi_linked,
    pi_linked_stack,
    random_frame,
    random_frame_stack,
    refine_map,
    refine_map_stack,
    span_components,
)
from frame_rigidity.induced import (
    CONJUGATION,
    IDENTITY,
    SemilinearMap,
    apply_to_subspace,
    cubic_line_distortion_stack,
    evert_conjugate,
    evert_conjugate_stack,
    induced_line_map_stack,
    induced_on_frame,
    induced_on_frame_stack,
    random_semilinear,
    random_semilinear_stack,
    reconstruct_from_line_images_stack,
)
from frame_rigidity.linalg import (
    COMPLEX,
    REAL,
    gaussian,
    haar,
    residual_norms,
    span,
    span_stack,
    spectral_norm,
    unit_columns,
)
from frame_rigidity.partitions import (
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
from frame_rigidity.rng import trial_rng
from frame_rigidity.subspaces import Subspace, commeasurable, commeasurable_via_complements
from frame_rigidity.suites import (
    FALSIFY_EPS,
    LINKAGE_BAND,
    SuiteConfig,
    _coarsening,
    _contiguous_tableau,
    _line_shape,
    _merge_blocks,
    _partition_for_trial,
    _random_automorphism,
    _random_legal_permutation,
    _random_partition_number,
    _random_set_partition,
    _random_shape,
    run_suite,
)
from test_frames import sound_frame
from test_subspaces import random_subspace

FIELDS = (REAL, COMPLEX)


# -- the one-trial forms of the batched properties, kept as oracles ---------------


def _frame_distance(s, t):
    """The largest projector distance ``|P_x - P_y|`` between matching
    components, from the projectors themselves."""
    return max(spectral_norm(x.projector() - y.projector()) for x, y in zip(s, t))


def _linked_by_sines(a, b, pi, tol):
    """The residual-sine rule of linkage, kept as the oracle of the closed
    form: along every block of ``pi`` the two frames' components span
    subspaces of one dimension, and the largest principal-angle sine of the
    span of ``b`` against that of ``a`` is at most ``tol``."""
    for block in pi.blocks:
        qa, rank_a = span(np.hstack([a.components[i - 1].basis for i in sorted(block)]))
        qb, rank_b = span(np.hstack([b.components[i - 1].basis for i in sorted(block)]))
        if rank_a != rank_b or residual_norms(qb, qa) > tol:
            return False
    return True


def _random_map(cfg, rng):
    automorphism = _random_automorphism(cfg.field, rng)
    return random_semilinear(cfg.ambient, cfg.field, rng, automorphism)


def _clrbis_independent(cfg, trial, rng):
    t = random_frame(cfg.ambient, _line_shape(cfg.ambient), cfg.field, False, rng)
    m = _random_map(cfg, rng)
    image = induced_on_frame(m, t, cfg.tol)
    s = np.linalg.svd(image.stacked_basis(), compute_uv=False)
    return s[-1] > cfg.tol * s[0]


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
    return total.dim == size


def _pfrp_forward(cfg, trial, rng):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, True, rng)
    b = linked_partner(a, pi, rng)
    m = _random_map(cfg, rng)
    return _linked_by_sines(
        induced_on_frame(m, a, cfg.tol),
        induced_on_frame(m, b, cfg.tol),
        pi,
        LINKAGE_BAND * cfg.tol,
    )


def _pfrp_both_directions(cfg, trial, rng):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, True, rng)
    if rng.random() < 0.5:
        b = linked_partner(a, pi, rng)
    else:
        b = random_frame(n, _line_shape(n), cfg.field, True, rng)
    m = _random_map(cfg, rng)
    before = _linked_by_sines(a, b, pi, LINKAGE_BAND * cfg.tol)
    after = _linked_by_sines(
        induced_on_frame(m, a, cfg.tol),
        induced_on_frame(m, b, cfg.tol),
        pi,
        LINKAGE_BAND * cfg.tol,
    )
    return before == after


def _pfrp_equivariance(cfg, trial, rng):
    n = cfg.ambient
    a = random_frame(n, _line_shape(n), cfg.field, True, rng)
    m = _random_map(cfg, rng)
    sigma = tuple(int(k) for k in rng.permutation(n))
    lhs = induced_on_frame(m, permute(a, sigma), cfg.tol)
    rhs = permute(induced_on_frame(m, a, cfg.tol), sigma)
    return _frame_distance(lhs, rhs)


def _pfr_involution(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    return _frame_distance(evert(evert(t)), t)


def _pfr_fixes_orthogonal(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, True, rng)
    return _frame_distance(evert(t), t)


def _pfr_preserves_linkage(cfg, trial, rng):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng)
    a = random_frame(n, _line_shape(n), cfg.field, False, rng)
    b = linked_partner(a, pi, rng)
    return _linked_by_sines(evert(a), evert(b), pi, LINKAGE_BAND * cfg.tol)


def _pfr_permutations(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    sigma = _random_legal_permutation(shape, rng)
    return _frame_distance(evert(permute(t, sigma)), permute(evert(t), sigma))


def _evorder_commutes(cfg, trial, rng):
    m = _random_map(cfg, rng)
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    lhs = induced_on_frame(evert_conjugate(m, cfg.tol), evert(t), cfg.tol)
    rhs = evert(induced_on_frame(m, t, cfg.tol))
    return _frame_distance(lhs, rhs)


def _evorder_unitary_fixed(cfg, trial, rng):
    automorphism = _random_automorphism(cfg.field, rng)
    u = SemilinearMap(haar(rng, (cfg.ambient, cfg.ambient), cfg.field), automorphism)
    v = evert_conjugate(u, cfg.tol)
    if v.automorphism != u.automorphism:
        return False
    return float(np.max(np.abs(v.matrix - u.matrix)))


def _evorder_involution(cfg, trial, rng):
    m = _random_map(cfg, rng)
    back = evert_conjugate(evert_conjugate(m, cfg.tol), cfg.tol)
    scale = float(np.max(np.abs(m.matrix)))
    return float(np.max(np.abs(back.matrix - m.matrix))) / scale


def _commuting_pair(n, field, rng):
    """A pair spanned by column blocks of one common unitary basis."""
    q = haar(rng, (n, n), field)
    da = int(rng.integers(1, n + 1))
    db = int(rng.integers(1, n + 1))
    overlap = int(rng.integers(max(0, da + db - n), min(da, db) + 1))
    return Subspace(n, q[:, :da]), Subspace(n, q[:, da - overlap : da - overlap + db])


def _distance(a, b):
    """The projector distance, 1 at unequal dimensions."""
    return residual_norms(b.basis, a.basis) if a.dim == b.dim else 1.0


def _clr_dims(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    return (
        apply_to_subspace(t, a, cfg.tol).dim == a.dim
        and apply_to_subspace(t, b, cfg.tol).dim == b.dim
    )


def _clr_joins(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    lhs = apply_to_subspace(t, a.sum(b, cfg.tol), cfg.tol)
    rhs = apply_to_subspace(t, a, cfg.tol).sum(apply_to_subspace(t, b, cfg.tol), cfg.tol)
    return _distance(lhs, rhs)


def _clr_meets(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    lhs = apply_to_subspace(t, a.intersect(b, cfg.tol), cfg.tol)
    rhs = apply_to_subspace(t, a, cfg.tol).intersect(
        apply_to_subspace(t, b, cfg.tol), cfg.tol
    )
    return _distance(lhs, rhs)


def _clr_containment(cfg, trial, rng):
    a, b = _commuting_pair(cfg.ambient, cfg.field, rng)
    t = _random_map(cfg, rng)
    inner = apply_to_subspace(t, a.intersect(b, cfg.tol), cfg.tol)
    return max(
        residual_norms(inner.basis, apply_to_subspace(t, outer, cfg.tol).basis)
        for outer in (a, b)
    )


def _bigobot_per_meet(a, b, tol):
    """Both directions of block-intersection splitting, one meet at a time:
    each component against the sum of its meets with the other frame's
    components, the meets from ``Subspace.intersect``."""
    meets = {
        (i, j): x.intersect(y, tol)
        for i, x in enumerate(a.components)
        for j, y in enumerate(b.components)
    }

    def splits(t, pieces):
        for k, comp in enumerate(t.components):
            cols = [meet.basis for meet in pieces(k) if meet.dim > 0]
            if not cols:
                return False
            if not Subspace.from_columns(np.hstack(cols)).equals(comp, tol):
                return False
        return True

    forward = splits(a, lambda i: [meets[i, j] for j in range(len(b))])
    backward = splits(b, lambda j: [meets[i, j] for i in range(len(a))])
    return forward, backward


def _two_block_frame(a):
    comps = sorted([a, a.orthocomplement()], key=lambda s: -s.dim)
    return FrameTuple(comps)


def _obot_matches_pairwise(cfg, trial, rng):
    n = cfg.ambient
    a = random_subspace(n, int(rng.integers(1, n)), cfg.field, rng)
    b = random_subspace(n, int(rng.integers(1, n)), cfg.field, rng)
    route_one = commeasurable(a, b, cfg.tol)
    route_two = commeasurable_via_complements(a, b, cfg.tol)
    forward, backward = _bigobot_per_meet(_two_block_frame(a), _two_block_frame(b), cfg.tol)
    return route_one == route_two == forward == backward


def _obot_common_basis_splits(cfg, trial, rng):
    n = cfg.ambient
    q = haar(rng, (n, n), cfg.field)
    perm = rng.permutation(n)
    s = _frame(q, _random_shape(n, rng))
    t = _frame(q[:, perm], _random_shape(n, rng))
    return all(_bigobot_per_meet(s, t, cfg.tol))


def _obot_reflexive(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    s = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    return all(_bigobot_per_meet(s, s, cfg.tol))


def _obot_generic_rejected(cfg, trial, rng):
    n = cfg.ambient
    s = random_frame(n, _random_shape(n, rng, proper=True), cfg.field, False, rng)
    t = random_frame(n, _random_shape(n, rng, proper=True), cfg.field, False, rng)
    return not any(_bigobot_per_meet(s, t, cfg.tol))


def _line_map(t):
    """A map's action on line ``Subspace`` objects, one line at a time."""
    return lambda line: apply_to_subspace(t, line)


def _warp_lines(eps, tol):
    """The cubic distortion on line ``Subspace`` objects, one line at a time."""
    warp = cubic_line_distortion_stack(eps, tol)
    return lambda line: Subspace(line.ambient, warp(line.basis))


def _sequential_reconstruction(oracle, n, field, tol):
    """Reconstruction from a line oracle on ``Subspace`` objects, one
    question at a time: ``lstsq`` for each two-term solve, and the sweep
    asked line by line up to the first deviation.  Returns the matrix and
    the automorphism, or None when the oracle is refused."""
    dtype = np.complex128 if field == COMPLEX else np.float64

    def probe(vector):
        v = vector.astype(dtype)
        return oracle(Subspace.from_columns(v.reshape(n, 1))).basis[:, 0]

    def solve(w, c1, c2):
        stacked = np.column_stack([c1, c2])
        coeff = np.linalg.lstsq(stacked, w, rcond=None)[0]
        assert np.linalg.norm(stacked @ coeff - w) <= 1e3 * tol * max(np.linalg.norm(w), 1.0)
        return coeff

    eye = np.eye(n)
    columns = [probe(eye[:, k]) for k in range(n)]
    matrix = np.zeros((n, n), dtype=dtype)
    matrix[:, 0] = columns[0]
    for k in range(1, n):
        alpha, beta = solve(probe(eye[:, 0] + eye[:, k]), columns[0], columns[k])
        assert abs(alpha) > tol and abs(beta) > tol
        matrix[:, k] = (beta / alpha) * columns[k]
    automorphism = IDENTITY
    if field == COMPLEX:
        alpha, beta = solve(probe(eye[:, 0] + 1j * eye[:, 1]), matrix[:, 0], matrix[:, 1])
        ratio = beta / alpha
        automorphism = IDENTITY if abs(ratio - 1j) <= abs(ratio + 1j) else CONJUGATION
    try:
        candidate = SemilinearMap(matrix, automorphism, tol)
    except SingularMatrixError:
        return None
    probe_rng = np.random.default_rng(0x1D6A)
    for _ in range(50):
        v = gaussian(probe_rng, (n,), field).astype(dtype)
        line = Subspace.from_columns(v.reshape(n, 1))
        if not apply_to_subspace(candidate, line, tol).equals(oracle(line), tol):
            return None
    return matrix, automorphism


def _reconstruction_roundtrip(cfg, trial, rng):
    m = _random_map(cfg, rng)
    recovered = _sequential_reconstruction(_line_map(m), cfg.ambient, cfg.field, cfg.tol)
    if recovered is None or recovered[1] != m.automorphism:
        return 1.0
    got, hidden = recovered[0], m.matrix
    lam = np.vdot(hidden, got) / np.vdot(hidden, hidden)
    return float(np.linalg.norm(got - lam * hidden) / np.linalg.norm(got))


def _reconstruction_rejects_distortion(cfg, trial, rng):
    base = _line_map(_random_map(cfg, rng))
    warp = _warp_lines(FALSIFY_EPS, cfg.tol)
    n, field = cfg.ambient, cfg.field
    return _sequential_reconstruction(lambda line: base(warp(line)), n, field, cfg.tol) is None


def _falsify_trial(cfg, trial, rng, eps):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng, breakable=True)
    a = random_frame(n, _line_shape(n), cfg.field, False, rng)
    b = linked_partner(a, pi, rng)
    warp = _warp_lines(eps, cfg.tol)
    return _linked_by_sines(
        FrameTuple([warp(c) for c in a.components]),
        FrameTuple([warp(c) for c in b.components]),
        pi,
        LINKAGE_BAND * cfg.tol,
    )


def _refine_by_sums(t, arrow):
    """Coarsening by its definition: coarse component k is the span of the
    components whose fine blocks map to k, one ``from_columns`` each."""
    return FrameTuple(
        [
            Subspace.from_columns(
                np.hstack([c.basis for c, m in zip(t.components, arrow.block_map) if m == k])
            )
            for k in range(len(arrow.coarse.blocks))
        ]
    )


def _refinement_identity(cfg, trial, rng):
    shape = _random_shape(cfg.ambient, rng)
    t = random_frame(cfg.ambient, shape, cfg.field, False, rng)
    arrow = identity_refinement(_contiguous_tableau(shape))
    return _frame_distance(_refine_by_sums(t, arrow), t)


def _refinement_functorial(cfg, trial, rng):
    n = cfg.ambient
    fine = _random_set_partition(n, rng)
    mid = _merge_blocks(fine, rng)
    coarse = _merge_blocks(mid, rng)
    f = reverse_refines(fine, mid)
    g = reverse_refines(mid, coarse)
    t = random_frame(n, fine.shape, cfg.field, False, rng)
    chained = _refine_by_sums(_refine_by_sums(t, f), g)
    direct = _refine_by_sums(t, compose_refinements(f, g))
    return _frame_distance(chained, direct)


def _refinement_lift_equivariance(cfg, trial, rng):
    n = cfg.ambient
    fine = _random_set_partition(n, rng)
    arrow = reverse_refines(fine, _merge_blocks(fine, rng))
    t = random_frame(n, fine.shape, cfg.field, False, rng)
    coarse_frame = _refine_by_sums(t, arrow)
    sigma_coarse = _random_legal_permutation(coarse_frame.shape, rng)
    sigma_fine = lift_coarse_permutation(arrow, sigma_coarse)
    if sigma_fine is None:
        return True
    lhs = _refine_by_sums(permute(t, sigma_fine), arrow)
    return _frame_distance(lhs, permute(coarse_frame, sigma_coarse))


def _partitions_involution(cfg, trial, rng):
    mu = _random_partition_number(int(rng.integers(1, 31)), rng)
    return mu.conjugate().conjugate() == mu


def _partitions_conjugate_dominance(cfg, trial, rng):
    m = int(rng.integers(1, 13))
    mu = _random_partition_number(m, rng)
    nu = _random_partition_number(m, rng)
    return dominance_leq(mu, nu) == dominance_leq(nu.conjugate(), mu.conjugate())


def _partitions_refinement_dominance(cfg, trial, rng):
    arrow = _coarsening(_random_set_partition(int(rng.integers(2, 10)), rng), rng)
    return arrow is not None and dominance_leq(arrow.fine.shape, arrow.coarse.shape)


def _partitions_jump_sum(cfg, trial, rng):
    mu = _random_partition_number(int(rng.integers(1, 41)), rng)
    return sum(mu.jmp_sequence()) == mu.parts[0]


def _partitions_symmetry_count(cfg, trial, rng):
    mu = _random_partition_number(int(rng.integers(1, 41)), rng)
    return sum(mu.symmetry_factors()) == len(mu.parts)


ORACLES = {
    ("clr", "preserves-dimensions"): _clr_dims,
    ("clr", "preserves-joins"): _clr_joins,
    ("clr", "preserves-meets"): _clr_meets,
    ("clr", "preserves-containment"): _clr_containment,
    ("clr-bis", "image-lines-independent"): _clrbis_independent,
    ("clr-bis", "image-preserves-sum-dimension"): _clrbis_sum_dims,
    ("pfr-perp", "linkage-preserved-forward"): _pfrp_forward,
    ("pfr-perp", "linkage-agreement-both-directions"): _pfrp_both_directions,
    ("pfr-perp", "permutation-equivariance"): _pfrp_equivariance,
    ("pfr", "eversion-involution"): _pfr_involution,
    ("pfr", "eversion-fixes-orthogonal"): _pfr_fixes_orthogonal,
    ("pfr", "eversion-preserves-linkage"): _pfr_preserves_linkage,
    ("pfr", "eversion-commutes-with-permutations"): _pfr_permutations,
    ("eversion-order", "conjugate-transport-commutes"): _evorder_commutes,
    ("eversion-order", "unitary-maps-fixed"): _evorder_unitary_fixed,
    ("eversion-order", "transport-involution"): _evorder_involution,
    ("obot", "matches-pairwise-commeasurability"): _obot_matches_pairwise,
    ("obot", "common-basis-groupings-split"): _obot_common_basis_splits,
    ("obot", "reflexive"): _obot_reflexive,
    ("obot", "generic-pairs-rejected"): _obot_generic_rejected,
    ("refinement", "identity-arrow-fixes-frame"): _refinement_identity,
    ("refinement", "composition-functoriality"): _refinement_functorial,
    ("refinement", "lifted-permutation-equivariance"): _refinement_lift_equivariance,
    ("partitions", "conjugate-involution"): _partitions_involution,
    ("partitions", "conjugation-reverses-dominance"): _partitions_conjugate_dominance,
    ("partitions", "refinement-implies-dominance"): _partitions_refinement_dominance,
    ("partitions", "jump-sum-recovers-largest-part"): _partitions_jump_sum,
    ("partitions", "symmetry-factors-count-parts"): _partitions_symmetry_count,
    ("reconstruction", "hidden-map-round-trip"): _reconstruction_roundtrip,
    ("reconstruction", "rejects-distorted-oracle"): _reconstruction_rejects_distortion,
    ("falsify", "breaks-linkage"): partial(_falsify_trial, eps=FALSIFY_EPS),
    ("falsify", "zero-distortion-control"): partial(_falsify_trial, eps=0.0),
}


def _property(suite, name):
    return next(p for p in suites._REGISTRY[suite] if p.name == name)


def _streams(cfg, name, trials):
    return [trial_rng(cfg.seed, cfg.suite, name, t) for t in trials]


def _assert_same_outcomes(cfg, name, trials):
    """The batched property and its one-trial oracle agree on every trial."""
    batched = _property(cfg.suite, name).run(cfg, trials, _streams(cfg, name, trials))
    oracle = ORACLES[cfg.suite, name]
    expected = [oracle(cfg, t, rng) for t, rng in zip(trials, _streams(cfg, name, trials))]
    assert len(batched) == len(expected)
    for trial, got, want in zip(trials, batched, expected):
        if isinstance(want, (bool, np.bool_)):
            assert bool(got) == bool(want), (cfg, name, trial)
        else:
            assert abs(float(got) - float(want)) <= 1e-13, (cfg, name, trial, got, want)


# trials per cell where the one-trial forms are slow; other suites take 170
_ORACLE_TRIALS = {"clr": 120, "obot": 60, "reconstruction": 60}


class TestBatchedPropertiesMatchOracles:
    # ambient 3..8 (2..8 for obot and refinement) x both fields: 2040 trials
    # per property (1440 for clr, 840 for obot, 2380 for refinement); ambient
    # 7 and 8 sample their partitions instead of cycling through them
    @pytest.mark.parametrize("suite, name", sorted(ORACLES))
    def test_same_outcomes_as_one_trial_forms(self, suite, name):
        trials = _ORACLE_TRIALS.get(suite, 170)
        for n in range(2 if suite in ("obot", "refinement") else 3, 9):
            for field in FIELDS:
                cfg = SuiteConfig(suite, n, field, trials=trials, seed=20 + n)
                _assert_same_outcomes(cfg, name, range(trials))

    def test_every_batched_property_has_an_oracle(self):
        # every property takes chunks; none runs through a per-trial adapter
        batched = {(suite, p.name) for suite, props in suites._REGISTRY.items() for p in props}
        assert batched == set(ORACLES)
        assert {suite for suite, _ in batched} == set(suites.list_suites())
        assert not hasattr(suites, "_per_trial")

    @pytest.mark.parametrize(
        "name", ["image-lines-independent", "image-preserves-sum-dimension"]
    )
    def test_rejection_redraws_keep_each_stream_order(self, name, monkeypatch):
        # a floor this high rejects most general frames, so most trials of a
        # batch redraw while their neighbours do not
        monkeypatch.setattr(frames, "_CONDITION_FLOOR", 0.25)
        for field in FIELDS:
            cfg = SuiteConfig("clr-bis", 4, field, trials=60, seed=3)
            _assert_same_outcomes(cfg, name, range(60))

    @pytest.mark.parametrize(
        "suite, name",
        [
            ("pfr", "eversion-involution"),
            ("pfr", "eversion-commutes-with-permutations"),
            ("eversion-order", "conjugate-transport-commutes"),
            ("obot", "reflexive"),
            ("obot", "generic-pairs-rejected"),
        ],
    )
    def test_redraws_on_mixed_shape_chunks(self, suite, name, monkeypatch):
        # the trials of one chunk draw different shapes, and most redraw
        monkeypatch.setattr(frames, "_CONDITION_FLOOR", 0.25)
        for field in FIELDS:
            cfg = SuiteConfig(suite, 5, field, trials=60, seed=3)
            _assert_same_outcomes(cfg, name, range(60))


def _reference_gaussians(n, field, rng, accept):
    """The one-matrix rejection loop: (accepted draw, draws made)."""
    draws = 0
    while True:
        g = gaussian(rng, (n, n), field)
        draws += 1
        if accept(np.linalg.svd(g, compute_uv=False)):
            return g, draws


class TestStackedRejection:
    @pytest.mark.parametrize("field", FIELDS)
    def test_map_redraws_follow_each_stream(self, field, monkeypatch):
        n, cap = 4, 4.0
        monkeypatch.setattr(induced, "_MAX_CONDITION", cap)
        got = random_semilinear_stack(n, field, [np.random.default_rng(k) for k in range(40)])
        redraws = 0
        for k in range(40):
            rng = np.random.default_rng(k)
            want, draws = _reference_gaussians(n, field, rng, lambda s: s[0] <= cap * s[-1])
            redraws += draws - 1
            assert np.array_equal(got[k], want)
        assert redraws > 40

    @pytest.mark.parametrize("field", FIELDS)
    def test_frame_redraws_follow_each_stream(self, field, monkeypatch):
        monkeypatch.setattr(frames, "_CONDITION_FLOOR", 0.25)
        n = 4
        rngs = [np.random.default_rng(k) for k in range(40)]
        got = random_frame_stack(n, [_line_shape(n)] * 40, field, False, rngs)
        redraws = 0
        for k in range(40):
            rng = np.random.default_rng(k)
            want, draws = _reference_gaussians(n, field, rng, lambda s: s[-1] > 0.25 * s[0])
            redraws += draws - 1
            want = want / np.linalg.norm(want, axis=0)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-15)
            # the stream stands where the one-frame loop left it
            assert rngs[k].random() == rng.random()
        assert redraws > 40


def _shapes(n):
    return (IntPartition((1,) * n), IntPartition((2, 2) + (1,) * (n - 4)))


def _pis(n, count):
    parts = list(set_partitions(n))
    return [parts[(7 * k) % len(parts)] for k in range(count)]


class TestScalarIsBatchOfOne:
    """Each scalar form equals row k of its stacked call, bit for bit."""

    B = 6

    def _rngs(self, offset=0):
        return [np.random.default_rng(offset + k) for k in range(self.B)]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("orthogonal", [True, False])
    @pytest.mark.parametrize("n", [4, 7])
    def test_random_frame(self, n, orthogonal, field):
        for shape in _shapes(n):
            stack = random_frame_stack(n, [shape] * self.B, field, orthogonal, self._rngs())
            for k, rng in enumerate(self._rngs()):
                frame = random_frame(n, shape, field, orthogonal, rng)
                assert frame.shape == shape and sound_frame(frame, orthogonal=orthogonal)
                assert np.array_equal(frame.stacked_basis(), stack[k])

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_semilinear(self, field):
        stack = random_semilinear_stack(5, field, self._rngs())
        for k, rng in enumerate(self._rngs()):
            assert np.array_equal(random_semilinear(5, field, rng).matrix, stack[k])

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_linked_partner(self, n, field):
        pis = _pis(n, self.B)
        shape = _line_shape(n)
        bases = random_frame_stack(n, [shape] * self.B, field, False, self._rngs())
        stack = linked_partner_stack(bases, shape, pis, self._rngs(100))
        for k, rng in enumerate(self._rngs(100)):
            frame = random_frame(n, shape, field, False, np.random.default_rng(k))
            partner = linked_partner(frame, pis[k], rng)
            assert np.array_equal(partner.stacked_basis(), stack[k])

    def test_linked_partner_of_block_frames(self):
        shape = IntPartition((2, 2, 1))
        pi = Tableau(3, (frozenset({1, 3}), frozenset({2})))
        bases = random_frame_stack(5, [shape] * self.B, COMPLEX, True, self._rngs())
        stack = linked_partner_stack(bases, shape, [pi] * self.B, self._rngs(100))
        for k, rng in enumerate(self._rngs(100)):
            frame = random_frame(5, shape, COMPLEX, True, np.random.default_rng(k))
            partner = linked_partner(frame, pi, rng)
            assert sound_frame(partner, orthogonal=True)
            assert np.array_equal(partner.stacked_basis(), stack[k])
            assert pi_linked(frame, partner, pi, 1e-8)

    @pytest.mark.parametrize("field", FIELDS)
    def test_induced_on_frame(self, field):
        n = 5
        conj = np.array([field == COMPLEX and k % 2 == 1 for k in range(self.B)])
        maps = [
            random_semilinear(n, field, rng, CONJUGATION if c else IDENTITY)
            for rng, c in zip(self._rngs(), conj)
        ]
        matrices = np.stack([m.matrix for m in maps])
        for shape in _shapes(n):
            bases = random_frame_stack(n, [shape] * self.B, field, True, self._rngs(50))
            stack = induced_on_frame_stack(matrices, conj, bases, [shape] * self.B)
            for k, rng in enumerate(self._rngs(50)):
                frame = random_frame(n, shape, field, True, rng)
                image = induced_on_frame(maps[k], frame)
                assert np.array_equal(image.stacked_basis(), stack[k])

    def test_real_frame_under_complex_maps_is_promoted(self):
        lines = [_line_shape(4)] * self.B
        bases = random_frame_stack(4, lines, REAL, True, self._rngs())
        matrices = random_semilinear_stack(4, COMPLEX, self._rngs(9))
        conj = np.ones(self.B, dtype=bool)
        stack = induced_on_frame_stack(matrices, conj, bases, lines)
        assert stack.dtype == np.complex128
        np.testing.assert_allclose(
            np.abs(np.sum(stack.conj() * (matrices @ bases), axis=1)),
            np.linalg.norm(matrices @ bases, axis=1),
        )

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [4, 7])
    def test_refine_map(self, n, field):
        arrows = [suites._coarsening(_random_set_partition(n, rng), rng) for rng in self._rngs()]
        fine = [arrow.fine.shape for arrow in arrows]
        assert len(set(fine)) > 1
        # some arrow sends a later fine block to an earlier coarse block
        assert any(list(arrow.block_map) != sorted(arrow.block_map) for arrow in arrows)
        bases = random_frame_stack(n, fine, field, False, self._rngs(30))
        stack = refine_map_stack(bases, fine, arrows)
        for k, arrow in enumerate(arrows):
            out = refine_map(_frame(bases[k].copy(), fine[k]), arrow)
            assert out.shape == arrow.coarse.shape
            assert np.array_equal(out.stacked_basis(), stack[k])

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [4, 7])
    def test_pi_linked(self, n, field):
        shape = _line_shape(n)
        pis = _pis(n, self.B)
        a = random_frame_stack(n, [shape] * self.B, field, True, self._rngs())
        # alternate linked partners and independent frames
        b = linked_partner_stack(a, shape, pis, self._rngs(10))
        b[1::2] = random_frame_stack(n, [shape] * (self.B // 2), field, True, self._rngs(20)[1::2])
        verdicts = pi_linked_stack(a, b, shape, pis, 1e-8)
        assert verdicts[0::2].all() and not verdicts[1::2].all()
        for k in range(self.B):
            fa = frames._frame(a[k], shape)
            fb = frames._frame(b[k], shape)
            assert pi_linked(fa, fb, pis[k], 1e-8) == verdicts[k]


def _mixed_shapes(n, count):
    shapes = list(partitions_of(n))
    return [shapes[(5 * k) % len(shapes)] for k in range(count)]


class TestEversionIsBatchOfOne:
    """Scalar eversion and its transport equal row k of the stacked calls, bit
    for bit, on stacks of mixed shapes; a bad frame or map anywhere in a
    stack raises a library error."""

    B = 9

    def _rngs(self, offset=0):
        return [np.random.default_rng(offset + k) for k in range(self.B)]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("orthogonal", [True, False])
    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_evert(self, n, orthogonal, field):
        shapes = _mixed_shapes(n, self.B)
        assert len(set(shapes)) > 2
        bases = random_frame_stack(n, shapes, field, orthogonal, self._rngs())
        stack = evert_stack(bases, shapes)
        for k, rng in enumerate(self._rngs()):
            frame = random_frame(n, shapes[k], field, orthogonal, rng)
            assert np.array_equal(frame.stacked_basis(), bases[k])
            out = evert(frame)
            assert out.shape == shapes[k] and sound_frame(out, orthogonal=orthogonal)
            assert np.array_equal(out.stacked_basis(), stack[k])

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_permute(self, n):
        shapes = _mixed_shapes(n, self.B)
        bases = random_frame_stack(n, shapes, COMPLEX, False, self._rngs())
        sigmas = [suites._random_legal_permutation(s, rng) for s, rng in zip(shapes, self._rngs(50))]
        assert any(list(sigma) != sorted(sigma) for sigma in sigmas)
        stack = permute_stack(bases, shapes, sigmas)
        for k, sigma in enumerate(sigmas):
            out = permute(_frame(bases[k].copy(), shapes[k]), sigma)
            assert np.array_equal(out.stacked_basis(), stack[k])
        swap = [tuple(range(len(s.parts)))[::-1] for s in shapes]
        with pytest.raises(IllegalPermutationError):
            permute_stack(bases, shapes, swap)

    @pytest.mark.parametrize("field", FIELDS)
    def test_evert_conjugate(self, field):
        maps = [
            random_semilinear(6, field, rng, CONJUGATION if field == COMPLEX and k % 2 else IDENTITY)
            for k, rng in enumerate(self._rngs())
        ]
        stack = evert_conjugate_stack(np.stack([m.matrix for m in maps]))
        for k, m in enumerate(maps):
            out = evert_conjugate(m)
            assert out.automorphism == m.automorphism
            assert np.array_equal(out.matrix, stack[k])

    def test_induced_on_mixed_shapes(self):
        n = 6
        shapes = _mixed_shapes(n, self.B)
        matrices = random_semilinear_stack(n, COMPLEX, self._rngs())
        conj = np.arange(self.B) % 2 == 1
        bases = random_frame_stack(n, shapes, COMPLEX, False, self._rngs(30))
        stack = induced_on_frame_stack(matrices, conj, bases, shapes)
        for k, rng in enumerate(self._rngs(30)):
            m = random_semilinear(n, COMPLEX, self._rngs()[k], CONJUGATION if conj[k] else IDENTITY)
            image = induced_on_frame(m, random_frame(n, shapes[k], COMPLEX, False, rng))
            assert np.array_equal(image.stacked_basis(), stack[k])

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_dependent_frame_raises(self, field):
        shapes = _mixed_shapes(5, self.B)
        bases = random_frame_stack(5, shapes, field, False, self._rngs())
        bases[4, :, -1] = bases[4, :, 0]
        with pytest.raises(SingularMatrixError):
            evert_stack(bases, shapes)

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_non_finite_frame_raises(self, field):
        shapes = _mixed_shapes(5, self.B)
        bases = random_frame_stack(5, shapes, field, False, self._rngs())
        bases[4, 2, 1] = np.nan
        with pytest.raises(NonFiniteError):
            evert_stack(bases, shapes)

    def test_one_singular_or_non_finite_map_raises(self):
        matrices = random_semilinear_stack(4, REAL, self._rngs())
        singular = matrices.copy()
        singular[3, :, 0] = 2.0 * singular[3, :, 1]
        with pytest.raises(SingularMatrixError):
            evert_conjugate_stack(singular)
        nearly = matrices.copy()
        nearly[3, :, 0] = singular[3, :, 0] + 1e-12 * matrices[3, :, 0]
        with pytest.raises(SingularMatrixError):
            evert_conjugate_stack(nearly)
        for bad, error in ((np.nan, NonFiniteError), (np.inf, FrameRigidityError)):
            non_finite = matrices.copy()
            non_finite[3, 0, 0] = bad
            with pytest.raises(error):
                evert_conjugate_stack(non_finite)

    def test_maps_of_no_dimension_raise(self):
        # a matrix without singular values is refused, as SemilinearMap refuses it
        with pytest.raises(SingularMatrixError):
            evert_conjugate_stack(np.zeros((2, 0, 0)))


class TestFramesKeepTheirArrays:
    """A frame holds one read-only stacked basis, taken over when it is
    built from a fresh one, and its components are read-only views of it."""

    def _assert_read_only(self, frame):
        stacked = frame.stacked_basis()
        assert not stacked.flags.writeable
        for c in frame.components:
            assert not c.basis.flags.writeable
            assert np.shares_memory(c.basis, stacked)
            with pytest.raises(ValueError):
                c.basis[0, 0] = 1.0

    def _derived_frames(self):
        """A sampled frame and every scalar form's result from it."""
        rng = np.random.default_rng(5)
        shape = IntPartition((2, 2, 1))
        t = random_frame(5, shape, COMPLEX, False, rng)
        pi = Tableau(3, (frozenset({1, 3}), frozenset({2})))
        m = random_semilinear(5, COMPLEX, rng)
        fine = Tableau(5, ((1, 2), (3, 4), (5,)))
        coarsening = reverse_refines(fine, Tableau(5, ((1, 2, 5), (3, 4))))
        return (
            t,
            random_frame(5, shape, REAL, True, rng),
            evert(t),
            linked_partner(t, pi, rng),
            induced_on_frame(m, t),
            permute(t, (1, 0, 2)),
            refine_map(t, coarsening),
        )

    def test_sampled_and_derived_frames(self):
        for frame in self._derived_frames():
            self._assert_read_only(frame)

    def test_constructed_frames(self):
        # the components handed in are stacked once; the frame's own
        # components are views of that basis, equal to them
        handed = [random_subspace(5, 2, COMPLEX, np.random.default_rng(k)) for k in range(2)]
        handed.append(Subspace.from_columns(np.ones((5, 1)), field=COMPLEX))
        frame = FrameTuple(handed)
        self._assert_read_only(frame)
        for c, h in zip(frame.components, handed):
            assert np.array_equal(c.basis, h.basis) and not np.shares_memory(c.basis, h.basis)

    def test_a_subspace_holds_only_its_basis(self):
        # the ambient is the basis's row count; a basis of another row count
        # than the ambient handed in is still refused
        assert Subspace.__slots__ == ("basis",)
        basis = np.eye(4)[:, :2]
        assert Subspace(4, basis).ambient == 4
        assert Subspace._view(basis[:, :1]).ambient == 4
        for ambient, bad in ((3, basis), (5, basis), (4, basis[:, 0])):
            with pytest.raises(ValueError):
                Subspace(ambient, bad)

    def test_a_frame_holds_only_its_basis_and_shape(self, monkeypatch):
        assert FrameTuple.__slots__ == ("_basis", "shape", "_components")
        views = []
        real_view = Subspace._view.__func__
        monkeypatch.setattr(
            Subspace, "_view", classmethod(lambda cls, *a: views.append(a) or real_view(cls, *a))
        )
        frames_ = self._derived_frames()
        assert views == []
        for frame in frames_:
            assert frame._components is None
            assert not any(hasattr(frame, name) for name in ("_stacked", "_shape", "__dict__"))
            assert len(frame) == len(frame.shape.parts) and frame.ambient == 5
            assert frame.components is frame.components
        assert len(views) == sum(len(frame.shape.parts) for frame in frames_)

    def test_the_basis_is_kept_not_copied(self):
        basis = np.linalg.qr(np.random.default_rng(6).standard_normal((4, 4))).Q
        layouts = frames._component_layout.cache_info()
        frame = frames._frame(basis, IntPartition((2, 1, 1)))
        assert frames._component_layout.cache_info() == layouts
        assert frame.stacked_basis() is basis
        assert not basis.flags.writeable


def _component_lists(shapes):
    """Each basis's components, each a list of its columns."""
    out = []
    for shape in shapes:
        start, groups = 0, []
        for d in shape.parts:
            groups.append(list(range(start, start + d)))
            start += d
        out.append(groups)
    return out


def _assert_layout(layout, groups_per_trial, n):
    """``layout`` against the one built from Python lists: every group in
    trial and then group order, and the same groups by column count."""
    flat = [(k, cols) for k, groups in enumerate(groups_per_trial) for cols in groups]
    want = {
        "trials": [k for k, _ in flat],
        "starts": [cols[0] for _, cols in flat],
        "sizes": [len(cols) for _, cols in flat],
        "masks": [[[c in cols for c in range(n)]] for _, cols in flat],
    }
    for name, value in want.items():
        got, value = getattr(layout, name), np.array(value)
        assert got.dtype == value.dtype and np.array_equal(got, value), name
    by_size = {}
    for k, cols in flat:
        trials, columns = by_size.setdefault(len(cols), ([], []))
        trials.append(k)
        columns.append(cols)
    assert [k for k, _, _ in layout.by_size] == sorted(by_size)
    for k, trials, index in layout.by_size:
        assert trials.dtype == index.dtype == np.intp
        assert np.array_equal(trials, by_size[k][0])
        # row r of column c of basis t lies at t n^2 + r n + c of the stack
        positions = [
            [[t * n * n + r * n + c for r in range(n)] for c in cols]
            for t, cols in zip(*by_size[k])
        ]
        assert np.array_equal(index, np.array(positions).reshape(-1, k, n))
    # the group of every column of every basis
    labels = [
        [j for c in range(n) for j, cols in enumerate(groups) if c in cols]
        for groups in groups_per_trial
    ]
    assert layout.labels.dtype == np.intp and np.array_equal(layout.labels, labels)
    arrays = [*layout[:4], layout.labels, *(a for _, t, i in layout.by_size for a in (t, i))]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        layout.starts[0] = 1


@pytest.mark.parametrize("n", range(2, 9))
def test_component_layout_matches_the_list_built_form(n):
    rng = np.random.default_rng(n)
    shapes = list(partitions_of(n))
    for size in (1, 5, 40):
        chosen = tuple(shapes[k] for k in rng.integers(len(shapes), size=size))
        _assert_layout(frames._component_layout(chosen, n), _component_lists(chosen), n)


@pytest.mark.parametrize("n", range(2, 9))
def test_block_mask_matches_the_list_built_form(n):
    rng = np.random.default_rng(100 + n)
    shapes = list(partitions_of(n))
    for shape in (shapes[-1], shapes[rng.integers(len(shapes))], shapes[0]):
        tableaux = list(set_partitions(len(shape.parts)))
        for size in (1, 5, 40):
            pis = tuple(tableaux[k] for k in rng.integers(len(tableaux), size=size))
            mask = frames._block_mask(shape, pis, n)
            assert mask.dtype == bool and np.array_equal(mask, ~_off_block(shape, pis))
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0, 0, 0] = False


def test_layouts_are_cached_and_refuse_a_shape_of_another_width():
    shapes = (IntPartition((2, 1)), IntPartition((1, 1, 1)))
    pis = (Tableau(2, ((1,), (2,))), Tableau(2, ((1, 2),)))
    for cached, key in (
        (frames._component_layout, (shapes, 3)),
        (frames._block_mask, (shapes[0], pis, 3)),
    ):
        cached.cache_clear()
        assert cached(*key) is cached(*key)
        assert cached.cache_info()[:2] == (1, 1)
    with pytest.raises(ShapeMismatchError):
        frames._component_layout(shapes, 4)
    with pytest.raises(ShapeMismatchError):
        frames._block_mask(shapes[0], pis, 4)
    with pytest.raises(ShapeMismatchError):
        frames._block_mask(shapes[1], pis, 3)


def test_a_chunk_builds_each_layout_once(monkeypatch):
    """Each distinct layout and mask that a pfr chunk and an eversion-order
    chunk ask for is built once: the caches hold a chunk's working set."""
    asked = {}
    for name in ("_component_layout", "_block_mask"):
        cached = getattr(frames, name)
        cached.cache_clear()
        keys = asked[cached] = set()

        def asking(*key, cached=cached, keys=keys):
            keys.add(key)
            return cached(*key)

        monkeypatch.setattr(frames, name, asking)
    for suite in ("pfr", "eversion-order"):
        # ten trials: every property runs one chunk
        report = suites.run_suite(SuiteConfig(suite, ambient=8, trials=10, seed=4))
        assert all(p.passed for p in report.properties)
    assert sum(len(keys) for keys in asked.values()) >= 8
    for cached, keys in asked.items():
        assert keys and cached.cache_info().misses == len(keys)


class TestBigobotStack:
    """Each row of ``bigobot_stack`` is both directions of the per-meet
    oracle, and its batch of one; the scalar ``bigobot`` reads that batch."""

    B = 9
    TOL = 1e-9

    def _check(self, a, b, shapes_a, shapes_b):
        forward, backward = bigobot_stack(a, b, shapes_a, shapes_b, self.TOL)
        for k in range(self.B):
            s = _frame(a[k].copy(), shapes_a[k])
            t = _frame(b[k].copy(), shapes_b[k])
            assert _bigobot_per_meet(s, t, self.TOL) == (forward[k], backward[k]), k
            one = slice(k, k + 1)
            row = bigobot_stack(a[one], b[one], shapes_a[one], shapes_b[one], self.TOL)
            assert (row[0][0], row[1][0]) == (forward[k], backward[k])
            if forward[k] == backward[k]:
                assert bigobot(s, t, self.TOL) == forward[k]
        return forward, backward

    def _frames(self, n, field, orthogonal, offset):
        shapes = _mixed_shapes(n, self.B)[offset % 3 :] + _mixed_shapes(n, self.B)[: offset % 3]
        rngs = [np.random.default_rng(offset + k) for k in range(self.B)]
        return random_frame_stack(n, shapes, field, orthogonal, rngs), shapes

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("orthogonal", [True, False])
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_independent_frames(self, n, orthogonal, field):
        a, shapes_a = self._frames(n, field, orthogonal, 0)
        b, shapes_b = self._frames(n, field, orthogonal, 101)
        forward, backward = self._check(a, b, shapes_a, shapes_b)
        # only a frame with one component, the whole space, splits against an
        # independent one
        trivial = [len(sa.parts) == 1 or len(sb.parts) == 1 for sa, sb in zip(shapes_a, shapes_b)]
        assert list(forward) == list(backward) == trivial

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_common_basis_groupings(self, n, field):
        # the columns of one general basis, grouped along two shapes after a
        # permutation: every component is the sum of its shared columns
        rng = np.random.default_rng(n)
        m = np.stack([gaussian(rng, (n, n), field) for _ in range(self.B)])
        perms = np.array([rng.permutation(n) for _ in range(self.B)])
        shapes_a = _mixed_shapes(n, self.B)
        shapes_b = shapes_a[3:] + shapes_a[:3]
        a = span_components(m, shapes_a)
        b = span_components(np.take_along_axis(m, perms[:, None, :], axis=2), shapes_b)
        forward, backward = self._check(a, b, shapes_a, shapes_b)
        assert forward.all() and backward.all()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [4, 7])
    def test_shared_components(self, n, field):
        # b keeps the first component of a and redraws the others: that
        # component splits, the others do not, so only one-component frames do
        a, shapes = self._frames(n, field, False, 7)
        rng = np.random.default_rng(70 + n)
        fresh = np.stack([gaussian(rng, (n, n), field) for _ in range(self.B)])
        first = np.array([s.parts[0] for s in shapes])
        keep = (np.arange(n) < first[:, None])[:, None, :]
        b = span_components(np.where(keep, a, fresh), shapes)
        forward, backward = self._check(a, b, shapes, shapes)
        assert list(forward) == list(backward) == [len(s.parts) == 1 for s in shapes]

    def test_orthogonal_frames_against_their_own_columns(self):
        # every component is the sum of its columns, each line of one component
        n = 6
        a, shapes = self._frames(n, COMPLEX, True, 3)
        lines = [_line_shape(n)] * self.B
        forward, backward = self._check(a, a, shapes, lines)
        assert forward.all() and backward.all()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("eps", [1e-12, 1e-3])
    def test_one_shared_direction_rotated(self, eps, n, field):
        # two groupings of one Haar basis, then one column of b rotated by eps
        # toward a column that lies in other components of both frames: the
        # frames split within the band at tol 1e-9 and fall apart outside it
        rng = np.random.default_rng(n)
        proper = [s for s in partitions_of(n) if len(s.parts) > 1]
        shapes_a = [proper[(5 * k) % len(proper)] for k in range(self.B)]
        shapes_b = [proper[(3 * k + 1) % len(proper)] for k in range(self.B)]
        a = np.stack([haar(rng, (n, n), field) for _ in range(self.B)])
        perms = np.array([rng.permutation(n) for _ in range(self.B)])
        b = np.take_along_axis(a, perms[:, None, :], axis=2)
        for k in range(self.B):
            label_a = np.repeat(np.arange(len(shapes_a[k].parts)), shapes_a[k].parts)[perms[k]]
            label_b = np.repeat(np.arange(len(shapes_b[k].parts)), shapes_b[k].parts)
            apart = (label_a[:, None] != label_a) & (label_b[:, None] != label_b)
            c, other = np.argwhere(apart)[0]
            b[k, :, c] = np.cos(eps) * b[k, :, c] + np.sin(eps) * b[k, :, other]
        b = span_components(b, shapes_b)
        forward, backward = self._check(a, b, shapes_a, shapes_b)
        assert list(forward) == list(backward) == [eps < self.TOL] * self.B

    def test_one_principal_angle_svd_per_dimension_and_no_spans(self, monkeypatch):
        a, shapes_a = self._frames(7, COMPLEX, False, 0)
        b, shapes_b = self._frames(7, COMPLEX, False, 101)
        widths = []
        angles = frames.principal_angles
        monkeypatch.setattr(
            frames, "principal_angles", lambda qa, qb: widths.append(qa.shape[-1]) or angles(qa, qb)
        )
        for name in ("span_stack", "residual_norms"):
            monkeypatch.setattr(frames, name, lambda *args: pytest.fail("bigobot spans"))
        bigobot_stack(a, b, shapes_a, shapes_b, self.TOL)
        assert sorted(widths) == sorted({d for shape in shapes_a for d in shape.parts})

    def test_mismatched_frames_refused(self):
        t = random_frame(3, _line_shape(3), REAL, False, np.random.default_rng(0))
        u = random_frame(4, _line_shape(4), REAL, False, np.random.default_rng(0))
        with pytest.raises(AmbientMismatchError):
            bigobot(t, u)
        basis = t.stacked_basis()[None]
        with pytest.raises(FieldMismatchError):
            bigobot_stack(basis, basis + 0j, [t.shape], [t.shape])

    def test_asymmetric_rows_raise_in_the_scalar_form(self, monkeypatch):
        def asymmetric(a, b, shapes_a, shapes_b, tol):
            return np.ones(len(a), dtype=bool), np.zeros(len(a), dtype=bool)

        monkeypatch.setattr(frames, "bigobot_stack", asymmetric)
        t = random_frame(3, _line_shape(3), REAL, False, np.random.default_rng(0))
        with pytest.raises(InconsistencyError):
            bigobot(t, t)


class TestSpanComponentsErrors:
    """A component that loses rank raises ShapeMismatchError, whether it is
    a line or a block."""

    @pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1)])
    def test_zeroed_column(self, parts):
        m = np.stack([np.eye(3), np.eye(3)])
        m[1, :, 0] = 0.0
        with pytest.raises(ShapeMismatchError):
            span_components(m, [IntPartition(parts)] * 2)

    def test_zeroed_block(self):
        m = np.stack([np.eye(3), np.eye(3)])
        m[1, :, :2] = 0.0
        with pytest.raises(ShapeMismatchError):
            span_components(m, [IntPartition((2, 1))] * 2)

    def test_non_finite_entry(self):
        m = np.stack([np.eye(3), np.eye(3)])
        m[1, 2, 2] = np.nan
        for parts in [(1, 1, 1), (3,)]:
            with pytest.raises(NonFiniteError):
                span_components(m, [IntPartition(parts)] * 2)

    def test_one_shape_per_basis(self):
        with pytest.raises(ShapeMismatchError):
            span_components(np.stack([np.eye(3)] * 2), [IntPartition((2, 1))])

    # the shape, and the first column and width of one of its components
    WIDE = [((3, 2, 1), 0, 3), ((3, 2, 1), 3, 2), ((2, 2, 1, 1), 0, 2)]

    @staticmethod
    def _bases(field, parts, size=4):
        rngs = [np.random.default_rng(k) for k in range(size)]
        return random_frame_stack(6, [IntPartition(parts)] * size, field, False, rngs)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("parts, first, width", WIDE)
    def test_non_finite_entry_in_a_wide_component(self, parts, first, width, bad, field):
        m = self._bases(field, parts)
        m[2, 4, first + 1] = bad
        with pytest.raises(NonFiniteError):
            span_components(m, [IntPartition(parts)] * len(m))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("dependent", [True, False], ids=["dependent", "tiny"])
    @pytest.mark.parametrize("parts, first, width", WIDE)
    def test_rank_deficient_wide_component(self, parts, first, width, dependent, field):
        # a dependent column, or a whole component of norm far below tol,
        # which is full rank relative to its own scale
        m = self._bases(field, parts)
        if dependent:
            m[1, :, first + width - 1] = 2.0 * m[1, :, first]
        else:
            m[1, :, first : first + width] *= 1e-12
        with pytest.raises(ShapeMismatchError, match="lost rank"):
            span_components(m, [IntPartition(parts)] * len(m))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    @pytest.mark.parametrize("parts, first, width", WIDE)
    def test_huge_wide_component_is_rescaled(self, parts, first, width, scale, field):
        # at 1e308 the top singular value overflows and span_stack rescales
        m = self._bases(field, parts)
        shapes = [IntPartition(parts)] * len(m)
        m[3, :, first : first + width] *= scale
        got = span_components(m, shapes)
        assert got.tobytes() == _span_stack_route(m, shapes).tobytes()
        block = got[3, :, first : first + width]
        np.testing.assert_allclose(block.conj().T @ block, np.eye(width), atol=1e-14)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_rank_equals_the_span_stack_route(self, n, field):
        rngs = [np.random.default_rng([n, k]) for k in range(40)]
        shapes = [_random_shape(n, rng) for rng in rngs]
        m = np.stack([gaussian(rng, (n, n), field) for rng in rngs])
        assert span_components(m, shapes).tobytes() == _span_stack_route(m, shapes).tobytes()

    @pytest.mark.parametrize(
        "parts", [[(2,), (1, 1, 1, 1)], [(2,), (2,)], [(1, 1, 1, 1)] * 2, [(2, 1), (3, 1)]]
    )
    @pytest.mark.parametrize("entry", ["span_components", "evert_stack", "induced_on_frame_stack"])
    def test_shapes_must_partition_the_basis_width(self, entry, parts):
        # mixed and uniform shapes of 2 or 4 columns on 3-column bases
        m = np.stack([np.eye(3)] * 2)
        shapes = [IntPartition(p) for p in parts]
        call = {
            "span_components": lambda: span_components(m, shapes),
            "evert_stack": lambda: evert_stack(m, shapes),
            "induced_on_frame_stack": lambda: induced_on_frame_stack(
                m, np.zeros(2, dtype=bool), m, shapes
            ),
        }[entry]
        with pytest.raises(ShapeMismatchError, match="not a partition of 3"):
            call()

    @pytest.mark.parametrize("parts", [(1, 1), (1, 1, 1, 1)])
    def test_linkage_shape_must_partition_the_basis_width(self, parts):
        # (1, 1) judged only two of the three lines, (1, 1, 1, 1) indexed a
        # fourth column
        m = np.stack([np.eye(3)] * 2)
        shape = IntPartition(parts)
        pis = [Tableau(len(parts), ((1, 2),) + tuple((k,) for k in range(3, len(parts) + 1)))] * 2
        with pytest.raises(ShapeMismatchError, match="not a partition of 3"):
            pi_linked_stack(m, m, shape, pis)
        with pytest.raises(ShapeMismatchError, match="not a partition of 3"):
            linked_partner_stack(m, shape, pis, [np.random.default_rng(0)] * 2)


def _span_stack_route(m, shapes):
    """``span_components`` as one ``span_stack`` per column width, the route
    every width took before the full-rank SVD."""
    out = np.empty(m.shape, m.dtype)
    for d, _, index in frames._components_of(m, shapes).by_size:
        u, rank = span_stack(frames._gather(m, index))
        assert rank.min() == d
        out.reshape(-1)[index] = u.swapaxes(1, 2)
    return out


def _stacked_calls(a, fit):
    """Each stacked form on the ``(B, n, n)`` line frames ``a``, with one of
    its per-trial lists passed through ``fit``."""
    n, size = a.shape[-1], len(a)
    lines = [_line_shape(n)] * size
    pis = [Tableau(n, ((1, 2),) + tuple((k,) for k in range(3, n + 1)))] * size
    arrows = [reverse_refines(Tableau.singletons(n), pis[0])] * size
    sigmas = [(1, 0) + tuple(range(2, n))] * size
    rngs = [np.random.default_rng(k) for k in range(size)]
    conj = np.zeros(size, dtype=bool)
    return {
        "frame_distances": lambda: frame_distances(a, a, fit(lines)),
        "bigobot_stack-shapes_a": lambda: bigobot_stack(a, a, fit(lines), lines),
        "bigobot_stack-shapes_b": lambda: bigobot_stack(a, a, lines, fit(lines)),
        "permute_stack-shapes": lambda: permute_stack(a, fit(lines), sigmas),
        "permute_stack-sigmas": lambda: permute_stack(a, lines, fit(sigmas)),
        "linked_partner_stack-pis": lambda: linked_partner_stack(a, lines[0], fit(pis), rngs),
        "linked_partner_stack-rngs": lambda: linked_partner_stack(a, lines[0], pis, fit(rngs)),
        "pi_linked_stack": lambda: pi_linked_stack(a, a, lines[0], fit(pis)),
        "refine_map_stack-shapes": lambda: refine_map_stack(a, fit(lines), arrows),
        "refine_map_stack-arrows": lambda: refine_map_stack(a, lines, fit(arrows)),
        "span_components": lambda: span_components(a, fit(lines)),
        "evert_stack": lambda: evert_stack(a, fit(lines)),
        "induced_on_frame_stack": lambda: induced_on_frame_stack(a, conj, a, fit(lines)),
        "induced_on_frame_stack-conj": lambda: induced_on_frame_stack(a, fit(conj), a, lines),
        "induced_line_map_stack-conj": lambda: induced_line_map_stack(a, fit(conj)),
        "random_frame_stack": lambda: random_frame_stack(n, fit(lines), REAL, True, rngs),
    }


class TestOneEntryPerTrial:
    """A per-trial list of another length than the stack raises
    ``ShapeMismatchError``: numpy would otherwise broadcast its first entry,
    leave later rows unset or unjudged, or index past its end."""

    B = 3

    @pytest.mark.parametrize("count", [1, B + 1], ids=["short", "long"])
    @pytest.mark.parametrize("form", sorted(_stacked_calls(np.eye(4)[None], list)))
    def test_count_mismatch_raises(self, form, count):
        rngs = [np.random.default_rng(k) for k in range(self.B)]
        a = random_frame_stack(4, [_line_shape(4)] * self.B, REAL, False, rngs)
        call = _stacked_calls(a, lambda seq: [seq[k % len(seq)] for k in range(count)])[form]
        with pytest.raises(ShapeMismatchError, match=f"^{count} "):
            call()


def _off_block(shape, pis):
    """The ``(B, n, n)`` mask of the entries, in component coordinates, whose
    row and column lie in different blocks of trial k's tableau ``pis[k]``."""
    component = np.repeat(np.arange(len(shape.parts)), shape.parts)
    labels = np.array(
        [[next(k for k, b in enumerate(pi.blocks) if c + 1 in b) for c in component] for pi in pis]
    )
    return labels[:, :, None] != labels[:, None, :]


def _linkage_cases(n, shape, field, count, seed):
    """General frames of ``shape`` and partners of four kinds, each with the
    verdict both linkage rules must give at tol 1e-8: linked partners,
    independent frames, and linked partners pushed off every block by 1e-3
    and by 1e-12 (``eps`` times a Gaussian off-block transition added, then
    every component re-spanned), which lie far outside the band where an
    off-block coefficient and a principal-angle sine may disagree."""
    rngs = [np.random.default_rng(seed + k) for k in range(3 * count)]
    parts = list(set_partitions(len(shape.parts)))
    pis = [parts[(5 * k + seed) % len(parts)] for k in range(count)]
    shapes = [shape] * count
    a = random_frame_stack(n, shapes, field, False, rngs[:count])
    linked = linked_partner_stack(a, shape, pis, rngs[count : 2 * count])
    independent = random_frame_stack(n, shapes, field, False, rngs[2 * count :])
    off = _off_block(shape, pis)
    # a tableau of one block links any two frames
    one_block = ~off.any(axis=(1, 2))
    push = gaussian(np.random.default_rng(seed), (count, n, n), field) * off
    cases = [(linked, np.ones(count, dtype=bool)), (independent, one_block)]
    for eps, holds in ((1e-3, one_block), (1e-12, np.ones(count, dtype=bool))):
        cases.append((span_components(linked + eps * (a @ push), shapes), holds))
    return a, pis, cases


class TestClosedFormLinkage:
    """The closed-form linkage against the residual-sine rule, and its
    refusals."""

    TOL = 1e-8

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_the_residual_sine_rule(self, n, field):
        shapes = {_line_shape(n), IntPartition((2,) * (n // 2) + (1,) * (n % 2))}
        if n >= 5:
            shapes.add(IntPartition((2, 2) + (1,) * (n - 4)))
        for shape in sorted(shapes):
            a, pis, cases = _linkage_cases(n, shape, field, 12, 10 * n)
            for b, holds in cases:
                verdicts = pi_linked_stack(a, b, shape, pis, self.TOL)
                assert np.array_equal(verdicts, holds), (n, shape)
                for k, pi in enumerate(pis):
                    fa, fb = _frame(a[k], shape), _frame(b[k], shape)
                    assert _linked_by_sines(fa, fb, pi, self.TOL) == holds[k], (n, shape, k)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("shape", [_line_shape(4), IntPartition((2, 2, 1)), _line_shape(7)])
    def test_symmetric(self, shape, field):
        a, pis, cases = _linkage_cases(shape.n, shape, field, 8, 3)
        for b, _ in cases:
            for k, pi in enumerate(pis):
                fa, fb = _frame(a[k], shape), _frame(b[k], shape)
                assert pi_linked(fa, fb, pi, self.TOL) == pi_linked(fb, fa, pi, self.TOL)

    @pytest.mark.parametrize("gap", [0.0, 1e-12], ids=["dependent", "nearly-dependent"])
    def test_a_side_that_is_no_basis_raises(self, gap):
        # a partner whose second line is (nearly) its first: it is no frame,
        # either order of the two sides is refused, and it has no partner
        shape, pi = _line_shape(4), Tableau(4, ((1, 2), (3,), (4,)))
        a = random_frame_stack(4, [shape], COMPLEX, False, [np.random.default_rng(1)])
        b = a.copy()
        b[0, :, 1] = b[0, :, 0] + gap * a[0, :, 1]
        b = span_components(b, [shape])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(SingularMatrixError):
                pi_linked_stack(x, y, shape, [pi], self.TOL)
        with pytest.raises(SingularMatrixError):
            linked_partner_stack(b, shape, [pi], [np.random.default_rng(2)])

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("dependent", SingularMatrixError),
            ("dependent-across-blocks", SingularMatrixError),
            ("nan", NonFiniteError),
            ("zero", ZeroInputError),
            ("short-tableaux", ShapeMismatchError),
        ],
    )
    def test_a_refused_partner_draws_nothing(self, bad, error):
        # the refusal comes before any generator of the stack draws
        shape, pi = _line_shape(4), Tableau(4, ((1, 2), (3,), (4,)))
        rngs = [np.random.default_rng(k) for k in range(3)]
        bases = random_frame_stack(4, [shape] * 3, REAL, False, rngs)
        pis = [pi] * 3
        if bad == "dependent":
            bases[1, :, 1] = bases[1, :, 0]
        elif bad == "dependent-across-blocks":
            # each block spans its dimension, the frame does not
            bases[2, :, 3] = unit_columns(bases[2, :, :1] + bases[2, :, 2:3])[:, 0]
        elif bad == "nan":
            bases[2, 0, 0] = np.nan
        elif bad == "zero":
            bases[1, :, 2] = 0.0
        else:
            pis = pis[:2]
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(error):
            linked_partner_stack(bases, shape, pis, rngs)
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_one_tableau_per_frame(self):
        a = np.stack([np.eye(3)] * 2)
        with pytest.raises(ShapeMismatchError):
            pi_linked_stack(a, a, _line_shape(3), [Tableau.singletons(3)], self.TOL)

    def test_one_solve_and_no_spans(self, monkeypatch):
        shape = _line_shape(5)
        a, pis, cases = _linkage_cases(5, shape, COMPLEX, 6, 1)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda x, y: solves.append(1) or solve(x, y))
        for name in ("span_stack", "residual_norms"):
            monkeypatch.setattr(frames, name, lambda *args: pytest.fail("linkage spans"))
        pi_linked_stack(a, cases[0][0], shape, pis, self.TOL)
        assert len(solves) == 1

    def test_a_partner_is_one_draw_one_qr_and_no_block_spans(self, monkeypatch):
        # a chunk of mixed tableaux: each generator fills one n x n remix,
        # the whole chunk takes one QR, and only the components are spanned
        n, count = 5, 8
        shape = _line_shape(n)
        rngs = [np.random.default_rng(k) for k in range(2 * count)]
        a = random_frame_stack(n, [shape] * count, COMPLEX, False, rngs[:count])
        pis = _pis(n, count)
        assert len(set(pis)) > 1
        calls = {}

        def counting(module, name):
            f, calls[name] = getattr(module, name), 0

            def call(*args):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(module, name, call)

        for name in ("gaussian_stack", "span_components", "span_stack"):
            counting(frames, name)
        counting(np.linalg, "qr")
        linked_partner_stack(a, shape, pis, rngs[count:])
        # one span of the lines of the chunk, which span_components makes
        assert calls == {"gaussian_stack": 1, "span_components": 1, "span_stack": 1, "qr": 1}


def _maps(n, field, count, seed):
    """``count`` maps, every other one conjugate-linear over the complex field:
    the stacked matrices and flags, and the maps."""
    rngs = [np.random.default_rng(seed + k) for k in range(count)]
    matrices = random_semilinear_stack(n, field, rngs)
    conj = np.array([field == COMPLEX and k % 2 == 1 for k in range(count)])
    maps = [SemilinearMap(m, CONJUGATION if c else IDENTITY) for m, c in zip(matrices, conj)]
    return matrices, conj, maps


def _counting(oracle, calls):
    def ask(lines):
        calls.append(lines.shape)
        return oracle(lines)

    return ask


class TestStackedReconstruction:
    """The stacked line-oracle protocol: two oracle calls per stack, each
    row as its own batch of one, refusals as a mask."""

    B = 6

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_two_calls_and_the_rows_of_one(self, n, field):
        matrices, conj, maps = _maps(n, field, self.B, 10 * n)
        calls = []
        oracle = _counting(induced_line_map_stack(matrices, conj), calls)
        got, got_conj, refused = reconstruct_from_line_images_stack(oracle, self.B, n, field)
        probes = 2 * n - 1 + (field == COMPLEX)
        assert calls == [(self.B, n, probes), (self.B, n, 50)]
        assert not refused.any()
        assert list(got_conj) == list(conj)
        for k, m in enumerate(maps):
            one, one_conj, _ = reconstruct_from_line_images_stack(
                induced_line_map_stack(matrices[k : k + 1], conj[k : k + 1]), 1, n, field
            )
            assert one_conj[0] == conj[k]
            np.testing.assert_allclose(one[0], got[k], rtol=0, atol=1e-12)
            lam = np.vdot(m.matrix, got[k]) / np.vdot(m.matrix, m.matrix)
            np.testing.assert_allclose(got[k], lam * m.matrix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_distorted_trials_are_refused_in_place(self, field):
        n = 4
        matrices, conj, _ = _maps(n, field, self.B, 3)
        honest = induced_line_map_stack(matrices, conj)
        warp = cubic_line_distortion_stack(0.1)
        distorted = np.arange(self.B) % 3 == 0

        def oracle(lines):
            return np.where(distorted[:, None, None], honest(warp(lines)), honest(lines))

        _, _, refused = reconstruct_from_line_images_stack(oracle, self.B, n, field)
        assert list(refused) == list(distorted)
        for k in range(self.B):
            one = induced_line_map_stack(matrices[k : k + 1], conj[k : k + 1])
            _, _, one_refused = reconstruct_from_line_images_stack(
                lambda lines: one(warp(lines)), 1, n, field
            )
            assert one_refused[0]

    def test_a_singular_candidate_skips_the_sweep(self):
        # every line to one line, the stacked form of the collapsing oracle
        # of test_induced: the candidate has rank one
        target = np.ones((3, 1)) / np.sqrt(3.0)
        calls = []
        oracle = _counting(lambda lines: np.broadcast_to(target, lines.shape), calls)
        _, _, refused = reconstruct_from_line_images_stack(oracle, self.B, 3, REAL)
        assert refused.all() and len(calls) == 1

    def test_images_of_the_wrong_shape_are_degenerate(self):
        with pytest.raises(DegenerateOracleError):
            reconstruct_from_line_images_stack(lambda lines: lines[..., :-1], self.B, 3, REAL)

    @pytest.mark.parametrize("field", FIELDS)
    def test_distortion_is_columnwise(self, field):
        rng = np.random.default_rng(4)
        lines = gaussian(rng, (self.B, 5, 7), field)
        warp = cubic_line_distortion_stack(0.1)
        stacked = warp(lines)
        for k in range(self.B):
            for p in range(7):
                one = warp(lines[k, :, p : p + 1])
                np.testing.assert_allclose(one[:, 0], stacked[k, :, p], rtol=0, atol=1e-15)


class TestChunking:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "suite",
        [
            "clr", "pfr-perp", "clr-bis", "pfr", "eversion-order", "obot",
            "refinement", "reconstruction", "falsify",
        ],
    )
    def test_reports_do_not_depend_on_the_chunk(self, suite, field, monkeypatch):
        cfg = SuiteConfig(suite, 7, field, trials=20, seed=4)
        reports = set()
        for chunk in (1, 7, 128):
            monkeypatch.setattr(suites, "_CHUNK", chunk)
            reports.add(run_suite(cfg).determinism_bytes())
        assert len(reports) == 1

    def test_a_batch_must_return_one_outcome_per_trial(self):
        prop = suites._Property("short", lambda cfg, trials, rngs: [True] * (len(trials) - 1))
        with pytest.raises(ValueError):
            suites._run_property(SuiteConfig("partitions", trials=3), prop)
