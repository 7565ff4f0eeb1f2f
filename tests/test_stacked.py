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
    InconsistencyError,
    NonFiniteError,
    NotSemilinearError,
    ShapeMismatchError,
    SingularMatrixError,
)
from frame_rigidity.frames import (
    FrameTuple,
    _column_blocks,
    _components_by_size,
    _frame,
    bigobot,
    bigobot_stack,
    evert,
    evert_stack,
    linked_partner,
    linked_partner_stack,
    permute,
    pi_linked,
    pi_linked_stack,
    random_frame,
    random_frame_stack,
    span_components,
)
from frame_rigidity.induced import (
    CONJUGATION,
    IDENTITY,
    SemilinearMap,
    apply_to_subspace,
    cubic_line_distortion,
    cubic_line_distortion_stack,
    evert_conjugate,
    evert_conjugate_stack,
    induced_line_map,
    induced_line_map_stack,
    induced_on_frame,
    induced_on_frame_stack,
    random_semilinear,
    random_semilinear_stack,
    random_unitary_map,
    reconstruct_from_line_images,
    reconstruct_from_line_images_stack,
)
from frame_rigidity.linalg import (
    COMPLEX,
    REAL,
    gaussian,
    haar,
    residual_norms,
    spectral_norm,
)
from frame_rigidity.partitions import IntPartition, Tableau, partitions_of, set_partitions
from frame_rigidity.rng import trial_rng
from frame_rigidity.subspaces import Subspace, commeasurable, commeasurable_via_complements
from frame_rigidity.suites import (
    FALSIFY_EPS,
    SuiteConfig,
    _line_shape,
    _partition_for_trial,
    _random_automorphism,
    _random_legal_permutation,
    _random_shape,
    run_suite,
)
from test_subspaces import random_subspace

FIELDS = (REAL, COMPLEX)


# -- the one-trial forms of the batched properties, kept as oracles ---------------


def _frame_distance(s, t):
    """The largest projector distance ``|P_x - P_y|`` between matching
    components, from the projectors themselves."""
    return max(spectral_norm(x.projector() - y.projector()) for x, y in zip(s, t))


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
    return pi_linked(
        induced_on_frame(m, a, cfg.tol),
        induced_on_frame(m, b, cfg.tol),
        pi,
        10.0 * cfg.tol,
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
    before = pi_linked(a, b, pi, 10.0 * cfg.tol)
    after = pi_linked(
        induced_on_frame(m, a, cfg.tol),
        induced_on_frame(m, b, cfg.tol),
        pi,
        10.0 * cfg.tol,
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
    return pi_linked(evert(a), evert(b), pi, 10.0 * cfg.tol)


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
    u = random_unitary_map(cfg.ambient, cfg.field, rng, automorphism)
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
    return FrameTuple(comps, True)


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
    s = _frame(q, _random_shape(n, rng), True)
    t = _frame(q[:, perm], _random_shape(n, rng), True)
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


def _sequential_reconstruction(oracle, n, field, tol):
    """Reconstruction one oracle question at a time: ``lstsq`` for each
    two-term solve, and the sweep asked line by line up to the first
    deviation.  Returns the matrix and the automorphism, or raises
    ``NotSemilinearError``."""
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
    except SingularMatrixError as exc:
        raise NotSemilinearError("singular candidate") from exc
    probe_rng = np.random.default_rng(0x1D6A)
    for _ in range(50):
        v = gaussian(probe_rng, (n,), field).astype(dtype)
        line = Subspace.from_columns(v.reshape(n, 1))
        if not apply_to_subspace(candidate, line, tol).equals(oracle(line), tol):
            raise NotSemilinearError("sweep deviation")
    return matrix, automorphism


def _reconstruction_roundtrip(cfg, trial, rng):
    m = _random_map(cfg, rng)
    try:
        got, automorphism = _sequential_reconstruction(
            induced_line_map(m), cfg.ambient, cfg.field, cfg.tol
        )
    except NotSemilinearError:
        return 1.0
    if automorphism != m.automorphism:
        return 1.0
    hidden = m.matrix
    lam = np.vdot(hidden, got) / np.vdot(hidden, hidden)
    return float(np.linalg.norm(got - lam * hidden) / np.linalg.norm(got))


def _reconstruction_rejects_distortion(cfg, trial, rng):
    base = induced_line_map(_random_map(cfg, rng))
    warp = cubic_line_distortion(FALSIFY_EPS, cfg.tol)
    try:
        _sequential_reconstruction(lambda line: base(warp(line)), cfg.ambient, cfg.field, cfg.tol)
    except NotSemilinearError:
        return True
    return False


def _falsify_trial(cfg, trial, rng, eps):
    n = cfg.ambient
    pi = _partition_for_trial(n, trial, rng, breakable=True)
    a = random_frame(n, _line_shape(n), cfg.field, False, rng)
    b = linked_partner(a, pi, rng)
    warp = cubic_line_distortion(eps, cfg.tol)
    return pi_linked(
        FrameTuple([warp(c) for c in a.components]),
        FrameTuple([warp(c) for c in b.components]),
        pi,
        10.0 * cfg.tol,
    )


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
    # ambient 3..8 (2..8 for obot) x both fields: 2040 trials per property
    # (1440 for clr, 840 for obot); ambient 7 and 8 sample their partitions
    # instead of cycling through them
    @pytest.mark.parametrize("suite, name", sorted(ORACLES))
    def test_same_outcomes_as_one_trial_forms(self, suite, name):
        trials = _ORACLE_TRIALS.get(suite, 170)
        for n in range(2 if suite == "obot" else 3, 9):
            for field in FIELDS:
                cfg = SuiteConfig(suite, n, field, trials=trials, seed=20 + n)
                _assert_same_outcomes(cfg, name, range(trials))

    def test_every_batched_property_has_an_oracle(self):
        # every property that does not run through the per-trial adapter
        per_trial = {
            (suite, p.name): getattr(p.run, "__qualname__", "").startswith("_per_trial.")
            for suite, props in suites._REGISTRY.items()
            for p in props
        }
        batched = {key for key, adapted in per_trial.items() if not adapted}
        assert batched == set(ORACLES)
        assert {suite for suite, _ in batched} == {
            "clr", "clr-bis", "pfr-perp", "pfr", "eversion-order", "obot",
            "reconstruction", "falsify",
        }
        assert {suite for (suite, _), adapted in per_trial.items() if adapted} == {
            "refinement", "partitions"
        }

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
                assert frame.orthogonal == orthogonal and frame.shape == shape
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
            assert partner.orthogonal
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
            fa = frames._frame(a[k], shape, True)
            fb = frames._frame(b[k], shape, True)
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
            assert out.shape == shapes[k] and out.orthogonal == orthogonal
            assert np.array_equal(out.stacked_basis(), stack[k])

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
        with pytest.raises(SingularMatrixError):
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


class TestFramesKeepTheirArrays:
    """A frame built from a fresh stacked basis keeps that array, read-only,
    and its components are read-only views of it."""

    def _assert_read_only(self, frame):
        stacked = frame.stacked_basis()
        assert not stacked.flags.writeable
        for c in frame.components:
            assert not c.basis.flags.writeable
            assert np.shares_memory(c.basis, stacked)
            with pytest.raises(ValueError):
                c.basis[0, 0] = 1.0

    def test_sampled_and_derived_frames(self):
        rng = np.random.default_rng(5)
        shape = IntPartition((2, 2, 1))
        t = random_frame(5, shape, COMPLEX, False, rng)
        pi = Tableau(3, (frozenset({1, 3}), frozenset({2})))
        m = random_semilinear(5, COMPLEX, rng)
        for frame in (
            t,
            random_frame(5, shape, REAL, True, rng),
            evert(t),
            linked_partner(t, pi, rng),
            induced_on_frame(m, t),
        ):
            self._assert_read_only(frame)

    def test_the_basis_is_kept_not_copied(self):
        basis = np.linalg.qr(np.random.default_rng(6).standard_normal((4, 4))).Q
        frame = frames._frame(basis, IntPartition((2, 1, 1)), True)
        assert frame.stacked_basis() is basis
        assert not basis.flags.writeable


def _components_by_lists(shapes):
    """``_components_by_size`` built from Python index lists."""
    groups = {}
    for trial, shape in enumerate(shapes):
        for sl in _column_blocks(shape):
            trials, columns = groups.setdefault(sl.stop - sl.start, ([], []))
            trials.append(trial)
            columns.extend(range(sl.start, sl.stop))
    return {
        d: (np.array(trials), np.array(columns).reshape(-1, d))
        for d, (trials, columns) in groups.items()
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_components_by_size_matches_the_list_built_form(n):
    rng = np.random.default_rng(n)
    shapes = list(partitions_of(n))
    for size in (1, 5, 40):
        chosen = [shapes[k] for k in rng.integers(len(shapes), size=size)]
        got, want = _components_by_size(chosen, n), _components_by_lists(chosen)
        assert sorted(got) == sorted(want)
        for d in want:
            for x, y in zip(got[d], want[d]):
                assert x.dtype == y.dtype and np.array_equal(x, y)


class TestBigobotStack:
    """Each row of ``bigobot_stack`` is both directions of the per-meet
    oracle, and its batch of one; the scalar ``bigobot`` reads that batch."""

    B = 9
    TOL = 1e-9

    def _check(self, a, b, shapes_a, shapes_b):
        forward, backward = bigobot_stack(a, b, shapes_a, shapes_b, self.TOL)
        for k in range(self.B):
            s = _frame(a[k].copy(), shapes_a[k], False)
            t = _frame(b[k].copy(), shapes_b[k], False)
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
    """The stacked line-oracle protocol: two oracle calls per stack, the
    scalar reconstruction as its batch of one, refusals as a mask."""

    B = 6

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_two_calls_and_the_scalar_rows(self, n, field):
        matrices, conj, maps = _maps(n, field, self.B, 10 * n)
        calls = []
        oracle = _counting(induced_line_map_stack(matrices, conj), calls)
        got, got_conj, refused = reconstruct_from_line_images_stack(oracle, self.B, n, field)
        probes = 2 * n - 1 + (field == COMPLEX)
        assert calls == [(self.B, n, probes), (self.B, n, 50)]
        assert not refused.any()
        assert list(got_conj) == list(conj)
        for k, m in enumerate(maps):
            one = reconstruct_from_line_images(induced_line_map(m), n, field)
            assert one.automorphism == m.automorphism
            np.testing.assert_allclose(one.matrix, got[k], rtol=0, atol=1e-12)
            lam = np.vdot(m.matrix, got[k]) / np.vdot(m.matrix, m.matrix)
            np.testing.assert_allclose(got[k], lam * m.matrix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_distorted_trials_are_refused_in_place(self, field):
        n = 4
        matrices, conj, maps = _maps(n, field, self.B, 3)
        honest = induced_line_map_stack(matrices, conj)
        warp = cubic_line_distortion_stack(0.1)
        distorted = np.arange(self.B) % 3 == 0

        def oracle(lines):
            return np.where(distorted[:, None, None], honest(warp(lines)), honest(lines))

        _, _, refused = reconstruct_from_line_images_stack(oracle, self.B, n, field)
        assert list(refused) == list(distorted)
        scalar_warp = cubic_line_distortion(0.1)
        for m in maps:
            base = induced_line_map(m)
            with pytest.raises(NotSemilinearError):
                reconstruct_from_line_images(lambda line: base(scalar_warp(line)), n, field)

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

    def test_scalar_images_off_the_probes_must_be_lines(self):
        # a plane only for the sweep's random lines, whose coordinates are all nonzero
        def widen_off_axes(line):
            if np.count_nonzero(np.abs(line.basis) > 1e-12) > 2:
                return Subspace.from_columns(np.eye(3)[:, :2])
            return line

        with pytest.raises(DegenerateOracleError):
            reconstruct_from_line_images(widen_off_axes, 3, REAL)
        # a complex image of a real line is not a line of the same space
        with pytest.raises(DegenerateOracleError):
            reconstruct_from_line_images(
                lambda line: Subspace(3, line.basis.astype(np.complex128)), 3, REAL
            )

    @pytest.mark.parametrize("field", FIELDS)
    def test_distortion_is_columnwise(self, field):
        rng = np.random.default_rng(4)
        lines = gaussian(rng, (self.B, 5, 7), field)
        stacked = cubic_line_distortion_stack(0.1)(lines)
        scalar = cubic_line_distortion(0.1)
        for k in range(self.B):
            for p in range(7):
                one = scalar(Subspace.from_columns(lines[k, :, p : p + 1]))
                np.testing.assert_allclose(one.basis[:, 0], stacked[k, :, p], rtol=0, atol=1e-15)


class TestChunking:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "suite",
        [
            "clr", "pfr-perp", "clr-bis", "pfr", "eversion-order", "obot",
            "reconstruction", "falsify",
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
