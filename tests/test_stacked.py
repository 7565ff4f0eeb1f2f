"""Stacked trials: the batched suite properties against their one-trial forms,
the stacked samplers' rejection loops, and the scalar frame API as the batch
of one of the stacked API."""

import numpy as np
import pytest

from frame_rigidity import frames, suites
from frame_rigidity.errors import (
    FrameRigidityError,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
)
from frame_rigidity.frames import (
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
    evert_conjugate,
    evert_conjugate_stack,
    induced_on_frame,
    induced_on_frame_stack,
    random_semilinear,
    random_semilinear_stack,
    random_unitary_map,
)
from frame_rigidity.linalg import COMPLEX, REAL, gaussian
from frame_rigidity.partitions import IntPartition, Tableau, partitions_of, set_partitions
from frame_rigidity.rng import trial_rng
from frame_rigidity.suites import (
    SuiteConfig,
    _frame_distance,
    _line_shape,
    _partition_for_trial,
    _random_automorphism,
    _random_legal_permutation,
    _random_map,
    _random_shape,
    run_suite,
)

FIELDS = (REAL, COMPLEX)


# -- the one-trial forms of the batched properties, kept as oracles ---------------


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


ORACLES = {
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


class TestBatchedPropertiesMatchOracles:
    # 12 cells of 170 trials: 2040 trials per property; ambient 7 and 8 sample
    # their partitions instead of cycling through them
    @pytest.mark.parametrize("suite, name", sorted(ORACLES))
    def test_same_outcomes_as_one_trial_forms(self, suite, name):
        for n in range(3, 9):
            for field in FIELDS:
                cfg = SuiteConfig(suite, n, field, trials=170, seed=20 + n)
                _assert_same_outcomes(cfg, name, range(170))

    def test_every_batched_property_has_an_oracle(self):
        # every property that does not run through the per-trial adapter
        batched = {
            (suite, p.name)
            for suite, props in suites._REGISTRY.items()
            for p in props
            if not getattr(p.run, "__qualname__", "").startswith("_per_trial.")
        }
        assert batched == set(ORACLES)
        assert {suite for suite, _ in batched} == {
            "clr-bis", "pfr-perp", "pfr", "eversion-order"
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
    def test_map_redraws_follow_each_stream(self, field):
        n, cap = 4, 4.0
        got = random_semilinear_stack(n, field, [np.random.default_rng(k) for k in range(40)], cap)
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


class TestChunking:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "suite", ["pfr-perp", "clr-bis", "pfr", "eversion-order", "falsify"]
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
