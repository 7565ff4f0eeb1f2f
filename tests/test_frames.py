"""Tests for frame tuples: construction, linkage, refinement, eversion, splitting,
and the reference soundness check the sampler tests use."""

import numpy as np
import pytest

from frame_rigidity import frames
from frame_rigidity.errors import (
    AmbientMismatchError,
    FieldMismatchError,
    IllegalPermutationError,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroInputError,
)
from frame_rigidity.frames import (
    FrameTuple,
    bigobot,
    evert,
    linked_partner,
    linked_partner_stack,
    permute,
    pi_linked,
    pi_linked_stack,
    random_frame,
    random_frame_stack,
    refine_map,
    refine_map_stack,
)
from frame_rigidity.linalg import COMPLEX, REAL, adjoint, spectral_norm
from frame_rigidity.partitions import (
    IntPartition,
    Tableau,
    lift_coarse_permutation,
    partitions_of,
    reverse_refines,
    set_partitions,
)
from frame_rigidity.subspaces import Subspace, commeasurable
from test_subspaces import random_subspace


def line(*v) -> Subspace:
    return Subspace.from_columns(np.array([v], dtype=float).T)


def cline(v) -> Subspace:
    return Subspace.from_columns(np.array([v], dtype=complex).T)


def sound_frame(t: FrameTuple, tol: float = 1e-9, orthogonal: bool = False) -> bool:
    """Reference soundness check of a frame: full rank with condition number
    at most 1e6, and, when ``orthogonal``, a stacked basis ``M`` with
    ``M^H M = I`` within ``10 tol``."""
    m = t.stacked_basis()
    s = np.linalg.svd(m, compute_uv=False)
    # a rank-deficient frame has an infinite condition number
    if s[0] > 1e6 * s[-1]:
        return False
    return not orthogonal or np.abs(adjoint(m) @ m - np.eye(t.ambient)).max() <= 10.0 * tol


def standard_line_frame(n: int, field=REAL) -> FrameTuple:
    eye = np.eye(n, dtype=np.complex128 if field == COMPLEX else np.float64)
    return FrameTuple([Subspace(n, eye[:, [i]]) for i in range(n)], orthogonal=True)


class TestConstruction:
    def test_dims_must_sum_to_ambient(self):
        with pytest.raises(ShapeMismatchError):
            FrameTuple([line(1, 0, 0), line(0, 1, 0)])

    def test_dims_must_be_weakly_decreasing(self):
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        with pytest.raises(ShapeMismatchError):
            FrameTuple([line(0, 0, 1), plane])

    def test_field_mixing_rejected(self):
        with pytest.raises(FieldMismatchError):
            FrameTuple([line(1, 0), cline([0, 1])])

    def test_zero_dimensional_component_rejected(self):
        with pytest.raises(ShapeMismatchError):
            FrameTuple([Subspace.full(3), Subspace.zero(3)])

    def test_ambient_mixing_rejected(self):
        with pytest.raises(AmbientMismatchError):
            FrameTuple([line(1, 0, 0), line(0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FrameTuple([])

    def test_shape_property(self):
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        t = FrameTuple([plane, line(0, 0, 1)])
        assert t.shape == IntPartition((2, 1))

    def test_shape_built_once(self):
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        t = FrameTuple([plane, line(0, 0, 1)])
        assert t.shape is t.shape

    def test_immutable(self):
        t = standard_line_frame(2)
        with pytest.raises(AttributeError):
            t.shape = IntPartition((2,))

    @pytest.mark.parametrize("skew", [1.0, 1e-7, np.nan])
    def test_false_orthogonality_claim_refused(self, skew):
        # the claim is checked against M^H M = I, not kept
        lines = [line(1, 0), Subspace(2, np.array([[skew], [1.0]]) / np.hypot(skew, 1.0))]
        with pytest.raises(ValueError, match="claimed orthogonal"):
            FrameTuple(lines, orthogonal=True)
        assert FrameTuple([line(1, 0), line(0, 1)], orthogonal=True).shape == IntPartition((1, 1))


class TestValidate:
    """The reference check :func:`sound_frame`, which the sampler tests rely
    on, accepts sound frames and refuses each kind of defect."""

    def test_standard_frame_valid(self):
        assert sound_frame(standard_line_frame(3))

    def test_repeated_line_is_rank_deficient(self):
        assert not sound_frame(FrameTuple([line(1, 0), line(1, 0)]))

    def test_orthogonality_checked_on_request(self):
        assert not sound_frame(FrameTuple([line(1, 0), line(1, 1)]), orthogonal=True)
        assert sound_frame(standard_line_frame(3), orthogonal=True)

    def test_near_dependent_flagged_as_conditioning(self):
        assert not sound_frame(FrameTuple([line(1, 0), line(1, 1e-7)]))

    def test_skew_but_wellconditioned_frame_valid(self):
        assert sound_frame(FrameTuple([line(1, 0), line(1, 1)]))


class TestPiLinked:
    def test_one_block_links_any_valid_frames(self):
        rng = np.random.default_rng(52)
        shape = IntPartition((1, 1, 1))
        a = random_frame(3, shape, REAL, False, rng)
        b = random_frame(3, shape, REAL, False, rng)
        assert pi_linked(a, b, Tableau.one_block(3), 1e-8)

    def test_singletons_mean_componentwise_equality(self):
        rng = np.random.default_rng(53)
        shape = IntPartition((1, 1, 1))
        a = random_frame(3, shape, COMPLEX, False, rng)
        b = random_frame(3, shape, COMPLEX, False, rng)
        fine = Tableau.singletons(3)
        assert pi_linked(a, a, fine, 1e-8)
        assert not pi_linked(a, b, fine, 1e-8)

    def test_hand_block_example(self):
        a = standard_line_frame(3)
        b = FrameTuple([line(1, 1, 0), line(1, -1, 0), line(0, 0, 1)])
        pi = Tableau(3, (frozenset({1, 2}), frozenset({3})))
        assert pi_linked(a, b, pi, 1e-9)
        assert not pi_linked(a, b, Tableau.singletons(3), 1e-9)

    def test_shape_mismatch_raises(self):
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        a = FrameTuple([plane, line(0, 0, 1)])
        b = standard_line_frame(3)
        with pytest.raises(ShapeMismatchError):
            pi_linked(a, b, Tableau.singletons(3))

    def test_partition_must_index_components(self):
        a = standard_line_frame(3)
        with pytest.raises(ShapeMismatchError):
            pi_linked(a, a, Tableau.singletons(4))

    def test_linked_partner_is_linked(self):
        rng = np.random.default_rng(54)
        for n in (3, 4, 5):
            shape = IntPartition((1,) * n)
            for pi in set_partitions(n):
                for field in (REAL, COMPLEX):
                    a = random_frame(n, shape, field, False, rng)
                    b = linked_partner(a, pi, rng)
                    assert pi_linked(a, b, pi, 1e-8)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "shape",
        [IntPartition((1,) * n) for n in range(3, 9)] + [IntPartition((2, 2, 1))],
        ids=str,
    )
    def test_linked_partner_on_orthogonal_frames_stays_orthogonal(self, shape, field):
        # every tableau at once: the stacked partners are unitary and linked,
        # and the scalar partners of a few are sound orthogonal frames
        pis = list(set_partitions(len(shape.parts)))
        rngs = [np.random.default_rng(55 + k) for k in range(2 * len(pis))]
        a = random_frame_stack(shape.n, [shape] * len(pis), field, True, rngs[: len(pis)])
        b = linked_partner_stack(a, shape, pis, rngs[len(pis) :])
        assert np.abs(adjoint(b) @ b - np.eye(shape.n)).max() <= 1e-12
        assert pi_linked_stack(a, b, shape, pis, 1e-8).all()
        rng = np.random.default_rng(55)
        for pi in pis[:: max(1, len(pis) // 8)]:
            t = random_frame(shape.n, shape, field, True, rng)
            partner = linked_partner(t, pi, rng)
            assert sound_frame(partner, orthogonal=True)

    def test_equivalence_relation_on_linked_triples(self):
        rng = np.random.default_rng(56)
        shape = IntPartition((1, 1, 1, 1))
        pi = Tableau(4, (frozenset({1, 2}), frozenset({3, 4})))
        a = random_frame(4, shape, REAL, False, rng)
        b = linked_partner(a, pi, rng)
        c = linked_partner(b, pi, rng)
        assert pi_linked(b, a, pi, 1e-8)          # symmetric
        assert pi_linked(a, c, pi, 1e-8)          # transitive
        assert pi_linked(a, a, pi, 1e-8)          # reflexive


class TestRefineMap:
    def test_identity_arrow_is_identity(self):
        rng = np.random.default_rng(60)
        t = random_frame(4, IntPartition((1, 1, 1, 1)), REAL, False, rng)
        arrow = reverse_refines(Tableau.singletons(4), Tableau.singletons(4))
        out = refine_map(t, arrow)
        assert all(x.equals(y) for x, y in zip(out.components, t.components))

    def test_full_coarsening_gives_ambient(self):
        rng = np.random.default_rng(61)
        t = random_frame(4, IntPartition((2, 1, 1)), COMPLEX, False, rng)
        fine = Tableau(4, (frozenset({1, 2}), frozenset({3}), frozenset({4})))
        arrow = reverse_refines(fine, Tableau.one_block(4))
        out = refine_map(t, arrow)
        assert len(out) == 1 and out.components[0].equals(Subspace.full(4, COMPLEX))

    def test_hand_line_coarsening(self):
        t = standard_line_frame(3)
        arrow = reverse_refines(
            Tableau.singletons(3), Tableau(3, (frozenset({1, 2}), frozenset({3})))
        )
        out = refine_map(t, arrow)
        assert out.shape == IntPartition((2, 1))
        assert out.components[0].equals(
            Subspace.from_columns(np.eye(3)[:, :2])
        )
        assert out.components[1].equals(line(0, 0, 1))

    def test_hand_non_contiguous_coarsening(self):
        # lines 1 and 3 sum to coarse component 0 though line 2 lies between
        # them: {1, 3} is the larger block, so it comes first
        t = standard_line_frame(3)
        arrow = reverse_refines(Tableau.singletons(3), Tableau(3, ((1, 3), (2,))))
        assert arrow.block_map == (0, 1, 0)
        out = refine_map(t, arrow)
        assert out.shape == IntPartition((2, 1))
        # a stack of the frame and its reversal, coarsened along the same
        # arrow: the reversal's lines 1 and 3 are the same two axes
        bases = np.stack([np.eye(3), np.eye(3)[:, ::-1]])
        stack = refine_map_stack(bases, [t.shape] * 2, [arrow] * 2)
        assert np.array_equal(stack[0], out.stacked_basis())
        for basis in stack:
            plane, axis = basis[:, :2], basis[:, 2:]
            np.testing.assert_allclose(plane @ plane.T, np.diag([1.0, 0.0, 1.0]), atol=1e-15)
            np.testing.assert_allclose(axis @ axis.T, np.diag([0.0, 1.0, 0.0]), atol=1e-15)

    def test_block_size_dim_mismatch_raises(self):
        t = standard_line_frame(3)
        fine = Tableau(3, (frozenset({1, 2}), frozenset({3})))
        arrow = reverse_refines(fine, Tableau.one_block(3))
        with pytest.raises(ShapeMismatchError):
            refine_map(t, arrow)

    def test_one_mismatched_arrow_in_a_stack_raises(self):
        lines = IntPartition((1, 1, 1))
        fits = reverse_refines(Tableau.singletons(3), Tableau.one_block(3))
        misfit = reverse_refines(Tableau(3, ((1, 2), (3,))), Tableau.one_block(3))
        with pytest.raises(ShapeMismatchError, match="fine block sizes"):
            refine_map_stack(np.stack([np.eye(3)] * 3), [lines] * 3, [fits, misfit, fits])

    def test_functoriality_on_a_chain(self):
        from frame_rigidity.partitions import compose_refinements

        rng = np.random.default_rng(62)
        t = random_frame(4, IntPartition((1, 1, 1, 1)), REAL, False, rng)
        fine = Tableau.singletons(4)
        mid = Tableau(4, (frozenset({1, 2}), frozenset({3}), frozenset({4})))
        top = Tableau(4, (frozenset({1, 2, 3}), frozenset({4})))
        f = reverse_refines(fine, mid)
        g = reverse_refines(mid, top)
        two_step = refine_map(refine_map(t, f), g)
        one_step = refine_map(t, compose_refinements(f, g))
        assert all(x.equals(y, 1e-9) for x, y in zip(two_step, one_step))


class TestPermute:
    def test_identity(self):
        t = standard_line_frame(3)
        out = permute(t, (0, 1, 2))
        assert all(x.equals(y) for x, y in zip(out, t))

    def test_swap_lines(self):
        t = standard_line_frame(3)
        out = permute(t, (1, 0, 2))
        assert out.components[0].equals(t.components[1])
        assert out.components[1].equals(t.components[0])

    def test_cross_dimension_swap_rejected(self):
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        t = FrameTuple([plane, line(0, 0, 1)])
        with pytest.raises(IllegalPermutationError):
            permute(t, (1, 0))

    @pytest.mark.parametrize("sigma", [(1.9, 0.2, 2.7), (1.0, 0.0, 2.0), (True, False, 2)])
    def test_non_integral_permutation_rejected(self, sigma):
        with pytest.raises(IllegalPermutationError):
            permute(standard_line_frame(3), sigma)

    def test_numpy_integer_permutation_accepted(self):
        t = standard_line_frame(3)
        out = permute(t, np.array([1, 0, 2]))
        assert out.components[0].equals(t.components[1])


class TestEvert:
    def test_fixes_orthogonal_frames(self):
        rng = np.random.default_rng(70)
        for field in (REAL, COMPLEX):
            t = random_frame(5, IntPartition((2, 1, 1, 1)), field, True, rng)
            out = evert(t)
            assert all(x.equals(y, 1e-9) for x, y in zip(out, t))

    def test_involution_on_general_frames(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            shape = _random_shape(n, rng)
            field = REAL if rng.integers(2) == 0 else COMPLEX
            t = random_frame(n, shape, field, False, rng)
            back = evert(evert(t))
            assert all(x.equals(y, 1e-7) for x, y in zip(back, t))

    def test_hand_two_dim_example(self):
        t = FrameTuple([line(1, 0), line(1, 1)])
        out = evert(t)
        assert out.components[0].equals(line(1, -1))
        assert out.components[1].equals(line(0, 1))

    def test_dual_pairing_for_line_frames(self):
        # everted line i is orthogonal to every original line except the i-th
        rng = np.random.default_rng(72)
        t = random_frame(4, IntPartition((1, 1, 1, 1)), COMPLEX, False, rng)
        out = evert(t)
        for i in range(4):
            for j in range(4):
                inner = abs(
                    (out.components[i].basis.conj().T @ t.components[j].basis)[0, 0]
                )
                if i == j:
                    assert inner > 1e-3
                else:
                    assert inner < 1e-10

    def test_generic_frame_moves(self):
        rng = np.random.default_rng(73)
        moved = 0
        for _ in range(50):
            t = random_frame(3, IntPartition((1, 1, 1)), REAL, False, rng)
            out = evert(t)
            if not all(x.equals(y, 1e-6) for x, y in zip(out, t)):
                moved += 1
        assert moved == 50

    def test_commutes_with_permutation(self):
        rng = np.random.default_rng(74)
        t = random_frame(4, IntPartition((1, 1, 1, 1)), REAL, False, rng)
        sigma = (2, 0, 3, 1)
        left = evert(permute(t, sigma))
        right = permute(evert(t), sigma)
        assert all(x.equals(y, 1e-9) for x, y in zip(left, right))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dual_basis_matches_definition(self, n):
        # the closed form against the definitional route, every shape of n
        rng = np.random.default_rng(75 + n)
        worst = 0.0
        for shape in partitions_of(n):
            for field in (REAL, COMPLEX):
                for orthogonal in (False, True):
                    for _ in range(5):
                        t = random_frame(n, shape, field, orthogonal, rng)
                        got = evert(t)
                        assert sound_frame(got, orthogonal=orthogonal)
                        worst = max(worst, _frame_distance(got, _evert_by_complements(t)))
        assert worst <= 1e-12

    def test_dependent_components_raise(self):
        t = FrameTuple([line(1, 0), line(1, 0)])
        with pytest.raises(SingularMatrixError):
            evert(t)

    def test_non_finite_basis_raises(self):
        t = FrameTuple([Subspace(2, np.array([[np.nan], [0.0]])), line(0, 1)])
        with pytest.raises(NonFiniteError):
            evert(t)

    def test_zero_column_raises(self):
        t = FrameTuple([Subspace(2, np.zeros((2, 1))), line(0, 1)])
        with pytest.raises(ZeroInputError):
            evert(t)


def _evert_by_complements(t: FrameTuple) -> FrameTuple:
    """Eversion by its definition: component i is the orthocomplement of the
    sum of all the other components."""
    comps = []
    for i in range(len(t)):
        others = [c.basis for j, c in enumerate(t.components) if j != i]
        if others:
            rest = Subspace.from_columns(np.hstack(others))
        else:
            rest = Subspace.zero(t.ambient, t.field)
        comps.append(rest.orthocomplement())
    return FrameTuple(comps)


def _frame_distance(s: FrameTuple, t: FrameTuple) -> float:
    return max(
        spectral_norm(x.projector() - y.projector()) for x, y in zip(s, t)
    )


def _random_shape(n, rng):
    shapes = list(partitions_of(n))
    return shapes[int(rng.integers(len(shapes)))]


class TestBigobot:
    def test_reflexive(self):
        rng = np.random.default_rng(80)
        t = random_frame(4, IntPartition((2, 1, 1)), REAL, False, rng)
        assert bigobot(t, t, 1e-8)

    def test_lines_against_their_grouping(self):
        a = standard_line_frame(3)
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        b = FrameTuple([plane, line(0, 0, 1)])
        assert bigobot(a, b, 1e-9)

    def test_skew_line_pairs_fail(self):
        a = FrameTuple([line(1, 0), line(0, 1)])
        b = FrameTuple([line(1, 1), line(1, -1)])
        assert not bigobot(a, b, 1e-9)

    def test_matches_commeasurability_on_complement_pairs(self):
        rng = np.random.default_rng(81)
        agree = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            field = REAL if rng.integers(2) == 0 else COMPLEX
            w1 = random_subspace(n, int(rng.integers(1, n)), field, rng)
            w2 = random_subspace(n, int(rng.integers(1, n)), field, rng)
            f1 = _complement_pair(w1)
            f2 = _complement_pair(w2)
            assert bigobot(f1, f2, 1e-8) == commeasurable(w1, w2, 1e-8)
            agree += 1
        assert agree == 200

    def test_commeasurable_pair_splits(self):
        # shared head, orthogonal tails: projectors commute and blocks split
        q = np.linalg.qr(np.random.default_rng(82).standard_normal((4, 4))).Q
        w1 = Subspace(4, q[:, :2])
        w2 = Subspace(4, q[:, [0, 2]])
        assert commeasurable(w1, w2, 1e-9)
        assert bigobot(_complement_pair(w1), _complement_pair(w2), 1e-8)


    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_each_meet_computed_once(self, n, monkeypatch):
        # both directions read one principal-angle stack of all n * n pairs
        calls = []
        original = frames.principal_angles

        def counted(qa, qb):
            calls.append(len(qa))
            return original(qa, qb)

        monkeypatch.setattr(frames, "principal_angles", counted)
        t = random_frame(n, IntPartition((1,) * n), COMPLEX, False, np.random.default_rng(83))
        assert bigobot(t, t, 1e-8)
        assert calls == [n * n]


def _complement_pair(w: Subspace) -> FrameTuple:
    comp = w.orthocomplement()
    pair = sorted([w, comp], key=lambda s: -s.dim)
    return FrameTuple(pair, orthogonal=True)


class TestRandomFrame:
    def test_single_component_is_full_space(self):
        rng = np.random.default_rng(90)
        t = random_frame(4, IntPartition((4,)), REAL, False, rng)
        assert t.components[0].equals(Subspace.full(4))

    def test_orthogonal_draws_validate(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            t = random_frame(5, IntPartition((2, 2, 1)), COMPLEX, True, rng)
            assert sound_frame(t, orthogonal=True)

    def test_general_draws_validate(self):
        rng = np.random.default_rng(92)
        for _ in range(100):
            t = random_frame(6, IntPartition((3, 2, 1)), REAL, False, rng)
            assert sound_frame(t)

    def test_shape_must_match_ambient(self):
        rng = np.random.default_rng(93)
        with pytest.raises(ShapeMismatchError):
            random_frame(3, IntPartition((2, 2)), REAL, False, rng)


class TestEquivariance:
    def test_refine_after_permute_matches_coarse_permute(self):
        from frame_rigidity.partitions import legal_permutations

        rng = np.random.default_rng(95)
        n = 4
        fine = Tableau.singletons(n)
        t = random_frame(n, IntPartition((1,) * n), COMPLEX, False, rng)
        checked = 0
        for coarse in set_partitions(n):
            arrow = reverse_refines(fine, coarse)
            for sigma_coarse in legal_permutations(coarse.shape):
                sigma_fine = lift_coarse_permutation(arrow, sigma_coarse)
                if sigma_fine is None:
                    continue
                left = refine_map(permute(t, sigma_fine), arrow)
                right = permute(refine_map(t, arrow), sigma_coarse)
                assert all(x.equals(y, 1e-9) for x, y in zip(left, right))
                checked += 1
        assert checked > 15


    def test_orthogonal_frames_stay_orthogonal(self):
        # orthogonality is read from the basis: regrouping and coarsening an
        # orthogonal frame keep M^H M = I
        rng = np.random.default_rng(97)
        t = random_frame(5, IntPartition((1,) * 5), COMPLEX, True, rng)
        arrow = reverse_refines(Tableau.singletons(5), Tableau(5, ((1, 4), (2, 5), (3,))))
        assert sound_frame(permute(t, (4, 2, 0, 3, 1)), orthogonal=True)
        assert sound_frame(refine_map(t, arrow), orthogonal=True)


class TestJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(96)
        t = random_frame(4, IntPartition((2, 1, 1)), COMPLEX, False, rng)
        back = FrameTuple.from_json(t.to_json())
        assert back.ambient == 4 and back.shape == t.shape
        assert all(x.equals(y, 1e-9) for x, y in zip(back, t))

    def test_shape_field_must_match(self):
        t = standard_line_frame(2)
        payload = t.to_json()
        payload["shape"] = [2]
        with pytest.raises(ShapeMismatchError):
            FrameTuple.from_json(payload)

    @staticmethod
    def _plane_and_line() -> dict:
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        return FrameTuple([plane, line(0, 0, 1)]).to_json()

    @pytest.mark.parametrize("shape", [[2.7, 1.2], [2.0, 1.0], [True, 1], ["2", "1"]])
    def test_non_integral_shape_refused(self, shape):
        payload = self._plane_and_line()
        payload["shape"] = shape
        with pytest.raises(ValueError):
            FrameTuple.from_json(payload)

    @pytest.mark.parametrize("ambient", [5, 2, np.int64(2)])
    def test_ambient_disagreeing_with_components_refused(self, ambient):
        payload = self._plane_and_line()
        payload["ambient"] = ambient
        with pytest.raises(AmbientMismatchError):
            FrameTuple.from_json(payload)

    @pytest.mark.parametrize(
        "ambient", [3.0, np.float64(3), True, "3"], ids=["float", "np-float", "bool", "str"]
    )
    def test_non_integral_ambient_refused(self, ambient):
        # read as the component codec reads it, not compared with ``!=``
        payload = self._plane_and_line()
        payload["ambient"] = ambient
        with pytest.raises(ValueError):
            FrameTuple.from_json(payload)

    def test_numpy_integer_ambient_read(self):
        payload = self._plane_and_line()
        payload["ambient"] = np.int64(3)
        assert FrameTuple.from_json(payload).ambient == 3
