"""Tests for semilinear maps, induced actions, polar transport, reconstruction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frame_rigidity.errors import (
    AmbientMismatchError,
    DegenerateConfigurationError,
    FieldMismatchError,
    NonFiniteError,
    NotSemilinearError,
    ShapeMismatchError,
    SingularMatrixError,
)
from frame_rigidity.frames import (
    FrameTuple,
    bigobot,
    evert,
    linked_partner,
    permute,
    pi_linked,
    random_frame,
    refine_map,
    validate,
)
from frame_rigidity.induced import (
    CONJUGATION,
    IDENTITY,
    SemilinearMap,
    apply_to_subspace,
    cubic_line_distortion,
    evert_conjugate,
    induced_line_map,
    induced_on_frame,
    is_unitary_up_to_scale,
    line_projection_construct,
    random_semilinear,
    random_unitary_map,
    reconstruct_from_line_images,
    scale_equivalent,
)
from frame_rigidity.linalg import COMPLEX, REAL, polar_decompose
from frame_rigidity.partitions import IntPartition, Tableau, set_partitions
from frame_rigidity.subspaces import Subspace, commeasurable, random_subspace


def line(*v):
    return Subspace.from_columns(np.array([v], dtype=float).T)


def cline(v):
    return Subspace.from_columns(np.array([v], dtype=complex).T)


class TestSemilinearMap:
    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            SemilinearMap(np.diag([1.0, 0.0]))

    def test_real_with_conjugation_rejected(self):
        with pytest.raises(ValueError):
            SemilinearMap(np.eye(2), CONJUGATION)

    def test_complex_conjugation_allowed(self):
        t = SemilinearMap(np.eye(2, dtype=complex), CONJUGATION)
        assert t.automorphism == CONJUGATION and t.field == COMPLEX

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            SemilinearMap(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_non_finite_matrix_refused(self, bad, field):
        m = np.array([[1.0, bad], [0.0, 1.0]], dtype=complex if field == COMPLEX else float)
        with pytest.raises(NonFiniteError):
            SemilinearMap(m)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(5)
        t = random_semilinear(3, COMPLEX, rng, CONJUGATION)
        back = SemilinearMap.from_json(t.to_json())
        assert back.automorphism == CONJUGATION
        assert_allclose(back.matrix, t.matrix, atol=1e-15)

    def test_json_keeps_conjugation_complex(self):
        t = SemilinearMap(np.eye(2, dtype=complex), CONJUGATION)
        back = SemilinearMap.from_json(t.to_json())
        assert back.field == COMPLEX and back.automorphism == CONJUGATION


class TestApplyToSubspace:
    def test_identity_fixes_everything(self):
        rng = np.random.default_rng(10)
        a = random_subspace(4, 2, REAL, rng)
        t = SemilinearMap(np.eye(4))
        assert apply_to_subspace(t, a).equals(a)

    def test_eigenline_is_fixed(self):
        t = SemilinearMap(np.diag([1.0, 2.0, 3.0]))
        a = line(0, 1, 0)
        assert apply_to_subspace(t, a).equals(a)

    def test_plain_conjugation_flips_imaginary_part(self):
        t = SemilinearMap(np.eye(2, dtype=complex), CONJUGATION)
        a = cline([1, 1j])
        expected = cline([1, -1j])
        assert apply_to_subspace(t, a).equals(expected)

    def test_dimension_preserved(self):
        rng = np.random.default_rng(11)
        t = random_semilinear(5, COMPLEX, rng)
        for d in (1, 2, 3, 4):
            a = random_subspace(5, d, COMPLEX, rng)
            assert apply_to_subspace(t, a).dim == d

    def test_real_subspace_promoted_under_complex_map(self):
        rng = np.random.default_rng(12)
        t = random_semilinear(3, COMPLEX, rng)
        a = random_subspace(3, 1, REAL, rng)
        assert apply_to_subspace(t, a).field == COMPLEX

    def test_complex_subspace_under_real_map_rejected(self):
        rng = np.random.default_rng(13)
        t = random_semilinear(3, REAL, rng)
        a = random_subspace(3, 1, COMPLEX, rng)
        with pytest.raises(FieldMismatchError):
            apply_to_subspace(t, a)

    def test_ambient_mismatch(self):
        t = SemilinearMap(np.eye(2))
        with pytest.raises(AmbientMismatchError):
            apply_to_subspace(t, line(1, 0, 0))


class TestLatticeFunctoriality:
    def test_sum_and_intersect_commute_with_map(self):
        rng = np.random.default_rng(20)
        for trial in range(30):
            n = int(rng.integers(3, 7))
            field = REAL if trial % 2 else COMPLEX
            auto = CONJUGATION if (field == COMPLEX and trial % 4 == 0) else IDENTITY
            t = random_semilinear(n, field, rng, auto)
            a = random_subspace(n, int(rng.integers(1, n + 1)), field, rng)
            b = random_subspace(n, int(rng.integers(1, n + 1)), field, rng)
            ta, tb = apply_to_subspace(t, a), apply_to_subspace(t, b)
            assert apply_to_subspace(t, a.sum(b)).equals(ta.sum(tb), 1e-7)
            assert apply_to_subspace(t, a.intersect(b)).equals(ta.intersect(tb), 1e-7)

    def test_containment_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = random_semilinear(5, COMPLEX, rng)
            a = random_subspace(5, 3, COMPLEX, rng)
            coeffs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            b = Subspace.from_columns(a.basis @ coeffs)
            assert apply_to_subspace(t, a).contains(apply_to_subspace(t, b), 1e-7)

    def test_orthogonal_lines_stay_independent(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            frame = random_frame(4, IntPartition((1, 1, 1, 1)), COMPLEX, True, rng)
            t = random_semilinear(4, COMPLEX, rng)
            image = induced_on_frame(t, frame)
            assert validate(image).ok
            assert not image.orthogonal  # generic maps break perpendicularity


class TestInducedOnFrame:
    def test_identity(self):
        rng = np.random.default_rng(30)
        frame = random_frame(4, IntPartition((2, 1, 1)), REAL, False, rng)
        out = induced_on_frame(SemilinearMap(np.eye(4)), frame)
        assert all(x.equals(y) for x, y in zip(out, frame))

    def test_unitary_keeps_orthogonality(self):
        rng = np.random.default_rng(31)
        frame = random_frame(4, IntPartition((2, 1, 1)), COMPLEX, True, rng)
        u = random_unitary_map(4, COMPLEX, rng)
        out = induced_on_frame(u, frame)
        assert out.orthogonal and validate(out).ok

    def test_eigenlines_fixed_by_diagonal(self):
        t = SemilinearMap(np.diag([2.0, 1.0, 1.0]))
        frame = FrameTuple([line(1, 0, 0), line(0, 1, 0), line(0, 0, 1)], orthogonal=True)
        out = induced_on_frame(t, frame)
        assert all(x.equals(y) for x, y in zip(out, frame))

    def test_scaled_unitary_detected(self):
        rng = np.random.default_rng(32)
        u = random_unitary_map(3, COMPLEX, rng)
        assert is_unitary_up_to_scale(SemilinearMap(2.5 * u.matrix))
        assert not is_unitary_up_to_scale(SemilinearMap(np.diag([1.0, 2.0, 1.0])))

    def test_pi_linkage_preserved_both_directions(self):
        rng = np.random.default_rng(33)
        shape = IntPartition((1, 1, 1, 1))
        for pi in set_partitions(4):
            a = random_frame(4, shape, COMPLEX, False, rng)
            b = linked_partner(a, pi, rng)
            t = random_semilinear(4, COMPLEX, rng, CONJUGATION)
            ta, tb = induced_on_frame(t, a), induced_on_frame(t, b)
            assert pi_linked(ta, tb, pi, 1e-7)
            # unlinked frames stay unlinked through the map
            c = random_frame(4, shape, COMPLEX, False, rng)
            if not pi_linked(a, c, pi, 1e-7):
                tc = induced_on_frame(t, c)
                assert not pi_linked(ta, tc, pi, 1e-7)

    def test_equivariant_under_permutations(self):
        rng = np.random.default_rng(34)
        frame = random_frame(4, IntPartition((1, 1, 1, 1)), REAL, False, rng)
        t = random_semilinear(4, REAL, rng)
        sigma = (3, 1, 0, 2)
        left = induced_on_frame(t, permute(frame, sigma))
        right = permute(induced_on_frame(t, frame), sigma)
        assert all(x.equals(y, 1e-8) for x, y in zip(left, right))

    def test_bigobot_preserved_for_orthogonal_frames(self):
        from frame_rigidity.partitions import Tableau, reverse_refines

        rng = np.random.default_rng(35)
        base = random_frame(4, IntPartition((1, 1, 1, 1)), COMPLEX, True, rng)
        arrow1 = reverse_refines(
            Tableau.singletons(4), Tableau(4, (frozenset({1, 2}), frozenset({3, 4})))
        )
        arrow2 = reverse_refines(
            Tableau.singletons(4), Tableau(4, (frozenset({1, 2, 3}), frozenset({4})))
        )
        a, b = refine_map(base, arrow1), refine_map(base, arrow2)
        assert bigobot(a, b, 1e-8)
        t = random_semilinear(4, COMPLEX, rng)
        assert bigobot(induced_on_frame(t, a), induced_on_frame(t, b), 1e-7)


class TestScaleEquivalent:
    def test_real_scaling(self):
        rng = np.random.default_rng(40)
        t = random_semilinear(3, REAL, rng)
        assert scale_equivalent(t, SemilinearMap(3.0 * t.matrix))

    def test_distinct_maps(self):
        assert not scale_equivalent(
            SemilinearMap(np.eye(2)), SemilinearMap(np.diag([1.0, 2.0]))
        )

    def test_unimodular_scaling(self):
        rng = np.random.default_rng(41)
        t = random_semilinear(3, COMPLEX, rng)
        for theta in rng.uniform(0, 2 * np.pi, size=5):
            scaled = SemilinearMap(np.exp(1j * theta) * t.matrix)
            assert scale_equivalent(t, scaled)

    def test_automorphism_must_match(self):
        m = np.eye(2, dtype=complex)
        assert not scale_equivalent(
            SemilinearMap(m), SemilinearMap(m, CONJUGATION)
        )

    def test_perturbation_not_equivalent(self):
        m = np.eye(3)
        p = m.copy()
        p[0, 1] = 1e-3
        assert not scale_equivalent(SemilinearMap(m), SemilinearMap(p), 1e-6)


class TestLineProjectionConstruct:
    def test_orthogonal_line_example(self):
        ell, ell_prime = line(1, 0, 0), line(0, 1, 0)
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        ell_dd, plane_prime = line_projection_construct(ell, ell_prime, plane)
        assert plane_prime.equals(Subspace.from_columns(np.eye(3)[:, 1:]))
        assert ell_dd.equals(ell_prime)

    def test_in_plane_lines_are_fixed(self):
        rng = np.random.default_rng(50)
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        ell = line(1, 0, 0)
        for _ in range(10):
            coeff = rng.standard_normal(2)
            ell_prime = Subspace.from_columns((plane.basis @ coeff).reshape(3, 1))
            ell_dd, _ = line_projection_construct(ell, ell_prime, plane)
            assert ell_dd.equals(ell_prime, 1e-9)

    def test_oblique_line_projects(self):
        ell, ell_prime = line(1, 0, 0), line(1, 0, 1)
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        ell_dd, _ = line_projection_construct(ell, ell_prime, plane)
        assert ell_dd.equals(line(1, 0, 0))

    def test_normal_line_degenerate(self):
        ell = line(1, 0, 0)
        plane = Subspace.from_columns(np.eye(3)[:, :2])
        with pytest.raises(DegenerateConfigurationError):
            line_projection_construct(ell, line(0, 0, 1), plane)

    def test_posts_on_random_configurations(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            plane = random_subspace(3, 2, COMPLEX, rng)
            coeff = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ell = Subspace.from_columns((plane.basis @ coeff).reshape(3, 1))
            ell_prime = random_subspace(3, 1, COMPLEX, rng)
            ell_dd, plane_prime = line_projection_construct(ell, ell_prime, plane)
            assert ell_dd.dim == 1
            assert commeasurable(plane, plane_prime, 1e-8)
            # independent route: project the moving line's vector onto the plane
            v = ell_prime.basis[:, 0]
            proj = plane.basis @ (plane.basis.conj().T @ v)
            assert ell_dd.equals(Subspace.from_columns(proj.reshape(3, 1)), 1e-8)

    def test_only_ambient_three(self):
        rng = np.random.default_rng(52)
        with pytest.raises(ValueError):
            line_projection_construct(
                random_subspace(4, 1, REAL, rng),
                random_subspace(4, 1, REAL, rng),
                random_subspace(4, 2, REAL, rng),
            )


class TestEvertConjugate:
    def test_unitary_is_fixed(self):
        rng = np.random.default_rng(60)
        u = random_unitary_map(4, COMPLEX, rng)
        out = evert_conjugate(u)
        assert scale_equivalent(u, out, 1e-7)

    def test_positive_diagonal_inverts(self):
        t = SemilinearMap(np.diag([2.0, 1.0, 1.0]))
        out = evert_conjugate(t)
        assert_allclose(out.matrix, np.diag([0.5, 1.0, 1.0]), atol=1e-9)

    def test_automorphism_preserved(self):
        rng = np.random.default_rng(61)
        t = random_semilinear(3, COMPLEX, rng, CONJUGATION)
        assert evert_conjugate(t).automorphism == CONJUGATION

    def test_round_trip_on_positive_diagonal(self):
        t = SemilinearMap(np.diag([2.0, 3.0, 5.0]))
        twice = evert_conjugate(evert_conjugate(t))
        assert scale_equivalent(twice, t, 1e-7)

    def test_contragredient_is_polar_transport(self):
        # inv(T)^H against U P^{-1} built from the polar factors T = U P
        rng = np.random.default_rng(63)
        worst = 0.0
        for n in range(2, 9):
            for field in (REAL, COMPLEX):
                for trial in range(50):
                    auto = CONJUGATION if (field == COMPLEX and trial % 2) else IDENTITY
                    t = random_semilinear(n, field, rng, auto)
                    factors = polar_decompose(t.matrix)
                    expected = factors.unitary @ np.linalg.inv(factors.positive)
                    got = evert_conjugate(t).matrix
                    rel = np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)
                    worst = max(worst, rel)
        assert worst <= 1e-11

    def test_commutes_eversion_past_the_map(self):
        rng = np.random.default_rng(62)
        shapes = [IntPartition((1, 1, 1, 1)), IntPartition((2, 1, 1)), IntPartition((2, 2))]
        for trial in range(10):
            field = REAL if trial % 2 else COMPLEX
            auto = CONJUGATION if (field == COMPLEX and trial % 4 == 0) else IDENTITY
            t = random_semilinear(4, field, rng, auto)
            t_prime = evert_conjugate(t)
            for shape in shapes:
                frame = random_frame(4, shape, field, False, rng)
                left = induced_on_frame(t_prime, evert(frame))
                right = evert(induced_on_frame(t, frame))
                assert all(x.equals(y, 1e-7) for x, y in zip(left, right))


class TestReconstruction:
    def test_identity_oracle(self):
        t = SemilinearMap(np.eye(3))
        got = reconstruct_from_line_images(induced_line_map(t), 3, REAL)
        assert scale_equivalent(got, t, 1e-7)

    def test_rotation_times_diagonal(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        hidden = SemilinearMap(np.diag([1.0, 2.0, 3.0]) @ rot)
        got = reconstruct_from_line_images(induced_line_map(hidden), 3, REAL)
        assert scale_equivalent(got, hidden, 1e-7)

    def test_conjugate_linear_detected(self):
        rng = np.random.default_rng(70)
        hidden = random_semilinear(3, COMPLEX, rng, CONJUGATION)
        got = reconstruct_from_line_images(induced_line_map(hidden), 3, COMPLEX)
        assert got.automorphism == CONJUGATION
        assert scale_equivalent(got, hidden, 1e-7)

    def test_random_round_trips(self):
        rng = np.random.default_rng(71)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            field = REAL if trial % 2 else COMPLEX
            auto = CONJUGATION if (field == COMPLEX and trial % 4 == 0) else IDENTITY
            hidden = random_semilinear(n, field, rng, auto)
            got = reconstruct_from_line_images(induced_line_map(hidden), n, field)
            assert scale_equivalent(got, hidden, 1e-7)
            assert got.automorphism == auto

    def test_distorted_oracle_rejected(self):
        for field in (REAL, COMPLEX):
            with pytest.raises(NotSemilinearError):
                reconstruct_from_line_images(cubic_line_distortion(0.1), 3, field)

    def test_zero_distortion_is_identity(self):
        got = reconstruct_from_line_images(cubic_line_distortion(0.0), 3, REAL)
        assert scale_equivalent(got, SemilinearMap(np.eye(3)), 1e-7)

    def test_collapsing_oracle_rejected(self):
        target = line(1, 1, 1)

        def collapse(_):
            return target

        with pytest.raises(NotSemilinearError):
            reconstruct_from_line_images(collapse, 3, REAL)

    def test_plane_valued_oracle_rejected(self):
        from frame_rigidity.errors import DegenerateOracleError

        plane = Subspace.from_columns(np.eye(3)[:, :2])

        def widen(_):
            return plane

        with pytest.raises(DegenerateOracleError):
            reconstruct_from_line_images(widen, 3, REAL)


class TestCubicDistortion:
    def test_fixes_coordinate_lines(self):
        f = cubic_line_distortion(0.1)
        for k in range(3):
            ell = Subspace.from_columns(np.eye(3)[:, [k]])
            assert f(ell).equals(ell, 1e-12)

    def test_moves_generic_lines(self):
        f = cubic_line_distortion(0.1)
        ell = line(1, 2, 3)
        assert not f(ell).equals(ell, 1e-6)

    def test_gauge_invariance(self):
        # the same line presented with different spanning vectors maps equally
        f = cubic_line_distortion(0.1)
        a = cline([1.0, 2.0j, -0.5])
        b = Subspace.from_columns((3.7j * a.basis[:, 0]).reshape(3, 1))
        assert f(a).equals(f(b), 1e-10)

    def test_zero_strength_is_identity(self):
        f = cubic_line_distortion(0.0)
        rng = np.random.default_rng(80)
        for _ in range(20):
            ell = random_subspace(4, 1, COMPLEX, rng)
            assert f(ell).equals(ell, 1e-12)
