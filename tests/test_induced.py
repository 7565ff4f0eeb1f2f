"""Tests for semilinear maps, induced actions, polar transport, reconstruction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frame_rigidity.errors import (
    AmbientMismatchError,
    DegenerateOracleError,
    FieldMismatchError,
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
    permute,
    pi_linked,
    random_frame,
    refine_map,
)
from frame_rigidity.induced import (
    CONJUGATION,
    IDENTITY,
    SemilinearMap,
    apply_to_subspace,
    apply_to_subspace_stack,
    cubic_line_distortion_stack,
    evert_conjugate,
    induced_line_map_stack,
    induced_on_frame,
    random_semilinear,
    random_semilinear_stack,
    reconstruct_from_line_images_stack,
)
from frame_rigidity.linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    field_dtype,
    gaussian,
    haar,
    polar_decompose,
    require_tol,
    residual_norms,
    unit_columns,
)
from frame_rigidity.partitions import IntPartition, Tableau, set_partitions
from frame_rigidity.subspaces import Subspace
from test_frames import sound_frame
from test_subspaces import random_subspace


def scale_equivalent(t1: SemilinearMap, t2: SemilinearMap, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two maps agree up to one global nonzero scalar.

    The scalar estimate comes from the largest-magnitude entry of the second
    matrix (nonzero, since the map is invertible), then the whole matrix is
    verified entrywise against ``tol`` times the larger of the two matrices'
    largest entries, so a global scale of either map leaves the verdict
    unchanged.
    """
    require_tol(tol)
    if t1.automorphism != t2.automorphism or t1.ambient != t2.ambient:
        return False
    m1, m2 = np.asarray(t1.matrix), np.asarray(t2.matrix)
    i, j = np.unravel_index(np.argmax(np.abs(m2)), m2.shape)
    lam = m1[i, j] / m2[i, j]
    scale = max(np.max(np.abs(m1)), abs(lam) * np.max(np.abs(m2)))
    return float(np.max(np.abs(m1 - lam * m2))) <= tol * scale


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

    def test_numerically_zero_image_refused(self):
        t = SemilinearMap(1e-10 * np.eye(3))
        with pytest.raises(ZeroInputError):
            apply_to_subspace(t, line(1, 0, 0))


class TestApplyToSubspaceStack:
    """Row k of ``apply_to_subspace_stack`` on bases padded with zero columns
    is ``apply_to_subspace`` of map k on the exact-width basis k: the same
    dimension, field and span, zero subspaces and real subspaces under
    complex maps included."""

    @pytest.mark.parametrize(
        "map_field, basis_field", [(REAL, REAL), (COMPLEX, COMPLEX), (COMPLEX, REAL)]
    )
    def test_rows_match_apply_to_subspace(self, map_field, basis_field):
        rng = np.random.default_rng(5151)
        for n in range(2, 7):
            rngs = [np.random.default_rng(rng.integers(2**32)) for _ in range(n + 1)]
            matrices = random_semilinear_stack(n, map_field, rngs)
            conj = rng.random(n + 1) < 0.5 if map_field == COMPLEX else np.zeros(n + 1, bool)
            q = haar(rng, (n + 1, n, n), basis_field)
            # row d holds a d-dimensional subspace, the zero one at row 0
            bases = q * (np.arange(n) < np.arange(n + 1)[:, None])[:, None, :]
            images, rank = apply_to_subspace_stack(matrices, conj, bases, DEFAULT_TOL)
            for d in range(n + 1):
                t = SemilinearMap(matrices[d], CONJUGATION if conj[d] else IDENTITY)
                want = apply_to_subspace(t, Subspace(n, q[d, :, :d]))
                got = Subspace(n, images[d, :, : rank[d]])
                assert rank[d] == want.dim == d
                assert got.field == want.field == map_field
                assert got.equals(want, 1e-12)


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
            assert sound_frame(image)
            # generic maps break perpendicularity
            assert not sound_frame(image, orthogonal=True)


class TestInducedOnFrame:
    def test_identity(self):
        rng = np.random.default_rng(30)
        frame = random_frame(4, IntPartition((2, 1, 1)), REAL, False, rng)
        out = induced_on_frame(SemilinearMap(np.eye(4)), frame)
        assert all(x.equals(y) for x, y in zip(out, frame))

    def test_unitary_keeps_orthogonality(self):
        rng = np.random.default_rng(31)
        frame = random_frame(4, IntPartition((2, 1, 1)), COMPLEX, True, rng)
        u = SemilinearMap(haar(rng, (4, 4), COMPLEX))
        out = induced_on_frame(u, frame)
        assert sound_frame(out, orthogonal=True)

    def test_eigenlines_fixed_by_diagonal(self):
        t = SemilinearMap(np.diag([2.0, 1.0, 1.0]))
        frame = FrameTuple([line(1, 0, 0), line(0, 1, 0), line(0, 0, 1)])
        out = induced_on_frame(t, frame)
        assert all(x.equals(y) for x, y in zip(out, frame))

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

    def test_scale_free_and_symmetric(self):
        # 300 maps against c M for |c| = 1e-14 .. 1e14, a random sign or
        # phase on c; each verdict in both argument orders
        rng = np.random.default_rng(43)

        def both(t1, t2):
            return {scale_equivalent(t1, t2), scale_equivalent(t2, t1)}

        for trial in range(300):
            field = REAL if trial % 2 else COMPLEX
            n = 2 + trial % 5
            auto = CONJUGATION if (field == COMPLEX and trial % 4 == 0) else IDENTITY
            t = random_semilinear(n, field, rng, auto)
            other = random_semilinear(n, field, rng, auto)
            wider = random_semilinear(n + 1, field, rng, auto)
            for exponent in range(-14, 15, 2):
                if field == REAL:
                    c = 10.0**exponent * rng.choice([-1.0, 1.0])
                else:
                    c = 10.0**exponent * np.exp(2j * np.pi * rng.random())
                assert both(t, SemilinearMap(c * t.matrix, auto)) == {True}
                assert both(t, SemilinearMap(c * other.matrix, auto)) == {False}
                assert both(t, SemilinearMap(c * wider.matrix, auto)) == {False}
                if field == COMPLEX:
                    flipped = IDENTITY if auto == CONJUGATION else CONJUGATION
                    assert both(t, SemilinearMap(c * t.matrix, flipped)) == {False}


class TestEvertConjugate:
    def test_unitary_is_fixed(self):
        rng = np.random.default_rng(60)
        u = SemilinearMap(haar(rng, (4, 4), COMPLEX))
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


def _line_oracle(t):
    """The stacked line oracle of one map, a stack of one."""
    return induced_line_map_stack(t.matrix[None], np.array([t.automorphism == CONJUGATION]))


def _recovered(oracle, n, field):
    """The map reconstructed from a stack-of-one oracle, or None if refused."""
    matrices, conj, refused = reconstruct_from_line_images_stack(oracle, 1, n, field)
    if refused[0]:
        return None
    return SemilinearMap(matrices[0], CONJUGATION if conj[0] else IDENTITY)


def _line_sines(x, y):
    """The sine between column p of ``x`` and column p of ``y``, per column."""
    return residual_norms(unit_columns(x).T[:, :, None], unit_columns(y).T[:, :, None])


class TestReconstruction:
    def test_identity_oracle(self):
        t = SemilinearMap(np.eye(3))
        got = _recovered(_line_oracle(t), 3, REAL)
        assert scale_equivalent(got, t, 1e-7)

    def test_rotation_times_diagonal(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        hidden = SemilinearMap(np.diag([1.0, 2.0, 3.0]) @ rot)
        got = _recovered(_line_oracle(hidden), 3, REAL)
        assert scale_equivalent(got, hidden, 1e-7)

    def test_conjugate_linear_detected(self):
        rng = np.random.default_rng(70)
        hidden = random_semilinear(3, COMPLEX, rng, CONJUGATION)
        got = _recovered(_line_oracle(hidden), 3, COMPLEX)
        assert got.automorphism == CONJUGATION
        assert scale_equivalent(got, hidden, 1e-7)

    def test_random_round_trips(self):
        rng = np.random.default_rng(71)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            field = REAL if trial % 2 else COMPLEX
            auto = CONJUGATION if (field == COMPLEX and trial % 4 == 0) else IDENTITY
            hidden = random_semilinear(n, field, rng, auto)
            got = _recovered(_line_oracle(hidden), n, field)
            assert scale_equivalent(got, hidden, 1e-7)
            assert got.automorphism == auto

    def test_distorted_oracle_rejected(self):
        for field in (REAL, COMPLEX):
            assert _recovered(cubic_line_distortion_stack(0.1), 3, field) is None

    def test_zero_distortion_is_identity(self):
        got = _recovered(cubic_line_distortion_stack(0.0), 3, REAL)
        assert scale_equivalent(got, SemilinearMap(np.eye(3)), 1e-7)

    def test_collapsing_oracle_refused_without_raising(self):
        target = np.ones((3, 1)) / np.sqrt(3.0)

        def collapse(lines):
            return np.broadcast_to(target, lines.shape)

        _, _, refused = reconstruct_from_line_images_stack(collapse, 2, 3, REAL)
        assert refused.tolist() == [True, True]

    @pytest.mark.parametrize("complex_from_call", [0, 1], ids=["probes", "sweep"])
    def test_complex_images_of_real_lines_rejected(self, complex_from_call):
        # a complex image of a real line is not a line of the same space
        calls = []

        def oracle(lines):
            calls.append(lines.shape)
            if len(calls) > complex_from_call:
                return lines.astype(np.complex128)
            return lines

        with pytest.raises(DegenerateOracleError):
            reconstruct_from_line_images_stack(oracle, 1, 3, REAL)
        assert len(calls) == complex_from_call + 1

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_empty_stack(self, field):
        calls = []
        honest = induced_line_map_stack(
            np.zeros((0, 4, 4), dtype=field_dtype(field)), np.zeros(0, dtype=bool)
        )

        def oracle(lines):
            calls.append(lines.shape)
            return honest(lines)

        matrices, conj, refused = reconstruct_from_line_images_stack(oracle, 0, 4, field)
        assert matrices.shape == (0, 4, 4) and matrices.dtype == field_dtype(field)
        assert conj.shape == refused.shape == (0,)
        assert conj.dtype == refused.dtype == bool
        # the sweep is not asked when no trial is left to check
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "size, ambient",
        [(True, 3), (-1, 3), (2.0, 3), ("2", 3), (None, 3), (2, 3.0), (2, True), (2, 1)],
    )
    def test_bad_arguments_refused_before_the_oracle(self, size, ambient):
        def oracle(lines):
            raise AssertionError("the oracle was asked")

        with pytest.raises(ValueError):
            reconstruct_from_line_images_stack(oracle, size, ambient, REAL)

    def test_numpy_integers_accepted(self):
        t = SemilinearMap(np.eye(3))
        _, _, refused = reconstruct_from_line_images_stack(
            _line_oracle(t), np.int64(1), np.int32(3), REAL
        )
        assert refused.tolist() == [False]


class TestCubicDistortion:
    def test_fixes_coordinate_lines(self):
        f = cubic_line_distortion_stack(0.1)
        assert (_line_sines(f(np.eye(3)), np.eye(3)) <= 1e-12).all()

    def test_moves_generic_lines(self):
        f = cubic_line_distortion_stack(0.1)
        ell = np.array([[1.0], [2.0], [3.0]])
        assert _line_sines(f(ell), ell)[0] > 1e-6

    def test_gauge_invariance(self):
        # the same line presented with different spanning vectors maps equally
        f = cubic_line_distortion_stack(0.1)
        a = np.array([[1.0], [2.0j], [-0.5]])
        assert _line_sines(f(a), f(3.7j * a))[0] <= 1e-10

    def test_zero_strength_is_identity(self):
        f = cubic_line_distortion_stack(0.0)
        lines = gaussian(np.random.default_rng(80), (4, 20), COMPLEX)
        assert (_line_sines(f(lines), lines) <= 1e-12).all()

    @pytest.mark.parametrize(
        "column",
        [[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0], [1e-12, 0.0, 0.0]],
        ids=["zero", "underflowing", "below-tol"],
    )
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_degenerate_columns_refused(self, column, field):
        lines = np.eye(3, dtype=field_dtype(field))
        lines[:, 1] = column
        with pytest.raises(DegenerateOracleError):
            cubic_line_distortion_stack(0.1)(lines[None])

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_overflowing_norm_is_a_line(self, field):
        # a finite column whose norm overflows still spans a line
        f = cubic_line_distortion_stack(0.1)
        line = np.array([[1.0], [1.0], [0.0]], dtype=field_dtype(field))
        assert _line_sines(f(1e200 * line), f(line))[0] <= 1e-12
