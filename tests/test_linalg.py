"""Tests for the matrix substrate: spans against a Gram-Schmidt reference,
spectral norms, principal angles, adjoint, field tags, sampling, the polar
factors, and the tolerance every public entry refuses."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from frame_rigidity.errors import (
    FieldMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroInputError,
)
from frame_rigidity.frames import (
    FrameTuple,
    bigobot,
    bigobot_stack,
    linked_partner_stack,
    pi_linked,
    pi_linked_stack,
    random_frame,
    span_components,
)
from frame_rigidity.induced import (
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
    is_unitary_up_to_scale,
    random_semilinear,
    reconstruct_from_line_images,
    reconstruct_from_line_images_stack,
    scale_equivalent,
)
from frame_rigidity.kernels import batched_commeasurability_check
from frame_rigidity.linalg import (
    COMPLEX,
    REAL,
    adjoint,
    as_matrix,
    field_dtype,
    field_of,
    gaussian,
    gaussian_stack,
    haar,
    polar_decompose,
    principal_angles,
    require_same_field,
    residual_norms,
    span,
    span_stack,
    spectral_norm,
    unit_columns,
)
from frame_rigidity.partitions import IntPartition, Tableau
from frame_rigidity.subspaces import (
    Subspace,
    commeasurable,
    commeasurable_via_complements,
)

# 1/sqrt(2) rounded to double precision, pinned by hand
INV_SQRT2 = 0.7071067811865476


def orthonormalize(cols: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Reference span: modified Gram-Schmidt with column rejection.

    Column k is dropped when its residual after projection against the
    columns already retained has norm <= ``tol`` times the largest input
    column norm.  Returns the retained orthonormal columns and their count.
    Raises ``ZeroInputError`` when every column has norm <= ``tol`` and
    ``NonFiniteError`` when an entry is NaN or infinite.
    """
    m = np.array(cols, copy=True)
    norms = np.linalg.norm(m, axis=0)
    scale = float(norms.max())
    if not np.isfinite(scale):
        raise NonFiniteError("matrix has non-finite entries")
    if scale <= tol:
        raise ZeroInputError("all columns are numerically zero")
    kept = []
    for k in range(m.shape[1]):
        v = m[:, k]
        # project twice against the retained block; one pass loses
        # orthogonality for nearly dependent columns
        for q in kept:
            v = v - q * (np.vdot(q, v))
        for q in kept:
            v = v - q * (np.vdot(q, v))
        r = np.linalg.norm(v)
        if r > tol * scale:
            kept.append(v / r)
    return np.column_stack(kept), len(kept)


class TestOrthonormalize:
    def test_identity_is_fixed(self):
        q, rank = orthonormalize(np.eye(3), 1e-10)
        assert rank == 3
        assert_allclose(q, np.eye(3), atol=1e-14)

    def test_dependent_copy_rejected(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        cols = np.hstack([e1, 2 * e1])
        q, rank = orthonormalize(cols, 1e-10)
        assert rank == 1
        assert_allclose(q, e1, atol=1e-14)

    def test_hand_gram_schmidt_plane(self):
        # Gram-Schmidt on (e1+e2, e1-e2) in R^3, worked by hand:
        # q1 = (1,1,0)/sqrt(2); the second column is already orthogonal
        # to q1, so q2 = (1,-1,0)/sqrt(2).
        cols = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        q, rank = orthonormalize(cols, 1e-10)
        assert rank == 2
        expected = np.array(
            [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2], [0.0, 0.0]]
        )
        assert_allclose(q, expected, atol=1e-14)

    def test_all_zero_columns_raise(self):
        with pytest.raises(ZeroInputError):
            orthonormalize(np.zeros((3, 2)), 1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(NonFiniteError):
            orthonormalize(np.array([[1.0, 0.0], [bad, 1.0], [0.0, 0.0]]), 1e-9)

    def test_rejection_scales_with_largest_column(self):
        # second column is 1e-12 relative to the first, below tol * max norm
        cols = np.array([[1e6, 0.0], [0.0, 1e-6]])
        _, rank = orthonormalize(cols, 1e-9)
        assert rank == 1

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(20260813)
        for _ in range(25):
            m = rng.standard_normal((6, 4))
            q1, r1 = orthonormalize(m, 1e-9)
            q2, r2 = orthonormalize(q1, 1e-9)
            assert r1 == r2
            # same span: projectors agree
            assert_allclose(q1 @ q1.T, q2 @ q2.T, atol=1e-12)

    def test_output_is_orthonormal_complex(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        q, rank = orthonormalize(m, 1e-9)
        assert rank == 3
        assert_allclose(adjoint(q) @ q, np.eye(3), atol=1e-12)
        assert field_of(q) == COMPLEX


def _projector(q):
    return q @ adjoint(q)


def _span_oracle_inputs(field, seed):
    """Seeded spanning sets at n = 2..8 with d = 1..2n columns: generic,
    rank-deficient products, exact duplicates and a column scaled 1e-12 below
    the others.  None of them puts a singular value near the 1e-9 band."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        g = rng.standard_normal(shape)
        if field == COMPLEX:
            g = g + 1j * rng.standard_normal(shape)
        return g

    for n in range(2, 9):
        for d in range(1, 2 * n + 1):
            yield draw((n, d))
            inner = int(rng.integers(1, min(n, d) + 1))
            yield draw((n, inner)) @ draw((inner, d))
            m = draw((n, d))
            yield np.hstack([m, m[:, :1], m[:, d - 1 :]])
            yield np.hstack([m, 1e-12 * draw((n, 1))])


class TestSpan:
    @pytest.mark.parametrize("field,seed", [(REAL, 401), (COMPLEX, 402)])
    def test_agrees_with_gram_schmidt(self, field, seed):
        count = 0
        for m in _span_oracle_inputs(field, seed):
            q, rank = span(m, 1e-9)
            q_ref, rank_ref = orthonormalize(m, 1e-9)
            assert rank == rank_ref == q.shape[1]
            assert spectral_norm(_projector(q) - _projector(q_ref)) <= 1e-12
            assert_allclose(adjoint(q) @ q, np.eye(rank), atol=1e-12)
            assert field_of(q) == field
            count += 1
        assert count == 4 * sum(2 * n for n in range(2, 9))

    def test_single_column_is_normalized(self):
        v = np.array([[3.0], [0.0], [-4.0]])
        q, rank = span(v, 1e-9)
        assert rank == 1
        assert_allclose(q, v / 5.0, atol=0, rtol=1e-15)

    def test_hand_plane_span(self):
        cols = np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        q, rank = span(cols, 1e-10)
        assert rank == 2
        assert_allclose(_projector(q), np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_rank_rule_is_relative_to_largest_singular_value(self):
        _, rank = span(np.diag([1e6, 1e-6]), 1e-9)
        assert rank == 1
        _, rank = span(np.diag([1.0, 1e-6]), 1e-9)
        assert rank == 2

    @pytest.mark.parametrize("cols", [np.zeros((3, 2)), np.zeros((3, 1))])
    def test_all_zero_columns_raise(self, cols):
        with pytest.raises(ZeroInputError):
            span(cols, 1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_input_raises(self, bad, d):
        m = np.eye(3)[:, :d].copy()
        m[1, 0] = bad
        with pytest.raises(NonFiniteError):
            span(m, 1e-9)

    def test_finite_column_with_overflowing_norm(self):
        q, rank = span(np.array([[1e200], [-1e200]]), 1e-9)
        assert rank == 1
        assert_allclose(abs(q[:, 0]), [INV_SQRT2, INV_SQRT2], rtol=1e-15)
        assert q[0, 0] * q[1, 0] < 0

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_finite_matrix_with_overflowing_singular_value(self, dtype):
        # no entry is infinite, but the top singular value (2e308) is
        q, rank = span(np.full((2, 2), 1e308, dtype=dtype), 1e-9)
        assert rank == 1
        assert_allclose(abs(q[:, 0]), [INV_SQRT2, INV_SQRT2], rtol=1e-15)
        assert (q[0, 0] * q[1, 0].conj()).real > 0

    def test_overflowing_entry_keeps_small_neighbours_in_stack(self):
        # only the overflowing matrix is rescaled: a numerically zero one
        # beside it keeps rank 0
        m = np.stack([np.full((2, 2), 1e308), 1e-12 * np.eye(2), np.eye(2)])
        q, rank = span_stack(m, 1e-9)
        assert rank.tolist() == [1, 0, 2]
        assert not q[1].any()

    def test_does_not_mutate_input(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        before = m.copy()
        span(m, 1e-9)
        span(m[:, :1], 1e-9)
        assert_allclose(m, before, atol=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            span(np.zeros((3, 0)), 1e-9)
        with pytest.raises(ValueError):
            span(np.eye(2), 0.0)


class TestSpanStack:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_padding_keeps_span_and_rank(self, field):
        rng = np.random.default_rng(31)
        cols = gaussian(rng, (5, 6, 3), field)
        cols[1, :, 2] = cols[1, :, 0] + cols[1, :, 1]
        padded = np.concatenate([cols, np.zeros_like(cols)], axis=-1)
        q, rank = span_stack(padded, 1e-9)
        u, want = span_stack(cols, 1e-9)
        assert rank.tolist() == want.tolist() == [3, 2, 3, 3, 3]
        for k in range(5):
            assert not q[k, :, rank[k] :].any()
            assert_allclose(_projector(q[k]), _projector(u[k, :, : rank[k]]), atol=1e-13)

    def test_zero_matrix_has_rank_zero(self):
        m = np.stack([np.eye(3), 1e-12 * np.eye(3)])[None]
        q, rank = span_stack(m, 1e-9)
        assert rank.tolist() == [[3, 0]] and not q[0, 1].any()

    def test_zero_column_has_rank_zero(self):
        m = np.stack([np.eye(3)[:, :1], np.zeros((3, 1))])
        q, rank = span_stack(m, 1e-9)
        assert rank.tolist() == [1, 0] and not q[1].any()
        assert_allclose(q[0], np.eye(3)[:, :1], atol=1e-15)

    def test_full_rank_stack_is_not_masked(self):
        m = gaussian(np.random.default_rng(32), (4, 5, 3), COMPLEX)
        q, rank = span_stack(m, 1e-9)
        assert rank.tolist() == [3] * 4
        assert np.array_equal(q, np.linalg.svd(m, full_matrices=False)[0])


class TestSpectralNorm:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_agrees_with_numpy_two_norm(self, field):
        rng = np.random.default_rng(403)
        shapes = [(n, d) for n in range(1, 9) for d in (1, 2, n, n + 1)]
        shapes += [(n,) for n in range(1, 9)]
        for shape in shapes:
            m = rng.standard_normal(shape)
            if field == COMPLEX:
                m = m + 1j * rng.standard_normal(shape)
            reference = np.linalg.norm(m, 2)
            assert abs(spectral_norm(m) - reference) <= 1e-12 * reference

    @pytest.mark.parametrize(
        "m",
        [
            np.array([1e200, -1e200]),
            np.array([[1e200], [1e200j]]),
            np.full((2, 2, 2), 1e200),
            np.full((3, 4, 1), 1e200),
            # products of both signs: the overflowed Gram entries are NaN
            np.array([[[1e200, 1e200], [-1e200, 1e200]]]),
        ],
    )
    def test_vector_with_overflowing_norm(self, m):
        # finite input whose squares overflow is answered without a warning,
        # which tier-1 would turn into an error
        matrices = m.reshape(-1, *m.shape[-2:]) if m.ndim > 1 else m[None, :, None]
        reference = np.linalg.svd(matrices, compute_uv=False)[..., 0]
        got = np.reshape(spectral_norm(m), -1)
        assert np.all(np.abs(got - reference) <= 1e-12 * reference)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "shape", [(3,), (3, 1), (3, 2)], ids=["vector", "column", "matrix"]
    )
    def test_non_finite_refused(self, bad, shape):
        m = np.ones(shape)
        m.flat[1] = bad
        with pytest.raises(NonFiniteError):
            spectral_norm(m)

    def test_hand_values(self):
        assert spectral_norm(np.array([3.0, 4.0])) == 5.0
        assert spectral_norm(np.array([[3.0], [4.0j]])) == 5.0
        assert abs(spectral_norm(np.diag([2.0, -7.0, 1.0])) - 7.0) < 1e-15


class TestPolarDecompose:
    def test_identity(self):
        f = polar_decompose(np.eye(3), 1e-12)
        assert_allclose(f.unitary, np.eye(3), atol=1e-10)
        assert_allclose(f.positive, np.eye(3), atol=1e-10)

    def test_already_positive_diagonal(self):
        f = polar_decompose(np.diag([2.0, 1.0]), 1e-12)
        assert_allclose(f.unitary, np.eye(2), atol=1e-10)
        assert_allclose(f.positive, np.diag([2.0, 1.0]), atol=1e-10)

    def test_residual_contract_random_real(self):
        rng = np.random.default_rng(101)
        tol = 1e-9
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= 1e-6 * s[0]:
                continue
            f = polar_decompose(m, tol)
            norm_m = spectral_norm(m)
            assert spectral_norm(adjoint(f.unitary) @ f.unitary - np.eye(4)) <= 10 * tol
            assert spectral_norm(f.unitary @ f.positive - m) <= 10 * tol * norm_m
            # positive factor: Hermitian, eigenvalues >= -tol
            assert_allclose(f.positive, adjoint(f.positive), atol=1e-10)
            assert np.linalg.eigvalsh(f.positive).min() >= -tol

    def test_agrees_with_svd_based_factorization(self):
        # independent construction of the (unique) polar factors via SVD
        rng = np.random.default_rng(202)
        tol = 1e-9
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u_ref, p_ref = scipy.linalg.polar(m)
            f = polar_decompose(m, tol)
            assert np.max(np.abs(f.unitary - u_ref)) <= 100 * tol
            assert np.max(np.abs(f.positive - p_ref)) <= 100 * tol * spectral_norm(m)

    def test_real_input_gives_real_factors(self):
        m = np.array([[0.0, -2.0], [1.0, 0.0]])
        f = polar_decompose(m, 1e-10)
        assert field_of(f.unitary) == REAL
        assert field_of(f.positive) == REAL

    def test_singular_input_raises(self):
        with pytest.raises(SingularMatrixError):
            polar_decompose(np.diag([1.0, 0.0]), 1e-9)

    def test_near_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            polar_decompose(np.diag([1.0, 1e-12]), 1e-9)

    def test_singular_matrix_near_overflow_raises_singular(self):
        # finite entries whose top singular value overflows: still singular
        with pytest.raises(SingularMatrixError):
            polar_decompose(np.full((2, 2), 1e308), 1e-9)

    def test_invertible_matrix_near_overflow_has_finite_factors(self):
        # singular values 1.414e308 are finite, but the symmetrization's sum
        # of the positive factor's diagonal is not
        m = np.array([[1e308, 1e308], [1e308, -1e308]])
        f = polar_decompose(m, 1e-9)
        assert np.isfinite(f.unitary).all() and np.isfinite(f.positive).all()
        assert_allclose(f.unitary, np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2, atol=1e-15)
        top = np.sqrt(2.0) * 1e308
        assert_allclose(f.positive, top * np.eye(2), rtol=1e-15, atol=1e-15 * top)

    def test_positive_factor_that_overflows_is_refused(self):
        # finite entries, but singular values 2.1e308 that no float holds
        with pytest.raises(NonFiniteError):
            polar_decompose(np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]]), 1e-9)


class TestAdjoint:
    def test_real_symmetric_fixed(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert_allclose(adjoint(m), m)

    def test_conjugates_imaginary_unit(self):
        assert_allclose(adjoint(np.array([[1j]])), np.array([[-1j]]))

    def test_product_rule(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert_allclose(adjoint(a @ b), adjoint(b) @ adjoint(a), atol=1e-12)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_stack_is_adjoint_of_each_matrix(self, field):
        stack = gaussian(np.random.default_rng(34), (2, 3, 4, 5), field)
        batched = adjoint(stack)
        assert batched.shape == (2, 3, 5, 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(batched[i, j], adjoint(stack[i, j]))


class TestHaar:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("shape", [(4, 4), (5, 2), (3, 6, 2), (2, 3, 4, 4)])
    def test_is_q_factor_of_same_seed_gaussian(self, shape, field):
        q = haar(np.random.default_rng(35), shape, field)
        reference = np.linalg.qr(gaussian(np.random.default_rng(35), shape, field)).Q
        assert q.dtype == reference.dtype
        assert np.array_equal(q, reference)


class TestGaussianStack:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("shape", [(4, 4), (5, 2), (3,)], ids=["square", "tall", "vector"])
    @pytest.mark.parametrize("size", [1, 7])
    def test_equals_a_loop_of_gaussian(self, field, shape, size):
        stacked = gaussian_stack([np.random.default_rng(k) for k in range(size)], shape, field)
        looped = np.stack([gaussian(np.random.default_rng(k), shape, field) for k in range(size)])
        assert stacked.dtype == looped.dtype and stacked.shape == looped.shape
        assert stacked.tobytes() == looped.tobytes()

    def test_leaves_each_generator_where_gaussian_does(self):
        rngs = [np.random.default_rng(k) for k in range(3)]
        gaussian_stack(rngs, (3, 2), COMPLEX)
        for k, rng in enumerate(rngs):
            reference = np.random.default_rng(k)
            gaussian(reference, (3, 2), COMPLEX)
            assert rng.random() == reference.random()


class TestFieldTags:
    def test_real_tag_rejects_complex_entries(self):
        with pytest.raises(FieldMismatchError):
            as_matrix(np.array([[1.0 + 1j]]), REAL)

    def test_real_tag_accepts_zero_imaginary(self):
        m = as_matrix(np.array([[1.0 + 0j]]), REAL)
        assert field_of(m) == REAL

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            require_same_field(np.eye(2), np.eye(2, dtype=np.complex128))

    def test_spectral_norm_of_empty_is_zero(self):
        assert spectral_norm(np.zeros((3, 0))) == 0.0

    def test_tags_map_to_dtypes(self):
        assert field_dtype(REAL) == np.float64 and field_dtype(COMPLEX) == np.complex128

    @pytest.mark.parametrize(
        "make",
        [
            field_dtype,
            lambda tag: as_matrix(np.eye(2), tag),
            lambda tag: gaussian(np.random.default_rng(0), (2, 2), tag),
            lambda tag: gaussian_stack([np.random.default_rng(0)], (2, 2), tag),
            lambda tag: haar(np.random.default_rng(0), (3, 3), tag),
            lambda tag: random_frame(3, IntPartition((2, 1)), tag, False, np.random.default_rng(0)),
            lambda tag: random_frame(3, IntPartition((2, 1)), tag, True, np.random.default_rng(0)),
            lambda tag: random_semilinear(3, tag, np.random.default_rng(0)),
            lambda tag: Subspace.zero(3, tag),
            lambda tag: Subspace.full(3, tag),
        ],
    )
    @pytest.mark.parametrize("tag", ["Complex", "REAL", "", ["real"]])
    def test_unknown_tag_refused(self, make, tag):
        # a misspelled tag is no silent real run
        with pytest.raises(ValueError, match="unknown field tag"):
            make(tag)


class TestPrincipalAngles:
    def test_hand_lines(self):
        # e1 against the line at angle 0.3 in the e1e2-plane of R^3
        qa = np.array([[1.0], [0.0], [0.0]])
        qb = np.array([[np.cos(0.3)], [np.sin(0.3)], [0.0]])
        sines, vectors = principal_angles(qa, qb)
        assert abs(sines[0] - np.sin(0.3)) <= 1e-15
        assert np.array_equal(np.abs(vectors), qa)
        assert abs(residual_norms(qa, qb) - np.sin(0.3)) <= 1e-15

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_sines_and_vectors_against_scipy(self, field):
        rng = np.random.default_rng(4242)
        for n in range(2, 9):
            for da in range(1, n + 1):
                for db in range(1, n + 1):
                    qa, qb = haar(rng, (n, da), field), haar(rng, (n, db), field)
                    sines, vectors = principal_angles(qa, qb)
                    # scipy gives the min(da, db) angles, a zero one only to
                    # about sqrt(eps); A's further principal vectors are
                    # orthogonal to B, at sine 1
                    want = np.sort(np.sin(scipy.linalg.subspace_angles(qa, qb)))
                    got = np.sort(sines)
                    assert np.abs(got[: len(want)] - want).max() <= 1e-7
                    assert np.abs(got[len(want) :] - 1.0).max(initial=0.0) <= 1e-12
                    assert abs(residual_norms(qa, qb) - sines[0]) <= 1e-13
                    # orthonormal vectors of A, each at its sine from B
                    assert np.abs(adjoint(vectors) @ vectors - np.eye(da)).max() <= 1e-13
                    outside = vectors - qb @ (adjoint(qb) @ vectors)
                    assert np.abs(np.linalg.norm(outside, axis=0) - sines).max() <= 1e-13

    def test_empty_operands(self):
        qa, zero = np.eye(3)[:, :2], np.zeros((3, 0))
        sines, vectors = principal_angles(zero, qa)
        assert sines.shape == (0,) and vectors.shape == (3, 0)
        assert residual_norms(zero, qa) == 0.0
        assert residual_norms(qa, zero) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_refused(self, bad, stacked):
        qa, qb = np.eye(3)[:, :2].copy(), np.eye(3)[:, 1:].copy()
        qb[0, 0] = bad
        if stacked:
            qa, qb = np.stack([qa, qa]), np.stack([np.eye(3)[:, 1:], qb])
        for call in (principal_angles, residual_norms):
            with pytest.raises(NonFiniteError):
                call(qa, qb)


def _tol_entries():
    """Every public entry that takes a tolerance, as a call of ``tol`` alone."""
    e = np.eye(3)
    plane, line = Subspace(3, e[:, :2]), Subspace(3, e[:, 1:2])
    lines = IntPartition((1, 1, 1))
    frame = random_frame(3, lines, REAL, False, np.random.default_rng(0))
    t = SemilinearMap(e)
    pi = Tableau(3, ((1, 2), (3,)))
    return {
        "span": lambda tol: span(e, tol),
        "span_stack": lambda tol: span_stack(e[None], tol),
        "unit_columns": lambda tol: unit_columns(e, tol),
        "polar_decompose": lambda tol: polar_decompose(e, tol),
        "from_columns": lambda tol: Subspace.from_columns(e, tol),
        "sum": lambda tol: plane.sum(Subspace.zero(3), tol),
        "intersect": lambda tol: plane.intersect(line, tol),
        "contains": lambda tol: plane.contains(line, tol),
        "equals": lambda tol: plane.equals(line, tol),
        "subspace_from_json": lambda tol: Subspace.from_json(line.to_json(), tol),
        "commeasurable": lambda tol: commeasurable(plane, line, tol),
        "via_complements": lambda tol: commeasurable_via_complements(plane, line, tol),
        "frame_from_json": lambda tol: FrameTuple.from_json(frame.to_json(), tol),
        "span_components": lambda tol: span_components(e[None], [lines], tol),
        "pi_linked_stack": lambda tol: pi_linked_stack(e[None], e[None], lines, [pi], tol),
        "pi_linked": lambda tol: pi_linked(frame, frame, pi, tol),
        "bigobot": lambda tol: bigobot(frame, frame, tol),
        "bigobot_stack": lambda tol: bigobot_stack(e[None], e[None], [lines], [lines], tol),
        "semilinear_map": lambda tol: SemilinearMap(e, tol=tol),
        "map_from_json": lambda tol: SemilinearMap.from_json(t.to_json(), tol),
        "apply_to_subspace": lambda tol: apply_to_subspace(t, Subspace.zero(3), tol),
        "is_unitary_up_to_scale": lambda tol: is_unitary_up_to_scale(t, tol),
        "induced_on_frame_stack": lambda tol: induced_on_frame_stack(
            e[None], np.array([False]), e[None], [lines], tol
        ),
        "induced_on_frame": lambda tol: induced_on_frame(t, frame, tol),
        "scale_equivalent": lambda tol: scale_equivalent(t, t, tol),
        "evert_conjugate_stack": lambda tol: evert_conjugate_stack(e[None], tol),
        "evert_conjugate": lambda tol: evert_conjugate(t, tol),
        "reconstruct": lambda tol: reconstruct_from_line_images(
            induced_line_map(t), 3, REAL, tol
        ),
        "reconstruct_stack": lambda tol: reconstruct_from_line_images_stack(
            induced_line_map_stack(e[None], np.array([False])), 1, 3, REAL, tol
        ),
        "cubic_line_distortion": lambda tol: cubic_line_distortion(0.1, tol),
        "cubic_line_distortion_stack": lambda tol: cubic_line_distortion_stack(0.1, tol),
        "kernel": lambda tol: batched_commeasurability_check(
            3, REAL, 4, np.random.default_rng(0), tol
        ),
    }


def _non_finite_entries():
    """Every public entry that refuses a NaN or infinite entry with
    ``NonFiniteError``, as a call of a square matrix alone."""
    e = np.eye(3)
    zeros = np.zeros((3, 3))
    lines, pi = IntPartition((1, 1, 1)), Tableau(3, ((1, 2), (3,)))
    return {
        "span": lambda m: span(m),
        "span_column": lambda m: span(m[:, :1]),
        "span_signed": lambda m: span(np.hstack([m, -m])),
        "span_stack": lambda m: span_stack(m[None]),
        "span_stack_padded": lambda m: span_stack(np.concatenate([m, zeros], axis=1)[None]),
        "unit_columns": lambda m: unit_columns(m),
        "spectral_norm": lambda m: spectral_norm(m),
        "residual_norms": lambda m: residual_norms(m, e[:, :2]),
        "principal_angles": lambda m: principal_angles(m, e[:, :2]),
        "polar_decompose": lambda m: polar_decompose(m),
        "from_columns": lambda m: Subspace.from_columns(m),
        "semilinear_map": lambda m: SemilinearMap(m),
        "evert_conjugate_stack": lambda m: evert_conjugate_stack(m[None]),
        "span_components": lambda m: span_components(m[None], [IntPartition((2, 1))]),
        # the entry in either frame of the pair
        "pi_linked_stack": lambda m: pi_linked_stack(
            m[None], np.eye(3, dtype=m.dtype)[None], lines, [pi]
        ),
        "pi_linked_stack_partner": lambda m: pi_linked_stack(
            np.eye(3, dtype=m.dtype)[None], m[None], lines, [pi]
        ),
        "linked_partner_stack": lambda m: linked_partner_stack(
            m[None], lines, [pi], [np.random.default_rng(0)]
        ),
    }


def _zero_block_entries():
    """The stacked frame entries that refuse an all-zero block, with the
    error each raises: the block is no subspace of its dimension."""
    z = np.zeros((1, 3, 3))
    lines, pi = IntPartition((1, 1, 1)), Tableau(3, ((1, 2), (3,)))
    rng = np.random.default_rng(0)
    return {
        "pi_linked_stack": (ZeroInputError, lambda: pi_linked_stack(z, z, lines, [pi])),
        "linked_partner_stack": (
            ZeroInputError, lambda: linked_partner_stack(z, lines, [pi], [rng])
        ),
        "span_components": (
            ShapeMismatchError, lambda: span_components(z, [IntPartition((2, 1))])
        ),
    }


# entries whose first step is a matrix product, which numpy warns about
# before the library refuses an infinite entry
_PRODUCT_FIRST = ("principal_angles", "residual_norms")


class TestBadInputRefused:
    """A NaN or infinite entry, or a numerically zero block, is refused with
    the library error each entry promises, and without a numpy warning of
    the library's own."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param(
                name, marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
            )
            if name in _PRODUCT_FIRST
            else name
            for name in sorted(_non_finite_entries())
        ],
    )
    def test_non_finite_refused(self, entry, bad, field):
        m = as_matrix(np.eye(3), field)
        m[1, 0] = bad
        with pytest.raises(NonFiniteError):
            _non_finite_entries()[entry](m)

    @pytest.mark.parametrize("entry", sorted(_zero_block_entries()))
    def test_zero_block_refused(self, entry):
        error, call = _zero_block_entries()[entry]
        with pytest.raises(error):
            call()


class TestToleranceRefused:
    """A NaN, infinite, zero or negative tolerance is a ``ValueError`` at every
    public entry, never a verdict, a subspace or another error."""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    @pytest.mark.parametrize("entry", sorted(_tol_entries()))
    def test_bad_tol_refused(self, entry, tol):
        call = _tol_entries()[entry]
        call(1e-9)
        with pytest.raises(ValueError):
            call(tol)
