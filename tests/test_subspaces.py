"""Tests for Grassmannian elements, lattice arithmetic, and commensurability."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frame_rigidity.errors import (
    AmbientMismatchError,
    FieldMismatchError,
    FrameRigidityError,
    NonFiniteError,
)
from frame_rigidity.kernels import _dual_paths_for_bucket
from frame_rigidity.linalg import (
    COMPLEX,
    REAL,
    adjoint,
    haar,
    principal_angles,
    residual_norms,
    spectral_norm,
)
from frame_rigidity.subspaces import (
    Subspace,
    commeasurable,
    commeasurable_via_complements,
    commutator_norms,
    random_subspace,
    remainder_norms,
)


def span(*vectors) -> Subspace:
    return Subspace.from_columns(np.array(vectors, dtype=float).T)


def product_range(a: Subspace, b: Subspace, tol: float = 1e-9) -> Subspace:
    """Range of the product projector P_a P_b, which is the meet exactly when
    the operands are commeasurable."""
    cols = a.basis @ (adjoint(a.basis) @ b.basis)
    if spectral_norm(cols) <= tol:
        return Subspace.zero(a.ambient, a.field)
    return Subspace.from_columns(cols, tol)


E1, E2, E3 = np.eye(3)


class TestSum:
    def test_coordinate_lines(self):
        assert span(E1).sum(span(E2)).equals(span(E1, E2))

    def test_idempotent(self):
        v = span(E1, E3)
        assert v.sum(v).equals(v)

    def test_hand_plane(self):
        # (e1+e2) + (e1-e2) span the e1e2-plane in R^3
        s = span([1, 1, 0]).sum(span([1, -1, 0]))
        assert s.dim == 2
        assert s.equals(span(E1, E2))

    def test_with_zero_subspace(self):
        z = Subspace.zero(3)
        v = span(E2)
        assert v.sum(z).equals(v)
        assert z.sum(z).dim == 0


class TestIntersect:
    def test_coordinate_planes(self):
        meet = span(E1, E2).intersect(span(E2, E3))
        assert meet.dim == 1
        assert meet.equals(span(E2))

    def test_self_intersection(self):
        v = span(E1, E3)
        assert v.intersect(v).equals(v)

    def test_generic_dims_in_c4(self):
        # dim 2 + dim 3 in ambient 4 meet in dimension 2+3-4 = 1
        rng = np.random.default_rng(4040)
        for _ in range(1000):
            a = random_subspace(4, 2, COMPLEX, rng)
            b = random_subspace(4, 3, COMPLEX, rng)
            assert a.intersect(b).dim == 1

    def test_disjoint_lines_meet_in_zero(self):
        assert span(E1).intersect(span(E2)).dim == 0

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            span(E1, E2).intersect(span(E2, E3), tol)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matches_complement_of_sum_of_complements(self, field):
        rng = np.random.default_rng(5150)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a, b, shared = _pair_sharing(n, field, rng)
            got = a.intersect(b)
            want = _intersect_by_complements(a, b)
            assert got.dim == want.dim == max(shared, a.dim + b.dim - n)
            assert _projector_distance(got, want) <= 1e-12

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_and_full_operands(self, field):
        rng = np.random.default_rng(5151)
        for n in range(2, 9):
            z, f = Subspace.zero(n, field), Subspace.full(n, field)
            v = random_subspace(n, int(rng.integers(1, n + 1)), field, rng)
            for a, b in [(z, v), (v, z), (f, v), (v, f), (z, f), (f, f), (z, z)]:
                got, want = a.intersect(b), _intersect_by_complements(a, b)
                assert got.dim == want.dim
                assert _projector_distance(got, want) <= 1e-12
            assert f.intersect(v).equals(v) and z.intersect(v).dim == 0

    @pytest.mark.parametrize(
        "eps,kept", [(1e-6, False), (2e-9, False), (5e-10, True), (1e-12, True)]
    )
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_rotated_shared_direction(self, eps, kept, field):
        # at tol 1e-9 a shared direction tilted by more than tol leaves the
        # meet and one tilted by less stays in it, and kernel route 2 strips
        # the same meet; far from the threshold the De Morgan meet agrees
        rng = np.random.default_rng(5152)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a, b = adversarial_pair(n, field, eps, rng)
            got = a.intersect(b, 1e-9)
            assert got.dim == int(kept)
            _, via_complements, _ = _dual_paths_for_bucket(a.basis[None], b.basis[None], 1e-9)
            assert bool(via_complements[0]) is kept
            if eps in (1e-6, 1e-12):
                want = _intersect_by_complements(a, b, 1e-9)
                assert want.dim == got.dim
                assert _projector_distance(got, want) <= 1e-12


def _qr_complement(v: Subspace) -> Subspace:
    n, d = v.basis.shape
    if d == 0:
        return Subspace.full(n, v.field)
    return Subspace(n, np.linalg.qr(v.basis, mode="complete").Q[:, d:])


def _intersect_by_complements(a: Subspace, b: Subspace, tol: float = 1e-9) -> Subspace:
    """The meet by De Morgan: the QR complement of the sum of QR complements."""
    return _qr_complement(_qr_complement(a).sum(_qr_complement(b), tol))


def _ominus(a: Subspace, c: Subspace, tol: float = 1e-9) -> Subspace:
    """Relative orthocomplement of ``c`` inside ``a``: the span of the part
    of a's basis outside ``c``.  Raises ``ValueError`` unless ``c`` lies in
    ``a`` within ``tol``."""
    leak = c.basis - a.basis @ (adjoint(a.basis) @ c.basis)
    if c.dim > a.dim or (c.dim and spectral_norm(leak) > tol):
        raise ValueError("relative complement of a non-contained subspace")
    if c.dim == a.dim:
        return Subspace.zero(a.ambient, a.field)
    return Subspace.from_columns(a.basis - c.basis @ (adjoint(c.basis) @ a.basis), tol)


def commeasurable_by_complements(a: Subspace, b: Subspace, tol: float) -> bool:
    """The strip-the-meet route by complements, an oracle independent of
    principal angles: the De Morgan meet C, the relative complements of C in
    A and in B, and their largest cosine at most 10*tol."""
    c = _intersect_by_complements(a, b, tol)
    # the De Morgan meet keeps directions up to about 2*tol away from each
    # operand, so containment and the remainders' rank get a looser band
    x, y = _ominus(a, c, 100.0 * tol), _ominus(b, c, 100.0 * tol)
    if x.dim == 0 or y.dim == 0:
        return True
    return spectral_norm(adjoint(x.basis) @ y.basis) <= 10.0 * tol


def _pair_sharing(n, field, rng):
    """Haar pair that shares ``k`` directions, k drawn from 0..min(da, db);
    returns the pair and k."""
    q = random_subspace(n, n, field, rng).basis
    da = int(rng.integers(1, n + 1))
    db = int(rng.integers(1, n + 1))
    k = int(rng.integers(0, min(da, db) + 1))
    shared = q[:, :k]
    extra = random_subspace(n, n, field, rng).basis
    a = Subspace.from_columns(np.hstack([shared, extra[:, : da - k]]))
    b = Subspace.from_columns(np.hstack([shared, extra[:, n - (db - k) :]]))
    return a, b, k


def _projector_distance(a: Subspace, b: Subspace) -> float:
    return spectral_norm(a.projector() - b.projector())


class TestOrthocomplement:
    def test_coordinate_line(self):
        assert span(E1).orthocomplement().equals(span(E2, E3))

    def test_involution(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a = random_subspace(5, int(rng.integers(1, 5)), REAL, rng)
            assert a.orthocomplement().orthocomplement().equals(a)

    def test_hand_diagonal_line(self):
        # complement of (e1+e2) in R^2 is (e1-e2): dot product is zero
        a = Subspace.from_columns(np.array([[1.0], [1.0]]))
        c = a.orthocomplement()
        assert c.dim == 1
        assert abs(np.array([1.0, 1.0]) @ c.basis[:, 0]) < 1e-12
        assert c.equals(Subspace.from_columns(np.array([[1.0], [-1.0]])))

    def test_complement_is_read_only(self):
        v = random_subspace(5, 2, COMPLEX, np.random.default_rng(77))
        comp = v.orthocomplement()
        assert comp.dim == 3 and not comp.basis.flags.writeable
        with pytest.raises(ValueError):
            comp.basis[0, 0] = 1.0

    def test_full_space_complement_is_zero(self):
        assert Subspace.full(3).orthocomplement().dim == 0
        assert Subspace.zero(3).orthocomplement().equals(Subspace.full(3))

    def test_sum_with_complement_is_full(self):
        rng = np.random.default_rng(5)
        a = random_subspace(6, 2, COMPLEX, rng)
        assert a.sum(a.orthocomplement()).equals(Subspace.full(6, COMPLEX))


class TestOminus:
    """The relative complement of the complement-route oracle."""

    def test_plane_minus_line(self):
        assert _ominus(span(E1, E2), span(E1)).equals(span(E2))

    def test_self_gives_zero(self):
        v = span(E1, E2)
        assert _ominus(v, v).dim == 0

    def test_hand_diagonal(self):
        got = _ominus(span(E1, E2), span([1, 1, 0]))
        assert got.equals(span([1, -1, 0]))

    def test_not_contained_raises(self):
        with pytest.raises(ValueError):
            _ominus(span(E1), span(E2))

    def test_dimension_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_subspace(6, 4, REAL, rng)
            # build b inside a by combining a's basis columns
            coeffs = rng.standard_normal((4, 2))
            b = Subspace.from_columns(a.basis @ coeffs)
            assert _ominus(a, b).dim == a.dim - b.dim


class TestContains:
    def test_line_in_plane(self):
        assert span(E1, E2).contains(span(E1))

    def test_skew_line_not_in_plane(self):
        assert not span(E1, E2).contains(span([1, 0, 1]))

    def test_nested_sum_collapses(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_subspace(5, 3, COMPLEX, rng)
            coeffs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            b = Subspace.from_columns(a.basis @ coeffs)
            assert a.contains(b)
            assert a.sum(b).equals(a)

    def test_zero_contained_everywhere(self):
        assert span(E1).contains(Subspace.zero(3))


class TestEquals:
    def test_reparametrized_basis(self):
        # same plane presented in two orthonormal parametrizations
        b1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        assert Subspace(3, b1).equals(Subspace(3, b1 @ rot))

    def test_distinct_lines(self):
        assert not span(E1).equals(span(E2))

    def test_scaling_spanning_vector(self):
        assert span([1, 1, 0]).equals(span([2, 2, 0]))

    def test_zero_subspaces_are_equal(self):
        assert Subspace.zero(3).equals(Subspace.zero(3))

    def test_different_dims_never_equal(self):
        assert not span(E1).equals(span(E1, E2), 1.0)

    def test_ambient_mismatch_raises_for_any_dims(self):
        with pytest.raises(AmbientMismatchError):
            span(E1).equals(Subspace.full(2))

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_residual_matches_projector_distance_on_random_pairs(self, field):
        rng = np.random.default_rng(404)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n))
            a = random_subspace(n, d, field, rng)
            b = random_subspace(n, d, field, rng)
            projector_distance = spectral_norm(a.projector() - b.projector())
            residual = spectral_norm(b.basis - a.basis @ (a.basis.conj().T @ b.basis))
            assert abs(residual - projector_distance) <= 1e-12
            for tol in (1e-9, 0.5 * projector_distance, 2.0 * projector_distance):
                assert a.equals(b, tol) == (projector_distance <= tol)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_pairs_at_angle_1e_6(self, field):
        # b tilts one basis vector of a toward the complement by exactly
        # theta, so the largest principal angle is theta
        rng = np.random.default_rng(405)
        theta = 1e-6
        for n in range(2, 9):
            for d in range(1, n):
                g = rng.standard_normal((n, n))
                if field == COMPLEX:
                    g = g + 1j * rng.standard_normal((n, n))
                q = np.linalg.qr(g).Q
                a = Subspace(n, q[:, :d])
                tilted = q[:, :d].copy()
                tilted[:, 0] = np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, d]
                b = Subspace(n, tilted)
                projector_distance = spectral_norm(a.projector() - b.projector())
                assert abs(projector_distance - theta) <= 1e-12
                for tol, expected in ((1e-9, False), (1e-5, True)):
                    assert a.equals(b, tol) is expected
                    assert b.equals(a, tol) is expected
                    assert (projector_distance <= tol) is expected


class TestProjector:
    def test_full_space(self):
        assert_allclose(Subspace.full(3).projector(), np.eye(3))

    def test_coordinate_line(self):
        p = Subspace.from_columns(np.array([[1.0], [0.0]])).projector()
        assert_allclose(p, np.diag([1.0, 0.0]))

    def test_hand_diagonal_line(self):
        p = Subspace.from_columns(np.array([[1.0], [1.0]])).projector()
        assert_allclose(p, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-14)

    def test_hermitian_idempotent_trace(self):
        rng = np.random.default_rng(31)
        a = random_subspace(5, 3, COMPLEX, rng)
        p = a.projector()
        assert_allclose(p, p.conj().T, atol=1e-12)
        assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p).real - 3) < 1e-10


class TestCommeasurable:
    def test_nested_pair(self):
        a, b = span(E1, E2), span(E1)
        assert commeasurable(a, b, 1e-9)
        assert commeasurable_via_complements(a, b, 1e-9)

    def test_orthogonal_pair(self):
        a, b = span(E1), span(E2, E3)
        assert commeasurable(a, b, 1e-9)
        assert commeasurable_via_complements(a, b, 1e-9)

    def test_skew_lines_commutator_is_half(self):
        # projectors of span{e1} and span{e1+e2} in R^2: commutator norm 1/2
        a = Subspace.from_columns(np.array([[1.0], [0.0]]))
        b = Subspace.from_columns(np.array([[1.0], [1.0]]))
        assert abs(commutator_norms(a.basis, b.basis) - 0.5) < 1e-12
        assert not commeasurable(a, b, 1e-9)
        assert not commeasurable_via_complements(a, b, 1e-9)

    def test_zero_subspace_commeasurable_with_all(self):
        z = Subspace.zero(3)
        v = span([1, 2, 3])
        assert commeasurable(z, v, 1e-9)
        assert commeasurable_via_complements(z, v, 1e-9)


def adversarial_pair(ambient, field, eps, rng):
    """Commuting pair sharing one direction, with that direction rotated by
    an exact angle eps inside one operand.  The projector commutator norm is
    cos(eps)*sin(eps) by direct computation, so the margin against any
    threshold is controlled by eps alone."""
    g = rng.standard_normal((ambient, ambient))
    if field == COMPLEX:
        g = g + 1j * rng.standard_normal((ambient, ambient))
    q = np.linalg.qr(g).Q
    d_a = int(rng.integers(1, ambient))
    d_b = int(rng.integers(1, ambient + 1 - d_a))
    shared = q[:, 0]
    tilt = q[:, ambient - 1]
    a_cols = np.column_stack([shared, *[q[:, 1 + i] for i in range(d_a - 1)]])
    rotated = np.cos(eps) * shared + np.sin(eps) * tilt
    b_cols = np.column_stack([rotated, *[q[:, d_a + i] for i in range(d_b - 1)]])
    return Subspace(ambient, a_cols), Subspace(ambient, b_cols)


class TestDualPathAgreement:
    def test_random_pairs_agree(self):
        rng = np.random.default_rng(606)
        tol = 1e-8
        for _ in range(200):
            n = int(rng.integers(2, 7))
            field = REAL if rng.integers(2) == 0 else COMPLEX
            a = random_subspace(n, int(rng.integers(1, n + 1)), field, rng)
            b = random_subspace(n, int(rng.integers(1, n + 1)), field, rng)
            assert commeasurable(a, b, tol) == commeasurable_via_complements(a, b, tol)
            assert commeasurable(a, b, tol) == commeasurable_by_complements(a, b, tol)

    @pytest.mark.parametrize("eps,expected", [(1e-12, True), (1e-6, False), (1e-3, False)])
    def test_adversarial_near_commuting_pairs(self, eps, expected):
        rng = np.random.default_rng(707)
        tol = 1e-8
        for _ in range(100):
            n = int(rng.integers(2, 7))
            field = REAL if rng.integers(2) == 0 else COMPLEX
            a, b = adversarial_pair(n, field, eps, rng)
            assert abs(commutator_norms(a.basis, b.basis) - np.cos(eps) * np.sin(eps)) < 1e-10
            assert commeasurable(a, b, tol) is expected
            assert commeasurable_via_complements(a, b, tol) is expected
            assert commeasurable_by_complements(a, b, tol) is expected

    def test_exactly_commuting_block_pairs(self):
        rng = np.random.default_rng(808)
        tol = 1e-8
        for _ in range(100):
            a, b = _block_commuting_pair(6, COMPLEX, rng)
            assert commeasurable(a, b, tol)
            assert commeasurable_via_complements(a, b, tol)
            assert commeasurable_by_complements(a, b, tol)


def _block_commuting_pair(ambient, field, rng):
    """Pair with an exactly shared head and mutually orthogonal tails."""
    g = rng.standard_normal((ambient, ambient))
    if field == COMPLEX:
        g = g + 1j * rng.standard_normal((ambient, ambient))
    q = np.linalg.qr(g).Q
    k = int(rng.integers(0, 3))
    ta = int(rng.integers(0 if k else 1, 3))
    tb = int(rng.integers(0 if k else 1, 3))
    a = Subspace(ambient, q[:, : k + ta])
    b_cols = np.hstack([q[:, :k], q[:, k + ta : k + ta + tb]])
    return a, Subspace(ambient, b_cols)


def _mixed_pairs(n, da, db, field, rng, count=6):
    """``count`` pairs of bases, of dimensions ``da`` and ``db``, stacked:
    the even rows cut from one Haar basis (commuting, with a random overlap
    where the dimensions allow one), the odd rows independent Haar bases."""
    q = haar(rng, (count, n, n), field)
    qa, qb = q[:, :, :da].copy(), haar(rng, (count, n, db), field)
    for k in range(0, count, 2):
        overlap = int(rng.integers(max(0, da + db - n), min(da, db) + 1))
        qb[k] = q[k, :, da - overlap : da - overlap + db]
    return qa, qb


class TestRoutesAgainstComplementOracle:
    """Each commensurability route against the complement-route oracle, on
    single bases and on stacks."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_single_bases_and_stacks(self, field):
        rng = np.random.default_rng(1717)
        tol = 1e-8
        for n in range(2, 8):
            for da in range(1, n + 1):
                for db in range(1, n + 1):
                    qa, qb = _mixed_pairs(n, da, db, field, rng)
                    want = [
                        commeasurable_by_complements(Subspace(n, x), Subspace(n, y), tol)
                        for x, y in zip(qa, qb)
                    ]
                    route_one = commutator_norms(qa, qb) <= 10.0 * tol
                    route_two = remainder_norms(qa, qb, tol) <= 10.0 * tol
                    assert route_one.tolist() == want == route_two.tolist()
                    for x, y, verdict in zip(qa, qb, want):
                        assert (commutator_norms(x, y) <= 10.0 * tol) is verdict
                        assert (remainder_norms(x, y, tol) <= 10.0 * tol) is verdict


class TestStackIsItsRows:
    """On a ``(B, n, k)`` stack the primitive and both routes give, row by
    row, what their calls on single bases give."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_rows_match_single_calls(self, field):
        rng = np.random.default_rng(3141)
        tol = 1e-9
        for n in range(2, 9):
            # single columns and the full space included
            dims = sorted({1, max(1, n // 2), n - 1 or 1, n})
            for da in dims:
                for db in dims:
                    qa, qb = _mixed_pairs(n, da, db, field, rng)
                    sines, vectors = principal_angles(qa, qb)
                    stacked = (
                        residual_norms(qa, qb),
                        commutator_norms(qa, qb),
                        remainder_norms(qa, qb, tol),
                    )
                    for k, (x, y) in enumerate(zip(qa, qb)):
                        row_sines, row_vectors = principal_angles(x, y)
                        assert np.abs(sines[k] - row_sines).max() <= 1e-14
                        assert np.abs(vectors[k] - row_vectors).max() <= 1e-14
                        single = (
                            residual_norms(x, y),
                            commutator_norms(x, y),
                            remainder_norms(x, y, tol),
                        )
                        for norms, value in zip(stacked, single):
                            assert isinstance(value, float)
                            assert abs(norms[k] - value) <= 1e-14


class TestLatticeInvariants:
    def test_de_morgan(self):
        rng = np.random.default_rng(909)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_subspace(n, int(rng.integers(1, n + 1)), COMPLEX, rng)
            b = random_subspace(n, int(rng.integers(1, n + 1)), COMPLEX, rng)
            lhs = a.sum(b).orthocomplement()
            rhs = a.orthocomplement().intersect(b.orthocomplement())
            assert lhs.equals(rhs, 1e-8)

    def test_meet_realized_by_product_projector_when_commeasurable(self):
        rng = np.random.default_rng(111)
        for _ in range(50):
            a, b = _block_commuting_pair(6, REAL, rng)
            assert commeasurable(a, b, 1e-9)
            assert a.intersect(b).equals(product_range(a, b), 1e-8)

    def test_dimension_modular_law(self):
        rng = np.random.default_rng(222)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_subspace(n, int(rng.integers(1, n + 1)), REAL, rng)
            b = random_subspace(n, int(rng.integers(1, n + 1)), REAL, rng)
            assert (
                a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
            )


class TestRandomSubspace:
    def test_full_dim_gives_full_space(self):
        rng = np.random.default_rng(1)
        assert random_subspace(4, 4, REAL, rng).equals(Subspace.full(4))

    def test_mean_projector_of_lines_is_isotropic(self):
        rng = np.random.default_rng(314)
        acc = np.zeros((3, 3))
        for _ in range(10000):
            acc += random_subspace(3, 1, REAL, rng).projector()
        assert_allclose(acc / 10000, np.eye(3) / 3, atol=0.05)

    def test_independent_complex_lines_distinct(self):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            a = random_subspace(3, 1, COMPLEX, rng)
            b = random_subspace(3, 1, COMPLEX, rng)
            assert not a.equals(b, 1e-6)

    def test_bad_dim_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_subspace(3, 0, REAL, rng)
        with pytest.raises(ValueError):
            random_subspace(3, 4, REAL, rng)


class TestErrorsAndFields:
    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            span(E1).sum(Subspace.full(2))

    def test_field_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_subspace(3, 1, REAL, rng)
        b = random_subspace(3, 1, COMPLEX, rng)
        with pytest.raises(FieldMismatchError):
            a.sum(b)

    def test_immutability(self):
        a = span(E1)
        with pytest.raises(AttributeError):
            a.ambient = 5
        with pytest.raises(ValueError):
            a.basis[0, 0] = 2.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_single_column_refused(self, bad, field):
        with pytest.raises(NonFiniteError):
            Subspace.from_columns([[1.0], [bad], [0.0]], field=field)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_spanning_set_refused(self, bad, field):
        cols = [[1.0, 0.0], [0.0, bad], [0.0, 1.0]]
        with pytest.raises(NonFiniteError):
            Subspace.from_columns(cols, field=field)

    def test_is_a_library_error(self):
        assert issubclass(NonFiniteError, FrameRigidityError)

    def test_payload_refused(self):
        payload = {"ambient": 2, "field": "real", "basis": [[[np.nan, 0.0]], [[1.0, 0.0]]]}
        with pytest.raises(NonFiniteError):
            Subspace.from_json(payload)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "relation",
        [
            lambda bad, good: bad.equals(good),
            lambda bad, good: good.equals(bad),
            lambda bad, good: bad.contains(good),
            lambda bad, good: good.contains(bad),
            lambda bad, good: bad.orthocomplement(),
            lambda bad, good: bad.intersect(good),
            lambda bad, good: good.intersect(bad),
        ],
        ids=[
            "bad-equals", "equals-bad", "bad-contains", "contains-bad",
            "bad-complement", "bad-intersect", "intersect-bad",
        ],
    )
    def test_trusted_basis_refused_by_relations(self, bad, relation):
        # the plain constructor trusts its basis; the relations and lattice
        # operations must not turn a non-finite one into a foreign error, a
        # verdict or a finite subspace
        untrusted = Subspace(2, np.array([[bad], [0.0]]))
        with pytest.raises(NonFiniteError):
            relation(untrusted, Subspace.from_columns([[1.0], [0.0]]))


class TestJson:
    def test_roundtrip_real(self):
        rng = np.random.default_rng(44)
        a = random_subspace(4, 2, REAL, rng)
        back = Subspace.from_json(a.to_json())
        assert back.field == REAL
        assert back.equals(a, 1e-9)

    def test_roundtrip_complex(self):
        rng = np.random.default_rng(45)
        a = random_subspace(4, 3, COMPLEX, rng)
        back = Subspace.from_json(a.to_json())
        assert back.field == COMPLEX
        assert back.equals(a, 1e-9)

    def test_roundtrip_zero_dim(self):
        z = Subspace.zero(3, COMPLEX)
        back = Subspace.from_json(z.to_json())
        assert back.dim == 0 and back.ambient == 3 and back.field == COMPLEX

    def test_rank_deficient_payload_rejected(self):
        payload = {
            "ambient": 2,
            "field": "real",
            "basis": [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(ValueError):
            Subspace.from_json(payload)

    def test_imaginary_entries_under_real_tag_rejected(self):
        payload = {"ambient": 1, "field": "real", "basis": [[[1.0, 0.5]]]}
        with pytest.raises(FieldMismatchError):
            Subspace.from_json(payload)

    def test_non_orthonormal_payload_is_reorthonormalized(self):
        payload = {
            "ambient": 2,
            "field": "real",
            "basis": [[[3.0, 0.0]], [[4.0, 0.0]]],
        }
        s = Subspace.from_json(payload)
        assert s.dim == 1
        assert_allclose(np.linalg.norm(s.basis[:, 0]), 1.0)
