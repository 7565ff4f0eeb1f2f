"""Tests for Grassmannian elements, lattice arithmetic, and commensurability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from frame_rigidity import subspaces
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
    meet_stack,
    remainder_norms,
    remainders_orthogonal,
)


def random_subspace(ambient: int, dim: int, field: str, rng) -> Subspace:
    """Haar-distributed ``dim``-dimensional subspace of k^ambient: the span of
    a Gaussian matrix, whose distribution is unitarily invariant."""
    if not 1 <= dim <= ambient:
        raise ValueError("need 1 <= dim <= ambient")
    return Subspace(ambient, haar(rng, (ambient, dim), field))


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


def _padded(q, n):
    """A ``(B, n, k)`` stack of bases padded with zero columns to width n."""
    out = np.zeros(q.shape[:-1] + (n,), dtype=q.dtype)
    out[..., : q.shape[-1]] = q
    return out


class TestMeetStack:
    """``meet_stack`` on bases padded with zero columns gives, row by row,
    the meet ``Subspace.intersect`` finds on the exact-width bases: its
    dimension and its projector ``W W^H``."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_rows_match_intersect(self, field):
        rng = np.random.default_rng(4242)
        tol = 1e-9
        for n in range(2, 9):
            for da in range(1, n + 1):
                for db in range(1, n + 1):
                    q = haar(rng, (6, n, n), field)
                    qa, qb = q[:, :, :da], haar(rng, (6, n, db), field)
                    overlaps = [0] * 6
                    for k in range(0, 6, 2):
                        overlaps[k] = int(rng.integers(max(0, da + db - n), min(da, db) + 1))
                        qb[k] = q[k, :, da - overlaps[k] : da - overlaps[k] + db]
                    w, dims = meet_stack(_padded(qa, n), _padded(qb, n), da, tol)
                    for k in range(6):
                        meet = Subspace(n, qa[k]).intersect(Subspace(n, qb[k]), tol)
                        assert dims[k] == meet.dim >= max(overlaps[k], da + db - n)
                        gap = spectral_norm(w[k] @ adjoint(w[k]) - meet.projector())
                        assert gap <= 1e-12

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_columns_change_nothing(self, field):
        rng = np.random.default_rng(4343)
        n, tol = 6, 1e-9
        for da in range(n + 1):
            for db in range(n + 1):
                qa, qb = haar(rng, (4, n, da), field), haar(rng, (4, n, db), field)
                qb[:, :, : min(da, db) // 2] = qa[:, :, : min(da, db) // 2]
                w, dims = meet_stack(qa, qb, da, tol)
                padded_w, padded_dims = meet_stack(_padded(qa, n), _padded(qb, n), da, tol)
                assert padded_dims.tolist() == dims.tolist()
                projectors = w @ adjoint(w), padded_w @ adjoint(padded_w)
                assert np.abs(projectors[0] - projectors[1]).max() <= 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_bad_tol_refused(self, tol):
        q = np.eye(3)[None]
        with pytest.raises(ValueError):
            meet_stack(q, q, 3, tol)


def _a_side_remainder(qa, qb, tol):
    """Route 2 read from the principal angles of A against B whatever the
    widths, with no swap to the narrower operand."""
    g = adjoint(qb) @ qa
    _, sines, vh = np.linalg.svd(qa - qb @ g, full_matrices=False)
    product = g @ (adjoint(vh) * (sines > tol)[..., None, :])
    if product.size == 0:
        return np.zeros(product.shape[:-2])
    return np.linalg.norm(product, 2, axis=(-2, -1))


class TestNarrowSide:
    """Route 2 reads the narrower operand's principal angles; on pairs of
    unequal widths, zero-width and full-space operands included, it gives
    the norm and verdict of A's side."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matches_the_a_side_formula(self, field):
        rng = np.random.default_rng(2718)
        tol, band = 1e-8, 1e-7
        for n in range(2, 7):
            for da in range(n + 1):
                for db in range(n + 1):
                    if da == db:
                        continue
                    qa, qb = _mixed_pairs(n, da, db, field, rng)
                    want = _a_side_remainder(qa, qb, tol)
                    got = remainder_norms(qa, qb, tol)
                    # on commuting rows, whose norm is 0, either side's
                    # rounding reaches about 1.1e-14 at n = 5, 6
                    assert np.max(np.abs(got - want)) <= 2e-14
                    assert (got <= band).tolist() == (want <= band).tolist()
                    for x, y, value in zip(qa, qb, want):
                        assert abs(remainder_norms(x, y, tol) - value) <= 2e-14
                        verdict = commeasurable_via_complements(
                            Subspace(n, x), Subspace(n, y), tol
                        )
                        assert verdict is bool(value <= band)


_MU = 1e-12  # the margin mu of ``subspaces.remainders_orthogonal``


def _planted_pairs(n, k, m, field, probe, rng, count=4):
    """``count`` pairs of A, ``k`` columns, against B, ``m`` columns, with
    ``2 <= k <= m < n``.  A's first principal direction has the cosine and
    sine ``probe``; each other lies in B in the even rows and, where the
    ambient leaves room, orthogonal to B in the odd rows.  Random unitaries
    mix both bases, so no principal vector is a column."""
    c, s = probe
    q = haar(rng, (count, n, n), field)
    a = q[:, :, :k].copy()
    a[:, :, 0] = c * q[:, :, 0] + s * q[:, :, m]
    beyond = [i for i in range(1, k) if m + i < n]
    a[1::2][:, :, beyond] = q[1::2][:, :, [m + i for i in beyond]]
    return a @ haar(rng, (count, k, k), field), q[:, :, :m] @ haar(rng, (count, m, m), field)


def _by_sine(s):
    return np.sqrt(1.0 - s * s), s


def _by_cosine(c):
    return c, np.sqrt(1.0 - c * c)


def _widths(n):
    return [(k, m) for k in range(2, n) for m in range(k, n)]


class TestRouteTwoCertificate:
    """``remainders_orthogonal`` gives the SVD judge's verdict,
    ``remainder_norms <= 10*tol``, on stacks and on single bases, at every
    edge of its certificate: sines at ``tol`` and at ``sqrt(tol^2 + mu)``,
    cosines at the band ``10*tol`` and at ``sqrt(2)`` times it."""

    @staticmethod
    def _assert_judged(qa, qb, tol, want=None):
        judge = (remainder_norms(qa, qb, tol) <= 10.0 * tol).tolist()
        assert remainders_orthogonal(qa, qb, tol).tolist() == judge
        # at equal widths each order reads its first operand's angles, and
        # at tol 1e-12 their rounding can decide
        swapped = (remainder_norms(qb, qa, tol) <= 10.0 * tol).tolist()
        assert remainders_orthogonal(qb, qa, tol).tolist() == swapped
        single = [remainders_orthogonal(x, y, tol) for x, y in zip(qa, qb)]
        assert all(type(v) is bool for v in single) and single == judge
        if want is not None:
            assert judge == [want] * len(judge)

    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_sines_at_tol(self, field, tol):
        # inside at 1 - 1e-7, beyond the meet at 1 + 1e-7; at tol 1e-6 the
        # rounding of O is far below the 1e-7 and the planted verdict shows
        rng = np.random.default_rng(7301)
        for n in range(3, 9):
            for k, m in _widths(n):
                for factor, want in ((1 - 1e-7, True), (1 + 1e-7, False)):
                    probe = _by_sine(tol * factor)
                    qa, qb = _planted_pairs(n, k, m, field, probe, rng)
                    self._assert_judged(qa, qb, tol, want if tol == 1e-6 else None)

    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_sines_at_margin_edge(self, field, tol):
        rng = np.random.default_rng(7302)
        edge = np.sqrt(tol * tol + _MU)
        for n in range(3, 9):
            for k, m in _widths(n):
                for factor in (1 - 1e-9, 1 + 1e-9):
                    qa, qb = _planted_pairs(n, k, m, field, _by_sine(edge * factor), rng)
                    self._assert_judged(qa, qb, tol, False)

    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_cosines_at_band(self, field, tol):
        rng = np.random.default_rng(7303)
        band = 10.0 * tol
        probes = ((1 - 1e-7, True), (1 + 1e-7, False), (np.sqrt(2.0), False))
        for n in range(3, 9):
            for k, m in _widths(n):
                for factor, want in probes:
                    qa, qb = _planted_pairs(n, k, m, field, _by_cosine(band * factor), rng)
                    known = tol == 1e-6 or factor == np.sqrt(2.0)
                    self._assert_judged(qa, qb, tol, want if known else None)

    @staticmethod
    def _fallback_rows(monkeypatch):
        rows = []

        def recording(qa, qb, tol):
            rows.append(qa.shape[0] if qa.ndim == 3 else 1)
            return remainder_norms(qa, qb, tol)

        monkeypatch.setattr(subspaces, "remainder_norms", recording)
        return rows

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_clear_pairs_take_no_svd(self, field, monkeypatch):
        # a planted sine of 0.5, and a narrow operand inside the full space
        rng = np.random.default_rng(7304)
        rows = self._fallback_rows(monkeypatch)
        for n in range(3, 9):
            for k, m in _widths(n):
                qa, qb = _planted_pairs(n, k, m, field, _by_sine(0.5), rng)
                assert not remainders_orthogonal(qa, qb, 1e-8).any()
                assert remainders_orthogonal(qa, haar(rng, (4, n, n), field), 1e-8).all()
                assert remainders_orthogonal(qa[0], np.eye(n, dtype=qa.dtype), 1e-8) is True
        assert rows == []

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_full_space_pairs(self, field, monkeypatch):
        rng = np.random.default_rng(7305)
        rows = self._fallback_rows(monkeypatch)
        for n in range(2, 9):
            full = haar(rng, (6, n, n), field)
            for k in range(2, n + 1):
                for qa, qb in ((full[:, :, :k], full[::-1]), (full[::-1], full[:, :, :k])):
                    assert remainders_orthogonal(qa, qb, 1e-9).all()
                    assert remainders_orthogonal(qa[0], qb[0], 1e-9) is True
        assert rows == []

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_orthogonal_pairs(self, field):
        # every eigenvalue is 1: no certificate, and the judge accepts
        rng = np.random.default_rng(7306)
        for n in range(4, 9):
            q = haar(rng, (6, n, n), field)
            for k in range(2, n // 2 + 1):
                qa, qb = q[:, :, :k], q[:, :, k:]
                self._assert_judged(qa, qb, 1e-8, True)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_padded_bases(self, field):
        # as the obot property passes them: complete Haar bases with their
        # columns beyond the dimension zeroed, both n wide; every other pair
        # cut from one basis, so that it commutes
        rng = np.random.default_rng(7307)
        for n in range(2, 9):
            q = haar(rng, (2, 40, n, n), field)
            q[1, ::2] = q[0, ::2][..., ::-1]
            dims = rng.integers(1, n, size=(2, 40))
            bases = q * (np.arange(n) < dims[..., None])[..., None, :]
            for tol in (1e-12, 1e-8, 1e-6):
                self._assert_judged(*bases, tol)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_empty_window(self, field, monkeypatch):
        # at tol 0.3, 1 - 2 band^2 < 0: no eigenvalue certifies a crossing,
        # and every pair that is not inside takes the SVD
        rng = np.random.default_rng(7308)
        tol = 0.3
        rows = self._fallback_rows(monkeypatch)
        for n in range(3, 9):
            for k, m in _widths(n):
                qa, qb = haar(rng, (8, n, k), field), haar(rng, (8, n, m), field)
                outside = qa - qb @ (adjoint(qb) @ qa)
                traces = np.sum(np.abs(outside) ** 2, axis=(1, 2))
                judge = remainder_norms(qa, qb, tol) <= 10.0 * tol
                rows.clear()
                assert remainders_orthogonal(qa, qb, tol).tolist() == judge.tolist()
                assert sum(rows) == np.sum(traces > tol * tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_non_finite_refused(self, bad, field):
        rng = np.random.default_rng(7309)
        qa, qb = haar(rng, (3, 5, 2), field), haar(rng, (3, 5, 3), field)
        for side in range(2):
            for row in range(3):
                pair = [qa.copy(), qb.copy()]
                pair[side][row, 1, 1] = bad
                with pytest.raises(NonFiniteError):
                    remainders_orthogonal(*pair, 1e-8)
                with pytest.raises(NonFiniteError):
                    remainders_orthogonal(pair[0][row], pair[1][row], 1e-8)
                with pytest.raises(NonFiniteError):
                    commeasurable_via_complements(
                        Subspace(5, pair[0][row]), Subspace(5, pair[1][row]), 1e-8
                    )

    def test_margin_over_rounding(self):
        # mu is at least 100 times what separates the eigenvalues of O^H O
        # from the SVD's squared sines and from one minus its squared cosines
        rng = np.random.default_rng(7310)
        worst = 0.0
        for field in (REAL, COMPLEX):
            for n in range(2, 9):
                for k in range(2, n + 1):
                    for m in range(k, n + 1):
                        qa, qb = haar(rng, (40, n, k), field), haar(rng, (40, n, m), field)
                        q = haar(rng, (20, n, n), field)
                        qa[::2], qb[::2] = q[:, :, :k], q[:, :, n - m :]
                        g = adjoint(qb) @ qa
                        outside = qa - qb @ g
                        squares = np.linalg.eigvalsh(adjoint(outside) @ outside)
                        sines = np.linalg.svd(outside, compute_uv=False)[..., ::-1]
                        cosines = np.linalg.svd(g, compute_uv=False)
                        worst = max(
                            worst,
                            np.abs(squares - sines**2).max(),
                            np.abs(squares + cosines**2 - 1.0).max(),
                        )
        assert worst <= _MU / 100

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 8),
        field=st.sampled_from([REAL, COMPLEX]),
        widths=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        kind=st.sampled_from(["haar", "cut", "planted"]),
        angle=st.sampled_from([0.0, 1e-12, 1e-9, 1e-8, 1e-6, 1e-3, 0.5, 1.0]),
        tol=st.sampled_from([1e-12, 1e-9, 1e-8, 1e-6, 1e-3, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_is_the_svd_judge(self, n, field, widths, kind, angle, tol, seed):
        rng = np.random.default_rng(seed)
        da, db = (min(w, n) for w in widths)
        if kind == "haar":
            qa, qb = haar(rng, (6, n, da), field), haar(rng, (6, n, db), field)
        elif kind == "cut":
            qa, qb = _mixed_pairs(n, da, db, field, rng)
        else:
            k, m = sorted((da, db))
            if not 2 <= k <= m < n:
                return
            qa, qb = _planted_pairs(n, k, m, field, _by_sine(np.sin(angle)), rng, 6)
        self._assert_judged(qa, qb, tol)


def _full_commutator_norms(qa, qb):
    """Route 1 without its restriction to the narrower operand: the spectral
    norm of the whole ``n x n`` commutator ``P_A P_B - P_B P_A``."""
    product = qa @ ((adjoint(qa) @ qb) @ adjoint(qb))
    return spectral_norm(product - adjoint(product))


class TestCommutatorOnNarrowSide:
    """Route 1 reads the commutator restricted to the narrower operand; its
    norm is that of the whole ``n x n`` commutator, which is block
    anti-diagonal in ``A + A^perp`` (Halmos 1969)."""

    @staticmethod
    def _assert_matches_oracle(qa, qb):
        want = _full_commutator_norms(qa, qb)
        got = commutator_norms(qa, qb)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-15
        for x, y, value in zip(qa, qb, want):
            assert abs(commutator_norms(x, y) - value) <= 1e-15
        return got

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_every_width_pair(self, field):
        rng = np.random.default_rng(1969)
        for n in range(2, 9):
            # zero-width and full-space operands included
            for da in range(n + 1):
                for db in range(n + 1):
                    qa, qb = _mixed_pairs(n, da, db, field, rng)
                    got = self._assert_matches_oracle(qa, qb)
                    # cut from one basis, the even rows commute
                    assert np.max(got[::2]) <= 1e-14

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_adversarial_pairs(self, field):
        rng = np.random.default_rng(1973)
        for n in range(2, 9):
            for eps in (1e-12, 1e-6, 1e-3):
                pairs = [adversarial_pair(n, field, eps, rng) for _ in range(6)]
                for a, b in pairs:
                    want = _full_commutator_norms(a.basis, b.basis)
                    got = commutator_norms(a.basis, b.basis)
                    assert abs(got - want) <= 1e-15
                    assert abs(got - np.cos(eps) * np.sin(eps)) <= 1e-15

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_padded_bases(self, field):
        # as the obot property passes them: each a complete Haar basis with
        # its columns beyond the dimension zeroed, both n wide
        rng = np.random.default_rng(1214)
        for n in range(2, 9):
            q = haar(rng, (2, 40, n, n), field)
            dims = rng.integers(1, n, size=(2, 40))
            bases = q * (np.arange(n) < dims[..., None])[..., None, :]
            self._assert_matches_oracle(*bases)


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

    @pytest.mark.parametrize(
        "columns, ambient",
        [(np.eye(3)[:, :2], 3.7), (np.eye(3)[:, :2], "3"), (np.eye(3)[:, :2], 3.0), ([[1.0]], True)],
    )
    def test_non_integer_ambient_refused(self, columns, ambient):
        # each declared ambient reads as the payload's row count under int()
        payload = Subspace.from_columns(columns).to_json()
        payload["ambient"] = ambient
        with pytest.raises(ValueError, match="not an integer"):
            Subspace.from_json(payload)

    @pytest.mark.parametrize("ambient", [3, np.int64(3), np.intp(3)])
    def test_integer_ambient_accepted(self, ambient):
        payload = Subspace.from_columns(np.eye(3)[:, :2]).to_json()
        payload["ambient"] = ambient
        back = Subspace.from_json(payload)
        assert back.ambient == 3 and type(back.ambient) is int and back.dim == 2

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
