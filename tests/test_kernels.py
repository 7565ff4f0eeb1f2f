"""Cross-checks for the batched commensurability kernel.

The batched code must reproduce, pair for pair, the decisions of the
single-pair calls in ``subspaces`` and of the complement-route oracle of
``test_subspaces``; these tests drive them on the same bases.
"""

import numpy as np
import pytest

from frame_rigidity import kernels
from frame_rigidity.kernels import (
    ADVERSARIAL_ANGLES,
    _dual_paths_for_bucket,
    batched_commeasurability_check,
)
from frame_rigidity.linalg import COMPLEX, REAL, adjoint, gaussian, haar, spectral_norm
from frame_rigidity.rng import trial_rng
from frame_rigidity.subspaces import (
    Subspace,
    commeasurable,
    commeasurable_via_complements,
)
from test_subspaces import commeasurable_by_complements, random_subspace

TOL = 1e-8


def _complements_route_by_qr(qa, qb, tol):
    """Strip-the-meet route by complete-QR complements (reference).

    The meet projector is read from the left singular vectors of the stacked
    complements ``[A^perp B^perp]`` beyond their rank, and the route accepts
    when ``|(P_A - P_C)(P_B - P_C)| <= 10*tol``.  The kernel computes the
    same verdict from the principal angles of one thin SVD per pair.
    """
    m, n, da = qa.shape
    db = qb.shape[2]
    if (n - da) + (n - db) == 0:
        # both operands are the full space; remainders are zero
        return np.ones(m, dtype=bool)
    pa = qa @ adjoint(qa)
    pb = qb @ adjoint(qb)
    comp_a = np.linalg.qr(qa, mode="complete").Q[..., da:]
    comp_b = np.linalg.qr(qb, mode="complete").Q[..., db:]
    stacked = np.concatenate([comp_a, comp_b], axis=2)
    u, s, _ = np.linalg.svd(stacked, full_matrices=True)
    ranks = np.sum(s > tol * s[..., [0]], axis=1)
    null_mask = np.arange(n)[None, :] >= ranks[:, None]
    pc = np.einsum("bik,bk,bjk->bij", u, null_mask.astype(u.real.dtype), np.conj(u))
    residual_products = (pa - pc) @ (pb - pc)
    return np.linalg.svd(residual_products, compute_uv=False)[..., 0] <= 10.0 * tol


def _stack_pairs(pairs):
    qa = np.stack([a.basis for a, _ in pairs])
    qb = np.stack([b.basis for _, b in pairs])
    return qa, qb


class TestBucketAgainstSequential:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("ambient", [2, 3, 4, 6])
    def test_random_pairs_match_single_pair_routes(self, ambient, field):
        rng = np.random.default_rng(1234 + ambient)
        for da in range(1, ambient + 1):
            for db in range(1, ambient + 1):
                pairs = [
                    (
                        random_subspace(ambient, da, field, rng),
                        random_subspace(ambient, db, field, rng),
                    )
                    for _ in range(8)
                ]
                qa, qb = _stack_pairs(pairs)
                via_a, via_b, norms = _dual_paths_for_bucket(qa, qb, TOL)
                for k, (a, b) in enumerate(pairs):
                    assert via_a[k] == commeasurable(a, b, TOL)
                    assert via_b[k] == commeasurable_via_complements(a, b, TOL)
                    assert via_b[k] == commeasurable_by_complements(a, b, TOL)
                    assert norms[k] >= 0.0

    def test_commuting_pairs_accepted_by_both_routes(self):
        eye = np.eye(5)
        pairs = []
        for k in range(1, 5):
            a = Subspace.from_columns(eye[:, :k])
            b = Subspace.from_columns(eye[:, k - 1 :])
            pairs.append((a, b))
        qa_list = [a.basis for a, _ in pairs]
        qb_list = [b.basis for _, b in pairs]
        for (a, b), qa, qb in zip(pairs, qa_list, qb_list):
            via_a, via_b, norms = _dual_paths_for_bucket(
                qa[None, :, :], qb[None, :, :], TOL
            )
            assert via_a[0] and via_b[0]
            assert norms[0] < 1e-12
            assert commeasurable(a, b, TOL) and commeasurable_via_complements(a, b, TOL)
            assert commeasurable_by_complements(a, b, TOL)

    def test_skew_plane_pair_rejected_by_both_routes(self):
        e1 = np.array([[1.0], [0.0]])
        mix = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        via_a, via_b, norms = _dual_paths_for_bucket(e1[None], mix[None], TOL)
        assert not via_a[0] and not via_b[0]
        assert norms[0] == pytest.approx(0.5, abs=1e-12)


class TestFullBatch:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("ambient", [2, 3, 4, 5, 6])
    def test_routes_agree_on_every_pair(self, ambient, field):
        rng = trial_rng(7, "kernel-test", f"{ambient}-{field}", 0)
        batch = batched_commeasurability_check(ambient, field, 400, rng, TOL)
        assert batch.count == 400
        assert batch.disagreements == 0
        assert int(np.sum(batch.adversarial)) == 40

    def test_adversarial_margins_are_exact_rotation_angles(self):
        rng = trial_rng(7, "kernel-test", "margins", 0)
        batch = batched_commeasurability_check(
            4, COMPLEX, 300, rng, TOL, adversarial_fraction=1.0
        )
        assert bool(np.all(batch.adversarial))
        eps = np.array(
            [ADVERSARIAL_ANGLES[i % len(ADVERSARIAL_ANGLES)] for i in range(300)]
        )
        expected = np.cos(eps) * np.sin(eps)
        assert np.max(np.abs(batch.commutator_norms - expected)) < 1e-10
        # the 1e-12 rotations sit far below the acceptance band, the rest far above
        should_pass = eps < 10.0 * TOL
        assert bool(np.all(batch.via_commutator == should_pass))
        assert bool(np.all(batch.via_complements == should_pass))

    def test_same_seed_reproduces_batch(self):
        runs = []
        for _ in range(2):
            rng = trial_rng(42, "kernel-test", "determinism", 3)
            runs.append(batched_commeasurability_check(3, REAL, 120, rng, TOL))
        first, second = runs
        assert np.array_equal(first.via_commutator, second.via_commutator)
        assert np.array_equal(first.via_complements, second.via_complements)
        assert np.array_equal(first.commutator_norms, second.commutator_norms)
        assert np.array_equal(first.dims_a, second.dims_a)

    def test_full_space_pairs_commeasurable(self):
        rng = np.random.default_rng(0)
        batch = batched_commeasurability_check(
            2, REAL, 200, rng, TOL, adversarial_fraction=0.0
        )
        full_both = (batch.dims_a == 2) & (batch.dims_b == 2)
        assert int(np.sum(full_both)) > 0
        assert bool(np.all(batch.via_commutator[full_both]))
        assert bool(np.all(batch.via_complements[full_both]))


def _per_bucket_reference(ambient, field, count, rng, tol, adversarial_fraction):
    """The kernel as one stack per (dim A, dim B) bucket, each pair in its
    drawn orientation: two QRs per bucket, and the adversarial pairs in
    buckets of their own.  It draws what the kernel draws, in the same order,
    so the two must give the same result for every pair."""
    n = ambient
    n_adv = int(round(count * adversarial_fraction))
    n_rand = count - n_adv
    via_comm = np.zeros(count, dtype=bool)
    via_comp = np.zeros(count, dtype=bool)
    comm_norms = np.zeros(count)
    dims_a = np.zeros(count, dtype=np.int64)
    dims_b = np.zeros(count, dtype=np.int64)

    def buckets(da_all, db_all):
        for da in range(1, n + 1):
            for db in range(1, n + 1):
                idx = np.nonzero((da_all == da) & (db_all == db))[0]
                if idx.size:
                    yield da, db, idx

    def record(idx, da, db, qa, qb):
        via_comm[idx], via_comp[idx], comm_norms[idx] = _dual_paths_for_bucket(qa, qb, tol)
        dims_a[idx], dims_b[idx] = da, db

    da_rand = rng.integers(1, n + 1, size=n_rand)
    db_rand = rng.integers(1, n + 1, size=n_rand)
    for da, db, idx in buckets(da_rand, db_rand):
        qa = haar(rng, (idx.size, n, da), field)
        record(idx, da, db, qa, haar(rng, (idx.size, n, db), field))
    if n_adv > 0:
        q = haar(rng, (n_adv, n, n), field)
        da_adv = rng.integers(1, n, size=n_adv)
        db_adv = rng.integers(1, n - da_adv + 1)
        eps = np.resize(ADVERSARIAL_ANGLES, n_adv)
        rotated = np.cos(eps)[:, None] * q[:, :, 0] + np.sin(eps)[:, None] * q[:, :, n - 1]
        for da, db, sel in buckets(da_adv, db_adv):
            qb = np.concatenate(
                [rotated[sel][:, :, None], q[sel][:, :, da : da + db - 1]], axis=2
            )
            record(n_rand + sel, da, db, q[sel, :, :da], qb)
    return via_comm, via_comp, comm_norms, dims_a, dims_b, np.arange(count) >= n_rand


class TestPairForPair:
    """The kernel, which groups pairs by width, against the per-bucket loop:
    route agreement alone cannot see a group's results land on the wrong
    pairs."""

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("ambient", [2, 3, 4, 5, 6])
    def test_same_pairs_and_verdicts(self, ambient, field, fraction):
        key = (3, "kernel-reference", f"{ambient}-{field}-{fraction}", 0)
        rng, reference_rng = trial_rng(*key), trial_rng(*key)
        batch = batched_commeasurability_check(
            ambient, field, 600, rng, TOL, adversarial_fraction=fraction
        )
        via_comm, via_comp, norms, dims_a, dims_b, adversarial = _per_bucket_reference(
            ambient, field, 600, reference_rng, TOL, fraction
        )
        assert np.array_equal(batch.dims_a, dims_a)
        assert np.array_equal(batch.dims_b, dims_b)
        assert np.array_equal(batch.adversarial, adversarial)
        assert np.array_equal(batch.via_commutator, via_comm)
        assert np.array_equal(batch.via_complements, via_comp)
        assert np.max(np.abs(batch.commutator_norms - norms)) <= 1e-15
        # the same draws, so both leave the stream at the same place
        assert rng.random(4).tolist() == reference_rng.random(4).tolist()


class TestLapackCalls:
    """One QR per column width and both routes once per unordered pair of
    widths, whatever the number of pairs; a width pair with a line operand
    takes neither an SVD nor an eigensolve.  Route 2 decides most pairs of
    wider operands from one eigensolve of ``O^H O`` per width pair and takes
    an SVD only for the rows it leaves undecided."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("ambient", [2, 3, 4, 5, 6])
    def test_calls_per_kernel_call(self, ambient, field, monkeypatch):
        calls = dict.fromkeys(("qr", "svd", "eigvalsh"), 0)
        svd_widths, svd_rows = [], []
        for name in calls:

            def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                if _name == "svd":
                    svd_widths.append(args[0].shape[-1])
                    svd_rows.append(int(np.prod(args[0].shape[:-2])))
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = trial_rng(5, "kernel-calls", f"{ambient}-{field}", 0)
        batch = batched_commeasurability_check(ambient, field, 2000, rng, TOL)
        n = ambient
        # every unordered pair of widths occurs, so every group is counted
        widths = {tuple(sorted(p)) for p in zip(batch.dims_a.tolist(), batch.dims_b.tolist())}
        assert len(widths) == n * (n + 1) // 2
        assert 0 < calls["qr"] <= n + 1
        # the n width pairs with a line operand take none of either; each
        # other takes at most one eigensolve per route and one for the
        # fallback's spectral norm
        assert calls["svd"] <= n * (n - 1) // 2
        assert 0 < calls["eigvalsh"] <= 3 * n * (n - 1) // 2
        assert min(svd_widths, default=2) > 1
        # the SVD judges few of the pairs whose narrower operand is wider
        # than a line: 0-4.6% on these streams
        wider = int(np.sum(np.minimum(batch.dims_a, batch.dims_b) >= 2))
        assert sum(svd_rows) <= 0.06 * wider


class TestAgainstComplementsOracle:
    """The principal-angle route 2 against the complete-QR complements."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("ambient", [2, 3, 4, 5, 6])
    def test_route_two_verdicts_match_oracle(self, ambient, field, monkeypatch):
        buckets = []

        def recording(qa, qb, tol):
            out = _dual_paths_for_bucket(qa, qb, tol)
            buckets.append((qa, qb, out))
            return out

        monkeypatch.setattr(kernels, "_dual_paths_for_bucket", recording)
        for fraction, count in ((0.1, 3000), (1.0, 2000)):
            rng = trial_rng(11, "kernel-oracle", f"{ambient}-{field}", int(fraction))
            batched_commeasurability_check(
                ambient, field, count, rng, TOL, adversarial_fraction=fraction
            )
        pairs = full_space = 0
        for qa, qb, (_, via_complements, comm_norms) in buckets:
            assert np.array_equal(via_complements, _complements_route_by_qr(qa, qb, TOL))
            pa = qa @ adjoint(qa)
            pb = qb @ adjoint(qb)
            svd_norms = np.linalg.norm(pa @ pb - pb @ pa, 2, axis=(1, 2))
            assert np.max(np.abs(comm_norms - svd_norms)) <= 1e-14
            pairs += qa.shape[0]
            if qa.shape[2] == qb.shape[2] == ambient:
                full_space += qa.shape[0]
        assert pairs == 5000
        assert full_space > 0


class TestMeetThreshold:
    """A shared direction tilted by eps stays in the meet below tol only."""

    @staticmethod
    def _tilted_pair(ambient, field, eps):
        q = haar(np.random.default_rng(ambient), (ambient, ambient), field)
        tilted = np.cos(eps) * q[:, 0] + np.sin(eps) * q[:, 2]
        qa = q[:, :2]
        qb = np.column_stack([tilted, q[:, 3]])
        return qa, qb

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("ambient", [4, 6])
    @pytest.mark.parametrize("factor, holds", [(0.5, True), (3.0, False)])
    def test_kernel_and_scalar_route_two_agree(self, ambient, field, factor, holds):
        qa, qb = self._tilted_pair(ambient, field, factor * TOL)
        _, via_complements, _ = _dual_paths_for_bucket(qa[None], qb[None], TOL)
        scalar = commeasurable_via_complements(
            Subspace.from_columns(qa), Subspace.from_columns(qb), TOL
        )
        assert bool(via_complements[0]) is holds
        assert scalar is holds


class TestSpectralNorms:
    """The stacked spectral norm both routes read their norms from."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    @pytest.mark.parametrize("shape", [(50, 4, 4), (50, 6, 2), (50, 2, 5)])
    def test_matches_svd_norm(self, shape, scale, field):
        stack = scale * gaussian(np.random.default_rng(len(shape) + shape[2]), shape, field)
        expected = np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.allclose(spectral_norm(stack), expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_stack_is_exactly_zero(self, dtype):
        norms = spectral_norm(np.zeros((3, 4, 2), dtype=dtype))
        assert norms.tolist() == [0.0, 0.0, 0.0]


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "override",
        [
            {"tol": float("nan")},
            {"tol": 0.0},
            {"tol": -1e-8},
            {"tol": float("inf")},
            {"field": "quaternion"},
            {"adversarial_fraction": 1.5},
            {"adversarial_fraction": -0.5},
            {"adversarial_fraction": float("nan")},
            {"adversarial_fraction": True},
            {"adversarial_fraction": False},
            {"adversarial_fraction": np.bool_(True)},
            {"adversarial_fraction": "0.1"},
            {"adversarial_fraction": None},
            {"adversarial_fraction": 0.1 + 0j},
            {"ambient": 1},
            {"ambient": 3.0},
            {"count": -5},
            {"count": 2.5},
            {"count": True},
            {"ambient": True},
        ],
    )
    def test_bad_argument_refused_before_any_draw(self, override):
        args = {"ambient": 3, "field": REAL, "count": 50, "tol": TOL}
        args.update(override)
        fraction = args.pop("adversarial_fraction", 0.1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            batched_commeasurability_check(
                args["ambient"], args["field"], args["count"], rng, args["tol"],
                adversarial_fraction=fraction,
            )
        assert rng.bit_generator.state == state

    def test_zero_count_gives_empty_batch(self):
        batch = batched_commeasurability_check(3, COMPLEX, 0, np.random.default_rng(0), TOL)
        assert batch.count == 0
        assert batch.disagreements == 0
