"""Acceptance gate: the nine headline guarantees at full scale.

Each test prints exactly one verdict line (uncaptured, so it lands in the
pytest transcript) and then asserts.  Tolerances and trial counts are pinned
here on purpose; loosening them is not a fix.
"""

import time

import numpy as np

from frame_rigidity.frames import (
    FrameTuple,
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
    cubic_line_distortion_stack,
    evert_conjugate,
    induced_line_map_stack,
    induced_on_frame,
    random_semilinear,
    reconstruct_from_line_images_stack,
)
from frame_rigidity.kernels import batched_commeasurability_check
from frame_rigidity.linalg import COMPLEX, REAL, spectral_norm
from frame_rigidity.partitions import (
    IntPartition,
    dominance_leq,
    legal_permutations,
    lift_coarse_permutation,
    compose_refinements,
    partitions_of,
    reverse_refines,
    set_partitions,
)
from frame_rigidity.rng import trial_rng
from frame_rigidity.subspaces import Subspace
from frame_rigidity.suites import SuiteConfig, list_suites, run_suite
from test_induced import scale_equivalent

DUAL_TOL = 1e-8
RESIDUAL_BAND = 1e-7
ORDER_BAND = 1e-6
SCALE_BAND = 1e-6
DUAL_TIME_CAP_S = 10.0
COMBINATORICS_TIME_CAP_S = 30.0
SEED = 0


def _verdict(capsys, index: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {index}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _field_for(trial: int) -> str:
    return REAL if trial % 2 == 0 else COMPLEX


def _random_map(n: int, field: str, rng):
    automorphism = IDENTITY
    if field == COMPLEX and rng.random() < 0.5:
        automorphism = CONJUGATION
    return random_semilinear(n, field, rng, automorphism)


def _line_oracle(t):
    """The stacked line oracle of one map, a stack of one."""
    return induced_line_map_stack(t.matrix[None], np.array([t.automorphism == CONJUGATION]))


def _commuting_pair(n: int, field: str, rng):
    g = rng.standard_normal((n, n))
    if field == COMPLEX:
        g = (g + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q = np.linalg.qr(g).Q
    da = int(rng.integers(1, n + 1))
    db = int(rng.integers(1, n + 1))
    overlap = int(rng.integers(max(0, da + db - n), min(da, db) + 1))
    return (
        Subspace(n, q[:, :da]),
        Subspace(n, q[:, da - overlap : da - overlap + db]),
    )


def _projector_distance(a: Subspace, b: Subspace) -> float:
    return spectral_norm(a.projector() - b.projector())


def _frame_distance(s: FrameTuple, t: FrameTuple) -> float:
    return max(_projector_distance(x, y) for x, y in zip(s.components, t.components))


def _lines(n: int) -> IntPartition:
    return IntPartition((1,) * n)


def test_1_commeasurability_definitions_agree(capsys):
    start = time.perf_counter()
    pairs = 0
    disagreements = 0
    for n in range(2, 7):
        for field in (REAL, COMPLEX):
            rng = trial_rng(SEED, "acceptance", f"dual-{n}-{field}", 0)
            batch = batched_commeasurability_check(n, field, 10_000, rng, DUAL_TOL)
            pairs += batch.count
            disagreements += batch.disagreements
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed <= DUAL_TIME_CAP_S
    _verdict(
        capsys, 1, "commutator and complement definitions agree", ok,
        f"{pairs} pairs dims 2..6 both fields, {disagreements} disagreements, "
        f"{elapsed:.1f}s <= {DUAL_TIME_CAP_S:.0f}s, tol {DUAL_TOL}",
    )
    assert disagreements == 0
    assert elapsed <= DUAL_TIME_CAP_S


def test_2_induced_maps_respect_partial_lattice(capsys):
    failures = 0
    worst = 0.0
    for trial in range(1000):
        rng = trial_rng(SEED, "acceptance", "lattice-transport", trial)
        n = 3 + trial % 4
        field = _field_for(trial)
        a, b = _commuting_pair(n, field, rng)
        t = _random_map(n, field, rng)
        ta = apply_to_subspace(t, a)
        tb = apply_to_subspace(t, b)
        if ta.dim != a.dim or tb.dim != b.dim:
            failures += 1
            continue
        join_residual = _projector_distance(
            apply_to_subspace(t, a.sum(b)), ta.sum(tb)
        )
        meet_residual = _projector_distance(
            apply_to_subspace(t, a.intersect(b)), ta.intersect(tb)
        )
        worst = max(worst, join_residual, meet_residual)
        if join_residual > RESIDUAL_BAND or meet_residual > RESIDUAL_BAND:
            failures += 1
    ok = failures == 0
    _verdict(
        capsys, 2, "induced maps preserve dims, meets, joins", ok,
        f"1000 maps incl. conjugate-linear, {failures} failures, "
        f"worst residual {worst:.2e} <= {RESIDUAL_BAND}",
    )
    assert failures == 0


def test_3_orthogonal_frame_linkage_transport(capsys):
    failures = 0
    instances = 0
    for n in (3, 4, 5):
        shape = _lines(n)
        for p_idx, pi in enumerate(set_partitions(n)):
            for trial in range(500):
                rng = trial_rng(SEED, "acceptance", f"linkage-{n}-{p_idx}", trial)
                field = _field_for(trial)
                a = random_frame(n, shape, field, True, rng)
                b = linked_partner(a, pi, rng)
                c = random_frame(n, shape, field, True, rng)
                t = _random_map(n, field, rng)
                ta = induced_on_frame(t, a)
                tb = induced_on_frame(t, b)
                tc = induced_on_frame(t, c)
                instances += 1
                if not pi_linked(ta, tb, pi, RESIDUAL_BAND):
                    failures += 1
                before = pi_linked(a, c, pi, RESIDUAL_BAND)
                after = pi_linked(ta, tc, pi, RESIDUAL_BAND)
                if before != after:
                    failures += 1
    # S_n-equivariance of the induced frame map
    for n in (3, 4, 5):
        for trial in range(500):
            rng = trial_rng(SEED, "acceptance", f"equivariance-{n}", trial)
            field = _field_for(trial)
            a = random_frame(n, _lines(n), field, True, rng)
            t = _random_map(n, field, rng)
            sigma = tuple(int(k) for k in rng.permutation(n))
            lhs = induced_on_frame(t, permute(a, sigma))
            rhs = permute(induced_on_frame(t, a), sigma)
            instances += 1
            if _frame_distance(lhs, rhs) > RESIDUAL_BAND:
                failures += 1
    ok = failures == 0
    _verdict(
        capsys, 3, "linkage transport on orthogonal line frames", ok,
        f"n in 3..5, all partitions, {instances} instances, {failures} failures",
    )
    assert failures == 0


def test_4_eversion_branch(capsys):
    failures = 0
    worst = 0.0
    # involution on 10 000 frames of cycling shape
    for trial in range(10_000):
        rng = trial_rng(SEED, "acceptance", "eversion-involution", trial)
        n = 2 + trial % 5
        shapes = tuple(partitions_of(n))
        shape = shapes[trial % len(shapes)]
        t = random_frame(n, shape, _field_for(trial), False, rng)
        residual = _frame_distance(evert(evert(t)), t)
        worst = max(worst, residual)
        if residual > RESIDUAL_BAND:
            failures += 1
    # identity on orthogonal frames
    for trial in range(2000):
        rng = trial_rng(SEED, "acceptance", "eversion-orthogonal", trial)
        n = 2 + trial % 5
        shapes = tuple(partitions_of(n))
        shape = shapes[trial % len(shapes)]
        t = random_frame(n, shape, _field_for(trial), True, rng)
        if _frame_distance(evert(t), t) > RESIDUAL_BAND:
            failures += 1
    # linkage preserved for every partition of up to five symbols
    for n in (2, 3, 4, 5):
        for p_idx, pi in enumerate(set_partitions(n)):
            for trial in range(500):
                rng = trial_rng(SEED, "acceptance", f"eversion-linkage-{n}-{p_idx}", trial)
                a = random_frame(n, _lines(n), _field_for(trial), False, rng)
                b = linked_partner(a, pi, rng)
                if not pi_linked(evert(a), evert(b), pi, RESIDUAL_BAND):
                    failures += 1
    # commutes with legal permutations
    for trial in range(2000):
        rng = trial_rng(SEED, "acceptance", "eversion-permutation", trial)
        n = 2 + trial % 5
        shapes = tuple(partitions_of(n))
        shape = shapes[trial % len(shapes)]
        t = random_frame(n, shape, _field_for(trial), False, rng)
        perms = tuple(legal_permutations(shape))
        sigma = perms[int(rng.integers(0, len(perms)))]
        if _frame_distance(evert(permute(t, sigma)), permute(evert(t), sigma)) > RESIDUAL_BAND:
            failures += 1
    ok = failures == 0
    _verdict(
        capsys, 4, "eversion involution, fixed points, linkage, permutations", ok,
        f"10000 involutions (worst {worst:.2e}), 2000 orthogonal fixed points, "
        f"500 per partition n<=5, 2000 permutation checks, {failures} failures",
    )
    assert failures == 0


def test_5_eversion_transport_through_induced_maps(capsys):
    failures = 0
    worst = 0.0
    for trial in range(1000):
        rng = trial_rng(SEED, "acceptance", "eversion-order", trial)
        n = 2 + trial % 5
        field = _field_for(trial)
        t = _random_map(n, field, rng)
        t_ev = evert_conjugate(t)
        shapes = tuple(partitions_of(n))
        for k in range(10):
            shape = shapes[(trial + k) % len(shapes)]
            frame = random_frame(n, shape, field, False, rng)
            residual = _frame_distance(
                induced_on_frame(t_ev, evert(frame)),
                evert(induced_on_frame(t, frame)),
            )
            worst = max(worst, residual)
            if residual > ORDER_BAND:
                failures += 1
    ok = failures == 0
    _verdict(
        capsys, 5, "eversion transported through induced maps", ok,
        f"1000 maps x 10 frames, worst residual {worst:.2e} <= {ORDER_BAND}, "
        f"{failures} failures",
    )
    assert failures == 0


def test_6_reconstruction_uniqueness_up_to_scale(capsys):
    misclassified = 0
    # 200 hidden maps: 100 real, 50 complex linear, 50 conjugate-linear
    for trial in range(200):
        rng = trial_rng(SEED, "acceptance", "reconstruction-hidden", trial)
        n = 3 + trial % 3
        if trial < 100:
            field, automorphism = REAL, IDENTITY
        elif trial < 150:
            field, automorphism = COMPLEX, IDENTITY
        else:
            field, automorphism = COMPLEX, CONJUGATION
        hidden = random_semilinear(n, field, rng, automorphism)
        matrices, conj, refused = reconstruct_from_line_images_stack(
            _line_oracle(hidden), 1, n, field
        )
        if refused[0]:
            misclassified += 1
            continue
        recovered = SemilinearMap(matrices[0], CONJUGATION if conj[0] else IDENTITY)
        if not scale_equivalent(recovered, hidden, SCALE_BAND):
            misclassified += 1
    # 50 distorted oracles must all be refused
    for trial in range(50):
        rng = trial_rng(SEED, "acceptance", "reconstruction-distorted", trial)
        n = 3 + trial % 3
        field = _field_for(trial)
        hidden = _random_map(n, field, rng)
        base = _line_oracle(hidden)
        warp = cubic_line_distortion_stack(0.1)
        _, _, refused = reconstruct_from_line_images_stack(
            lambda lines: base(warp(lines)), 1, n, field
        )
        if not refused[0]:
            misclassified += 1
    ok = misclassified == 0
    _verdict(
        capsys, 6, "reconstruction up to scale, distortion refused", ok,
        f"200 hidden maps (50 conjugate-linear) + 50 distorted oracles, "
        f"{misclassified} misclassifications",
    )
    assert misclassified == 0


def test_7_combinatorics_exhaustive(capsys):
    start = time.perf_counter()
    failures = 0
    # conjugation is an involution: every partition of every m <= 12
    partition_count = 0
    for m in range(1, 13):
        for mu in partitions_of(m):
            partition_count += 1
            if mu.conjugate().conjugate() != mu:
                failures += 1
    # a refinement arrow forces dominance of the shapes: all pairs for n <= 6
    arrow_count = 0
    for n in range(1, 7):
        tableaux = tuple(set_partitions(n))
        for fine in tableaux:
            for coarse in tableaux:
                if reverse_refines(fine, coarse) is not None:
                    arrow_count += 1
                    if not dominance_leq(fine.shape, coarse.shape):
                        failures += 1
    # functoriality of component-summing along all chains for n <= 5
    chain_count = 0
    for n in range(2, 6):
        tableaux = tuple(set_partitions(n))
        arrows = {}
        for fine in tableaux:
            for coarse in tableaux:
                arrow = reverse_refines(fine, coarse)
                if arrow is not None:
                    arrows[(fine, coarse)] = arrow
        for (fine, mid), f in arrows.items():
            rng = trial_rng(SEED, "acceptance", f"functorial-{n}", chain_count)
            for (mid2, coarse), g in arrows.items():
                if mid2 != mid:
                    continue
                chain_count += 1
                t = random_frame(n, fine.shape, COMPLEX, False, rng)
                chained = refine_map(refine_map(t, f), g)
                direct = refine_map(t, compose_refinements(f, g))
                if _frame_distance(chained, direct) > RESIDUAL_BAND:
                    failures += 1
        # equivariance under every liftable legal permutation of the coarse frame
        for (fine, coarse), arrow in arrows.items():
            rng = trial_rng(SEED, "acceptance", f"lift-{n}", chain_count)
            t = random_frame(n, fine.shape, COMPLEX, False, rng)
            coarse_frame = refine_map(t, arrow)
            for sigma_coarse in legal_permutations(coarse_frame.shape):
                sigma_fine = lift_coarse_permutation(arrow, sigma_coarse)
                if sigma_fine is None:
                    continue
                lhs = refine_map(permute(t, sigma_fine), arrow)
                rhs = permute(coarse_frame, sigma_coarse)
                if _frame_distance(lhs, rhs) > RESIDUAL_BAND:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= COMBINATORICS_TIME_CAP_S
    _verdict(
        capsys, 7, "exhaustive combinatorics", ok,
        f"{partition_count} partitions (n<=12), {arrow_count} arrows (n<=6), "
        f"{chain_count} chains (n<=5), {failures} failures, "
        f"{elapsed:.1f}s <= {COMBINATORICS_TIME_CAP_S:.0f}s",
    )
    assert failures == 0
    assert elapsed <= COMBINATORICS_TIME_CAP_S


def test_8_falsification_rates(capsys):
    report = run_suite(SuiteConfig(suite="falsify", ambient=3, trials=500, seed=SEED))
    by_name = {p.name: p for p in report.properties}
    rate = by_name["breaks-linkage"].violation_rate
    control = by_name["zero-distortion-control"].violation_rate
    ok = rate >= 0.95 and control == 0.0 and report.passed
    _verdict(
        capsys, 8, "cubic distortion breaks linkage", ok,
        f"500 trials at n=3: eps=0.1 breaks {100 * rate:.1f}% (>= 95%), "
        f"eps=0 breaks {100 * control:.1f}%",
    )
    assert rate >= 0.95
    assert control == 0.0
    assert report.passed


def test_9_reports_byte_identical(capsys):
    mismatched = []
    for suite in list_suites():
        for field in (REAL, COMPLEX):
            cfg = SuiteConfig(suite=suite, ambient=4, field=field, trials=50, seed=123)
            if run_suite(cfg).determinism_bytes() != run_suite(cfg).determinism_bytes():
                mismatched.append(f"{suite}/{field}")
    ok = not mismatched
    _verdict(
        capsys, 9, "reports byte-identical across reruns", ok,
        f"{2 * len(list_suites())} suite runs x 2, wall time excluded"
        + (f"; mismatched: {', '.join(mismatched)}" if mismatched else ""),
    )
    assert not mismatched
