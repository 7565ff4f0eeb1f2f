"""Mutants of the library that a suite must catch: each is monkeypatched into
its module, and a named property must then fail at a small trial count."""

import numpy as np

from frame_rigidity import frames, induced, subspaces, suites
from frame_rigidity.partitions import Tableau
from frame_rigidity.subspaces import Subspace
from frame_rigidity.suites import SuiteConfig, run_suite


def _failures(cfg):
    return {p.name: p.failures for p in run_suite(cfg).properties}


def test_ignoring_the_conjugation_tag_fails_the_round_trip(monkeypatch):
    # maps on vectors, line oracles and reconstructed candidates all apply
    # their tag through this one helper; one that drops the tag makes the
    # hidden conjugate-linear maps read as linear ones
    cfg = SuiteConfig("reconstruction", 4, "complex", trials=30, seed=1)
    assert _failures(cfg)["hidden-map-round-trip"] == 0
    t = induced.SemilinearMap(np.eye(2, dtype=complex), induced.CONJUGATION)
    line = Subspace.from_columns(np.array([[1.0], [1j]]))
    assert not induced.apply_to_subspace(t, line).equals(line)

    def ignore_tag(matrices, conj, vectors):
        return matrices @ vectors

    monkeypatch.setattr(induced, "apply_tagged_stack", ignore_tag)
    assert _failures(cfg)["hidden-map-round-trip"] > 0
    assert induced.apply_to_subspace(t, line).equals(line)


def test_linkage_that_always_holds_fails_breaks_linkage(monkeypatch):
    # the distorted frames of falsify must test unlinked; a linkage test that
    # answers linked whatever it is given cannot tell them apart
    cfg = SuiteConfig("falsify", 4, "complex", trials=30, seed=1)
    assert _failures(cfg)["breaks-linkage"] == 0

    def always_linked(a, b, shape, pis, tol):
        return np.ones(len(pis), dtype=bool)

    monkeypatch.setattr(suites, "pi_linked_stack", always_linked)
    assert _failures(cfg)["breaks-linkage"] > 0


def test_linkage_along_singletons_fails_forward_transport(monkeypatch):
    # a mask that splits every block into singletons asks linked partners,
    # which remix the lines of each block, to keep every line
    cfg = SuiteConfig("pfr-perp", 4, "complex", trials=30, seed=1)
    assert _failures(cfg)["linkage-preserved-forward"] == 0

    def along_singletons(a, b, shape, pis, tol):
        singletons = [Tableau.singletons(len(shape.parts))] * len(pis)
        return frames.pi_linked_stack(a, b, shape, singletons, tol)

    monkeypatch.setattr(suites, "pi_linked_stack", along_singletons)
    assert _failures(cfg)["linkage-preserved-forward"] > 0


def test_coarsening_that_ignores_the_arrow_fails_functoriality(monkeypatch):
    # coarse component k must sum the fine components whose blocks the arrow
    # sends to k; one taken from the next contiguous columns agrees with it
    # only where those blocks happen to be adjacent
    cfg = SuiteConfig("refinement", 6, "complex", trials=300, seed=1)
    clean = _failures(cfg)
    assert clean["composition-functoriality"] == clean["lifted-permutation-equivariance"] == 0

    def contiguous(bases, shapes, arrows):
        return frames.span_components(bases, [arrow.coarse.shape for arrow in arrows])

    monkeypatch.setattr(suites, "refine_map_stack", contiguous)
    mutant = _failures(cfg)
    assert mutant["composition-functoriality"] > 0
    assert mutant["lifted-permutation-equivariance"] > 0


def test_meets_counted_without_tol_fail_generic_rejection(monkeypatch):
    # every pair of components counted as meeting in the smaller of their
    # dimensions: the meets then always fill both frames, so two independent
    # frames read as commensurable
    cfg = SuiteConfig("obot", 4, "real", trials=30, seed=1)
    assert _failures(cfg)["generic-pairs-rejected"] == 0

    def by_dimensions(a, b, shapes_a, shapes_b, tol):
        def split(own, other):
            return [
                all(sum(min(d, e) for e in y.parts) >= d for d in x.parts)
                for x, y in zip(own, other)
            ]

        return np.array(split(shapes_a, shapes_b)), np.array(split(shapes_b, shapes_a))

    monkeypatch.setattr(suites, "bigobot_stack", by_dimensions)
    assert _failures(cfg)["generic-pairs-rejected"] > 0


def test_partners_remixed_as_one_block_fail_linkage(monkeypatch):
    # a partner that remixes the whole frame, whatever the tableau, keeps no
    # block span: it is linked along the one-block tableau alone
    cfgs = {
        "pfr-perp": "linkage-preserved-forward",
        "pfr": "eversion-preserves-linkage",
        "falsify": "zero-distortion-control",
    }
    for suite, name in cfgs.items():
        assert _failures(SuiteConfig(suite, 4, "complex", trials=30, seed=1))[name] == 0

    def one_block(bases, shape, pis, rngs):
        whole = [Tableau.one_block(len(shape.parts))] * len(pis)
        return frames.linked_partner_stack(bases, shape, whole, rngs)

    monkeypatch.setattr(suites, "linked_partner_stack", one_block)
    for suite, name in cfgs.items():
        assert _failures(SuiteConfig(suite, 4, "complex", trials=30, seed=1))[name] > 0


def test_meet_outside_tol_fails_preserves_meets(monkeypatch):
    # the meet read from the principal vectors at sine above tol: the scalar
    # meet and the suites' padded meets are one function, so both go wrong
    cfg = SuiteConfig("clr", 4, "complex", trials=30, seed=1)
    assert _failures(cfg)["preserves-meets"] == 0
    plane = Subspace.from_columns(np.eye(3)[:, :2])
    assert plane.intersect(plane).dim == 2

    def outside(a, b, rank_a, tol=1e-9):
        sines, vectors = subspaces.principal_angles(a, b)
        inside = sines > tol
        return vectors * inside[..., None, :], inside.sum(axis=-1) - (a.shape[-1] - rank_a)

    monkeypatch.setattr(subspaces, "meet_stack", outside)
    monkeypatch.setattr(suites, "meet_stack", outside)
    assert _failures(cfg)["preserves-meets"] > 0
    assert plane.intersect(plane).dim != 2
