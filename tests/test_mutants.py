"""Mutants of the library that a suite must catch: each is monkeypatched into
its module, and a named property must then fail at a small trial count."""

import numpy as np

from frame_rigidity import induced
from frame_rigidity.suites import SuiteConfig, run_suite


def _failures(cfg):
    return {p.name: p.failures for p in run_suite(cfg).properties}


def test_ignoring_the_conjugation_tag_fails_the_round_trip(monkeypatch):
    # maps on vectors, line oracles and reconstructed candidates all apply
    # their tag through this one helper; one that drops the tag makes the
    # hidden conjugate-linear maps read as linear ones
    cfg = SuiteConfig("reconstruction", 4, "complex", trials=30, seed=1)
    assert _failures(cfg)["hidden-map-round-trip"] == 0

    def ignore_tag(matrices, conj, vectors):
        return matrices @ vectors

    monkeypatch.setattr(induced, "apply_tagged_stack", ignore_tag)
    assert _failures(cfg)["hidden-map-round-trip"] > 0
    t = induced.SemilinearMap(np.eye(2, dtype=complex), induced.CONJUGATION)
    assert t.apply_to_vector(np.array([1j, 0.0]))[0] == 1j
