"""The suites' per-thread stream pool against fresh ``trial_rng`` streams."""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from frame_rigidity import rng as rng_module
from frame_rigidity.rng import _trial_rngs, trial_rng
from frame_rigidity.suites import _CHUNK, SuiteConfig, run_suite, suite_properties

TRIALS = 301


def _draws(rng: np.random.Generator) -> bytes:
    """A mix of draws that reads the stored 32-bit half word first, then
    whole 64-bit words from the Philox buffer, then floats."""
    return b"".join(
        [
            rng.integers(0, 1000, dtype=np.int32).tobytes(),
            rng.bit_generator.random_raw(3).tobytes(),
            rng.standard_normal(3).tobytes(),
            rng.integers(0, 2**31 - 1, size=3, dtype=np.int32).tobytes(),
            rng.random(2).tobytes(),
        ]
    )


def _chunks(count: int):
    for start in range(0, count, _CHUNK):
        yield range(start, min(start + _CHUNK, count))


@pytest.mark.parametrize("seed", [0, 3, 9])
@pytest.mark.parametrize("suite", ["pfr", "clr", "reconstruction"])
def test_pooled_streams_equal_fresh_ones(seed, suite):
    for prop in suite_properties(suite):
        for trials in _chunks(TRIALS):
            pooled = _trial_rngs(seed, suite, prop, trials)
            assert len(pooled) == len(trials)
            for rng, trial in zip(pooled, trials):
                assert _draws(rng) == _draws(trial_rng(seed, suite, prop, trial))


def test_reset_forgets_a_half_used_word_and_buffer():
    for rng in _trial_rngs(5, "clr", "left-over", range(7)):
        rng.bit_generator.random_raw(1)
        rng.integers(0, 100, dtype=np.int32)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    trials = range(3, 12)
    for rng, trial in zip(_trial_rngs(5, "clr", "again", trials), trials):
        assert _draws(rng) == _draws(trial_rng(5, "clr", "again", trial))


def _in_threads(targets, timeout=60.0):
    """Run each target in its own thread, started together; every thread
    must finish within ``timeout`` seconds."""
    start = threading.Barrier(len(targets), timeout=timeout)

    def run(target):
        start.wait()
        target()

    workers = [threading.Thread(target=run, args=(target,)) for target in targets]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout)
        assert not worker.is_alive()


def test_pool_is_reused_and_bounded_by_the_largest_chunk():
    sizes: list = []

    def run():
        first = _trial_rngs(1, "pfr", "p", range(4))
        assert _trial_rngs(1, "pfr", "p", range(4, 6))[0] is first[0]
        run_suite(SuiteConfig(suite="partitions", ambient=3, trials=_CHUNK + 40, seed=1))
        sizes.append(len(rng_module._POOL.rngs))

    # a new thread starts from an empty pool
    _in_threads([run])
    assert sizes == [_CHUNK]


def test_threads_running_suites_at_once_match_single_threaded_reports():
    # four threads switching often, two of them on one config: a pool shared
    # between threads would hand one thread's streams to another
    configs = [
        SuiteConfig(suite="clr", ambient=3, field="real", trials=_CHUNK + 30, seed=1),
        SuiteConfig(suite="pfr", ambient=5, trials=_CHUNK + 30, seed=2),
        SuiteConfig(suite="pfr", ambient=5, trials=_CHUNK + 30, seed=2),
        SuiteConfig(suite="obot", ambient=4, trials=40, seed=3),
    ]
    expected = [run_suite(cfg).determinism_bytes() for cfg in configs]
    got: list = [None] * len(configs)

    def run(k):
        got[k] = run_suite(configs[k]).determinism_bytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _in_threads([partial(run, k) for k in range(len(configs))])
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
