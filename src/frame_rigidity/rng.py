"""Deterministic, splittable random streams for verification trials.

Every trial draws from its own counter-based generator keyed by hashing
(seed, suite, property, trial), so results do not depend on the order in
which trials run and any single trial can be replayed in isolation.

A Philox stream is fully determined by its key and counter (Salmon et al.
2011), so the suites do not build a generator per trial: each thread keeps a
pool of generators, and :func:`_trial_rngs` resets one per trial of a chunk
to (the trial's key, counter 0), which replays :func:`trial_rng`'s stream
exactly at a fraction of its construction cost.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

_WORD = (1 << 64) - 1

# per-thread generators, reused by every chunk that thread runs
_POOL = threading.local()


def stream_key(seed: int, suite: str, prop: str, trial: int) -> int:
    material = f"{int(seed)}|{suite}|{prop}|{int(trial)}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:16], "little")


def trial_rng(seed: int, suite: str, prop: str, trial: int) -> np.random.Generator:
    """Independent generator for one (suite, property, trial) cell."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, suite, prop, trial)))


def _trial_rngs(seed: int, suite: str, prop: str, trials) -> list:
    """One generator per trial, each drawing exactly :func:`trial_rng`'s
    stream, taken from this thread's pool.

    The pool grows to the largest chunk asked for.  Each generator's Philox
    state is reset to the trial's key with counter 0, an empty buffer and no
    stored 32-bit half word, as a new ``Philox(key=...)`` starts.  The
    generators stay valid until the next call in the same thread.
    """
    pool = getattr(_POOL, "rngs", None)
    if pool is None:
        pool = _POOL.rngs = []
    while len(pool) < len(trials):
        pool.append(np.random.Generator(np.random.Philox(key=0)))
    rngs = pool[: len(trials)]
    for rng, trial in zip(rngs, trials):
        key = stream_key(seed, suite, prop, trial)
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & _WORD, key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    return rngs
