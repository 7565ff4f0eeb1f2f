"""Host-speed calibration kernel.

The host this benchmark was written on drifts in speed over periods of
seconds, by far more than any change worth measuring, and CPU time drifts
with wall time.  Every timed cell is therefore paired with the chunks of this
fixed kernel run right before and right after it, and reported as

    calibrated = raw * NOMINAL_CHUNK_S / mean(adjacent chunk durations).

The kernel imitates the cost profile of the library (many numpy calls on
small dense matrices plus Python-level vector work) without importing it, so
no change to the library can change the yardstick.  The numpy entry points
are bound here at import, before a traced run wraps ``numpy.linalg``, so the
tracer never sees or slows the kernel.
"""

from __future__ import annotations

import time

import numpy as np

_qr = np.linalg.qr
_svd = np.linalg.svd
_norm = np.linalg.norm
_vdot = np.vdot

#: Duration of one chunk, in seconds, that calibrated times are expressed in:
#: a round figure near the chunk's measured 1.2-2.0 ms (see README.md).  It
#: only sets the scale of the calibrated figures and must never change.
NOMINAL_CHUNK_S = 2.0e-3


def _fixed_matrices() -> tuple:
    rng = np.random.default_rng(20260117)
    mats = []
    for reps in range(3):
        for n in range(3, 9):
            m = rng.standard_normal((n, n))
            if (n + reps) % 2:
                m = m + 1j * rng.standard_normal((n, n))
            mats.append(m)
    return tuple(mats)


_MATRICES = _fixed_matrices()


def chunk() -> float:
    """One calibration chunk; returns a checksum so the work is not dead."""
    acc = 0.0
    for m in _MATRICES:
        q = _qr(m).Q
        s = _svd(m, compute_uv=False)
        v = m[:, 0]
        head = q[:, 0]
        for k in range(1, m.shape[1]):
            v = v - head * _vdot(head, m[:, k])
            acc += float(_norm(v))
        acc += float(s[0])
    return acc


def timed_chunk() -> float:
    """Wall time of one chunk, in seconds."""
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def mean_chunk_s(count: int) -> float:
    """Mean wall time of ``count`` consecutive chunks."""
    return sum(timed_chunk() for _ in range(count)) / count
