"""The three workloads: fixed, seeded sequences of cells.

A cell is one in-process ``verify`` invocation (``cli.main`` with
``--report``) or one call of the batched commensurability kernel.  Ambient
dimension and field cycle inside every workload.  A round is one pass over a
workload's cells; every round runs the same cells, on inputs drawn from the
run's seed and the round's index.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from dataclasses import dataclass

import numpy as np

from frame_rigidity import cli, kernels, suites

REAL, COMPLEX = "real", "complex"
FIELDS = (REAL, COMPLEX)
KERNEL = "batched-commeasurability"

#: Trials per property of one verify cell, chosen so that cells take tens of
#: milliseconds: long enough to time, short enough for >= 100 cells a run.
TRIALS = {
    "pfr": 10,
    "eversion-order": 10,
    "pfr-perp": 8,
    "clr": 12,
    "clr-bis": 24,
    "reconstruction": 4,
}
#: The commensurability cells are sized to take about 50 ms (calibrated)
#: each, obot and kernel alike, so that its verdict percentiles fall inside
#: one cluster instead of between cells of very different cost, and a run
#: holds enough of the input-dependent obot cells at ambient 7 and 8 to pin
#: its p90.  Obot trials per property by ambient:
OBOT_TRIALS = {2: 10, 3: 6, 4: 4, 5: 3, 6: 2, 7: 2, 8: 2}
#: Pairs per kernel call by (ambient, field): the acceptance-1 shape (10,000
#: pairs per ambient and field at tol 1e-8) scaled down to that cost.
KERNEL_PAIRS = {
    (2, REAL): 5000, (2, COMPLEX): 4000,
    (3, REAL): 3500, (3, COMPLEX): 2000,
    (4, REAL): 2500, (4, COMPLEX): 1500,
    (5, REAL): 1750, (5, COMPLEX): 1000,
    (6, REAL): 1250, (6, COMPLEX): 800,
}
KERNEL_TOL = 1e-8


@dataclass(frozen=True)
class Cell:
    suite: str  # a verify suite, or KERNEL
    ambient: int
    field: str
    size: int  # trials per property, or kernel pairs

    @property
    def is_kernel(self) -> bool:
        return self.suite == KERNEL


def _verify_cells(suite_names, ambients) -> list:
    return [
        Cell(s, n, f, TRIALS[s]) for n in ambients for f in FIELDS for s in suite_names
    ]


def _commensurability_cells() -> list:
    cells = []
    for n in range(2, 9):
        for f in FIELDS:
            cells.append(Cell("obot", n, f, OBOT_TRIALS[n]))
            if (n, f) in KERNEL_PAIRS:
                cells.append(Cell(KERNEL, n, f, KERNEL_PAIRS[n, f]))
    return cells


WORKLOADS = {
    "eversion": _verify_cells(("pfr", "eversion-order"), range(3, 9)),
    "transport": _verify_cells(
        ("pfr-perp", "clr", "clr-bis", "reconstruction"), range(3, 9)
    ),
    "commensurability": _commensurability_cells(),
}


@dataclass
class Outcome:
    """What one cell attempted and how much of it failed.

    ``consistent`` is False when the cell's outputs contradict each other or
    an independent check (a wrong answer rather than a reported failure).
    """

    attempted: int
    failed: int
    consistent: bool = True
    trials: int = 0
    pairs: int = 0


def verify_argv(cell: Cell, seed: int, report_path: str) -> list:
    return [
        "--suite", cell.suite,
        "--ambient", str(cell.ambient),
        "--field", cell.field,
        "--trials", str(cell.size),
        "--seed", str(seed),
        "--report", report_path,
    ]


def round_seed(seed: int, index: int) -> int:
    """The verify ``--seed`` of round ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def kernel_rng(cell: Cell, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, cell.ambient, FIELDS.index(cell.field)])


def call_verify(argv: list):
    """Run ``verify`` in process; returns its exit code, or None if it raised
    (the traceback goes to stderr and the run goes on)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None


def call_kernel(cell: Cell, rng: np.random.Generator):
    """The kernel's batch, or None if it raised (traceback to stderr)."""
    try:
        return kernels.batched_commeasurability_check(
            cell.ambient, cell.field, cell.size, rng, KERNEL_TOL
        )
    except Exception:
        traceback.print_exc()
        return None


def judge_verify(cell: Cell, seed: int, code, report_path: str) -> Outcome:
    """Every violated trial, nonzero exit or exception counts as failed."""
    trials = cell.size * len(suites.suite_properties(cell.suite))
    if code is None:
        return Outcome(trials, trials, trials=trials)
    try:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        return Outcome(trials, trials, consistent=code != 0, trials=trials)
    config = report.get("config", {})
    expected = {
        "suite": cell.suite, "ambient": cell.ambient, "field": cell.field,
        "trials": cell.size, "seed": seed,
    }
    props = report.get("properties", [])
    passed = bool(report.get("summary", {}).get("passed"))
    consistent = (
        all(config.get(k) == v for k, v in expected.items())
        and sum(p["trials"] for p in props) == trials
        and passed == all(p["passed"] for p in props)
        and (code == 0) == passed
    )
    if code == 0 and passed:
        return Outcome(trials, 0, consistent, trials=trials)
    if code == 1:
        violated = sum(p["failures"] for p in props)
        return Outcome(trials, max(violated, 1), consistent, trials=trials)
    return Outcome(trials, trials, consistent, trials=trials)


def warm_up(workload: str, out_dir: str) -> None:
    """First-call warm-up: one single-trial pass over every cell of the
    workload (fills the partition caches) and one small kernel call per cell."""
    report_path = os.path.join(out_dir, f"warmup-{os.getpid()}.json")
    for cell in WORKLOADS[workload]:
        if cell.is_kernel:
            call_kernel(Cell(KERNEL, cell.ambient, cell.field, 64), kernel_rng(cell, 0))
        else:
            call_verify(verify_argv(Cell(cell.suite, cell.ambient, cell.field, 1), 0, report_path))
    with contextlib.suppress(OSError):
        os.remove(report_path)
