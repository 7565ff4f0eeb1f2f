"""Benchmark of the frame-rigidity library: one workload per run.

    python3 perfbench/run.py --workload eversion --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
traced phase that follows an untraced one.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

# Single-threaded BLAS: matrices here are at most 8 x 8, where threads only
# add contention on a shared host.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402  (numpy, after the thread settings)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("eversion", "transport", "commensurability")
#: A run needs at least this many cells, so that ten lie beyond its p90.
MIN_CELLS = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_library() -> None:
    """Import frame_rigidity from this checkout's src/, and nothing else."""
    init = os.path.join(SRC, "frame_rigidity", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no library source at {init}; run from a source checkout")
    sys.path[:0] = [SRC]
    import frame_rigidity

    if os.path.abspath(frame_rigidity.__file__) != init:
        sys.exit(f"error: imported frame_rigidity from {frame_rigidity.__file__}")


def measure_setup(workload: str) -> float:
    """Median calibrated set-up time over fresh processes."""
    probe = os.path.join(BENCH_DIR, "probe_setup.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, ROOT, workload, OUT_DIR],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe_result = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(
            probe_result["setup_raw_s"] * calib.NOMINAL_CHUNK_S / probe_result["chunk_s"]
        )
    return statistics.median(samples)


class Runner:
    """Runs whole rounds of one workload and keeps calibrated cell times."""

    def __init__(self, workload: str, seed: int, tracer=None, vary_rounds=True):
        """Round r runs on inputs drawn from (seed, r), or from (seed, 0) in
        every round when ``vary_rounds`` is False, which makes per-trial
        counts independent of the number of rounds."""
        import checks
        import workloads

        self.workload = workload
        self.base_seed = seed
        self.seed = seed
        self.vary_rounds = vary_rounds
        self.rounds = 0
        self.cells = workloads.WORKLOADS[workload]
        self.tracer = tracer
        self.report_path = os.path.join(OUT_DIR, f"cell-{os.getpid()}.json")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.trials = 0
        self.pairs = 0
        self.kernel_alloc_peak = 0
        # per cell of the workload, one time per round
        self.cell_raw_s: list = [[] for _ in self.cells]
        self.cell_cal_s: list = [[] for _ in self.cells]
        self.chunks_s: list = []
        self._checks = checks
        self._wl = workloads

    @contextlib.contextmanager
    def _tracing(self, kernel: bool):
        """Record calls into the tracer (and, for a kernel call, the peak of
        traced allocations) while the body runs; no-op in an untraced run."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        tracer.sink = tracer.kernel_sink if kernel else tracer.verify_sink
        if kernel:
            tracemalloc.start()
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False
            if kernel:
                peak = tracemalloc.get_traced_memory()[1]
                self.kernel_alloc_peak = max(self.kernel_alloc_peak, peak)
                tracemalloc.stop()

    def _cell(self, cell):
        """Time one cell; returns (raw seconds, outcome)."""
        wl = self._wl
        if cell.is_kernel:
            rng = wl.kernel_rng(cell, self.seed)
            start = time.perf_counter()
            with self._tracing(kernel=True):
                batch = wl.call_kernel(cell, rng)
            raw = time.perf_counter() - start
            if batch is None:
                return raw, wl.Outcome(cell.size, cell.size, pairs=cell.size)
            failed, right = self._checks.kernel_verdict(batch, cell.size)
            return raw, wl.Outcome(cell.size, failed, right, pairs=cell.size)
        argv = wl.verify_argv(cell, self.seed, self.report_path)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report_path)
        start = time.perf_counter()
        with self._tracing(kernel=False):
            code = wl.call_verify(argv)
        raw = time.perf_counter() - start
        return raw, wl.judge_verify(cell, self.seed, code, self.report_path)

    def one_round(self) -> None:
        chunk = calib.timed_chunk
        self.seed = self._wl.round_seed(self.base_seed, self.rounds if self.vary_rounds else 0)
        self.rounds += 1
        before = chunk()
        self.chunks_s.append(before)
        for i, cell in enumerate(self.cells):
            raw, outcome = self._cell(cell)
            after = chunk()
            self.chunks_s.append(after)
            self.cell_raw_s[i].append(raw)
            self.cell_cal_s[i].append(raw * calib.NOMINAL_CHUNK_S / (0.5 * (before + after)))
            before = after
            self._count(outcome)
        for ok in self._checks.round_checks(self.workload, self.seed):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.correct = False

    def _count(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.correct &= outcome.consistent
        self.trials += outcome.trials
        self.pairs += outcome.pairs

    def run_for(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` would be exceeded, and at least
        enough rounds for MIN_CELLS cells."""
        min_rounds = -(-MIN_CELLS // len(self.cells))
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.one_round()
            last = time.perf_counter() - t0
            if self.rounds >= min_rounds and time.perf_counter() - start + last > seconds:
                break

    def campaign_s(self, raw=False) -> float:
        """Time of one pass over the workload's cells: the sum over cells of
        each cell's median over rounds, robust to a stall in any one round."""
        times = self.cell_raw_s if raw else self.cell_cal_s
        return sum(statistics.median(t) for t in times)

    def all_cell_cal_s(self) -> list:
        return [t for times in self.cell_cal_s for t in times]

    def chunk_factor(self) -> float:
        return calib.NOMINAL_CHUNK_S / statistics.fmean(self.chunks_s)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(args) -> tuple:
    import numpy as np

    import workloads

    setup_s = measure_setup(args.workload)
    workloads.warm_up(args.workload, OUT_DIR)
    runner = Runner(args.workload, args.seed)
    runner.run_for(args.seconds)
    p50, p90 = np.percentile(np.array(runner.all_cell_cal_s()) * 1e3, [50, 90])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"# {args.workload}: {runner.rounds} rounds,"
        f" {len(runner.all_cell_cal_s())} cells, raw campaign_s"
        f" {runner.campaign_s(raw=True):.4f},"
        f" mean chunk {statistics.fmean(runner.chunks_s) * 1e3:.3f} ms"
    )
    return runner, {
        "campaign_s": metric(runner.campaign_s(), "s"),
        "verdict_ms.p50": metric(p50, "ms"),
        "verdict_ms.p90": metric(p90, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def traced(args) -> tuple:
    import layers
    import workloads

    workloads.warm_up(args.workload, OUT_DIR)
    plain = Runner(args.workload, args.seed, vary_rounds=False)
    plain.run_for(args.seconds / 2)
    tracer = layers.make_tracer()
    tracer.install()
    try:
        runner = Runner(args.workload, args.seed, tracer, vary_rounds=False)
        runner.run_for(args.seconds / 2)
    finally:
        tracer.uninstall()
    runner.attempted += plain.attempted
    runner.failed += plain.failed
    runner.correct &= plain.correct
    values = layers.per_layer(tracer, runner)
    values["trace.overhead_s"] = (runner.campaign_s() - plain.campaign_s(), "s")
    return runner, {k: metric(v, u) for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    runner, metrics = (traced if args.trace else end_to_end)(args)
    with contextlib.suppress(FileNotFoundError):
        os.remove(runner.report_path)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
