"""One set-up sample in a fresh process: import plus first-call warm-up.

    python3 perfbench/probe_setup.py ROOT WORKLOAD OUT_DIR

Prints one JSON line with the raw set-up time and the mean duration of the
calibration chunks run right after it, in the same process.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

root, workload, out_dir = sys.argv[1:4]
sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]

import frame_rigidity  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up(workload, out_dir)
setup_raw_s = time.perf_counter() - _START

import calib  # noqa: E402

print(json.dumps({"setup_raw_s": setup_raw_s, "chunk_s": calib.mean_chunk_s(25)}))
