"""Per-layer metrics computed from a traced phase.

Names follow the defining module (``linalg.orthonormalize`` is one function
whichever module calls it).  ``*_per_trial`` divides by the verify trials of
the traced phase (trials x properties, kernel cells excluded); ``.us`` is
mean inclusive microseconds per call and ``.self_us`` mean self microseconds
per call.  Times are calibrated by the traced phase's mean calibration chunk.
A layer that a workload never calls reads 0.
"""

from __future__ import annotations

from tracing import Sink, Tracer

EVERT = "frames.evert"
POLAR = "linalg.polar_decompose"
RANDOM_FRAME = "frames.random_frame"
RANDOM_MAP = "induced.random_semilinear"
RECONSTRUCT = "induced.reconstruct_from_line_images"
ORACLE = "induced.line_oracle"
KERNEL = "kernels.batched_commeasurability_check"
SVD, QR, INV = "numpy.linalg.svd", "numpy.linalg.qr", "numpy.linalg.inv"


def make_tracer() -> Tracer:
    tracer = Tracer(
        watch_under={
            "linalg.orthonormalize": (EVERT,),
            INV: (POLAR,),
            ORACLE: (RECONSTRUCT,),
        },
        # a draw of a sampler's resampling loop is one svd (general frames,
        # maps) or one qr (orthogonal frames) made by the sampler itself
        watch_direct={SVD: (RANDOM_FRAME, RANDOM_MAP), QR: (RANDOM_FRAME,)},
        returns_callable={"induced.induced_line_map": ORACLE},
    )
    tracer.verify_sink = Sink()
    tracer.kernel_sink = Sink()
    return tracer


def per_layer(tracer: Tracer, runner) -> dict:
    """{metric name: (value, unit)} for every per-layer metric."""
    v, k = tracer.verify_sink, tracer.kernel_sink
    scale = runner.chunk_factor() * 1e6  # calibrated microseconds
    trials = max(runner.trials, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    def us(name, table="total"):
        return ratio(v.get(table, name), v.get("calls", name)) * scale

    def per_trial(name):
        return v.get("calls", name) / trials

    def calls(name):
        return v.get("calls", name)

    return {
        "rng.trial_rng.us": (us("rng.trial_rng"), "us"),
        "numpy.linalg.calls_per_trial": (v.prefix_sum("calls", "numpy.linalg.") / trials, "count"),
        "linalg.orthonormalize.calls_per_trial": (per_trial("linalg.orthonormalize"), "count"),
        "linalg.orthonormalize.self_us": (us("linalg.orthonormalize", "self_time"), "us"),
        "linalg.polar_decompose.us": (us(POLAR), "us"),
        "linalg.polar_decompose.newton_steps": (ratio(v.get("under", (POLAR, INV)), calls(POLAR)), "count"),
        "linalg.spectral_norm.calls_per_trial": (per_trial("linalg.spectral_norm"), "count"),
        "subspaces.Subspace.from_columns.calls_per_trial": (per_trial("subspaces.Subspace.from_columns"), "count"),
        "subspaces.Subspace.sum.self_us": (us("subspaces.Subspace.sum", "self_time"), "us"),
        "subspaces.Subspace.orthocomplement.calls_per_trial": (per_trial("subspaces.Subspace.orthocomplement"), "count"),
        "subspaces.Subspace.equals.calls_per_trial": (per_trial("subspaces.Subspace.equals"), "count"),
        "subspaces.Subspace.intersect.us": (us("subspaces.Subspace.intersect"), "us"),
        "subspaces.commeasurable_via_complements.us": (us("subspaces.commeasurable_via_complements"), "us"),
        "frames.evert.us_per_frame": (us(EVERT), "us"),
        "frames.evert.calls_per_trial": (per_trial(EVERT), "count"),
        "frames.evert.orthonormalize_calls_per_frame": (
            ratio(v.get("under", (EVERT, "linalg.orthonormalize")), calls(EVERT)), "count"),
        "frames.pi_linked.self_us": (us("frames.pi_linked", "self_time"), "us"),
        "frames.linked_partner.us": (us("frames.linked_partner"), "us"),
        "frames.bigobot.us": (us("frames.bigobot"), "us"),
        "frames.random_frame.us": (us(RANDOM_FRAME), "us"),
        "frames.random_frame.draws_per_frame": (
            ratio(v.get("direct", (RANDOM_FRAME, SVD)) + v.get("direct", (RANDOM_FRAME, QR)),
                  calls(RANDOM_FRAME)), "count"),
        "induced.apply_to_subspace.calls_per_trial": (per_trial("induced.apply_to_subspace"), "count"),
        "induced.apply_to_subspace.self_us": (us("induced.apply_to_subspace", "self_time"), "us"),
        "induced.evert_conjugate.us": (us("induced.evert_conjugate"), "us"),
        "induced.reconstruct_from_line_images.us": (us(RECONSTRUCT), "us"),
        "induced.reconstruct_from_line_images.oracle_calls": (
            ratio(v.get("under", (RECONSTRUCT, ORACLE)), calls(RECONSTRUCT)), "count"),
        "induced.random_semilinear.draws_per_map": (
            ratio(v.get("direct", (RANDOM_MAP, SVD)), calls(RANDOM_MAP)), "count"),
        "kernels.batched_commeasurability_check.us_per_pair": (
            ratio(k.get("total", KERNEL), runner.pairs) * scale, "us"),
        "kernels.batched_commeasurability_check.alloc_peak_mb": (
            runner.kernel_alloc_peak / 2**20, "MB"),
        "partitions.self_us_per_trial": (v.prefix_sum("self_time", "partitions.") / trials * scale, "us"),
        "suites.self_us_per_trial": (v.prefix_sum("self_time", "suites.") / trials * scale, "us"),
        "report.to_json.us": (us("report.VerificationReport.to_json"), "us"),
        "cli.main.self_us": (us("cli.main", "self_time"), "us"),
    }
