"""The benchmark's declared workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this
module (``python3 perfbench/run.py --print-spec``) and a test keeps the
two equal.  Every metric declares its unit and which direction is
better, so a comparison tool can gate on what a metric says it is.
"""

from __future__ import annotations

from layers import EXTRA_METRICS, LAYERS

RUN_SECONDS = 55

#: The workloads BENCHMARK.json declares, and so the ones a change is
#: gated on.  Together they reach every layer: ``reproduce`` runs every
#: experiment (simulation, faults, coded, analysis and stream included)
#: and ``serve`` is the only path through the service.
WORKLOADS = (
    ("reproduce",
     "repro-hetero run all --jobs 1 at defaults: the CLI reproduction path; "
     "loads sampling, core, experiments export, batch result cache and the "
     "obs run store"),
    ("serve",
     "repro-hetero serve, seeded x/hecr/work/FIFO/LP mix on 2 connections: "
     "open loop at 30 then 225 req/s, then 2400 closed-loop requests; loads "
     "service, core, protocols"),
)

#: Runnable, reported, but not declared: on a 2-core machine whose speed
#: drifts over minutes, four workloads leave each run too little time to
#: be steady when a full gated pass must fit in under an hour (see
#: README.md).
UNGATED_WORKLOADS = (
    ("monte-carlo",
     "run_batch of coded-resilience, failure-rate-sweep, stream-replay on "
     "dense grids, 2 jobs: loads simulation, faults, coded, analysis and "
     "the batch pool"),
    ("stream",
     "a drifting 32k-event trace, replayed through file_source + "
     "StreamProcessor with calibration: loads stream parse/window/calibrate, "
     "core on small batches, obs"),
)

#: (name, unit, better, bound).  The same four figures on every workload;
#: what the unit of work and an "operation" are depends on the workload
#: (see README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("op_p99_ms", "ms", "lower", 0.25),
)

#: Workload-specific end-to-end figures from the trace run's untraced
#: pass.  They are reported, not gated: zero where they do not apply.
E2E_EXTRA = (
    ("e2e.fail_frac", "ratio", "lower"),
    ("e2e.op_p50_ms", "ms", "lower"),
    ("e2e.window_p50_ms", "ms", "lower"),
    ("e2e.window_p99_ms", "ms", "lower"),
    ("e2e.lat_p50_ms.low", "ms", "lower"),
    ("e2e.lat_p99_ms.low", "ms", "lower"),
    ("e2e.lat_p50_ms.high", "ms", "lower"),
    ("e2e.lat_p99_ms.high", "ms", "lower"),
    ("e2e.slo_ok_frac", "ratio", "higher"),
    ("e2e.closed_rps", "1/s", "higher"),
)

_HIGHER = {"simulation.fastpath_frac", "batch.pool_efficiency",
           "service.batch_size_mean", "service.collapse_frac",
           "service.cache_hit_frac"}


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.share", "ratio", "lower")]
    out += [("other.self_s", "s", "lower"), ("other.share", "ratio", "lower")]
    out += [(name, unit, "higher" if name in _HIGHER else "lower")
            for name, unit in EXTRA_METRICS.items()]
    out += list(E2E_EXTRA)
    return out


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }
