"""Child-process launcher: start one workload through its public entry point.

Run by the benchmark, never by hand::

    python3 perfbench/launch.py --mode MODE --report PATH [--spec PATH]
        [--trace-dir DIR] [-- ARGS...]

The launcher imports the workload's entry point, stamps the moment it
is ready, runs the workload and writes a JSON report (ready and end
times on the shared monotonic clock, peak RSS, workload outputs).  With
``--trace-dir`` it first wraps every layer's functions (``layers.py``)
and writes the spans of this process and its forked workers there.

Modes: ``setup`` (imports the entry point of the workload named in
ARGS, then exits), ``reproduce`` and ``serve`` (the
``repro-hetero`` CLI with ARGS), ``monte-carlo`` (``run_batch``) and
``stream`` (``file_source`` + ``StreamProcessor``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext

#: What each workload imports before it counts as ready.
ENTRY_MODULES = {"reproduce": ("repro.cli",), "serve": ("repro.cli",),
                 "monte-carlo": ("repro.batch",), "stream": ("repro.stream",)}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _run_cli(argv: list[str], report: dict) -> None:
    from repro.cli import main
    report["rc"] = main(argv)


def _run_monte_carlo(spec: dict, report: dict) -> None:
    from repro.batch import ResultCache, run_batch
    from repro.io import result_to_dict

    batch = run_batch(spec["experiments"], kwargs_by_id=spec["kwargs_by_id"],
                      jobs=spec["jobs"], cache=ResultCache(spec["cache_dir"]))
    with open(spec["output"], "w", encoding="utf-8") as fh:
        json.dump([{"experiment_id": item.experiment_id, "error": item.error,
                    "shards": item.shards, "wall_seconds": item.wall_seconds,
                    "result": (result_to_dict(item.result)
                               if item.result is not None else None)}
                   for item in batch.items], fh)
    report["rc"] = 0


def _run_stream(spec: dict, report: dict) -> None:
    from repro.core.params import ModelParams
    from repro.obs import RunStore, default_registry
    from repro.stream import StreamProcessor, file_source, record_to_line

    store = RunStore(spec["store"])
    processor = StreamProcessor(
        spec["window"], params=ModelParams(**spec["params"]), calibrate=True,
        what_if=spec["what_if"], registry=default_registry(), store=store,
        label=spec["trace"])
    window_ms: list[float] = []
    clock = time.perf_counter
    try:
        with open(spec["output"], "w", encoding="utf-8") as out:
            for event in file_source(spec["trace"]):
                t0 = clock()
                records = processor.feed(event)
                if records:
                    window_ms.append((clock() - t0) * 1000.0)
                    for record in records:
                        out.write(record_to_line(record) + "\n")
            for record in processor.finish():
                out.write(record_to_line(record) + "\n")
    finally:
        store.close()
    report["window_ms"] = window_ms
    report["rc"] = 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=sorted(ENTRY_MODULES) + ["setup"])
    parser.add_argument("--report", required=True)
    parser.add_argument("--spec", default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    workload = args[0] if opts.mode == "setup" else opts.mode
    for module in ENTRY_MODULES[workload]:
        __import__(module)
    log = root = None
    if opts.trace_dir is not None:
        import layers
        from tracer import Root, SpanLog
        log = SpanLog(opts.trace_dir)
        layers.install(log)
        root = Root(log, "other", f"workload:{opts.mode}")
    spec = None
    if opts.spec is not None:
        with open(opts.spec, encoding="utf-8") as fh:
            spec = json.load(fh)

    report: dict = {"t_ready": time.perf_counter()}
    with root if root is not None else nullcontext():
        if opts.mode in ("reproduce", "serve"):
            _run_cli(args, report)
        elif opts.mode == "monte-carlo":
            _run_monte_carlo(spec, report)
        elif opts.mode == "stream":
            _run_stream(spec, report)
        else:
            report["rc"] = 0
    report["t_end"] = time.perf_counter()
    report["peak_rss_mb"] = _peak_rss_mb()
    if log is not None:
        from repro.obs import default_registry
        retries = default_registry().snapshot().get("batch_task_retries_total")
        log.count("batch.retries", sum(retries["series"].values())
                  if retries else 0.0)
        log.dump()
    with open(opts.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if report["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
