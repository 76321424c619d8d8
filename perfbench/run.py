"""The repository's end-to-end benchmark: one command, four user paths.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` times untraced repetitions for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer metrics.  Every run checks the
workload's outputs.  A human-readable table goes to standard output,
and the last line is one JSON object::

    {"correct": true, "attempted": 19, "failed": 0,
     "metrics": {"wall_s": {"value": 5.1, "unit": "s"}, ...}}

``--print-spec`` prints the ``BENCHMARK.json`` this module declares.
See ``perfbench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-spec", action="store_true")
    opts = parser.parse_args(argv)

    import spec
    if opts.print_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    names = [name for name, _ in spec.WORKLOADS + spec.UNGATED_WORKLOADS]
    if opts.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; src/repro not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    seconds = opts.seconds if opts.seconds is not None else spec.RUN_SECONDS

    import workloads
    ctx = workloads.Context(root, opts.seed, seconds)
    try:
        workload = workloads.WORKLOADS[opts.workload](ctx)
        if opts.trace:
            metrics, verdict, info = workloads.measure_layers(ctx, workload)
            declared = spec.per_layer()
        else:
            metrics, verdict, info = workloads.measure(ctx, workload)
            declared = [(n, u, b) for n, u, b, _ in spec.END_TO_END]
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
        _remove_if_empty(ctx.scratch.parent)

    _print_table(opts.workload, declared, metrics, info, verdict)
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def _print_table(workload: str, declared, metrics: dict, info: dict,
                 verdict) -> None:
    print(f"# {workload}: {verdict.attempted} operations checked, "
          f"{verdict.failed} failed "
          f"(fail_frac {verdict.failed / max(verdict.attempted, 1):.4g})")
    for message in dict.fromkeys(verdict.messages):
        print(f"#   check failed: {message}")
    for name, unit, better in declared:
        if name in metrics:
            print(f"{name:40s} {metrics[name]:>14.6g} {unit:6s} "
                  f"({better} is better)")
    for key, value in info.items():
        if key.startswith(("e2e.", "loadgen.", "service.route.", "fact")):
            print(f"{key:40s} {value:>14.6g}")
        elif isinstance(value, dict):
            print(f"# {key}: {json.dumps(value)}")
        else:
            print(f"# {key}: {value}")


if __name__ == "__main__":
    sys.exit(main())
