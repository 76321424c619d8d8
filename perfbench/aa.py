"""A/A steadiness and A/B comparison of benchmark runs.

Collect runs (one JSON result per line, tagged with workload and seed)::

    python3 perfbench/aa.py collect --workload stream --seeds 1-10 \
        --out a.jsonl

or collect interleaved pairs from two checkouts (parent and change, or
the same code twice), alternating which side runs first, so a machine
whose speed drifts over minutes affects both sides alike::

    python3 perfbench/aa.py pairs --workload stream --seeds 1-10 \
        --base-root ../parent --change-root . --out a.jsonl b.jsonl

Compare two sets::

    python3 perfbench/aa.py compare a.jsonl b.jsonl

For each workload and end-to-end metric the comparison prints each
side's median and quartiles, its spread (quartile distance over the
median), and how many seed-paired runs each side won.  A metric whose
spread on either side exceeds its bound is "unresolved": the runs are
too noisy to say whether it moved.  Otherwise a change is "worse" when
its median is worse than the baseline's by more than the bound, and
"better" when it wins at least nine tenths of the pairs and the medians
differ by more than the baseline's spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float | None,
             trace: int) -> dict:
    """One benchmark run from the checkout at ``root``; its JSON line."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          cwd=root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {root} (seed {seed}): {proc.stderr}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed)
    print(f"{root} {workload} seed {seed}: " + ", ".join(
        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
        flush=True)
    return result


def collect(roots: list[Path], outs: list[Path], workload: str,
            seeds: list[int], seconds: float | None, trace: int) -> None:
    """One run per seed and checkout, appending one line per run.

    With two checkouts the runs alternate, and which one goes first
    alternates from seed to seed.
    """
    files = [open(out, "a", encoding="utf-8") for out in outs]
    try:
        for k, seed in enumerate(seeds):
            order = list(range(len(roots)))
            if k % 2:
                order.reverse()
            for side in order:
                result = run_once(roots[side], workload, seed, seconds, trace)
                files[side].write(json.dumps(result) + "\n")
                files[side].flush()
    finally:
        for fh in files:
            fh.close()


def load(path: Path) -> dict[str, list[dict]]:
    """Runs by workload."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], change: list[float], bound: float,
            better: str, wins: tuple[int, int]) -> str:
    """How ``change`` compares with ``base`` for one metric."""
    if spread(base) > bound or spread(change) > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    m_base, m_change = statistics.median(base), statistics.median(change)
    worse_by = sign * (m_change - m_base) / abs(m_base) if m_base else 0.0
    if worse_by > bound:
        return "worse"
    q1, _, q3 = quartiles(base)
    pairs = wins[0] + wins[1]
    if (pairs and wins[1] >= 0.9 * pairs
            and sign * (m_base - m_change) > q3 - q1):
        return "better"
    return "same within bound"


def compare(base_path: Path, change_path: Path) -> int:
    import spec

    base, change = load(base_path), load(change_path)
    bounds = {n: (b, bound) for n, _, b, bound in spec.END_TO_END}
    for workload in sorted(set(base) & set(change)):
        print(f"## {workload}")
        print(f"{'metric':14s} {'side':6s} {'q1':>11s} {'median':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'wins':>5s}  verdict")
        by_seed = {r["seed"]: r for r in base[workload]}
        for name, (better, bound) in bounds.items():
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            wins = [0, 0]
            for run in change[workload]:
                other = by_seed.get(run["seed"])
                if other is None:
                    continue
                x = other["metrics"][name]["value"]
                y = run["metrics"][name]["value"]
                if x != y:
                    change_wins = (y < x) if better == "lower" else (y > x)
                    wins[int(change_wins)] += 1
            result = verdict(a, b, bound, better, tuple(wins))
            for side, values, won in (("base", a, wins[0]),
                                      ("change", b, wins[1])):
                q1, med, q3 = quartiles(values)
                print(f"{name:14s} {side:6s} {q1:11.5g} {med:11.5g} "
                      f"{q3:11.5g} {spread(values):7.3f} {won:5d}"
                      + (f"  {result} (bound {bound})" if side == "change"
                         else ""))
        failed = [r for r in base[workload] + change[workload]
                  if not r["correct"]]
        if failed:
            print(f"   {len(failed)} runs failed their output checks")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect", help="run the benchmark once per seed")
    run.add_argument("--out", required=True, type=Path)
    pairs = sub.add_parser("pairs", help="interleaved runs of two checkouts")
    pairs.add_argument("--base-root", required=True, type=Path)
    pairs.add_argument("--change-root", required=True, type=Path)
    pairs.add_argument("--out", required=True, type=Path, nargs=2)
    for cmd in (run, pairs):
        cmd.add_argument("--workload", required=True)
        cmd.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
        cmd.add_argument("--seconds", type=float, default=None)
        cmd.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_ = sub.add_parser("compare", help="compare two sets of runs")
    cmp_.add_argument("base", type=Path)
    cmp_.add_argument("change", type=Path)
    opts = parser.parse_args(argv)
    if opts.command == "compare":
        return compare(opts.base, opts.change)
    if opts.command == "collect":
        roots, outs = [Path.cwd()], [opts.out]
    else:
        roots, outs = [opts.base_root, opts.change_root], opts.out
    collect([root.resolve() for root in roots], outs, opts.workload,
            _seeds(opts.seeds), opts.seconds, opts.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
