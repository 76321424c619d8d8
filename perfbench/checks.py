"""Output checks, run after each workload outside the timed region.

Each check returns a :class:`Verdict`: the operations it judged, how
many of them failed, and why.  Experiments that draw no random
numbers are compared row for row with reference rows stored beside the
benchmark; sampled ones are judged on the paper's claims only, so a
change that legitimately alters random streams still passes.

Re-record the reference rows after a deliberate change to them::

    PYTHONPATH=src python3 perfbench/checks.py record
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = (Path(__file__).resolve().parent / "reference"
             / "reproduce_rows.json")

#: Experiments that draw no random numbers: their rows must not move.
DETERMINISTIC = ("failure-resilience", "fig3", "fig4", "sec4-example",
                 "saturation", "table1", "table2", "table3", "table4",
                 "tau-sweep")

#: R7: the variance predictor is right on ~76% of equal-mean pairs.
#: The band is the one the experiment's own tests use.
R7_BAND = (0.70, 0.95)
#: The paper's empirical HECR-gap threshold (0.167); the check accepts
#: the same order of magnitude, as the experiment's tests do.
THETA_BOUND = 3 * 0.167
#: Crash rate at which the coded-resilience claim is stated.
CLAIM_RATE = 0.005
#: The stream's recovered drift factor must be this close to the truth.
DRIFT_TOLERANCE = 0.10
#: Served numbers must match the library to this relative tolerance.
SERVE_RTOL = 1e-12
SERVE_SAMPLE = 200


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def _per_operation(attempted: int, failures: list[str]) -> Verdict:
    """One failure message per failed operation."""
    return Verdict(attempted, min(len(failures), attempted), failures)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def csv_rows(output: Path, experiment_id: str) -> list[list[str]] | None:
    """Rows of ``run all --format csv``'s file for one experiment."""
    path = output.with_name(f"{output.stem}.{experiment_id}{output.suffix}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError:
        return None


def check_reproduce(output: Path, results: dict[str, dict],
                    experiments: list[str]) -> Verdict:
    """Judge one ``run all`` from its CSV files and cached results.

    ``results`` maps experiment id to its result dict (as stored in the
    run's result cache, which carries the metadata the claims need).
    """
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    failures = []
    for eid in experiments:
        rows = csv_rows(output, eid)
        if rows is None or eid not in results:
            failures.append(f"{eid}: no output")
        elif eid in reference and rows != reference[eid]:
            failures.append(f"{eid}: rows differ from the reference")
    failures += _claims_r7(results.get("variance-trials"))
    failures += _claims_theta(results.get("variance-threshold"))
    failures += _claims_coded_p99(results.get("coded-resilience"))
    return _per_operation(len(experiments), failures)


def _claims_r7(result: dict | None) -> list[str]:
    if result is None:
        return []
    good = result["metadata"]["overall_good"]
    if not R7_BAND[0] <= good <= R7_BAND[1]:
        return [f"variance-trials: R7 agreement {good:.3f} outside {R7_BAND}"]
    return []


def _claims_theta(result: dict | None) -> list[str]:
    if result is None:
        return []
    theta = result["metadata"]["empirical_theta"]
    if not 0.0 < theta < THETA_BOUND:
        return [f"variance-threshold: theta {theta} outside "
                f"(0, {THETA_BOUND})"]
    return []


def _coded_cell(meta: dict, key: str, policy: str) -> float:
    return meta[key][policy][meta["rates"].index(CLAIM_RATE)]


def _claims_coded_p99(result: dict | None) -> list[str]:
    """PR-level claim at default trials: coded p99 beats recovery p99."""
    if result is None:
        return []
    meta = result["metadata"]
    recovery = _coded_cell(meta, "p99_by_policy", "recovery")
    coded = [p for p in meta["policies"] if p != "recovery"]
    best = min(_coded_cell(meta, "p99_by_policy", p) for p in coded)
    if not best < recovery:
        return [f"coded-resilience: best coded p99 {best} not below "
                f"recovery p99 {recovery} at crash rate {CLAIM_RATE}"]
    return []


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

def _non_increasing(values: list[float]) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def check_monte_carlo(items: list[dict]) -> Verdict:
    """Judge the dense-grid batch: one operation per experiment."""
    failures = []
    by_id = {}
    for item in items:
        if item["error"] is not None or item["result"] is None:
            failures.append(f"{item['experiment_id']}: {item['error']}")
        else:
            by_id[item["experiment_id"]] = item["result"]
    coded = by_id.get("coded-resilience")
    if coded is not None:
        meta = coded["metadata"]
        for policy, completed in meta["completed_pct_by_policy"].items():
            if not _non_increasing(completed):
                failures.append(f"coded-resilience: {policy} completed % "
                                f"rises with crash rate: {completed}")
        # At dense grids every policy's p99 is censored at the lifespan
        # for crash rates >= CLAIM_RATE, so the p99 claim is judged on
        # the default grid (reproduce) and here on makespan and p99 order.
        recovery_ms = _makespan(coded, "recovery")
        for policy in meta["policies"]:
            if policy == "recovery":
                continue
            if not _makespan(coded, policy) < recovery_ms:
                failures.append(f"coded-resilience: {policy} makespan not "
                                f"below recovery at crash rate {CLAIM_RATE}")
            if (_coded_cell(meta, "p99_by_policy", policy)
                    > _coded_cell(meta, "p99_by_policy", "recovery")):
                failures.append(f"coded-resilience: {policy} p99 above "
                                f"recovery at crash rate {CLAIM_RATE}")
    sweep = by_id.get("failure-rate-sweep")
    if sweep is not None:
        for column in (1, 3):  # strict mean %, skip mean %
            values = [row[column] for row in sweep["rows"]]
            if not _non_increasing(values):
                failures.append(f"failure-rate-sweep: completed % rises with "
                                f"crash rate: {values}")
    replay = by_id.get("stream-replay")
    if replay is not None:
        meta = replay["metadata"]
        digests = meta["digests"]
        if len(digests) != len(meta["drift_factors"]) or not all(digests):
            failures.append("stream-replay: missing replay digests")
        for factor, mape, base in zip(meta["drift_factors"],
                                      meta["final_mape"],
                                      meta["final_baseline_mape"]):
            if factor > 1.0 and not mape < base:
                failures.append(f"stream-replay: calibrated MAPE {mape} not "
                                f"below baseline {base} at drift {factor}")
    return _per_operation(len(items), failures)


def _makespan(result: dict, policy: str) -> float:
    for row in result["rows"]:
        if row[0] == CLAIM_RATE and row[1] == policy:
            return row[3]
    raise KeyError(policy)


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

_CLAUSE = re.compile(r"speeds:(\d+)@[^x]+x([0-9.eE+-]+)$")


def check_stream(lines: list[str], trace: dict) -> Verdict:
    """Judge the record stream of one trace replay.

    Operations are events.  A missing, repeated or out-of-order window
    fails that window's events; a failed calibration check fails all.
    """
    events = trace["events"]
    records = [json.loads(line) for line in lines]
    windows = [r for r in records if r.get("kind") == "window"]
    summary = [r for r in records if r.get("kind") == "summary"]
    messages = []
    bad = sum(1 for k, r in enumerate(windows) if r["window"] != k)
    bad += abs(trace["windows"] - len(windows))
    if bad:
        messages.append(f"stream: {bad} windows out of order or missing")
    failed = round(bad * events / trace["windows"])
    whole_run = []
    if len(summary) != 1:
        whole_run.append("stream: expected exactly one summary record")
    after = [r["calibration"] for r in windows
             if r["window"] >= trace["drift_window"] + 2 and r["calibration"]]
    mape = [c["mape"] for c in after if c["mape"] is not None]
    base = [c["baseline_mape"] for c in after
            if c["baseline_mape"] is not None]
    if not mape or not base or not (sum(mape) / len(mape)
                                    < sum(base) / len(base)):
        whole_run.append("stream: calibrated MAPE not below uncalibrated "
                         "MAPE after the drift")
    factor = _recovered_drift(summary[-1] if summary else {},
                              trace["drift_worker"])
    want = trace["drift_factor"]
    if factor is None or abs(factor - want) > DRIFT_TOLERANCE * want:
        whole_run.append(f"stream: recovered drift {factor} not within "
                         f"{DRIFT_TOLERANCE:.0%} of {want}")
    if whole_run:
        failed = events
    return Verdict(events, min(failed, events), messages + whole_run)


def _recovered_drift(summary: dict, worker: int) -> float | None:
    """The drift worker's last fitted slowdown in the summary clauses."""
    clauses = ((summary.get("drift") or {}).get("clauses")) or []
    factor = None
    for clause in clauses:
        match = _CLAUSE.match(clause)
        if match and int(match.group(1)) == worker:
            factor = float(match.group(2))
    return factor


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= SERVE_RTOL * max(abs(a), abs(b), scale)


def library_answer(kind: str, body: dict) -> dict:
    """What the library says the service should answer for one body."""
    from repro.core.hecr import hecr
    from repro.core.measure import work_production, work_rate, x_measure
    from repro.core.params import ModelParams
    from repro.core.profile import Profile
    from repro.protocols import fifo_allocation, lp_allocation

    profile = Profile(body["profile"])
    params = ModelParams(**body["params"])
    if kind == "x":
        return {"x": x_measure(profile, params)}
    if kind == "hecr":
        return {"x": x_measure(profile, params), "hecr": hecr(profile, params)}
    if kind == "work":
        return {"work_rate": work_rate(profile, params),
                "work": work_production(profile, params, body["lifespan"])}
    if kind == "allocate_fifo":
        alloc = fifo_allocation(profile, params, body["lifespan"])
    else:
        natural = tuple(range(profile.n))
        alloc = lp_allocation(profile, params, body["lifespan"], natural,
                              natural)
    return {"total_work": float(alloc.w.sum()),
            "w": [float(v) for v in alloc.w]}


def served_values(kind: str, payload: dict) -> dict:
    if kind.startswith("allocate"):
        return {"total_work": payload["total_work"],
                "w": payload["allocation"]["w"]}
    return payload


def check_serve(results: list[dict], seed: int) -> Verdict:
    """Non-200s and timeouts fail; a seeded sample is checked numerically."""
    import numpy as np

    failures = [f"serve: {r['kind']} answered {r['status']}"
                for r in results if r["status"] != 200]
    ok = [r for r in results if r["status"] == 200]
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(ok), size=min(SERVE_SAMPLE, len(ok)), replace=False)
    for i in sorted(picks.tolist()):
        r = ok[i]
        want = library_answer(r["kind"], json.loads(r["request"]))
        got = served_values(r["kind"], json.loads(r["body"]))
        if not _matches(want, got):
            failures.append(f"serve: {r['kind']} answer differs from the "
                            f"library")
    return _per_operation(len(results), failures)


def _matches(want: dict, got: dict) -> bool:
    scale = max((abs(v) for v in want.values() if isinstance(v, float)),
                default=0.0)
    for key, value in want.items():
        if key not in got:
            return False
        if isinstance(value, list):
            if len(value) != len(got[key]) or not all(
                    _close(a, b, scale) for a, b in zip(value, got[key])):
                return False
        elif not (isinstance(got[key], (int, float))
                  and math.isfinite(got[key]) and _close(value, got[key],
                                                         0.0)):
            return False
    return True


# ---------------------------------------------------------------------------
# re-recording the reference rows
# ---------------------------------------------------------------------------

def record(out_dir: Path) -> None:
    """Run the deterministic experiments and store their CSV rows."""
    import subprocess
    out_dir.mkdir(parents=True, exist_ok=True)
    output = out_dir / "r.csv"
    rows = {}
    for eid in DETERMINISTIC:
        subprocess.run([sys.executable, "-m", "repro", "run", eid, "--format",
                        "csv", "--no-store", "--output",
                        str(output.with_name(f"r.{eid}.csv"))], check=True,
                       stdout=subprocess.DEVNULL)
        rows[eid] = csv_rows(output, eid)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(format_reference(rows), encoding="utf-8")


def format_reference(rows: dict[str, list[list[str]]]) -> str:
    """JSON with one table row per line, so diffs show the row that moved."""
    blocks = []
    for eid, table in rows.items():
        body = ",\n".join(f"  {json.dumps(row)}" for row in table)
        blocks.append(f" {json.dumps(eid)}: [\n{body}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/checks.py record")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
