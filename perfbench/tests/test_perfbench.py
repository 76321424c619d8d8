"""Tests of the benchmark itself: inputs, span arithmetic, output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import copy
import csv
import json
from pathlib import Path

import pytest

import checks
import inputs
import layers
import spec
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def test_batch_inputs_are_deterministic_per_seed():
    assert inputs.reproduce_inputs(3) == inputs.reproduce_inputs(3)
    assert inputs.reproduce_inputs(3) != inputs.reproduce_inputs(4)
    assert inputs.monte_carlo_inputs(3) == inputs.monte_carlo_inputs(3)
    assert inputs.monte_carlo_inputs(3) != inputs.monte_carlo_inputs(4)


def test_serve_inputs_are_deterministic_per_seed():
    phases = {"low": (20.0, 1.0), "closed": 30}
    a, b = inputs.serve_inputs(5, phases), inputs.serve_inputs(5, phases)
    assert a == b
    assert a != inputs.serve_inputs(6, phases)
    requests = a["low"]["requests"] + a["closed"]["requests"]
    assert len(a["closed"]["requests"]) == 30
    assert all(0.0 < t < 1.0 for t in a["low"]["due"])
    assert all(json.loads(body)["profile"][0] == 1.0
               for _, _, body in requests)


def test_stream_trace_is_deterministic_per_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "STREAM_WINDOWS", 6)
    texts = []
    for sub, seed in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / sub
        out.mkdir()
        info = inputs.stream_inputs(seed, out)
        texts.append(Path(info["trace"]).read_bytes())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    assert info["events"] == 1 + 6 * inputs.STREAM_WORKERS


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

PID_A, PID_B = 1 << 32, 2 << 32


def _span(sid, parent, layer, start, end, segments=None):
    return {"id": sid, "parent": parent, "layer": layer, "name": layer,
            "start": start, "end": end, "segments": segments}


def test_self_time_of_a_synthetic_span_tree():
    table = layers.SpanTable.from_records([
        _span(PID_A | 1, 0, "other", 0.0, 10.0),          # root
        _span(PID_A | 2, PID_A | 1, "core", 1.0, 4.0),     # nested child
        _span(PID_A | 3, PID_A | 2, "protocols", 2.0, 3.0),
        # two workers in another process, overlapping each other
        _span(PID_B | 1, PID_A | 1, "simulation", 5.0, 9.0),
        _span((3 << 32) | 1, PID_A | 1, "simulation", 6.0, 8.0),
        # a coroutine busy on [0, 1] and [3, 4] with one child inside
        _span(PID_A | 4, 0, "service", 0.0, 4.0, [(0.0, 1.0), (3.0, 4.0)]),
        _span(PID_A | 5, PID_A | 4, "core", 3.2, 3.5),
    ])
    selfs = dict(zip(table.ids.tolist(), table.self_times().tolist()))
    assert selfs[PID_A | 1] == pytest.approx(10.0 - 3.0 - 4.0)  # union 5..9
    assert selfs[PID_A | 2] == pytest.approx(2.0)
    assert selfs[PID_A | 3] == pytest.approx(1.0)
    assert selfs[PID_B | 1] == pytest.approx(4.0)
    assert selfs[PID_A | 4] == pytest.approx(2.0 - 0.3)
    out = layers.layer_table(table, {}, wall=10.0)
    assert out["other.self_s"] == pytest.approx(3.0)
    assert out["simulation.self_s"] == pytest.approx(6.0)
    assert out["simulation.share"] == pytest.approx(0.6)
    assert out["core.calls"] == 2


def test_wrapped_calls_record_nested_spans(tmp_path):
    log = tracer.SpanLog(tmp_path)

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.wrap_function(inner, log, "core", "inner")
    wrapped_outer = tracer.wrap_function(outer, log, "batch", "outer")

    async def waits():
        await asyncio.sleep(0.05)
        return wrapped_inner(1)

    wrapped_waits = tracer.wrap_function(waits, log, "service", "waits")
    assert wrapped_outer(1) == 4
    assert asyncio.run(wrapped_waits()) == 2
    log.dump()
    table, _ = layers.load_spans(tmp_path)
    names = [table.names[i] for i in table.name_idx.tolist()]
    assert sorted(names) == ["inner", "inner", "outer", "waits"]
    by_name = dict(zip(names, zip(table.ids.tolist(), table.parents.tolist())))
    assert by_name["inner"][1] in {by_name["outer"][0], by_name["waits"][0]}
    selfs = dict(zip(names, table.self_times().tolist()))
    # The coroutine's sleep is not busy time.
    assert selfs["waits"] < 0.02


# ---------------------------------------------------------------------------
# output checks trip on corrupted output
# ---------------------------------------------------------------------------

def _reproduce_fixture(tmp_path):
    reference = json.loads(checks.REFERENCE.read_text())
    output = tmp_path / "r.csv"
    for eid, rows in reference.items():
        with open(tmp_path / f"r.{eid}.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    results = {eid: {"metadata": {}} for eid in reference}
    results["variance-trials"] = {"metadata": {"overall_good": 0.77}}
    results["variance-threshold"] = {"metadata": {"empirical_theta": 0.12}}
    results["coded-resilience"] = {"metadata": {
        "rates": [0.0, 0.005], "policies": ["recovery", "mds-3/4"],
        "p99_by_policy": {"recovery": [48.0, 60.0], "mds-3/4": [42.0, 42.7]}}}
    for eid in ("variance-trials", "variance-threshold", "coded-resilience"):
        with open(tmp_path / f"r.{eid}.csv", "w") as fh:
            fh.write("h\n")
    return output, results, list(results)


def test_reproduce_check_passes_and_trips(tmp_path):
    output, results, ids = _reproduce_fixture(tmp_path)
    assert checks.check_reproduce(output, results, ids).failed == 0

    table3 = tmp_path / "r.table3.csv"
    table3.write_text(table3.read_text().replace("1", "2", 1))
    assert checks.check_reproduce(output, results, ids).failed == 1


@pytest.mark.parametrize("eid,path,value", [
    ("variance-trials", ("overall_good",), 0.5),
    ("variance-threshold", ("empirical_theta",), 0.9),
    ("coded-resilience", ("p99_by_policy", "mds-3/4"), [42.0, 60.0]),
])
def test_reproduce_claims_trip(tmp_path, eid, path, value):
    output, results, ids = _reproduce_fixture(tmp_path)
    target = results[eid]["metadata"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert checks.check_reproduce(output, results, ids).failed == 1


def _mc_items():
    coded = {"rows": [[0.0, "recovery", 99.0, 55.0, 58.0, 0.2],
                      [0.0, "mds-3/4", 100.0, 44.0, 48.0, 25.0],
                      [0.005, "recovery", 93.0, 59.0, 60.0, 16.0],
                      [0.005, "mds-3/4", 92.0, 42.0, 60.0, 31.0]],
             "metadata": {"rates": [0.0, 0.005],
                          "policies": ["recovery", "mds-3/4"],
                          "p99_by_policy": {"recovery": [58.0, 60.0],
                                            "mds-3/4": [48.0, 60.0]},
                          "completed_pct_by_policy": {
                              "recovery": [99.0, 93.0],
                              "mds-3/4": [100.0, 92.0]}}}
    sweep = {"rows": [[0.0, 100.0, 0.0, 100.0, 0.0],
                      [0.01, 27.0, 37.0, 63.0, 1.0]], "metadata": {}}
    replay = {"rows": [], "metadata": {
        "drift_factors": [1.0, 2.0], "final_mape": [0.0, 0.001],
        "final_baseline_mape": [0.0, 0.04], "digests": ["ab", "cd"]}}
    return [{"experiment_id": eid, "error": None, "result": result}
            for eid, result in (("coded-resilience", coded),
                                ("failure-rate-sweep", sweep),
                                ("stream-replay", replay))]


def _corrupt_mc(kind):
    items = copy.deepcopy(_mc_items())
    if kind == "error":
        items[0].update(error="RuntimeError: boom", result=None)
    elif kind == "completed":
        items[0]["result"]["metadata"]["completed_pct_by_policy"][
            "recovery"] = [93.0, 99.0]
    elif kind == "makespan":
        items[0]["result"]["rows"][3][3] = 61.0
    elif kind == "sweep":
        items[1]["result"]["rows"][1][1] = 101.0
    elif kind == "replay":
        items[2]["result"]["metadata"]["final_mape"][1] = 0.05
    return items


def test_monte_carlo_check_passes_and_trips():
    assert checks.check_monte_carlo(_mc_items()).failed == 0
    for kind in ("error", "completed", "makespan", "sweep", "replay"):
        assert checks.check_monte_carlo(_corrupt_mc(kind)).failed >= 1, kind


def _stream_lines(drift=1.97, windows=6, skip=None):
    lines = []
    for k in range(windows):
        if k == skip:
            continue
        lines.append(json.dumps({"kind": "window", "window": k,
                                 "calibration": {"mape": 0.01,
                                                 "baseline_mape": 0.02}}))
    lines.append(json.dumps({"kind": "summary", "drift": {
        "clauses": [f"speeds:3@30+30x{drift}"]}}))
    return lines


def test_stream_check_passes_and_trips():
    trace = {"events": 60, "windows": 6, "drift_window": 2,
             "drift_worker": 3, "drift_factor": 2.0}
    assert checks.check_stream(_stream_lines(), trace).failed == 0
    assert checks.check_stream(_stream_lines(skip=4), trace).failed >= 10
    assert checks.check_stream(_stream_lines(drift=1.5), trace).failed == 60


def test_serve_check_passes_and_trips():
    body = {"profile": [1.0, 0.5, 0.25],
            "params": {"tau": 1e-5, "pi": 1e-4, "delta": 1.0},
            "lifespan": 100.0, "protocol": "fifo"}
    answer = checks.library_answer("allocate_fifo", body)
    served = {"total_work": answer["total_work"],
              "allocation": {"w": answer["w"]}}
    good = {"kind": "allocate_fifo", "status": 200,
            "request": json.dumps(body).encode(),
            "body": json.dumps(served).encode()}
    assert checks.check_serve([good], seed=1).failed == 0
    shed = dict(good, status=503, body=b"")
    assert checks.check_serve([good, shed], seed=1).failed == 1
    served["allocation"]["w"][1] *= 1.0 + 1e-9
    wrong = dict(good, body=json.dumps(served).encode())
    assert checks.check_serve([wrong], seed=1).failed == 1


# ---------------------------------------------------------------------------
# times at the reference host speed
# ---------------------------------------------------------------------------

def test_meter_measures_the_host_slowdown(monkeypatch):
    monkeypatch.setattr(speed, "sample_s", lambda: 2.0 * speed.REFERENCE_S)
    with speed.Meter(on=speed.cores()) as meter:
        pass
    assert meter.slowdown == pytest.approx(2.0)

    probes = iter([1.0, 3.0])
    monkeypatch.setattr(speed, "probe_s",
                        lambda: speed.REFERENCE_S * next(probes))
    with speed.Meter() as meter:
        pass
    assert meter.slowdown == pytest.approx(2.0)


def test_times_are_put_at_the_reference_speed():
    # The same work on a host running at half speed reads the same.
    report = {"setup_s": 1.0, "wall_s": 6.0, "peak_rss_mb": 100.0,
              "slowdown": 2.0}
    rep = workloads._finished(report, [4000.0, 200.0], checks.Verdict(2))
    assert (rep.setup_s, rep.wall_s, rep.op_ms) == (0.5, 3.0, [2000.0, 100.0])
    assert rep.peak_rss_mb == 100.0
    assert rep.traced_wall_s == 6.0  # layer shares stay as measured


# ---------------------------------------------------------------------------
# BENCHMARK.json is the declared spec
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
