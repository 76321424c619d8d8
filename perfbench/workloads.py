"""The four workloads: start the system, drive it, time it, check it.

Every repetition starts the system in a fresh child process with fresh
cache, run-store and temporary directories under the run's scratch
directory, so it pays what a user's first run pays.  Checks read the
outputs after the child has exited, outside the timed region.  Times
the host's speed sets are put at its reference speed (``speed.py``).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import layers
import loadgen
import speed

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
CHILD_TIMEOUT_S = 150.0
#: Extra set-up-only spawns per run, so set-up time is a median.
SETUP_SPAWNS = 3

#: Serve phases, frozen from one measurement on a 2-core x86 box: the
#: mix below reached ~300 req/s closed-loop on 2 connections.
SERVE_LOW = (30.0, 3.0)      # (req/s, seconds): ~10% of capacity
SERVE_HIGH = (225.0, 4.5)    # ~75% of capacity
SERVE_CLOSED = 2400          # requests, back to back on 2 connections,
SERVE_SEGMENTS = 3           # timed in this many equal segments
SLO_S = 0.025

_clock = time.perf_counter


@dataclass
class Rep:
    """One repetition of a workload.

    Its times are at the reference host speed (``speed.py``).
    """

    setup_s: float
    wall_s: float
    peak_rss_mb: float
    op_ms: list[float]
    verdict: checks.Verdict
    traced_wall_s: float = 0.0
    extra: dict = field(default_factory=dict)
    #: The host's slowdown the times were divided by (``speed.Meter``).
    slowdown: float = 1.0


class Context:
    """Paths, environment and child-process plumbing for one run."""

    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.scratch = root / ".perfbench_tmp" / f"run-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._reps = 0

    def rep_dir(self) -> Path:
        self._reps += 1
        path = self.scratch / f"rep-{self._reps}"
        for sub in ("cache", "obs", "tmp", "xdg"):
            (path / sub).mkdir(parents=True, exist_ok=True)
        return path

    def env(self, rep: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(self.root / "src"),
                   REPRO_CACHE_DIR=str(rep / "cache"),
                   REPRO_OBS_DIR=str(rep / "obs"), TMPDIR=str(rep / "tmp"),
                   XDG_CACHE_HOME=str(rep / "xdg"),
                   XDG_STATE_HOME=str(rep / "xdg"))
        return env

    def command(self, mode: str, rep: Path, argv=(), spec: dict | None = None,
                trace_dir: Path | None = None) -> list[str]:
        cmd = [sys.executable, str(LAUNCH), "--mode", mode,
               "--report", str(rep / "report.json")]
        if spec is not None:
            (rep / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
            cmd += ["--spec", str(rep / "spec.json")]
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-dir", str(trace_dir)]
        return cmd + ["--", *argv]

    def spawn(self, mode: str, rep: Path, argv=(), spec: dict | None = None,
              trace_dir: Path | None = None, one_core: bool = True) -> dict:
        """Run the launcher to completion; returns its report, with the
        host's slowdown meanwhile (sampled on the core the child is
        pinned to when it keeps only ``one_core`` busy, else probed
        around the run)."""
        cmd = self.command(mode, rep, argv, spec, trace_dir)
        core = speed.cores()[0]
        with open(rep / "stdout.txt", "wb") as out, \
                open(rep / "stderr.txt", "wb") as err, \
                speed.pinned(core) if one_core else nullcontext(), \
                speed.Meter(on=(core,) if one_core else ()) as meter:
            start = _clock()
            proc = subprocess.run(cmd, env=self.env(rep), stdout=out,
                                  stderr=err, timeout=CHILD_TIMEOUT_S,
                                  cwd=self.root)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited {proc.returncode}: "
                               f"{_tail(rep / 'stderr.txt')}")
        report = json.loads((rep / "report.json").read_text())
        report["setup_s"] = report["t_ready"] - start
        report["wall_s"] = report["t_end"] - report["t_ready"]
        report["slowdown"] = meter.slowdown
        return report

    def setup_samples(self, workload: str) -> list[float]:
        """Set-up times of import-only spawns at the reference speed (the
        first one is a warm-up that fills bytecode caches and is
        discarded)."""
        samples = []
        for k in range(SETUP_SPAWNS + 1):
            report = self.spawn("setup", self.rep_dir(), [workload])
            if k:
                samples.append(report["setup_s"] / report["slowdown"])
        return samples


def _tail(path: Path, lines: int = 5) -> str:
    try:
        text = path.read_text(errors="replace")
        return " | ".join(text.splitlines()[-lines:])
    except OSError:
        return ""


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _finished(report: dict, op_ms: list[float], verdict: checks.Verdict,
              extra: dict | None = None) -> Rep:
    """The repetition of a child that ran to completion, its times put
    at the reference host speed."""
    slow = report["slowdown"]
    return Rep(report["setup_s"] / slow, report["wall_s"] / slow,
               report["peak_rss_mb"], [ms / slow for ms in op_ms], verdict,
               report["wall_s"], extra or {}, slow)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

class Reproduce:
    name = "reproduce"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.inputs = inputs.reproduce_inputs(ctx.seed)

    def rep(self, trace_dir: Path | None = None) -> Rep:
        rep = self.ctx.rep_dir()
        output = rep / "r.csv"
        report = self.ctx.spawn(
            "reproduce", rep,
            ["run", "all", "--jobs", "1", "--seed", str(self.inputs["seed"]),
             "--format", "csv", "--output", str(output),
             "--cache-dir", str(rep / "cache")], trace_dir=trace_dir)
        from repro.experiments.base import list_experiments
        results = {}
        for path in (rep / "cache").glob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            results[payload["experiment_id"]] = payload["result"]
        verdict = checks.check_reproduce(output, results, list_experiments())
        op_ms = [r["metadata"]["obs"]["wall_seconds"] * 1000.0
                 for r in results.values()]
        return _finished(report, op_ms, verdict)


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

class MonteCarlo:
    name = "monte-carlo"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.inputs = inputs.monte_carlo_inputs(ctx.seed)

    def rep(self, trace_dir: Path | None = None) -> Rep:
        rep = self.ctx.rep_dir()
        spec = {**self.inputs, "cache_dir": str(rep / "cache"),
                "output": str(rep / "results.json")}
        # The pool keeps every core busy: probe around the run.
        report = self.ctx.spawn("monte-carlo", rep, spec=spec,
                                trace_dir=trace_dir, one_core=False)
        items = json.loads((rep / "results.json").read_text())
        op_ms = [item["wall_seconds"] * 1000.0 for item in items]
        return _finished(report, op_ms, checks.check_monte_carlo(items))


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

class Stream:
    name = "stream"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        trace_dir = ctx.scratch / "stream-input"
        trace_dir.mkdir(exist_ok=True)
        self.inputs = inputs.stream_inputs(ctx.seed, trace_dir)

    def rep(self, trace_dir: Path | None = None) -> Rep:
        rep = self.ctx.rep_dir()
        spec = {**self.inputs, "store": str(rep / "obs" / "runs.sqlite3"),
                "output": str(rep / "records.jsonl")}
        report = self.ctx.spawn("stream", rep, spec=spec, trace_dir=trace_dir)
        lines = (rep / "records.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        window_ms = report["window_ms"]
        extra = {"e2e.window_p50_ms": _pct(window_ms, 50),
                 "e2e.window_p99_ms": _pct(window_ms, 99),
                 "window_samples": len(window_ms),
                 "stream.late_frac": (summary.get("late", 0)
                                      / max(summary.get("events", 1), 1))}
        return _finished(report, window_ms,
                         checks.check_stream(lines, self.inputs), extra)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

class Serve:
    name = "serve"
    host = "127.0.0.1"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.plan = inputs.serve_inputs(
            ctx.seed, {"low": SERVE_LOW, "high": SERVE_HIGH,
                       "closed": SERVE_CLOSED})

    def start(self, rep: Path, trace_dir: Path | None = None
              ) -> tuple[subprocess.Popen, int, float]:
        """Spawn the server; returns (process, port, spawn-to-healthy s)."""
        argv = ["serve", "--host", self.host, "--port", "0",
                "--cache-dir", str(rep / "cache"),
                "--store-dir", str(rep / "obs")]
        cmd = self.ctx.command("serve", rep, argv, trace_dir=trace_dir)
        err_path = rep / "stderr.txt"
        with open(rep / "stdout.txt", "wb") as out, \
                open(err_path, "wb") as err:
            start = _clock()
            proc = subprocess.Popen(cmd, env=self.ctx.env(rep), stdout=out,
                                    stderr=err, cwd=self.ctx.root)
        deadline = start + CHILD_TIMEOUT_S
        port = None
        while _clock() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited {proc.returncode}: "
                                   f"{_tail(err_path)}")
            if port is None:
                port = _announced_port(err_path)
            if port is not None and loadgen.get(self.host, port,
                                                "/healthz")[0] == 200:
                return proc, port, _clock() - start
            time.sleep(0.002)
        self.stop(proc)
        raise RuntimeError("server did not become healthy")

    @staticmethod
    def stop(proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def setup_samples(self) -> list[float]:
        samples = []
        for _ in range(SETUP_SPAWNS):
            # This process polls /healthz meanwhile: probe around it.
            with speed.pinned(speed.cores()[0]), speed.Meter() as meter:
                proc, _, setup = self.start(self.ctx.rep_dir())
            self.stop(proc)
            samples.append(setup / meter.slowdown)
        return samples

    def rep(self, trace_dir: Path | None = None) -> Rep:
        rep = self.ctx.rep_dir()
        # The server runs on one core, the load generator's threads on
        # the other; each closed-loop segment is put at the reference
        # speed by samples of both cores.
        server_core, client_core = speed.cores()
        with speed.pinned(server_core), speed.Meter() as meter:
            proc, port, setup = self.start(rep, trace_dir)
        phases: dict[str, list[dict]] = {}
        server_counts: dict[str, dict] = {}
        slowdowns, closed_ms, segment_walls = [], [], []
        try:
            with speed.pinned(client_core):
                for name in ("low", "high"):
                    plan = self.plan[name]
                    phases[name] = loadgen.open_loop(
                        self.host, port, plan["due"], plan["requests"])
                    server_counts[name] = self._scrape(port)
                phases["closed"] = []
                closed = self.plan["closed"]["requests"]
                size = len(closed) // SERVE_SEGMENTS
                for k in range(SERVE_SEGMENTS):
                    with speed.Meter(on=(server_core, client_core)) as seg:
                        results, seconds = loadgen.closed_loop(
                            self.host, port, closed[k * size:(k + 1) * size])
                    phases["closed"] += results
                    slowdowns.append(seg.slowdown)
                    segment_walls.append(seconds / seg.slowdown)
                    closed_ms += [r["latency_s"] * 1000.0 / seg.slowdown
                                  for r in results]
                server_counts["closed"] = self._scrape(port)
            # The median segment, scaled to the whole phase: one stalled
            # segment cannot set the figure on its own.
            closed_wall = statistics.median(segment_walls) * SERVE_SEGMENTS
        finally:
            self.stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"server exited {proc.returncode}: "
                               f"{_tail(rep / 'stderr.txt')}")
        report = json.loads((rep / "report.json").read_text())
        results = []
        for name, phase in phases.items():
            for result, (_, _, body) in zip(phase,
                                            self.plan[name]["requests"]):
                result["request"] = body
                results.append(result)
        verdict = checks.check_serve(results, self.ctx.seed)
        lat = {name: [r["latency_s"] * 1000.0 for r in phase]
               for name, phase in phases.items()}
        open_loop = phases["low"] + phases["high"]
        extra = {
            "e2e.lat_p50_ms.low": _pct(lat["low"], 50),
            "e2e.lat_p99_ms.low": _pct(lat["low"], 99),
            "e2e.lat_p50_ms.high": _pct(lat["high"], 50),
            "e2e.lat_p99_ms.high": _pct(lat["high"], 99),
            "e2e.slo_ok_frac": sum(1 for r in open_loop if r["status"] == 200
                                   and r["latency_s"] <= SLO_S)
            / len(open_loop),
            "e2e.closed_rps": SERVE_SEGMENTS * size / closed_wall,
            "loadgen.late_p99_ms": _pct([r["late_s"] * 1000.0
                                         for r in open_loop], 99),
            "loadgen.sent": float(len(results)),
            "samples.low": len(lat["low"]), "samples.high": len(lat["high"]),
            "server_counts": server_counts,
        }
        extra["lat_x_p50_ms.low"] = _pct(
            [r["latency_s"] * 1000.0 for r in phases["low"]
             if r["kind"] == "x"], 50)
        for kind, _, _ in inputs.SERVE_MIX:
            extra[f"service.route.{kind}.p50_ms"] = _pct(
                [r["latency_s"] * 1000.0 for r in results
                 if r["kind"] == kind], 50)
        # The gated latency is the closed loop's: at the high rate the
        # queue amplifies run-to-run noise far past any usable bound.
        return Rep(setup / meter.slowdown, closed_wall, report["peak_rss_mb"],
                   closed_ms, verdict, report["t_end"] - report["t_ready"],
                   extra, statistics.mean(slowdowns))

    def _scrape(self, port: int) -> dict[str, float]:
        status, body = loadgen.get(self.host, port, "/metrics")
        if status != 200:
            return {}
        return loadgen.scrape_counts(body.decode(), (
            "svc_requests_total", "svc_shed_total",
            "svc_response_cache_hits_total", "svc_batch_size_sum",
            "svc_batch_size_count"))


def _announced_port(err_path: Path) -> int | None:
    marker = "serving on http://"
    try:
        text = err_path.read_text(errors="replace")
    except OSError:
        return None
    at = text.find(marker)
    if at < 0:
        return None
    address = text[at + len(marker):].split(None, 1)[0]
    return int(address.rsplit(":", 1)[1])


WORKLOADS = {cls.name: cls for cls in (Reproduce, MonteCarlo, Stream, Serve)}


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def measure(ctx: Context, workload) -> tuple[dict, checks.Verdict, dict]:
    """Untraced repetitions until ``ctx.seconds`` is used up.

    Returns the end-to-end metrics (medians over repetitions), the
    summed verdict and the workload-specific extras of the median
    repetition.
    """
    if isinstance(workload, Serve):
        setups = workload.setup_samples()
    else:
        setups = ctx.setup_samples(workload.name)
    reps: list[Rep] = []
    start = _clock()
    while True:
        t0 = _clock()
        reps.append(workload.rep())
        took = _clock() - t0
        elapsed = _clock() - start
        if elapsed + took > ctx.seconds:
            break
    ops = [ms for r in reps for ms in r.op_ms]
    metrics = {
        "setup_s": statistics.median(setups + [r.setup_s for r in reps]),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        # Per repetition, then the median: one slow repetition cannot
        # set the tail on its own.
        "op_p99_ms": statistics.median(_pct(r.op_ms, 99) for r in reps),
    }
    verdict = _sum_verdicts(r.verdict for r in reps)
    middle = sorted(reps, key=lambda r: r.wall_s)[len(reps) // 2]
    extra = {**middle.extra, "e2e.op_p50_ms": _pct(ops, 50),
             "reps": len(reps), "op_samples": len(ops),
             "setup_samples": len(setups) + len(reps),
             "host slowdown (median)": statistics.median(
                 r.slowdown for r in reps)}
    return metrics, verdict, extra


def measure_layers(ctx: Context, workload) -> tuple[dict, checks.Verdict,
                                                    dict]:
    """One untraced and one traced repetition; per-layer metrics."""
    plain = workload.rep()
    trace_dir = ctx.scratch / "trace"
    traced = workload.rep(trace_dir)
    spans, counters = layers.load_spans(trace_dir)
    selfs = spans.self_times()
    table = layers.layer_table(spans, counters, traced.traced_wall_s, selfs)
    table["obs.trace_overhead_frac"] = (traced.wall_s - plain.wall_s) \
        / plain.wall_s
    verdict = _sum_verdicts([plain.verdict, traced.verdict])
    table["e2e.fail_frac"] = verdict.failed / verdict.attempted
    table["e2e.op_p50_ms"] = _pct(plain.op_ms, 50)
    table.update({k: v for k, v in plain.extra.items()
                  if k.startswith(("service.route.", "e2e.", "loadgen.",
                                   "stream.late_frac"))})
    info = {"spans": len(spans.ids), "traced_wall_s": traced.traced_wall_s,
            "untraced_wall_s": plain.wall_s, "traced_op_wall_s": traced.wall_s,
            "host slowdown (untraced, traced)": [plain.slowdown,
                                                 traced.slowdown],
            **_layer_facts(spans, selfs, counters, table, plain.extra)}
    return table, verdict, info


#: ROADMAP's layer facts: (root span prefix, layer or layer:name).
_FACTS = (("run_experiment:variance-threshold", "sampling"),
          ("run_experiment:coded-resilience", "faults:ChannelLoss.lost"),
          ("_execute_task:coded-resilience", "faults:ChannelLoss.lost"))


def _layer_facts(spans, selfs, counters: dict, table: dict,
                 extra: dict) -> dict:
    """Self-time shares inside single experiments, and the serve
    coalescing wait next to a low-load ``/v1/x`` latency."""
    facts = {}
    for root, key in _FACTS:
        wall, by_key = layers.subtree_self(spans, selfs, root)
        if wall:
            facts[f"fact: {key} share of {root}"] = by_key.get(key, 0.0) / wall
    solved = counters.get("service.solved", 0.0)
    if solved and "lat_x_p50_ms.low" in extra:
        facts["fact: mean queue wait per solved request ms"] = (
            1000.0 * table["service.queue_wait_s"] / solved)
        facts["fact: /v1/x p50 ms at the low rate"] = extra["lat_x_p50_ms.low"]
    return facts


def _sum_verdicts(verdicts) -> checks.Verdict:
    total = checks.Verdict(0)
    for v in verdicts:
        total.attempted += v.attempted
        total.failed += v.failed
        total.messages += v.messages
    return total
