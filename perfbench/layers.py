"""The layers of the traced run: which functions they wrap, what they count.

Each layer is a package under ``src/repro/``.  :func:`install` wraps
the layer's public entry points (see the table in ``README.md``) in the
current process; :func:`layer_table` turns the merged span files of a
traced run into the per-layer metrics the benchmark reports.

Time in no named layer is ``other``: the workload's root span, the
experiment bodies (``run_experiment`` and the pool's task entry point)
and whatever a layer's spans leave uncovered inside them.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np

from tracer import Hook, SpanLog, public_methods, register_fork_handler, \
    wrap_method, wrap_module_function

#: Layers in report order; ``other`` and ``loadgen`` are not packages.
LAYERS = ("sampling", "core", "protocols", "simulation", "faults", "coded",
          "analysis", "batch", "experiments", "obs", "stream", "service")

#: Extra per-layer metrics beyond calls / self_s / share, with units.
EXTRA_METRICS = {
    "core.rows": "count",
    "protocols.lp_solves": "count",
    "simulation.events": "count",
    "simulation.fastpath_frac": "ratio",
    "faults.loss_draws": "count",
    "batch.tasks": "count",
    "batch.retries": "count",
    "batch.pool_efficiency": "ratio",
    "experiments.export_bytes": "bytes",
    "obs.trace_overhead_frac": "ratio",
    "stream.parse_s": "s",
    "stream.window_s": "s",
    "stream.calibrate_s": "s",
    "stream.encode_s": "s",
    "stream.events": "count",
    "stream.windows": "count",
    "stream.late_frac": "ratio",
    "service.queue_wait_s": "s",
    "service.batch_size_mean": "count",
    "service.collapse_frac": "ratio",
    "service.cache_hit_frac": "ratio",
    "service.shed": "count",
    "service.route.x.p50_ms": "ms",
    "service.route.hecr.p50_ms": "ms",
    "service.route.work.p50_ms": "ms",
    "service.route.allocate_fifo.p50_ms": "ms",
    "service.route.allocate_lp.p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
}

#: Self time of these span names feeds the stream layer's split.
_STREAM_SPLIT = {"parse_event_line": "stream.parse_s",
                 "WindowManager.add": "stream.window_s",
                 "Calibrator.observe_window": "stream.calibrate_s",
                 "record_to_line": "stream.encode_s"}


# ---------------------------------------------------------------------------
# counting hooks
# ---------------------------------------------------------------------------

def _rows_of_self(log, args, kwargs, result, dur, nested, state):
    if not nested:
        log.count("core.rows", getattr(args[0], "m", 1))


def _one_row(log, args, kwargs, result, dur, nested, state):
    if not nested:
        log.count("core.rows", 1)


def _lp_one(log, args, kwargs, result, dur, nested, state):
    if not nested:
        log.count("protocols.lp_solves", 1)


def _lp_many(log, args, kwargs, result, dur, nested, state):
    if not nested:
        log.count("protocols.lp_solves", len(result))


def _simulation(log, args, kwargs, result, dur, nested, state):
    if nested:
        return
    log.count("simulation.runs", 1)
    log.count("simulation.events", result.events_processed)
    if result.events_processed == 0:
        log.count("simulation.fastpath", 1)


def _loss_draw(log, args, kwargs, result, dur, nested, state):
    log.count("faults.loss_draws", 1)


def _run_batch(log, args, kwargs, report, dur, nested, state):
    log.count("batch.tasks", sum(max(item.shards, 1) for item in report.items
                                 if not item.cached))
    if report.jobs > 1 and report.wall_seconds > 0:
        log.count("batch.item_wall_s",
                  sum(item.wall_seconds for item in report.items))
        log.count("batch.pool_capacity_s", report.jobs * report.wall_seconds)


def _export(log, args, kwargs, result, dur, nested, state):
    if isinstance(result, str):
        log.count("experiments.export_bytes", len(result.encode("utf-8")))


def _feed(log, args, kwargs, result, dur, nested, state):
    log.count("stream.events", 1)
    log.count("stream.windows", len(result))


def _solve_before(args, kwargs):
    return args[0].collapsed


def _solve(log, args, kwargs, result, dur, nested, state):
    size = len(args[1])
    log.count("service.solves", 1)
    log.count("service.solved", size)
    log.count("service.solve_x_size_s", dur * size)
    log.count("service.collapsed", args[0].collapsed - state)


def _submit(log, args, kwargs, result, dur, nested, state):
    log.count("service.submit_s", dur)


def _cache_get(log, args, kwargs, result, dur, nested, state):
    log.count("service.cache_gets", 1)
    if result is not None:
        log.count("service.cache_hits", 1)


def _admit(log, args, kwargs, result, dur, nested, state):
    if not result:
        log.count("service.shed", 1)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _import_all(package: str) -> None:
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def install(log: SpanLog) -> int:
    """Wrap every layer's entry points; returns the bindings replaced."""
    _import_all("repro")
    mod = importlib.import_module
    n = 0

    def fn(module: str, attr: str, layer: str, hook=None,
           label=None) -> None:
        nonlocal n
        n += wrap_module_function(log, mod(module), attr, layer,
                                  Hook(hook, label=label))

    def meth(module: str, cls: str, attr: str, layer: str, hook=None,
             before=None) -> None:
        nonlocal n
        n += wrap_method(log, getattr(mod(module), cls), attr, layer,
                         Hook(hook, before))

    # sampling
    fn("repro.sampling.equal_mean", "equal_mean_pair", "sampling")
    generators = mod("repro.sampling.generators")
    for attr in dir(generators):
        if attr.endswith("_profile") and callable(getattr(generators, attr)):
            fn("repro.sampling.generators", attr, "sampling")
    # core
    kernels = mod("repro.core.batch_kernels")
    for cls in ("ProfileBatch", "BatchXEvaluator"):
        for attr in public_methods(getattr(kernels, cls)):
            meth("repro.core.batch_kernels", cls, attr, "core", _rows_of_self)
    for attr in public_methods(mod("repro.core.measure").XEvaluator):
        meth("repro.core.measure", "XEvaluator", attr, "core", _one_row)
    for attr in ("x_measure", "work_rate", "work_production"):
        fn("repro.core.measure", attr, "core", _one_row)
    fn("repro.core.hecr", "hecr", "core", _one_row)
    # protocols
    fn("repro.protocols.fifo", "fifo_allocation", "protocols")
    fn("repro.protocols.general", "lp_allocation", "protocols", _lp_one)
    fn("repro.protocols.general", "lp_allocation_many", "protocols", _lp_many)
    # simulation
    fn("repro.simulation.runner", "simulate_allocation", "simulation",
       _simulation)
    fn("repro.simulation.fastpath", "analytic_simulation", "simulation",
       _simulation)
    # faults
    fn("repro.faults.recovery", "simulate_with_recovery", "faults")
    fn("repro.faults.spec", "parse_faults", "faults")
    meth("repro.faults.models", "ChannelLoss", "lost", "faults", _loss_draw)
    # coded
    fn("repro.coded.collector", "simulate_coded", "coded")
    meth("repro.coded.schemes", "RedundancyScheme", "plan", "coded")
    # analysis
    fn("repro.analysis.robustness", "completed_work_for_failure_times",
       "analysis")
    # batch
    fn("repro.batch.engine", "run_batch", "batch", _run_batch)
    meth("repro.batch.cache", "ResultCache", "get", "batch")
    meth("repro.batch.cache", "ResultCache", "put", "batch")
    # experiments
    fn("repro.experiments.export", "result_to_csv", "experiments", _export)
    fn("repro.experiments.export", "result_to_json", "experiments", _export)
    meth("repro.experiments.base", "ExperimentResult", "render",
         "experiments", _export)
    # obs
    meth("repro.obs.store", "RunStore", "record_run", "obs")
    # stream
    fn("repro.stream.events", "parse_event_line", "stream")
    meth("repro.stream.windows", "WindowManager", "add", "stream")
    meth("repro.stream.calibrate", "Calibrator", "observe_window", "stream")
    meth("repro.stream.engine", "StreamProcessor", "feed", "stream", _feed)
    fn("repro.stream.engine", "record_to_line", "stream")
    # service
    fn("repro.service.http", "read_request", "service")
    fn("repro.service.http", "render_response", "service")
    meth("repro.service.admission", "AdmissionController", "admit",
         "service", _admit)
    meth("repro.service.respcache", "ResponseCache", "get", "service",
         _cache_get)
    meth("repro.service.respcache", "ResponseCache", "put", "service")
    meth("repro.service.coalescer", "MicroBatcher", "submit", "service",
         _submit)
    meth("repro.service.coalescer", "BatchSolver", "solve", "service",
         _solve, _solve_before)
    # experiment bodies and pool tasks: time outside every named layer
    fn("repro.experiments.base", "run_experiment", "other",
       label=lambda args, kwargs: (args[0] if args
                                   else kwargs.get("experiment_id")))
    fn("repro.batch.engine", "_execute_task", "other",
       label=lambda args, kwargs: args[0].experiment_id)
    register_fork_handler(log)
    return n


# ---------------------------------------------------------------------------
# analysis: merged span files -> per-layer table
# ---------------------------------------------------------------------------

def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    intervals.sort()
    merged: list[list[float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]
             ) -> float:
    """Total length of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


class SpanTable:
    """The merged spans of a traced run, one numpy column per field.

    ``segments`` maps the id of a coroutine span to its busy segments
    ``[start, end, start, end, ...]``; every other span is busy from its
    start to its end.
    """

    def __init__(self, ids, parents, names, layers, name_idx, starts, ends,
                 segments: dict[int, list[float]]) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.names = list(names)
        self.layers = list(layers)
        self.name_idx = np.asarray(name_idx, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.segments = segments

    @classmethod
    def from_records(cls, records: list[dict]) -> "SpanTable":
        """Build from ``{"id", "parent", "layer", "name", "start", "end"}``
        dicts, with optional ``"segments": [(start, end), ...]``."""
        keys: dict[tuple[str, str], int] = {}
        for r in records:
            keys.setdefault((r["layer"], r["name"]), len(keys))
        segments = {r["id"]: [t for seg in r["segments"] for t in seg]
                    for r in records if r.get("segments")}
        return cls([r["id"] for r in records],
                   [r.get("parent") or 0 for r in records],
                   [name for _, name in keys], [layer for layer, _ in keys],
                   [keys[(r["layer"], r["name"])] for r in records],
                   [r["start"] for r in records], [r["end"] for r in records],
                   segments)

    def own_segments(self, row: int) -> list[tuple[float, float]]:
        segs = self.segments.get(int(self.ids[row]))
        if segs:
            return list(zip(segs[::2], segs[1::2]))
        return [(float(self.starts[row]), float(self.ends[row]))]

    def self_times(self) -> np.ndarray:
        """Each span's busy time minus the part its children cover.

        Children of one plain call run one after another inside it, so
        their durations add up.  Where children can overlap -- pool
        workers in other processes, coroutine steps -- coverage is the
        union of their segments instead.
        """
        n = len(self.ids)
        busy = self.ends - self.starts
        if n == 0:
            return busy
        order = np.argsort(self.ids, kind="stable")
        sorted_ids = self.ids[order]

        def rows_of(ids: np.ndarray) -> np.ndarray:
            pos = np.minimum(np.searchsorted(sorted_ids, ids), n - 1)
            return np.where(sorted_ids[pos] == ids, order[pos], -1)

        seg_ids = np.fromiter(self.segments, dtype=np.int64,
                              count=len(self.segments))
        seg_rows = rows_of(seg_ids)
        for sid, row in zip(seg_ids.tolist(), seg_rows.tolist()):
            if row >= 0:
                segs = self.segments[sid]
                busy[row] = sum(e - s for s, e in zip(segs[::2], segs[1::2]))
        parent_row = rows_of(self.parents)
        has_parent = (self.parents != 0) & (parent_row >= 0)
        covered = np.zeros(n)
        np.add.at(covered, parent_row[has_parent], busy[has_parent])
        # Exact unions where children may overlap: children in another
        # process than their parent, and coroutine spans or their parents.
        cross = has_parent & ((self.ids >> 32) != (self.parents >> 32))
        complex_rows = set(parent_row[cross].tolist())
        for row in seg_rows[seg_rows >= 0].tolist():
            complex_rows.add(row)
            if has_parent[row]:
                complex_rows.add(int(parent_row[row]))
        if complex_rows:
            kids: dict[int, list[tuple[float, float]]] = {
                r: [] for r in complex_rows}
            members = np.isin(parent_row, np.fromiter(complex_rows, np.int64))
            for child in np.nonzero(members & has_parent)[0].tolist():
                kids[int(parent_row[child])].extend(self.own_segments(child))
            for row, segs in kids.items():
                covered[row] = (_overlap(_merge(self.own_segments(row)),
                                         _merge(segs)) if segs else 0.0)
        return busy - covered


def load_spans(trace_dir: str | Path) -> tuple[SpanTable, dict[str, float]]:
    """Merge every process's span file; returns (spans, summed counters)."""
    cols: dict[str, list] = {k: [] for k in ("ids", "parents", "name_idx",
                                             "starts", "ends")}
    names: list[str] = []
    layers: list[str] = []
    index: dict[tuple[str, str], int] = {}
    segments: dict[int, list[float]] = {}
    counters: dict[str, float] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.npz")):
        with np.load(path) as data:
            meta = json.loads(data["meta"].tobytes().decode())
            remap = []
            for layer, name in zip(meta["layers"], meta["names"]):
                key = (layer, name)
                if key not in index:
                    index[key] = len(names)
                    names.append(name)
                    layers.append(layer)
                remap.append(index[key])
            remap_arr = np.asarray(remap or [0], dtype=np.int64)
            cols["ids"].append(data["ids"])
            cols["parents"].append(data["parents"])
            cols["name_idx"].append(remap_arr[data["name_idx"]])
            cols["starts"].append(data["starts"])
            cols["ends"].append(data["ends"])
        segments.update({int(k): v for k, v in meta["segments"].items()})
        for key, value in meta["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    arrays = {k: (np.concatenate(v) if v else np.zeros(0))
              for k, v in cols.items()}
    return SpanTable(arrays["ids"], arrays["parents"], names, layers,
                     arrays["name_idx"], arrays["starts"], arrays["ends"],
                     segments), counters


def subtree_self(spans: SpanTable, selfs: np.ndarray, root_prefix: str
                 ) -> tuple[float, dict[str, float]]:
    """Wall time of the spans named ``root_prefix...`` and the self time
    of everything under them, by ``layer`` and by ``layer:name``."""
    prefix_rows = [k for k, name in enumerate(spans.names)
                   if name.startswith(root_prefix)]
    roots = np.nonzero(np.isin(spans.name_idx, prefix_rows))[0]
    wall = float(np.sum(spans.ends[roots] - spans.starts[roots]))
    members = set(spans.ids[roots].tolist())
    frontier = members
    while frontier:
        children = np.isin(spans.parents, np.fromiter(frontier, np.int64))
        frontier = set(spans.ids[children].tolist()) - members
        members |= frontier
    rows = np.nonzero(np.isin(spans.ids, np.fromiter(members, np.int64)))[0]
    out: dict[str, float] = {}
    for row in rows.tolist():
        k = int(spans.name_idx[row])
        for key in (spans.layers[k], f"{spans.layers[k]}:{spans.names[k]}"):
            out[key] = out.get(key, 0.0) + float(selfs[row])
    return wall, out


def layer_table(spans: SpanTable, counters: dict[str, float],
                wall: float, selfs: np.ndarray | None = None
                ) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters.

    ``wall`` is the traced wall time of the workload (its root span);
    every ``share`` is a self time over it.  With a process pool the
    shares can add up to more than 1.
    """
    if selfs is None:
        selfs = spans.self_times()
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    out["other.self_s"] = 0.0
    per_name = np.bincount(spans.name_idx, weights=selfs,
                           minlength=len(spans.names))
    calls = np.bincount(spans.name_idx, minlength=len(spans.names))
    split = {metric: 0.0 for metric in _STREAM_SPLIT.values()}
    for k, (layer, name) in enumerate(zip(spans.layers, spans.names)):
        out[f"{layer}.self_s"] += float(per_name[k])
        if layer != "other":
            out[f"{layer}.calls"] += float(calls[k])
        metric = _STREAM_SPLIT.get(name)
        if metric is not None:
            split[metric] += float(per_name[k])
    for layer in LAYERS + ("other",):
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / wall if wall else 0.0
    out.update(split)
    get = counters.get
    out["core.rows"] = get("core.rows", 0.0)
    out["protocols.lp_solves"] = get("protocols.lp_solves", 0.0)
    out["simulation.events"] = get("simulation.events", 0.0)
    runs = get("simulation.runs", 0.0)
    out["simulation.fastpath_frac"] = (get("simulation.fastpath", 0.0) / runs
                                       if runs else 0.0)
    out["faults.loss_draws"] = get("faults.loss_draws", 0.0)
    out["batch.tasks"] = get("batch.tasks", 0.0)
    out["batch.retries"] = get("batch.retries", 0.0)
    capacity = get("batch.pool_capacity_s", 0.0)
    out["batch.pool_efficiency"] = (get("batch.item_wall_s", 0.0) / capacity
                                    if capacity else 0.0)
    out["experiments.export_bytes"] = get("experiments.export_bytes", 0.0)
    out["stream.events"] = get("stream.events", 0.0)
    out["stream.windows"] = get("stream.windows", 0.0)
    solves, solved = get("service.solves", 0.0), get("service.solved", 0.0)
    out["service.queue_wait_s"] = (get("service.submit_s", 0.0)
                                   - get("service.solve_x_size_s", 0.0))
    out["service.batch_size_mean"] = solved / solves if solves else 0.0
    out["service.collapse_frac"] = (get("service.collapsed", 0.0) / solved
                                    if solved else 0.0)
    gets = get("service.cache_gets", 0.0)
    out["service.cache_hit_frac"] = (get("service.cache_hits", 0.0) / gets
                                     if gets else 0.0)
    out["service.shed"] = get("service.shed", 0.0)
    return out
