"""Seeded input generators, one per workload.

Each generator is a pure function of the seed: the same seed gives the
same experiment seeds, stream trace, request bodies and arrival
schedule.  The program under test sees only what these produce.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _rng(seed: int, salt: str) -> np.random.Generator:
    """An independent stream per (seed, input kind)."""
    return np.random.default_rng([seed, *salt.encode()])


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# reproduce: `run all` at default parameters
# ---------------------------------------------------------------------------

def reproduce_inputs(seed: int) -> dict:
    """The ``--seed`` handed to ``repro-hetero run all``."""
    return {"seed": _seed_from(_rng(seed, "reproduce"))}


# ---------------------------------------------------------------------------
# monte-carlo: the sharded experiments on grids denser than the defaults
# ---------------------------------------------------------------------------

#: 10x the default trials / samples; stream-replay 4x the windows.
MC_GRID = {"coded-resilience": {"n": 16, "trials": 60},
           "failure-rate-sweep": {"n_samples": 1200},
           "stream-replay": {"windows": 40}}
MC_JOBS = 2


def monte_carlo_inputs(seed: int) -> dict:
    """``run_batch`` arguments: experiment ids and per-experiment kwargs."""
    rng = _rng(seed, "monte-carlo")
    kwargs = {eid: {**grid, "seed": _seed_from(rng)}
              for eid, grid in MC_GRID.items()}
    return {"experiments": list(MC_GRID), "kwargs_by_id": kwargs,
            "jobs": MC_JOBS}


# ---------------------------------------------------------------------------
# stream: a drifting synthetic JSONL trace
# ---------------------------------------------------------------------------

STREAM_WORKERS = 32
STREAM_WINDOWS = 1000          # x 32 completions + 1 topology ~ 32k events
STREAM_WINDOW = 10.0
STREAM_DRIFT = 2.0
STREAM_JITTER = 0.02
STREAM_PARAMS = {"tau": 1e-4, "pi": 1e-3, "delta": 1.0}


def stream_inputs(seed: int, out_dir: Path) -> dict:
    """Write the trace to ``out_dir/trace.jsonl``; return its description.

    One worker slows ``STREAM_DRIFT``x from the middle window on; every
    milestone carries ``STREAM_JITTER`` relative noise.  The what-if
    profile doubles the speed of the slowest worker.
    """
    from repro.core.params import ModelParams
    from repro.stream import synthetic_trace, event_to_line

    rng = _rng(seed, "stream")
    rho = np.sort(rng.uniform(0.2, 1.0, STREAM_WORKERS))[::-1]
    rho[0] = 1.0
    drift_worker = int(rng.integers(1, STREAM_WORKERS))
    drift_window = STREAM_WINDOWS // 2
    path = out_dir / "trace.jsonl"
    events = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in synthetic_trace(
                profile=rho.tolist(), params=ModelParams(**STREAM_PARAMS),
                windows=STREAM_WINDOWS, window=STREAM_WINDOW,
                drift_worker=drift_worker, drift_factor=STREAM_DRIFT,
                drift_window=drift_window, jitter=STREAM_JITTER,
                seed=_seed_from(rng)):
            fh.write(event_to_line(event) + "\n")
            events += 1
    what_if = rho.copy()
    what_if[0] /= 2.0
    return {"trace": str(path), "events": events,
            "windows": STREAM_WINDOWS, "window": STREAM_WINDOW,
            "params": STREAM_PARAMS, "what_if": what_if.tolist(),
            "drift_worker": drift_worker, "drift_window": drift_window,
            "drift_factor": STREAM_DRIFT}


# ---------------------------------------------------------------------------
# serve: request bodies and arrival schedule
# ---------------------------------------------------------------------------

#: (kind, path, share of requests)
SERVE_MIX = (("x", "/v1/x", 0.30), ("hecr", "/v1/hecr", 0.20),
             ("work", "/v1/work", 0.20),
             ("allocate_fifo", "/v1/allocate", 0.20),
             ("allocate_lp", "/v1/allocate", 0.10))
SERVE_REPEAT = 0.25            # share of bodies that repeat an earlier one
SERVE_N = (8, 64)              # cluster sizes drawn from this closed range


def _body(rng: np.random.Generator, kind: str) -> dict:
    n = int(rng.integers(SERVE_N[0], SERVE_N[1] + 1))
    rho = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
    rho[0] = 1.0
    body = {"profile": rho.tolist(),
            "params": {"tau": float(rng.choice([1e-6, 1e-5, 1e-4])),
                       "pi": float(rng.choice([1e-5, 1e-4, 1e-3])),
                       "delta": float(rng.choice([1.0, 0.5]))}}
    if kind == "work":
        body["lifespan"] = float(rng.uniform(10.0, 1000.0))
    elif kind.startswith("allocate"):
        body["lifespan"] = float(rng.uniform(10.0, 1000.0))
        body["protocol"] = "lp" if kind == "allocate_lp" else "fifo"
    return body


def serve_requests(rng: np.random.Generator, count: int
                   ) -> list[tuple[str, str, bytes]]:
    """``count`` requests as (kind, path, body bytes)."""
    kinds = [k for k, _, _ in SERVE_MIX]
    paths = {k: p for k, p, _ in SERVE_MIX}
    weights = np.array([w for _, _, w in SERVE_MIX])
    out: list[tuple[str, str, bytes]] = []
    for _ in range(count):
        if out and rng.random() < SERVE_REPEAT:
            out.append(out[int(rng.integers(len(out)))])
            continue
        kind = kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]
        body = json.dumps(_body(rng, kind), separators=(",", ":")).encode()
        out.append((kind, paths[kind], body))
    return out


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> list[float]:
    """Due times (s from phase start) of a Poisson arrival process."""
    times, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= seconds:
            return times
        times.append(t)


def serve_inputs(seed: int, phases: dict) -> dict:
    """Bodies and due times for every phase.

    ``phases`` maps an open-loop phase name to ``(rate, seconds)`` and
    ``"closed"`` to a request count.
    """
    rng = _rng(seed, "serve")
    plan: dict[str, dict] = {}
    for name, spec in phases.items():
        if name == "closed":
            plan[name] = {"requests": serve_requests(rng, int(spec))}
        else:
            rate, seconds = spec
            due = poisson_schedule(rng, rate, seconds)
            plan[name] = {"due": due,
                          "requests": serve_requests(rng, len(due))}
    return plan
