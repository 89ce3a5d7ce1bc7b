"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload star-sim --seed 1 --seconds 25 --trace 0

Every session runs in a fresh interpreter (``worker.py``), so each pays
its own imports and has its own peak-memory high-water mark.  A run
measures whole sessions of the seed's inputs until ``--seconds`` are
spent (at least one), and reports medians (throughput: a ratio of
sums).  Its last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Host times are given at nominal host speed (``layers.at_nominal_speed``):
a shared host's speed can drift by half or more within seconds (seen on
a 2-vCPU virtual machine), so each session times a fixed reference
workload before, after and (simulated workloads) every 50 ms during its
run, and each stretch of host time is divided by how much slower than
nominal the reference ran around it.  The wire's measured phase is not
scaled: it follows the edit schedule and socket waits, and scaling it
by the reference made it less steady.

``--trace 0`` reports the end-to-end metrics (tracing off):

* ``setup_s`` -- from the program's modules being loaded until a
  session's first edit can fall due: session construction and
  scheduling, and for ``star-wire`` the event loop, the notifier's
  listener and every client's connection.  Median over the run's
  sessions, each set up in a fresh interpreter.
* ``ops_per_s`` -- ops attempted / host seconds of the measured phase,
  both summed over the run's sessions: ``session.run()`` to quiescence,
  or for ``star-wire`` from every client connected until every coroutine
  has returned.
* ``peak_rss_mb`` -- peak resident memory of a session's process.
* ``e2e_p50_ms`` -- median host time a replica's editor takes to
  integrate one arriving op, pooled over the run's sessions: the
  transport's delivery callback, acks, duplicates and snapshots
  excluded.  It is the editor's share of an op's latency, which the
  paper's constant-time claim is about.  ``star-wire``'s wall-clock
  latency, from an op's due time to its execution at the other client,
  is per-layer (``session.due_to_exec_p50_ms``): it moved by a quarter
  between runs minutes apart on the same host, with nothing to scale it by.
``--trace 1`` runs untraced and traced sessions alternately and reports
the per-layer metrics of the traced session with the median wall time
(self times of each layer's spans, counters, and the closure terms
``unattributed_s`` and ``trace_overhead_ratio``), plus two figures from
the untraced ones: ``session.drain_s``, the median time from the last due
edit until the run is over -- for ``star-wire`` every coroutine returned
with its artifacts written, for the simulated workloads the simulator
quiescent -- ``session.e2e_p99_ms``, the tail of the editor's
integration time (both raw host time), ``session.due_to_exec_p50_ms``
and ``_p99_ms``, ``star-wire``'s wall-clock latency, and
``host.slowdown``, how many times slower than nominal the host ran
them.  The wire's tail is set by a few garbage collector pauses per
session, stretched by whatever else the host runs.

Ops that failed -- not executed at every live replica, or any op of a
session that diverged, raised or timed out -- are the result's
``failed`` count, out of ``attempted``.  Edits a client crash destroys
(``star-lossy``: typed while the client is down, or generated before it
went down and never executed by the notifier) are counted exactly, per
seed, as ``lost_to_crash`` on the session lines, not as failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from layers import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("star-sim", "star-lossy", "mesh-sim", "star-wire")
#: A run must end within this many seconds, whatever ``--seconds`` says.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
              "e2e_p50_ms": "ms"}

#: Per-layer metrics and their units; self times are seconds.
PER_LAYER = {
    "star_client.self_s": "s", "star_notifier.self_s": "s",
    "concurrency.evals": "count", "concurrency.evals_per_op": "count",
    "concurrency.hit_ratio": "ratio",
    "checks.records": "count", "history.len_max": "count",
    "ot.transforms": "count", "ot.transform.self_s": "s",
    "transport.bytes": "bytes", "transport.size.self_s": "s",
    "channel.messages": "count", "channel.send.self_s": "s",
    "simulator.events": "count", "simulator.self_s": "s",
    "event_log.self_s": "s",
    "reliability.self_s": "s", "reliability.retransmits": "count",
    "reliability.goodput_ratio": "ratio", "reliability.lost_edits": "count",
    "holdback.holds": "count", "holdback.high_water": "count",
    "mesh.self_s": "s", "mesh.got_transform.calls": "count",
    "mesh.got_transform.self_s": "s", "vector.compares": "count",
    "codec.encode.self_s": "s", "codec.decode.self_s": "s",
    "wire.frames": "count", "wire.bytes": "bytes",
    "wire.send.self_s": "s", "wire.decode.self_s": "s",
    "tracer.events": "count", "tracer.emit.self_s": "s", "tracer.write.self_s": "s",
    "harness.write_artifacts_s": "s",
    "harness.artifact_mb": "MB", "session.drain_s": "s", "session.e2e_p99_ms": "ms",
    "session.due_to_exec_p50_ms": "ms", "session.due_to_exec_p99_ms": "ms",
    "scheduler.late_p95_ms": "ms", "loop.idle.self_s": "s", "gc.pause_s": "s",
    "traced_wall_s": "s", "unattributed_s": "s", "trace_overhead_ratio": "ratio",
    "host.slowdown": "ratio",
}


def environment() -> dict[str, Any]:
    """What a result was measured on: cores, interpreter, code revision."""
    rev = "unknown"  # a checkout without git history: the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": rev, "src_sha256": src.hexdigest()[:16]}


def start_session(name: str, seed: int, mode: str, timeout: float) -> dict[str, Any]:
    """Run one session in a fresh interpreter; returns its outcome."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spans = OUT / "spans" / f"{name}.bin"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, str(seed), mode, str(spans)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{name} {mode} session exited with {proc.returncode}")
    outcome = json.loads(lines[-1])
    outcome["mode"] = mode
    outcome["seed"] = seed
    outcome["process_s"] = time.perf_counter() - t0
    return outcome


def session_seed(seed: int, index: int) -> int:
    """Session ``index`` of a run draws its inputs from this seed."""
    return seed * 1000 + index


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[dict[str, Any]]:
    """Whole sessions until ``seconds`` are spent.

    Untraced runs give each session its own inputs (``session_seed``),
    so a run's medians average over inputs as well as over time.  Traced
    runs alternate untraced and traced sessions of the run's first
    inputs, so every traced session must reproduce the untraced outputs.
    """
    begin = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - begin)

    sessions: list[dict[str, Any]] = []
    modes = ("run", "traced") if trace else ("run",)
    while True:
        mode = modes[len(sessions) % len(modes)]
        index = 0 if trace else len(sessions)
        sessions.append(start_session(name, session_seed(seed, index), mode, remaining()))
        if len(sessions) < len(modes):
            continue
        spent = time.perf_counter() - begin
        nxt = modes[len(sessions) % len(modes)]
        same = [s["process_s"] for s in sessions if s["mode"] == nxt]
        if spent + max(same) > seconds or spent + 2 * max(same) > remaining():
            return sessions


def end_to_end(runs: list) -> dict[str, float]:
    latency = [x for s in runs for x in s["integrate_nominal_ms"]]
    return {
        "setup_s": statistics.median(s["setup_nominal_s"] for s in runs),
        "ops_per_s": sum(s["attempted"] for s in runs) / sum(s["wall_nominal_s"] for s in runs),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs),
        "e2e_p50_ms": percentile(latency, 50),
    }


def per_layer(runs: list, traced: list) -> dict[str, float]:
    ordered = sorted(traced, key=lambda s: s["wall_s"])
    median_session = ordered[(len(ordered) - 1) // 2]
    # A layer the workload never enters reads 0.
    metrics = {name: median_session["layers"].get(name, 0.0) for name in PER_LAYER}
    metrics["session.drain_s"] = statistics.median(s["drain_s"] for s in runs)
    metrics["session.e2e_p99_ms"] = percentile([x for s in runs for x in s["integrate_ms"]], 99)
    due_to_exec = [x for s in runs for x in s["due_to_exec_ms"]]
    for pct in (50, 99):
        metrics[f"session.due_to_exec_p{pct}_ms"] = (percentile(due_to_exec, pct)
                                                     if due_to_exec else 0.0)
    metrics["trace_overhead_ratio"] = (statistics.median(s["wall_nominal_s"] for s in traced)
                                       / statistics.median(s["wall_nominal_s"] for s in runs))
    metrics["host.slowdown"] = statistics.median(s["slowdown"] for s in runs)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    sessions = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = [s for s in sessions if s["mode"] == "run"]
    traced = [s for s in sessions if s["mode"] == "traced"]

    problems = [f"{s['mode']}: {p}" for s in sessions for p in s["problems"]]
    for i, s in enumerate(sessions, start=1):
        print(f"# session {i} {s['mode']} seed={s['seed']}: wall={s['wall_s']:.3f}s "
              f"digest={s['digest']} "
              f"messages={s['messages']} attempted={s['attempted']} failed={s['failed']} "
              f"lost_to_crash={s['lost_to_crash']} "
              f"integrate_samples={len(s['integrate_ms'])}")
    if args.trace:
        # Same inputs, traced or not: the outputs must not change.  (The
        # wire orders concurrent edits by arrival, so its documents may.)
        keys = ("messages", "failed", "lost_to_crash")
        if args.workload != "star-wire":
            keys += ("digest",)
        finals = {tuple(s[k] for k in keys) for s in sessions}
        if len(finals) != 1:
            problems.append(f"traced and untraced sessions disagree: {sorted(finals)}")
    correct = not problems and all(s["correct"] for s in sessions)
    for problem in problems:
        print(f"# problem {problem}")

    if correct and args.trace:
        values, units = per_layer(runs, traced), PER_LAYER
    elif correct:
        values, units = end_to_end(runs), END_TO_END
        samples = sum(len(s["integrate_ms"]) for s in runs)
        print(f"# e2e samples={samples}")
    else:
        values, units = {}, {}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "metrics": metrics,
    }
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "env": env, "result": result,
                                  "sessions": sessions}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
