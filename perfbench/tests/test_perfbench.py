"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

Sessions here are the benchmark's workloads shrunk to a few ops per
site, so the whole file runs in seconds.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Outcome, SimWorkload, build_sim, check_sim, edit_schedule, run_session,
)

SMALL = {
    "star-sim": dataclasses.replace(WORKLOADS["star-sim"], sites=4, ops_per_site=8),
    "star-lossy": dataclasses.replace(WORKLOADS["star-lossy"], sites=4, ops_per_site=20),
    "mesh-sim": dataclasses.replace(WORKLOADS["mesh-sim"], sites=3, ops_per_site=6),
    "star-wire": dataclasses.replace(WORKLOADS["star-wire"], ops_per_site=10),
}


def session(name: str, mode: str, seed: int = 3):
    # The benchmark runs each session in a fresh interpreter.  Freezing
    # what earlier tests left behind keeps a full collection of it from
    # stalling a wire client between building its scheduler and
    # scheduling its first edit (due 50 ms later), which the program
    # reports as a SchedulingError.
    gc.collect()
    gc.freeze()
    try:
        return run_session(SMALL[name], seed, mode)
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_outputs_identical(name: str) -> None:
    plain = session(name, "run")
    traced = session(name, "traced")
    again = session(name, "run")
    for out in (plain, traced, again):
        assert out.correct, out.problems
        assert out.failed == 0
    assert traced.layers and not plain.layers
    assert traced.messages == plain.messages == again.messages
    assert traced.lost_to_crash == plain.lost_to_crash
    if isinstance(SMALL[name], SimWorkload):
        # The wire interleaves concurrent edits by wall-clock arrival, so
        # only the simulator promises identical documents across runs.
        assert traced.digest == plain.digest == again.digest


def test_lossy_counts_edits_lost_to_crash() -> None:
    out = session("star-lossy", "run")
    assert out.lost_to_crash > 0
    assert out.failed == 0


def test_an_edit_dropped_after_the_restart_is_a_failure() -> None:
    spec = WORKLOADS["star-lossy"]
    probe = layers.Probe()
    probe.install()
    try:
        sim = build_sim(spec, 3)
        sim.run()
    finally:
        probe.restore()
    out = Outcome(attempted=spec.sites * spec.ops_per_site)
    check_sim(sim, spec, probe, out)
    assert (out.failed, out.problems) == (0, [])
    lost = out.lost_to_crash
    assert probe.generated_before_crash and lost > 0

    # Make the notifier forget one edit the crashed client typed after
    # its restart: that edit is owed, so it must count as failed.
    crashed = next(c for c in sim.clients if c.crash_count)
    later = [i for i in crashed.executed_op_ids if i.startswith(f"c{crashed.pid}_")
             and "'" not in i and i not in probe.generated_before_crash]
    assert later
    centre = sim.notifier.executed_op_ids
    centre[:] = [i for i in centre if i.rstrip("'") != later[0]]
    out = Outcome(attempted=spec.sites * spec.ops_per_site)
    check_sim(sim, spec, probe, out)
    assert out.failed == 1
    assert out.lost_to_crash == lost


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_a_function_of_the_seed(name: str) -> None:
    spec = WORKLOADS[name]
    assert edit_schedule(spec, 7) == edit_schedule(spec, 7)
    assert edit_schedule(spec, 7) != edit_schedule(spec, 8)


@pytest.mark.parametrize("name", ["star-lossy", "mesh-sim", "star-wire"])
def test_self_times_and_unattributed_sum_to_traced_wall(name: str) -> None:
    metrics = session(name, "traced").layers
    assert set(metrics) <= set(run.PER_LAYER)
    selfs = [metrics[k] for k in layers.SPAN_NAMES.values()]
    assert all(v >= 0 for v in selfs)
    assert metrics["unattributed_s"] >= 0
    assert sum(selfs) + metrics["unattributed_s"] == pytest.approx(metrics["traced_wall_s"],
                                                                   abs=1e-9)


def test_self_time_subtracts_child_spans(monkeypatch: pytest.MonkeyPatch) -> None:
    ticks = iter(range(100))
    monkeypatch.setattr(layers, "clock", lambda: float(next(ticks)))
    rec = layers.SpanRecorder()
    inner = rec.span("inner", lambda: None)
    outer = rec.span("outer", lambda: (inner(), inner()))
    outer()
    # outer: 0..5; inner: 1..2 and 3..4
    assert rec.self_times() == {"outer": 3.0, "inner": 2.0}
    assert rec.span_count("inner") == 2
    assert list(rec.parent) == [-1, 0, 0]


def test_host_time_is_scaled_stretch_by_stretch() -> None:
    nominal = layers.REF_NOMINAL_S
    probe = layers.Probe()
    # Session 0..10 s with one pace at 4..5 s; the reference ran at
    # nominal speed before, twice as slow at the pace, and at nominal after.
    probe.paces = [(4.0, 5.0, 2 * nominal)]
    probe.arrival_s, probe.arrival_pace = [0.3, 0.3], [0, 1]
    wall, arrivals = probe.at_nominal_speed(0.0, 10.0, nominal, nominal)
    # Each stretch runs at the mean slowdown of its two ends: 1.5 times.
    assert wall == pytest.approx(4.0 / 1.5 + 5.0 / 1.5)
    assert arrivals == pytest.approx([0.2, 0.2])
    assert probe.paced_s() == 1.0


def test_patches_restore_the_originals() -> None:
    from repro.editor.star_notifier import StarNotifier
    from repro.editor.mesh import got_transform
    from repro.editor import mesh

    before = dict(vars(StarNotifier))
    probe, rec, patches = layers.Probe(), layers.SpanRecorder(), layers.Patches()
    probe.install()
    layers.install_layers(rec, patches, [])
    assert mesh.got_transform is not got_transform
    patches.restore()
    probe.restore()
    assert mesh.got_transform is got_transform
    assert dict(vars(StarNotifier)) == before


def test_metric_names_and_benchmark_file() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert set(layers.SPAN_NAMES.values()) <= set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_predictions_cover_every_layer_metric() -> None:
    table = json.loads((BENCH / "predictions.json").read_text())
    assert set(table["workloads"]) == set(WORKLOADS)
    covered = {m for layer in table["layers"] for m in layer["metrics"]}
    assert covered == set(run.PER_LAYER)
    for layer in table["layers"]:
        assert set(layer["moves"]) <= set(WORKLOADS)
        assert set(layer["no_change"]) <= set(WORKLOADS)
        for moved in layer["moves"].values():
            assert set(moved) <= set(run.END_TO_END)
