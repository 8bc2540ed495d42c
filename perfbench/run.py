"""Benchmark of the burst-scheduling DRAM simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_ddr2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics, writing the spans to ``perfbench/out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what each
workload and metric is and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import harness
from harness import median, percentile

#: The benchmark's contract: workloads (with why each was chosen), the
#: end-to-end metrics with their bounds and the per-layer metrics.
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

#: Paper Figure 10: Burst_TH cuts execution time 21% vs BkInOrder.
PAPER_EXEC_REDUCTION_PCT = 21.0

#: Mechanisms with their own arbitration-pass self time metric.
MECHANISM_KEYS = (
    "BkInOrder", "RowHit", "Intel", "Intel_RP", "Burst", "Burst_RP",
    "Burst_WP", "Burst_TH", "Burst_QW", "Burst_QB",
)

#: Set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Cells the service check re-simulates in-process on seeds without
#: committed reference digests.
SERVICE_SPOT_CELLS = 8


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def cells(self, label: str, digests: Dict[str, str],
              errors: Dict[str, str], expected: Dict[str, str]) -> None:
        """Each cell fails if it raised or its digest is not ``expected``."""
        for cell in sorted(set(digests) | set(errors)):
            self.attempted += 1
            if cell in errors:
                self.failures.append(f"{label} {cell}: {errors[cell]}")
            elif cell in expected and expected[cell] != digests[cell]:
                self.failures.append(f"{label} {cell}: digest mismatch")
        missing = set(expected) - set(digests) - set(errors)
        for cell in sorted(missing):
            self.attempted += 1
            self.failures.append(f"{label} {cell}: missing")


def cell_medians(passes) -> List[float]:
    """Each cell's median host time over the passes that ran it.

    Percentiles are taken over cells, one sample each, so they do not
    depend on how many passes fit in the run: the fleet drains come in
    size clusters, and pooling a varying number of passes moved its
    p90 between clusters from run to run.
    """
    per_cell: Dict[str, List[float]] = {}
    for cell_times in passes:
        for cell, seconds in cell_times.items():
            per_cell.setdefault(cell, []).append(seconds)
    return [median(samples) for samples in per_cell.values()]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> Tuple[float, str]:
    """Seconds from spawning a fresh interpreter to inputs generated."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(harness.BENCH_DIR / "setup_probe.py"),
         workload, str(seed)],
        cwd=harness.ROOT, env=harness.program_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        marker = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if marker.strip() != "generated" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, rest.strip()


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


def checkpoint_probe(cell: tuple, path: Path, repeats: int = 5) -> dict:
    """Save and restore one fig7 cell at mid-run; resume must be exact."""
    from repro.checkpoint import load_checkpoint, save_checkpoint
    from repro.controller.system import MemorySystem
    from repro.cpu.core import OoOCore
    from repro.workloads.spec2000 import make_benchmark_trace

    from workloads import fig7_payload

    benchmark, mechanism, accesses, seed, config = cell

    def fresh() -> OoOCore:
        trace = make_benchmark_trace(benchmark, accesses, seed)
        return OoOCore(MemorySystem(config, mechanism), trace)

    whole = fresh()
    expected = harness.digest(fig7_payload(whole.system.stats, whole.run()))
    core = fresh()
    while core.system.cycle < whole.system.cycle // 2:
        core.step()
    saves, loads = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        save_checkpoint(str(path), core)
        saves.append(time.perf_counter() - t0)
    for _ in range(repeats):
        resumed = fresh()
        t0 = time.perf_counter()
        load_checkpoint(str(path), resumed)
        loads.append(time.perf_counter() - t0)
    result = resumed.run()
    return {
        "save_ms": median(saves) * 1e3,
        "load_ms": median(loads) * 1e3,
        "bytes": path.stat().st_size,
        "ok": harness.digest(fig7_payload(resumed.system.stats, result))
        == expected,
    }


def run_in_process(workload: str, seed: int, seconds: float, trace: bool,
                   record: bool, work: Path, outcome: Outcome) -> dict:
    import workloads as wl
    from inputs import input_digest, make_inputs

    setups = [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES)]
    started = time.perf_counter()
    inputs = make_inputs(workload, seed)
    gen_s = time.perf_counter() - started
    own = input_digest(workload, inputs)
    outcome.check("input digest equal across processes",
                  all(d == own for _, d in setups))

    cache = work / "cache"
    run_pass = {
        "fig7_ddr2": lambda: wl.fig7_pass(inputs, cache),
        "fleet_writes": lambda: wl.fleet_pass(inputs),
        "sparse_open": lambda: wl.sparse_pass(inputs),
    }[workload]

    tracer = None
    layer: Dict[str, float] = {}
    if trace:
        from tracing import Tracer

        untraced = run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass()
            covered = sum(entry[1] for entry in tracer.agg.values())
            if workload == "fig7_ddr2":
                # Warm pass over the cache the traced pass filled, so the
                # cache-load span measures hits, not misses.
                from repro.experiments import runner

                runner.run_cells(inputs["cells"], jobs=1, memo={},
                                 progress=False)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        layer["trace.untraced_events_per_s"] = untraced.cycles / untraced.cpu
        layer["trace.traced_events_per_s"] = traced.cycles / traced.cpu
        layer["trace.overhead_frac"] = (
            1.0 - layer["trace.traced_events_per_s"]
            / layer["trace.untraced_events_per_s"]
        )
        layer["trace.coverage_frac"] = covered / traced.wall
        for name, busy in tracer.layer_self_s().items():
            layer[f"share.{name}"] = busy / traced.wall
        if workload == "fig7_ddr2":
            probe = checkpoint_probe(inputs["cells"][7], work / "mid.ckpt")
            outcome.check("checkpoint resume byte-identical", probe["ok"])
            layer.update({f"checkpoint.{k}": float(v)
                          for k, v in probe.items() if k != "ok"})
    else:
        passes = []
        began = time.perf_counter()
        while True:
            passes.append(run_pass())
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(passes) > seconds:
                break
    # Before the output checks, which simulate more in this process.
    rss = harness.peak_rss_mb()

    reference = None if record else harness.load_reference(workload, seed)
    if reference is None:
        # No committed digests for this seed: the first pass, confirmed
        # on a seed-chosen sample under the sequential engine, is the
        # reference for every pass.
        reference = dict(passes[0].digests)
        if workload == "sparse_open":
            bad = wl.sparse_spot_check(inputs, seed)
            outcome.check(f"engine A/B {bad}", bad is None)
        else:
            spot = (wl.fig7_spot_check if workload == "fig7_ddr2"
                    else wl.fleet_spot_check)(inputs, seed)
            outcome.check(
                "engine A/B spot check",
                all(reference.get(c) == d for c, d in spot.items()),
            )
    for index, one in enumerate(passes):
        outcome.cells(f"pass {index}", one.digests, one.errors, reference)
    if record and not outcome.failures:
        harness.record_reference(workload, seed, passes[0].digests)

    first = passes[-1]
    stats = [entry[0] if workload == "fig7_ddr2" else entry[1]
             for entry in first.results.values()]
    # End-to-end numbers come from untraced passes only.
    timed = passes[:1] if trace else passes
    times = cell_medians(one.cell_times for one in timed)
    e2e = {
        "events_per_s": median(p.cycles / p.cpu for p in timed),
        "wall_s": median(p.wall for p in timed),
        "cell_p50_ms": percentile(times, 50) * 1e3,
        "cell_p90_ms": percentile(times, 90) * 1e3,
        "cells_per_s": median(len(p.cell_times) / p.wall for p in timed),
        "setup_s": median(s for s, _ in setups),
        "peak_rss_mb": rss,
        "sim_read_latency_cycles": wl.mean_read_latency(stats),
    }
    extra = {"cell_samples": len(times), "passes": len(timed),
             "pass_walls": [p.wall for p in timed]}
    if workload == "fig7_ddr2":
        extra["sim_exec_reduction_pct"] = wl.exec_reduction_pct(first.results)
    if workload == "fleet_writes":
        extra["sim_victim_slowdown"] = wl.max_slowdown(
            first.results, "flooder_vs_reader", "Burst_QW")
        extra["sim_benign_slowdown"] = wl.max_slowdown(
            first.results, "symmetric4", "Burst_QW")
    if tracer is not None:
        layer.update(layer_metrics(tracer, passes[1].cycles, stats, gen_s))
    return {"e2e": e2e, "extra": extra, "layer": layer, "tracer": tracer}


def layer_metrics(tracer, cycles: int, stats, gen_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced pass (see README for the moves)."""
    t = tracer
    m: Dict[str, float] = {}
    for name in ("cpu.step", "sim.driver_step", "controller.tick",
                 "controller.next_event", "controller.enqueue",
                 "controller.issue_for", "controller.completions",
                 "dram.refresh", "dram.issue"):
        m[f"{name}_calls"] = t.calls(name)
        m[f"{name}_self_us"] = t.mean_self_us(name)
    m["controller.skip_to_calls"] = t.calls("controller.skip_to")
    ticks = t.calls("controller.tick")
    m["controller.leap_frac"] = 1.0 - ticks / cycles if cycles else 0.0
    enqueues = t.calls("controller.enqueue")
    m["controller.enqueue_reject_frac"] = (
        t.counts["enqueue_rejects"] / enqueues if enqueues else 0.0)
    passes = {k: v for k, v in t.agg.items() if k.startswith("schedule.")}
    calls = sum(v[0] for v in passes.values())
    m["core.schedule_calls"] = calls
    m["core.schedule_self_us"] = (
        sum(v[1] for v in passes.values()) / calls * 1e6 if calls else 0.0)
    m["core.schedule_issue_frac"] = (
        t.counts["schedule_issued"] / calls if calls else 0.0)
    for mechanism in MECHANISM_KEYS:
        m[f"core.schedule_self_us.{mechanism}"] = t.mean_self_us(
            f"schedule.{mechanism}")
    m["mapping.make_access_calls"] = t.calls("mapping.make_access")
    m["mapping.make_access_us"] = t.mean_self_us("mapping.make_access")
    act = t.counts["cmd.ACT"]
    col = t.counts["cmd.RD"] + t.counts["cmd.WR"]
    m["dram.cmd_act"] = act
    m["dram.cmd_pre"] = t.counts["cmd.PRE"]
    m["dram.cmd_col"] = col
    m["dram.cmd_ref"] = t.counts["cmd.REF"] + t.counts["cmd.REFPB"]
    m["dram.cols_per_act"] = col / act if act else 0.0
    reports = [s.report() for s in stats]
    for name, key in (("row_hit_rate", "row_hit"),
                      ("read_latency_cycles", "read_latency"),
                      ("write_latency_cycles", "write_latency"),
                      ("write_queue_full_frac", "write_queue_saturation"),
                      ("data_bus_util", "data_bus_util")):
        m[f"sim.{name}"] = sum(r[key] for r in reports) / len(reports)
    m["workloads.gen_s"] = gen_s
    m["experiments.cell_key_us"] = t.mean_self_us("experiments.cell_key")
    m["experiments.cache_store_ms"] = (
        t.mean_self_us("experiments.cache_store") / 1e3)
    m["experiments.cache_load_ms"] = (
        t.mean_self_us("experiments.cache_load") / 1e3)
    return m


# ----------------------------------------------------------------------
# service_fig7
# ----------------------------------------------------------------------


def check_cycle(cycle, keys, outcome: Outcome, reference, label: str):
    """Digest every stored cell; the service's own digest must agree."""
    from inputs import cell_id
    from workloads import fig7_payload

    digests, errors, results = {}, {}, {}
    for key, cell in keys.items():
        name = cell_id(cell)
        entry = cycle.stored.get(key)
        if key in cycle.cold.failed or entry is None:
            errors[name] = cycle.cold.failed.get(key, "no cached result")
            continue
        stats, core = entry
        payload = {"key": key, "stats": stats.to_dict(),
                   "core": core.to_dict()}
        service_digest = hashlib.sha256(
            harness.canonical(payload).encode("utf-8")).hexdigest()
        if cycle.cold.summary["digests"].get(key) != service_digest:
            errors[name] = "service digest differs from its cached result"
            continue
        digests[name] = harness.digest(fig7_payload(stats, core))
        results[name] = entry
    outcome.cells(f"{label} cold", digests, errors, reference)
    warm = cycle.warm.summary
    warm_same = (warm.get("digest") == cycle.cold.summary.get("digest")
                 and warm.get("simulated") == 0)
    for cell in keys.values():
        outcome.check(f"{label} warm {cell_id(cell)} served from cache",
                      warm_same)
    return results


def run_service(seed: int, seconds: float, trace: bool, work: Path,
                outcome: Outcome) -> dict:
    from repro.experiments import runner

    import service as svc
    from inputs import cell_id, make_inputs
    from workloads import exec_reduction_pct, fig7_payload, mean_read_latency

    started = time.perf_counter()
    inputs = make_inputs("service_fig7", seed)
    gen_s = time.perf_counter() - started
    cells, params = inputs["cells"], inputs["params"]
    keys = {runner.cell_key(*cell): cell for cell in cells}
    socket_path = os.path.relpath(work / "s.sock", harness.ROOT)
    log = work / "server.log"
    # Extra starts, so even a single cycle has SETUP_SAMPLES set-ups.
    setups: List[float] = []
    idle = harness.fresh_dir(work / "idle")
    for _ in range(SETUP_SAMPLES - 2):
        with svc.Server(socket_path, idle, log) as server:
            setups.append(server.ready_s)
    cycles = []
    began = time.perf_counter()
    while True:
        cache = harness.fresh_dir(work / f"service-cache{len(cycles)}")
        cycles.append(svc.run_cycle(cells, params, socket_path, cache, log,
                                    setups))
        elapsed = time.perf_counter() - began
        if trace or elapsed + elapsed / len(cycles) > seconds:
            break
    # Before the output checks, which simulate more in this process.
    rss = harness.peak_rss_mb(children=True)

    reference = harness.load_reference("fig7_ddr2", seed)
    if reference is None:
        # Byte-identity across the service path, on a seed-chosen sample
        # simulated in this process.
        sample = random.Random(seed).sample(cells, SERVICE_SPOT_CELLS)
        reference = {
            cell_id(cell): harness.digest(
                fig7_payload(*runner.simulate_cell(*cell)))
            for cell in sample
        }
    results = [check_cycle(cycle, keys, outcome, reference, f"cycle {i}")
               for i, cycle in enumerate(cycles)]
    first = results[0]
    mem_cycles = sum(entry[1].mem_cycles for entry in first.values())
    times = cell_medians(cycle.cold.cell_times for cycle in cycles)
    walls = [cycle.cold.wall for cycle in cycles]
    e2e = {
        "events_per_s": median(mem_cycles / wall for wall in walls),
        "wall_s": median(walls),
        "cell_p50_ms": percentile(times, 50) * 1e3,
        "cell_p90_ms": percentile(times, 90) * 1e3,
        "cells_per_s": median(len(cells) / wall for wall in walls),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "sim_read_latency_cycles": mean_read_latency(
            [entry[0] for entry in first.values()]),
    }
    extra = {
        "cell_samples": len(times),
        "passes": len(cycles),
        "pass_walls": walls,
        "warm_job_s": median(cycle.warm.wall for cycle in cycles),
        "sim_exec_reduction_pct": exec_reduction_pct(first),
    }
    layer: Dict[str, float] = {}
    tracer = None
    if trace:
        from tracing import Tracer

        cold = cycles[0].cold
        ipc = [cold.cell_times[k] - cold.worker_wall[k]
               for k in cold.cell_times if k in cold.worker_wall]
        layer["service.bubble_frac"] = cold.summary.get("bubble_fraction") or 0.0
        layer["service.ipc_ms"] = median(ipc) * 1e3
        layer["service.dispatch_gap_ms"] = median(cold.dispatch_gaps) * 1e3
        layer["service.worker_events_per_s"] = (
            mem_cycles / sum(cold.worker_wall.values()))
        # Tracing wraps nothing in the server or its workers, so the
        # measured job is the untraced one.
        layer["trace.untraced_events_per_s"] = e2e["events_per_s"]
        layer["trace.traced_events_per_s"] = e2e["events_per_s"]
        stored = cycles[0].stored
        tracer = Tracer()
        tracer.install()
        replay = time.perf_counter()
        try:
            # The cache path the server runs, replayed in this process
            # over the store the cold job filled.
            svc.cached_results(cells, cycles[0].cache_dir)
            os.environ["REPRO_CACHE_DIR"] = str(
                harness.fresh_dir(work / "store"))
            for key, cell in keys.items():
                if stored.get(key) is not None:
                    runner.cache_store(key, cell, *stored[key])
        finally:
            tracer.uninstall()
        replay = time.perf_counter() - replay
        layer["trace.coverage_frac"] = sum(
            entry[1] for entry in tracer.agg.values()) / replay
        for name, busy in tracer.layer_self_s().items():
            layer[f"share.{name}"] = busy / replay
        # No simulation runs in this process (cycles=0): the simulator
        # layers read zero here; the workers' cost is in service.*.
        layer.update(layer_metrics(
            tracer, 0, [entry[0] for entry in first.values()], gen_s))
        probe = checkpoint_probe(cells[7], work / "mid.ckpt")
        outcome.check("checkpoint resume byte-identical", probe["ok"])
        layer.update({f"checkpoint.{k}": float(v)
                      for k, v in probe.items() if k != "ok"})
    return {"e2e": e2e, "extra": extra, "layer": layer, "tracer": tracer}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_one(args) -> int:
    harness.import_program()
    work = harness.WORK_DIR / f"{args.workload}-{os.getpid()}"
    harness.fresh_dir(work)
    overridden = harness.pin_environment(work / "cache")
    outcome = Outcome()
    try:
        if args.workload == "service_fig7":
            out = run_service(args.seed, args.seconds, args.trace, work,
                              outcome)
        else:
            out = run_in_process(args.workload, args.seed, args.seconds,
                                 args.trace, args.record_reference, work,
                                 outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    committed = harness.load_reference(
        "fig7_ddr2" if args.workload == "service_fig7" else args.workload,
        args.seed) is not None
    e2e, extra = out["e2e"], out["extra"]
    extra["failed_frac"] = len(outcome.failures) / outcome.attempted
    info = harness.stamp(args.seed, {
        "events_per_s": "process_time of the timed phase (service: wall)",
        "wall_s": "perf_counter",
        "cells": "perf_counter per cell; service: client-observed events",
        "setup_s": "perf_counter, spawn to inputs generated / workers ready",
    })
    info["overridden_knobs"] = overridden
    info["reference"] = (
        ("dev" if args.seed == harness.DEV_SEED else
         "held-out" if args.seed == harness.HELDOUT_SEED else "committed")
        if committed else "engine A/B spot check"
    )
    print_report(args, e2e, extra, outcome, info)

    if args.trace:
        layer = {name: float(out["layer"].get(name, 0.0))
                 for name, _ in PER_LAYER}
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layer[name]:>16.6g} {unit}")
        if out["tracer"] is not None:
            path = (harness.OUT_DIR
                    / f"spans-{args.workload}-seed{args.seed}.json")
            out["tracer"].write(path, {"workload": args.workload,
                                       "stamp": info, "per_layer": layer})
            print(f"spans written to {os.path.relpath(path, harness.ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    record = {"workload": args.workload, "trace": args.trace, "stamp": info,
              "end_to_end": e2e, "extra": extra,
              "per_layer": out["layer"], "failures": outcome.failures}
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (harness.OUT_DIR / f"result-{args.workload}-seed{args.seed}"
     f"-trace{int(args.trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


def print_report(args, e2e, extra, outcome, info) -> None:
    print(f"workload {args.workload}  seed {args.seed} "
          f"({info['reference']})  {info['python']}  nproc {info['nproc']}"
          f"  numpy {info['numpy']}  code {info['code_version']}"
          f"  git {info['git_sha']}")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28} {extra['failed_frac']:>14.6g} "
          f"({len(outcome.failures)} of {outcome.attempted} operations)")
    print(f"  cell samples {extra['cell_samples']} (one per cell, median "
          f"over {extra['passes']} pass(es))")
    if "warm_job_s" in extra:
        print(f"  {'warm_job_s':<28} {extra['warm_job_s']:>14.6g} s")
    if "sim_exec_reduction_pct" in extra:
        value = extra["sim_exec_reduction_pct"]
        print(f"  {'sim_exec_reduction_pct':<28} {value:>14.6g} %  "
              f"(paper {PAPER_EXEC_REDUCTION_PCT:g}%, difference "
              f"{value - PAPER_EXEC_REDUCTION_PCT:+.2f} points)")
    for name in ("sim_victim_slowdown", "sim_benign_slowdown"):
        if name in extra:
            print(f"  {name:<28} {extra[name]:>14.6g} x")
    print("  sim_* are simulated, not measured: the model is unvalidated "
          "against hardware (the paper is the only reference); statistics "
          "start from empty queues and closed rows, with no warm-up.")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")


#: What ``--workload all`` tabulates: the end-to-end metrics, then the
#: ones only some workloads have (``-`` where a workload has none).
SUMMARY = [name for name, _ in END_TO_END] + [
    "failed_frac", "warm_job_s", "sim_exec_reduction_pct",
    "sim_victim_slowdown", "sim_benign_slowdown",
]


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    records = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            cwd=harness.ROOT, text=True, stdout=subprocess.PIPE,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        path = (harness.OUT_DIR / f"result-{workload}-seed{args.seed}"
                f"-trace{int(args.trace)}.json")
        records[workload] = json.loads(path.read_text())
    print(f"\n{'metric':<26}" + "".join(f"{w:>15}" for w in WORKLOADS))
    for name in SUMMARY:
        cells = []
        for workload in WORKLOADS:
            record = records[workload]
            value = record["end_to_end"].get(name, record["extra"].get(name))
            cells.append("-" if value is None else f"{value:.5g}")
        print(f"{name:<26}" + "".join(f"{c:>15}" for c in cells))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=harness.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; whole passes run until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's cell digests as the reference "
                        "(in-process workloads; service_fig7 checks against "
                        "fig7_ddr2's)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.trace = bool(args.trace)
    os.chdir(harness.ROOT)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except harness.ProgramMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
