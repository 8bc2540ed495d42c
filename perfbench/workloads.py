"""The three in-process workloads: one measured pass each.

A pass drives the program through its public API only and returns the
host times, the simulated cycles and one digest per cell.  The
``sim_*`` numbers are computed afterwards from the finished results
(``analysis`` is deliberately left out of the timed phase).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from harness import digest, fresh_dir
from inputs import (
    FLEET_MECHANISMS,
    SPARSE_MECHANISM,
    cell_id,
)


@dataclass
class Pass:
    """One measured pass over a workload's cells."""

    wall: float
    cpu: float
    cycles: int
    #: Cell id -> host seconds, for cells that finished.
    cell_times: Dict[str, float]
    digests: Dict[str, str]
    #: Cell id -> error text for cells that raised.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Cell id -> finished result, for the untimed analysis.
    results: Dict[str, object] = field(default_factory=dict)


@contextmanager
def sequential_engine():
    """Run the block with the next-event engine off (``REPRO_FASTFWD=0``).

    The sequential loop is the program's own A/B reference: results
    must be byte-identical with it, so it serves as the output check
    on seeds that have no committed reference digests.
    """
    os.environ["REPRO_FASTFWD"] = "0"
    try:
        yield
    finally:
        del os.environ["REPRO_FASTFWD"]


# ----------------------------------------------------------------------
# fig7_ddr2: the closed-loop Table-4 matrix through the runner
# ----------------------------------------------------------------------


def fig7_payload(stats, core) -> dict:
    return {"stats": stats.to_dict(), "core": core.to_dict()}


def fig7_pass(inputs, cache_dir: Path) -> Pass:
    """``run_cells`` over the matrix, one job, empty cache (as the CLI)."""
    from repro.experiments import runner

    cells = inputs["cells"]
    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir(cache_dir))
    stamps: List[float] = []
    cpu0 = time.process_time()
    stamps.append(time.perf_counter())
    results, report = runner.run_cells(
        cells, jobs=1, memo={},
        progress=lambda _report: stamps.append(time.perf_counter()),
    )
    wall = time.perf_counter() - stamps[0]
    cpu = time.process_time() - cpu0
    if report.executed != len(cells):
        raise RuntimeError(
            f"fig7 pass simulated {report.executed} of {len(cells)} cells; "
            "the scratch cache was not empty"
        )
    return Pass(
        wall=wall,
        cpu=cpu,
        cycles=sum(results[cell][1].mem_cycles for cell in cells),
        cell_times={
            cell_id(cell): b - a
            for cell, a, b in zip(cells, stamps, stamps[1:])
        },
        digests={
            cell_id(cell): digest(fig7_payload(*results[cell]))
            for cell in cells
        },
        results={cell_id(cell): results[cell] for cell in cells},
    )


def fig7_spot_check(inputs, seed: int, count: int = 4) -> Dict[str, str]:
    """Digests of ``count`` seed-chosen cells under the sequential engine."""
    from repro.experiments import runner

    sample = random.Random(seed).sample(inputs["cells"], count)
    with sequential_engine():
        return {
            cell_id(cell): digest(fig7_payload(*runner.simulate_cell(*cell)))
            for cell in sample
        }


def exec_reduction_pct(results: Dict[str, tuple]) -> float:
    """Burst_TH mean execution-time reduction vs BkInOrder (Figure 10)."""
    benchmarks = sorted({name.split("/")[0] for name in results})
    ratios = [
        results[f"{b}/Burst_TH"][1].mem_cycles
        / results[f"{b}/BkInOrder"][1].mem_cycles
        for b in benchmarks
    ]
    return (1.0 - sum(ratios) / len(ratios)) * 100.0


def mean_read_latency(stats_list) -> float:
    values = [s.mean_read_latency for s in stats_list]
    return sum(values) / len(values)


def _drain_pass(drains, payload) -> Pass:
    """Time each ``(name, drain)`` of an open-loop pass.

    ``drain()`` returns ``(cycles, stats, ...)``; ``payload`` turns that
    result into the canonical form the cell digest is taken over.
    """
    times, digests, errors, results = {}, {}, {}, {}
    cycles_total = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    for name, drain in drains:
        t0 = time.perf_counter()
        try:
            result = drain()
        except Exception as error:  # counted in failed_frac
            errors[name] = repr(error)
            continue
        times[name] = time.perf_counter() - t0
        cycles_total += result[0]
        digests[name] = digest(payload(*result))
        results[name] = result[:2]
    return Pass(
        wall=time.perf_counter() - start,
        cpu=time.process_time() - cpu0,
        cycles=cycles_total,
        cell_times=times,
        digests=digests,
        errors=errors,
        results=results,
    )


# ----------------------------------------------------------------------
# fleet_writes: open-loop tenants against the QoS mechanisms
# ----------------------------------------------------------------------


def _fleet_drains(inputs):
    for scenario, part in inputs.items():
        for mechanism in FLEET_MECHANISMS:
            yield f"{scenario}/{mechanism}/shared", part, mechanism, part["shared"]
            for source, requests in enumerate(part["solo"]):
                yield (f"{scenario}/{mechanism}/solo{source}", part,
                       mechanism, requests)


def _fleet_drain(config, mechanism: str, requests):
    from repro.controller.system import MemorySystem
    from repro.sim.engine import FleetDriver

    system = MemorySystem(config, mechanism)
    cycles = FleetDriver(system, requests).run()
    return cycles, system.stats


def fleet_payload(cycles: int, stats) -> dict:
    return {"cycles": cycles, "stats": stats.to_dict()}


def fleet_pass(inputs) -> Pass:
    """Every (scenario, mechanism) drain plus its solo baselines."""
    return _drain_pass(
        ((name, partial(_fleet_drain, part["config"], mechanism, requests))
         for name, part, mechanism, requests in _fleet_drains(inputs)),
        fleet_payload,
    )


def fleet_spot_check(inputs, seed: int, count: int = 2) -> Dict[str, str]:
    drains = random.Random(seed).sample(list(_fleet_drains(inputs)), count)
    with sequential_engine():
        return {
            name: digest(fleet_payload(
                *_fleet_drain(part["config"], mechanism, requests)
            ))
            for name, part, mechanism, requests in drains
        }


def max_slowdown(results, scenario: str, mechanism: str) -> float:
    """Worst tenant's shared/solo mean read latency."""
    from repro.analysis.fairness import max_slowdown as slowdown
    from repro.analysis.fairness import per_source_read_latency

    shared = per_source_read_latency(
        results[f"{scenario}/{mechanism}/shared"][1]
    )
    solo = {}
    for source in shared:
        alone = per_source_read_latency(
            results[f"{scenario}/{mechanism}/solo{source}"][1]
        )
        solo[source] = alone[source]
    return slowdown(solo, shared)


# ----------------------------------------------------------------------
# sparse_open: spaced arrivals, mostly idle device
# ----------------------------------------------------------------------


def _sparse_drain(requests):
    from repro.controller.system import MemorySystem
    from repro.sim.config import baseline_config
    from repro.sim.engine import OpenLoopDriver

    system = MemorySystem(baseline_config(), SPARSE_MECHANISM)
    driver = OpenLoopDriver(system, requests)
    cycles = driver.run()
    return cycles, system.stats, [a.complete_cycle for a in driver.completed]


def sparse_payload(cycles: int, stats, completions) -> dict:
    return {
        "cycles": cycles,
        "stats": stats.to_dict(),
        "completions": digest(completions),
    }


def sparse_pass(inputs) -> Pass:
    return _drain_pass(
        ((f"stream{index}", partial(_sparse_drain, requests))
         for index, requests in enumerate(inputs)),
        sparse_payload,
    )


#: Requests of the stream prefix replayed by the sparse spot check; a
#: whole stream under the sequential engine would tick ~600k cycles.
SPARSE_CHECK_REQUESTS = 400


def sparse_spot_check(inputs, seed: int) -> Optional[str]:
    """A stream prefix must give the same bytes under both engines."""
    index = seed % len(inputs)
    prefix = inputs[index][:SPARSE_CHECK_REQUESTS]
    fast = digest(sparse_payload(*_sparse_drain(prefix)))
    with sequential_engine():
        slow = digest(sparse_payload(*_sparse_drain(prefix)))
    if fast != slow:
        return f"stream{index}[:{SPARSE_CHECK_REQUESTS}]"
    return None
