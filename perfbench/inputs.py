"""Seeded inputs of the four workloads.

Everything the program sees is built here from ``--seed`` through the
program's public generators, so the same seed gives the same inputs in
every process (``input_digest`` is compared between the set-up probes
and the measuring process on every run).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Tuple

from harness import digest

#: Quarter of ``experiments.common.DEFAULT_ACCESSES`` (6000): the
#: quarter-scale fig7 matrix, ~1.0M simulated memory cycles.
FIG7_ACCESSES = 1500

#: Fleet scenarios crossed with the QoS mechanisms: one write-flooding
#: aggressor, one adversary-free control.
FLEET_SCENARIOS = ("flooder_vs_reader", "symmetric4")
FLEET_MECHANISMS = ("Burst_TH", "Burst_QW", "Burst_QB")
#: Per tenant (experiments.fleet.ACCESSES is 2000): a ~6 s pass, so a
#: 20-second run measures three whole passes.
FLEET_ACCESSES = 1500

#: Sparse open-loop stream: ``SPARSE_STREAMS`` independent streams of
#: the next-event benchmark's Figure-1 shape (100-300 idle cycles
#: between arrivals, 30% writes), ~6.0M simulated cycles in all.
SPARSE_STREAMS = 10
SPARSE_REQUESTS = 3000
SPARSE_MECHANISM = "Burst_TH"


def fig7_cells(seed: int) -> List[tuple]:
    """The (benchmark, mechanism, accesses, seed, config) matrix."""
    from repro.experiments.common import MECHANISMS
    from repro.sim.config import baseline_config
    from repro.workloads.spec2000 import benchmark_names

    config = baseline_config()
    return [
        (benchmark, mechanism, FIG7_ACCESSES, seed, config)
        for benchmark in benchmark_names()
        for mechanism in MECHANISMS
    ]


def cell_id(cell: tuple) -> str:
    return f"{cell[0]}/{cell[1]}"


def fig7_traces(seed: int) -> Dict[str, list]:
    """Each benchmark's miss trace (the runner regenerates them per cell)."""
    from repro.workloads.spec2000 import benchmark_names, make_benchmark_trace

    return {
        name: make_benchmark_trace(name, FIG7_ACCESSES, seed)
        for name in benchmark_names()
    }


def fleet_inputs(seed: int) -> Dict[str, dict]:
    """Per scenario: its machine, the shared stream and each solo stream."""
    from repro.sim.config import baseline_config
    from repro.workloads.fleet import (
        make_fleet_requests,
        scenario_profiles,
        tenant_requests,
    )

    inputs = {}
    for scenario in FLEET_SCENARIOS:
        profiles = scenario_profiles(scenario)
        config = replace(baseline_config(), sources=len(profiles))
        inputs[scenario] = {
            "config": config,
            "shared": make_fleet_requests(
                scenario, FLEET_ACCESSES, config, seed
            ),
            "solo": [
                tenant_requests(profile, source, FLEET_ACCESSES, config, seed)
                for source, profile in enumerate(profiles)
            ],
        }
    return inputs


def sparse_inputs(seed: int) -> List[List[Tuple[int, object, int]]]:
    """``SPARSE_STREAMS`` spaced request streams."""
    from repro.controller.access import AccessType

    streams = []
    for index in range(SPARSE_STREAMS):
        rng = random.Random(seed * 1_000_003 + index)
        cycle = 0
        requests = []
        for _ in range(SPARSE_REQUESTS):
            cycle += rng.randint(100, 300)
            address = rng.randrange(1 << 28) & ~0x3F
            op = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
            requests.append((cycle, op, address))
        streams.append(requests)
    return streams


def make_inputs(workload: str, seed: int):
    """The workload's generated inputs (the service gets only params)."""
    if workload == "fig7_ddr2":
        return {"cells": fig7_cells(seed), "traces": fig7_traces(seed)}
    if workload == "fleet_writes":
        return fleet_inputs(seed)
    if workload == "sparse_open":
        return sparse_inputs(seed)
    if workload == "service_fig7":
        return {"cells": fig7_cells(seed),
                "params": {"accesses": FIG7_ACCESSES, "seed": seed}}
    raise ValueError(f"unknown workload {workload!r}")


def _plain(request) -> list:
    return [getattr(item, "value", item) for item in request]


def input_digest(workload: str, inputs) -> str:
    """Digest of everything the program is handed."""
    if workload == "fig7_ddr2":
        payload = {
            name: [[r.gap, r.op.value, r.address] for r in trace]
            for name, trace in inputs["traces"].items()
        }
    elif workload == "fleet_writes":
        payload = {
            scenario: {
                "config": part["config"].to_dict(),
                "shared": [_plain(r) for r in part["shared"]],
                "solo": [[_plain(r) for r in s] for s in part["solo"]],
            }
            for scenario, part in inputs.items()
        }
    elif workload == "sparse_open":
        payload = [[_plain(r) for r in stream] for stream in inputs]
    else:
        payload = {
            "cells": [
                [b, m, n, s, c.to_dict()] for b, m, n, s, c in inputs["cells"]
            ],
            "params": inputs["params"],
        }
    return digest(payload)
