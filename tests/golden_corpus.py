"""Golden digest corpus: frozen per-cell result digests.

The corpus is the A/B reference that pins simulator behaviour across
refactors.  Each *slice* below is a named, deterministic list of cells;
``tests/goldens/corpus_<slice>.json`` maps every cell id to the
:func:`~repro.service.jobs.result_digest` of its canonical result:

* closed-loop cells digest ``SimStats.to_dict()`` plus the
  ``CoreResult`` (``{"stats": ..., "core": ...}``);
* open-loop fleet drains digest the drain's cycle count plus
  ``SimStats.to_dict()`` (``{"cycles": ..., "stats": ...}``).

Slices:

* ``tier1`` — all 14 mechanisms on DDR2-800, every generation profile
  under its default refresh policy, and every refresh policy at a
  refresh-heavy density, on short traces;
* ``fleet`` — the four fleet scenarios x Burst_TH/QW/QB, each shared
  drain with its solo baselines, on short traces;
* ``fig7_quarter`` — the full quarter-scale Table-4 matrix (128 cells).

The engine mode (``REPRO_FASTFWD``) and the protocol oracle
(``REPRO_ORACLE``) come from the environment, so one corpus checks
every combination.  ``tests/test_golden_corpus.py`` runs the cheap
slices in both engine modes; the quarter-scale slice is run as a
script::

    PYTHONPATH=src python tests/golden_corpus.py fig7_quarter fleet

which exits non-zero on any drifted cell.  Regenerate a slice after an
intentional behaviour change with ``REPRO_REGEN_GOLDENS=1``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Tuple

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Closed-loop trace seed of every slice (the experiments' default).
SEED = 1
#: Accesses per closed-loop cell of the tier-1 slice.
TIER1_ACCESSES = 250
#: Requests per tenant of the fleet slice.
FLEET_ACCESSES = 150
#: Accesses per cell of the quarter-scale fig7 matrix (6000 / 4).
FIG7_QUARTER_ACCESSES = 1500
#: Refresh-heavy density of the refresh-policy cells: the 32 Gb tRFC
#: step of the refresh-pressure ladder, with its compressed tREFI.
HEAVY_TREFI = 780
HEAVY_TRFC = 350

FLEET_MECHANISMS = ("Burst_TH", "Burst_QW", "Burst_QB")

Cell = Tuple[str, Callable[[], dict]]


def _closed_loop(benchmark, mechanism, accesses, config) -> dict:
    from repro.experiments.runner import simulate_cell

    stats, core = simulate_cell(benchmark, mechanism, accesses, SEED, config)
    return {"stats": stats.to_dict(), "core": core.to_dict()}


def _fleet_drain(config, mechanism, requests) -> dict:
    from repro.controller.system import MemorySystem
    from repro.sim.engine import FleetDriver

    system = MemorySystem(config, mechanism)
    cycles = FleetDriver(system, requests).run()
    return {"cycles": cycles, "stats": system.stats.to_dict()}


def _tier1_cells() -> List[Cell]:
    from repro.controller.registry import MECHANISMS
    from repro.dram.timing import DDR2_800, GENERATIONS
    from repro.experiments.generations import generation_config
    from repro.sim.config import REFRESH_POLICIES, baseline_config

    base = baseline_config()
    cells: List[Cell] = []
    for mechanism in MECHANISMS:
        for benchmark in ("swim", "mcf"):
            cells.append((
                f"ddr2/{benchmark}/{mechanism}",
                partial(_closed_loop, benchmark, mechanism,
                        TIER1_ACCESSES, base),
            ))
    for timing in GENERATIONS:
        config = generation_config(timing, base)
        for mechanism in MECHANISMS:
            cells.append((
                f"gen/{timing.name}/{mechanism}",
                partial(_closed_loop, "lucas", mechanism,
                        TIER1_ACCESSES, config),
            ))
    heavy = replace(
        DDR2_800,
        name=f"{DDR2_800.name}-tRFC{HEAVY_TRFC}",
        tREFI=HEAVY_TREFI,
        tRFC=HEAVY_TRFC,
        tRFCpb=(HEAVY_TRFC * 2) // 5,
    )
    for policy in REFRESH_POLICIES:
        config = replace(base, timing=heavy, refresh_policy=policy)
        for mechanism in MECHANISMS:
            cells.append((
                f"refresh/{policy}/{mechanism}",
                partial(_closed_loop, "art", mechanism,
                        TIER1_ACCESSES, config),
            ))
    return cells


def _fleet_cells() -> List[Cell]:
    from repro.sim.config import baseline_config
    from repro.workloads.fleet import (
        SCENARIOS,
        make_fleet_requests,
        scenario_profiles,
        tenant_requests,
    )

    cells: List[Cell] = []
    for scenario in SCENARIOS:
        profiles = scenario_profiles(scenario)
        config = replace(baseline_config(), sources=len(profiles))
        shared = make_fleet_requests(scenario, FLEET_ACCESSES, config, SEED)
        solo = [
            tenant_requests(profile, source, FLEET_ACCESSES, config, SEED)
            for source, profile in enumerate(profiles)
        ]
        for mechanism in FLEET_MECHANISMS:
            cells.append((
                f"{scenario}/{mechanism}/shared",
                partial(_fleet_drain, config, mechanism, shared),
            ))
            for source, requests in enumerate(solo):
                cells.append((
                    f"{scenario}/{mechanism}/solo{source}",
                    partial(_fleet_drain, config, mechanism, requests),
                ))
    return cells


def _fig7_quarter_cells() -> List[Cell]:
    from repro.experiments.common import MECHANISMS
    from repro.sim.config import baseline_config
    from repro.workloads.spec2000 import benchmark_names

    config = baseline_config()
    return [
        (
            f"{benchmark}/{mechanism}",
            partial(_closed_loop, benchmark, mechanism,
                    FIG7_QUARTER_ACCESSES, config),
        )
        for benchmark in benchmark_names()
        for mechanism in MECHANISMS
    ]


SLICES: Dict[str, Callable[[], List[Cell]]] = {
    "tier1": _tier1_cells,
    "fleet": _fleet_cells,
    "fig7_quarter": _fig7_quarter_cells,
}


def corpus_path(name: str) -> Path:
    return GOLDEN_DIR / f"corpus_{name}.json"


def compute(name: str) -> Dict[str, str]:
    """Cell id -> result digest of slice ``name`` under the current env."""
    from repro.service.jobs import result_digest

    return {cell_id: result_digest(run()) for cell_id, run in SLICES[name]()}


def load(name: str) -> Dict[str, str]:
    with open(corpus_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def save(name: str, digests: Dict[str, str]) -> None:
    with open(corpus_path(name), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


def drift(name: str) -> List[str]:
    """Ids of the cells of ``name`` whose digest left the corpus.

    With ``REPRO_REGEN_GOLDENS=1`` the corpus file is rewritten from
    the current code first, so nothing drifts.
    """
    digests = compute(name)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        save(name, digests)
    golden = load(name)
    cells = sorted(set(golden) | set(digests))
    return [cell for cell in cells if golden.get(cell) != digests.get(cell)]


def main(argv: List[str]) -> int:
    names = argv or list(SLICES)
    unknown = [name for name in names if name not in SLICES]
    if unknown:
        print(f"unknown slice(s) {unknown}; available: {list(SLICES)}",
              file=sys.stderr)
        return 2
    failed = False
    for name in names:
        drifted = drift(name)
        total = len(load(name))
        if drifted:
            failed = True
            print(f"{name}: {len(drifted)} of {total} cells drifted:")
            for cell in drifted:
                print(f"  {cell}")
        else:
            print(f"{name}: {total} cells byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
