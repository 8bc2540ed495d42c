"""Golden regression tests.

Exact cycle counts for small fixed-seed runs of every Table 4 mechanism,
plus exact command-by-command SDRAM schedules for the paper's Figure 1
scenario (checked into ``tests/goldens/``).  Any behavioural change to
the schedulers, the device model, the CPU model or the workload
generators moves these; the failure message tells a developer
precisely which mechanism drifted.  (Unlike the shape assertions in
benchmarks/, these values are *expected* to change when the model is
intentionally improved — update them consciously: by hand for
``GOLDEN_CYCLES``, with ``REPRO_REGEN_GOLDENS=1`` for the trace files.)
"""

import os
from pathlib import Path

import pytest

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.dram.oracle import verify_trace
from repro.dram.timing import FIG1_DEVICE
from repro.dram.tracer import ChannelTracer, load_trace, save_trace
from repro.experiments.fig1 import EXAMPLE_ACCESSES
from repro.mapping.base import DecodedAddress
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver
from repro.workloads.spec2000 import make_benchmark_trace

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: (benchmark, mechanism) -> mem_cycles for 1500 accesses, seed 1.
GOLDEN_CYCLES = {
    ("swim", "BkInOrder"): 11154,
    ("swim", "RowHit"): 7238,
    ("swim", "Intel"): 7804,
    ("swim", "Intel_RP"): 7680,
    ("swim", "Burst"): 7781,
    ("swim", "Burst_RP"): 7722,
    ("swim", "Burst_WP"): 6671,
    ("swim", "Burst_TH"): 6524,
    ("gcc", "BkInOrder"): 11020,
    ("gcc", "RowHit"): 7918,
    ("gcc", "Intel"): 7541,
    ("gcc", "Intel_RP"): 7564,
    ("gcc", "Burst"): 7312,
    ("gcc", "Burst_RP"): 7258,
    ("gcc", "Burst_WP"): 6950,
    ("gcc", "Burst_TH"): 6321,
}


def _run(bench, mechanism):
    trace = make_benchmark_trace(bench, 1500, seed=1)
    system = MemorySystem(baseline_config(), mechanism)
    return OoOCore(system, trace).run().mem_cycles


@pytest.fixture(scope="module")
def measured():
    mechanisms = (
        "BkInOrder", "RowHit", "Intel", "Intel_RP",
        "Burst", "Burst_RP", "Burst_WP", "Burst_TH",
    )
    return {
        (bench, mech): _run(bench, mech)
        for bench in ("swim", "gcc")
        for mech in mechanisms
    }


def test_golden_cycle_counts(measured):
    """Every (benchmark, mechanism) cell hits its exact cycle count."""
    drifted = {
        cell: (GOLDEN_CYCLES[cell], cycles)
        for cell, cycles in measured.items()
        if cycles != GOLDEN_CYCLES[cell]
    }
    assert set(measured) == set(GOLDEN_CYCLES)
    assert not drifted, f"(golden, measured) mem_cycles drifted: {drifted}"


def test_goldens_are_self_consistent(measured):
    """Re-running a cell reproduces the same cycle count exactly."""
    assert _run("swim", "Burst_TH") == measured[("swim", "Burst_TH")]
    assert _run("gcc", "BkInOrder") == measured[("gcc", "BkInOrder")]


def test_golden_orderings(measured):
    """The robust orderings at this exact workload size."""
    for bench in ("swim", "gcc"):
        base = measured[(bench, "BkInOrder")]
        th = measured[(bench, "Burst_TH")]
        assert th < base, bench
        # Burst_TH within the burst family's envelope.
        rp = measured[(bench, "Burst_RP")]
        wp = measured[(bench, "Burst_WP")]
        assert th <= min(rp, wp) * 1.02, bench


def test_golden_equivalence_rp(measured):
    """Burst_RP differs from plain Burst only via preemption — on a
    workload with preemptions their cycle counts must differ."""
    assert (
        measured[("swim", "Burst_RP")] != measured[("swim", "Burst")]
    )


def test_print_goldens(measured, capsys):
    """Emit the table so intentional updates are easy to review."""
    for (bench, mech), cycles in sorted(measured.items()):
        print(f"{bench:6s} {mech:10s} {cycles}")
    out = capsys.readouterr().out
    assert "Burst_TH" in out


# ----------------------------------------------------------------------
# Figure 1 golden command traces
# ----------------------------------------------------------------------


def _fig1_schedule(mechanism):
    """The exact SDRAM command schedule of the Figure 1 scenario."""
    config = baseline_config(
        timing=FIG1_DEVICE, channels=1, ranks=1, banks=2, rows=16
    )
    system = MemorySystem(config, mechanism)
    tracer = ChannelTracer(system.channels[0])
    requests = [
        (0, AccessType.READ,
         system.mapping.encode(DecodedAddress(0, 0, bank, row, 0)))
        for bank, row in EXAMPLE_ACCESSES
    ]
    OpenLoopDriver(system, requests).run()
    return config, tracer.commands


@pytest.mark.parametrize("mechanism", ("BkInOrder", "RowHit", "Burst"))
def test_fig1_golden_command_trace(mechanism):
    """Cycle-by-cycle equality against the checked-in schedule.

    Regenerate intentionally changed schedules with::

        REPRO_REGEN_GOLDENS=1 pytest tests/test_goldens.py
    """
    config, commands = _fig1_schedule(mechanism)
    path = GOLDEN_DIR / f"fig1_{mechanism}.trace"
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        save_trace(
            str(path), commands, config.timing,
            ranks=config.ranks, banks=config.banks,
        )
    golden = load_trace(str(path))
    assert golden.timing == config.timing
    assert list(commands) == list(golden.commands), (
        f"{mechanism}: schedule drifted from {path.name}; run with "
        f"REPRO_REGEN_GOLDENS=1 if the change is intentional"
    )
    # The stored schedule itself must be protocol conformant.
    assert verify_trace(str(path)) == []


def test_fig1_golden_burst_beats_inorder():
    """The goldens preserve the paper's Figure 1 story: the burst
    schedule's last data beat lands well before the in-order one's."""
    in_order = load_trace(str(GOLDEN_DIR / "fig1_BkInOrder.trace"))
    burst = load_trace(str(GOLDEN_DIR / "fig1_Burst.trace"))

    def last_beat(trace):
        return max(c.data_end for c in trace.commands if c.data_end)

    assert last_beat(burst) < last_beat(in_order)
