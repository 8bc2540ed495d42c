"""Fast-forward switches and the ``REPRO_PROFILE`` observability layer.

This module is deliberately dependency-free (``os``/``time`` only) so
every layer of the simulator — drivers, CPU models, the memory system
and the schedulers — can import it without creating cycles.

Two concerns live here:

* :func:`fastfwd_enabled` — the ``REPRO_FASTFWD`` knob selecting the
  next-event time-skipping run loops (default on).  ``REPRO_FASTFWD=0``
  turns the schedule gates and leaps off, running every cycle; the two
  modes are byte-identical by construction and the equivalence is
  property-tested (``tests/test_engine_fastfwd.py``).
* :class:`SimProfiler` — opt-in (``REPRO_PROFILE=1``) attribution of
  simulated cycles (single-stepped vs skipped) and wall time per
  simulator component, summarised as events/sec by ``repro-sim`` and
  ``repro-experiments`` so the fast path's speedup is measured, not
  asserted.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Optional

from repro.timebase import NEVER


def fastfwd_enabled() -> bool:
    """True unless ``REPRO_FASTFWD`` is set to ``0`` (or empty)."""
    return os.environ.get("REPRO_FASTFWD", "1") not in ("", "0")


def profile_enabled() -> bool:
    """True when ``REPRO_PROFILE`` asks for the observability layer."""
    return os.environ.get("REPRO_PROFILE", "0") not in ("", "0")


class SimProfiler:
    """Cycle and wall-time attribution for one process's simulations.

    Counters accumulate across every system/driver constructed while
    profiling is on, so an experiment sweep reports one aggregate
    summary.  ``events`` are simulated memory cycles advanced — ticked
    (executed one by one) plus skipped (leapt over by the next-event
    engine) — which makes events/sec directly comparable between the
    fast-forward and sequential modes of the same workload.
    """

    def __init__(self) -> None:
        self.ticked_cycles = 0
        self.skipped_cycles = 0
        self.leaps = 0
        self.commands = 0
        self.completions = 0
        #: Schedule passes elided by the per-scheduler no-op gate
        #: (ticked cycles where a scheduler provably had nothing new
        #: to decide — see Scheduler._gate_until).
        self.gated_passes = 0
        #: Flat-path pass-cost breakdown (DESIGN.md §11): candidates
        #: examined by ``Scheduler._flat_scan`` across all schedule
        #: passes (every slot of its mask), how many needed a
        #: device-timing recomputation (``sched_timing_checks`` —
        #: the owning bank/rank version stamp had moved) and how many
        #: short-circuited on the cached value
        #: (``sched_bitset_hits``).  Together they make the
        #: O(set bits) claim measurable rather than asserted.
        self.sched_candidates = 0
        self.sched_timing_checks = 0
        self.sched_bitset_hits = 0
        #: Wall seconds per simulator component (schedule / refresh /
        #: completions / sampling), measured inside MemorySystem.tick.
        self.component_seconds: Dict[str, float] = {}
        self._start = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def note_tick(self) -> None:
        self.ticked_cycles += 1

    def note_skip(self, cycles: int) -> None:
        self.skipped_cycles += cycles
        self.leaps += 1

    def add_time(self, component: str, seconds: float) -> None:
        self.component_seconds[component] = (
            self.component_seconds.get(component, 0.0) + seconds
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        wall = time.perf_counter() - self._start
        events = self.ticked_cycles + self.skipped_cycles
        return {
            "wall_seconds": wall,
            "ticked_cycles": self.ticked_cycles,
            "skipped_cycles": self.skipped_cycles,
            "leaps": self.leaps,
            "commands": self.commands,
            "completions": self.completions,
            "gated_passes": self.gated_passes,
            "sched_candidates": self.sched_candidates,
            "sched_timing_checks": self.sched_timing_checks,
            "sched_bitset_hits": self.sched_bitset_hits,
            "events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "component_seconds": dict(
                sorted(self.component_seconds.items())
            ),
        }

    def format_summary(self) -> str:
        data = self.summary()
        events = data["events"]
        skipped = data["skipped_cycles"]
        lines = [
            "--- REPRO_PROFILE summary ---",
            (
                f"simulated cycles  {events}"
                f"  (ticked {data['ticked_cycles']},"
                f" skipped {skipped} in {data['leaps']} leaps"
                f" = {100.0 * skipped / events if events else 0.0:.1f}%)"
            ),
            (
                f"commands {data['commands']}"
                f"  completions {data['completions']}"
                f"  gated passes {data['gated_passes']}"
            ),
            (
                f"wall {data['wall_seconds']:.3f}s"
                f"  events/sec {data['events_per_sec']:.0f}"
            ),
        ]
        candidates = data["sched_candidates"]
        if candidates:
            hits = data["sched_bitset_hits"]
            lines.insert(
                3,
                (
                    f"sched candidates {candidates}"
                    f"  timing checks {data['sched_timing_checks']}"
                    f"  cached {hits}"
                    f" ({100.0 * hits / candidates:.1f}% short-circuit)"
                ),
            )
        for component, seconds in data["component_seconds"].items():
            lines.append(f"  {component.ljust(12)} {seconds:.3f}s")
        return "\n".join(lines)


#: Process-wide profiler, created lazily when REPRO_PROFILE is on.
#: One singleton per process: with a multiprocessing experiment pool
#: each worker profiles its own share, so use ``--jobs 1`` when the
#: printed summary should cover the whole run.
_PROFILER: Optional[SimProfiler] = None


def active() -> Optional[SimProfiler]:
    """The live profiler, or None when profiling is off."""
    return _PROFILER


def ensure_profiler() -> Optional[SimProfiler]:
    """Create the singleton if profiling is enabled; returns it."""
    global _PROFILER
    if _PROFILER is None and profile_enabled():
        _PROFILER = SimProfiler()
    return _PROFILER


def reset() -> None:
    """Drop the singleton (tests isolate their measurements)."""
    global _PROFILER
    _PROFILER = None


def print_summary(file=None) -> None:
    """Print the profile summary if profiling is active (to stderr)."""
    profiler = active()
    if profiler is None:
        return
    print(profiler.format_summary(), file=file or sys.stderr)


__all__ = [
    "NEVER",
    "SimProfiler",
    "active",
    "ensure_profiler",
    "fastfwd_enabled",
    "print_summary",
    "profile_enabled",
    "reset",
]
