"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps public methods of the program's classes (and
the runner's module-level functions) at the boundaries between the
layers under ``src/repro/``; ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.  Each wrapped call is a span; a span's
self time is its duration minus the time its child spans cover.

Counts and self times are exact aggregates over every call.  The raw
spans (name, start, end, id, parent, cell) are kept in memory and
written out as JSON when the run ends.  A saturated fig7 pass makes
millions of calls, so only the first ``span_cap`` spans to finish are
kept; the last kept spans may name a parent that finished after the
cap and is not in the file.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

def _layer_of(cls) -> str:
    """The ``src/repro/<layer>/`` package a class is defined in."""
    return cls.__module__.split(".")[1]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder over wrapped program methods."""

    def __init__(self, span_cap: int = 20_000) -> None:
        self.span_cap = span_cap
        #: Span name -> [calls, self seconds, layer].
        self.agg: Dict[str, list] = {}
        #: Event counts taken at the same boundaries.
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        #: Cell id the current spans belong to, and its mechanism.
        self.cell: Optional[str] = None
        self.mechanism = "other"
        self._systems = 0
        self._in_cell: Optional[str] = None
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._patched: List[tuple] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, layer: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None,
              keyed: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or a module) with a span."""
        original = owner.__dict__[attr]
        agg, stack, spans, ids = self.agg, self._stack, self.spans, self._ids
        cap, clock, tracer = self.span_cap, time.perf_counter, self
        if keyed is None:
            agg.setdefault(name, [0, 0.0, layer])

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                entry = agg[name] if keyed is None else keyed(args)
                entry[0] += 1
                entry[1] += duration - frame[0]
                if len(spans) < cap:
                    spans.append((
                        name, start, end, frame[1],
                        parent[1] if parent is not None else None,
                        tracer.cell,
                    ))
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        from repro.controller.access import EnqueueStatus
        from repro.controller.base import Scheduler
        from repro.controller.system import MemorySystem
        from repro.cpu.core import OoOCore
        from repro.dram import refresh
        from repro.dram.channel import Channel
        from repro.experiments import runner
        from repro.sim.engine import FleetDriver, OpenLoopDriver

        counts = self.counts

        def on_command(event) -> None:
            counts["cmd." + event.kind] += 1

        def built(args, _result) -> None:
            # Every cell builds one MemorySystem(config, mechanism):
            # open-loop drains have no runner cell, so name them here.
            self._systems += 1
            self.mechanism = args[2] if len(args) > 2 else "other"
            if self._in_cell is None:
                self.cell = f"system{self._systems}/{self.mechanism}"
            for channel in args[0].channels:
                channel.add_command_listener(on_command)

        def rejected(_args, status) -> None:
            if status is EnqueueStatus.REJECTED_FULL:
                counts["enqueue_rejects"] += 1

        def issued(args, _result) -> None:
            scheduler, cycle = args[0], args[1]
            if scheduler.channel.last_command_cycle == cycle:
                counts["schedule_issued"] += 1

        def enter_cell(args) -> None:
            self.cell = self._in_cell = f"{args[0]}/{args[1]}"

        def leave_cell(_args, _result) -> None:
            self.cell = self._in_cell = None

        wrap = self._wrap
        wrap(OoOCore, "run", "cpu.run", "cpu")
        wrap(OoOCore, "step", "cpu.step", "cpu")
        wrap(OpenLoopDriver, "run", "sim.driver_run", "sim")
        wrap(OpenLoopDriver, "step", "sim.driver_step", "sim")
        wrap(FleetDriver, "step", "sim.driver_step", "sim")
        wrap(MemorySystem, "__init__", "controller.build", "controller",
             after=built)
        wrap(MemorySystem, "tick", "controller.tick", "controller")
        wrap(MemorySystem, "next_event_cycle", "controller.next_event",
             "controller")
        wrap(MemorySystem, "skip_to", "controller.skip_to", "controller")
        wrap(MemorySystem, "enqueue", "controller.enqueue", "controller",
             after=rejected)
        wrap(MemorySystem, "finalize", "controller.finalize", "controller")
        wrap(MemorySystem, "make_access", "mapping.make_access", "mapping")
        wrap(Scheduler, "issue_for", "controller.issue_for", "controller")
        wrap(Scheduler, "pop_completions", "controller.completions",
             "controller")
        for cls in _subclasses(Scheduler):
            if "schedule" in cls.__dict__:
                self._wrap_schedule(cls, issued)
        for cls in (refresh.RefreshController, refresh.PerBankRefresher,
                    *_subclasses(refresh.PerBankRefresher)):
            if "tick" in cls.__dict__:
                wrap(cls, "tick", "dram.refresh", "dram")
        for attr in ("issue_activate", "issue_precharge", "issue_column"):
            wrap(Channel, attr, "dram.issue", "dram")
        # The runner calls these through its module globals.
        wrap(runner, "make_benchmark_trace", "workloads.trace", "workloads")
        wrap(runner, "simulate_cell", "experiments.cell", "experiments",
             before=enter_cell, after=leave_cell)
        wrap(runner, "cell_key", "experiments.cell_key", "experiments")
        wrap(runner, "cache_store", "experiments.cache_store", "experiments")
        wrap(runner, "cache_load", "experiments.cache_load", "experiments")

    def _wrap_schedule(self, cls, issued: Callable) -> None:
        """The arbitration pass, aggregated per mechanism.

        Burst-family passes live in ``core``; BkInOrder, RowHit and
        Intel passes in ``controller`` — each aggregate keeps the layer
        of the class that ran it.
        """
        agg, tracer = self.agg, self

        def keyed(args):
            key = "schedule." + tracer.mechanism
            entry = agg.get(key)
            if entry is None:
                entry = agg[key] = [0, 0.0, _layer_of(type(args[0]))]
            return entry

        self._wrap(cls, "schedule", "schedule", _layer_of(cls),
                   after=issued, keyed=keyed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.agg.get(name)
        return entry[0] if entry else 0

    def self_s(self, name: str) -> float:
        entry = self.agg.get(name)
        return entry[1] if entry else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_s(name) / calls * 1e6 if calls else 0.0

    def layer_self_s(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for _calls, seconds, layer in self.agg.values():
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def write(self, path: Path, extra: dict) -> None:
        origin = self.origin
        payload = dict(extra)
        payload["span_cap"] = self.span_cap
        payload["aggregates"] = {
            name: {"calls": calls, "self_s": seconds, "layer": layer}
            for name, (calls, seconds, layer) in sorted(self.agg.items())
        }
        payload["counts"] = dict(sorted(self.counts.items()))
        payload["spans"] = [
            {"name": name, "start_us": round((start - origin) * 1e6, 3),
             "end_us": round((end - origin) * 1e6, 3), "id": sid,
             "parent": parent, "cell": cell}
            for name, start, end, sid, parent, cell in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
