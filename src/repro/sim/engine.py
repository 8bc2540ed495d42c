"""Simulation drivers.

Two ways to push traffic through a :class:`~repro.controller.system.
MemorySystem`:

* :class:`OpenLoopDriver` — replays timestamped requests regardless of
  completion (infinite MLP).  Used by unit tests, the Figure 1
  experiment and micro-benchmarks where CPU coupling is not wanted.
* The closed-loop CPU models live in :mod:`repro.cpu` and couple
  execution time to read latency and pool back-pressure; they are what
  the paper's execution-time figures use.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Tuple

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.system import MemorySystem
from repro.errors import SchedulerError
from repro.sim.profile import NEVER, fastfwd_enabled

#: (arrival_cycle, AccessType, physical_address)
Request = Tuple[int, AccessType, int]


class OpenLoopDriver:
    """Replays a timestamped request stream into a memory system.

    Requests whose arrival cycle has passed are enqueued in order; a
    rejected (pool-full) request retries every cycle, blocking the ones
    behind it — the memory system is the only source of back-pressure.
    """

    def __init__(self, system: MemorySystem, requests: Iterable[Request]):
        self.system = system
        self._pending = deque(sorted(requests, key=lambda r: r[0]))
        self._staged: deque = deque()
        self.completed: List[MemoryAccess] = []
        self.issued = 0

    def _stage(self, cycle: int) -> None:
        while self._pending and self._pending[0][0] <= cycle:
            arrival, type_, address = self._pending.popleft()
            self._staged.append(self.system.make_access(type_, address, arrival))

    def step(self) -> None:
        """Enqueue everything due, then advance one memory cycle."""
        cycle = self.system.cycle
        self._stage(cycle)
        while self._staged:
            access = self._staged[0]
            status = self.system.enqueue(access, cycle)
            if status is EnqueueStatus.REJECTED_FULL:
                break
            self._staged.popleft()
            self.issued += 1
            if status is EnqueueStatus.FORWARDED:
                self.completed.append(access)
        self.completed.extend(self.system.tick())

    @property
    def done(self) -> bool:
        return (
            not self._pending and not self._staged and self.system.idle
        )

    def _next_arrival(self) -> int:
        """Arrival cycle of the earliest undelivered request."""
        return self._pending[0][0] if self._pending else NEVER

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    kind = "open_loop"

    def state_dict(self, ctx) -> dict:
        """Driver-side state: undelivered requests and staged accesses.

        ``completed`` is not serialized: the run loop only looks at
        per-iteration length deltas and nothing feeds it into SimStats,
        so a resumed driver restarts it empty (it then holds only the
        post-resume completions).
        """
        return {
            "pending": [
                [arrival, type_.value, address]
                for arrival, type_, address in self._pending
            ],
            "staged": [ctx.ref(a) for a in self._staged],
            "issued": self.issued,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._pending = deque(
            (arrival, AccessType(value), address)
            for arrival, value, address in state["pending"]
        )
        self._staged = deque(ctx.get(r) for r in state["staged"])
        self.completed = []
        self.issued = state["issued"]

    def run(self, max_cycles: int = 10_000_000, checkpointer=None) -> int:
        """Run to drain; returns the final cycle count.

        With ``REPRO_FASTFWD`` on (the default) the loop is a
        next-event engine: after any cycle where something happened (a
        request enqueued, a command issued, data delivered) it single
        steps, because scheduler decisions may depend on the fresh
        state; after a *quiet* cycle every component's state is frozen
        at a fixpoint, so the loop asks each component for its earliest
        possible state change and leaps straight there.  Skipped cycles
        are provably no-ops, so results are byte-identical with
        ``REPRO_FASTFWD=0`` (property-tested).
        """
        fast = fastfwd_enabled()
        system = self.system
        while not self.done:
            if checkpointer is not None:
                # Loop-iteration boundaries are the snapshot points:
                # every component invariant holds here, so a restored
                # run re-enters the loop in an identical state.
                checkpointer.poll(self)
            if system.cycle > max_cycles:
                raise SchedulerError(
                    f"simulation exceeded {max_cycles} cycles without "
                    f"draining (pool={system.pool.count})"
                )
            issued_before = self.issued
            completed_before = len(self.completed)
            self.step()
            if not fast:
                continue
            if (
                system.last_tick_active
                or self.issued != issued_before
                or len(self.completed) != completed_before
            ):
                continue
            # Quiet cycle: leap to the next cycle anything can change.
            cycle = system.cycle
            wake = system.next_event_cycle(cycle)
            arrival = self._next_arrival()
            if arrival < wake:
                wake = arrival
            if wake <= cycle or wake >= NEVER:
                continue
            if wake > max_cycles:
                wake = max_cycles + 1
            system.skip_to(wake)
        self.system.finalize()
        return self.system.cycle


#: (arrival_cycle, AccessType, physical_address, source)
FleetRequest = Tuple[int, AccessType, int, int]


class FleetDriver(OpenLoopDriver):
    """Open-loop replay of K independent tenant streams (fleet mode).

    Each source gets its own request lane: staging and the
    rejected-request retry run per lane, so back-pressure against one
    tenant (pool full for it, or a QoS quota rejection) never blocks
    another tenant's requests behind it in a shared FIFO — with a
    single queue, the write-quota scheduler would starve the *victim*
    at the driver, defeating the mechanism it exists to measure.

    Within one cycle lanes are served in ascending source order, which
    keeps the interleaving deterministic for the byte-identity and
    checkpoint-resume tests.
    """

    kind = "fleet"

    def __init__(self, system: MemorySystem, requests: Iterable[FleetRequest]):
        self.system = system
        lanes: dict = {}
        for request in sorted(requests, key=lambda r: (r[3], r[0])):
            lanes.setdefault(request[3], deque()).append(request)
        self._lanes = {source: lanes[source] for source in sorted(lanes)}
        self._staged_lanes = {source: deque() for source in self._lanes}
        self.completed: List[MemoryAccess] = []
        self.issued = 0
        #: Requests in the stream; every one is accepted exactly once.
        self._total = sum(len(lane) for lane in self._lanes.values())

    def _next_arrival(self) -> int:
        wake = NEVER
        for pending in self._lanes.values():
            if pending and pending[0][0] < wake:
                wake = pending[0][0]
        return wake

    def step(self) -> None:
        """Stage and enqueue every due request lane by lane, then tick."""
        cycle = self.system.cycle
        for source, pending in self._lanes.items():
            staged = self._staged_lanes[source]
            while pending and pending[0][0] <= cycle:
                arrival, type_, address, src = pending.popleft()
                staged.append(
                    self.system.make_access(type_, address, arrival, src)
                )
            while staged:
                access = staged[0]
                status = self.system.enqueue(access, cycle)
                if status is EnqueueStatus.REJECTED_FULL:
                    break
                staged.popleft()
                self.issued += 1
                if status is EnqueueStatus.FORWARDED:
                    self.completed.append(access)
        self.completed.extend(self.system.tick())

    @property
    def done(self) -> bool:
        return self.issued == self._total and self.system.idle

    def state_dict(self, ctx) -> dict:
        return {
            "lanes": [
                [
                    source,
                    [
                        [arrival, type_.value, address, src]
                        for arrival, type_, address, src in pending
                    ],
                    [ctx.ref(a) for a in self._staged_lanes[source]],
                ]
                for source, pending in self._lanes.items()
            ],
            "issued": self.issued,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._lanes = {}
        self._staged_lanes = {}
        for source, pending, staged in state["lanes"]:
            self._lanes[source] = deque(
                (arrival, AccessType(value), address, src)
                for arrival, value, address, src in pending
            )
            self._staged_lanes[source] = deque(ctx.get(r) for r in staged)
        self.completed = []
        self.issued = state["issued"]
        self._total = self.issued + sum(
            len(self._lanes[s]) + len(self._staged_lanes[s])
            for s in self._lanes
        )


def run_fleet_requests(
    system: MemorySystem,
    requests: Iterable[FleetRequest],
    max_cycles: int = 10_000_000,
) -> int:
    """Drive tagged fleet ``requests`` open loop to drain."""
    return FleetDriver(system, requests).run(max_cycles)


def run_requests(
    system: MemorySystem,
    requests: Iterable[Request],
    max_cycles: int = 10_000_000,
) -> int:
    """Convenience wrapper: drive ``requests`` open loop to drain."""
    return OpenLoopDriver(system, requests).run(max_cycles)


def run_requests_verified(
    system: MemorySystem,
    requests: Iterable[Request],
    max_cycles: int = 10_000_000,
    strict: bool = True,
) -> Tuple[int, List["object"]]:
    """Drive ``requests`` with the protocol oracle watching every command.

    Attaches one independent :class:`~repro.dram.oracle.ProtocolOracle`
    per channel before running; in strict mode any protocol violation
    raises mid-run with a schedule excerpt, otherwise the violations
    accumulate on the returned oracles.  Returns ``(cycles, oracles)``.
    """
    from repro.dram.oracle import attach_oracles

    oracles = attach_oracles(system, strict=strict)
    cycles = OpenLoopDriver(system, requests).run(max_cycles)
    return cycles, oracles


def run_requests_resumed(
    system: MemorySystem,
    requests: Iterable[Request],
    checkpoint,
    max_cycles: int = 10_000_000,
    checkpointer=None,
) -> int:
    """Resume an open-loop run from a snapshot file and drain it.

    ``system`` must be constructed exactly as for the original run —
    same config, mechanism, and observer topology.  Observers attached
    to the system (tracer, oracle, HazardMonitor) keep watching across
    the load: restore is in-place, so channel listener lists and
    wrapped scheduler methods survive, and attached oracles have their
    shadow state refilled from the snapshot.  ``requests`` must be the
    same stream the original run was given; requests the snapshot
    already consumed are dropped during load.
    """
    from repro.checkpoint import load_checkpoint

    driver = OpenLoopDriver(system, requests)
    load_checkpoint(checkpoint, driver)
    return driver.run(max_cycles, checkpointer=checkpointer)


__all__ = [
    "FleetDriver",
    "FleetRequest",
    "OpenLoopDriver",
    "Request",
    "run_fleet_requests",
    "run_requests",
    "run_requests_resumed",
    "run_requests_verified",
]
