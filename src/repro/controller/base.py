"""Scheduler abstract base class and shared controller machinery.

Every access reordering mechanism — the baselines here and burst
scheduling in :mod:`repro.core` — subclasses :class:`Scheduler` and
implements three hooks:

* ``_enqueue_read`` / ``_enqueue_write`` — place a new access into the
  mechanism's queue structure;
* ``schedule`` — issue at most one SDRAM command this cycle.

The base class centralises everything the paper treats as common
infrastructure so the mechanisms differ *only* in ordering policy:

* write-queue hit detection with data forwarding (RAW, paper §3.1/3.4);
* write-after-read blocking so no mechanism can commit a write past an
  older read to the same address (WAR, §3.4);
* row hit/conflict/empty classification at first-transaction time;
* latency bookkeeping and the completion queue;
* the open-page / close-page-autoprecharge row policy (Table 1).
"""

from __future__ import annotations

import abc
import heapq
from typing import Dict, List, Tuple

from repro.controller.access import EnqueueStatus, MemoryAccess
from repro.controller.flatcore import (
    KIND_ACTIVATE,
    KIND_COLUMN,
    KIND_PRECHARGE,
)
from repro.controller.pool import AccessPool
from repro.controller.rowpolicy import RowPolicyPredictor
from repro.dram.channel import Channel
from repro.sim.config import (
    CLOSE_PAGE_AUTOPRECHARGE,
    PREDICTIVE,
    SystemConfig,
)
from repro.sim import profile as _profile
from repro.sim.profile import NEVER
from repro.sim.stats import SimStats

#: Transaction kinds a scheduler decides between for an ongoing access.
COLUMN = "column"
PRECHARGE = "precharge"
ACTIVATE = "activate"

#: One shared int object per common read latency.  The per-source
#: latency histograms outlive the run, and without sharing every one of
#: them would hold its own copy of each latency key above 256.
_LATENCY_INTS = tuple(range(4096))


class Scheduler(abc.ABC):
    """Base class for per-channel access reordering mechanisms."""

    #: Registry name; overridden by subclasses (paper Table 4).
    name = "abstract"

    #: Does a schedule pass read *global* pool state (write occupancy
    #: thresholds, drain watermarks)?  When False the no-op schedule
    #: gate ignores ``pool.write_version`` — other channels' write
    #: traffic cannot change this mechanism's decisions, so the gate
    #: survives it.  Own-channel material always breaks the gate via
    #: ``_gate_cmds`` regardless.  Only set False after checking every
    #: path reachable from ``schedule()`` for pool reads.
    pool_sensitive = True

    def __init__(
        self,
        config: SystemConfig,
        channel: Channel,
        pool: AccessPool,
        stats: SimStats,
    ) -> None:
        self.config = config
        self.channel = channel
        self.pool = pool
        self.stats = stats
        self.auto_precharge = config.row_policy == CLOSE_PAGE_AUTOPRECHARGE
        #: Optional dynamic open/close predictor (paper ref [22]).
        self.row_predictor = (
            RowPolicyPredictor() if config.row_policy == PREDICTIVE else None
        )
        # Completion queue of (complete_cycle, access_id, access).
        self._completions: List[Tuple[int, int, MemoryAccess]] = []
        # Per-bank occupancy counters (slot = rank * banks + bank):
        # reads/writes admitted to this channel and not yet retired
        # from the pool.  The DARP refresher consults these to pick
        # idle banks for refresh pull-in; they mirror pool membership
        # exactly (incremented beside ``pool.add``, decremented beside
        # ``pool.remove``).
        self._banks_per_rank = len(channel.ranks[0].banks)
        slots = len(channel.ranks) * self._banks_per_rank
        self._bank_reads = [0] * slots
        self._bank_writes = [0] * slots
        # Pending-address indexes for RAW forwarding and WAR blocking.
        self._writes_by_addr: Dict[int, List[MemoryAccess]] = {}
        self._reads_by_addr: Dict[int, int] = {}
        # Schedule-pass gate (next-event engine).  A no-issue pass over
        # *frozen* scheduler-visible state is a proven no-op until
        # ``_gate_until``.  Frozen means: no command on this channel
        # (``_gate_cmds`` stamps ``channel.cmd_bus_cycles``), no write
        # entered or retired the shared pool anywhere (``_gate_pool``
        # stamps ``pool.write_version``), and none of this scheduler's
        # own events fired — enqueues and read completions clear
        # ``_gate_cmds`` directly.  ``MemorySystem.tick`` arms and
        # checks the gate only on the fast path; with
        # ``REPRO_FASTFWD=0`` everything here stays disarmed.
        self._gate_until = -1
        self._gate_cmds = -1
        self._gate_pool = -1
        #: Left by a no-issue schedule pass: the min, over its blocked
        #: candidates, of the earliest cycle one could issue; the gate
        #: arms with it.  Mechanisms that do not track it leave -1 and
        #: the gate arming falls back to a :meth:`next_wakeup` call.
        self._pass_wake = -1
        #: Pass-cost profiler hook (None unless ``REPRO_PROFILE=1``):
        #: :meth:`_flat_scan` counts candidates examined vs timing
        #: recomputations into it (see SimProfiler.sched_candidates).
        self._prof = _profile.ensure_profiler()

    # ------------------------------------------------------------------
    # Enqueue path (paper Figure 4 for burst scheduling; the write-queue
    # search is common to every mechanism with a write buffer)
    # ------------------------------------------------------------------

    def admits(self, access: MemoryAccess, cycle: int) -> bool:
        """Mechanism-level admission control (QoS quota hook).

        Consulted by :class:`~repro.controller.system.MemorySystem`
        alongside the pool capacity check; returning False rejects the
        access exactly like a full pool (``REJECTED_FULL``, no side
        effects), so the CPU/driver retries later.  The default admits
        everything — only QoS variants override this.
        """
        return True

    def enqueue(self, access: MemoryAccess, cycle: int) -> EnqueueStatus:
        """Admit ``access``; pool capacity was already checked upstream."""
        if access.is_read:
            queued = self._writes_by_addr.get(access.address)
            if queued:
                # Forward the latest write's data; the read completes
                # immediately and never occupies the pool (§3.1).
                access.forwarded = True
                access.complete_cycle = cycle
                self.stats.forwarded_reads += 1
                self.stats.for_source(access.source).forwarded_reads += 1
                return EnqueueStatus.FORWARDED
            self.pool.add(access)
            self._reads_by_addr[access.address] = (
                self._reads_by_addr.get(access.address, 0) + 1
            )
            self._bank_reads[
                access.rank * self._banks_per_rank + access.bank
            ] += 1
            self._enqueue_read(access, cycle)
            self._gate_cmds = -1  # new material: gate + freeze broken
            return EnqueueStatus.ACCEPTED
        self.pool.add(access)
        self._writes_by_addr.setdefault(access.address, []).append(access)
        self._bank_writes[
            access.rank * self._banks_per_rank + access.bank
        ] += 1
        self._enqueue_write(access, cycle)
        self._gate_cmds = -1
        return EnqueueStatus.ACCEPTED

    def bank_queued_reads(self, rank: int, bank: int) -> int:
        """Reads admitted for ``(rank, bank)`` and not yet retired."""
        return self._bank_reads[rank * self._banks_per_rank + bank]

    def bank_queued_writes(self, rank: int, bank: int) -> int:
        """Writes admitted for ``(rank, bank)`` and not yet retired."""
        return self._bank_writes[rank * self._banks_per_rank + bank]

    # ------------------------------------------------------------------
    # Hooks for concrete mechanisms
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        """Insert a (non-forwarded) read into the queue structure."""

    @abc.abstractmethod
    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        """Insert a write into the queue structure."""

    @abc.abstractmethod
    def schedule(self, cycle: int) -> None:
        """Issue at most one SDRAM command on the channel this cycle."""

    @abc.abstractmethod
    def pending_accesses(self) -> int:
        """Accesses still queued (drain condition for simulations)."""

    # ------------------------------------------------------------------
    # Next-event engine hook
    # ------------------------------------------------------------------

    def next_wakeup(self, cycle: int) -> int:
        """Earliest cycle this scheduler's observable state can change.

        Called by the next-event engine only after a *quiet* cycle (no
        command issued, no completion delivered, no enqueue accepted
        anywhere), when every queue and device register is frozen; the
        engine then leaps straight to the minimum wakeup across all
        components.  Returning ``cycle`` itself means "I might act on
        the very next executed cycle" and suppresses any skip.

        The conservative default keeps every mechanism correct without
        a per-mechanism analysis: with work queued the scheduler is
        assumed ready to act next cycle; otherwise only an in-flight
        read's data return can change its state.  Mechanisms whose
        selection state provably reaches a fixpoint on a quiet cycle
        override this with exact per-access wakeups (see DESIGN.md §9).
        """
        if self.pending_accesses() > 0:
            return cycle
        if self._completions:
            return self._completions[0][0]
        return NEVER

    def earliest_issue_cycle(self, access: MemoryAccess, cycle: int) -> int:
        """First cycle (``>= cycle``) the access's next transaction is
        unblocked, assuming no command issues in between.

        The device ``next_*`` queries are exact (every timing gate is a
        monotone threshold on the cycle number).  ``NEVER`` is returned
        when only an *event* can unblock the transaction — a
        WAR-blocked write column (cleared by the older read's
        completion) or an activate fenced off by a pending refresh
        (cleared when the refresh engine issues).
        """
        kind = self.next_command_kind(access)
        channel = self.channel
        if kind is COLUMN:
            if not access.is_read and self._reads_by_addr.get(access.address):
                return NEVER
            ready = channel.next_column_at(
                access.rank, access.bank, access.row, access.is_read
            )
        elif kind is PRECHARGE:
            ready = channel.next_precharge_at(access.rank, access.bank)
        else:
            ready = channel.next_activate_at(
                access.rank, access.bank, access.row
            )
        return ready if ready > cycle else cycle

    def _flat_scan(self, flat, mask: int, cycle: int):
        """:meth:`earliest_issue_cycle` for every slot in ``mask`` at once.

        Identical results, different cost model.  The device-timing
        part (next command kind + the rank's ``next_*_ready`` plus its
        refresh window — everything that only moves when a command or
        refresh touches the owning bank/rank) is cached in
        ``flat.kind``/``flat.core`` under the devices' write-version
        stamps, so on most passes a slot costs a couple of list reads.
        WAR blocking and the data bus, which move with *other* banks'
        traffic, are applied per pass; the bus part is a lookup in the
        table the channel publishes on every column issue.

        Writes each slot's earliest cycle (clamped to ``cycle``) into
        ``flat.ready`` and returns ``(col, ovh, wake)``: the issuable
        column slots, the issuable precharge/activate slots, and the
        min earliest cycle over the blocked slots (``NEVER`` if none).
        A scan over every occupied slot of a wide channel takes that
        min vectorized (:meth:`FlatSlots.min_ready`).
        """
        acc = flat.acc
        banks = flat.banks
        ranks = flat.ranks
        kinds = flat.kind
        cores = flat.core
        bstamp = flat.bstamp
        rstamp = flat.rstamp
        ready = flat.ready
        vec = flat.use_numpy and mask == flat.occupied
        channel = self.channel
        bus = channel.bus_ready
        bus_rank = channel.last_data_rank
        war = self._reads_by_addr
        col = ovh = 0
        wake = NEVER
        misses = 0
        m = mask
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            bank = banks[i]
            rank = ranks[i]
            if bstamp[i] == bank.ver and rstamp[i] == rank.ver:
                kind = kinds[i]
                t = cores[i]
            else:
                access = acc[i]
                row = bank.open_row
                if row == access.row:
                    kind = KIND_COLUMN
                    t = rank.next_column_ready(
                        access.bank, row, access.is_read
                    )
                elif row is not None:
                    kind = KIND_PRECHARGE
                    t = rank.next_precharge_ready(access.bank)
                else:
                    kind = KIND_ACTIVATE
                    t = rank.next_activate_ready(access.bank, access.row)
                if rank.refresh_busy_until > t:
                    t = rank.refresh_busy_until
                kinds[i] = kind
                cores[i] = t
                bstamp[i] = bank.ver
                rstamp[i] = rank.ver
                misses += 1
            if kind == KIND_COLUMN:
                access = acc[i]
                is_read = access.is_read
                if not is_read and access.address in war:
                    t = NEVER  # WAR: only the read's completion unblocks
                else:
                    bus_t = bus[access.rank != bus_rank][is_read]
                    if bus_t > t:
                        t = bus_t
            if t <= cycle:
                ready[i] = cycle
                if kind == KIND_COLUMN:
                    col |= b
                else:
                    ovh |= b
            else:
                ready[i] = t
                if not vec and t < wake:
                    wake = t
        prof = self._prof
        if prof is not None:
            seen = bin(mask).count("1")
            prof.sched_candidates += seen
            prof.sched_timing_checks += misses
            prof.sched_bitset_hits += seen - misses
        if vec and not (col | ovh):
            wake = flat.min_ready()
        return col, ovh, wake

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Serialize shared controller state plus the mechanism's own.

        ``ctx`` is a :class:`repro.checkpoint.SaveContext`; live
        accesses are stored once in its registry and referenced by id
        everywhere, so object-identity sharing (the same access sitting
        in a queue, the completion heap and a CPU structure) survives
        the round trip.  The completion heap's array order is preserved
        verbatim — it is already a valid heap and pops identically.
        """
        return {
            "completions": [
                [done, ident, ctx.ref(access)]
                for done, ident, access in self._completions
            ],
            "writes_by_addr": [
                [addr, [ctx.ref(a) for a in queued]]
                for addr, queued in self._writes_by_addr.items()
            ],
            "reads_by_addr": [
                [addr, count]
                for addr, count in self._reads_by_addr.items()
            ],
            "bank_reads": list(self._bank_reads),
            "bank_writes": list(self._bank_writes),
            "row_predictor": (
                self.row_predictor.state_dict()
                if self.row_predictor is not None
                else None
            ),
            "mech": self._mech_state(ctx),
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        """Restore in place; the next-event gates are *reset*, not
        restored.

        Resetting (``_gate_* = -1`` etc.) is safe because gates only
        elide schedule passes proven to be no-ops: re-running such a
        pass on the restored (frozen) state issues nothing, mutates
        nothing observable, and simply re-arms the gate — the fixpoint
        property the fast engine's byte-identity already rests on.
        """
        self._completions = [
            (done, ident, ctx.get(ref))
            for done, ident, ref in state["completions"]
        ]
        self._writes_by_addr = {
            addr: [ctx.get(ref) for ref in refs]
            for addr, refs in state["writes_by_addr"]
        }
        self._reads_by_addr = {
            addr: count for addr, count in state["reads_by_addr"]
        }
        self._bank_reads = list(state["bank_reads"])
        self._bank_writes = list(state["bank_writes"])
        if self.row_predictor is not None and state["row_predictor"]:
            self.row_predictor.load_state_dict(state["row_predictor"])
        self._gate_until = -1
        self._gate_cmds = -1
        self._gate_pool = -1
        self._pass_wake = -1
        self._load_mech_state(state["mech"], ctx)

    def _mech_state(self, ctx) -> dict:
        """Mechanism-specific queue state (subclass hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def _load_mech_state(self, state: dict, ctx) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    # ------------------------------------------------------------------
    # Shared transaction helpers
    # ------------------------------------------------------------------

    def next_command_kind(self, access: MemoryAccess) -> str:
        """Which transaction ``access`` needs next, from bank state."""
        bank = self.channel.ranks[access.rank].banks[access.bank]
        if bank.open_row == access.row:
            return COLUMN
        if bank.open_row is not None:
            return PRECHARGE
        return ACTIVATE

    def can_issue_access(self, access: MemoryAccess, cycle: int) -> bool:
        """Is the access's next transaction unblocked (paper §3.3)?

        Includes the WAR guard: a write's column access may not issue
        while an older read to the same address is still queued.
        """
        return self.earliest_issue_cycle(access, cycle) <= cycle

    def issue_for(self, access: MemoryAccess, cycle: int) -> str:
        """Issue the access's next transaction; returns its kind.

        On the first transaction the access is classified as row hit /
        conflict / empty against live bank state (§5.2's discussion of
        preemption-induced row empties relies on this being live).
        When the transaction is the column access, latency bookkeeping
        runs and the access is finished from the queue's perspective.
        """
        if access.start_cycle is None:
            access.start_cycle = cycle
            access.row_state = self.channel.classify(
                access.rank, access.bank, access.row
            )
            self.stats.row_states[access.row_state] += 1
            self.stats.for_source(access.source).row_states[
                access.row_state
            ] += 1
            if self.row_predictor is not None:
                self.row_predictor.observe(access, access.row_state)
        kind = self.next_command_kind(access)
        if kind is COLUMN:
            auto_precharge = self.auto_precharge
            if self.row_predictor is not None and self.row_predictor.should_close(
                access.rank, access.bank
            ):
                auto_precharge = True
                self.row_predictor.note_closed(
                    access.rank, access.bank, access.row
                )
            data_end = self.channel.issue_column(
                cycle,
                access.rank,
                access.bank,
                access.row,
                access.is_read,
                auto_precharge,
                column=access.column,
                source=access.source,
            )
            access.complete_cycle = data_end
            self.stats.for_source(access.source).data_bus_cycles += (
                self.channel.timing.data_cycles
            )
            heapq.heappush(
                self._completions, (data_end, access.id, access)
            )
            if not access.is_read:
                self._finish_write_bookkeeping(access)
        elif kind is PRECHARGE:
            self.channel.issue_precharge(
                cycle, access.rank, access.bank, source=access.source
            )
        else:
            self.channel.issue_activate(
                cycle, access.rank, access.bank, access.row,
                source=access.source,
            )
        return kind

    def _finish_write_bookkeeping(self, access: MemoryAccess) -> None:
        """Drop a write from the pool/indexes once its column issued."""
        queued = self._writes_by_addr.get(access.address)
        if queued:
            queued.remove(access)
            if not queued:
                del self._writes_by_addr[access.address]
        self.pool.remove(access)
        self._bank_writes[
            access.rank * self._banks_per_rank + access.bank
        ] -= 1
        latency = access.complete_cycle - access.arrival
        self.stats.write_latency.add(latency)
        self.stats.completed_writes += 1
        per_source = self.stats.for_source(access.source)
        per_source.write_latency.add(latency)
        per_source.completed_writes += 1
        if access.piggybacked:
            self.stats.piggybacked_writes += 1

    def _finish_read_bookkeeping(self, access: MemoryAccess) -> None:
        """Drop a read from the pool/indexes at its data return."""
        count = self._reads_by_addr.get(access.address, 0)
        if count <= 1:
            self._reads_by_addr.pop(access.address, None)
        else:
            self._reads_by_addr[access.address] = count - 1
        self.pool.remove(access)
        self._bank_reads[
            access.rank * self._banks_per_rank + access.bank
        ] -= 1
        latency = access.complete_cycle - access.arrival
        if latency < len(_LATENCY_INTS):
            latency = _LATENCY_INTS[latency]
        self.stats.read_latency.add(latency)
        slice_stats = self.stats.read_latency_per_slice
        key = access.address >> 30
        if key not in slice_stats:
            from repro.sim.stats import LatencyStat

            slice_stats[key] = LatencyStat()
        slice_stats[key].add(latency)
        self.stats.completed_reads += 1
        per_source = self.stats.for_source(access.source)
        per_source.read_latency.add(latency)
        per_source.read_latencies.add(latency)
        per_source.completed_reads += 1

    def write_is_war_blocked(self, access: MemoryAccess) -> bool:
        """True when an older read to the same address is still queued.

        Mechanisms must not select such a write as a bank's ongoing
        access ahead of the read — the column-level WAR guard would
        stall it against a read waiting in the very same queue,
        deadlocking the bank.
        """
        return bool(self._reads_by_addr.get(access.address))

    def pop_completions(self, cycle: int) -> List[MemoryAccess]:
        """Reads whose data arrived by ``cycle`` (responses to the CPU).

        Writes were answered at enqueue (posted); their internal
        completion already ran in :meth:`issue_for`.
        """
        done: List[MemoryAccess] = []
        heap = self._completions
        while heap and heap[0][0] <= cycle:
            _, _, access = heapq.heappop(heap)
            if access.is_read:
                self._finish_read_bookkeeping(access)
                self._on_read_complete(access)
                done.append(access)
        if done:
            self._gate_cmds = -1  # WAR/selection state may have changed
        return done

    def _on_read_complete(self, access: MemoryAccess) -> None:
        """Hook: a read's data has returned (subclass bookkeeping)."""

    @property
    def in_flight(self) -> int:
        """Accesses issued to the device but not yet completed."""
        return len(self._completions)


__all__ = ["ACTIVATE", "COLUMN", "PRECHARGE", "Scheduler"]
