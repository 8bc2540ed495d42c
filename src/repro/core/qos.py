"""QoS-aware burst scheduling variants for multi-tenant fleet mode.

When ``config.sources > 1`` independent workload streams (tenants)
share one controller, plain burst scheduling optimises aggregate bus
utilisation with no regard for *who* owns each access.  Two adversarial
failure modes follow (exercised by the fleet scenario matrix):

* a **write flooder** fills the shared write queue, driving the
  occupancy past the Burst_TH threshold so every bank piggybacks the
  flooder's writes while the victim's reads wait;
* a **row-buffer hog** streams row hits, growing huge bursts that the
  Figure 5 arbiter serves to completion while the victim's small
  bursts queue behind them.

Each variant counters one failure mode with a per-source cap derived
from ``config.sources``, and degrades to exactly ``Burst_TH`` when
``sources == 1`` (the caps become unreachable), so both enroll in the
single-stream differential harnesses unchanged:

* :class:`WriteQuotaBurstScheduler` (``Burst_QW``) caps any tenant's
  write-queue occupancy at ``write_queue_size // sources`` via the
  admission hook — an over-quota write is rejected exactly like a full
  pool, with zero side effects, so the next-event engine's quiet-cycle
  fixpoint (and byte-identical fast mode) is preserved.
* :class:`BurstBudgetScheduler` (``Burst_QB``) caps the number of
  banks concurrently serving one tenant's read bursts at
  ``banks_in_channel // sources``; at a burst boundary an over-budget
  tenant's burst yields to the oldest burst of the least-granted
  tenant.  Selection goes through the Figure 5 arbiter's
  :meth:`~repro.core.scheduler.BurstScheduler._select_read_burst`
  hook.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.controller.access import MemoryAccess
from repro.core.burst import BurstQueue
from repro.core.scheduler import BankKey, BurstScheduler


class WriteQuotaBurstScheduler(BurstScheduler):
    """Burst_TH plus a per-source write-queue quota (``Burst_QW``).

    ``admits`` rejects a write whose source already holds its share of
    the write queue; reads are always admitted.  Because rejection is
    indistinguishable from pool back-pressure, drivers retry on later
    cycles and no scheduler or pool state mutates — the quota frees
    only when one of the tenant's pooled writes retires.
    """

    name = "Burst_QW"

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(
            config,
            channel,
            pool,
            stats,
            read_preemption=True,
            write_piggybacking=True,
        )
        #: Per-tenant write-queue cap.  With ``sources == 1`` this is
        #: the whole queue, which ``Pool.can_accept`` already enforces,
        #: so the quota never binds and Burst_QW ≡ Burst_TH.
        self.write_quota = max(1, config.write_queue_size // config.sources)

    def admits(self, access: MemoryAccess, cycle: int) -> bool:
        if access.is_read:
            return True
        return self.pool.source_write_count(access.source) < self.write_quota

    def _write_pressure(self) -> bool:
        """Any tenant at its quota counts as a full write queue.

        Figure 5's full-queue drain is what keeps the plain mechanism
        live when writes back up; the per-tenant analogue is needed
        for the same reason, otherwise a quota-blocked tenant can wait
        indefinitely — the global occupancy may sit below both the
        piggyback threshold and the queue capacity while other
        tenants' reads keep the read-queue-empty drain path off.  For
        one tenant (quota == queue size) this is exactly the base
        signal.
        """
        if self.pool.write_queue_full:
            return True
        quota = self.write_quota
        return any(
            count >= quota
            for count in self.pool.write_count_by_source.values()
        )

    def _pressure_write(self, key):
        """Drain the oldest write of a tenant that is AT its quota —
        but only on a read-idle bank.

        Targeting matters: draining another tenant's (older) write
        would spend data-bus time without freeing the quota that
        raised the pressure.  Yielding to queued reads matters just as
        much: quota pressure, unlike a full queue, can persist for
        thousands of cycles, and an unconditional drain would turn the
        whole channel into write mode below the RP threshold — where
        line 9 would then preempt the drain write, re-select it next
        pass, and oscillate (sequential passes see every swing, gated
        fast-mode passes see only some: byte-identity dies).  A bank
        with queued reads serves them; at-quota writes drain through
        read-idle banks, and the admission cap — not the drain — is
        what actually protects the victim.  Under a genuinely full
        queue every write blocks the pool, so the base oldest-write
        drain applies regardless of reads (with one tenant that is the
        only reachable case).
        """
        if self.pool.write_queue_full:
            return self._oldest_write(key)
        if self._read_queues[key]:
            return None
        quota = self.write_quota
        counts = self.pool.write_count_by_source
        for access in self._write_queues[key]:
            if counts.get(
                access.source, 0
            ) >= quota and not self.write_is_war_blocked(access):
                return access
        return None


class BurstBudgetScheduler(BurstScheduler):
    """Burst_TH plus a per-source burst-slot budget (``Burst_QB``).

    A tenant holds one *grant* per bank currently mid-way through one
    of its read bursts.  At a burst boundary the oldest burst is served
    as usual unless its tenant is at the budget, in which case the
    oldest burst of the least-granted under-budget tenant is served
    instead (falling back to the oldest burst when every tenant is
    over budget, so Figure 5 line 8 still always selects — the
    ``next_wakeup`` fixpoint argument needs that).

    A burst picked from the middle of the queue is remembered per bank
    (``_serving_row``) so subsequent selections keep serving it to
    completion; the row index is snapshot state (it cannot be derived
    from the queues alone) and rides along in ``_mech_state``.
    """

    name = "Burst_QB"

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(
            config,
            channel,
            pool,
            stats,
            read_preemption=True,
            write_piggybacking=True,
        )
        #: Per-tenant cap on banks concurrently serving its bursts.
        #: With ``sources == 1`` this is every bank of the channel, and
        #: the selecting bank never counts itself (it sits at a burst
        #: boundary), so the budget never binds and Burst_QB ≡ Burst_TH.
        self.burst_budget = max(1, len(self._bank_keys) // config.sources)
        # row of the burst each bank is currently serving; None at a
        # burst boundary (invariant: _end_of_burst[key] implies None).
        self._serving_row: Dict[BankKey, Optional[int]] = {
            key: None for key in self._bank_keys
        }

    def _grants_by_source(self) -> Dict[int, int]:
        """Banks currently mid-burst, counted per owning tenant."""
        grants: Dict[int, int] = {}
        for key, row in self._serving_row.items():
            if row is None or self._end_of_burst[key]:
                continue
            burst = self._read_queues[key].burst_for_row(row)
            if burst is None:
                continue
            source = burst.head.source
            grants[source] = grants.get(source, 0) + 1
        return grants

    def _select_read_burst(self, key: BankKey, reads: BurstQueue, cycle: int):
        if not self._end_of_burst[key]:
            # Mid-burst: keep serving the same burst to completion.
            row = self._serving_row[key]
            if row is not None:
                burst = reads.burst_for_row(row)
                if burst is not None:
                    return burst
        grants = self._grants_by_source()
        pick = reads.next_burst
        if grants.get(pick.head.source, 0) >= self.burst_budget:
            best_grants: Optional[int] = None
            for burst in reads.bursts:
                held = grants.get(burst.head.source, 0)
                if held >= self.burst_budget:
                    continue
                # Bursts iterate oldest first, so the first burst seen
                # at each grant level is the oldest of that level.
                if best_grants is None or held < best_grants:
                    pick = burst
                    best_grants = held
        self._serving_row[key] = pick.row
        return pick

    def _retire_column(self, key: BankKey, access: MemoryAccess) -> None:
        super()._retire_column(key, access)
        if self._end_of_burst[key]:
            self._serving_row[key] = None

    def _mech_state(self, ctx) -> dict:
        state = super()._mech_state(ctx)
        state["serving_row"] = [
            [list(key), self._serving_row[key]] for key in self._bank_keys
        ]
        return state

    def _load_mech_state(self, state: dict, ctx) -> None:
        super()._load_mech_state(state, ctx)
        for key, row in state["serving_row"]:
            self._serving_row[tuple(key)] = row


__all__ = ["BurstBudgetScheduler", "WriteQuotaBurstScheduler"]
