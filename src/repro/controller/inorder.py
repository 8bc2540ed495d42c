"""Bank in order scheduling — the paper's baseline (Table 3/4).

``BkInOrder`` keeps one FIFO queue per bank: accesses within a bank are
performed strictly in arrival order, while banks are served round
robin.  Transactions of accesses in *different* banks still pipeline on
the split-transaction buses (precharges and activates overlap data
transfers), but no access ever passes another to the same bank — so
row conflicts are never turned into row hits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler
from repro.controller.flatcore import FlatSlots
from repro.sim.profile import NEVER

BankKey = Tuple[int, int]


class BkInOrderScheduler(Scheduler):
    """In order within each bank, round robin between banks."""

    name = "BkInOrder"

    #: Selection reads only own-channel queues and device state — the
    #: shared pool never influences a pass, so the no-op gate survives
    #: other channels' write traffic.
    pool_sensitive = False

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(config, channel, pool, stats)
        self._queues: Dict[BankKey, Deque[MemoryAccess]] = {
            (rank, bank): deque()
            for rank, bank, _ in channel.iter_banks()
        }
        self._bank_keys: List[BankKey] = list(self._queues)
        self._rr = 0
        self._pending = 0
        # Flat mirror of the queue heads: the candidate set IS the set
        # of nonempty queues, so the pass walks an occupancy bitset
        # with stamp-cached timing instead of every bank dict.
        self._flat = FlatSlots(channel)
        self._bpr = channel.banks_per_rank

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        queue = self._queues[access.bank_key()]
        queue.append(access)
        if len(queue) == 1:
            self._flat.bind(access.rank * self._bpr + access.bank, access)
        self._pending += 1

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        queue = self._queues[access.bank_key()]
        queue.append(access)
        if len(queue) == 1:
            self._flat.bind(access.rank * self._bpr + access.bank, access)
        self._pending += 1

    def pending_accesses(self) -> int:
        return self._pending

    def _mech_state(self, ctx) -> dict:
        return {
            "queues": [
                [list(key), [ctx.ref(a) for a in self._queues[key]]]
                for key in self._bank_keys
            ],
            "rr": self._rr,
            "pending": self._pending,
        }

    def _load_mech_state(self, state: dict, ctx) -> None:
        for key, refs in state["queues"]:
            self._queues[tuple(key)] = deque(ctx.get(r) for r in refs)
        self._rr = state["rr"]
        self._pending = state["pending"]
        # Deterministic flat rebuild (the mirror is never serialized).
        flat = self._flat
        flat.reset()
        for slot, key in enumerate(self._bank_keys):
            queue = self._queues[key]
            if queue:
                flat.bind(slot, queue[0])

    def next_wakeup(self, cycle: int) -> int:
        """Exact wakeup: earliest any head-of-queue can issue.

        Safe because :meth:`schedule` mutates nothing on a cycle where
        no transaction issues — the candidate set is exactly the queue
        heads, and each head's earliest legal cycle is computable from
        frozen device state.  A WAR-blocked write head (``NEVER``) is
        unblocked by its older read's data return, which sits in this
        scheduler's completion heap.
        """
        wake = self._completions[0][0] if self._completions else NEVER
        if not self._pending:
            return wake
        for key in self._bank_keys:
            queue = self._queues[key]
            if not queue:
                continue
            candidate = self.earliest_issue_cycle(queue[0], cycle)
            if candidate < wake:
                wake = candidate
        return wake

    def schedule(self, cycle: int) -> None:
        """Issue the first unblocked head-of-queue transaction.

        The scan starts at the round-robin pointer so every bank gets
        an equal share of command slots; the pointer advances past a
        bank when its current access's data transfer is scheduled.
        Strict order: even a WAR-blocked write head simply waits (its
        older same-address read is ahead of it anyway).  Occupied flat
        slots ARE the nonempty queues: one :meth:`_flat_scan` over them
        finds the issuable heads, and the first in rotated order
        issues.  A no-issue scan leaves the blocked heads' min in
        ``_pass_wake`` to arm the no-op schedule gate.
        """
        flat = self._flat
        occ = flat.occupied
        if not occ:
            self._pass_wake = NEVER
            return
        col, ovh, wake = self._flat_scan(flat, occ, cycle)
        issuable = col | ovh
        if not issuable:
            self._pass_wake = wake
            return
        rr = self._rr
        high = issuable >> rr << rr  # slots >= rr, then the wrapped rest
        pick = high or issuable
        i = (pick & -pick).bit_length() - 1
        head = flat.acc[i]
        kind = self.issue_for(head, cycle)
        if kind is COLUMN:
            queue = self._queues[flat.keys[i]]
            queue.popleft()
            self._pending -= 1
            if queue:
                flat.bind(i, queue[0])
            else:
                flat.clear(i)
            self._rr = (i + 1) % flat.n


__all__ = ["BkInOrderScheduler"]
