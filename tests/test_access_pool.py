"""Unit tests for MemoryAccess and the shared access pool."""

import pytest

from repro.controller.access import AccessType, MemoryAccess
from repro.controller.pool import AccessPool
from repro.errors import PoolError
from repro.mapping.base import DecodedAddress


def _access(op=AccessType.READ, address=0x1000, arrival=0):
    return MemoryAccess(op, address, DecodedAddress(0, 1, 2, 3, 4), arrival)


def test_access_carries_coordinates():
    access = _access()
    assert access.channel == 0
    assert access.rank == 1
    assert access.bank == 2
    assert access.row == 3
    assert access.column == 4
    assert access.bank_key() == (1, 2)


def test_access_ids_are_unique():
    assert _access().id != _access().id


def test_latency_requires_completion():
    access = _access(arrival=10)
    assert access.latency is None
    access.complete_cycle = 35
    assert access.latency == 25


def test_read_write_predicates():
    assert _access(AccessType.READ).is_read
    assert _access(AccessType.WRITE).is_write


#: The slot set at which peak memory is budgeted; an access is created
#: per request, so a new slot is paid hundreds of thousands of times.
ACCESS_SLOTS = 17


def test_access_slots_do_not_grow():
    assert len(MemoryAccess.__slots__) == ACCESS_SLOTS
    assert not hasattr(_access(), "__dict__")


@pytest.mark.parametrize("op", [AccessType.READ, AccessType.WRITE])
def test_access_state_bytes_and_round_trip(op):
    """``to_state`` keeps its exact dict; ``from_state`` restores the
    stored direction bit and both derived views of it."""
    access = _access(op, address=0x2040, arrival=7)
    access.start_cycle = 9
    access.complete_cycle = 30
    state = access.to_state()
    expected = {
        "id": access.id,
        "type": "read" if op is AccessType.READ else "write",
        "address": 0x2040,
        "channel": 0,
        "rank": 1,
        "bank": 2,
        "row": 3,
        "column": 4,
        "subarray": 0,
        "arrival": 7,
        "start_cycle": 9,
        "complete_cycle": 30,
        "row_state": None,
        "forwarded": False,
        "preempted": False,
        "piggybacked": False,
        "source": 0,
    }
    assert list(state.items()) == list(expected.items())  # order too
    restored = MemoryAccess.from_state(state)
    assert restored.type is op
    assert restored.is_read is (op is AccessType.READ)
    assert restored.is_write is (op is AccessType.WRITE)
    assert restored.to_state() == state


def test_pool_capacity_limits():
    pool = AccessPool(capacity=3, write_capacity=1)
    r1, r2 = _access(), _access()
    w1, w2 = _access(AccessType.WRITE), _access(AccessType.WRITE)
    pool.add(r1)
    pool.add(w1)
    assert not pool.can_accept(w2)  # write queue full
    assert pool.write_queue_full
    pool.add(r2)
    assert pool.full
    assert not pool.can_accept(_access())


def test_pool_overflow_raises():
    pool = AccessPool(1, 1)
    pool.add(_access())
    with pytest.raises(PoolError):
        pool.add(_access())


def test_pool_remove_restores_room():
    pool = AccessPool(2, 1)
    w = _access(AccessType.WRITE)
    pool.add(w)
    assert pool.write_queue_full
    pool.remove(w)
    assert not pool.write_queue_full
    assert pool.count == 0


def test_pool_underflow_raises():
    pool = AccessPool(2, 1)
    with pytest.raises(PoolError):
        pool.remove(_access())
    with pytest.raises(PoolError):
        pool.remove(_access(AccessType.WRITE))


def test_pool_rejects_bad_geometry():
    with pytest.raises(PoolError):
        AccessPool(0, 1)
    with pytest.raises(PoolError):
        AccessPool(4, 8)


def test_table3_pool_shape():
    """Table 3: 256-entry pool with at most 64 writes."""
    pool = AccessPool(256, 64)
    assert pool.capacity == 256
    assert pool.write_capacity == 64
