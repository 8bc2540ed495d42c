"""Unit tests for the channel: buses, turnaround, classification."""

import json

import pytest

from repro.dram.channel import Channel, RowState
from repro.dram.commands import Command, CommandType
from repro.dram.timing import DDR2_800, DDR5_4800
from repro.errors import ProtocolError

T = DDR2_800


@pytest.fixture
def channel():
    return Channel(T, index=0, ranks=2, banks=2)


def _open_row(channel, cycle, rank, bank, row):
    channel.issue_activate(cycle, rank, bank, row)
    return max(cycle + T.tRCD, 0)


def test_command_bus_one_command_per_cycle(channel):
    channel.issue_activate(0, 0, 0, 0)
    with pytest.raises(ProtocolError):
        channel.issue_activate(0, 1, 0, 0)
    channel.issue_activate(1, 1, 0, 0)  # other rank: not tRRD-gated


def test_command_bus_free_tracking(channel):
    assert channel.command_bus_free(0)
    channel.issue_activate(0, 0, 0, 0)
    assert not channel.command_bus_free(0)
    assert channel.command_bus_free(1)


def test_classify(channel):
    assert channel.classify(0, 0, 5) is RowState.EMPTY
    channel.issue_activate(0, 0, 0, 5)
    assert channel.classify(0, 0, 5) is RowState.HIT
    assert channel.classify(0, 0, 6) is RowState.CONFLICT


def test_data_bus_occupancy_blocks_overlapping_bursts(channel):
    channel.issue_activate(0, 0, 0, 0)
    channel.issue_activate(T.tRRD, 0, 1, 0)  # bank1 col ready at tRRD+tRCD
    end = channel.issue_column(T.tRCD, 0, 0, 0, True)
    assert end == T.tRCD + T.tCL + T.data_cycles
    # A read in the other bank (same rank) whose data would overlap
    # the in-flight burst is blocked until the bus frees: the first
    # legal command cycle puts its data right behind the previous
    # burst's last beat.
    first_ok = end - T.tCL
    assert not channel.can_column_at(first_ok - 1, 0, 1, 0, True)
    assert channel.can_column_at(first_ok, 0, 1, 0, True)


def test_rank_to_rank_turnaround(channel):
    """tRTRS idle cycles between bursts of different ranks (§3)."""
    t0 = _open_row(channel, 0, 0, 0, 0)
    channel.issue_activate(1, 1, 0, 0)
    end = channel.issue_column(t0, 0, 0, 0, True)
    # Same rank: back to back is fine.
    same_rank_ok = end - T.tCL
    # Other rank: must leave a tRTRS gap.
    other_rank_first = end + T.tRTRS - T.tCL
    assert not channel.can_column_at(other_rank_first - 1, 1, 0, 0, True)
    assert channel.can_column_at(other_rank_first, 1, 0, 0, True)
    assert same_rank_ok <= other_rank_first


def test_direction_turnaround_same_rank(channel):
    """One idle cycle between read data and write data."""
    t = _open_row(channel, 0, 0, 0, 0)
    end = channel.issue_column(t, 0, 0, 0, True)
    write_start_ok = end + 1  # one-cycle gap on direction change
    first_write_cmd = write_start_ok - T.tCWL
    assert not channel.can_column_at(first_write_cmd - 1, 0, 0, 0, False)
    assert channel.can_column_at(first_write_cmd, 0, 0, 0, False)


def test_issue_checks_blocked_command(channel):
    cmd = Command(CommandType.READ, 0, 0, row=0, column=0)
    with pytest.raises(ProtocolError):
        channel.issue(cmd, 0)


def test_issue_command_object_matches_fast_path(channel):
    """Command-object API and fast-path API share semantics."""
    act = Command(CommandType.ACTIVATE, 0, 0, row=3)
    assert channel.can_issue(act, 0)
    channel.issue(act, 0)
    read = Command(CommandType.READ, 0, 0, row=3, column=1)
    assert not channel.can_issue(read, T.tRCD - 1)
    assert channel.can_issue(read, T.tRCD)
    end = channel.issue(read, T.tRCD)
    assert end == T.tRCD + T.tCL + T.data_cycles


def test_refresh_command_via_issue(channel):
    refresh = Command(CommandType.REFRESH, 0, 0)
    assert channel.can_issue(refresh, 0)
    done = channel.issue(refresh, 0)
    assert done == T.tRFC
    # Rank busy: no commands to rank 0 until tRFC.
    assert not channel.can_issue(
        Command(CommandType.ACTIVATE, 0, 0, row=0), T.tRFC - 1
    )


def test_utilization_counters(channel):
    t = _open_row(channel, 0, 0, 0, 0)
    channel.issue_column(t, 0, 0, 0, True)
    assert channel.cmd_bus_cycles == 2
    assert channel.data_bus_cycles == T.data_cycles


def test_iter_banks_covers_topology(channel):
    keys = [(r, b) for r, b, _ in channel.iter_banks()]
    assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ----------------------------------------------------------------------
# Directed: the published data-bus table
# ----------------------------------------------------------------------


def _bus_reference(timing, busy, last_rank, last_read, rank, is_read):
    """The turnaround rule restated: CAS latency, 1-cycle direction
    switch within a rank, tRTRS on a rank switch."""
    latency = timing.tCL if is_read else timing.tCWL
    if last_rank is None:
        gap = 0
    elif last_rank != rank:
        gap = timing.tRTRS
    elif bool(last_read) != bool(is_read):
        gap = 1
    else:
        gap = 0
    return busy + gap - latency


def _bus_channel(timing, previous):
    """A 2-rank channel whose last burst is ``previous`` (or none)."""
    channel = Channel(timing, index=0, ranks=2, banks=8)
    if previous is None:
        return channel, 0
    rank, is_read = previous
    channel.issue_activate(0, rank, 0, 3)
    cycle = channel.next_column_at(rank, 0, 3, is_read)
    busy = channel.issue_column(cycle, rank, 0, 3, is_read)
    assert channel.data_busy_until == busy
    return channel, busy


@pytest.mark.parametrize(
    "timing", [DDR2_800, DDR5_4800], ids=["DDR2-800", "DDR5-4800"]
)
@pytest.mark.parametrize(
    "previous",
    [None, (0, True), (0, False), (1, True), (1, False)],
    ids=["none", "r0-read", "r0-write", "r1-read", "r1-write"],
)
def test_bus_table_matches_turnaround_rule(timing, previous):
    """``data_bus_ready`` is a lookup in the table the channel publishes
    on every column issue and on load; it must equal the turnaround
    rule for every candidate rank and direction, ``is_read`` as bool or
    0/1, before and after a checkpoint round trip."""
    channel, busy = _bus_channel(timing, previous)
    last_rank, last_read = previous if previous else (None, None)
    state = json.loads(json.dumps(channel.state_dict()))
    restored = Channel(timing, index=0, ranks=2, banks=8)
    restored.load_state_dict(state)
    for ch in (channel, restored):
        for rank in (0, 1):
            for is_read in (True, False, 1, 0):
                assert ch.data_bus_ready(rank, is_read) == _bus_reference(
                    timing, busy, last_rank, last_read, rank, is_read
                ), (rank, is_read)
    # The table is rebuilt on load, never serialized.
    assert set(state) == {
        "last_cmd_cycle", "data_busy_until", "last_data_rank",
        "last_data_is_read", "cmd_bus_cycles", "data_bus_cycles", "ranks",
    }
