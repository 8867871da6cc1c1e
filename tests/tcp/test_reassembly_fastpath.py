"""Equivalence tests for the reassembly in-order fast path.

``ReassemblyQueue.offer`` short-circuits the common case (segment lands
exactly at ``rcv_nxt`` with nothing buffered).  These tests drive a
fast-path queue and a slow-path reference through identical random
offer sequences and require identical deliveries and bookkeeping.

The reference is the same class with the fast path disarmed: a
sentinel range parked far above the sequence space keeps ``_starts``
non-empty, so every offer takes the general insert-then-advance route.
"""

import random

import pytest

from repro.tcp.reassembly import ReassemblyQueue

SENTINEL = 10 ** 12


def make_slow_queue():
    queue = ReassemblyQueue()
    queue.offer(SENTINEL, SENTINEL + 1)
    return queue


def drive(queue, offers, sentinel=0):
    delivered = []
    accepted = []
    for start, end, meta in offers:
        accepted.append(queue.offer(
            start, end, meta,
            on_in_order=lambda s, e, m: delivered.append((s, e, m))))
    return {
        "delivered": delivered,
        "accepted": accepted,
        "rcv_nxt": queue.rcv_nxt,
        "duplicate_bytes": queue.duplicate_bytes,
        "buffered": queue.buffered_bytes - sentinel,
        "ranges": [r for r in queue.pending_ranges if r[0] < SENTINEL],
    }


def assert_equivalent(offers):
    fast = drive(ReassemblyQueue(), offers)
    slow = drive(make_slow_queue(), offers, sentinel=1)
    assert fast == slow


def test_in_order_stream_hits_fast_path():
    offers = [(i * 1448, (i + 1) * 1448, i) for i in range(50)]
    fast = drive(ReassemblyQueue(), offers)
    assert fast["rcv_nxt"] == 50 * 1448
    assert fast["buffered"] == 0
    assert fast["duplicate_bytes"] == 0
    assert fast["delivered"] == [(s, e, m) for s, e, m in offers]
    assert_equivalent(offers)


def test_fast_path_disabled_while_holes_outstanding():
    # A hole forces buffering; later in-order fills must still drain
    # the buffered ranges through the general path.
    offers = [(0, 100, "a"), (200, 300, "c"), (100, 200, "b"),
              (300, 400, "d")]
    fast = drive(ReassemblyQueue(), offers)
    assert fast["delivered"] == [(0, 100, "a"), (100, 200, "b"),
                                 (200, 300, "c"), (300, 400, "d")]
    assert fast["rcv_nxt"] == 400
    assert_equivalent(offers)


def test_duplicate_and_overlap_accounting_matches():
    offers = [(0, 100, 1), (0, 100, 2), (50, 150, 3), (100, 300, 4),
              (250, 350, 5)]
    assert_equivalent(offers)


@pytest.mark.parametrize("seed", [1, 7, 42, 2013])
def test_randomized_offer_sequences_are_equivalent(seed):
    """Random mixes of in-order delivery, reordering, duplication and
    partial overlap: the fast path must be unobservable."""
    rng = random.Random(seed)
    mss = 1000
    offers = []
    cursor = 0
    for index in range(300):
        roll = rng.random()
        if roll < 0.55:
            start = cursor
            cursor += mss
        elif roll < 0.75:  # reorder ahead, leaving a hole
            start = cursor + rng.randrange(1, 5) * mss
        elif roll < 0.9:  # retransmit something old
            start = max(0, cursor - rng.randrange(1, 6) * mss)
        else:  # misaligned overlap
            start = max(0, cursor - rng.randrange(1, 3) * mss
                        + rng.randrange(-500, 500))
        length = mss if rng.random() < 0.8 else rng.randrange(1, 2 * mss)
        offers.append((start, start + length, index))
    assert_equivalent(offers)


def test_buffered_bytes_counter_matches_stored_ranges():
    rng = random.Random(99)
    queue = ReassemblyQueue()
    for _ in range(200):
        start = rng.randrange(0, 50_000)
        queue.offer(start, start + rng.randrange(1, 3000))
        stored = sum(end - start
                     for start, end in queue.pending_ranges)
        assert queue.buffered_bytes == stored


def test_reentrant_offer_delivers_each_range_once():
    """A delivery callback re-enters ``offer`` (the receive buffer does
    this when an in-order delivery unblocks the application): the drain
    must neither duplicate nor drop deliveries."""
    queue = ReassemblyQueue()
    delivered = []

    def on_in_order(start, end, meta):
        delivered.append((start, end, meta))
        if meta == "trigger":
            queue.offer(300, 400, "nested", on_in_order=on_in_order)

    queue.offer(100, 200, "buffered", on_in_order=on_in_order)
    queue.offer(200, 300, "trigger", on_in_order=on_in_order)
    queue.offer(0, 100, "head", on_in_order=on_in_order)
    assert delivered == [(0, 100, "head"), (100, 200, "buffered"),
                         (200, 300, "trigger"), (300, 400, "nested")]
    assert queue.rcv_nxt == 400
    assert queue.buffered_bytes == 0
