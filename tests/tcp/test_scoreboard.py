"""Tests for the sender's SACK scoreboard.

The endpoint never rescans the scoreboard: it keeps its ``pipe`` and
lost-range count up to date from the aggregates each mutating call
returns.  The randomized test below feeds the endpoint's full
operation vocabulary and checks, after every call, that those running
aggregates still equal a fresh scan of the surviving segments.
"""

import random

import pytest

from repro.tcp.scoreboard import FLIGHT, LOST, SACKED, SendScoreboard


def scan(board):
    """``(pipe_bytes, lost_count)`` recomputed from scratch."""
    pipe = sum(sent.seq_space for sent in board.values()
               if sent.state == FLIGHT)
    lost = sum(1 for sent in board.values() if sent.state == LOST)
    return pipe, lost


def test_rtt_sample_comes_from_last_fresh_segment():
    """Karn: the RTT sample is the transmit time of the *last* retired
    never-retransmitted range; retransmitted ranges are skipped."""
    board = SendScoreboard()
    board.append(1, 100, 100, fin=False, dsn=None, sent_at=1.0)
    second = board.append(101, 100, 100, fin=False, dsn=None,
                          sent_at=2.0)
    board.append(201, 100, 100, fin=False, dsn=None, sent_at=3.0)
    second.mark_retransmitted(epoch=0)
    _, rtt_sent_at, _, _ = board.advance_una(201)
    assert rtt_sent_at == 1.0
    _, rtt_sent_at, _, _ = board.advance_una(301)
    assert rtt_sent_at == 3.0
    assert board.advance_una(301) == (0, None, 0, 0)


def test_len_tracks_live_segments():
    board = SendScoreboard()
    assert len(board) == 0 and not board
    board.append(1, 100, 100, fin=False, dsn=None, sent_at=0.0)
    board.append(101, 100, 100, fin=False, dsn=None, sent_at=0.0)
    assert len(board) == 2 and board
    board.advance_una(101)
    assert len(board) == 1
    assert [sent.seq for sent in board.values()] == [101]
    board.advance_una(201)
    assert len(board) == 0 and not board


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2013, 31337])
def test_randomized_operations_keep_aggregates(seed):
    rng = random.Random(seed)
    board = SendScoreboard()
    pipe = lost = 0
    next_seq = una = 1
    epoch = 0
    now = 0.0
    for _ in range(400):
        now += rng.random() * 0.01
        roll = rng.random()
        if roll < 0.45 or not board:
            space = rng.choice([1448, 1448, 512, 1])
            fin = space == 1 and rng.random() < 0.5
            dsn = next_seq + 10_000 if rng.random() < 0.8 else None
            sent = board.append(next_seq, space, 0 if fin else space,
                                fin=fin, dsn=dsn, sent_at=now)
            assert (sent.seq, sent.end_seq, sent.state) == \
                (next_seq, next_seq + space, FLIGHT)
            pipe += space
            next_seq += space
        elif roll < 0.62:
            start = rng.randrange(una, next_seq + 1)
            end = rng.randrange(start, next_seq + 1449)
            pipe -= board.sack(start, end)
        elif roll < 0.72:
            threshold = rng.randrange(una, next_seq + 1449)
            count, freed = board.mark_losses(threshold, epoch)
            lost += count
            pipe -= freed
        elif roll < 0.87:
            ack = rng.randrange(una, next_seq + 1)
            before = sum(sent.seq_space for sent in board.values())
            newly_acked, _, freed, lost_retired = board.advance_una(ack)
            after = sum(sent.seq_space for sent in board.values())
            assert newly_acked == before - after
            assert all(sent.end_seq > ack for sent in board.values())
            pipe -= freed
            lost -= lost_retired
            una = max(una, ack)
        elif roll < 0.93:
            front = board.front_unsacked()
            if front is not None:
                assert front.state != SACKED
                assert all(sent.state == SACKED for sent in board.values()
                           if sent.seq < front.seq)
                if front.state == LOST:
                    front.mark_retransmitted(epoch)
                    lost -= 1
                    pipe += front.seq_space
        elif roll < 0.97:
            found = board.find_lost(epoch)
            if found is not None:
                assert found.state == LOST
                found.mark_retransmitted(epoch)
                lost -= 1
                pipe += found.seq_space
            else:
                assert not any(sent.state == LOST
                               and sent.rexmit_epoch != epoch
                               for sent in board.values())
        else:
            freed, total = board.mark_all_lost()
            assert total == len(board)
            pipe -= freed
            lost = total
            epoch += 1
        assert (pipe, lost) == scan(board)
