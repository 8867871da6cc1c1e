"""The sender's SACK scoreboard (RFC 6675 terminology).

The TCP endpoint tracks every transmitted-but-unacknowledged range in
a scoreboard: an ordered dict of slotted :class:`SentSegment` records,
keyed by sequence number.  Sequence numbers only ever append at the
tail and retire at the head, so the SACK, loss and cumulative-ACK
walks stop at the first record past the range they cover.

The mutating operations return exactly the aggregates the endpoint
needs to maintain its ``pipe`` / ``_lost_count`` accounting, so the
congestion-control math stays in :mod:`repro.tcp.endpoint`.
"""

from __future__ import annotations

import collections
from typing import Iterator, Optional, Tuple

# Scoreboard states, shared with repro.tcp.endpoint.
FLIGHT = 0   # transmitted, assumed in the network
SACKED = 1   # selectively acknowledged
LOST = 2     # deemed lost (retransmitted or RTO-marked)


class SentSegment:
    """Sender-side bookkeeping for one transmitted range."""

    __slots__ = ("seq", "seq_space", "payload_len", "fin", "dsn",
                 "sent_at", "retransmits", "state", "rexmit_epoch")

    def __init__(self, seq: int, seq_space: int, payload_len: int,
                 fin: bool, dsn: Optional[int], sent_at: float) -> None:
        self.seq = seq
        self.seq_space = seq_space
        self.payload_len = payload_len
        self.fin = fin
        self.dsn = dsn
        self.sent_at = sent_at
        self.retransmits = 0
        self.state = FLIGHT
        self.rexmit_epoch = -1  # recovery epoch this was retransmitted in

    @property
    def end_seq(self) -> int:
        return self.seq + self.seq_space

    def mark_retransmitted(self, epoch: int) -> None:
        self.state = FLIGHT
        self.retransmits += 1
        self.rexmit_epoch = epoch


class SendScoreboard:
    """Ordered record of the ranges in flight: the endpoint's ``_sent``."""

    __slots__ = ("_sent",)

    def __init__(self) -> None:
        self._sent: "collections.OrderedDict[int, SentSegment]" = \
            collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._sent)

    def __bool__(self) -> bool:
        return bool(self._sent)

    def values(self) -> Iterator[SentSegment]:
        return self._sent.values()

    def append(self, seq: int, seq_space: int, payload_len: int,
               fin: bool, dsn: Optional[int],
               sent_at: float) -> SentSegment:
        sent = SentSegment(seq, seq_space, payload_len, fin, dsn,
                           sent_at)
        self._sent[seq] = sent
        return sent

    def sack(self, start: int, end: int) -> int:
        """Mark in-flight ranges fully inside ``[start, end)`` SACKed.

        Returns the byte count newly removed from the pipe.
        """
        freed = 0
        for sent in self._sent.values():
            if sent.seq >= end:
                break
            if (sent.state == FLIGHT and sent.seq >= start
                    and sent.seq + sent.seq_space <= end):
                sent.state = SACKED
                freed += sent.seq_space
        return freed

    def mark_losses(self, threshold: int, epoch: int) -> Tuple[int, int]:
        """RFC 6675 loss inference below the SACK ``threshold``.

        Flags still-in-flight ranges ending at or below ``threshold``
        (unless already retransmitted in ``epoch``) as LOST; returns
        ``(count, freed_bytes)`` for the pipe bookkeeping.
        """
        count = freed = 0
        for sent in self._sent.values():
            if sent.seq + sent.seq_space > threshold:
                break
            if sent.state == FLIGHT and sent.rexmit_epoch != epoch:
                sent.state = LOST
                count += 1
                freed += sent.seq_space
        return count, freed

    def advance_una(self, ack: int
                    ) -> Tuple[int, Optional[float], int, int]:
        """Retire every range fully covered by the cumulative ``ack``.

        Returns ``(newly_acked_bytes, rtt_sent_at, flight_freed_bytes,
        lost_retired_count)`` where ``rtt_sent_at`` is the transmit
        timestamp of the *last* retired never-retransmitted range (the
        Karn-compliant RTT sample), or ``None``.
        """
        newly_acked = flight_freed = lost_retired = retired = 0
        rtt_sent_at: Optional[float] = None
        ranges = self._sent
        for sent in ranges.values():
            seq_space = sent.seq_space
            if sent.seq + seq_space > ack:
                break
            retired += 1
            state = sent.state
            if state == FLIGHT:
                flight_freed += seq_space
            elif state == LOST:
                lost_retired += 1
            newly_acked += seq_space
            if sent.retransmits == 0:
                rtt_sent_at = sent.sent_at
        # The covered ranges are a prefix: retire them from the head.
        for _ in range(retired):
            ranges.popitem(last=False)
        return newly_acked, rtt_sent_at, flight_freed, lost_retired

    def front_unsacked(self) -> Optional[SentSegment]:
        """First range not selectively acknowledged (retransmit front)."""
        for sent in self._sent.values():
            if sent.state != SACKED:
                return sent
        return None

    def find_lost(self, epoch: int) -> Optional[SentSegment]:
        """Next LOST range not yet resent in recovery ``epoch``."""
        for sent in self._sent.values():
            if sent.state == LOST and sent.rexmit_epoch != epoch:
                return sent
        return None

    def mark_all_lost(self) -> Tuple[int, int]:
        """RTO: every outstanding range becomes LOST.

        Returns ``(flight_freed_bytes, total_count)``.
        """
        flight_freed = 0
        for sent in self._sent.values():
            if sent.state == FLIGHT:
                flight_freed += sent.seq_space
            sent.state = LOST
        return flight_freed, len(self._sent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SendScoreboard live={len(self)}>"
