"""RFC 6298 retransmission-timeout estimation.

Standard SRTT/RTTVAR smoothing with the Linux lower clamp of 200 ms
(``TCP_RTO_MIN``), which matters on the simulated WiFi path whose RTTs
sit far below the clamp.  Karn's algorithm (never sample a
retransmitted segment) is enforced by the caller, which only feeds
samples for segments sent exactly once.
"""

from __future__ import annotations

from typing import Optional


class RtoEstimator:
    """Smoothed RTT state and the derived retransmission timeout."""

    #: RFC 6298 constants.
    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0

    def __init__(self, initial_rto: float = 1.0, min_rto: float = 0.2,
                 max_rto: float = 60.0) -> None:
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto = initial_rto
        self._backoff = 1
        self.samples = 0
        #: Current timeout, including any exponential backoff.  A plain
        #: attribute, refreshed by :meth:`sample` and :meth:`backoff`
        #: (the only writers of its inputs): the endpoint reads it on
        #: every ACK that restarts the timer.
        self.rto = min(self._rto * self._backoff, self.max_rto)

    @property
    def backoff_count(self) -> int:
        """Current exponential-backoff multiplier (1 = no backoff);
        surfaced in ``rto.fire`` trace events."""
        return self._backoff

    def sample(self, rtt: float) -> None:
        """Incorporate one RTT measurement (seconds)."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample {rtt!r}")
        self.samples += 1
        srtt = self.srtt
        if srtt is None:
            srtt = rtt
            rttvar = rtt / 2.0
        else:
            rttvar = ((1 - self.BETA) * self.rttvar
                      + self.BETA * abs(srtt - rtt))
            srtt = (1 - self.ALPHA) * srtt + self.ALPHA * rtt
        self.srtt = srtt
        self.rttvar = rttvar
        self._rto = rto = max(self.min_rto,
                              min(srtt + self.K * rttvar, self.max_rto))
        self._backoff = 1
        self.rto = min(rto, self.max_rto)

    def backoff(self) -> None:
        """Double the timeout after an expiry (capped at ``max_rto``)."""
        if self._rto * self._backoff < self.max_rto:
            self._backoff *= 2
        self.rto = min(self._rto * self._backoff, self.max_rto)

    def smoothed_rtt(self, default: float = 0.5) -> float:
        """SRTT, or ``default`` before the first sample."""
        return self.srtt if self.srtt is not None else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srtt = f"{self.srtt * 1000:.1f}ms" if self.srtt is not None else "?"
        return f"<RtoEstimator srtt={srtt} rto={self.rto:.3f}s>"
