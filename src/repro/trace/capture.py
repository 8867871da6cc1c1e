"""tcpdump, simulated: per-host packet capture, at three fidelities.

A :class:`PacketCapture` registers a hook on a host and observes every
packet it sends or receives.  What it keeps depends on its
:class:`CaptureLevel`:

* ``FULL`` -- one flat :class:`PacketRecord` per packet, including the
  MPTCP DSS numbers.  Needed by :mod:`repro.trace.mptcptrace` and
  :mod:`repro.trace.dump`.
* ``HEADERS`` -- one :class:`PacketRecord` per packet, but without
  inspecting TCP options (``dsn``/``data_ack``/``mp_*`` read as
  absent).  Supports every tcptrace-style analysis and metric roll-up,
  just not DSS-level tooling.
* ``METRICS_ONLY`` -- no records at all.  The hook streams each packet
  through per-flow analysis state (an incremental replica of
  :func:`repro.trace.analyzer.analyze_flow`) plus a small host summary,
  so a campaign run materializes zero per-packet objects.  The streamed
  :meth:`flow_analyses` and :attr:`summary` are, by construction,
  identical to what batch analysis of a full capture would produce --
  the determinism guard test asserts CSV byte-equality.

Records are plain slotted objects (a capture of a 32 MB transfer holds
tens of thousands), and carry everything the analyzer needs: header
fields, SACK presence, and the MPTCP DSS numbers.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.netsim.host import Host
from repro.netsim.packet import Packet

#: Canonical flow key: ((addr, port), (addr, port)) with the two
#: endpoints sorted, so both directions map to the same key.
FlowKey = Tuple[Tuple[str, int], Tuple[str, int]]


class CaptureLevel(enum.Enum):
    """How much a :class:`PacketCapture` retains per packet."""

    FULL = "full"
    HEADERS = "headers"
    METRICS_ONLY = "metrics-only"

    @classmethod
    def coerce(cls, value: Union["CaptureLevel", str]) -> "CaptureLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(level.value for level in cls)
            raise ValueError(
                f"unknown capture level {value!r} (choose from {choices})"
            ) from None


class PacketRecord:
    """One captured packet, flattened for analysis."""

    __slots__ = ("time", "direction", "src", "dst", "src_port", "dst_port",
                 "seq", "ack", "payload_len", "syn", "ack_flag", "fin",
                 "window", "dsn", "dss_len", "data_ack", "packet_id",
                 "mp_capable", "mp_join")

    def __init__(self, time: float, direction: str, packet: Packet,
                 with_options: bool = True) -> None:
        segment = packet.segment
        self.time = time
        self.direction = direction  # "send" or "recv"
        self.src = packet.src
        self.dst = packet.dst
        self.src_port = segment.src_port
        self.dst_port = segment.dst_port
        self.seq = segment.seq
        self.ack = segment.ack
        self.payload_len = segment.payload_len
        self.syn = segment.flags.syn
        self.ack_flag = segment.flags.ack
        self.fin = segment.flags.fin
        self.window = segment.window
        self.packet_id = packet.packet_id
        options = segment.options if with_options else None
        if options is not None and options.dss is not None:
            self.dsn: Optional[int] = options.dss.dsn
            self.dss_len: int = options.dss.length
        else:
            self.dsn = None
            self.dss_len = 0
        self.data_ack = options.data_ack if options is not None else None
        self.mp_capable = options.mp_capable if options is not None \
            else False
        self.mp_join = options.mp_join if options is not None else False

    @property
    def end_seq(self) -> int:
        return self.seq + self.payload_len + int(self.syn) + int(self.fin)

    @property
    def flow_key(self) -> FlowKey:
        ends = sorted([(self.src, self.src_port), (self.dst, self.dst_port)])
        return (ends[0], ends[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PacketRecord {self.direction} t={self.time:.6f} "
                f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port} "
                f"seq={self.seq} len={self.payload_len}>")


class CaptureSummary:
    """Host-level aggregates a metrics-only capture streams.

    Mirrors what :func:`repro.trace.metrics.download_time_from_capture`
    and :func:`~repro.trace.metrics.bytes_by_client_path` extract from
    a full client-side capture.
    """

    __slots__ = ("first_syn_sent", "last_data_recv", "recv_bytes_by_dst")

    def __init__(self) -> None:
        self.first_syn_sent: Optional[float] = None
        self.last_data_recv: Optional[float] = None
        #: Data bytes received per destination (local) address.
        self.recv_bytes_by_dst: Dict[str, int] = {}


class _FlowStream:
    """Incremental, per-flow replica of ``analyze_flow``.

    Consumes packets one at a time and reproduces, field for field, the
    :class:`~repro.trace.analyzer.FlowAnalysis` that the batch analyzer
    would compute from this flow's full record list.  The flow's
    *local* (sending) endpoint is fixed by the first outgoing packet,
    which on a sender-side capture is always the analyzed host.
    """

    __slots__ = ("local", "remote", "data_packets_sent",
                 "retransmitted_packets", "payload_bytes",
                 "first_packet_time", "last_packet_time", "syn_time",
                 "handshake_rtt", "started", "has_data",
                 "sent_starts", "rexmitted_seqs", "pending",
                 "samples_by_seq")

    def __init__(self) -> None:
        self.local: Tuple[str, int] = ("", 0)
        self.remote: Tuple[str, int] = ("", 0)
        self.data_packets_sent = 0
        self.retransmitted_packets = 0
        self.payload_bytes = 0
        self.first_packet_time: Optional[float] = None
        self.last_packet_time: Optional[float] = None
        self.syn_time: Optional[float] = None
        self.handshake_rtt: Optional[float] = None
        self.started = False       # first outgoing packet seen
        self.has_data = False      # any outgoing packet with payload
        self.sent_starts: Set[int] = set()
        self.rexmitted_seqs: Set[int] = set()
        #: Unmatched first transmissions awaiting a covering ACK:
        #: seq -> (end_seq, send_time).
        self.pending: Dict[int, Tuple[int, float]] = {}
        self.samples_by_seq: Dict[int, float] = {}

    def on_send(self, time: float, src: str, src_port: int,
                dst: str, dst_port: int, segment) -> None:
        if not self.started:
            self.started = True
            self.local = (src, src_port)
            self.remote = (dst, dst_port)
            self.first_packet_time = time
        self.last_packet_time = time
        flags = segment.flags
        if flags.syn and not flags.ack:
            self.syn_time = time
        payload_len = segment.payload_len
        if payload_len > 0:
            self.has_data = True
            self.data_packets_sent += 1
            seq = segment.seq
            if seq in self.sent_starts:
                self.retransmitted_packets += 1
                self.rexmitted_seqs.add(seq)
                self.pending.pop(seq, None)
                self.samples_by_seq.pop(seq, None)
            else:
                self.sent_starts.add(seq)
                self.payload_bytes += payload_len
                end_seq = (seq + payload_len + int(flags.syn)
                           + int(flags.fin))
                self.pending[seq] = (end_seq, time)

    def on_recv(self, time: float, segment) -> None:
        if not self.started:
            return  # batch analyzer skips leading incoming packets too
        self.last_packet_time = time
        flags = segment.flags
        if (flags.syn and flags.ack and self.syn_time is not None
                and self.handshake_rtt is None):
            self.handshake_rtt = time - self.syn_time
        pending = self.pending
        if flags.ack and pending:
            ack = segment.ack
            # First transmissions enter `pending` at snd_nxt, so both
            # seq and end_seq are strictly increasing in insertion
            # order: the ACK-covered entries are a prefix, and the scan
            # can stop at the first uncovered one.  (The batch analyzer
            # scans the whole dict; same membership, same samples.)
            covered = []
            for seq, (end_seq, _) in pending.items():
                if ack < end_seq:
                    break
                covered.append(seq)
            samples = self.samples_by_seq
            for seq in covered:
                _, send_time = pending.pop(seq)
                samples[seq] = time - send_time

    def finalize(self):
        """A fresh :class:`FlowAnalysis` of the traffic streamed so far.

        Safe to call repeatedly (a new object each time, so downstream
        merging can mutate the result).
        """
        from repro.trace.analyzer import FlowAnalysis
        analysis = FlowAnalysis(local=self.local, remote=self.remote)
        analysis.data_packets_sent = self.data_packets_sent
        analysis.retransmitted_packets = self.retransmitted_packets
        analysis.payload_bytes = self.payload_bytes
        analysis.first_packet_time = self.first_packet_time
        analysis.last_packet_time = self.last_packet_time
        analysis.syn_time = self.syn_time
        analysis.handshake_rtt = self.handshake_rtt
        # Karn's rule, exactly as the batch analyzer applies it.
        rexmitted = self.rexmitted_seqs
        analysis.rtt_samples = [
            sample for seq, sample in sorted(self.samples_by_seq.items())
            if seq not in rexmitted]
        return analysis


class PacketCapture:
    """Attach to a host; observe every packet it sends or receives.

    ``level`` selects the fidelity (see :class:`CaptureLevel`; strings
    like ``"metrics-only"`` are accepted).  At ``METRICS_ONLY``,
    ``analyze_senders=False`` additionally skips per-flow sender-side
    analysis and keeps only the host summary -- the right setting for
    the client side of a measurement, where only download time and
    per-path byte shares are read.
    """

    def __init__(self, host: Host,
                 level: Union[CaptureLevel, str] = CaptureLevel.FULL,
                 analyze_senders: bool = True) -> None:
        self.host = host
        self.level = CaptureLevel.coerce(level)
        self.packets_seen = 0
        self.summary = CaptureSummary()
        self._records: Optional[List[PacketRecord]] = None
        self._flows: Dict[FlowKey, _FlowStream] = {}
        self._stream_by_tuple: Dict[Tuple[str, int, str, int],
                                    _FlowStream] = {}
        self._analyze_senders = analyze_senders
        if self.level is CaptureLevel.FULL:
            self._hook = self._hook_full
            self._records = []
        elif self.level is CaptureLevel.HEADERS:
            self._hook = self._hook_headers
            self._records = []
        else:
            self._hook = self._hook_metrics
        host.add_capture_hook(self._hook)

    # ------------------------------------------------------------------
    # Hooks (one per level; bound once at construction)
    # ------------------------------------------------------------------

    def _hook_full(self, direction: str, time: float,
                   packet: Packet) -> None:
        self.packets_seen += 1
        self._records.append(PacketRecord(time, direction, packet))

    def _hook_headers(self, direction: str, time: float,
                      packet: Packet) -> None:
        self.packets_seen += 1
        self._records.append(
            PacketRecord(time, direction, packet, with_options=False))

    def _hook_metrics(self, direction: str, time: float,
                      packet: Packet) -> None:
        self.packets_seen += 1
        segment = packet.segment
        summary = self.summary
        if direction == "recv":
            if segment.payload_len > 0:
                summary.last_data_recv = time
                shares = summary.recv_bytes_by_dst
                dst = packet.dst
                shares[dst] = shares.get(dst, 0) + segment.payload_len
        else:
            flags = segment.flags
            if (flags.syn and not flags.ack
                    and summary.first_syn_sent is None):
                summary.first_syn_sent = time
        if not self._analyze_senders:
            return
        oriented = (packet.src, segment.src_port,
                    packet.dst, segment.dst_port)
        stream = self._stream_by_tuple.get(oriented)
        if stream is None:
            stream = self._new_stream(oriented)
        if direction == "send":
            stream.on_send(time, packet.src, segment.src_port,
                           packet.dst, segment.dst_port, segment)
        else:
            stream.on_recv(time, segment)

    def _new_stream(self, oriented: Tuple[str, int, str, int]
                    ) -> _FlowStream:
        """The flow stream for a 4-tuple not seen before (either
        direction of one flow shares a stream)."""
        src, src_port, dst, dst_port = oriented
        ends = sorted([(src, src_port), (dst, dst_port)])
        key = (ends[0], ends[1])
        stream = self._flows.get(key)
        if stream is None:
            stream = _FlowStream()
            self._flows[key] = stream
        self._stream_by_tuple[oriented] = stream
        return stream

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def records(self) -> List[PacketRecord]:
        if self._records is None:
            raise RuntimeError(
                "capture level 'metrics-only' keeps no per-packet records; "
                "use level 'full' or 'headers' for record-based analysis")
        return self._records

    def flow_analyses(self, local_prefix: str = ""):
        """Streamed per-flow analyses (``METRICS_ONLY`` level only).

        Returns ``{flow_key: FlowAnalysis}`` for every flow in which the
        capturing host sent data, in first-packet order -- the same
        flows, order, and contents the batch analyzer yields from a
        full capture.  ``local_prefix`` filters on the local (sending)
        address, e.g. ``"server."``.
        """
        if self.level is not CaptureLevel.METRICS_ONLY:
            raise RuntimeError("flow_analyses() requires capture level "
                               "'metrics-only'; analyze records instead")
        analyses = {}
        for key, stream in self._flows.items():
            if not stream.has_data:
                continue  # batch analysis skips flows without sent data
            if local_prefix and not stream.local[0].startswith(local_prefix):
                continue
            analyses[key] = stream.finalize()
        return analyses

    def detach(self) -> None:
        """Stop capturing (leaves collected state intact)."""
        self.host.remove_capture_hook(self._hook)

    def __len__(self) -> int:
        return self.packets_seen

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    def sent(self) -> Iterator[PacketRecord]:
        return (record for record in self.records
                if record.direction == "send")

    def received(self) -> Iterator[PacketRecord]:
        return (record for record in self.records
                if record.direction == "recv")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PacketCapture {self.host.name} level={self.level.value} "
                f"n={self.packets_seen}>")
