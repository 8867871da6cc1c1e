"""The three MPTCP congestion controllers the paper compares.

Section 2.2.2, verbatim in window units (``w_i`` = window of subflow
``i``, ``rtt_i`` its round-trip time, ``w`` the total window):

* **reno** (uncoupled New Reno, the baseline): per ACK on flow *i*,
  ``w_i += 1 / w_i``; per loss, ``w_i /= 2``.
* **coupled** (LIA, RFC 6356, the Linux MPTCP default): per ACK,
  ``w_i += min(a / w, 1 / w_i)`` where
  ``a = w * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2``;
  per loss, unmodified TCP halving.
* **olia** (Khalili et al., CoNEXT'12): per ACK,
  ``w_i += (w_i / rtt_i^2) / (sum_p w_p / rtt_p)^2 + alpha_i / w_i``
  where ``alpha_i`` shifts window between the *best* paths (largest
  inter-loss transfer ``l_i^2 / rtt_i``) and the largest-window paths;
  per loss, unmodified TCP halving.

All three use standard slow start below ``ssthresh`` and identical
halving on loss -- the endpoint performs the decrease; controllers only
own the congestion-avoidance *increase* (plus OLIA's inter-loss-bytes
bookkeeping).  Windows are maintained in bytes by the endpoints; the
formulas are evaluated in packet (MSS) units as in the kernel, each
window as ``max(cwnd / mss, 1.0)`` (written out inline: the controllers
run on every congestion-avoidance ACK).
"""

from __future__ import annotations

from typing import Dict, List, Protocol


class WindowedFlow(Protocol):
    """What a controller needs to see of a TCP endpoint."""

    cwnd: float          # congestion window, bytes
    ssthresh: float      # slow-start threshold, bytes
    mss: int             # maximum segment size, bytes

    def smoothed_rtt(self) -> float:  # pragma: no cover - protocol
        """Current SRTT estimate in seconds."""
        ...


class CongestionController:
    """Base class: slow start plus per-flow registration.

    Subclasses implement :meth:`_increase`, the congestion-avoidance
    additive increase applied per ACK.
    """

    name = "base"

    def __init__(self) -> None:
        self.flows: List[WindowedFlow] = []

    # -- membership ----------------------------------------------------

    def attach(self, flow: WindowedFlow) -> None:
        """Register a flow (subflow establishment)."""
        if flow not in self.flows:
            self.flows.append(flow)

    def detach(self, flow: WindowedFlow) -> None:
        """Unregister a flow (subflow close)."""
        if flow in self.flows:
            self.flows.remove(flow)

    # -- events from the endpoint ---------------------------------------

    def on_ack(self, flow: WindowedFlow, acked_bytes: int) -> None:
        """Grow the window for ``acked_bytes`` newly acknowledged."""
        if flow.cwnd < flow.ssthresh:
            # Slow start, byte-counted (at most one MSS per ACK).
            flow.cwnd += min(acked_bytes, flow.mss)
        else:
            self._increase(flow, acked_bytes)

    def on_loss(self, flow: WindowedFlow) -> None:
        """Bookkeeping hook; the *decrease* itself is done by the flow."""

    def on_sent(self, flow: WindowedFlow, nbytes: int) -> None:
        """Bookkeeping hook for transmitted bytes (OLIA uses this)."""

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} flows={len(self.flows)}>"


class RenoController(CongestionController):
    """Uncoupled New Reno on every subflow (the paper's baseline).

    Also serves as the controller for plain single-path TCP.
    """

    name = "reno"

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        # w += 1/w per ACK, byte-counted: MSS^2/w per MSS acked.
        flow.cwnd += flow.mss * flow.mss * (acked_bytes / flow.mss) / flow.cwnd


class CoupledController(CongestionController):
    """The LIA 'coupled' controller (RFC 6356), Linux MPTCP's default."""

    name = "coupled"

    def _alpha(self) -> float:
        """RFC 6356 aggressiveness factor, in packet units."""
        total = 0.0
        best = 0.0
        denominator = 0.0
        for flow in self.flows:
            window = max(flow.cwnd / flow.mss, 1.0)
            rtt = max(flow.smoothed_rtt(), 1e-4)
            total += window
            best = max(best, window / (rtt * rtt))
            denominator += window / rtt
        if denominator <= 0.0:
            return 1.0
        return total * best / (denominator * denominator)

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        window = max(flow.cwnd / flow.mss, 1.0)
        total = sum(max(peer.cwnd / peer.mss, 1.0) for peer in self.flows)
        if total <= 0.0:
            total = window
        alpha = self._alpha()
        acked_packets = acked_bytes / flow.mss
        increase_packets = min(alpha / total, 1.0 / window) * acked_packets
        flow.cwnd += increase_packets * flow.mss


class _OliaPathState:
    """Per-flow inter-loss byte counters for OLIA's alpha computation."""

    __slots__ = ("bytes_current_interval", "bytes_previous_interval")

    def __init__(self) -> None:
        self.bytes_current_interval = 0.0
        self.bytes_previous_interval = 0.0

    @property
    def smoothed(self) -> float:
        """l-hat: max of the current and previous inter-loss intervals."""
        return max(self.bytes_current_interval,
                   self.bytes_previous_interval)


class OliaController(CongestionController):
    """The opportunistic linked-increases algorithm (OLIA)."""

    name = "olia"

    def __init__(self) -> None:
        super().__init__()
        self._paths: Dict[int, _OliaPathState] = {}

    def attach(self, flow: WindowedFlow) -> None:
        super().attach(flow)
        self._paths.setdefault(id(flow), _OliaPathState())

    def detach(self, flow: WindowedFlow) -> None:
        super().detach(flow)
        self._paths.pop(id(flow), None)

    def on_sent(self, flow: WindowedFlow, nbytes: int) -> None:
        state = self._paths.get(id(flow))
        if state is not None:
            state.bytes_current_interval += nbytes

    def on_loss(self, flow: WindowedFlow) -> None:
        state = self._paths.get(id(flow))
        if state is not None:
            state.bytes_previous_interval = state.bytes_current_interval
            state.bytes_current_interval = 0.0

    def _alphas(self) -> Dict[int, float]:
        """Compute alpha_i for every registered flow."""
        flows = self.flows
        flow_count = len(flows)
        alphas = {id(flow): 0.0 for flow in flows}
        if flow_count < 2:
            return alphas
        # Best paths: largest l-hat^2 / rtt (proxy for available quality).
        quality: Dict[int, float] = {}
        paths = self._paths
        for flow in flows:
            state = paths[id(flow)]
            rtt = max(flow.smoothed_rtt(), 1e-4)
            quality[id(flow)] = (state.smoothed ** 2) / rtt
        best_quality = max(quality.values())
        best = {key for key, value in quality.items()
                if value >= best_quality * (1 - 1e-9)}
        # Largest-window paths.
        windows = [max(flow.cwnd / flow.mss, 1.0) for flow in flows]
        max_window = max(windows)
        largest = {id(flow) for flow, window in zip(flows, windows)
                   if window >= max_window * (1 - 1e-9)}
        collected = best - largest
        if not collected:
            return alphas
        for key in collected:
            alphas[key] = 1.0 / (flow_count * len(collected))
        for key in largest:
            alphas[key] = -1.0 / (flow_count * len(largest))
        return alphas

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        window = max(flow.cwnd / flow.mss, 1.0)
        rtt = max(flow.smoothed_rtt(), 1e-4)
        denominator = sum(
            max(peer.cwnd / peer.mss, 1.0) / max(peer.smoothed_rtt(), 1e-4)
            for peer in self.flows)
        if denominator <= 0.0:
            denominator = window / rtt
        alpha = self._alphas().get(id(flow), 0.0)
        acked_packets = acked_bytes / flow.mss
        increase_packets = ((window / (rtt * rtt)) / (denominator ** 2)
                            + alpha / window) * acked_packets
        # OLIA's negative alpha term may shrink the increase below zero;
        # the kernel clamps so a path never decreases without a loss.
        flow.cwnd += max(increase_packets, 0.0) * flow.mss


_CONTROLLERS = {
    "reno": RenoController,
    "coupled": CoupledController,
    "olia": OliaController,
}


def make_controller(name: str) -> CongestionController:
    """Instantiate a controller by its paper name: reno/coupled/olia."""
    try:
        return _CONTROLLERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown congestion controller {name!r}; "
            f"expected one of {sorted(_CONTROLLERS)}") from None
