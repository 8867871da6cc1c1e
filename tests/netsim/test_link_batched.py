"""Link burst batching: per-link equivalence tests.

The batched pipeline (``Link._serve_burst`` + ``Simulator.post_batch``)
is equivalent per link to the per-packet pipeline a link falls back to
after :meth:`Link.disable_batching`: identical delivery streams (time,
subflow sequence number, DSN), identical RNG consumption, identical
stats.  Cross-link ties resolve by burst build order, so two links
delivering at the same instant may fire in either order; the
determinism guard pins that order on a real cell.  A hypothesis
property drives both pipelines through random bursts, loss, jitter,
ARQ and rate modulation.

Also here: the regression test for the hoisted no-modulation check
(satellite): unmodulated links must never enter the AR(1) stepping
code on the per-packet path; and a link taken down mid-burst, which
must rewind exactly the burst's unserved tail.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import DssMapping, MptcpOptions
from repro.netsim.link import ArqConfig, Link, LinkConfig, RateModulation
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment


# ----------------------------------------------------------------------
# Hoisted no-modulation check
# ----------------------------------------------------------------------

def _counting_link(modulation):
    sim = Simulator()
    config = LinkConfig(rate_bps=8e6, prop_delay=0.001,
                        buffer_bytes=100_000, modulation=modulation)
    link = Link(sim, config, random.Random(3))
    calls = {"n": 0}
    original = link._step_modulation

    def counting(now=None):
        calls["n"] += 1
        return original(now)

    link._step_modulation = counting
    return sim, link, calls


def _pump(sim, link, packets=20):
    for index in range(packets):
        segment = Segment(src_port=index, dst_port=2, payload_len=1000)
        sim.schedule(0.0005 * index, link.send, Packet("a", "b", segment))
    sim.run()


def test_unmodulated_link_never_steps_modulation():
    """Satellite: the no-modulation check is hoisted out of the
    per-packet path -- ``_step_modulation`` is not even called."""
    sim, link, calls = _counting_link(modulation=None)
    _pump(sim, link)
    assert link.stats.packets_delivered == 20
    assert calls["n"] == 0


def test_sigma_zero_modulation_counts_as_unmodulated():
    sim, link, calls = _counting_link(
        modulation=RateModulation(sigma=0.0, interval=0.1))
    _pump(sim, link)
    assert link.stats.packets_delivered == 20
    assert calls["n"] == 0


def test_modulated_link_still_steps_per_service_start():
    sim, link, calls = _counting_link(
        modulation=RateModulation(sigma=0.05, interval=0.01))
    _pump(sim, link)
    assert link.stats.packets_delivered == 20
    assert calls["n"] > 0


# ----------------------------------------------------------------------
# Batched vs per-packet equivalence (hypothesis property)
# ----------------------------------------------------------------------

def _drive(bursts, loss_rate, jitter, use_arq, modulated, seed,
           per_packet):
    """Run one burst schedule through a link; return the delivery
    stream as exact (time, seq, dsn) triples plus RNG state and stats.

    ``per_packet=True`` pins the link to the per-packet pipeline with
    :meth:`Link.disable_batching` before any packet is offered.
    """
    sim = Simulator()
    config = LinkConfig(
        rate_bps=4e6, prop_delay=0.005, buffer_bytes=200_000,
        loss_rate=loss_rate, jitter_mean=jitter,
        arq=ArqConfig(error_rate=0.1, recovery_min=0.002,
                      recovery_max=0.01,
                      residual_loss=0.2) if use_arq else None,
        modulation=RateModulation(sigma=0.05, interval=0.01)
        if modulated else None)
    link = Link(sim, config, random.Random(seed))
    if per_packet:
        link.disable_batching()

    stream = []

    def deliver(packet):
        segment = packet.segment
        stream.append((sim.now, segment.seq, segment.options.dss.dsn))

    link.deliver = deliver
    at = 0.0
    for index, (gap, size) in enumerate(bursts):
        at += gap * 0.0004
        options = MptcpOptions(dss=DssMapping(
            dsn=100_000 + 2 * index, ssn=index, length=size))
        segment = Segment(src_port=1, dst_port=2, seq=index,
                          payload_len=size, options=options)
        sim.schedule(at, link.send, Packet("a", "b", segment))
    sim.run()
    return stream, link.rng.random(), link.stats, sim.batches_posted


@settings(max_examples=40, deadline=None)
@given(
    bursts=st.lists(st.tuples(st.integers(0, 40),
                              st.integers(40, 1500)),
                    min_size=1, max_size=60),
    loss_rate=st.sampled_from([0.0, 0.05, 0.3]),
    jitter=st.sampled_from([0.0, 0.001]),
    use_arq=st.booleans(),
    modulated=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_pipeline_matches_scalar(bursts, loss_rate, jitter,
                                         use_arq, modulated, seed):
    """Batched and per-packet runs produce bit-equal (time, seq, dsn)
    delivery streams, RNG states and stats across random bursts,
    losses, jitter, ARQ and modulation."""
    batched = _drive(bursts, loss_rate, jitter, use_arq, modulated,
                     seed, per_packet=False)
    reference = _drive(bursts, loss_rate, jitter, use_arq, modulated,
                       seed, per_packet=True)
    assert batched[:3] == reference[:3]
    assert reference[3] == 0


def test_clean_link_deep_burst_matches_scalar():
    """A 40-deep burst on an RNG-free link (no loss, jitter, ARQ or
    modulation) goes through the sequential replication loop and must
    be float-exact too."""
    bursts = [(0, 1448)] * 40  # one instant: a 40-deep burst
    batched = _drive(bursts, 0.0, 0.0, False, False, 11,
                     per_packet=False)
    reference = _drive(bursts, 0.0, 0.0, False, False, 11,
                       per_packet=True)
    assert batched[:3] == reference[:3]
    assert batched[3] > 0 and reference[3] == 0


# ----------------------------------------------------------------------
# Link down in the middle of a batched burst
# ----------------------------------------------------------------------

_DOWN_SIZES = [1000 + 7 * index for index in range(30)]


def _burst_with_outage(down_at):
    """Offer 30 packets at t=0 to a lossy ARQ link (the first is served
    alone, the other 29 as one burst); optionally take the link down
    at ``down_at``.  Returns the delivered sequence numbers, the stats
    and whether a burst was posted."""
    sim = Simulator()
    config = LinkConfig(
        rate_bps=4e6, prop_delay=0.005, buffer_bytes=10 ** 6,
        loss_rate=0.2,
        arq=ArqConfig(error_rate=0.3, recovery_min=0.002,
                      recovery_max=0.01, residual_loss=0.3))
    link = Link(sim, config, random.Random(5))
    delivered = []
    link.deliver = lambda packet: delivered.append(packet.segment.seq)
    for index, size in enumerate(_DOWN_SIZES):
        link.send(Packet("a", "b", Segment(src_port=1, dst_port=2,
                                           seq=index, payload_len=size)))
    if down_at is not None:
        sim.schedule(down_at, link.set_down, True)
    sim.run()
    return delivered, link.stats, sim.batches_posted


def test_link_down_mid_burst_revokes_only_the_unserved_tail():
    """A packet whose service ended before the outage keeps the outcome
    its burst drew for it (delivered, lost or ARQ-recovered) and is
    delivered even if it lands after the outage; every packet still in
    service or queued counts as a down drop and is never delivered."""
    full, _, _ = _burst_with_outage(None)
    # Service completions, as the link computes them: the first packet
    # alone, then the burst back to back from its completion.
    completions = []
    t = 0.0
    for size in _DOWN_SIZES:
        t = t + (size + 40) * 8.0 / 4e6
        completions.append(t)
    cut = 12  # packets 0..cut finish service before the outage
    down_at = (completions[cut] + completions[cut + 1]) / 2
    served = set(range(cut + 1))
    expected = [seq for seq in full if seq in served]
    # Losses among the served packets shift delivery entries away from
    # packet indices, which the revocation must account for.
    assert 0 < len(expected) < len(served)

    delivered, stats, batches = _burst_with_outage(down_at)
    assert batches == 1
    assert delivered == expected
    assert stats.packets_delivered == len(expected)
    assert stats.bytes_delivered == sum(
        _DOWN_SIZES[seq] + 40 for seq in expected)
    assert stats.drops_down == len(_DOWN_SIZES) - len(served)
    assert (stats.drops_loss + stats.drops_arq_residual
            == len(served) - len(expected))
