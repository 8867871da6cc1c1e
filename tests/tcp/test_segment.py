"""Tests for segment value objects."""

from repro.core.options import DssMapping, MptcpOptions
from repro.tcp.segment import Flags, Segment


def test_payload_consumes_sequence_space():
    segment = Segment(src_port=1, dst_port=2, seq=100, payload_len=500)
    assert segment.seq_space == 500
    assert segment.end_seq == 600


def test_syn_and_fin_consume_one_each():
    syn = Segment(src_port=1, dst_port=2, seq=0, flags=Flags(syn=True))
    assert syn.seq_space == 1
    assert syn.end_seq == 1
    fin = Segment(src_port=1, dst_port=2, seq=10, flags=Flags(fin=True))
    assert fin.seq_space == 1
    data_fin = Segment(src_port=1, dst_port=2, seq=10, payload_len=100,
                       flags=Flags(fin=True, ack=True))
    assert data_fin.seq_space == 101


def test_pure_ack_detection():
    pure = Segment(src_port=1, dst_port=2, flags=Flags(ack=True))
    assert pure.is_pure_ack
    with_data = Segment(src_port=1, dst_port=2, flags=Flags(ack=True),
                        payload_len=1)
    assert not with_data.is_pure_ack
    synack = Segment(src_port=1, dst_port=2,
                     flags=Flags(syn=True, ack=True))
    assert not synack.is_pure_ack
    fin = Segment(src_port=1, dst_port=2, flags=Flags(fin=True, ack=True))
    assert not fin.is_pure_ack


def test_flags_render_readably():
    assert str(Flags(syn=True, ack=True)) == "syn|ack"
    assert str(Flags()) == "none"


def test_segments_are_immutable_values():
    """Segment and its option blocks are immutable values: no field can
    be assigned, equal contents compare equal and hash alike, and a
    changed copy is a different value."""
    mapping = DssMapping(dsn=10, ssn=1, length=100)
    options = MptcpOptions(dss=mapping, data_ack=5)
    cases = [
        (Segment(src_port=1, dst_port=2, options=options), "seq",
         lambda: Segment(src_port=1, dst_port=2, options=MptcpOptions(
             dss=DssMapping(dsn=10, ssn=1, length=100), data_ack=5))),
        (options, "data_ack",
         lambda: MptcpOptions(dss=DssMapping(10, 1, 100), data_ack=5)),
        (mapping, "dsn", lambda: DssMapping(dsn=10, ssn=1, length=100)),
    ]
    for value, field, rebuild in cases:
        try:
            setattr(value, field, 5)
            raised = False
        except AttributeError:
            raised = True
        assert raised, type(value).__name__
        twin = rebuild()
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert len({value, twin}) == 1
        changed = value._replace(**{field: 6})
        assert changed != value
        assert getattr(value, field) != 6
