import pytest

from uqsim.messages import (
    Message,
    MessageKind,
    dump_trace,
    format_trace_record,
    load_trace,
    parse_trace_record,
)


def test_message_rejects_nonpositive_size():
    with pytest.raises(ValueError, match="size_bytes"):
        Message(seq=1, sender=0, kind=MessageKind.STATUS, size_bytes=0)


def test_message_rejects_negative_sender():
    with pytest.raises(ValueError, match="sender"):
        Message(seq=1, sender=-1, kind=MessageKind.STATUS, size_bytes=8)


def test_trace_record_round_trip(make_msg):
    msg = make_msg(sender=3, kind="C", size=256)
    line = format_trace_record(1.25, msg)
    assert line == "1.250000000,3,1,C,256"
    t_send, parsed = parse_trace_record(line)
    assert t_send == 1.25
    assert (parsed.sender, parsed.seq, parsed.kind, parsed.size_bytes) == (3, 1, MessageKind.COMMAND, 256)


def test_parse_trace_record_rejects_garbage():
    with pytest.raises(ValueError, match="malformed trace record"):
        parse_trace_record("1.0,2,3")
    with pytest.raises(ValueError, match="'X' is not a valid MessageKind"):
        parse_trace_record("1.0,2,3,X,64")


@pytest.mark.parametrize(
    "line, why",
    [
        ("1,0,2,S,1e3", "invalid literal for int() with base 10: '1e3'"),
        ("x,0,2,S,8", "could not convert string to float: 'x'"),
        ("1,-1,2,S,8", "sender must be non-negative, got -1"),
        ("1,0,2,S,0", "size_bytes must be in [1, 1073741824], got 0"),
    ],
)
def test_parse_trace_record_names_the_record_in_every_field_error(line, why):
    with pytest.raises(ValueError) as info:
        parse_trace_record(line)
    assert str(info.value) == f"bad trace record {line!r}: {why}"


def test_trace_file_round_trip(tmp_path, make_msg):
    records = [
        (0.0, make_msg(sender=0, kind="S")),
        (0.5, make_msg(sender=1, kind="C")),
        (1.0, make_msg(sender=0, kind="E")),
    ]
    path = tmp_path / "trace.csv"
    dump_trace(str(path), records)
    loaded = list(load_trace(str(path)))
    assert len(loaded) == 3
    for (t_in, m_in), (t_out, m_out) in zip(records, loaded):
        assert t_out == pytest.approx(t_in, abs=1e-9)
        assert (m_out.sender, m_out.seq, m_out.kind, m_out.size_bytes) == (
            m_in.sender,
            m_in.seq,
            m_in.kind,
            m_in.size_bytes,
        )


def test_crlf_endings_and_blank_lines_load_like_a_clean_trace(tmp_path):
    lines = ["0.000000000,0,1,S,64", "0.500000000,1,1,C,128", "1.000000000,0,2,E,32"]
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(lines) + "\n", encoding="utf-8")
    messy = tmp_path / "messy.csv"
    messy.write_bytes(("\r\n" + "\r\n  \r\n".join(lines) + "\r\n\r\n").encode())

    def fields_of(path):
        return [
            (t_send, msg.sender, msg.seq, msg.kind, msg.size_bytes)
            for t_send, msg in load_trace(str(path))
        ]

    assert fields_of(messy) == fields_of(clean)
    assert len(fields_of(clean)) == 3
