"""Message taxonomy and per-message metadata.

Traffic between tasks in a distributed virtual environment falls into three
kinds. Status updates describe current state and go stale the moment a newer
update from the same sender exists; they may be dropped in favour of the
newer one. Commands and events must be delivered exactly as sent, in order;
commands additionally expect an application-level acknowledgement.

The (kind, sender) pair is the keyed data a receive queue needs to decide
whether an incoming status update supersedes a stored one.
"""

from __future__ import annotations

import enum
from itertools import islice
from math import inf
from typing import Iterable

SenderId = int

# Largest packet or acknowledgement size (1 GiB). Every bit count a run sums,
# up to MAX_MESSAGE_COUNT such messages, stays an exact float.
MAX_SIZE_BYTES = 2**30
# Most messages one stream, one cell over all its destinations, or one
# replayed trace may hold. Each is built in memory before the run starts; at
# this ceiling a cell peaks at about 0.13 GB, a replayed trace at about 0.26 GB.
MAX_MESSAGE_COUNT = 1_000_000


class MessageKind(enum.Enum):
    STATUS = "S"
    COMMAND = "C"
    EVENT = "E"


class Message:
    """One unit of traffic.

    seq increases per sender in creation order; TCP carries the message
    under it. size_bytes is the payload size; no payload contents are
    modeled. The send time is the ``t_send`` of the record that carries it;
    the queue keeps the enqueue time, so no run writes a field of a message.
    A slots class, not a tuple, so its field reads stay cheap on the event
    path. It has no ``__eq__``: every caller compares messages by identity.
    """

    __slots__ = ("seq", "sender", "kind", "size_bytes")

    def __init__(self, seq: int, sender: SenderId, kind: MessageKind, size_bytes: int) -> None:
        if not 1 <= size_bytes <= MAX_SIZE_BYTES:
            raise ValueError(f"size_bytes must be in [1, {MAX_SIZE_BYTES}], got {size_bytes}")
        if sender < 0:
            raise ValueError(f"sender must be non-negative, got {sender}")
        self.seq = seq
        self.sender = sender
        self.kind = kind
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Message({fields})"


# Trace-record line format: t_send,sender_id,seq,kind,size_bytes
# kind is one of S/C/E, times are decimal seconds, one record per line.
# Used by the replay tooling and by external oracles.

TraceRecord = tuple[float, Message]


def format_trace_record(t_send: float, msg: Message) -> str:
    return (
        f"{t_send:.9f},{msg.sender},{msg.seq},{msg.kind.value},{msg.size_bytes}"
    )


# Kind letter -> kind, built once: a lookup per record, not an enum call.
_KIND_OF_LETTER = {kind.value: kind for kind in MessageKind}


def parse_trace_record(line: str) -> TraceRecord:
    """One record from a line without surrounding whitespace."""
    parts = line.split(",")
    if len(parts) != 5:
        raise ValueError(f"malformed trace record: {line!r}")
    try:
        t_send = float(parts[0])
        msg = Message(int(parts[2]), int(parts[1]), _KIND_OF_LETTER[parts[3]], int(parts[4]))
    except KeyError as exc:  # its text is the letter's repr
        raise ValueError(f"bad trace record {line!r}: {exc} is not a valid MessageKind") from None
    except ValueError as exc:
        raise ValueError(f"bad trace record {line!r}: {exc}") from None
    if not 0 <= t_send < inf:
        raise ValueError(f"trace record send time must be finite and >= 0: {line!r}")
    return t_send, msg


def dump_trace(path: str, records: Iterable[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t_send, msg in records:
            fh.write(format_trace_record(t_send, msg) + "\n")


def load_trace(path: str) -> list[TraceRecord]:
    """A trace file's records in file order; past ``MAX_MESSAGE_COUNT``, none is parsed."""
    with open(path, "r", encoding="utf-8") as fh:
        lines: list = list(islice(filter(None, map(str.strip, fh)), MAX_MESSAGE_COUNT + 1))
    if len(lines) > MAX_MESSAGE_COUNT:
        raise ValueError(f"trace {path} exceeds the ceiling of {MAX_MESSAGE_COUNT} records")
    for i, line in enumerate(lines):  # in place: one list, lines become records
        lines[i] = parse_trace_record(line)
    return lines
