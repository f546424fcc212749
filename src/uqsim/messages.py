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
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Iterator, Optional

SenderId = int


class MessageKind(enum.Enum):
    STATUS = "S"
    COMMAND = "C"
    EVENT = "E"

    @classmethod
    def from_letter(cls, letter: str) -> "MessageKind":
        try:
            return cls(letter)
        except ValueError:
            raise ValueError(f"unknown message kind letter {letter!r}") from None


@dataclass(slots=True)
class Message:
    """One unit of traffic.

    seq increases per sender in creation order. size_bytes is the payload
    size; no payload contents are modeled. Timestamps are simulation seconds;
    t_enqueued/t_dequeued stay None until the queue sets them.
    """

    seq: int
    sender: SenderId
    kind: MessageKind
    size_bytes: int
    t_created: float = 0.0
    t_enqueued: Optional[float] = field(default=None, compare=False)
    t_dequeued: Optional[float] = field(default=None, compare=False)
    # Transport sequence number; a reliable sender sets it at submission.
    tx_seq: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.sender < 0:
            raise ValueError(f"sender must be non-negative, got {self.sender}")


# Trace-record line format: t_send,sender_id,seq,kind,size_bytes
# kind is one of S/C/E, times are decimal seconds, one record per line.
# Used by the replay tooling and by external oracles.

TraceRecord = tuple[float, Message]


def format_trace_record(t_send: float, msg: Message) -> str:
    return (
        f"{t_send:.9f},{msg.sender},{msg.seq},{msg.kind.value},{msg.size_bytes}"
    )


def parse_trace_record(line: str) -> TraceRecord:
    parts = line.strip().split(",")
    if len(parts) != 5:
        raise ValueError(f"malformed trace record: {line!r}")
    t_send = float(parts[0])
    if not 0 <= t_send < inf:
        raise ValueError(f"trace record send time must be finite and >= 0: {line.strip()!r}")
    msg = Message(
        seq=int(parts[2]),
        sender=int(parts[1]),
        kind=MessageKind.from_letter(parts[3]),
        size_bytes=int(parts[4]),
        t_created=t_send,
    )
    return t_send, msg


def dump_trace(path: str, records: Iterable[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t_send, msg in records:
            fh.write(format_trace_record(t_send, msg) + "\n")


def load_trace(path: str) -> Iterator[TraceRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield parse_trace_record(line)
