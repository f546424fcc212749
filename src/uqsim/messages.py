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

# Largest packet or acknowledgement size (1 GiB). Every bit count a run sums,
# up to MAX_MESSAGE_COUNT such messages, stays an exact float.
MAX_SIZE_BYTES = 2**30


class MessageKind(enum.Enum):
    STATUS = "S"
    COMMAND = "C"
    EVENT = "E"


@dataclass(slots=True)
class Message:
    """One unit of traffic.

    seq increases per sender in creation order. size_bytes is the payload
    size; no payload contents are modeled. The send time is the ``t_send``
    of the record that carries it; t_enqueued stays None until a queue sets it.
    """

    seq: int
    sender: SenderId
    kind: MessageKind
    size_bytes: int
    t_enqueued: Optional[float] = field(default=None, compare=False)
    # Transport sequence number; a reliable sender sets it at submission.
    tx_seq: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.size_bytes <= MAX_SIZE_BYTES:
            raise ValueError(
                f"size_bytes must be in [1, {MAX_SIZE_BYTES}], got {self.size_bytes}"
            )
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


def load_trace(path: str) -> Iterator[TraceRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield parse_trace_record(line)
