"""Receive-side queues: plain FIFO and the updatable (status-coalescing) queue.

The updatable queue is a FIFO with one twist on insertion of a status
message: if the message currently at the tail is a status from the same
sender, that tail is obsolete and is replaced in place by the new message.
Commands and events are always appended and are only ever removed by
dequeue. The tail-only check means interleaved statuses from the same sender
(status A, command B, status A) are not coalesced.

``enqueue_keyed`` is an optional stricter variant that replaces a same-sender
status anywhere in the queue, leaving at most one stored status per sender.
It is off by default and selectable by configuration.

The structure is single-writer and unbounded; peak sizes are something the
experiments measure, not something the queue enforces.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Optional

from .messages import Message, MessageKind


class EnqueueOutcome(enum.Enum):
    INSERTED = "inserted"
    REPLACED_TAIL = "replaced_tail"


class UpdatableQueue:
    """FIFO of messages with optional coalescing insertion.

    Counters satisfy ``inserted == replaced + len(queue) + dequeued`` after
    every operation. Surviving messages dequeue in arrival order. A replaced
    message is counted in ``replaced`` and never gets a dequeue timestamp;
    it was superseded, not delivered.
    """

    __slots__ = ("_messages", "inserted", "replaced", "dequeued")

    def __init__(self) -> None:
        self._messages: deque[Message] = deque()
        self.inserted = 0
        self.replaced = 0
        self.dequeued = 0

    def __len__(self) -> int:
        return len(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)

    def peek(self) -> Optional[Message]:
        return self._messages[0] if self._messages else None

    def peek_tail(self) -> Optional[Message]:
        return self._messages[-1] if self._messages else None

    def snapshot(self) -> tuple[Message, ...]:
        """Current contents, head first. For inspection and oracles."""
        return tuple(self._messages)

    def enqueue_uqa(self, msg: Message, now: float = 0.0) -> EnqueueOutcome:
        """Insert with tail-only status coalescing.

        Commands and events append. A status appends unless the tail is a
        status from the same sender, in which case the tail is replaced in
        place and the queue length is unchanged. An empty queue appends:
        there is nothing stored to supersede.
        """
        if msg.t_enqueued is not None:
            raise ValueError("message was already enqueued once")
        msg.t_enqueued = now
        self.inserted += 1
        messages = self._messages
        if msg.kind is MessageKind.STATUS and messages:
            tail = messages[-1]
            if tail.kind is MessageKind.STATUS and tail.sender == msg.sender:
                messages[-1] = msg
                self.replaced += 1
                return EnqueueOutcome.REPLACED_TAIL
        messages.append(msg)
        return EnqueueOutcome.INSERTED

    def enqueue_fifo(self, msg: Message, now: float = 0.0) -> EnqueueOutcome:
        """Plain append; the no-coalescing baseline."""
        if msg.t_enqueued is not None:
            raise ValueError("message was already enqueued once")
        msg.t_enqueued = now
        self.inserted += 1
        self._messages.append(msg)
        return EnqueueOutcome.INSERTED

    def enqueue_keyed(self, msg: Message, now: float = 0.0) -> EnqueueOutcome:
        """Whole-queue variant: replace a same-sender status anywhere.

        If any stored status from the same sender exists it is removed and
        the new message appends at the tail. At most one such entry can
        exist at a time, so a single scan suffices.
        """
        if msg.t_enqueued is not None:
            raise ValueError("message was already enqueued once")
        msg.t_enqueued = now
        self.inserted += 1
        messages = self._messages
        if msg.kind is MessageKind.STATUS:
            sender = msg.sender
            for i, old in enumerate(messages):
                if old.kind is MessageKind.STATUS and old.sender == sender:
                    # By index: deque.remove would rescan with Message.__eq__.
                    del messages[i]
                    messages.append(msg)
                    self.replaced += 1
                    return EnqueueOutcome.REPLACED_TAIL
        messages.append(msg)
        return EnqueueOutcome.INSERTED

    def dequeue(self, now: float = 0.0) -> Optional[Message]:
        """Remove and return the head, or None when empty (not an error)."""
        if not self._messages:
            return None
        msg = self._messages.popleft()
        msg.t_dequeued = now
        self.dequeued += 1
        return msg
