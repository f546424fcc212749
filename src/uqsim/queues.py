"""Receive-side queues: plain FIFO and the updatable (status-coalescing) queue.

The updatable queue is a FIFO with one twist on insertion of a status
message: if the message currently at the tail is a status from the same
sender, that tail is obsolete and is replaced in place by the new message.
Commands and events are always appended and are only ever removed by
dequeue. The tail-only check means interleaved statuses from the same sender
(status A, command B, status A) are not coalesced.

``enqueue_keyed`` is an optional stricter variant that replaces a same-sender
status anywhere in the queue, leaving at most one stored status per sender.
It is off by default and selectable by configuration. Its queue is one
insertion-ordered map: a status is keyed by its sender, any other message by
a unique negative key. A replacing status moves its sender's entry to the
tail and takes its place, so the map holds exactly the queue's contents.

Each entry's enqueue time lives in the queue, not on the message: the queue
stores each entry as the ``(t_enqueued, msg)`` record that ``dequeue`` returns
and ``snapshot`` yields.

Cost per operation: ``enqueue_fifo``, ``enqueue_uqa``, ``enqueue_keyed``,
``dequeue`` and ``len`` (the live ``length`` every policy keeps) are O(1);
``snapshot`` is linear.

The structure is single-writer and unbounded; peak sizes are something the
experiments measure, not something the queue enforces.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from typing import Iterator, Optional

from .messages import Message, MessageKind, TraceRecord


class EnqueueOutcome(enum.Enum):
    INSERTED = "inserted"
    REPLACED_TAIL = "replaced_tail"


class UpdatableQueue:
    """FIFO of messages with optional coalescing insertion.

    Counters satisfy ``inserted == replaced + len(queue) + dequeued`` after
    every operation. Surviving messages dequeue in arrival order. A replaced
    message is counted in ``replaced`` and is never returned by ``dequeue``;
    it was superseded, not delivered.

    A queue is driven by one insertion policy (``enqueue_fifo``,
    ``enqueue_uqa`` or ``enqueue_keyed``) for its whole life, as ``Receiver``
    binds it. The fifo and uqa policies store their records in the deque
    ``_records``, the keyed policy in the values of the ordered map
    ``_keyed``; the other store stays empty.
    ``length`` is the live length: one more per ``INSERTED``, one less per dequeue.
    """

    __slots__ = ("_records", "_keyed", "length", "inserted", "replaced", "dequeued")

    def __init__(self) -> None:
        self._records: deque[TraceRecord] = deque()
        # Keyed policy only: a status under its sender, any other message
        # under -inserted; senders are non-negative, so keys never collide.
        self._keyed: OrderedDict[int, TraceRecord] = OrderedDict()
        self.length = 0
        self.inserted = 0
        self.replaced = 0
        self.dequeued = 0

    def __len__(self) -> int:
        return self.length

    def snapshot(self) -> Iterator[TraceRecord]:
        """Current ``(t_enqueued, msg)`` records, head first, read lazily: nothing is copied."""
        return iter(self._records or self._keyed.values())

    def enqueue_uqa(self, msg: Message, now: float = 0.0) -> EnqueueOutcome:
        """Insert with tail-only status coalescing.

        Commands and events append. A status appends unless the tail is a
        status from the same sender, in which case the tail is replaced in
        place and the queue length is unchanged. An empty queue appends:
        there is nothing stored to supersede.
        """
        self.inserted += 1
        records = self._records
        if msg.kind is MessageKind.STATUS and records:
            tail = records[-1][1]
            if tail.kind is MessageKind.STATUS and tail.sender == msg.sender:
                records[-1] = (now, msg)
                self.replaced += 1
                return EnqueueOutcome.REPLACED_TAIL
        records.append((now, msg))
        self.length += 1
        return EnqueueOutcome.INSERTED

    def enqueue_fifo(self, msg: Message, now: float = 0.0) -> EnqueueOutcome:
        """Plain append; the no-coalescing baseline."""
        self.inserted += 1
        self.length += 1
        self._records.append((now, msg))
        return EnqueueOutcome.INSERTED

    def enqueue_keyed(self, msg: Message, now: float = 0.0) -> EnqueueOutcome:
        """Whole-queue variant: replace a same-sender status anywhere.

        The new message always goes to the tail. A status from a sender
        with a stored status drops that one, which counts as replaced; the
        outcome is then ``REPLACED_TAIL`` and the length is unchanged.
        """
        self.inserted += 1
        keyed = self._keyed
        if msg.kind is MessageKind.STATUS:
            key = msg.sender
            if key in keyed:
                keyed.move_to_end(key)
                keyed[key] = (now, msg)
                self.replaced += 1
                return EnqueueOutcome.REPLACED_TAIL
        else:
            key = -self.inserted
        keyed[key] = (now, msg)
        self.length += 1
        return EnqueueOutcome.INSERTED

    def dequeue(self) -> Optional[TraceRecord]:
        """Remove the head; its ``(t_enqueued, msg)``, or None when empty (not an error)."""
        if self._records:
            record = self._records.popleft()
        elif self._keyed:
            record = self._keyed.popitem(last=False)[1]
        else:
            return None
        self.length -= 1
        self.dequeued += 1
        return record
