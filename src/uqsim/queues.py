"""Receive-side queues: plain FIFO and the updatable (status-coalescing) queue.

The updatable queue is a FIFO with one twist on insertion of a status
message: if the message currently at the tail is a status from the same
sender, that tail is obsolete and is replaced in place by the new message.
Commands and events are always appended and are only ever removed by
dequeue. The tail-only check means interleaved statuses from the same sender
(status A, command B, status A) are not coalesced.

``enqueue_keyed`` is an optional stricter variant that replaces a same-sender
status anywhere in the queue, leaving at most one stored status per sender.
It is off by default and selectable by configuration. It finds the stored
status through a per-sender index and removes it lazily: the superseded
entry stays in the deque, marked only by no longer being its sender's
indexed status, and readers skip it. A superseded entry always has its
replacement (a newer status from the same sender) somewhere behind it, so
the tail is always live and a non-empty deque always holds a live message.
When superseded entries outnumber live ones the deque is compacted in
place, so it never holds more than twice the live length reached at the
last keyed insertion.

Cost per operation: ``enqueue_fifo``, ``enqueue_uqa``, ``dequeue`` and
``len`` are O(1); ``enqueue_keyed`` is O(1) amortized
(compaction is linear but pays for the superseded entries that triggered
it); ``snapshot`` is linear.

The structure is single-writer and unbounded; peak sizes are something the
experiments measure, not something the queue enforces.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Optional

from .messages import Message, MessageKind, SenderId


class EnqueueOutcome(enum.Enum):
    INSERTED = "inserted"
    REPLACED_TAIL = "replaced_tail"


class UpdatableQueue:
    """FIFO of messages with optional coalescing insertion.

    Counters satisfy ``inserted == replaced + len(queue) + dequeued`` after
    every operation. Surviving messages dequeue in arrival order. A replaced
    message is counted in ``replaced`` and never gets a dequeue timestamp;
    it was superseded, not delivered.

    A queue is driven by one insertion policy (``enqueue_fifo``,
    ``enqueue_uqa`` or ``enqueue_keyed``) for its whole life, as ``Receiver``
    binds it. Under the fifo and uqa policies ``_messages`` holds exactly the
    live messages and the keyed index stays empty.
    """

    __slots__ = ("_messages", "_status_of", "_superseded", "inserted", "replaced", "dequeued")

    def __init__(self) -> None:
        self._messages: deque[Message] = deque()
        # Keyed policy only: each sender's one live stored status.
        self._status_of: dict[SenderId, Message] = {}
        # Keyed policy only: superseded statuses still in _messages.
        self._superseded = 0
        self.inserted = 0
        self.replaced = 0
        self.dequeued = 0

    def __len__(self) -> int:
        return len(self._messages) - self._superseded

    def __bool__(self) -> bool:
        # The tail is always live, so a non-empty deque is a non-empty queue.
        return bool(self._messages)

    def _is_live(self, msg: Message) -> bool:
        return msg.kind is not MessageKind.STATUS or self._status_of[msg.sender] is msg

    def snapshot(self) -> tuple[Message, ...]:
        """Current contents, head first. For inspection and oracles."""
        if not self._superseded:
            return tuple(self._messages)
        return tuple(filter(self._is_live, self._messages))

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

        The new message always appends at the tail. A status also becomes
        its sender's indexed status; the one it displaces from the index,
        if any, is superseded: it leaves the queue's contents, counts as
        replaced, and stays in the deque until a dequeue or a compaction
        drops it.
        """
        if msg.t_enqueued is not None:
            raise ValueError("message was already enqueued once")
        msg.t_enqueued = now
        self.inserted += 1
        messages = self._messages
        messages.append(msg)
        if msg.kind is MessageKind.STATUS:
            status_of = self._status_of
            replacing = msg.sender in status_of
            status_of[msg.sender] = msg
            if replacing:
                self.replaced += 1
                self._superseded += 1
                if 2 * self._superseded > len(messages):
                    self._compact()
                return EnqueueOutcome.REPLACED_TAIL
        return EnqueueOutcome.INSERTED

    def _compact(self) -> None:
        """Drop every superseded entry, keeping the same deque object."""
        live = list(filter(self._is_live, self._messages))
        self._messages.clear()
        self._messages.extend(live)
        self._superseded = 0

    def dequeue(self, now: float = 0.0) -> Optional[Message]:
        """Remove and return the head, or None when empty (not an error)."""
        messages = self._messages
        if not messages:
            return None
        msg = messages.popleft()
        if self._status_of:
            # Keyed: drop superseded heads. Each has its replacement behind
            # it, so the deque cannot run dry before a live message.
            status_of = self._status_of
            while msg.kind is MessageKind.STATUS:
                if status_of[msg.sender] is msg:
                    del status_of[msg.sender]
                    break
                self._superseded -= 1
                msg = messages.popleft()
        msg.t_dequeued = now
        self.dequeued += 1
        return msg
