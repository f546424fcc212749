"""Deterministic discrete-event engine for the transport comparison.

A single-threaded event loop drives one source node talking to one or more
destinations over point-to-point links. Four transport variants exist:

* udp      - fire and forget; packets may be lost, never retransmitted;
             the receive queue is plain FIFO.
* tcp      - fixed-size window of unacknowledged packets, one cumulative
             acknowledgement per consumed message, retransmission on a fixed
             timeout; delivers every message exactly once, in order; FIFO
             receive queue.
* udp_uqa  - udp delivery into an updatable (status-coalescing) queue.
* tcp_uqa  - tcp delivery into an updatable queue; the sender additionally
             pays a per-message bookkeeping cost for keeping its transport
             send queue updatable.

The TCP abstraction is deliberately small: no slow start, no AIMD. The two
effects that matter for the measurements are (a) acknowledgement traffic
loading both endpoints and (b) window pacing staggering arrivals when the
receiver falls behind, which a fixed window with consumption-driven
cumulative acks reproduces.

Receiver model: the consumer drains its queue one message at a time; after
each dequeue it is busy for ``receiver_delay_s`` (time spent on work other
than communication) plus a per-message application cost before the next
dequeue. Datagram transports carry a small application-level handling cost
(``udp_app_per_msg_s``): with no transport-layer stream service, the
consumer itself validates and orders raw datagrams, so its queue service
rate is slightly lower. Stream transports deliver kernel-processed in-order
data at no extra application cost.

Ties at equal simulation times resolve by priority band then insertion
order; receiver dequeues run in an earlier band than packet arrivals, so a
dequeue and an arrival at the same instant process the dequeue first. The
sends of a run arrive as a sorted stream beside the heap, each ordered as if
scheduled in band 0 before any heap event.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, fields
from math import inf
from typing import Any, Callable, Iterable, Optional

from .messages import MAX_SIZE_BYTES, Message
from .metrics import MetricsCollector
from .queues import EnqueueOutcome, UpdatableQueue

# Priority band for receiver service events: at equal times, dequeue first.
SERVICE_PRIORITY = -1
DEFAULT_PRIORITY = 0


class EventHandle:
    """Kept only as an importable name: events are never cancelled.

    A stale TCP retransmission timer fires and returns on its own guard, so
    ``SimClock.schedule`` returns nothing to cancel.
    """

    __slots__ = ()

    def cancel(self) -> None:
        pass


class SimClock:
    """Event loop with deterministic (time, priority, insertion) ordering.

    Heap entries are plain ``(time, priority, insertion, fn, args)`` tuples;
    the insertion counter is unique, so ``fn`` is never compared. Exogenous
    arrivals do not enter the heap: ``run`` merges them in from a sorted
    sequence.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Callable[..., None], tuple]] = []
        self._counter = itertools.count()

    def schedule(
        self, at: float, fn: Callable[..., None], *args: object, priority: int = DEFAULT_PRIORITY
    ) -> None:
        """Call ``fn(*args, at)`` when the clock reaches ``at``."""
        if not at >= self.now:
            raise ValueError(f"cannot schedule at {at}; clock is at {self.now}")
        heapq.heappush(self._heap, (at, priority, next(self._counter), fn, args))

    def run(
        self, until: float, arrivals: Iterable[tuple[float, Callable[[Any, float], None], Any]] = ()
    ) -> None:
        """Fire every event with time <= until, then advance the clock to until.

        ``arrivals`` is a time-sorted sequence of ``(t, fn, arg)``; each calls
        ``fn(arg, t)`` as if it had been scheduled in band 0 before every heap
        event. So at equal times a heap event fires first only in a band
        below 0 (receiver service). An arrival that is NaN, out of order or
        before ``now`` raises ``ValueError`` before it fires; arrivals after
        ``until`` do not fire.
        """
        if not until >= self.now:
            raise ValueError(f"cannot run to {until}; clock is at {self.now}")
        heap = self._heap
        pop = heapq.heappop
        for ta, afn, arg in arrivals:
            if not ta >= self.now:
                raise ValueError(f"cannot fire an arrival at {ta}; clock is at {self.now}")
            if ta > until:
                break
            key = (ta, DEFAULT_PRIORITY)
            while heap and heap[0] < key:
                t, _, _, fn, args = pop(heap)
                self.now = t
                fn(*args, t)
            self.now = ta
            afn(arg, ta)
        while heap and heap[0][0] <= until:
            t, _, _, fn, args = pop(heap)
            self.now = t
            fn(*args, t)
        self.now = until


@dataclass(slots=True)
class LinkParams:
    propagation_delay_s: float = 0.010
    bandwidth_bps: float = 1_000_000.0
    loss_prob: float = 0.0

    def validate(self) -> None:
        if not 0 <= self.propagation_delay_s < inf:
            raise ValueError(
                f"propagation_delay_s must be >= 0 and finite, got {self.propagation_delay_s}"
            )
        if not 0 < self.bandwidth_bps < inf:
            raise ValueError(
                f"bandwidth_bps must be positive and finite, got {self.bandwidth_bps}"
            )
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"loss_prob must be in [0, 1], got {self.loss_prob}")

    def serialization_s(self, size_bytes: float) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps


@dataclass(slots=True)
class TcpModel:
    window_size: int = 4
    ack_size_bytes: int = 40
    rto_s: float = 1.0

    def validate(self) -> None:
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0 < self.ack_size_bytes <= MAX_SIZE_BYTES:
            raise ValueError(
                f"ack_size_bytes must be in [1, {MAX_SIZE_BYTES}], got {self.ack_size_bytes}"
            )
        if not 0 < self.rto_s < inf:
            raise ValueError(f"rto_s must be positive and finite, got {self.rto_s}")


@dataclass(slots=True)
class ProcessingCosts:
    """Per-message processing costs outside raw link time.

    udp_app_per_msg_s: application-level datagram handling at the consumer
    (datagram transports only), added to its hold after every dequeue.
    uqa_update_cost_s: keyed-data bookkeeping a sender pays per message when
    its transport send queue is updatable (tcp_uqa only; a datagram sender
    keeps no send queue), counted as source busy time.
    """

    udp_app_per_msg_s: float = 0.002
    uqa_update_cost_s: float = 0.001

    def validate(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < inf:
                raise ValueError(
                    f"{f.name} must be >= 0 and finite, got {getattr(self, f.name)}"
                )


class TransportKind(enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    TCP_UQA = "tcp_uqa"
    UDP_UQA = "udp_uqa"

    @property
    def reliable(self) -> bool:
        return self in (TransportKind.TCP, TransportKind.TCP_UQA)

    @property
    def uses_uqa(self) -> bool:
        return self in (TransportKind.TCP_UQA, TransportKind.UDP_UQA)


class QueueMode(enum.Enum):
    FIFO = "fifo"
    UQA_TAIL = "uqa"
    UQA_KEYED = "keyed"


def queue_mode_for(kind: TransportKind, variant: str = "tail") -> QueueMode:
    if not kind.uses_uqa:
        return QueueMode.FIFO
    if variant == "keyed":
        return QueueMode.UQA_KEYED
    return QueueMode.UQA_TAIL


class Wire:
    """One direction of a link; serializes back-to-back transmissions."""

    __slots__ = ("link", "free_at")

    def __init__(self, link: LinkParams):
        self.link = link
        self.free_at = 0.0

    def transmit(self, now: float, size_bytes: float) -> float:
        """Occupy the wire and return the arrival time at the far end."""
        start = now if now > self.free_at else self.free_at
        self.free_at = start + self.link.serialization_s(size_bytes)
        return self.free_at + self.link.propagation_delay_s


class Receiver:
    """Consumer draining one queue; owns its destination's metrics collector.

    Drains one message at a time; after each dequeue it is busy for the
    receiver delay plus its per-message application cost. With zero delay it
    drains immediately upon arrival. ``on_consume`` fires on every dequeue
    (the reliable transports hook it to generate acknowledgements).

    A dequeue that empties the queue schedules nothing: it records when the
    consumer is next free (``ready_at``), and the next delivery schedules
    service at that time or at its own arrival, whichever is later. So every
    service event dequeues a message, and at most one is pending.
    """

    def __init__(
        self,
        clock: SimClock,
        receiver_delay_s: float,
        mode: QueueMode,
        app_cost_s: float = 0.0,
    ):
        if not 0 <= receiver_delay_s < inf:
            raise ValueError(
                f"receiver_delay_s must be >= 0 and finite, got {receiver_delay_s}"
            )
        self.clock = clock
        self.collector = MetricsCollector()
        self.hold_s = receiver_delay_s + app_cost_s  # busy time after each dequeue
        self.queue = UpdatableQueue()
        # The one QueueMode -> insertion dispatch; mode values name the methods.
        self.enqueue: Callable[[Message, float], EnqueueOutcome] = getattr(
            self.queue, f"enqueue_{mode.value}"
        )
        self.busy = False
        self.ready_at = 0.0
        self.on_consume: Optional[Callable[[Message, float], None]] = None

    def deliver(self, msg: Message, now: float) -> None:
        self.enqueue(msg, now)
        self.collector.data_bits_enqueued += msg.size_bytes * 8.0
        self.collector.record_queue_sample(now, len(self.queue))
        if not self.busy:
            self.busy = True
            start = now if now > self.ready_at else self.ready_at
            self.clock.schedule(start, self._service, priority=SERVICE_PRIORITY)

    def _service(self, now: float) -> None:
        queue = self.queue
        msg = queue.dequeue()
        self.collector.record_queue_sample(now, len(queue))
        self.collector.wait_time_sum_s += now - msg.t_enqueued
        if self.on_consume is not None:
            self.on_consume(msg, now)
        if queue:
            self.clock.schedule(now + self.hold_s, self._service, priority=SERVICE_PRIORITY)
        else:
            self.ready_at = now + self.hold_s
            self.busy = False


class UdpSender:
    """Unacknowledged datagram path: per-packet loss, no retransmission."""

    def __init__(
        self,
        link: LinkParams,
        receiver: Receiver,
        rng: random.Random,
    ):
        self.clock = receiver.clock
        self.link = link
        self.wire = Wire(link)
        self.receiver = receiver
        self.collector = receiver.collector
        self.rng = rng

    def submit(self, msg: Message, now: float) -> None:
        collector = self.collector
        collector.messages_sent += 1
        collector.data_bits_sent += msg.size_bytes * 8.0
        collector.source_busy_s += self.link.serialization_s(msg.size_bytes)
        if self.link.loss_prob > 0.0 and self.rng.random() < self.link.loss_prob:
            collector.messages_lost += 1
            return
        arrival = self.wire.transmit(now, msg.size_bytes)
        self.clock.schedule(arrival, self.receiver.deliver, msg)


class TcpConnection:
    """Fixed-window reliable stream between the source and one destination.

    Transport sequence numbers are assigned at submission in FIFO order.
    Data packets are subject to link loss and retransmitted on a fixed
    timeout until covered; acknowledgements are not lost. The receiver-side
    transport delivers to the application queue exactly once, in order,
    buffering anything that arrives ahead of a gap. One cumulative
    acknowledgement is generated per consumed message; a coalesced-away
    status is covered by the next consumption's cumulative value, so its
    window slot is recovered without a dedicated ack packet.
    """

    def __init__(
        self,
        link: LinkParams,
        tcp: TcpModel,
        update_cost_s: float,
        receiver: Receiver,
        rng: random.Random,
    ):
        self.clock = receiver.clock
        self.link = link
        self.tcp = tcp
        self.update_cost_s = update_cost_s
        self.receiver = receiver
        self.collector = receiver.collector
        self.rng = rng
        self.data_wire = Wire(link)
        self.ack_wire = Wire(link)
        self.send_buffer: deque[Message] = deque()
        self.next_seq = 1  # next transport seq to assign at submission
        self.highest_acked = 0
        self.pending: dict[int, Message] = {}  # transmitted, not yet acked
        self.expected = 1  # receiver transport: next in-order seq
        self.ooo: dict[int, Message] = {}
        receiver.on_consume = self._on_consume

    # -- source side -------------------------------------------------------

    def submit(self, msg: Message, now: float) -> None:
        self.collector.messages_sent += 1
        self.collector.source_busy_s += self.update_cost_s
        msg.tx_seq = self.next_seq
        self.next_seq += 1
        self.send_buffer.append(msg)
        self._pump(now)

    def _pump(self, now: float) -> None:
        while self.send_buffer and len(self.pending) < self.tcp.window_size:
            self._transmit(self.send_buffer.popleft(), now, first=True)

    def _transmit(self, msg: Message, now: float, first: bool) -> None:
        collector = self.collector
        if first:
            collector.data_bits_sent += msg.size_bytes * 8.0
        else:
            collector.retransmissions += 1
        collector.source_busy_s += self.link.serialization_s(msg.size_bytes)
        if not (self.link.loss_prob > 0.0 and self.rng.random() < self.link.loss_prob):
            arrival = self.data_wire.transmit(now, msg.size_bytes)
            self.clock.schedule(arrival, self._data_arrive, msg)
        self.clock.schedule(now + self.tcp.rto_s, self._rto_fire, msg.tx_seq)
        self.pending[msg.tx_seq] = msg

    def _rto_fire(self, seq: int, now: float) -> None:
        # Timers are never cancelled: one whose seq was acked meanwhile is a no-op.
        msg = self.pending.get(seq)
        if msg is not None:
            self._transmit(msg, now, first=False)

    # -- receiver-side transport --------------------------------------------

    def _data_arrive(self, msg: Message, now: float) -> None:
        seq = msg.tx_seq
        if seq < self.expected or seq in self.ooo:
            return  # duplicate of something already delivered or buffered
        if seq > self.expected:
            self.ooo[seq] = msg
            return
        self.receiver.deliver(msg, now)
        self.expected += 1
        while self.expected in self.ooo:
            self.receiver.deliver(self.ooo.pop(self.expected), now)
            self.expected += 1

    def _on_consume(self, msg: Message, now: float) -> None:
        self.collector.acks_generated += 1
        self.collector.ack_bits_generated += self.tcp.ack_size_bytes * 8.0
        arrival = self.ack_wire.transmit(now, self.tcp.ack_size_bytes)
        self.clock.schedule(arrival, self._ack_arrive, msg.tx_seq)

    # -- back at the source --------------------------------------------------

    def _ack_arrive(self, cum: int, now: float) -> None:
        self.collector.source_busy_s += self.link.serialization_s(self.tcp.ack_size_bytes)
        if cum > self.highest_acked:
            for seq in range(self.highest_acked + 1, cum + 1):
                del self.pending[seq]
            self.highest_acked = cum
            self._pump(now)


def build_connection(
    clock: SimClock,
    kind: TransportKind,
    link: LinkParams,
    tcp: TcpModel,
    costs: ProcessingCosts,
    receiver_delay_s: float,
    queue_variant: str,
    rng: random.Random,
) -> UdpSender | TcpConnection:
    """Assemble one destination's sender; the one place costs resolve."""
    receiver = Receiver(
        clock,
        receiver_delay_s,
        queue_mode_for(kind, queue_variant),
        app_cost_s=0.0 if kind.reliable else costs.udp_app_per_msg_s,
    )
    if kind.reliable:
        update_cost = costs.uqa_update_cost_s if kind is TransportKind.TCP_UQA else 0.0
        return TcpConnection(link, tcp, update_cost, receiver, rng)
    return UdpSender(link, receiver, rng)
