"""Deterministic discrete-event engine for the transport comparison.

A single-threaded event loop drives one source node talking to one or more
destinations over point-to-point links. Four transport variants exist:

* udp      - fire and forget; packets may be lost, never retransmitted;
             the receive queue is plain FIFO.
* tcp      - fixed-size window of unacknowledged packets, one cumulative
             acknowledgement per consumed message, one retransmission timer
             per connection with exponential backoff; delivers every message
             exactly once, in order; FIFO receive queue.
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

Link, window, timeout and cost settings are fields of one
``harness.ExperimentConfig``; each wire and sender keeps the ones it reads.

Every event fires as ``fn(arg, t)``. Ties at equal simulation times resolve by
priority band then insertion order; receiver dequeues run in an earlier band
than packet arrivals, so a dequeue and an arrival at the same instant process
the dequeue first. A sender's ``run`` feeds the clock a sorted stream beside
the heap, each record ordered as if scheduled in band 0 before any heap event:
a TCP connection's sends, or a datagram sender's arrivals at the receiver (a
FIFO wire keeps them sorted). A delivery that finds its consumer idle and free
serves it in the same event (see ``Receiver``).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import random
from collections import deque
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .messages import Message
from .metrics import MetricsCollector
from .queues import EnqueueOutcome, UpdatableQueue

if TYPE_CHECKING:  # the harness imports the engine, never the other way round
    from .harness import ExperimentConfig

# Priority band for receiver service events: at equal times, dequeue first.
SERVICE_PRIORITY = -1
DEFAULT_PRIORITY = 0


class EventHandle:
    """Kept only as an importable name: events are never cancelled.

    A superseded TCP retransmission timer event fires and returns on its own
    guard, so ``SimClock.schedule`` returns nothing to cancel.
    """

    __slots__ = ()

    def cancel(self) -> None:
        pass


class SimClock:
    """Event loop with deterministic (time, priority, insertion) ordering.

    Every event fires as ``fn(arg, t)``: a heap entry ``(time, priority,
    insertion, fn, arg)`` (the insertion counter is unique, so ``fn`` is never
    compared), and each ``(t, arg)`` record of the sorted stream that ``run``
    merges in beside the heap (sends, datagram arrivals or a trace). An event
    with no payload passes the class function and its object as ``arg``.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Callable[[Any, float], None], Any]] = []
        self._counter = itertools.count()

    def schedule(
        self, at: float, fn: Callable[[Any, float], None], arg: Any = None,
        *, priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Call ``fn(arg, at)`` when the clock reaches ``at``."""
        if not at >= self.now:
            raise ValueError(f"cannot schedule at {at}; clock is at {self.now}")
        heapq.heappush(self._heap, (at, priority, next(self._counter), fn, arg))

    def run(
        self,
        until: float,
        arrivals: Iterable[tuple[float, Any]] = (),
        fire: Optional[Callable[[Any, float], None]] = None,
    ) -> None:
        """Fire every event with time <= until, then advance the clock to until.

        Heap events fire as ``fn(arg, t)``. ``arrivals`` is a time-sorted
        sequence of ``(t, arg)``; each calls ``fire(arg, t)`` as if it had
        been scheduled in band 0 before every heap event. So at equal times a
        heap event fires first only in a band below 0 (receiver service). An
        arrival that is NaN, out of order or before ``now`` raises
        ``ValueError`` before it fires; arrivals after ``until`` do not fire.
        """
        if not until >= self.now:
            raise ValueError(f"cannot run to {until}; clock is at {self.now}")
        heap = self._heap
        pop = heapq.heappop
        for ta, arg in arrivals:
            if not ta >= self.now:
                raise ValueError(f"cannot fire an arrival at {ta}; clock is at {self.now}")
            if ta > until:
                break
            key = (ta, DEFAULT_PRIORITY)
            while heap and heap[0] < key:
                t, _, _, fn, payload = pop(heap)
                self.now = t
                fn(payload, t)
            self.now = ta
            fire(arg, ta)  # type: ignore[misc]
        while heap and heap[0][0] <= until:
            t, _, _, fn, payload = pop(heap)
            self.now = t
            fn(payload, t)
        self.now = until


class TransportKind(enum.Enum):
    """The four transports, in the order of the sweep's CSV rows and figure columns."""

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


# A *_uqa queue's replacement scope (``queue_variant``) -> its queue policy,
# the suffix of an ``UpdatableQueue.enqueue_*`` method; udp and tcp use "fifo".
QUEUE_VARIANTS = {"tail": "uqa", "keyed": "keyed"}


class Wire:
    """One direction of a link; serializes back-to-back transmissions."""

    __slots__ = ("bandwidth_bps", "propagation_delay_s", "free_at")

    def __init__(self, config: ExperimentConfig):
        self.bandwidth_bps = config.bandwidth_bps
        self.propagation_delay_s = config.propagation_delay_s
        self.free_at = 0.0

    def serialization_s(self, size_bytes: float) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps

    def transmit(self, now: float, ser: float) -> float:
        """Occupy the wire for ``ser`` seconds; return the arrival at the far end."""
        start = now if now > self.free_at else self.free_at
        self.free_at = start + ser
        return self.free_at + self.propagation_delay_s


class Receiver:
    """Consumer draining one queue; owns its destination's metrics collector.

    Drains one message at a time; after each dequeue it is busy for the hold
    its caller resolved, ``hold_s`` (see ``build_connection``). With a zero
    hold it drains immediately upon arrival. ``on_consume`` fires on every
    dequeue (the reliable transports hook it to generate acknowledgements).

    ``policy`` names the queue's ``UpdatableQueue.enqueue_*`` method by its
    suffix: ``fifo``, ``uqa`` or ``keyed``. Callers validate the hold first
    (``ExperimentConfig.validate``, ``uqsim replay``).

    Only ``deliver`` and ``_service`` change the queue length. Just before a
    change at ``now``, each does ``collector.len_integral += queue.length *
    (now - collector.last_sample_t)`` and ``last_sample_t = now``; ``deliver``
    then raises ``peak_len`` to ``queue.length``.

    ``ready_at`` is the consumer's one state field: when it is next free to
    dequeue, or ``inf`` while a service event is pending. ``arrive`` delivers
    (``deliver`` only enqueues), then serves at once if ``ready_at <= now``,
    pushes a service event at ``ready_at`` if that is ahead, and otherwise
    leaves the message to the pending event; a transport handing over several
    messages at once delivers all but the last. A dequeue that empties the
    queue pushes nothing and records ``ready_at``. So every service event
    dequeues a message, and at most one is pending. Serving in the
    delivering event is exact: each destination runs on a clock of its own,
    and a service pushed at ``now`` in the earlier band would fire next.
    """

    def __init__(self, clock: SimClock, hold_s: float, policy: str):
        self.clock = clock
        self.collector = MetricsCollector()
        self.hold_s = hold_s  # busy time after each dequeue
        self.queue = UpdatableQueue()
        self.enqueue: Callable[[Message, float], EnqueueOutcome] = getattr(
            self.queue, f"enqueue_{policy}"
        )
        self.ready_at = 0.0  # inf while a service event is pending
        self.on_consume: Optional[Callable[[Message, float], None]] = None

    def deliver(self, msg: Message, now: float) -> None:
        """Enqueue ``msg``; the consumer does not act until ``arrive``."""
        queue = self.queue
        collector = self.collector
        collector.len_integral += queue.length * (now - collector.last_sample_t)
        collector.last_sample_t = now
        self.enqueue(msg, now)
        collector.data_bits_enqueued += msg.size_bytes * 8.0
        if queue.length > collector.peak_len:
            collector.peak_len = queue.length

    def arrive(self, msg: Message, now: float) -> None:
        self.deliver(msg, now)
        ready_at = self.ready_at
        if ready_at <= now:
            self._service(now)
        elif ready_at < inf:
            self.ready_at = inf
            self.clock.schedule(ready_at, Receiver._service, self, priority=SERVICE_PRIORITY)

    def _service(self, now: float) -> None:
        queue = self.queue
        collector = self.collector
        collector.len_integral += queue.length * (now - collector.last_sample_t)
        collector.last_sample_t = now
        t_enqueued, msg = queue.dequeue()
        collector.wait_time_sum_s += now - t_enqueued
        if self.on_consume is not None:
            self.on_consume(msg, now)
        if queue.length:
            self.ready_at = inf
            self.clock.schedule(now + self.hold_s, Receiver._service, self, priority=SERVICE_PRIORITY)
        else:
            self.ready_at = now + self.hold_s


class UdpSender:
    """Unacknowledged datagram path: per-packet loss, no retransmission.

    ``run`` maps the schedule lazily through ``submit`` into the receiver's
    ``(arrival, msg)`` stream; no datagram enters the heap or a list.
    """

    def __init__(self, config: ExperimentConfig, receiver: Receiver, rng: random.Random):
        self.clock = receiver.clock
        self.loss_prob = config.loss_prob
        self.wire = Wire(config)
        self.receiver = receiver
        self.collector = receiver.collector
        self.rng = rng
        self.sent_at = 0.0  # last send time: the clock never sees send times

    def run(self, until: float, schedule: Iterable[tuple[float, Message]]) -> None:
        submit = self.submit
        stream = ((at, msg) for t, msg in schedule if (at := submit(msg, t)) is not None)
        self.clock.run(until, stream, self.receiver.arrive)
        deque(stream, maxlen=0)  # the sends whose datagrams arrive after until

    def submit(self, msg: Message, now: float) -> Optional[float]:
        """Send ``msg`` at ``now``; its arrival time, or None if it is lost."""
        if not now >= self.sent_at:  # NaN, before 0 or out of order
            raise ValueError(f"cannot send at {now}; the last send was at {self.sent_at}")
        self.sent_at = now
        collector = self.collector
        collector.messages_sent += 1
        collector.data_bits_sent += msg.size_bytes * 8.0
        ser = self.wire.serialization_s(msg.size_bytes)
        collector.source_busy_s += ser
        if self.loss_prob > 0.0 and self.rng.random() < self.loss_prob:
            collector.messages_lost += 1
            return None
        return self.wire.transmit(now, ser)


def backoff_cap(rto_s: float) -> float:
    """The ceiling the retransmission timeout doubles up to (RFC 6298 §5.5)."""
    return max(60.0, rto_s)


class TcpConnection:
    """Fixed-window reliable stream between the source and one destination.

    A connection carries each message under its own ``seq``: every schedule
    numbers its messages from 1 in send order (``generate_schedule``), so the
    n-th message submitted has seq n. The source keeps one queue, ``unacked``:
    the messages submitted and not yet acked, in seq order, of which the first
    ``in_flight`` are sent; the next is sent while fewer than ``window_size``
    are in flight. A message's seq is ``highest_acked`` plus its place in the
    queue, and a cumulative ack pops from the head. Data packets are subject to
    link loss; acknowledgements are not lost. The connection keeps one
    retransmission timer, managed as RFC 6298 §5 does: a send starts it when it
    is off, an ack of new data restarts it and resets the timeout to ``rto_s``,
    and it stops when nothing is outstanding. On expiry the head of ``unacked``
    is resent and the timeout doubles, capped at ``max(60 s, rto_s)``. The
    receiver-side transport hands each message to the queue exactly once, in
    order, buffering in ``ooo`` anything that arrives ahead of a gap, so the
    next in-order seq is ``receiver.queue.inserted + 1``. One cumulative
    acknowledgement is generated per consumed message; a coalesced-away status
    is covered by the next consumption's cumulative value, so its window slot
    is recovered without a dedicated ack packet. The timer keeps one
    authoritative heap event, at ``rto_event_at``: firing before the deadline,
    it pushes itself again; a deadline moved before it (an ack after a backoff)
    pushes a new event, and the superseded one returns on a guard.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        update_cost_s: float,
        receiver: Receiver,
        rng: random.Random,
    ):
        self.clock = receiver.clock
        self.loss_prob = config.loss_prob
        self.window_size = config.window_size
        self.rto_s = config.rto_s
        self.rto = config.rto_s  # current timeout, doubled on each expiry
        self.rto_deadline = inf  # inf: timer off
        self.rto_event_at = inf  # time of the authoritative heap event
        self.update_cost_s = update_cost_s
        self.receiver = receiver
        self.collector = receiver.collector
        self.collector.ack_size_bytes = config.ack_size_bytes
        self.rng = rng
        self.data_wire = Wire(config)
        self.ack_wire = Wire(config)
        self.ack_ser_s = self.ack_wire.serialization_s(config.ack_size_bytes)
        self.highest_acked = 0
        self.unacked: deque[Message] = deque()
        self.in_flight = 0
        self.ooo: dict[int, Message] = {}
        receiver.on_consume = self._on_consume

    # -- source side -------------------------------------------------------

    def run(self, until: float, schedule: Iterable[tuple[float, Message]]) -> None:
        self.clock.run(until, schedule, self.submit)

    def submit(self, msg: Message, now: float) -> None:
        self.collector.messages_sent += 1
        self.collector.source_busy_s += self.update_cost_s
        self.unacked.append(msg)
        if self.in_flight < self.window_size:
            self._transmit(msg, now, first=True)

    def _transmit(self, msg: Message, now: float, first: bool) -> None:
        collector = self.collector
        if first:
            self.in_flight += 1
            collector.data_bits_sent += msg.size_bytes * 8.0
        else:
            collector.retransmissions += 1
        ser = self.data_wire.serialization_s(msg.size_bytes)
        collector.source_busy_s += ser
        if not (self.loss_prob > 0.0 and self.rng.random() < self.loss_prob):
            self.clock.schedule(self.data_wire.transmit(now, ser), self._data_arrive, msg)
        if self.rto_deadline == inf:
            self._arm(now + self.rto)

    def _arm(self, deadline: float) -> None:
        """Set the timer's deadline; push an event only if it falls earlier."""
        self.rto_deadline = deadline
        if deadline < self.rto_event_at:
            self.rto_event_at = deadline
            self.clock.schedule(deadline, TcpConnection._rto_fire, self)

    def _rto_fire(self, now: float) -> None:
        if now != self.rto_event_at:
            return  # superseded by an earlier event
        self.rto_event_at = inf
        deadline = self.rto_deadline
        if deadline > now:  # restarted meanwhile, or off (_arm(inf) pushes nothing)
            self._arm(deadline)
            return
        self._transmit(self.unacked[0], now, first=False)
        self.rto = min(2.0 * self.rto, backoff_cap(self.rto_s))
        self._arm(now + self.rto)

    # -- receiver-side transport --------------------------------------------

    def _data_arrive(self, msg: Message, now: float) -> None:
        seq = msg.seq
        inserted = self.receiver.queue.inserted
        if seq <= inserted:
            return  # duplicate of something already delivered
        if seq > inserted + 1:
            self.ooo[seq] = msg  # a resent copy is the same object
            return
        while seq + 1 in self.ooo:  # deliver the in-order run; its last message arrives
            self.receiver.deliver(msg, now)
            seq += 1
            msg = self.ooo.pop(seq)
        self.receiver.arrive(msg, now)

    def _on_consume(self, msg: Message, now: float) -> None:
        self.clock.schedule(self.ack_wire.transmit(now, self.ack_ser_s), self._ack_arrive, msg.seq)

    # -- back at the source --------------------------------------------------

    def _ack_arrive(self, cum: int, now: float) -> None:
        self.collector.source_busy_s += self.ack_ser_s
        if cum > self.highest_acked:
            unacked = self.unacked
            for _ in range(cum - self.highest_acked):
                unacked.popleft()
            self.in_flight -= cum - self.highest_acked
            self.highest_acked = cum
            self.rto = self.rto_s
            if self.in_flight:
                self._arm(now + self.rto_s)
            else:
                self.rto_deadline = inf
            while self.in_flight < self.window_size and self.in_flight < len(unacked):
                self._transmit(unacked[self.in_flight], now, first=True)


def build_connection(
    clock: SimClock, config: ExperimentConfig, rng: random.Random
) -> UdpSender | TcpConnection:
    """Assemble the sender of one destination of ``config``'s cell.

    The one place costs resolve: the receiver's hold is the receiver delay
    plus ``udp_app_per_msg_s`` on datagram transports only, and the sender's
    ``update_cost_s`` is ``uqa_update_cost_s`` on tcp_uqa only.
    """
    kind = config.protocol
    receiver = Receiver(
        clock,
        config.receiver_delay_s + (0.0 if kind.reliable else config.udp_app_per_msg_s),
        QUEUE_VARIANTS[config.queue_variant] if kind.uses_uqa else "fifo",
    )
    if kind.reliable:
        update_cost = config.uqa_update_cost_s if kind is TransportKind.TCP_UQA else 0.0
        return TcpConnection(config, update_cost, receiver, rng)
    return UdpSender(config, receiver, rng)
