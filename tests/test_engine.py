import random

import pytest

from uqsim import harness
from uqsim.engine import (
    DEFAULT_PRIORITY,
    SERVICE_PRIORITY,
    Receiver,
    SimClock,
    TcpConnection,
    TransportKind,
    UdpSender,
    Wire,
    build_connection,
)
from uqsim.harness import ExperimentConfig, run_experiment
from uqsim.messages import Message, MessageKind

SER_512 = 512 * 8 / 1_000_000  # 0.004096 s at the default link rate
ACK_SER = 40 * 8 / 1_000_000  # 0.00032 s
PROP = 0.010


def status(seq, sender=0, size=512):
    return Message(seq=seq, sender=sender, kind=MessageKind.STATUS, size_bytes=size)


@pytest.fixture
def enqueued(monkeypatch):
    """Each message's enqueue time, by ``id``: the queue keeps it, not the message."""
    times = {}
    deliver = Receiver.deliver

    def recording_deliver(self, msg, now):
        times[id(msg)] = now
        deliver(self, msg, now)

    monkeypatch.setattr(Receiver, "deliver", recording_deliver)
    return times


# -- clock ----------------------------------------------------------------------


def test_schedule_in_past_fails():
    clock = SimClock()
    clock.schedule(1.0, lambda _, t: None)
    clock.run(1.0)
    with pytest.raises(ValueError, match="schedule"):
        clock.schedule(0.5, lambda _, t: None)


@pytest.mark.parametrize("call", ["schedule", "run"])
def test_nan_time_is_rejected_and_changes_nothing(call):
    clock = SimClock()
    clock.schedule(1.0, lambda _, t: None)
    clock.run(0.5)
    heap = list(clock._heap)
    with pytest.raises(ValueError, match="nan"):
        if call == "schedule":
            clock.schedule(float("nan"), lambda _, t: None)
        else:
            clock.run(float("nan"))
    assert clock._heap == heap
    assert clock.now == 0.5
    # A NaN clock would have let a time in the past through.
    with pytest.raises(ValueError, match="schedule"):
        clock.schedule(-5.0, lambda _, t: None)


def test_first_event_fires_first():
    clock = SimClock()
    fired = []
    clock.schedule(0.0, lambda _, t: fired.append("a"))
    clock.schedule(1.0, lambda _, t: fired.append("b"))
    clock.run(2.0)
    assert fired == ["a", "b"]


def test_equal_times_fire_in_insertion_order():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda _, t: fired.append("first"))
    clock.schedule(1.0, lambda _, t: fired.append("second"))
    clock.run(1.0)
    assert fired == ["first", "second"]


def test_priority_band_beats_insertion_order():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda _, t: fired.append("normal"), priority=0)
    clock.schedule(1.0, lambda _, t: fired.append("service"), priority=-1)
    clock.run(1.0)
    assert fired == ["service", "normal"]


def test_schedule_passes_args_before_time():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda arg, t: fired.append((arg, t)), ("x", 2))
    clock.schedule(1.0, lambda arg, t: fired.append((arg, t)))
    clock.run(1.0)
    assert fired == [(("x", 2), 1.0), (None, 1.0)]


def test_priority_is_keyword_only():
    # A positional priority would be taken for a second payload.
    with pytest.raises(TypeError):
        SimClock().schedule(1.0, lambda arg, t: None, None, SERVICE_PRIORITY)


def test_run_boundary_is_inclusive():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda _, t: fired.append("at"))
    clock.schedule(1.0 + 1e-9, lambda _, t: fired.append("after"))
    clock.run(1.0)
    assert fired == ["at"]
    assert clock.now == 1.0


def test_run_with_no_events_advances_clock():
    clock = SimClock()
    clock.run(5.0)
    assert clock.now == 5.0


def test_events_scheduled_during_run_fire():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda _, t: clock.schedule(t, lambda _, t2: fired.append(t2)))
    clock.run(1.0)
    assert fired == [1.0]


# -- arrival stream -------------------------------------------------------------


def test_arrival_ties_fall_between_service_and_runtime_events():
    clock = SimClock()
    fired = []

    def arrive(name, t):
        fired.append(name)
        if name == "arrival 1":
            clock.schedule(t, lambda _, t: fired.append("service 2"), priority=SERVICE_PRIORITY)
            clock.schedule(t, lambda _, t: fired.append("runtime 2"), priority=DEFAULT_PRIORITY)

    clock.schedule(1.0, lambda _, t: fired.append("runtime 1"), priority=DEFAULT_PRIORITY)
    clock.schedule(1.0, lambda _, t: fired.append("service 1"), priority=SERVICE_PRIORITY)
    clock.run(1.0, [(1.0, "arrival 1"), (1.0, "arrival 2")], arrive)
    assert fired == [
        "service 1", "arrival 1", "service 2", "arrival 2", "runtime 1", "runtime 2"
    ]


def test_arrival_stream_fires_as_if_scheduled_first():
    # The arrivals used to be scheduled, all before the run, in band 0; the
    # merge must reproduce that order exactly, runtime events included.
    # Times on a grid of 1/8 s add exactly, so runtime events often tie with
    # arrivals and with each other.
    rng = random.Random(5)
    arrival_times = sorted(rng.randrange(24) / 8 for _ in range(60))

    def trace(merged):
        clock = SimClock()
        fired = []
        draw = random.Random(9)

        def event(name, t):
            fired.append((name, t))
            if len(fired) < 400:
                for _ in range(draw.randrange(3)):
                    at = t + draw.choice((0.0, 0.0, 0.125, 0.375))
                    priority = draw.choice((SERVICE_PRIORITY, DEFAULT_PRIORITY, 1))
                    clock.schedule(at, event, f"{name}>{priority}", priority=priority)

        arrivals = [(t, f"a{i}") for i, t in enumerate(arrival_times)]
        if merged:
            clock.run(3.0, arrivals, event)
        else:
            for t, arg in arrivals:
                clock.schedule(t, event, arg)
            clock.run(3.0)
        return fired

    merged = trace(merged=True)
    assert merged == trace(merged=False)
    assert len(merged) > 2 * len(arrival_times)


@pytest.mark.parametrize(
    "times, now",
    [
        ([0.5, float("nan")], 0.0),  # NaN
        ([0.5, 0.7, 0.6], 0.0),  # out of order
        ([0.5], 1.0),  # before the clock
    ],
    ids=["nan", "out_of_order", "past"],
)
def test_bad_arrival_time_is_rejected(times, now):
    clock = SimClock()
    clock.run(now)
    fired = []
    with pytest.raises(ValueError, match="arrival"):
        clock.run(2.0, [(t, None) for t in times], lambda arg, t: fired.append(t))
    assert len(fired) == len(times) - 1


def test_arrivals_after_until_do_not_fire():
    clock = SimClock()
    fired = []
    clock.schedule(1.5, lambda _, t: fired.append(("heap", t)))
    arrivals = [(t, "arrival") for t in (0.5, 1.0, 1.0 + 1e-9)]
    clock.run(1.0, arrivals, lambda arg, t: fired.append((arg, t)))
    assert fired == [("arrival", 0.5), ("arrival", 1.0)]
    assert clock.now == 1.0
    clock.run(2.0)
    assert fired[-1] == ("heap", 1.5)


# -- wire -----------------------------------------------------------------------


def test_wire_serializes_back_to_back():
    wire = Wire(ExperimentConfig(protocol=TransportKind.UDP))
    first = wire.transmit(0.0, SER_512)
    second = wire.transmit(0.0, SER_512)
    assert first == pytest.approx(SER_512 + PROP)
    assert second == pytest.approx(2 * SER_512 + PROP)


def test_wire_idle_restart():
    wire = Wire(ExperimentConfig(protocol=TransportKind.UDP))
    wire.transmit(0.0, SER_512)
    later = wire.transmit(1.0, SER_512)
    assert later == pytest.approx(1.0 + SER_512 + PROP)


# -- transports -------------------------------------------------------------------


def build(kind, *, seed=1, **settings):
    clock = SimClock()
    config = ExperimentConfig(protocol=kind, **settings)
    return clock, build_connection(clock, config, random.Random(seed))


def test_udp_arrival_time_is_serialization_plus_propagation(enqueued):
    _, sender = build(TransportKind.UDP)
    msg = status(1)
    sender.run(1.0, [(0.0, msg)])
    assert enqueued[id(msg)] == pytest.approx(SER_512 + PROP)


@pytest.mark.parametrize("kind", [TransportKind.UDP, TransportKind.TCP])
def test_fan_out_has_one_uplink_per_destination(kind, enqueued):
    # Each destination's sender owns its source Wire, so two messages sent
    # to two destinations at t=0 serialize in parallel, not back to back.
    messages = [status(1, sender=0), status(1, sender=1)]
    for msg in messages:
        sender = build_connection(SimClock(), ExperimentConfig(protocol=kind), random.Random(1))
        sender.run(1.0, [(0.0, msg)])
    assert [enqueued[id(m)] for m in messages] == pytest.approx([SER_512 + PROP] * 2)


@pytest.mark.parametrize(
    "times", [[float("nan")], [-1.0], [0.5, 0.2], [0.5, float("nan")]]
)
def test_udp_send_times_nan_negative_or_out_of_order_are_rejected(times):
    # Datagram sends reach the clock only as their arrivals, which a FIFO
    # wire keeps sorted, so the sender checks the send times itself.
    _, sender = build(TransportKind.UDP)
    with pytest.raises(ValueError, match="cannot send at"):
        sender.run(5.0, [(t, status(i + 1)) for i, t in enumerate(times)])
    assert sender.collector.messages_sent == len(times) - 1


def test_udp_certain_loss_delivers_nothing():
    clock, sender = build(TransportKind.UDP, loss_prob=1.0)
    for i in range(1000):
        sender.submit(status(i + 1), 0.0)
    clock.run(5.0)
    report = sender.collector.finalize(5.0, sender.receiver.queue)
    assert report.messages_lost == 1000
    assert report.delivered_to_queue == 0
    assert report.messages_delivered == 0


def test_udp_accounting_under_partial_loss():
    _, sender = build(TransportKind.UDP, loss_prob=0.3, seed=5)
    sender.run(60.0, [(i * 0.01, status(i + 1)) for i in range(2000)])
    c = sender.collector
    assert c.messages_sent == 2000
    assert c.messages_sent == sender.receiver.queue.inserted + c.messages_lost
    assert 0 < c.messages_lost < 2000


def test_tcp_window_one_staggers_arrivals_by_round_trip(enqueued):
    # Hand trace, window 1, three packets submitted together at t=0:
    #   data arrives at ser+prop; consumed immediately (no delay); the ack
    #   returns after ack_ser+prop; only then may the next packet leave.
    # Arrival spacing is therefore exactly ser + ack_ser + 2*prop.
    clock, sender = build(TransportKind.TCP, window_size=1)
    messages = [status(1), status(2, sender=1), status(3, sender=2)]
    for msg in messages:
        sender.submit(msg, 0.0)
    clock.run(5.0)
    arrivals = [enqueued[id(m)] for m in messages]
    round_trip = SER_512 + ACK_SER + 2 * PROP
    assert arrivals[0] == pytest.approx(SER_512 + PROP)
    assert arrivals[1] - arrivals[0] == pytest.approx(round_trip)
    assert arrivals[2] - arrivals[1] == pytest.approx(round_trip)


def test_tcp_delivers_exactly_once_in_order_under_loss():
    clock, sender = build(
        TransportKind.TCP, loss_prob=0.2, seed=11
    )
    consumed = []
    transport_hook = sender.receiver.on_consume
    sender.receiver.on_consume = lambda m, t: (consumed.append(m.seq), transport_hook(m, t))
    n = 200
    for i in range(n):
        clock.schedule(i * 2.7, sender.submit, status(i + 1))
    clock.run(n * 2.7 + 60.0)
    assert sender.receiver.queue.inserted == n
    assert consumed == list(range(1, n + 1))
    assert sender.collector.retransmissions > 0
    assert sender.collector.messages_lost == 0


def test_tcp_ack_count_equals_consumed_count(monkeypatch):
    # Counted at the events: every ack that reaches the source, against the
    # queue's dequeues and the report's acks_generated, lossless and lossy
    # (seed 11, as in the exactly-once test).
    acks = 0
    ack_arrive = TcpConnection._ack_arrive

    def counting(self, cum, now):
        nonlocal acks
        acks += 1
        ack_arrive(self, cum, now)

    monkeypatch.setattr(TcpConnection, "_ack_arrive", counting)
    for loss_prob in (0.0, 0.2):
        acks = 0
        clock, sender = build(TransportKind.TCP, receiver_delay_s=0.05, loss_prob=loss_prob, seed=11)
        for i in range(50):
            clock.schedule(i * 0.2, sender.submit, status(i + 1))
        clock.run(60.0)
        report = sender.collector.finalize(60.0, sender.receiver.queue)
        assert sender.receiver.queue.dequeued == 50
        assert acks == sender.receiver.queue.dequeued == report.acks_generated
        assert (sender.collector.retransmissions > 0) == (loss_prob > 0)
    # A datagram destination acks nothing: its server load is its data alone.
    _, sender = build(TransportKind.UDP, receiver_delay_s=0.05)
    sender.run(60.0, [(i * 0.2, status(i + 1)) for i in range(50)])
    report = sender.collector.finalize(60.0, sender.receiver.queue)
    assert report.messages_delivered == 50
    assert report.acks_generated == 0
    assert report.avg_server_throughput_bps == sender.collector.data_bits_enqueued / 60.0


def test_rto_timer_for_acked_seq_is_a_no_op():
    # Loss-free, and every ack returns within one round trip (~0.03 s), far
    # inside the 1 s timeout: each ack restarts the connection's timer or
    # stops it, so no timer event ever retransmits.
    clock, sender = build(TransportKind.TCP, receiver_delay_s=0.01)
    n = 50
    for i in range(n):
        clock.schedule(i * 0.2, sender.submit, status(i + 1))
    end = n * 0.2 + 2 * sender.rto_s
    clock.run(end)
    report = sender.collector.finalize(end, sender.receiver.queue)
    assert report.retransmissions == 0
    assert report.messages_delivered == n
    assert report.conservation_residual() == 0
    assert not sender.unacked and sender.in_flight == 0


class RecordingRandom(random.Random):
    """Loss draws from a script; records the clock time of every draw.

    Each data transmission draws once when ``loss_prob`` > 0, so ``times``
    lists the transmissions and each scripted 0.0 loses one.
    """

    def __init__(self, clock, script=()):
        super().__init__(0)
        self.clock = clock
        self.script = list(script)
        self.times = []

    def random(self):
        self.times.append(self.clock.now)
        return self.script.pop(0) if self.script else 0.0


def test_rto_backs_off_exponentially_up_to_the_cap():
    # Every transmission is lost. The timeout doubles after each expiry:
    # retransmissions at rto_s * (2^k - 1), until the 60 s cap spaces them.
    clock = SimClock()
    rng = RecordingRandom(clock)
    config = ExperimentConfig(protocol=TransportKind.TCP, loss_prob=1.0, rto_s=1.0)
    sender = build_connection(clock, config, rng)
    sender.submit(status(1), 0.0)
    clock.run(200.0)
    assert rng.times == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 123.0, 183.0]
    assert sender.collector.retransmissions == 8


def test_ack_of_new_data_after_backoff_pulls_the_expiry_in():
    # Seq 1 is lost at 0 and 1; its retransmission at 3 gets through and the
    # timer, backed off to 4 s, is due at 7. Seq 2 leaves at 3.001 and is
    # lost. The ack of seq 1 resets the timeout: seq 2 is retransmitted
    # rto_s after that ack, not at 7.
    clock = SimClock()
    rng = RecordingRandom(clock, script=[0.0, 0.0, 1.0, 0.0, 1.0])
    config = ExperimentConfig(protocol=TransportKind.TCP, loss_prob=0.5, rto_s=1.0)
    sender = build_connection(clock, config, rng)
    acks = []
    arrive = sender._ack_arrive
    sender._ack_arrive = lambda cum, t: (acks.append(t), arrive(cum, t))
    clock.schedule(0.0, sender.submit, status(1))
    clock.schedule(3.001, sender.submit, status(2))
    clock.run(10.0)
    assert rng.times[:4] == [0.0, 1.0, 3.0, 3.001]
    assert acks[0] == pytest.approx(3.0 + SER_512 + ACK_SER + 2 * PROP)
    assert rng.times[4] == acks[0] + 1.0
    assert sender.receiver.queue.dequeued == 2
    assert not sender.unacked and sender.in_flight == 0


@pytest.mark.parametrize("protocol", [TransportKind.TCP, TransportKind.TCP_UQA])
def test_non_integral_window_rounds_up(protocol):
    # Only the API passes a float window (the CLI casts to int). A message is
    # sent while fewer than window_size are in flight, so 2.5 keeps 3 packets
    # in flight: it runs as window 3, not as window 2.
    cfg = ExperimentConfig(
        protocol=protocol, topology="one_to_many", receiver_delay_s=0.05, loss_prob=0.2, seed=7
    )
    reports = {
        w: run_experiment(cfg._replace(window_size=w)).per_destination for w in (2, 2.5, 3)
    }
    assert reports[2.5] == reports[3]
    assert reports[2.5] != reports[2]


def test_lossless_connection_keeps_at_most_one_timer_event(monkeypatch):
    # The timer is restarted on every ack but moves only later, so no event
    # is superseded: each connection has at most one _rto_fire pending.
    class CheckingClock(SimClock):
        def schedule(self, at, fn, arg=None, *, priority=DEFAULT_PRIORITY):
            super().schedule(at, fn, arg, priority=priority)
            if fn is TcpConnection._rto_fire:
                owner = arg
                assert sum(
                    entry[3] is TcpConnection._rto_fire and entry[4] is owner
                    for entry in self._heap
                ) <= 1
                timers.append(at)

    timers = []
    monkeypatch.setattr(harness, "SimClock", CheckingClock)
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP, topology="one_to_many", receiver_delay_s=0.05, seed=20100
    )
    result = run_experiment(cfg)
    assert result.report.retransmissions == 0
    assert result.report.messages_delivered == cfg.message_count
    assert 0 < len(timers) < cfg.message_count * cfg.destinations


@pytest.mark.parametrize(
    "protocol, topology, delay",
    [
        (TransportKind.TCP, "one_to_one", 0.05),
        (TransportKind.UDP, "one_to_many", 0.05),
        (TransportKind.TCP, "one_to_one", 0.0),
        (TransportKind.UDP, "one_to_one", 0.0),
    ],
)
def test_idle_receiver_schedules_at_most_one_service_per_delivery(
    monkeypatch, protocol, topology, delay
):
    # Every service event dequeues a message, and at most one per
    # destination is still pending when the run ends. A delivery that finds
    # the consumer idle and free serves it in the same event, so the
    # loss-free delay-0 cells, whose consumer keeps up, push none.
    service_calls = []

    class CountingClock(SimClock):
        def schedule(self, at, fn, arg=None, *, priority=DEFAULT_PRIORITY):
            if priority == SERVICE_PRIORITY:
                service_calls.append(at)
            super().schedule(at, fn, arg, priority=priority)

    monkeypatch.setattr(harness, "SimClock", CountingClock)
    cfg = ExperimentConfig(
        protocol=protocol, topology=topology, receiver_delay_s=delay, seed=20100
    )
    result = run_experiment(cfg)
    delivered = sum(rep.messages_delivered for rep in result.per_destination)
    assert delivered > 0
    assert len(service_calls) <= delivered + cfg.destinations
    if delay == 0.0:
        assert service_calls == []


def test_causality_enqueue_after_created_plus_propagation(enqueued):
    for kind in TransportKind:
        enqueued.clear()
        _, sender = build(kind, receiver_delay_s=0.01)
        records = [(i * 0.05, status(i + 1)) for i in range(100)]
        sender.run(30.0, records)
        for t_send, msg in records:
            assert id(msg) in enqueued
            assert enqueued[id(msg)] >= t_send + PROP - 1e-12


# -- receiver ---------------------------------------------------------------------


def make_receiver(policy="fifo", delay=0.0, app_cost=0.0):
    clock = SimClock()
    receiver = Receiver(clock, delay + app_cost, policy)
    return clock, receiver


def test_zero_delay_drains_immediately():
    clock, receiver = make_receiver(delay=0.0)
    for i in range(10):
        clock.schedule(i * 0.1, receiver.arrive, status(i + 1))
    clock.run(2.0)
    report = receiver.collector.finalize(2.0, receiver.queue)
    assert report.messages_delivered == 10
    assert report.peak_queue_len == 1  # transient occupancy only
    assert report.avg_queue_len == 0.0
    assert report.avg_time_in_queue_s == 0.0


def test_overloaded_fifo_grows_one_per_service_interval():
    # Arrivals every 0.05 s against a 0.1 s service delay: the backlog grows
    # by one message per 0.1 s. Forty arrivals by t = 1.96, twenty dequeues
    # (t = 0, 0.1, ..., 1.9) leave exactly twenty waiting.
    clock, receiver = make_receiver(delay=0.1)
    for i in range(40):
        clock.schedule(i * 0.05, receiver.arrive, status(i + 1))
    clock.run(1.96)
    assert len(receiver.queue) == 20
    assert receiver.queue.dequeued == 20


def test_overloaded_uqa_single_sender_stays_bounded():
    # Same overload, all statuses from one sender, coalescing insertion:
    # every arrival either lands in an empty queue or replaces the stored
    # tail, so the backlog never exceeds one message.
    clock, receiver = make_receiver(policy="uqa", delay=0.1)
    for i in range(40):
        clock.schedule(i * 0.05, receiver.arrive, status(i + 1))
    clock.run(2.0)
    report = receiver.collector.finalize(2.0, receiver.queue)
    assert report.peak_queue_len == 1
    assert len(receiver.queue) <= 1
    assert receiver.queue.replaced > 0
    assert report.avg_queue_len <= 1.0


def test_dequeue_processed_before_simultaneous_arrival():
    # A service tick and an arrival at the same instant: the stored message
    # leaves first, so the newcomer cannot coalesce with it.
    clock, receiver = make_receiver(policy="uqa", delay=1.0)
    clock.schedule(0.0, receiver.arrive, status(1))  # consumed at t=0
    clock.schedule(0.5, receiver.arrive, status(2))  # waits until t=1
    clock.schedule(1.0, receiver.arrive, status(3))  # arrives at tick
    clock.run(3.0)
    assert receiver.queue.replaced == 0
    assert receiver.queue.dequeued == 3


# (protocol, queue_variant) -> the receive queue's insertion method.
ENQUEUE_METHODS = {
    ("tcp", "tail"): "enqueue_fifo",
    ("tcp", "keyed"): "enqueue_fifo",
    ("udp", "tail"): "enqueue_fifo",
    ("udp", "keyed"): "enqueue_fifo",
    ("tcp_uqa", "tail"): "enqueue_uqa",
    ("tcp_uqa", "keyed"): "enqueue_keyed",
    ("udp_uqa", "tail"): "enqueue_uqa",
    ("udp_uqa", "keyed"): "enqueue_keyed",
}


@pytest.mark.parametrize("protocol, variant", list(ENQUEUE_METHODS))
def test_queue_policy_selection(protocol, variant):
    config = ExperimentConfig(protocol=TransportKind(protocol), queue_variant=variant)
    sender = build_connection(SimClock(), config, random.Random(1))
    assert sender.receiver.enqueue.__name__ == ENQUEUE_METHODS[protocol, variant]


def test_udp_receiver_carries_app_cost_tcp_does_not():
    # Zero receiver delay, so each hold is the application cost alone.
    _, udp = build(TransportKind.UDP)
    _, tcp = build(TransportKind.TCP)
    assert udp.receiver.hold_s == ExperimentConfig(protocol=TransportKind.UDP).udp_app_per_msg_s
    assert tcp.receiver.hold_s == 0.0


# -- accounting against transport state --------------------------------------------


def run_cell_keeping_senders(monkeypatch, config):
    """Run one harness cell; also return the senders it built."""
    senders = []

    def keep(*args):
        senders.append(build_connection(*args))
        return senders[-1]

    monkeypatch.setattr(harness, "build_connection", keep)
    return run_experiment(config), senders


def test_residual_is_tcp_messages_in_transport(monkeypatch):
    # 300 messages in 18 s against a consumer that takes 0.1 s each: the run
    # ends with messages still in the send buffer, the window and, under
    # loss, the reorder buffer. Each of them was assigned a transport seq
    # and not yet handed to the receiver.
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP, receiver_delay_s=0.1, message_count=300,
        run_duration_s=20.0, loss_prob=0.1, seed=3,
    )
    result, (sender,) = run_cell_keeping_senders(monkeypatch, cfg)
    residual = result.report.conservation_residual()
    assert residual > 0
    assert residual == sender.collector.messages_sent - sender.receiver.queue.inserted


def test_residual_is_udp_datagrams_in_flight(monkeypatch):
    # A 2 s propagation delay and sends until 1 s before the run end: the
    # last datagrams are still on the wire, arriving after the run end.
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP, topology="one_to_many", message_count=300,
        run_duration_s=20.0, send_window_fraction=0.95, seed=3,
        propagation_delay_s=2.0, loss_prob=0.1,
    )
    arrivals = {}  # sender -> arrival time of each datagram not lost
    submit = UdpSender.submit

    def recording(self, msg, now):
        at = submit(self, msg, now)
        if at is not None:
            arrivals.setdefault(self, []).append(at)
        return at

    monkeypatch.setattr(UdpSender, "submit", recording)
    result, senders = run_cell_keeping_senders(monkeypatch, cfg)
    in_flight = [sum(at > cfg.duration_s for at in arrivals[sender]) for sender in senders]
    assert len(in_flight) == cfg.destinations
    assert sum(in_flight) > 0
    assert [rep.conservation_residual() for rep in result.per_destination] == in_flight


@pytest.mark.parametrize("seed", range(5))
def test_udp_sends_count_when_their_datagrams_arrive_after_the_run(seed):
    # Sends until the run end over a 0.5 s wire: the clock stops at the first
    # arrival past the end, and the sender still sends what follows it.
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP, message_count=300, run_duration_s=20.0,
        send_window_fraction=1.0, propagation_delay_s=0.5, seed=seed,
    )
    assert run_experiment(cfg).report.messages_sent == 300


@pytest.mark.parametrize(
    "protocol, variant",
    [(TransportKind.TCP, "tail"), (TransportKind.UDP_UQA, "keyed")],
)
def test_delivered_to_queue_counts_receiver_deliver_calls(monkeypatch, protocol, variant):
    # The traced benchmark fails a run whose Receiver.deliver call count and
    # summed delivered_to_queue differ.
    calls = []
    deliver = Receiver.deliver

    def counting(self, msg, now):
        calls.append(msg)
        deliver(self, msg, now)

    monkeypatch.setattr(Receiver, "deliver", counting)
    cfg = ExperimentConfig(
        protocol=protocol, topology="one_to_many", queue_variant=variant,
        receiver_delay_s=0.05, message_count=200, loss_prob=0.1, seed=9,
    )
    result = run_experiment(cfg)
    assert len(calls) > 0
    assert sum(rep.delivered_to_queue for rep in result.per_destination) == len(calls)


# -- determinism -------------------------------------------------------------------


def test_identical_config_identical_report():
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP_UQA,
        topology="one_to_one",
        packet_size_bytes=256,
        receiver_delay_s=0.05,
        seed=424242,
    )
    first = run_experiment(cfg).report
    second = run_experiment(cfg).report
    assert first == second
