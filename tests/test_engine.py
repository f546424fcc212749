import random

import pytest

from uqsim import harness
from uqsim.engine import (
    DEFAULT_PRIORITY,
    SERVICE_PRIORITY,
    QueueMode,
    Receiver,
    SimClock,
    TransportKind,
    Wire,
    build_connection,
    queue_mode_for,
)
from uqsim.harness import ExperimentConfig, run_experiment
from uqsim.messages import Message, MessageKind

SER_512 = 512 * 8 / 1_000_000  # 0.004096 s at the default link rate
ACK_SER = 40 * 8 / 1_000_000  # 0.00032 s
PROP = 0.010


def status(seq, sender=0, size=512):
    return Message(seq=seq, sender=sender, kind=MessageKind.STATUS, size_bytes=size)


# -- clock ----------------------------------------------------------------------


def test_schedule_in_past_fails():
    clock = SimClock()
    clock.schedule(1.0, lambda t: None)
    clock.run(1.0)
    with pytest.raises(ValueError, match="schedule"):
        clock.schedule(0.5, lambda t: None)


@pytest.mark.parametrize("call", ["schedule", "run"])
def test_nan_time_is_rejected_and_changes_nothing(call):
    clock = SimClock()
    clock.schedule(1.0, lambda t: None)
    clock.run(0.5)
    heap = list(clock._heap)
    with pytest.raises(ValueError, match="nan"):
        if call == "schedule":
            clock.schedule(float("nan"), lambda t: None)
        else:
            clock.run(float("nan"))
    assert clock._heap == heap
    assert clock.now == 0.5
    # A NaN clock would have let a time in the past through.
    with pytest.raises(ValueError, match="schedule"):
        clock.schedule(-5.0, lambda t: None)


def test_first_event_fires_first():
    clock = SimClock()
    fired = []
    clock.schedule(0.0, lambda t: fired.append("a"))
    clock.schedule(1.0, lambda t: fired.append("b"))
    clock.run(2.0)
    assert fired == ["a", "b"]


def test_equal_times_fire_in_insertion_order():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda t: fired.append("first"))
    clock.schedule(1.0, lambda t: fired.append("second"))
    clock.run(1.0)
    assert fired == ["first", "second"]


def test_priority_band_beats_insertion_order():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda t: fired.append("normal"), priority=0)
    clock.schedule(1.0, lambda t: fired.append("service"), priority=-1)
    clock.run(1.0)
    assert fired == ["service", "normal"]


def test_schedule_passes_args_before_time():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda a, b, t: fired.append((a, b, t)), "x", 2)
    clock.run(1.0)
    assert fired == [("x", 2, 1.0)]


def test_run_boundary_is_inclusive():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, lambda t: fired.append("at"))
    clock.schedule(1.0 + 1e-9, lambda t: fired.append("after"))
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
    clock.schedule(1.0, lambda t: clock.schedule(t, lambda t2: fired.append(t2)))
    clock.run(1.0)
    assert fired == [1.0]


# -- arrival stream -------------------------------------------------------------


def test_arrival_ties_fall_between_service_and_runtime_events():
    clock = SimClock()
    fired = []

    def arrive(name, t):
        fired.append(name)
        if name == "arrival 1":
            clock.schedule(t, lambda t: fired.append("service 2"), priority=SERVICE_PRIORITY)
            clock.schedule(t, lambda t: fired.append("runtime 2"), priority=DEFAULT_PRIORITY)

    clock.schedule(1.0, lambda t: fired.append("runtime 1"), priority=DEFAULT_PRIORITY)
    clock.schedule(1.0, lambda t: fired.append("service 1"), priority=SERVICE_PRIORITY)
    clock.run(1.0, [(1.0, arrive, "arrival 1"), (1.0, arrive, "arrival 2")])
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

        arrivals = [(t, event, f"a{i}") for i, t in enumerate(arrival_times)]
        if merged:
            clock.run(3.0, arrivals)
        else:
            for t, fn, arg in arrivals:
                clock.schedule(t, fn, arg)
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
        clock.run(2.0, [(t, lambda arg, t: fired.append(t), None) for t in times])
    assert len(fired) == len(times) - 1


def test_arrivals_after_until_do_not_fire():
    clock = SimClock()
    fired = []
    clock.schedule(1.5, lambda t: fired.append(("heap", t)))
    arrivals = [(t, lambda arg, t: fired.append((arg, t)), "arrival") for t in (0.5, 1.0, 1.0 + 1e-9)]
    clock.run(1.0, arrivals)
    assert fired == [("arrival", 0.5), ("arrival", 1.0)]
    assert clock.now == 1.0
    clock.run(2.0)
    assert fired[-1] == ("heap", 1.5)


# -- wire -----------------------------------------------------------------------


def test_wire_serializes_back_to_back():
    wire = Wire(ExperimentConfig(protocol=TransportKind.UDP))
    first = wire.transmit(0.0, 512)
    second = wire.transmit(0.0, 512)
    assert first == pytest.approx(SER_512 + PROP)
    assert second == pytest.approx(2 * SER_512 + PROP)


def test_wire_idle_restart():
    wire = Wire(ExperimentConfig(protocol=TransportKind.UDP))
    wire.transmit(0.0, 512)
    later = wire.transmit(1.0, 512)
    assert later == pytest.approx(1.0 + SER_512 + PROP)


# -- transports -------------------------------------------------------------------


def build(kind, *, seed=1, **settings):
    clock = SimClock()
    config = ExperimentConfig(protocol=kind, **settings)
    return clock, build_connection(clock, config, random.Random(seed))


def test_udp_arrival_time_is_serialization_plus_propagation():
    clock, sender = build(TransportKind.UDP)
    msg = status(1)
    sender.submit(msg, 0.0)
    clock.run(1.0)
    assert msg.t_enqueued == pytest.approx(SER_512 + PROP)


@pytest.mark.parametrize("kind", [TransportKind.UDP, TransportKind.TCP])
def test_fan_out_has_one_uplink_per_destination(kind):
    # Each destination's sender owns its source Wire, so two messages sent
    # to two destinations at t=0 serialize in parallel, not back to back.
    clock = SimClock()
    messages = [status(1, sender=0), status(1, sender=1)]
    for msg in messages:
        sender = build_connection(clock, ExperimentConfig(protocol=kind), random.Random(1))
        sender.submit(msg, 0.0)
    clock.run(1.0)
    assert [m.t_enqueued for m in messages] == pytest.approx([SER_512 + PROP] * 2)


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
    clock, sender = build(TransportKind.UDP, loss_prob=0.3, seed=5)
    for i in range(2000):
        clock.schedule(i * 0.01, sender.submit, status(i + 1))
    clock.run(60.0)
    c = sender.collector
    assert c.messages_sent == 2000
    assert c.messages_sent == sender.receiver.queue.inserted + c.messages_lost
    assert 0 < c.messages_lost < 2000


def test_tcp_window_one_staggers_arrivals_by_round_trip():
    # Hand trace, window 1, three packets submitted together at t=0:
    #   data arrives at ser+prop; consumed immediately (no delay); the ack
    #   returns after ack_ser+prop; only then may the next packet leave.
    # Arrival spacing is therefore exactly ser + ack_ser + 2*prop.
    clock, sender = build(TransportKind.TCP, window_size=1)
    messages = [status(1), status(2, sender=1), status(3, sender=2)]
    for msg in messages:
        sender.submit(msg, 0.0)
    clock.run(5.0)
    arrivals = [m.t_enqueued for m in messages]
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


def test_tcp_ack_count_equals_consumed_count():
    clock, sender = build(TransportKind.TCP, receiver_delay_s=0.05)
    for i in range(50):
        clock.schedule(i * 0.2, sender.submit, status(i + 1))
    clock.run(60.0)
    assert sender.receiver.queue.dequeued == 50
    assert sender.collector.acks_generated == sender.receiver.queue.dequeued


def test_rto_timer_for_acked_seq_is_a_no_op():
    # Loss-free, and every ack returns within one round trip (~0.03 s), far
    # inside the 1 s timeout: each timer fires after its seq was acked and
    # must return without retransmitting.
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
    assert sender.pending == {}


@pytest.mark.parametrize(
    "protocol, topology",
    [(TransportKind.TCP, "one_to_one"), (TransportKind.UDP, "one_to_many")],
)
def test_idle_receiver_schedules_at_most_one_service_per_delivery(
    monkeypatch, protocol, topology
):
    # Every service event dequeues a message, and at most one per
    # destination is still pending when the run ends.
    service_calls = []

    class CountingClock(SimClock):
        def schedule(self, at, fn, *args, priority=DEFAULT_PRIORITY):
            if priority == SERVICE_PRIORITY:
                service_calls.append(at)
            super().schedule(at, fn, *args, priority=priority)

    monkeypatch.setattr(harness, "SimClock", CountingClock)
    cfg = ExperimentConfig(
        protocol=protocol, topology=topology, receiver_delay_s=0.05, seed=20100
    )
    result = run_experiment(cfg)
    delivered = sum(rep.messages_delivered for rep in result.per_destination)
    assert delivered > 0
    assert len(service_calls) <= delivered + cfg.destinations


def test_causality_enqueue_after_created_plus_propagation():
    for kind in TransportKind:
        clock, sender = build(kind, receiver_delay_s=0.01)
        records = [(i * 0.05, status(i + 1)) for i in range(100)]
        for t_send, msg in records:
            clock.schedule(t_send, sender.submit, msg)
        clock.run(30.0)
        for t_send, msg in records:
            assert msg.t_enqueued is not None
            assert msg.t_enqueued >= t_send + PROP - 1e-12


# -- receiver ---------------------------------------------------------------------


def make_receiver(mode=QueueMode.FIFO, delay=0.0, app_cost=0.0):
    clock = SimClock()
    receiver = Receiver(clock, delay, mode, app_cost_s=app_cost)
    return clock, receiver


def test_zero_delay_drains_immediately():
    clock, receiver = make_receiver(delay=0.0)
    for i in range(10):
        clock.schedule(i * 0.1, lambda t, m=status(i + 1): receiver.deliver(m, t))
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
        clock.schedule(i * 0.05, lambda t, m=status(i + 1): receiver.deliver(m, t))
    clock.run(1.96)
    assert len(receiver.queue) == 20
    assert receiver.queue.dequeued == 20


def test_overloaded_uqa_single_sender_stays_bounded():
    # Same overload, all statuses from one sender, coalescing insertion:
    # every arrival either lands in an empty queue or replaces the stored
    # tail, so the backlog never exceeds one message.
    clock, receiver = make_receiver(mode=QueueMode.UQA_TAIL, delay=0.1)
    for i in range(40):
        clock.schedule(i * 0.05, lambda t, m=status(i + 1): receiver.deliver(m, t))
    clock.run(2.0)
    report = receiver.collector.finalize(2.0, receiver.queue)
    assert report.peak_queue_len == 1
    assert len(receiver.queue) <= 1
    assert receiver.queue.replaced > 0
    assert report.avg_queue_len <= 1.0


def test_dequeue_processed_before_simultaneous_arrival():
    # A service tick and an arrival at the same instant: the stored message
    # leaves first, so the newcomer cannot coalesce with it.
    clock, receiver = make_receiver(mode=QueueMode.UQA_TAIL, delay=1.0)
    clock.schedule(0.0, lambda t: receiver.deliver(status(1), t))  # consumed at t=0
    clock.schedule(0.5, lambda t: receiver.deliver(status(2), t))  # waits until t=1
    clock.schedule(1.0, lambda t: receiver.deliver(status(3), t))  # arrives at tick
    clock.run(3.0)
    assert receiver.queue.replaced == 0
    assert receiver.queue.dequeued == 3


def test_receiver_rejects_negative_delay():
    clock = SimClock()
    with pytest.raises(ValueError, match="receiver_delay_s"):
        Receiver(clock, -0.1, QueueMode.FIFO)


def test_queue_mode_selection():
    assert queue_mode_for(TransportKind.TCP) is QueueMode.FIFO
    assert queue_mode_for(TransportKind.UDP) is QueueMode.FIFO
    assert queue_mode_for(TransportKind.TCP_UQA) is QueueMode.UQA_TAIL
    assert queue_mode_for(TransportKind.UDP_UQA, "keyed") is QueueMode.UQA_KEYED


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
    assert residual == sender.next_seq - sender.expected


def test_residual_is_udp_datagrams_in_flight(monkeypatch):
    # A 2 s propagation delay and sends until 1 s before the run end: the
    # last datagrams are still on the wire, as pending deliver events.
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP, topology="one_to_many", message_count=300,
        run_duration_s=20.0, send_window_fraction=0.95, seed=3,
        propagation_delay_s=2.0, loss_prob=0.1,
    )
    result, senders = run_cell_keeping_senders(monkeypatch, cfg)
    in_flight = [
        sum(entry[3] == sender.receiver.deliver for entry in sender.clock._heap)
        for sender in senders
    ]
    assert len(in_flight) == cfg.destinations
    assert sum(in_flight) > 0
    assert [rep.conservation_residual() for rep in result.per_destination] == in_flight


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
