import random
import sys

import pytest

from uqsim.engine import (
    Receiver,
    SimClock,
    TransportKind,
    build_connection,
)
from uqsim.harness import ExperimentConfig
from uqsim.messages import Message, MessageKind
from uqsim.metrics import (
    MetricsCollector,
    littles_law_residual,
    mean,
    mean_report,
)
from uqsim.queues import UpdatableQueue


def command(seq, size=64):
    return Message(seq=seq, sender=0, kind=MessageKind.COMMAND, size_bytes=size)


def status(seq, sender=1):
    return Message(seq=seq, sender=sender, kind=MessageKind.STATUS, size_bytes=64)


def fifo_queue(enqueued, dequeued):
    """A real queue that took ``enqueued`` commands and gave back ``dequeued``."""
    queue = UpdatableQueue()
    for seq in range(1, enqueued + 1):
        queue.enqueue_fifo(command(seq))
    for _ in range(dequeued):
        queue.dequeue()
    return queue


def run_receiver(feed, until, delay=0.0):
    """Fire ``(t, method, msg)`` records on a FIFO receiver's clock; its report at ``until``."""
    clock = SimClock()
    receiver = Receiver(clock, delay, "fifo")
    for t, method, msg in feed:
        clock.schedule(t, getattr(receiver, method), msg)
    clock.run(until)
    return receiver.collector.finalize(until, receiver.queue)


def test_constant_length_average():
    # Five messages enqueued at t = 0 and never served: length 5 throughout.
    report = run_receiver([(0.0, "deliver", command(seq)) for seq in range(1, 6)], 10.0)
    assert report.avg_queue_len == 5.0
    assert report.peak_queue_len == 5


def test_step_function_average_and_peak():
    # Empty until t = 5, then ten messages that are never served.
    report = run_receiver([(5.0, "deliver", command(seq)) for seq in range(1, 11)], 10.0)
    assert report.avg_queue_len == 5.0
    assert report.peak_queue_len == 10


def test_zero_duration_reports_zeros():
    report = MetricsCollector().finalize(0.0, UpdatableQueue())
    assert report.avg_queue_len == 0.0
    assert report.avg_client_throughput_bps == 0.0
    assert report.avg_server_throughput_bps == 0.0
    assert report.avg_time_in_queue_s == 0.0


def test_zero_width_spike_contributes_nothing():
    # A free consumer serves the message at t = 1 in its delivering event.
    report = run_receiver([(1.0, "arrive", command(1))], 10.0)
    assert report.avg_queue_len == 0.0
    assert report.peak_queue_len == 1


def test_decreasing_sample_time_rejected():
    # The clock rejects an out-of-order arrival before the receiver samples it.
    clock = SimClock()
    receiver = Receiver(clock, 10.0, "fifo")
    with pytest.raises(ValueError, match="arrival"):
        clock.run(5.0, [(2.0, command(1)), (1.0, command(2))], receiver.arrive)
    assert receiver.queue.inserted == 1
    assert receiver.collector.last_sample_t == 2.0
    # The length integral starts at t = 0, so no first arrival may precede it.
    receiver = Receiver(SimClock(), 10.0, "fifo")
    with pytest.raises(ValueError, match="arrival"):
        receiver.clock.run(1.0, [(-1.0, command(1))], receiver.arrive)
    assert receiver.queue.inserted == 0
    assert receiver.collector.last_sample_t == 0.0


def test_time_weighted_matches_arithmetic_on_uniform_grid():
    # Constant length sampled on a uniform grid: the time-weighted mean must
    # equal the arithmetic mean of the samples. The consumer serves one
    # message a second, and a message arrives each second after its service,
    # so the length is 3 at every grid point t = 0, 1, ..., 10.
    clock = SimClock()
    receiver = Receiver(clock, 1.0, "fifo")
    lengths = []
    for i in range(11):
        clock.schedule(float(i), lambda _, t: lengths.append(len(receiver.queue)), priority=1)
    feed = [(0.0, command(seq)) for seq in range(1, 5)]
    feed += [(float(i), command(i + 4)) for i in range(1, 11)]
    clock.run(10.0, feed, receiver.arrive)
    report = receiver.collector.finalize(10.0, receiver.queue)
    assert lengths == [3] * 11
    assert report.avg_queue_len == pytest.approx(sum(lengths) / len(lengths))


def test_server_throughput_definitional_arithmetic():
    # Ten 512-byte messages enqueued over ten seconds, no acks. The clock
    # never runs, so the receiver only enqueues.
    receiver = Receiver(SimClock(), 0.0, "fifo")
    for i in range(10):
        receiver.deliver(command(i + 1, size=512), float(i))
    report = receiver.collector.finalize(10.0, receiver.queue)
    assert report.delivered_to_queue == 10
    assert report.avg_server_throughput_bps == pytest.approx(4096.0)


def send_one(kind, run_to, loss_prob=0.0):
    """Submit one 512-byte (4096-bit) message at t=0 on a 1 Mbit/s link."""
    clock = SimClock()
    config = ExperimentConfig(protocol=kind, loss_prob=loss_prob)
    sender = build_connection(clock, config, random.Random(1))
    sender.submit(command(1, size=512), 0.0)
    clock.run(run_to)
    return sender.collector.finalize(run_to, sender.receiver.queue)


def test_client_throughput_is_work_rate():
    # 4096 bits over 0.004096 s of serialization, the source's only work.
    report = send_one(TransportKind.UDP, 10.0)
    assert report.messages_sent == 1
    assert report.avg_client_throughput_bps == pytest.approx(1_000_000.0)


def test_retransmissions_do_not_count_as_goodput():
    # Every transmission is lost: the first at t=0 and one retransmission at
    # the 1 s timeout by t=1.5. Both took serialization time; only the first
    # counts its bits.
    report = send_one(TransportKind.TCP, 1.5, loss_prob=1.0)
    assert report.retransmissions == 1
    assert report.avg_client_throughput_bps == pytest.approx(500_000.0)


def test_zero_messages_all_zero_report():
    report = MetricsCollector().finalize(10.0, UpdatableQueue())
    assert report.messages_sent == 0
    assert report.messages_delivered == 0
    assert report.avg_queue_len == 0.0
    assert report.avg_time_in_queue_s == 0.0
    assert report.conservation_residual() == 0


def test_wait_time_averages_delivered_only():
    # Updatable queue, 2 s of hold after each dequeue:
    #   t=0    command delivered and consumed at once (wait 0)
    #   t=0.5  status queued behind the busy consumer
    #   t=1    newer status from the same sender replaces it
    #   t=2    the newer status is consumed (wait 1); a command arrives
    #   t=4    the command is consumed (wait 2)
    # The replaced status carries no wait time: (0 + 1 + 2) / 3.
    clock = SimClock()
    receiver = Receiver(clock, 2.0, "uqa")
    for t, msg in ((0.0, command(1)), (0.5, status(1)), (1.0, status(2)), (2.0, command(2))):
        clock.schedule(t, receiver.arrive, msg)
    clock.run(5.0)
    report = receiver.collector.finalize(5.0, receiver.queue)
    assert report.messages_replaced == 1
    assert report.messages_delivered == 3
    assert report.avg_time_in_queue_s == 1.0


def test_conservation_residual_and_in_transport():
    c = MetricsCollector()
    c.messages_sent = 10
    c.messages_lost = 1
    # Eight reach the queue: six consumed, then a status replaced by a newer one.
    queue = UpdatableQueue()
    for seq in range(1, 7):
        queue.enqueue_uqa(command(seq))
        queue.dequeue()
    queue.enqueue_uqa(status(1))
    queue.enqueue_uqa(status(2))
    report = c.finalize(1.0, queue)
    assert (report.delivered_to_queue, report.messages_replaced) == (8, 1)
    # 10 sent = 6 consumed + 1 replaced + 1 lost + 1 queued + 1 in transport
    assert report.conservation_residual() == 1


def test_littles_law_on_deterministic_feed():
    # Synthetic D/D/1: one arrival every 0.2 s, each waiting 0.1 s for a
    # consumer that is busy until t = 0.1 and then serves every 0.2 s.
    # L = lambda * W = 5 * 0.1 = 0.5 with zero residual.
    clock = SimClock()
    receiver = Receiver(clock, 0.2, "fifo")
    receiver.ready_at = 0.1
    n = 200
    clock.run(n * 0.2, [(i * 0.2, command(i + 1)) for i in range(n)], receiver.arrive)
    duration = n * 0.2
    report = receiver.collector.finalize(duration, receiver.queue)
    assert report.avg_time_in_queue_s == pytest.approx(0.1)
    assert littles_law_residual(report) <= 0.05


def test_littles_law_zero_traffic():
    report = MetricsCollector().finalize(10.0, UpdatableQueue())
    assert littles_law_residual(report) == 0.0


def test_mean_report_averages_fields():
    a = MetricsCollector()
    a.messages_sent = 1
    a.data_bits_enqueued = 100.0
    a.wait_time_sum_s = 1.0
    b = MetricsCollector()
    b.messages_sent = 3
    ra = a.finalize(10.0, fifo_queue(enqueued=1, dequeued=1))
    rb = b.finalize(10.0, UpdatableQueue())
    mean = mean_report([ra, rb])
    assert mean.messages_sent == 2.0
    assert mean.messages_delivered == 0.5
    assert mean.run_duration_s == 10.0


def test_mean_report_requires_input():
    with pytest.raises(ValueError):
        mean_report([])


def test_mean_report_preserves_conservation():
    reports = []
    for sent, consumed, queued in ((10, 9, 1), (10, 7, 3)):
        c = MetricsCollector()
        c.messages_sent = sent
        queue = fifo_queue(enqueued=consumed + queued, dequeued=consumed)
        reports.append(c.finalize(1.0, queue))
    assert all(r.conservation_residual() == 0 for r in reports)
    assert mean_report(reports).conservation_residual() == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mean_report_of_throughputs_near_the_float_maximum_is_finite(n):
    # Their plain sum overflows; it used to make the fan-out mean inf.
    report = MetricsCollector().finalize(1.0, UpdatableQueue())
    reports = [report._replace(avg_client_throughput_bps=sys.float_info.max)] * n
    assert mean_report(reports).avg_client_throughput_bps == sys.float_info.max


def test_mean_divides_the_plain_sum_unless_it_overflows():
    values = [0.1, 0.2, 0.3, 0.7]
    assert mean(values) == sum(values) / len(values)
    big = sys.float_info.max
    assert mean([big, -big, big * 0.5]) == (big - big + big * 0.5) / 3  # no overflow
    assert mean([big, big * 0.5, big]) == pytest.approx(big / 6 * 5, rel=1e-15)
    assert mean([-big, -big, -big]) == -big
    assert mean([big, float("inf")]) == float("inf")  # an infinite value stays infinite


def test_negative_duration_rejected():
    with pytest.raises(ValueError, match="run_duration_s"):
        MetricsCollector().finalize(-1.0, UpdatableQueue())
