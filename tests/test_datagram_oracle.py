"""An independent timing oracle for the datagram path.

A ``udp`` destination is a FIFO wire feeding a FIFO consumer with a fixed
hold, so the timings of its delivered messages follow Lindley's recursion
(D. V. Lindley, *Proc. Cambridge Phil. Soc.* 48, 1952). A lost datagram
never occupies the wire, so under loss the recursion runs over the sends
that survive the destination's loss draws. The recursion lives here, not in
``src/``: the program keeps one path, and this test derives the same
numbers a second way from the cell's traffic and loss seed alone.

A ``udp_uqa`` destination has the same wire and hold, and its queue holds
one sender's messages (a one-to-many cell's sender sends each destination
its own stream), so an arriving status replaces the stored tail whenever that tail is
a status. Its queue is rebuilt by one list-based single-server pass.
"""

import random
from bisect import bisect_right

import pytest

from uqsim.engine import TransportKind
from uqsim.harness import (
    DEFAULT_MASTER_SEED,
    default_configs,
    destination_schedules,
    run_experiment,
)
from uqsim.messages import MessageKind
from uqsim.traffic import derive_seed


def wire_arrivals(schedule, config):
    """Queue arrival time of each send: it starts when the link is free and
    arrives a propagation delay after its serialization ends."""
    free = 0.0
    arrivals = []
    for t_send, msg in schedule:
        start = t_send if t_send > free else free
        free = start + msg.size_bytes * 8.0 / config.bandwidth_bps
        arrivals.append(free + config.propagation_delay_s)
    return arrivals


def lindley(schedule, config):
    """Queue arrival and dequeue times (A, D) of one destination's messages.

    Consumer: each dequeue is followed by the hold, and a message waits for
    the previous hold to end.
    """
    hold = config.receiver_delay_s + config.udp_app_per_msg_s
    arrivals, departures = wire_arrivals(schedule, config), []
    d = -float("inf")
    for a in arrivals:
        d = max(a, d + hold)
        departures.append(d)
    return arrivals, departures


def coalescing_queue(schedule, config):
    """(replaced, peak, waits, occupancy) of a one-sender tail-replacing queue.

    One pass over the arrivals with a list as the queue. Ties follow the
    engine: a pending dequeue at a time <= the arrival is served first, and a
    free, idle consumer serves the arrival in its own event, after the
    length is read. ``occupancy`` is the integral of the length over time,
    summed per stored entry: a delivered one holds its slot until its
    dequeue, a replaced one until the status that replaces it.
    """
    hold = config.receiver_delay_s + config.udp_app_per_msg_s
    queue = []  # [kind, t_enqueued], head first
    waits, replaced, peak, occupancy = [], 0, 0, 0.0
    ready_at, next_dequeue = 0.0, None  # next_dequeue None: the consumer is idle

    def dequeue(t):
        nonlocal next_dequeue, ready_at
        _, t_enqueued = queue.pop(0)
        waits.append(t - t_enqueued)
        if queue:
            next_dequeue = t + hold
        else:
            next_dequeue, ready_at = None, t + hold

    arrivals = wire_arrivals(schedule, config)
    for a, (_, msg) in zip(arrivals, schedule):
        while next_dequeue is not None and next_dequeue <= a:
            dequeue(next_dequeue)
        if msg.kind is MessageKind.STATUS and queue and queue[-1][0] is MessageKind.STATUS:
            occupancy += a - queue[-1][1]
            queue[-1] = [msg.kind, a]
            replaced += 1
        else:
            queue.append([msg.kind, a])
        peak = max(peak, len(queue))
        if next_dequeue is None:
            if ready_at <= a:
                dequeue(a)
            else:
                next_dequeue = ready_at
    while next_dequeue is not None and next_dequeue <= config.duration_s:
        dequeue(next_dequeue)
    assert not queue  # the run drains
    return replaced, peak, waits, occupancy + sum(waits)


UDP_CELLS = [
    cfg for cfg in default_configs(DEFAULT_MASTER_SEED) if cfg.protocol is TransportKind.UDP
]


def test_default_sweep_udp_cells_follow_lindley():
    assert len(UDP_CELLS) == 24
    checked = 0
    for config in UDP_CELLS:
        reports = run_experiment(config).per_destination
        for report, schedule in zip(reports, destination_schedules(config), strict=True):
            assert report.conservation_residual() == 0  # the run drains
            assert report.messages_delivered == len(schedule)
            arrivals, departures = lindley(schedule, config)
            waits = [d - a for a, d in zip(arrivals, departures)]
            # At equal times the engine dequeues before it enqueues, so a
            # message that left at A_i is gone when message i arrives.
            peak = max(
                1 + i - bisect_right(departures, a, 0, i) for i, a in enumerate(arrivals)
            )
            assert report.avg_time_in_queue_s == pytest.approx(sum(waits) / len(waits), rel=1e-12)
            assert report.avg_queue_len == pytest.approx(
                sum(waits) / config.duration_s, rel=1e-12
            )
            assert report.peak_queue_len == peak
            checked += 1
    assert checked == 60


def test_lossy_udp_cells_follow_lindley_over_the_surviving_sends():
    # Each destination draws once per send from its own loss stream; a lost
    # datagram returns before the wire, so only the survivors queue.
    checked = 0
    for config in UDP_CELLS:
        config = config._replace(loss_prob=0.15)
        reports = run_experiment(config).per_destination
        for dest, (report, schedule) in enumerate(
            zip(reports, destination_schedules(config), strict=True)
        ):
            rng = random.Random(derive_seed(config.seed, "loss", "udp", dest))
            kept = [(t, msg) for t, msg in schedule if not rng.random() < config.loss_prob]
            assert report.conservation_residual() == 0
            assert report.messages_lost == len(schedule) - len(kept)
            assert report.messages_delivered == len(kept)
            arrivals, departures = lindley(kept, config)
            waits = [d - a for a, d in zip(arrivals, departures)]
            peak = max(
                1 + i - bisect_right(departures, a, 0, i) for i, a in enumerate(arrivals)
            )
            assert report.avg_time_in_queue_s == pytest.approx(sum(waits) / len(waits), rel=1e-12)
            assert report.avg_queue_len == pytest.approx(
                sum(waits) / config.duration_s, rel=1e-12
            )
            assert report.peak_queue_len == peak
            checked += 1
    assert checked == 60


def test_udp_uqa_cells_follow_the_coalescing_queue():
    # Each one-to-many destination queues its own stream from one sender,
    # so the one-sender pass covers it as it covers a one-to-one cell.
    cells = [
        cfg
        for cfg in default_configs(DEFAULT_MASTER_SEED)
        if cfg.protocol is TransportKind.UDP_UQA
    ]
    assert len(cells) == 24
    replaced_total, checked = 0, 0
    for config in cells:
        reports = run_experiment(config).per_destination
        for report, schedule in zip(reports, destination_schedules(config), strict=True):
            replaced, peak, waits, occupancy = coalescing_queue(schedule, config)
            assert report.conservation_residual() == 0
            assert report.messages_lost == 0
            assert report.messages_replaced == replaced
            assert report.messages_delivered == len(waits) == len(schedule) - replaced
            assert report.peak_queue_len == peak
            assert report.avg_time_in_queue_s == pytest.approx(sum(waits) / len(waits), rel=1e-12)
            assert report.avg_queue_len == pytest.approx(occupancy / config.duration_s, rel=1e-12)
            replaced_total += replaced
            checked += 1
    assert checked == 60
    assert replaced_total > 0
