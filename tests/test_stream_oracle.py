"""An independent timing oracle for the stream transport.

A lossless ``tcp`` destination with a fixed window is a max-plus linear
system (F. Baccelli, G. Cohen, G. J. Olsder and J.-P. Quadrat,
*Synchronization and Linearity*, Wiley 1992; J.-Y. Le Boudec and P. Thiran,
*Network Calculus*, Springer LNCS 2050, 2001, on window flow control). For
message i with send time s_i, window w and hold h:

* transmit   x_i = max(s_i, x_{i-1}, r_{i-w}): in order, once the ack of
  the message w places back has freed a window slot;
* data wire  a FIFO serializer, then the propagation delay, gives the
  queue arrival a_i;
* dequeue    d_i = max(a_i, d_{i-1} + h);
* ack wire   a FIFO serializer of ``ack_size_bytes`` from d_i, plus the
  propagation delay, gives the ack's arrival at the source r_i.

A lossless ``tcp_uqa`` destination runs the same window over the
tail-replacing queue of the ``udp_uqa`` oracle in ``test_datagram_oracle``.
A replaced status is never consumed, so it is never acked on its own: its
window slot comes back with the cumulative ack of the first consumed j >= i,
and r_i is that ack's arrival. The source also pays ``uqa_update_cost_s``
per message.

Both derivations ignore the retransmission timer, which is exact only while
nothing is retransmitted, so each destination must report none. They live
here, not in ``src/``: this test derives the engine's numbers a second way
from the cell's traffic alone.
"""

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


def window_flow(schedule, config):
    """Queue arrival, dequeue and ack arrival times (A, D, R) of one destination.

    The three recursions are solved together, message by message: x_i needs
    r_{i-w}, which a message w places earlier has already fixed.
    """
    w = config.window_size
    hold = config.receiver_delay_s  # stream transports pay no app cost
    prop = config.propagation_delay_s
    ack_ser = config.ack_size_bytes * 8.0 / config.bandwidth_bps
    data_free = ack_free = 0.0
    x = d = -float("inf")
    arrivals, departures, acks = [], [], []
    for i, (t_send, msg) in enumerate(schedule):
        x = max(t_send, x, acks[i - w] if i >= w else -float("inf"))
        data_free = max(x, data_free) + msg.size_bytes * 8.0 / config.bandwidth_bps
        a = data_free + prop
        d = max(a, d + hold)
        ack_free = max(d, ack_free) + ack_ser
        arrivals.append(a)
        departures.append(d)
        acks.append(ack_free + prop)
    return arrivals, departures, acks


def coalescing_window_flow(schedule, config):
    """(replaced, peak, waits, occupancy, acks) of one ``tcp_uqa`` destination.

    One pass in time order, the queue served as in the ``udp_uqa`` oracle:
    a pending dequeue at a time <= an arrival goes first, and a free, idle
    consumer serves the arrival in its own event, after the length is read.
    Before message i is sent, the queue is served until r_{i-w} is known.
    That consumption's ack arrives by x_i, so it precedes a_i, and the pass
    never runs ahead of an arrival. ``acks`` holds each consumption's ack
    arrival; ``occupancy`` is the integral of the queue length over time.
    """
    w = config.window_size
    hold = config.receiver_delay_s
    prop = config.propagation_delay_s
    ack_ser = config.ack_size_bytes * 8.0 / config.bandwidth_bps
    data_free = ack_free = 0.0
    x = -float("inf")
    queue = []  # [index, kind, t_enqueued], head first
    waits, acks, freed = [], [], []  # freed[i] is r_i, known once j >= i is consumed
    replaced, peak, occupancy = 0, 0, 0.0
    ready_at, next_dequeue = 0.0, None  # next_dequeue None: the consumer is idle

    def dequeue(t):
        nonlocal next_dequeue, ready_at, ack_free
        j, _, t_enqueued = queue.pop(0)
        waits.append(t - t_enqueued)
        ack_free = max(t, ack_free) + ack_ser
        acks.append(ack_free + prop)
        freed.extend([ack_free + prop] * (j + 1 - len(freed)))
        if queue:
            next_dequeue = t + hold
        else:
            next_dequeue, ready_at = None, t + hold

    for i, (t_send, msg) in enumerate(schedule):
        while i >= w and len(freed) <= i - w:
            dequeue(next_dequeue)
        x = max(t_send, x, freed[i - w] if i >= w else -float("inf"))
        data_free = max(x, data_free) + msg.size_bytes * 8.0 / config.bandwidth_bps
        a = data_free + prop
        while next_dequeue is not None and next_dequeue <= a:
            dequeue(next_dequeue)
        if msg.kind is MessageKind.STATUS and queue and queue[-1][1] is MessageKind.STATUS:
            occupancy += a - queue[-1][2]
            queue[-1] = [i, msg.kind, a]
            replaced += 1
        else:
            queue.append([i, msg.kind, a])
        peak = max(peak, len(queue))
        if next_dequeue is None:
            if ready_at <= a:
                dequeue(a)
            else:
                next_dequeue = ready_at
    while next_dequeue is not None and next_dequeue <= config.duration_s:
        dequeue(next_dequeue)
    assert not queue  # the run drains
    return replaced, peak, waits, occupancy + sum(waits), acks


TCP_CELLS = [
    cfg for cfg in default_configs(DEFAULT_MASTER_SEED) if cfg.protocol is TransportKind.TCP
]


def test_default_sweep_tcp_cells_follow_the_window_recursion():
    assert len(TCP_CELLS) == 24
    checked = 0
    for config in TCP_CELLS:
        assert config.loss_prob == 0.0
        reports = run_experiment(config).per_destination
        for report, schedule in zip(reports, destination_schedules(config), strict=True):
            assert report.retransmissions == 0
            assert report.conservation_residual() == 0  # the run drains
            assert report.messages_delivered == len(schedule)
            arrivals, departures, acks = window_flow(schedule, config)
            waits = [d - a for a, d in zip(arrivals, departures)]
            # A pushed service at an arrival's instant runs first, and a
            # message served in its own delivering event leaves before the
            # next arrives: at arrival i, every j < i with d_j <= a_i is gone.
            peak = max(
                1 + i - bisect_right(departures, a, 0, i) for i, a in enumerate(arrivals)
            )
            assert report.peak_queue_len == peak
            assert report.avg_time_in_queue_s == pytest.approx(sum(waits) / len(waits), rel=1e-12)
            assert report.avg_queue_len == pytest.approx(
                sum(waits) / config.duration_s, rel=1e-12
            )
            # The source's work: every data serialization, plus one ack
            # serialization per ack back by the run end.
            data_ser = sum(msg.size_bytes * 8.0 / config.bandwidth_bps for _, msg in schedule)
            acks_back = sum(r <= config.duration_s for r in acks)
            ack_ser = config.ack_size_bytes * 8.0 / config.bandwidth_bps
            data_bits = sum(msg.size_bytes * 8.0 for _, msg in schedule)
            assert report.avg_client_throughput_bps == pytest.approx(
                data_bits / (data_ser + acks_back * ack_ser), rel=1e-12
            )
            checked += 1
    assert checked == 60


def test_default_sweep_tcp_uqa_cells_follow_the_coalescing_window():
    cells = [
        cfg
        for cfg in default_configs(DEFAULT_MASTER_SEED)
        if cfg.protocol is TransportKind.TCP_UQA
    ]
    assert len(cells) == 24
    checked = replaced_total = 0
    for config in cells:
        assert config.loss_prob == 0.0 and config.queue_variant == "tail"
        reports = run_experiment(config).per_destination
        for report, schedule in zip(reports, destination_schedules(config), strict=True):
            # One sender per destination: tail replacement needs only the kinds.
            assert len({msg.sender for _, msg in schedule}) == 1
            replaced, peak, waits, occupancy, acks = coalescing_window_flow(schedule, config)
            assert report.retransmissions == 0
            assert report.conservation_residual() == 0
            assert report.messages_replaced == replaced
            assert report.messages_delivered == report.acks_generated == len(waits)
            assert report.peak_queue_len == peak
            assert report.avg_time_in_queue_s == pytest.approx(sum(waits) / len(waits), rel=1e-12)
            assert report.avg_queue_len == pytest.approx(occupancy / config.duration_s, rel=1e-12)
            # The source's work: every data serialization and update, plus one
            # ack serialization per ack back by the run end.
            data_ser = sum(msg.size_bytes * 8.0 / config.bandwidth_bps for _, msg in schedule)
            acks_back = sum(r <= config.duration_s for r in acks)
            ack_ser = config.ack_size_bytes * 8.0 / config.bandwidth_bps
            busy = data_ser + acks_back * ack_ser + len(schedule) * config.uqa_update_cost_s
            data_bits = sum(msg.size_bytes * 8.0 for _, msg in schedule)
            assert report.avg_client_throughput_bps == pytest.approx(data_bits / busy, rel=1e-12)
            replaced_total += replaced
            checked += 1
    assert checked == 60
    assert replaced_total > 0
