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

The recursion ignores the retransmission timer, which is exact only while
nothing is retransmitted, so each destination must report none. It lives
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
