"""An independent timing oracle for the datagram path.

A ``udp`` destination is a FIFO wire feeding a FIFO consumer with a fixed
hold, so the timings of its delivered messages follow Lindley's recursion
(D. V. Lindley, *Proc. Cambridge Phil. Soc.* 48, 1952). A lost datagram
never occupies the wire, so under loss the recursion runs over the sends
that survive the destination's loss draws. The recursion lives here, not in
``src/``: the program keeps one path, and this test derives the same
numbers a second way from the cell's traffic and loss seed alone.
"""

import random
from bisect import bisect_right
from dataclasses import replace

import pytest

from uqsim.engine import TransportKind
from uqsim.harness import (
    DEFAULT_MASTER_SEED,
    default_configs,
    destination_schedules,
    run_experiment,
)
from uqsim.traffic import derive_seed


def lindley(schedule, config):
    """Queue arrival and dequeue times (A, D) of one destination's messages.

    Wire: a send starts when the link is free and arrives a propagation
    delay after its serialization ends. Consumer: each dequeue is followed
    by the hold, and a message waits for the previous hold to end.
    """
    hold = config.receiver_delay_s + config.udp_app_per_msg_s
    free = 0.0
    arrivals, departures = [], []
    d = -float("inf")
    for t_send, msg in schedule:
        start = t_send if t_send > free else free
        free = start + msg.size_bytes * 8.0 / config.bandwidth_bps
        a = free + config.propagation_delay_s
        d = max(a, d + hold)
        arrivals.append(a)
        departures.append(d)
    return arrivals, departures


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
        config = replace(config, loss_prob=0.15)
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
