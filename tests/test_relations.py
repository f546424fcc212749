"""Metamorphic relations: properties that relate one timed run to another.

Each relation below is proved from the model, not observed (T. Y. Chen et
al., "Metamorphic Testing: A Review of Challenges and Opportunities", ACM
CSUR 51(1), 2018):

* A reliable transport's queue holds only sent, unacked messages, so its
  peak is at most the window, rounded up.
* On the same draws, every lossless ``udp_uqa`` message holds the consumer
  as long as its ``udp`` twin, and a replacement removes one hold, so the
  coalescing queue is never longer (Lindley's recursion is monotone in the
  workload; F. Baccelli and P. Brémaud, *Elements of Queueing Theory*).
* A FIFO ``udp`` run with a longer receiver delay dequeues every message no
  earlier, so its queue is never shorter. Its average wait is no smaller
  only when it dequeues every message: otherwise it averages a shorter
  prefix.

The last test pins RFC 6298 §5.5: consecutive expiries of one connection's
timer on the same head double the gap up to ``max(60 s, rto_s)``.
"""

import math

import pytest

from uqsim.engine import TcpConnection, TransportKind
from uqsim.harness import (
    DEFAULT_MASTER_SEED,
    TOPOLOGIES,
    ExperimentConfig,
    default_configs,
    draw_traffic,
    run_experiment,
)


@pytest.mark.parametrize("loss", [0.0, 0.15])
def test_reliable_queue_peak_is_at_most_the_window(loss):
    base = ExperimentConfig(protocol=TransportKind.TCP, loss_prob=loss)
    checked = 0
    for config in default_configs(DEFAULT_MASTER_SEED, base):
        if not config.protocol.reliable:
            continue
        for report in run_experiment(config).per_destination:
            assert report.peak_queue_len <= math.ceil(config.window_size)
            checked += 1
    assert checked == 120


def test_lossless_udp_uqa_queue_is_no_longer_than_udp_on_the_same_draws():
    configs = default_configs(DEFAULT_MASTER_SEED)
    udp_cells = [cfg for cfg in configs if cfg.protocol is TransportKind.UDP]
    pairs = 0
    for udp in udp_cells:
        draws = draw_traffic(udp)
        plain = run_experiment(udp, draws).per_destination
        coalesced = run_experiment(udp._replace(protocol=TransportKind.UDP_UQA), draws).per_destination
        for fifo, uqa in zip(plain, coalesced, strict=True):
            assert uqa.peak_queue_len <= fifo.peak_queue_len
            assert uqa.avg_queue_len <= fifo.avg_queue_len
            pairs += 1
    assert pairs == 60


DELAYS = (0.0, 0.01, 0.033, 0.05, 0.1, 0.2)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_fifo_udp_queue_does_not_shrink_as_the_receiver_slows(topology):
    steps = waits = 0
    for seed in range(20):
        base = ExperimentConfig(protocol=TransportKind.UDP, topology=topology,
                                message_count=300, seed=seed)
        runs = [run_experiment(base._replace(receiver_delay_s=d)).per_destination for d in DELAYS]
        for faster, slower in zip(runs, runs[1:]):
            for fast, slow in zip(faster, slower, strict=True):
                assert slow.avg_queue_len >= fast.avg_queue_len
                assert slow.peak_queue_len >= fast.peak_queue_len
                if slow.messages_delivered == slow.delivered_to_queue:
                    assert slow.avg_time_in_queue_s >= fast.avg_time_in_queue_s
                    waits += 1
            steps += 1
    assert steps == 100
    assert waits > 0


@pytest.mark.parametrize("protocol", [TransportKind.TCP, TransportKind.TCP_UQA])
@pytest.mark.parametrize("rto, loss", [(1.0, 0.6), (0.25, 0.5), (90.0, 0.5)])
def test_retransmission_gaps_double_up_to_the_cap(monkeypatch, protocol, rto, loss):
    sends = []  # (connection, head, time) of every retransmission
    transmit = TcpConnection._transmit

    def recording(self, msg, now, first):
        if not first:
            sends.append((self, msg, now))
        transmit(self, msg, now, first)

    monkeypatch.setattr(TcpConnection, "_transmit", recording)
    config = ExperimentConfig(
        protocol=protocol, topology="one_to_many", message_count=200,
        run_duration_s=3000.0, rto_s=rto, loss_prob=loss, seed=11,
    )
    run_experiment(config)
    cap = max(60.0, rto)
    pairs = capped = 0
    for a, b, c in zip(sends, sends[1:], sends[2:]):
        if not (a[0] is b[0] is c[0] and a[1] is b[1] is c[1]):
            continue  # another connection or another head: the timeout was reset
        first_gap, second_gap = b[2] - a[2], c[2] - b[2]
        assert second_gap == pytest.approx(min(2.0 * first_gap, cap), rel=1e-9)
        pairs += 1
        capped += second_gap == pytest.approx(cap, rel=1e-9)
    assert pairs > 0 and capped > 0
