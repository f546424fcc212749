"""Queueing theory as a second derivation of the metrics.

A one-to-one ``udp`` cell is an M/D/1 queue: Poisson sends, a wire whose
32-byte packets take 0.26 ms of a 50 ms hold, and a FIFO consumer that holds
each message ``receiver_delay_s + udp_app_per_msg_s``. Its mean wait is the
Pollaczek-Khinchine W = rho * D / (2 (1 - rho)) (L. Kleinrock, *Queueing
Systems*, vol. 1, 1975, ch. 5). Bernoulli loss thins a Poisson stream into a
Poisson stream (S. Ross, *Introduction to Probability Models*, ch. 5), so the
lossy point also checks that loss draws are independent of the traffic draws.
A one-to-many cell's destinations draw independent Poisson streams and run on
clocks of their own, so each is an M/D/1 queue at the same rho, and so is
their mean.

The sizes, seeds and bound are fixed: retuning them until the test passes
would hide the failure it exists to show.
"""

import math
import statistics
from dataclasses import replace

import pytest

from uqsim.engine import TransportKind
from uqsim.harness import ExperimentConfig, run_experiment
from uqsim.traffic import derive_seed

SEEDS = range(8)
BOUND_SE = 4.0


@pytest.mark.parametrize(
    "topology, messages, label, rho, loss",
    [
        ("one_to_one", 50_000, "pk", 0.6, 0.0),
        ("one_to_one", 50_000, "pk", 0.6, 0.3),
        ("one_to_many", 12_500, "pk-fanout", 0.6, 0.0),  # per destination, 4 of them
    ],
    ids=["lossless", "thinned", "fanout"],
)
def test_udp_fifo_wait_matches_pollaczek_khinchine(topology, messages, label, rho, loss):
    base = ExperimentConfig(
        protocol=TransportKind.UDP,
        topology=topology,
        packet_size_bytes=32,
        receiver_delay_s=0.048,
        message_count=messages,
        loss_prob=loss,
    )
    hold = base.receiver_delay_s + base.udp_app_per_msg_s  # D = 0.05 s
    send_rate = rho / (hold * (1 - loss))  # per destination, arrivals at rho / D after loss
    wait = rho * hold / (2 * (1 - rho))
    ratios = []
    for s in SEEDS:
        config = replace(
            base,
            run_duration_s=messages / (base.send_window_fraction * send_rate),
            seed=derive_seed(label, rho, loss, s),
        )
        # The report averages avg_time_in_queue_s over the destinations.
        ratios.append(run_experiment(config).report.avg_time_in_queue_s / wait)
    mean = statistics.fmean(ratios)
    se = statistics.stdev(ratios) / math.sqrt(len(ratios))
    assert abs(mean - 1.0) <= BOUND_SE * se, (mean, se, ratios)
