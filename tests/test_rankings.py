"""The paper's protocol rankings at master seeds other than the default.

``tests/test_acceptance.py`` checks criteria 5a, 5b, 5c and 6 on the seed-20100
sweep only. They held at master seeds 1-30; three of those here show that the
rankings are not an artifact of one seed, and run the sweep over two worker
processes, so the ``--jobs`` path is covered at seeds other than 20100.
"""

import pytest

from uqsim.engine import TransportKind
from uqsim.harness import aggregate_rows, run_sweep, sweep_rows

DELAYS = (0.033, 0.05, 0.1)


def strictly_highest(values, protocol):
    return all(values[protocol] > value for other, value in values.items() if other != protocol)


def strictly_lowest(values, protocol):
    return all(values[protocol] < value for other, value in values.items() if other != protocol)


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_directional_rankings_hold_at_other_master_seeds(master_seed):
    rows = aggregate_rows(sweep_rows(run_sweep(master_seed=master_seed, jobs=2)))

    def by_protocol(topology, delay, metric):
        return {row["protocol"]: row[metric] for row in rows
                if row["topology"] == topology and row["receiver_delay_s"] == delay}

    failed = []
    for delay in DELAYS:
        # 5a and 6: udp queues longest and tcp_uqa shortest, one-to-one and fan-out.
        for criterion, topology in (("5a", "one_to_one"), ("6", "one_to_many")):
            length = by_protocol(topology, delay, "avg_queue_len")
            assert len(length) == len(TransportKind)
            if not (strictly_highest(length, "udp") and strictly_lowest(length, "tcp_uqa")):
                failed.append((criterion, delay, length))
        # 5b: both datagram transports deliver more to the client than tcp, tcp more than tcp_uqa.
        tput = by_protocol("one_to_one", delay, "avg_client_throughput_bps")
        if not min(tput["udp"], tput["udp_uqa"]) > tput["tcp"] > tput["tcp_uqa"]:
            failed.append(("5b", delay, tput))
        # 5c: tcp loads the server most, then tcp_uqa, then the datagram pair.
        load = by_protocol("one_to_one", delay, "avg_server_throughput_bps")
        if not load["tcp"] > load["tcp_uqa"] > max(load["udp"], load["udp_uqa"]):
            failed.append(("5c", delay, load))
    assert failed == []
