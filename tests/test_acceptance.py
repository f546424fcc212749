"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The directional criteria (5, 6) evaluate the default
96-cell sweep aggregated over packet sizes, exactly as the result tables
are built for the figure emitters.
"""

import math
import random
import time

import pytest

from uqsim.cli import main as cli_main
from uqsim.engine import TransportKind
from uqsim.harness import (
    DEFAULT_MASTER_SEED,
    FIGURE_SPECS,
    ExperimentConfig,
    aggregate_rows,
    run_experiment,
    run_sweep,
    sweep_rows,
    write_figure_csv,
)
from uqsim.messages import Message, MessageKind
from uqsim.metrics import littles_law_residual
from uqsim.queues import EnqueueOutcome, UpdatableQueue

TCP, UDP = TransportKind.TCP, TransportKind.UDP
TCP_UQA, UDP_UQA = TransportKind.TCP_UQA, TransportKind.UDP_UQA


def report_line(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def check(criterion: str, ok: bool) -> None:
    report_line(criterion, ok)
    assert ok, f"acceptance criterion failed: {criterion}"


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    result = run_sweep(master_seed=DEFAULT_MASTER_SEED)
    elapsed = time.perf_counter() - start
    print(f"\n[default sweep: 96 cells in {elapsed:.1f}s (target < 120s)]")
    return result


@pytest.fixture(scope="module")
def aggregates(sweep):
    return aggregate_rows(sweep_rows(sweep))


def metric_by_protocol(aggregates, topology, delay, metric):
    out = {}
    for row in aggregates:
        if row["topology"] == topology and float(row["receiver_delay_s"]) == delay:
            out[str(row["protocol"])] = float(row[metric])
    assert len(out) == 4
    return out


# -- 1: adjacency invariant -----------------------------------------------------


def test_1_adjacency_invariant():
    start = time.perf_counter()
    kinds = [MessageKind.STATUS] * 7 + [MessageKind.COMMAND, MessageKind.EVENT] * 1
    ok = True
    for seed in range(10):
        rng = random.Random(seed)
        q = UpdatableQueue()
        seq = 0
        for _ in range(1000):
            if rng.random() < 0.55:
                seq += 1
                q.enqueue_uqa(
                    Message(
                        seq=seq,
                        sender=rng.randrange(4),
                        kind=rng.choice(kinds),
                        size_bytes=8,
                    )
                )
            else:
                q.dequeue()
            items = [msg for _, msg in q.snapshot()]
            for left, right in zip(items, items[1:]):
                if (
                    left.kind is MessageKind.STATUS
                    and right.kind is MessageKind.STATUS
                    and left.sender == right.sender
                ):
                    ok = False
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 1: 10,000 ops in {elapsed:.2f}s]")
    check("1 adjacency-invariant", ok and elapsed < 5.0)


# -- 2: exhaustive oracle equivalence -------------------------------------------


def test_2_oracle_equivalence_exhaustive():
    """Every trace of length <= 12 over two senders and {status, command}.

    The reference model executes the replacement rules literally on a plain
    list (retrieve the last entry, inspect, reinsert). The DFS shares
    prefixes and undoes each step, checking the enqueue outcome at every
    node and full state equality on all traces up to depth 7; outcome
    equality at equal states implies state equality at the next step, so
    agreement at every node covers all 22.4 million traces.
    """
    start = time.perf_counter()
    STATUS, COMMAND = MessageKind.STATUS, MessageKind.COMMAND
    REPLACED = EnqueueOutcome.REPLACED_TAIL
    MAX_DEPTH, DEEP_DEPTH = 12, 7

    q = UpdatableQueue()
    impl = q._records  # white-box handle for O(1) undo
    oracle: list[tuple] = []
    # One pooled message per (depth, symbol); a message is always undone
    # before its slot is reused by a sibling.
    symbols = [(1, STATUS), (2, STATUS), (1, COMMAND), (2, COMMAND)]
    pool = [
        [
            Message(seq=depth * 4 + i, sender=s, kind=k, size_bytes=1)
            for i, (s, k) in enumerate(symbols)
        ]
        for depth in range(MAX_DEPTH + 1)
    ]
    mirrors = [
        [(m.sender, m.kind, m.seq) for m in row] for row in pool
    ]
    enqueue = q.enqueue_uqa
    oracle_append, oracle_pop = oracle.append, oracle.pop
    impl_pop = impl.pop
    nodes = 0

    def rec(depth: int) -> None:
        nonlocal nodes
        row = pool[depth]
        mirror_row = mirrors[depth]
        deeper = depth < MAX_DEPTH
        deep_check = depth <= DEEP_DEPTH
        for i in range(4):
            msg = row[i]
            entry = mirror_row[i]
            sender, kind = entry[0], entry[1]
            prev_tail = impl[-1] if impl else None
            outcome = enqueue(msg)
            # reference model: retrieve-last, inspect, reinsert
            if kind is not STATUS or not oracle:
                oracle_append(entry)
                displaced = None
            else:
                last = oracle_pop()
                if last[1] is not STATUS or last[0] != sender:
                    oracle_append(last)
                    oracle_append(entry)
                    displaced = None
                else:
                    oracle_append(entry)
                    displaced = last
            nodes += 1
            if (outcome is REPLACED) != (displaced is not None):
                raise AssertionError(
                    f"outcome mismatch at depth {depth} on {sender}/{kind}"
                )
            if deep_check:
                state = [(m.sender, m.kind, m.seq) for _, m in impl]
                if state != oracle:
                    raise AssertionError(f"state mismatch: {state} != {oracle}")
            if deeper:
                rec(depth + 1)
            # undo oracle, then the implementation queue; a replaced tail's
            # record, time and message, goes back where it stood
            if displaced is None:
                oracle_pop()
            else:
                oracle[-1] = displaced
            if outcome is REPLACED:
                impl[-1] = prev_tail
                q.replaced -= 1
            else:
                impl_pop()
            q.inserted -= 1

    rec(1)
    elapsed = time.perf_counter() - start
    expected_nodes = (4 ** (MAX_DEPTH + 1) - 4) // 3
    print(f"\n[criterion 2: {nodes} traces in {elapsed:.1f}s]")
    check("2 oracle-equivalence", nodes == expected_nodes and elapsed < 60.0)


# -- 3: dominance ----------------------------------------------------------------


def test_3_uqa_dominates_fifo_pathwise():
    kinds = "SSSSSSSCE"
    ok = True
    for run in range(100):
        rng = random.Random(1000 + run)
        uqa, fifo = UpdatableQueue(), UpdatableQueue()
        uqa_area = fifo_area = 0.0
        uqa_peak = fifo_peak = 0
        seq = 0
        for _ in range(rng.randrange(100, 400)):
            if rng.random() < 0.6:
                seq += 1
                sender = rng.randrange(3)
                kind = rng.choice(kinds)
                uqa.enqueue_uqa(
                    Message(seq=seq, sender=sender, kind=MessageKind(kind), size_bytes=8)
                )
                fifo.enqueue_fifo(
                    Message(seq=seq, sender=sender, kind=MessageKind(kind), size_bytes=8)
                )
            else:
                uqa.dequeue()
                fifo.dequeue()
            if len(uqa) > len(fifo):
                ok = False
            uqa_area += len(uqa)
            fifo_area += len(fifo)
            uqa_peak = max(uqa_peak, len(uqa))
            fifo_peak = max(fifo_peak, len(fifo))
        if uqa_area > fifo_area or uqa_peak > fifo_peak:
            ok = False
    check("3 dominance", ok)


# -- 4: conservation --------------------------------------------------------------


def test_4_conservation_across_sweep(sweep):
    ok = True
    for result in sweep.results:
        for report in [*result.per_destination, result.report]:
            if report.conservation_residual() != 0:
                ok = False
    check("4 conservation", ok)


# -- 5: directional reproduction, one-to-one --------------------------------------


def test_5a_queue_length_ranks(aggregates):
    ok = True
    for delay in (0.033, 0.05, 0.1):
        length = metric_by_protocol(aggregates, "one_to_one", delay, "avg_queue_len")
        others_max = max(length["tcp"], length["tcp_uqa"], length["udp_uqa"])
        others_min = min(length["tcp"], length["udp"], length["udp_uqa"])
        if not (length["udp"] > others_max and length["tcp_uqa"] < others_min):
            ok = False
    check("5a one-to-one queue-length ranks", ok)


def test_5b_client_throughput_ranks(aggregates):
    ok = True
    for delay in (0.033, 0.05, 0.1):
        tput = metric_by_protocol(
            aggregates, "one_to_one", delay, "avg_client_throughput_bps"
        )
        if not (min(tput["udp"], tput["udp_uqa"]) > tput["tcp"] > tput["tcp_uqa"]):
            ok = False
    check("5b one-to-one client-throughput ranks", ok)


def test_5c_server_load_ranks(aggregates):
    # Server throughput measures processed load; less load ranks better, so
    # tcp must be strictly highest and the datagram pair lowest.
    ok = True
    for delay in (0.033, 0.05, 0.1):
        load = metric_by_protocol(
            aggregates, "one_to_one", delay, "avg_server_throughput_bps"
        )
        if not (load["tcp"] > load["tcp_uqa"] > max(load["udp"], load["udp_uqa"])):
            ok = False
    check("5c one-to-one server-load ranks", ok)


# -- 6: directional reproduction, one-to-many -------------------------------------


def test_6_one_to_many_queue_ranks(aggregates):
    ok = True
    for delay in (0.033, 0.05, 0.1):
        length = metric_by_protocol(aggregates, "one_to_many", delay, "avg_queue_len")
        best_rest = min(length["tcp"], length["udp"], length["udp_uqa"])
        worst_rest = max(length["tcp"], length["tcp_uqa"], length["udp_uqa"])
        if not (
            length["tcp_uqa"] < best_rest
            and length["udp"] > worst_rest
            and length["udp_uqa"] < length["udp"]
        ):
            ok = False
    check("6 one-to-many queue-length ranks", ok)


# -- 7: traffic mix ----------------------------------------------------------------


def test_7_traffic_mix():
    from uqsim.traffic import draw_kind

    n = 10_000
    bound = 4 * math.sqrt(0.21 / n)
    ok = True
    for seed in range(20):
        rng = random.Random(seed)
        status = sum(draw_kind(rng, 0.70) is MessageKind.STATUS for _ in range(n))
        if abs(status / n - 0.70) > bound:
            ok = False
    check("7 traffic-mix", ok)


# -- 8: Little's law -----------------------------------------------------------------


def test_8_littles_law_stationary_run():
    config = ExperimentConfig(
        protocol=UDP,
        topology="one_to_one",
        packet_size_bytes=256,
        receiver_delay_s=0.1,
        message_count=12_000,
        run_duration_s=2160.0,
        schedule="poisson",
        seed=80706,
    )
    report = run_experiment(config).report
    residual = littles_law_residual(report)
    print(f"\n[criterion 8: residual {residual:.4f}]")
    check("8 littles-law", residual <= 0.05)


# -- 9: determinism -------------------------------------------------------------------


def test_9_sweep_determinism_including_parallel(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli_main(["sweep", "--seed", "7", "--jobs", "1", "--out", str(serial)]) == 0
    assert cli_main(["sweep", "--seed", "7", "--jobs", "4", "--out", str(parallel)]) == 0
    ok = True
    for name in ("", "_aggregate", "_destinations"):
        a = (tmp_path / f"serial{name}.csv").read_bytes()
        b = (tmp_path / f"parallel{name}.csv").read_bytes()
        if a != b:
            ok = False
    check("9 determinism", ok)


# -- 10: sweep shape -----------------------------------------------------------------


def test_10_sweep_shape(sweep, tmp_path):
    rows = sweep_rows(sweep)
    agg = aggregate_rows(rows)
    ok = len(rows) == 96 and len(agg) == 32
    for figure in sorted(FIGURE_SPECS):
        path = tmp_path / f"figure_{figure:02d}.csv"
        write_figure_csv(str(path), rows, figure)
        lines = path.read_text().splitlines()
        if lines[0] != "receiver_delay_s,tcp,udp,tcp_uqa,udp_uqa":
            ok = False
        if len(lines) != 1 + 4:
            ok = False
    files = sorted(tmp_path.glob("figure_*.csv"))
    if len(files) != 8:
        ok = False
    check("10 sweep-shape", ok)
