import concurrent.futures
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import sweep_axes

from uqsim import harness
from uqsim.engine import SimClock, TransportKind
from uqsim.harness import (
    AGGREGATE_COLUMNS,
    AGGREGATE_KEY,
    CSV_COLUMNS,
    DEFAULT_MASTER_SEED,
    DEFAULT_PACKET_SIZES,
    DEFAULT_RECEIVER_DELAYS,
    METRIC_COLUMNS,
    TOPOLOGIES,
    ExperimentConfig,
    aggregate_rows,
    cell_seed,
    default_configs,
    destination_schedules,
    draw_traffic,
    figure_table,
    format_value,
    result_row,
    run_experiment,
    run_sweep,
    sweep_rows,
    write_aggregate_csv,
    write_destination_csv,
    write_figure_csv,
    write_sweep_csv,
)
from uqsim.messages import Message, MessageKind


def small_sweep(master=7, jobs=1):
    # One packet size and two delays: 16 cells, fast enough for unit tests.
    with sweep_axes((256,), (0.0, 0.05)):
        return run_sweep(master_seed=master, jobs=jobs)


def test_lossless_udp_delivers_everything():
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP,
        topology="one_to_one",
        packet_size_bytes=256,
        receiver_delay_s=0.0,
        seed=cell_seed(7, "one_to_one", 256, 0.0),
    )
    report = run_experiment(cfg).report
    assert report.messages_sent == 1000
    assert report.messages_delivered == 1000
    assert report.messages_lost == 0
    assert report.conservation_residual() == 0


def test_paired_uqa_queue_never_longer_on_average():
    for size in DEFAULT_PACKET_SIZES:
        seed = cell_seed(11, "one_to_one", size, 0.1)
        reports = {}
        for protocol in (TransportKind.TCP, TransportKind.TCP_UQA):
            cfg = ExperimentConfig(
                protocol=protocol,
                packet_size_bytes=size,
                receiver_delay_s=0.1,
                seed=seed,
            )
            reports[protocol] = run_experiment(cfg).report
        assert (
            reports[TransportKind.TCP_UQA].avg_queue_len
            <= reports[TransportKind.TCP].avg_queue_len
        )


def test_all_status_fanin_coalesces_to_single_slot():
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP_UQA,
        packet_size_bytes=512,
        receiver_delay_s=0.1,
        p_status=1.0,
        seed=cell_seed(3, "one_to_one", 512, 0.1),
    )
    report = run_experiment(cfg).report
    assert report.avg_queue_len <= 1.0 + 1e-9
    assert report.peak_queue_len <= 1
    assert report.messages_replaced > 0


def test_one_to_many_reports_per_destination():
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP,
        topology="one_to_many",
        packet_size_bytes=256,
        receiver_delay_s=0.033,
        seed=cell_seed(5, "one_to_many", 256, 0.033),
    )
    result = run_experiment(cfg)
    assert len(result.per_destination) == 4
    for report in result.per_destination:
        assert report.messages_sent == 1000
        assert report.conservation_residual() == 0
    assert result.report.messages_sent == 1000


@pytest.mark.parametrize("protocol", [TransportKind.TCP_UQA, TransportKind.UDP_UQA])
def test_keyed_variant_conserves_in_fan_out(protocol):
    cfg = ExperimentConfig(
        protocol=protocol,
        topology="one_to_many",
        receiver_delay_s=0.1,
        queue_variant="keyed",
        seed=cell_seed(13, "one_to_many", 512, 0.1),
    )
    result = run_experiment(cfg)
    assert len(result.per_destination) == 4
    for report in result.per_destination:
        assert report.conservation_residual() == 0
        assert report.messages_replaced > 0


def test_one_to_many_uniform_round_robin_interleave():
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP,
        topology="one_to_many",
        schedule="uniform",
        packet_size_bytes=256,
        receiver_delay_s=0.0,
        seed=1,
    )
    schedules = destination_schedules(cfg)
    assert len(schedules) == 4
    global_gap = (720.0 * 0.9) / (1000 * 4)
    for dest, schedule in enumerate(schedules):
        assert schedule.times[0] == pytest.approx(dest * global_gap)
        assert schedule.times[1] - schedule.times[0] == pytest.approx(4 * global_gap)
    merged = sorted(t for schedule in schedules for t, _ in schedule)
    gaps = {round(b - a, 12) for a, b in zip(merged, merged[1:])}
    assert gaps == {round(global_gap, 12)}


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("topology", "ring", "topology"),
        ("packet_size_bytes", -5, "packet_size_bytes"),
        ("receiver_delay_s", -0.1, "receiver_delay_s"),
        ("n_destinations", 0, "n_destinations"),
        ("queue_variant", "heap", "queue_variant"),
        ("schedule", "burst", "schedule"),
        ("p_status", -0.2, "p_status"),
        ("propagation_delay_s", float("nan"), "propagation_delay_s"),
        ("bandwidth_bps", 0.0, "bandwidth_bps"),
        ("loss_prob", 2.0, "loss_prob"),
        ("window_size", 0, "window_size"),
        ("window_size", float("nan"), "window_size"),
        ("packet_size_bytes", 0.5, "packet_size_bytes"),
        ("ack_size_bytes", 0, "ack_size_bytes"),
        ("ack_size_bytes", 0.5, "ack_size_bytes"),
        ("rto_s", 0.0, "rto_s"),
        ("udp_app_per_msg_s", -1.0, "udp_app_per_msg_s"),
        ("uqa_update_cost_s", float("inf"), "uqa_update_cost_s"),
    ],
)
def test_invalid_config_names_offending_field(field, value, match):
    cfg = ExperimentConfig(protocol=TransportKind.UDP, seed=1)._replace(**{field: value})
    with pytest.raises(ValueError, match=match):
        run_experiment(cfg)


def test_bad_protocol_rejected():
    cfg = ExperimentConfig(protocol=TransportKind.UDP, seed=1)._replace(protocol="udp")
    with pytest.raises(ValueError, match="protocol"):
        run_experiment(cfg)


def test_default_matrix_shape_and_order():
    configs = default_configs(master_seed=7)
    assert len(configs) == 96
    # Canonical order: protocol, topology, size, delay.
    first_block = configs[: len(DEFAULT_PACKET_SIZES) * len(DEFAULT_RECEIVER_DELAYS)]
    assert all(c.protocol is TransportKind.TCP for c in first_block)
    assert all(c.topology == "one_to_one" for c in first_block)
    assert [c.receiver_delay_s for c in configs[:4]] == list(DEFAULT_RECEIVER_DELAYS)
    assert configs[0].packet_size_bytes == 32
    assert configs[4].packet_size_bytes == 256


def test_cells_share_no_setting_objects():
    configs = default_configs(master_seed=7)
    with pytest.raises(AttributeError):
        configs[0].loss_prob = 0.5  # type: ignore[misc]
    assert [c.loss_prob for c in configs[1:]] == [0.0] * 95


def test_cell_seeds_shared_across_protocols():
    configs = default_configs(master_seed=7)
    by_coords = {}
    for cfg in configs:
        key = (cfg.topology, cfg.packet_size_bytes, cfg.receiver_delay_s)
        by_coords.setdefault(key, set()).add(cfg.seed)
    # All four protocols of a comparison group share one seed.
    assert all(len(seeds) == 1 for seeds in by_coords.values())
    assert len({cfg.seed for cfg in configs}) == 24


def test_cell_seed_pure_function():
    assert cell_seed(7, "one_to_one", 512, 0.05) == cell_seed(7, "one_to_one", 512, 0.05)
    assert cell_seed(7, "one_to_one", 512, 0.05) != cell_seed(8, "one_to_one", 512, 0.05)
    assert cell_seed(7, "one_to_one", 512, 0.05) != cell_seed(7, "one_to_many", 512, 0.05)


def test_parallel_sweep_matches_serial():
    serial = small_sweep(jobs=1)
    parallel = small_sweep(jobs=4)
    assert sweep_rows(serial) == sweep_rows(parallel)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_sweep_matches_serial_beyond_fork(method):
    # The other parallel checks run under Linux's default start method, fork;
    # Python 3.14 makes forkserver the default. A fresh interpreter sets the
    # method before its pool starts and prints its rows' repr, which keeps
    # every float exactly. It sets small_sweep's axes in its own module only:
    # a spawned worker runs just the cells it is handed.
    code = (
        "import multiprocessing\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from uqsim import harness\n"
        "harness.DEFAULT_PACKET_SIZES, harness.DEFAULT_RECEIVER_DELAYS = (256,), (0.0, 0.05)\n"
        "sweep = harness.run_sweep(master_seed=7, jobs=2)\n"
        "print(repr(harness.sweep_rows(sweep)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == repr(sweep_rows(small_sweep(jobs=1)))


class SerialPool:
    """Stands in for ProcessPoolExecutor: maps serially and starts no process."""

    workers: list[int] = []
    tasks: list = []  # every task, in the order it reached map

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        tasks = list(iterable)
        self.tasks.extend(tasks)
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, workers", [(1000, 4), (3, 3)])
def test_parallel_sweep_starts_at_most_one_worker_per_task(monkeypatch, jobs, workers):
    # The pool starts every worker at once, so workers beyond the task count
    # would only idle. One task is one comparison group.
    monkeypatch.setattr(SerialPool, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    sweep = small_sweep(jobs=jobs)  # 16 cells: 4 groups of 4 protocols
    assert SerialPool.workers == [workers]
    assert len(sweep.results) == 16


def test_parallel_sweep_submits_the_largest_groups_first(monkeypatch):
    # A long group submitted last would leave the other workers idle at the
    # end. Work is the group's message count over all its destinations.
    monkeypatch.setattr(SerialPool, "workers", [])
    monkeypatch.setattr(SerialPool, "tasks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    parallel = small_sweep(jobs=2)  # 4 groups: 2 one-to-one, then 2 one-to-many
    work = [group[0].message_count * group[0].destinations for group in SerialPool.tasks]
    assert len(work) == 4
    assert all(a >= b for a, b in zip(work, work[1:]))
    assert work[0] > work[-1]
    # Ties keep canonical order, and the rows come back in canonical order.
    with sweep_axes((256,), (0.0, 0.05)):
        cells = default_configs(7)
    assert [group[0] for group in SerialPool.tasks] == [cells[2], cells[3], cells[0], cells[1]]
    assert sweep_rows(parallel) == sweep_rows(small_sweep(jobs=1))


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_comparison_group_draws_its_traffic_once(monkeypatch, jobs):
    drawn = []

    def counting_draw(config):
        drawn.append((config.topology, config.packet_size_bytes, config.receiver_delay_s))
        return draw_traffic(config)

    monkeypatch.setattr(SerialPool, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness, "draw_traffic", counting_draw)
    sweep = small_sweep(jobs=jobs)  # 16 cells, 4 comparison groups
    assert len(drawn) == len(set(drawn)) == 4
    assert SerialPool.workers == ([] if jobs == 1 else [2])
    # Shared draws give each cell exactly the traffic it draws on its own.
    with sweep_axes((256,), (0.0, 0.05)):
        cells = default_configs(7)
    assert sweep_rows(sweep) == [result_row(run_experiment(config)) for config in cells]


def test_runs_on_a_groups_shared_messages_match_runs_on_fresh_ones():
    # A group's messages are built once and run under each protocol in turn,
    # twice over here, with no reset: a run writes no field of a message.
    with sweep_axes((256,), (0.05,)):
        cells = default_configs(7)
    for group in (cells[0::2], cells[1::2]):  # one-to-one, then one-to-many
        draws = draw_traffic(group[0])
        for _ in range(2):
            for config in group:
                shared = run_experiment(config, draws)
                assert shared.per_destination == run_experiment(config).per_destination


def test_drawn_traffic_holds_at_most_32_bytes_per_record_beyond_its_messages():
    # A group keeps its draws through four runs. Per record they may hold a
    # send time and a list slot (16 bytes), not a tuple and a float object too.
    config = next(c for c in default_configs(DEFAULT_MASTER_SEED) if c.topology == "one_to_many")
    records = config.message_count * config.destinations  # 4 x 1000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        draws = draw_traffic(config)
        held = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        fresh = [Message(seq, 0, MessageKind.STATUS, config.packet_size_bytes)
                 for _ in range(config.destinations) for seq in range(1, config.message_count + 1)]
        messages = tracemalloc.get_traced_memory()[0] - start - sys.getsizeof(fresh)
    finally:
        tracemalloc.stop()
    assert sum(map(len, draws)) == len(fresh) == records
    assert (held - messages) / records <= 32


def test_runs_on_a_groups_draws_leave_them_holding_what_they_held_when_drawn():
    # The queue keeps each enqueue time, not the message: a message is its
    # four drawn fields, and four runs on a group's draws, with no reset
    # between them, leave the draws no larger. A time kept on the message
    # would stay behind as a float object, 24 bytes per record.
    assert Message.__slots__ == ("seq", "sender", "kind", "size_bytes")
    config = next(c for c in default_configs(DEFAULT_MASTER_SEED) if c.topology == "one_to_many")
    group = [config._replace(protocol=kind) for kind in TransportKind]
    records = config.message_count * config.destinations  # 4 x 1000
    warm_up = draw_traffic(config)  # first calls' allocations are not the draws'
    for cell in group:
        run_experiment(cell, warm_up)
    del warm_up
    tracemalloc.start()
    try:
        draws = draw_traffic(config)
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        results = [run_experiment(cell, draws) for cell in group]
        del results
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert sum(map(len, draws)) == records
    assert grown / records <= 1, grown / records


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_sweep_rejects_jobs_below_one_before_any_cell(monkeypatch, jobs):
    def refuse_group(group):
        raise AssertionError("no cell may run")

    monkeypatch.setattr(harness, "_run_group", refuse_group)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(jobs=jobs)


def test_sweep_failure_names_cell():
    bad = ExperimentConfig(protocol=TransportKind.UDP, loss_prob=2.0)
    with pytest.raises(RuntimeError, match="protocol=tcp topology=one_to_one packet_size=256"):
        with sweep_axes((256,), (0.0,)):
            run_sweep(master_seed=1, base=bad)


def test_sweep_validates_every_cell_before_drawing_traffic(monkeypatch):
    # 300,000 messages fit one destination but not the default 4: only the
    # one-to-many cells are invalid, and they come after every one-to-one group.
    drawn = []
    monkeypatch.setattr(harness, "draw_traffic", lambda config: drawn.append(config) or [])
    base = ExperimentConfig(protocol=TransportKind.TCP, message_count=300_000)
    with pytest.raises(RuntimeError, match="protocol=tcp topology=one_to_many packet_size=32 "):
        run_sweep(master_seed=1, base=base)
    assert drawn == []


def test_aggregate_rows_average_packet_sizes():
    with sweep_axes((32, 256), (0.05,)):
        sweep = run_sweep(master_seed=7)
    rows = sweep_rows(sweep)
    agg = aggregate_rows(rows)
    assert len(agg) == 8  # 4 protocols x 1 delay x 2 topologies
    udp_rows = [
        r
        for r in rows
        if r["protocol"] == "udp" and r["topology"] == "one_to_one"
    ]
    expected = sum(float(r["avg_queue_len"]) for r in udp_rows) / len(udp_rows)
    got = next(
        r
        for r in agg
        if r["protocol"] == "udp" and r["topology"] == "one_to_one"
    )
    assert float(got["avg_queue_len"]) == pytest.approx(expected)


def test_aggregate_rows_of_values_near_the_float_maximum_are_finite():
    # Three packet sizes at the float maximum: the plain sum overflows, and so
    # does the sum of the values each divided by 3 first.
    big = sys.float_info.max
    rows = [
        {"protocol": "udp", "topology": "one_to_many", "receiver_delay_s": 0.0,
         "packet_size_bytes": size, **dict.fromkeys(METRIC_COLUMNS, big)}
        for size in DEFAULT_PACKET_SIZES
    ]
    (agg,) = aggregate_rows(rows)
    assert [agg[col] for col in METRIC_COLUMNS] == [big] * len(METRIC_COLUMNS)


def test_aggregate_rows_keep_the_sweeps_delay_order():
    # Delays swept unsorted: the aggregate follows the rows, as the results CSV
    # does, while a figure table still sorts its delays.
    base = ExperimentConfig(protocol=TransportKind.TCP, message_count=50)
    with sweep_axes((32,), (0.05, 0.0)):
        rows = sweep_rows(run_sweep(master_seed=7, base=base))
    keys = [tuple(r[col] for col in AGGREGATE_KEY) for r in aggregate_rows(rows)]
    assert keys == [
        (kind.value, topology, delay)
        for kind in TransportKind for topology in TOPOLOGIES for delay in (0.05, 0.0)
    ]
    assert [entry["receiver_delay_s"] for entry in figure_table(rows, 8)] == [0.0, 0.05]


def test_csv_round_trip(tmp_path):
    sweep = small_sweep()
    path = tmp_path / "results.csv"
    write_sweep_csv(str(path), sweep)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 16
    assert text.endswith("\n")


def test_destination_csv_row_count(tmp_path):
    sweep = small_sweep()
    path = tmp_path / "dest.csv"
    write_destination_csv(str(path), sweep)
    lines = path.read_text().splitlines()
    one_to_one_cells = 8
    one_to_many_cells = 8
    assert len(lines) == 1 + one_to_one_cells + one_to_many_cells * 4
    assert lines[0].split(",")[5] == "destination"


# SHA-256 of the default sweep's three CSVs at seed 20100. Any change to
# simulated behaviour moves them; a pure speed change must not.
DEFAULT_SWEEP_SHA256 = {
    "sweep_results": "6b14faa6a7b01769fa162574231829d4a8f129ed6255e24334f3076a819c8c7c",
    "aggregate": "934c6a3319ad38b901d43da666f637efc32c56668afb8b891431cd274fb41a08",
    "destinations": "3809cd071355edc65501b6356886f5b92ff874b17850c77882d739c1bdc5fef5",
}
# Heap pushes over the default sweep: TCP data packets, acks and timer events,
# and the services a busy consumer cannot start at once. Sends and datagram
# arrivals reach each clock as its arrival stream, never through the heap.
DEFAULT_SWEEP_HEAP_PUSHES = 307_412
# Messages the default sweep builds: each of its 24 comparison groups builds
# 1000 per destination once, and its four protocols run them in turn.
DEFAULT_SWEEP_MESSAGES = 12 * 1000 + 12 * 4 * 1000


def test_default_sweep_csvs_match_fingerprint(tmp_path, monkeypatch):
    pushes = built = 0
    scheduled = []  # messages per destination_schedules call
    schedule = SimClock.schedule
    init = Message.__init__
    schedules = harness.destination_schedules

    def counting(self, *args, **kwargs):
        nonlocal pushes
        pushes += 1
        schedule(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    def recording(*args):
        result = schedules(*args)
        scheduled.append(sum(map(len, result)))
        return result

    monkeypatch.setattr(SimClock, "schedule", counting)
    monkeypatch.setattr(Message, "__init__", counting_init)
    monkeypatch.setattr(harness, "destination_schedules", recording)
    sweep = run_sweep(master_seed=20100)
    monkeypatch.undo()
    assert pushes == DEFAULT_SWEEP_HEAP_PUSHES
    assert built == DEFAULT_SWEEP_MESSAGES
    # perfbench's traced contract: every scheduled message counts as sent.
    sent = sum(rep.messages_sent for res in sweep.results for rep in res.per_destination)
    assert len(scheduled) == 96
    assert sum(scheduled) == sent == 4 * DEFAULT_SWEEP_MESSAGES
    write_sweep_csv(str(tmp_path / "sweep_results"), sweep)
    write_aggregate_csv(str(tmp_path / "aggregate"), sweep_rows(sweep))
    write_destination_csv(str(tmp_path / "destinations"), sweep)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEFAULT_SWEEP_SHA256
    }
    assert digests == DEFAULT_SWEEP_SHA256


# SHA-256 of a lossy sweep's results and destinations CSVs at seed 20100:
# 8 TCP-based and UDP-based cells with 15% loss, a window of 3 and a 0.3 s
# timeout, so retransmission and loss reach the output. The default sweep
# has no loss and cannot pin them.
LOSSY_SWEEP_SHA256 = {
    "sweep_results": "b6c381d277e06c98101c04443443e456bc6bc80dc70f6e75730b717f9dfe2674",
    "destinations": "45be72537e467f849354234894fb04656602f279bc0638e7edf641b05e604ba8",
}
# Heap pushes over that sweep, counted as for the default sweep: they also
# cover the reorder buffer's deliveries and the timer's re-arms.
LOSSY_SWEEP_HEAP_PUSHES = 31_124


def test_lossy_sweep_csvs_match_fingerprint(tmp_path, monkeypatch):
    pushes = 0
    schedule = SimClock.schedule

    def counting(self, *args, **kwargs):
        nonlocal pushes
        pushes += 1
        schedule(self, *args, **kwargs)

    monkeypatch.setattr(SimClock, "schedule", counting)
    base = ExperimentConfig(protocol=TransportKind.TCP, loss_prob=0.15, window_size=3, rto_s=0.3)
    with sweep_axes((256,), (0.05,)):
        sweep = run_sweep(master_seed=20100, base=base)
    monkeypatch.undo()
    assert pushes == LOSSY_SWEEP_HEAP_PUSHES
    assert sum(r.report.messages_lost for r in sweep.results) > 0
    write_sweep_csv(str(tmp_path / "sweep_results"), sweep)
    write_destination_csv(str(tmp_path / "destinations"), sweep)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in LOSSY_SWEEP_SHA256
    }
    assert digests == LOSSY_SWEEP_SHA256


# SHA-256 over every record of destination_schedules for a UDP, 256-byte
# cell of seed 20100, per topology and schedule shape. The sweep pin covers
# only Poisson; these also pin the uniform grid, one-to-one and round-robin.
SCHEDULE_SHA256 = {
    ("one_to_one", "uniform"): "0a53c63448c0acabef80af2047bde6b25fad51d00ab130e8b517696d77314b4c",
    ("one_to_one", "poisson"): "ce7ebb33441dbe30afb92b9e4f2da549e3acd492bf4ae092c8740a6a3bde7b90",
    ("one_to_many", "uniform"): "d2b27f3c54cab9db345f6e278e9d6937fd144ef90680034d80b0c487af207d49",
    ("one_to_many", "poisson"): "e55ae158094f2e61ea64875a3229ae9bd6d44ced3cd9a805cc17e5d091647db4",
}


@pytest.mark.parametrize("topology, schedule", sorted(SCHEDULE_SHA256))
def test_destination_schedules_match_fingerprint(topology, schedule):
    cfg = ExperimentConfig(
        protocol=TransportKind.UDP,
        topology=topology,
        packet_size_bytes=256,
        schedule=schedule,
        seed=cell_seed(20100, topology, 256, 0.05),
    )
    digest = hashlib.sha256()
    for dest, records in enumerate(destination_schedules(cfg)):
        for t, m in records:
            line = f"{dest},{t!r},{m.seq},{m.kind.value},{m.size_bytes},{t!r}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == SCHEDULE_SHA256[(topology, schedule)]


@pytest.mark.parametrize("topology, schedule", sorted(SCHEDULE_SHA256))
def test_destination_schedules_number_each_destination_in_send_order(topology, schedule):
    # TcpConnection carries a message under its own seq: each destination's
    # schedule must number its messages 1..n with send times that never
    # decrease, including the uniform fan-out's shared round-robin grid.
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP,
        topology=topology,
        packet_size_bytes=256,
        schedule=schedule,
        seed=cell_seed(20100, topology, 256, 0.05),
    )
    schedules = destination_schedules(cfg)
    assert len(schedules) == cfg.destinations
    for records in schedules:
        times = [t for t, _ in records]
        assert [m.seq for _, m in records] == list(range(1, cfg.message_count + 1))
        assert times == sorted(times)


def test_aggregate_csv_header(tmp_path):
    sweep = small_sweep()  # 16 cells; one size, so aggregation is identity
    path = tmp_path / "agg.csv"
    write_aggregate_csv(str(path), sweep_rows(sweep))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(AGGREGATE_COLUMNS)
    assert len(lines) == 1 + 16


def test_figure_table_shape_and_metric():
    with sweep_axes((32, 256), (0.0, 0.05)):
        sweep = run_sweep(master_seed=7)
    rows = sweep_rows(sweep)
    table = figure_table(rows, 8)
    assert [entry["receiver_delay_s"] for entry in table] == [0.0, 0.05]
    assert set(table[0]) == {"receiver_delay_s", "tcp", "udp", "tcp_uqa", "udp_uqa"}
    agg = aggregate_rows(rows)
    expected = next(
        float(r["avg_queue_len"])
        for r in agg
        if r["protocol"] == "udp" and r["topology"] == "one_to_one"
        and float(r["receiver_delay_s"]) == 0.05
    )
    assert float(table[1]["udp"]) == pytest.approx(expected)
    # One-to-many figures pull from the fan-out rows.
    fanout = figure_table(rows, 11)
    expected_fanout = next(
        float(r["avg_queue_len"])
        for r in agg
        if r["protocol"] == "udp" and r["topology"] == "one_to_many"
        and float(r["receiver_delay_s"]) == 0.05
    )
    assert float(fanout[1]["udp"]) == pytest.approx(expected_fanout)


def test_figure_csv_and_unknown_id(tmp_path):
    sweep = small_sweep()
    rows = sweep_rows(sweep)
    path = tmp_path / "figure_08.csv"
    write_figure_csv(str(path), rows, 8)
    lines = path.read_text().splitlines()
    assert lines[0] == "receiver_delay_s,tcp,udp,tcp_uqa,udp_uqa"
    assert len(lines) == 1 + 2
    with pytest.raises(ValueError, match="unknown figure id"):
        figure_table(rows, 99)


def test_format_number():
    assert format_value(1000.0) == "1000"
    assert format_value(0.03312) == "0.03312"
    assert format_value(927536.2312) == "927536"
    assert format_value(1234567.891) == "1.23457e+06"
    assert format_value(math.inf) == "inf"


def test_format_value_keeps_large_ints_exact():
    assert format_value(6091131066709066476) == "6091131066709066476"
    assert format_value("udp") == "udp"
    assert format_value(0.5) == "0.5"


def test_result_row_columns_match_header():
    cfg = ExperimentConfig(protocol=TransportKind.UDP, seed=1, message_count=10)
    row = result_row(run_experiment(cfg))
    assert tuple(row) == CSV_COLUMNS
