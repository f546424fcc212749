"""Experiment harness: single cells, the full 96-cell sweep, CSV emitters.

The sweep matrix crosses 4 protocols x 3 packet sizes x 4 receiver delays
x 2 topologies. One-to-one runs send 1000 messages over 180 s; one-to-many
runs fan 1000 messages out to each of 4 equidistant destinations over 720 s,
each destination on an independent Poisson stream (a uniform schedule instead
interleaves them round-robin on one grid).

Cell seeds derive from the master seed and the cell's (topology, size,
delay) coordinates - deliberately not the protocol, so the four protocols in
a comparison group see identical traffic (common random numbers; paired
comparisons). The sweep therefore draws and builds each group's (t_send,
message) traffic once and runs it under each protocol in turn, as drawn: a
run writes no field of a message. One pool task is one group. Changing one
cell's parameters never changes another cell's results, and groups may run
in parallel: rows are gathered and written in canonical (protocol, topology,
size, delay) order regardless.

Destinations share no state, so ``run_experiment`` runs each on its own
``SimClock``, one after another; a destination's sends never enter the event
heap: its sender's ``run`` feeds them to the clock as its arrival stream.
"""

from __future__ import annotations

import random
from itertools import product
from math import inf
from typing import Iterable, NamedTuple, Optional, Sequence

from .engine import QUEUE_VARIANTS, SimClock, TransportKind, backoff_cap, build_connection
from .messages import MAX_MESSAGE_COUNT, MAX_SIZE_BYTES
from .metrics import MetricsReport, check_horizon, littles_law_residual, mean, mean_report
from .traffic import (
    FINITE,
    POSITIVE,
    Schedule,
    TrafficConfig,
    check_choice,
    check_range,
    derive_seed,
    generate_schedule,
)

DEFAULT_PACKET_SIZES = (32, 256, 512)
DEFAULT_RECEIVER_DELAYS = (0.0, 0.033, 0.05, 0.1)
DEFAULT_MESSAGE_COUNT = 1000
DEFAULT_DURATIONS = {"one_to_one": 180.0, "one_to_many": 720.0}
TOPOLOGIES = tuple(DEFAULT_DURATIONS)
DEFAULT_DESTINATIONS = 4
# Most destinations one cell may fan out to. Connections are built and run one
# at a time; at this ceiling a one-to-many TCP cell with one message per
# destination takes about 5 s of CPU and 104 MB (2 vCPU, Python 3.11).
MAX_DESTINATIONS = 100_000
DEFAULT_MASTER_SEED = 20100

# The settings default_configs sets per cell; the rest come from the base config.
SWEEP_AXES = ("protocol", "topology", "packet_size_bytes", "receiver_delay_s")
# The columns that name a cell, and those that name its average over packet sizes.
CELL_COLUMNS = SWEEP_AXES + ("seed",)
AGGREGATE_KEY = ("protocol", "topology", "receiver_delay_s")

# The CSV metric columns: the MetricsReport fields before run_duration_s.
METRIC_COLUMNS = MetricsReport._fields[: MetricsReport._fields.index("run_duration_s")]
CSV_COLUMNS = CELL_COLUMNS + METRIC_COLUMNS + ("littles_residual",)
AGGREGATE_COLUMNS = AGGREGATE_KEY + METRIC_COLUMNS

# Figure id -> (metric column, topology). 6-10 are one-to-one, 11-13 fan-out.
FIGURE_SPECS = {
    6: ("avg_client_throughput_bps", "one_to_one"),
    7: ("avg_server_throughput_bps", "one_to_one"),
    8: ("avg_queue_len", "one_to_one"),
    9: ("peak_queue_len", "one_to_one"),
    10: ("avg_time_in_queue_s", "one_to_one"),
    11: ("avg_queue_len", "one_to_many"),
    12: ("peak_queue_len", "one_to_many"),
    13: ("avg_time_in_queue_s", "one_to_many"),
}


class ExperimentConfig(NamedTuple):
    """One cell of the experiment matrix; immutable, so ``_replace`` makes a changed copy."""

    protocol: TransportKind
    topology: str = "one_to_one"
    packet_size_bytes: int = 512
    receiver_delay_s: float = 0.0
    message_count: int = DEFAULT_MESSAGE_COUNT  # per destination
    run_duration_s: Optional[float] = None  # default 180 / 720 by topology
    seed: int = 0
    n_destinations: int = DEFAULT_DESTINATIONS
    p_status: float = TrafficConfig._field_defaults["p_status"]
    schedule: str = TrafficConfig._field_defaults["schedule"]
    send_window_fraction: float = TrafficConfig._field_defaults["send_window_fraction"]
    queue_variant: str = "tail"  # tail | keyed, applies to *_uqa protocols
    propagation_delay_s: float = 0.010
    bandwidth_bps: float = 1_000_000.0
    loss_prob: float = 0.0  # per data packet; acknowledgements are never lost
    window_size: int = 4  # tcp: unacknowledged packets in flight
    ack_size_bytes: int = 40
    rto_s: float = 1.0  # tcp retransmission timeout
    # Per-message costs outside link time. A datagram transport's consumer
    # handles datagrams at application level: udp_app_per_msg_s joins its hold
    # after every dequeue. A tcp_uqa sender keeps keyed-data bookkeeping for its
    # updatable send queue: uqa_update_cost_s per message of source busy time.
    udp_app_per_msg_s: float = 0.002
    uqa_update_cost_s: float = 0.001

    @property
    def duration_s(self) -> float:
        if self.run_duration_s is not None:
            return self.run_duration_s
        return DEFAULT_DURATIONS[self.topology]

    @property
    def destinations(self) -> int:
        return self.n_destinations if self.topology == "one_to_many" else 1

    def traffic(self, dest: int = 0) -> TrafficConfig:
        """The traffic stream sent to one destination."""
        return TrafficConfig(
            message_count=self.message_count,
            packet_size_bytes=self.packet_size_bytes,
            run_duration_s=self.duration_s,
            seed=derive_seed(self.seed, "traffic", dest),
            p_status=self.p_status,
            schedule=self.schedule,  # type: ignore[arg-type]
            send_window_fraction=self.send_window_fraction,
        )

    def validate(self) -> None:
        """Raise ValueError naming the first setting outside its bounds.

        The per-cell message budget bounds the work of a valid cell: the
        timer backs off, so between two acks of new data a TCP connection
        retransmits about ``log2(60 s / rto_s) + 1`` times, then once per
        ``max(60 s, rto_s)``. That last term grows with the run, so a lossy
        reliable cell's ``destinations * duration_s / max(60 s, rto_s)`` is
        held to the same budget. Lossless cells are exempt: each consumption
        acks, so a lossless connection never sits at the backoff cap. The
        backoff bounds anything only while ``now + rto_s > now``, so ``rto_s``
        must resolve at the horizon; then it resolves at every earlier ``now``.
        """
        if not isinstance(self.protocol, TransportKind):
            raise ValueError(f"protocol must be a TransportKind, got {self.protocol!r}")
        check_choice("topology", self.topology, TOPOLOGIES)
        for name in (
            "receiver_delay_s", "propagation_delay_s", "udp_app_per_msg_s", "uqa_update_cost_s"
        ):
            check_range(name, getattr(self, name), 0.0, FINITE, ">= 0 and finite")
        check_range("n_destinations", self.n_destinations, 1, MAX_DESTINATIONS,
                    f"in [1, {MAX_DESTINATIONS}]")
        if self.message_count * self.destinations > MAX_MESSAGE_COUNT:
            raise ValueError(
                f"message_count * n_destinations must be at most {MAX_MESSAGE_COUNT} per cell, "
                f"got {self.message_count} * {self.destinations}"
            )
        check_choice("queue_variant", self.queue_variant, QUEUE_VARIANTS)
        self.traffic().validate()
        check_horizon(self.duration_s, self.message_count, f"run_duration_s {self.duration_s}")
        check_range("bandwidth_bps", self.bandwidth_bps, POSITIVE, FINITE, "positive and finite")
        check_range("loss_prob", self.loss_prob, 0.0, 1.0, "in [0, 1]")
        check_range("window_size", self.window_size, 1, inf, ">= 1")
        check_range("ack_size_bytes", self.ack_size_bytes, 1, MAX_SIZE_BYTES,
                    f"in [1, {MAX_SIZE_BYTES}]")
        check_range("rto_s", self.rto_s, POSITIVE, FINITE, "positive and finite")
        if self.duration_s + self.rto_s == self.duration_s:
            raise ValueError(f"rto_s must be above the clock's resolution at "
                             f"run_duration_s {self.duration_s}, got {self.rto_s}")
        expiries = self.destinations * self.duration_s / backoff_cap(self.rto_s)
        if self.protocol.reliable and self.loss_prob > 0 and expiries > MAX_MESSAGE_COUNT:
            raise ValueError(
                f"run_duration_s {self.duration_s} is too long for a lossy {self.protocol.value} "
                f"cell: {self.destinations} destinations * run_duration_s / max(60 s, rto_s) "
                f"must be at most {MAX_MESSAGE_COUNT} timer expiries"
            )


class ExperimentResult(NamedTuple):
    config: ExperimentConfig
    per_destination: list[MetricsReport]
    report: MetricsReport  # mean across destinations


def cell_seed(master_seed: int, topology: str, packet_size_bytes: int, receiver_delay_s: float) -> int:
    """Cell seed shared by all four protocols of one comparison group."""
    return derive_seed("cell", master_seed, topology, packet_size_bytes, f"{receiver_delay_s:.6g}")


def draw_traffic(config: ExperimentConfig) -> list[Schedule]:
    """One ``Schedule`` of (t_send, message) records per destination, shared by a group.

    One ``generate_schedule`` call per destination draws and builds its stream.
    Uniform pacing places all sends on one global grid assigned round-robin
    across destinations. Poisson gives each destination an independent
    stream with the matching per-destination mean rate.
    """
    n_dest = config.destinations
    return [generate_schedule(config.traffic(dest), dest, n_dest) for dest in range(n_dest)]


def destination_schedules(
    config: ExperimentConfig, draws: Optional[list[Schedule]] = None
) -> list[Schedule]:
    """Per-destination (t_send, message) schedules, ready for a run.

    ``draws`` defaults to the cell's own ``draw_traffic``. Given draws, made
    for a cell of the same comparison group and maybe run already, come back
    unchanged: a run writes no field of a message.
    """
    return draw_traffic(config) if draws is None else draws


def run_experiment(
    config: ExperimentConfig, draws: Optional[list[Schedule]] = None
) -> ExperimentResult:
    """Run one cell and return its finalized per-destination and mean reports.

    ``draws``, if given, are ``draw_traffic`` of a cell of the same comparison
    group: same topology, size, delay and seed (see ``destination_schedules``).
    Destinations share no state, so each runs on a clock of its own, in
    destination order: its connection is built, its sender runs its sorted
    schedule, and its report is finalized before the next.
    """
    config.validate()
    duration = config.duration_s
    reports = []
    for dest, schedule in enumerate(destination_schedules(config, draws)):
        clock = SimClock()
        rng = random.Random(derive_seed(config.seed, "loss", config.protocol.value, dest))
        sender = build_connection(clock, config, rng)
        sender.run(duration, schedule)
        reports.append(sender.collector.finalize(duration, sender.receiver.queue))
    return ExperimentResult(config=config, per_destination=reports, report=mean_report(reports))


def default_configs(
    master_seed: int = DEFAULT_MASTER_SEED,
    base: Optional[ExperimentConfig] = None,
) -> list[ExperimentConfig]:
    """The one sweep matrix, protocol x topology x size x delay, in that canonical order."""
    template = base if base is not None else ExperimentConfig(protocol=TransportKind.TCP)
    # Each cell sets the SWEEP_AXES; its seed derives from all of them but the protocol.
    return [
        template._replace(**dict(zip(SWEEP_AXES, cell)), seed=cell_seed(master_seed, *cell[1:]))
        for cell in product(TransportKind, TOPOLOGIES, DEFAULT_PACKET_SIZES, DEFAULT_RECEIVER_DELAYS)
    ]


class SweepResult(NamedTuple):
    results: list[ExperimentResult]


def check_jobs(jobs: int) -> None:
    check_range("jobs", jobs, 1, inf, ">= 1")


def run_sweep(
    master_seed: int = DEFAULT_MASTER_SEED,
    jobs: int = 1,
    base: Optional[ExperimentConfig] = None,
) -> SweepResult:
    """Run every cell of ``default_configs``; abort naming the cell on any failure.

    Every cell is validated before any traffic is drawn. One task is one
    comparison group: its traffic is drawn once and run under each protocol
    in turn.
    """
    check_jobs(jobs)
    configs = default_configs(master_seed, base)
    for config in configs:
        try:
            config.validate()
        except ValueError as exc:
            raise _cell_failure(config, exc) from exc
    # Canonical order is protocol-major, so group g holds every n_groups-th cell.
    n_groups = len(configs) // len(TransportKind)
    groups = [configs[g::n_groups] for g in range(n_groups)]
    group_results: list[list[ExperimentResult]]
    if jobs > 1:
        # Largest groups first (canonical order among equals), so no worker idles
        # on a long last group; the pool starts at most one worker per group.
        work = [-config.message_count * config.destinations for config in configs[:n_groups]]
        order = sorted(range(n_groups), key=work.__getitem__)
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when forking
        with ProcessPoolExecutor(max_workers=min(jobs, n_groups)) as pool:
            ran = dict(zip(order, pool.map(_run_group, [groups[g] for g in order])))
        group_results = [ran[g] for g in range(n_groups)]
    else:
        group_results = [_run_group(group) for group in groups]
    return SweepResult(results=[res for per_protocol in zip(*group_results) for res in per_protocol])


def _run_group(group: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Run a comparison group's cells, in protocol order, on one draw of traffic."""
    config = group[0]  # the cell an error names, until the loop moves on
    try:
        draws = draw_traffic(config)
        results = []
        for config in group:
            results.append(run_experiment(config, draws))
        return results
    except Exception as exc:
        raise _cell_failure(config, exc) from exc


def _cell_failure(config: ExperimentConfig, exc: Exception) -> RuntimeError:
    return RuntimeError(
        "sweep cell failed: "
        f"protocol={config.protocol.value} topology={config.topology} "
        f"packet_size={config.packet_size_bytes} delay={config.receiver_delay_s}: {exc}"
    )


# -- CSV emission ------------------------------------------------------------


def format_value(value: object) -> str:
    """One CSV cell: strings pass through, ints print exactly and integral
    floats below 1e15 bare; every other float, inf too, to 6 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) or abs(value) < 1e15 and value == int(value):  # type: ignore[arg-type]
        return str(int(value))  # type: ignore[call-overload]
    return f"{value:.6g}"


def report_row(rep: MetricsReport) -> dict[str, object]:
    """The metric columns of one report plus its Little's-law residual."""
    row: dict[str, object] = {col: getattr(rep, col) for col in METRIC_COLUMNS}
    row["littles_residual"] = littles_law_residual(rep)
    return row


def result_row(result: ExperimentResult) -> dict[str, object]:
    """The ``CSV_COLUMNS`` of one cell: its ``CELL_COLUMNS``, then its mean report's."""
    row = {col: getattr(result.config, col) for col in CELL_COLUMNS}
    row["protocol"] = result.config.protocol.value
    return {**row, **report_row(result.report)}


def sweep_rows(sweep: SweepResult) -> list[dict[str, object]]:
    return [result_row(result) for result in sweep.results]


def write_csv(path: str, columns: Sequence[str], rows: Iterable[dict[str, object]]) -> None:
    """The one CSV writer: a header line, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_value(row[col]) for col in columns) + "\n")


def write_sweep_csv(path: str, sweep: SweepResult) -> None:
    write_csv(path, CSV_COLUMNS, sweep_rows(sweep))


def write_destination_csv(path: str, sweep: SweepResult) -> None:
    """Per-destination rows for fan-out cells (plus the single 1:1 row)."""
    columns = CELL_COLUMNS + ("destination",) + CSV_COLUMNS[len(CELL_COLUMNS):]
    rows = []
    for result in sweep.results:
        base = result_row(result)
        for dest, rep in enumerate(result.per_destination):
            rows.append({**base, "destination": dest, **report_row(rep)})
    write_csv(path, columns, rows)


# -- aggregation over packet sizes -------------------------------------------


def aggregate_rows(rows: Iterable[dict[str, object]]) -> list[dict[str, object]]:
    """Average the metric columns over packet sizes.

    Returns one row per (protocol, topology, receiver delay), in the order the
    rows first name each; 32 rows for the sweep.
    """
    groups: dict[tuple, list[dict[str, object]]] = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in AGGREGATE_KEY), []).append(row)
    out = []
    for key, group in groups.items():
        agg: dict[str, object] = dict(zip(AGGREGATE_KEY, key))
        for col in METRIC_COLUMNS:
            agg[col] = mean([m[col] for m in group])  # type: ignore[misc]
        out.append(agg)
    return out


def write_aggregate_csv(path: str, rows: Iterable[dict[str, object]]) -> None:
    write_csv(path, AGGREGATE_COLUMNS, aggregate_rows(rows))


# -- figure data --------------------------------------------------------------


def figure_table(rows: Iterable[dict[str, object]], figure: int) -> list[dict[str, object]]:
    """Figure data: the aggregate of the figure's topology pivoted to receiver
    delay rows, in sorted order, x protocol columns of one metric."""
    if figure not in FIGURE_SPECS:
        raise ValueError(
            f"unknown figure id {figure}; known: {sorted(FIGURE_SPECS)}"
        )
    metric, topology = FIGURE_SPECS[figure]
    table: dict = {}  # receiver delay -> its entry
    for agg in aggregate_rows(rows):
        if agg["topology"] == topology:
            delay = agg["receiver_delay_s"]
            table.setdefault(delay, {"receiver_delay_s": delay})[agg["protocol"]] = agg[metric]
    return [table[delay] for delay in sorted(table)]


def write_figure_csv(path: str, rows: Iterable[dict[str, object]], figure: int) -> None:
    columns = ["receiver_delay_s"] + [kind.value for kind in TransportKind]
    write_csv(path, columns, figure_table(rows, figure))

