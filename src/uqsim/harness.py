"""Experiment harness: single cells, the full 96-cell sweep, CSV emitters.

The default matrix crosses 4 protocols x 3 packet sizes x 4 receiver delays
x 2 topologies. One-to-one runs send 1000 messages over 180 s; one-to-many
runs fan 1000 messages out to each of 4 equidistant destinations over 720 s,
the source interleaving destinations round-robin.

Cell seeds derive from the master seed and the cell's (topology, size,
delay) coordinates - deliberately not the protocol, so the four protocols in
a comparison group see identical traffic (common random numbers; paired
comparisons). The sweep therefore draws each group's (t_send, kind) traffic
once and builds fresh messages from it for each protocol; one pool task is
one group. Changing one cell's parameters never changes another cell's
results, and groups may run in parallel: rows are gathered and written in
canonical (protocol, topology, size, delay) order regardless.

A cell's sends never enter the event heap: ``run_experiment`` hands them to
``SimClock.run`` as one time-sorted arrival stream.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import inf
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .engine import SimClock, TransportKind, build_connection
from .messages import MAX_SIZE_BYTES, TraceRecord
from .metrics import MetricsReport, check_horizon, littles_law_residual, mean_report
# generate_schedule stays a harness name: perfbench/run.py wraps it here.
from .traffic import (  # noqa: F401
    MAX_MESSAGE_COUNT,
    Draw,
    TrafficConfig,
    derive_seed,
    draw_schedule,
    generate_schedule,
    schedule_messages,
)

PROTOCOL_ORDER = (
    TransportKind.TCP,
    TransportKind.UDP,
    TransportKind.TCP_UQA,
    TransportKind.UDP_UQA,
)
TOPOLOGIES = ("one_to_one", "one_to_many")
QUEUE_VARIANTS = ("tail", "keyed")  # replacement scope of the *_uqa queues
DEFAULT_PACKET_SIZES = (32, 256, 512)
DEFAULT_RECEIVER_DELAYS = (0.0, 0.033, 0.05, 0.1)
DEFAULT_MESSAGE_COUNT = 1000
DEFAULT_DURATIONS = {"one_to_one": 180.0, "one_to_many": 720.0}
DEFAULT_DESTINATIONS = 4
# Most destinations one cell may fan out to. Every connection is built before
# the run starts; at this ceiling a one-to-many TCP cell with one message per
# destination takes about 13 s and 0.7 GB.
MAX_DESTINATIONS = 100_000
DEFAULT_MASTER_SEED = 20100

# The settings default_configs sets per cell; the rest come from the base config.
SWEEP_AXES = ("protocol", "topology", "packet_size_bytes", "receiver_delay_s")

METRIC_COLUMNS = (
    "messages_sent",
    "messages_delivered",
    "messages_replaced",
    "messages_lost",
    "acks_generated",
    "avg_client_throughput_bps",
    "avg_server_throughput_bps",
    "avg_queue_len",
    "peak_queue_len",
    "avg_time_in_queue_s",
)
CSV_COLUMNS = (
    ("protocol", "topology", "packet_size_bytes", "receiver_delay_s", "seed")
    + METRIC_COLUMNS
    + ("littles_residual",)
)
AGGREGATE_COLUMNS = ("protocol", "topology", "receiver_delay_s") + METRIC_COLUMNS

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


@dataclass(slots=True)
class ExperimentConfig:
    """One cell of the experiment matrix."""

    protocol: TransportKind
    topology: str = "one_to_one"
    packet_size_bytes: int = 512
    receiver_delay_s: float = 0.0
    message_count: int = DEFAULT_MESSAGE_COUNT  # per destination
    run_duration_s: Optional[float] = None  # default 180 / 720 by topology
    seed: int = 0
    n_destinations: int = DEFAULT_DESTINATIONS
    p_status: float = 0.70
    schedule: str = "poisson"
    send_window_fraction: float = 0.9
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
        if not isinstance(self.protocol, TransportKind):
            raise ValueError(f"protocol must be a TransportKind, got {self.protocol!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        for name in (
            "receiver_delay_s", "propagation_delay_s", "udp_app_per_msg_s", "uqa_update_cost_s"
        ):
            value = getattr(self, name)
            if not 0 <= value < inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")
        if not 1 <= self.n_destinations <= MAX_DESTINATIONS:
            raise ValueError(
                f"n_destinations must be in [1, {MAX_DESTINATIONS}], got {self.n_destinations}"
            )
        if self.message_count * self.destinations > MAX_MESSAGE_COUNT:
            raise ValueError(
                f"message_count * n_destinations must be at most {MAX_MESSAGE_COUNT} per cell, "
                f"got {self.message_count} * {self.destinations}"
            )
        if self.queue_variant not in QUEUE_VARIANTS:
            raise ValueError(
                f"queue_variant must be one of {QUEUE_VARIANTS}, got {self.queue_variant!r}"
            )
        self.traffic().validate()
        check_horizon(self.duration_s, self.message_count, f"run_duration_s {self.duration_s}")
        if not 0 < self.bandwidth_bps < inf:
            raise ValueError(
                f"bandwidth_bps must be positive and finite, got {self.bandwidth_bps}"
            )
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"loss_prob must be in [0, 1], got {self.loss_prob}")
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0 < self.ack_size_bytes <= MAX_SIZE_BYTES:
            raise ValueError(
                f"ack_size_bytes must be in [1, {MAX_SIZE_BYTES}], got {self.ack_size_bytes}"
            )
        if not 0 < self.rto_s < inf:
            raise ValueError(f"rto_s must be positive and finite, got {self.rto_s}")


@dataclass(slots=True)
class ExperimentResult:
    config: ExperimentConfig
    per_destination: list[MetricsReport]
    report: MetricsReport  # mean across destinations


def cell_seed(master_seed: int, topology: str, packet_size_bytes: int, receiver_delay_s: float) -> int:
    """Cell seed shared by all four protocols of one comparison group."""
    return derive_seed("cell", master_seed, topology, packet_size_bytes, f"{receiver_delay_s:.6g}")


def draw_traffic(config: ExperimentConfig) -> list[list[Draw]]:
    """Per-destination (t_send, kind) draws, shared by a comparison group.

    Uniform pacing places all sends on one global grid assigned round-robin
    across destinations. Poisson gives each destination an independent
    stream with the matching per-destination mean rate.
    """
    n_dest = config.destinations
    return [draw_schedule(config.traffic(dest), dest, n_dest) for dest in range(n_dest)]


def destination_schedules(
    config: ExperimentConfig, draws: Optional[list[list[Draw]]] = None
) -> list[list[TraceRecord]]:
    """Per-destination (t_send, message) schedules of fresh messages.

    ``draws`` defaults to the cell's own ``draw_traffic``; every run needs
    fresh messages, because the queue and TCP mark them.
    """
    if draws is None:
        draws = draw_traffic(config)
    return [schedule_messages(config.traffic(dest), d) for dest, d in enumerate(draws)]


def run_experiment(
    config: ExperimentConfig, draws: Optional[list[list[Draw]]] = None
) -> ExperimentResult:
    """Run one cell and return its finalized per-destination and mean reports.

    ``draws`` are the cell's traffic if already drawn (see ``draw_traffic``).
    Sends enter the clock as one arrival stream: the destinations' schedules
    in destination order, stable-sorted by time.
    """
    config.validate()
    clock = SimClock()
    duration = config.duration_s
    senders = [
        build_connection(
            clock, config, random.Random(derive_seed(config.seed, "loss", config.protocol.value, dest))
        )
        for dest in range(config.destinations)
    ]
    arrivals = [
        (t_send, submit, msg)
        for submit, schedule in zip(
            [sender.submit for sender in senders], destination_schedules(config, draws)
        )
        for t_send, msg in schedule
    ]
    arrivals.sort(key=itemgetter(0))
    clock.run(duration, arrivals)
    reports = [sender.collector.finalize(duration, sender.receiver.queue) for sender in senders]
    return ExperimentResult(config=config, per_destination=reports, report=mean_report(reports))


def default_configs(
    master_seed: int = DEFAULT_MASTER_SEED,
    base: Optional[ExperimentConfig] = None,
    packet_sizes: Sequence[int] = DEFAULT_PACKET_SIZES,
    receiver_delays: Sequence[float] = DEFAULT_RECEIVER_DELAYS,
) -> list[ExperimentConfig]:
    """The sweep matrix in canonical (protocol, topology, size, delay) order."""
    template = base if base is not None else ExperimentConfig(protocol=TransportKind.TCP)
    configs = []
    for protocol in PROTOCOL_ORDER:
        for topology in TOPOLOGIES:
            for size in packet_sizes:
                for delay in receiver_delays:
                    configs.append(
                        replace(
                            template,
                            protocol=protocol,
                            topology=topology,
                            packet_size_bytes=size,
                            receiver_delay_s=delay,
                            seed=cell_seed(master_seed, topology, size, delay),
                        )
                    )
    return configs


@dataclass(slots=True)
class SweepResult:
    results: list[ExperimentResult]


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_sweep(
    master_seed: int = DEFAULT_MASTER_SEED,
    jobs: int = 1,
    base: Optional[ExperimentConfig] = None,
    packet_sizes: Sequence[int] = DEFAULT_PACKET_SIZES,
    receiver_delays: Sequence[float] = DEFAULT_RECEIVER_DELAYS,
) -> SweepResult:
    """Run every cell of the matrix; abort naming the cell on any failure.

    Every cell is validated before any traffic is drawn. One task is one
    comparison group: its traffic is drawn once and run under each protocol
    in turn.
    """
    check_jobs(jobs)
    configs = default_configs(master_seed, base, packet_sizes, receiver_delays)
    for config in configs:
        try:
            config.validate()
        except ValueError as exc:
            raise _cell_failure(config, exc) from exc
    # Canonical order is protocol-major, so group g holds every n_groups-th cell.
    n_groups = len(configs) // len(PROTOCOL_ORDER)
    groups = [configs[g::n_groups] for g in range(n_groups)]
    group_results: list[list[ExperimentResult]]
    if jobs > 1:
        # The pool starts every worker at once; more than one per group would idle.
        with ProcessPoolExecutor(max_workers=min(jobs, n_groups)) as pool:
            group_results = list(pool.map(_run_group, groups))
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


def format_number(value: float) -> str:
    """Integers print bare; everything else gets 6 significant digits."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def format_value(value: object) -> str:
    """CSV cell formatting: strings pass through, ints stay exact."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format_number(float(value))  # type: ignore[arg-type]


def report_row(rep: MetricsReport) -> dict[str, object]:
    """The metric columns of one report plus its Little's-law residual."""
    row: dict[str, object] = {col: getattr(rep, col) for col in METRIC_COLUMNS}
    rate = (
        rep.messages_delivered / rep.run_duration_s if rep.run_duration_s > 0 else 0.0
    )
    row["littles_residual"] = littles_law_residual(rep, rate)
    return row


def result_row(result: ExperimentResult) -> dict[str, object]:
    cfg = result.config
    return {
        "protocol": cfg.protocol.value,
        "topology": cfg.topology,
        "packet_size_bytes": cfg.packet_size_bytes,
        "receiver_delay_s": cfg.receiver_delay_s,
        "seed": cfg.seed,
        **report_row(result.report),
    }


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
    columns = CSV_COLUMNS[:5] + ("destination",) + CSV_COLUMNS[5:]
    rows = []
    for result in sweep.results:
        base = result_row(result)
        for dest, rep in enumerate(result.per_destination):
            rows.append({**base, "destination": dest, **report_row(rep)})
    write_csv(path, columns, rows)


# -- aggregation over packet sizes -------------------------------------------


def aggregate_rows(rows: Iterable[dict[str, object]]) -> list[dict[str, object]]:
    """Average the metric columns over packet sizes.

    Returns one row per (protocol, topology, receiver delay), canonically
    ordered; 32 rows for the default matrix.
    """
    groups: dict[tuple, list[dict[str, object]]] = {}
    for row in rows:
        key = (row["protocol"], row["topology"], row["receiver_delay_s"])
        groups.setdefault(key, []).append(row)
    protocol_rank = {kind.value: i for i, kind in enumerate(PROTOCOL_ORDER)}
    topology_rank = {name: i for i, name in enumerate(TOPOLOGIES)}
    out = []
    for key in sorted(
        groups, key=lambda k: (protocol_rank[k[0]], topology_rank[k[1]], k[2])
    ):
        members = groups[key]
        agg: dict[str, object] = {
            "protocol": key[0],
            "topology": key[1],
            "receiver_delay_s": key[2],
        }
        for col in METRIC_COLUMNS:
            agg[col] = sum(m[col] for m in members) / len(members)  # type: ignore[call-overload]
        out.append(agg)
    return out


def write_aggregate_csv(path: str, rows: Iterable[dict[str, object]]) -> None:
    write_csv(path, AGGREGATE_COLUMNS, aggregate_rows(rows))


# -- figure data --------------------------------------------------------------


def figure_table(rows: Iterable[dict[str, object]], figure: int) -> list[dict[str, object]]:
    """Figure data: receiver delay rows x protocol columns for one metric."""
    if figure not in FIGURE_SPECS:
        raise ValueError(
            f"unknown figure id {figure}; known: {sorted(FIGURE_SPECS)}"
        )
    metric, topology = FIGURE_SPECS[figure]
    # aggregate_rows gives at most one row per (protocol, topology, delay).
    agg = aggregate_rows(rows)
    by_key = {(r["protocol"], r["topology"], r["receiver_delay_s"]): r for r in agg}
    delays = sorted({delay for _, top, delay in by_key if top == topology})
    table = []
    for delay in delays:
        entry: dict[str, object] = {"receiver_delay_s": delay}
        for kind in PROTOCOL_ORDER:
            row = by_key.get((kind.value, topology, delay))
            if row is None:
                raise ValueError(
                    f"figure {figure}: no aggregate row for ({kind.value}, {topology}, {delay})"
                )
            entry[kind.value] = row[metric]
        table.append(entry)
    return table


def write_figure_csv(path: str, rows: Iterable[dict[str, object]], figure: int) -> None:
    columns = ["receiver_delay_s"] + [kind.value for kind in PROTOCOL_ORDER]
    write_csv(path, columns, figure_table(rows, figure))

