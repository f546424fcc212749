"""Experiment harness: single cells, the full 96-cell sweep, CSV emitters.

The default matrix crosses 4 protocols x 3 packet sizes x 4 receiver delays
x 2 topologies. One-to-one runs send 1000 messages over 180 s; one-to-many
runs fan 1000 messages out to each of 4 equidistant destinations over 720 s,
the source interleaving destinations round-robin.

Cell seeds derive from the master seed and the cell's (topology, size,
delay) coordinates - deliberately not the protocol, so the four protocols in
a comparison group see identical traffic (common random numbers; paired
comparisons). Changing one cell's parameters never changes another cell's
results, and the sweep may run cells in parallel: rows are gathered and
written in canonical (protocol, topology, size, delay) order regardless.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from math import inf
from typing import Iterable, Optional, Sequence

from .engine import (
    LinkParams,
    ProcessingCosts,
    SimClock,
    TcpModel,
    TransportKind,
    build_connection,
)
from .messages import TraceRecord
from .metrics import MetricsReport, littles_law_residual, mean_report
from .traffic import TrafficConfig, derive_seed, generate_schedule

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
DEFAULT_MASTER_SEED = 20100
CELLS_PER_TASK = 4  # pool task size of a parallel sweep

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
    link: LinkParams = field(default_factory=LinkParams)
    tcp: TcpModel = field(default_factory=TcpModel)
    costs: ProcessingCosts = field(default_factory=ProcessingCosts)

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
        if not 0 <= self.receiver_delay_s < inf:
            raise ValueError(
                f"receiver_delay_s must be >= 0 and finite, got {self.receiver_delay_s}"
            )
        if self.n_destinations < 1:
            raise ValueError(f"n_destinations must be >= 1, got {self.n_destinations}")
        if self.queue_variant not in QUEUE_VARIANTS:
            raise ValueError(
                f"queue_variant must be one of {QUEUE_VARIANTS}, got {self.queue_variant!r}"
            )
        self.traffic().validate()
        self.link.validate()
        self.tcp.validate()
        self.costs.validate()


@dataclass(slots=True)
class ExperimentResult:
    config: ExperimentConfig
    per_destination: list[MetricsReport]
    report: MetricsReport  # mean across destinations


def cell_seed(master_seed: int, topology: str, packet_size_bytes: int, receiver_delay_s: float) -> int:
    """Cell seed shared by all four protocols of one comparison group."""
    return derive_seed("cell", master_seed, topology, packet_size_bytes, f"{receiver_delay_s:.6g}")


def destination_schedules(config: ExperimentConfig) -> list[list[TraceRecord]]:
    """Per-destination (t_send, message) schedules.

    Uniform pacing places all sends on one global grid assigned round-robin
    across destinations. Poisson gives each destination an independent
    exponential stream with the matching per-destination mean rate.
    """
    n_dest = config.destinations
    return [generate_schedule(config.traffic(dest), dest, n_dest) for dest in range(n_dest)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one cell and return its finalized per-destination and mean reports."""
    config.validate()
    clock = SimClock()
    duration = config.duration_s
    senders = []
    for dest, schedule in enumerate(destination_schedules(config)):
        loss_rng = random.Random(
            derive_seed(config.seed, "loss", config.protocol.value, dest)
        )
        sender = build_connection(
            clock,
            config.protocol,
            config.link,
            config.tcp,
            config.costs,
            config.receiver_delay_s,
            config.queue_variant,
            loss_rng,
        )
        submit = sender.submit
        for t_send, msg in schedule:
            clock.schedule(t_send, submit, msg)
        senders.append(sender)
    clock.run(duration)
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
    """Run every cell of the matrix; abort naming the cell on any failure."""
    check_jobs(jobs)
    configs = default_configs(master_seed, base, packet_sizes, receiver_delays)
    results: list[ExperimentResult]
    if jobs > 1:
        # The pool starts every worker at once; more than one per chunk would idle.
        chunks = -(-len(configs) // CELLS_PER_TASK)
        with ProcessPoolExecutor(max_workers=min(jobs, chunks)) as pool:
            results = list(pool.map(_run_cell, configs, chunksize=CELLS_PER_TASK))
    else:
        results = [_run_cell(config) for config in configs]
    return SweepResult(results=results)


def _run_cell(config: ExperimentConfig) -> ExperimentResult:
    try:
        return run_experiment(config)
    except Exception as exc:
        raise RuntimeError(
            "sweep cell failed: "
            f"protocol={config.protocol.value} topology={config.topology} "
            f"packet_size={config.packet_size_bytes} delay={config.receiver_delay_s}: {exc}"
        ) from exc


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
    groups: dict[tuple[str, str, float], list[dict[str, object]]] = {}
    for row in rows:
        key = (
            str(row["protocol"]),
            str(row["topology"]),
            float(row["receiver_delay_s"]),  # type: ignore[arg-type]
        )
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
            agg[col] = sum(float(m[col]) for m in members) / len(members)  # type: ignore[arg-type]
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

