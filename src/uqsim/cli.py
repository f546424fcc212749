"""Command-line harness.

Subcommands:
  run     - one experiment cell, summary to stdout, optional CSV row
  sweep   - the full default matrix; writes results, aggregate, and
            per-destination CSVs, and the per-figure CSVs (delay rows x
            protocol columns) built from the same rows
  replay  - push a trace file through a queue variant and print the final
            queue and its counters; optionally drain it through a receiver

Configuration comes from defaults, then an optional key=value file
(--config), then flags; later layers override earlier ones. --print-config
validates the effective settings, prints them and exits. Exit status is 0
on success and 1, with one ``error:`` line on stderr, for any bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, NoReturn, Optional

from .engine import QUEUE_VARIANTS, Receiver, SimClock, TransportKind
from .harness import (
    CSV_COLUMNS,
    DEFAULT_MASTER_SEED,
    FIGURE_SPECS,
    SWEEP_AXES,
    TOPOLOGIES,
    ExperimentConfig,
    cell_seed,
    check_jobs,
    format_value,
    report_row,
    result_row,
    run_experiment,
    run_sweep,
    sweep_rows,
    write_aggregate_csv,
    write_csv,
    write_destination_csv,
    write_figure_csv,
    write_sweep_csv,
)
from .messages import format_trace_record, load_trace
from .metrics import check_horizon
from .traffic import FINITE, SCHEDULES, check_choice, check_range

# Settings the CLI defines itself: a protocol name, and the master seed that
# cell seeds derive from.
CLI_SETTINGS = {"protocol": (str, "udp"), "seed": (int, DEFAULT_MASTER_SEED)}
# Setting name -> (type, default), one per ExperimentConfig field: the single
# source of truth for the config file, the flags, and --print-config. Each
# casts as the type of its field's default (float where the default is None),
# except the CLI_SETTINGS.
SETTINGS: dict[str, tuple[type, object]] = {
    f.name: CLI_SETTINGS.get(f.name, (float if f.default is None else type(f.default), f.default))
    for f in fields(ExperimentConfig)
}


def load_config_file(path: str) -> dict[str, object]:
    settings: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        caster = SETTINGS[key][0]
        try:
            settings[key] = caster(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: cannot parse {value!r} as {caster.__name__} for {key}"
            ) from None
    return settings


def effective_settings(
    args: argparse.Namespace, fixed: tuple[str, ...] = ()
) -> dict[str, object]:
    """Defaults, then the config file, then flags; ``fixed`` must not be in the file."""
    settings = {name: default for name, (_, default) in SETTINGS.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = load_config_file(config_path)
        clash = [name for name in fixed if name in loaded]
        if clash:
            raise ValueError(
                f"{config_path}: cannot set {', '.join(clash)}; the sweep sets it per cell"
            )
        settings.update(loaded)
    for name in SETTINGS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    return settings


def build_experiment_config(settings: dict[str, object], derived_seed: int) -> ExperimentConfig:
    """An ExperimentConfig from typed settings, with the derived cell seed."""
    check_choice("protocol", settings["protocol"], [kind.value for kind in TransportKind])
    protocol = TransportKind(settings["protocol"])
    values = {name: settings[name] for name in SETTINGS if name not in CLI_SETTINGS}
    return ExperimentConfig(protocol=protocol, seed=derived_seed, **values)  # type: ignore[arg-type]


def check_output_paths(*paths: Path) -> None:
    """Reject an output whose directory is missing or that is a directory."""
    for path in paths:
        if not path.parent.is_dir():
            raise ValueError(f"output directory {path.parent} does not exist")
        if path.is_dir():
            raise ValueError(f"output path {path} is a directory")


def print_settings(settings: dict[str, object]) -> None:
    for key in sorted(settings):
        print(f"{key}={settings[key]}")


class CliParser(argparse.ArgumentParser):
    """A parser whose ``error`` raises ValueError, so ``run_guarded`` reports a
    bad flag as it reports a bad config line: one ``error:`` line, exit 1."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _add_model_flags(parser: argparse.ArgumentParser, full: bool) -> None:
    def setting(flag: str, name: str, **kwargs: object) -> None:
        """A flag for one setting, cast as the config file casts it."""
        parser.add_argument(flag, dest=name, type=SETTINGS[name][0], default=None, **kwargs)

    setting("--seed", "seed", help="master seed")
    setting("--loss", "loss_prob", help="per-packet loss probability on the link")
    setting("--window", "window_size", help="tcp window size in packets")
    setting("--queue-variant", "queue_variant", choices=QUEUE_VARIANTS,
            help="updatable-queue replacement scope")
    setting("--schedule", "schedule", choices=SCHEDULES, help="send schedule shape")
    parser.add_argument("--config", default=None, help="key=value configuration file")
    parser.add_argument("--print-config", action="store_true",
                        help="print effective settings and exit")
    if full:
        setting("--protocol", "protocol", choices=[k.value for k in TransportKind])
        setting("--topology", "topology", choices=TOPOLOGIES)
        setting("--packet-size", "packet_size_bytes")
        setting("--receiver-delay", "receiver_delay_s")
        setting("--messages", "message_count", help="messages per destination")
        setting("--duration", "run_duration_s")


def cmd_run(args: argparse.Namespace) -> int:
    settings = effective_settings(args)
    # The cell seed's inputs: the master seed, then the axes but the protocol.
    derived = cell_seed(*(settings[name] for name in ("seed", *SWEEP_AXES[1:])))  # type: ignore[arg-type]
    config = build_experiment_config(settings, derived)
    config.validate()
    if args.print_config:
        print_settings({**settings, "derived_cell_seed": derived})
        return 0
    if args.out:
        check_output_paths(Path(args.out))
    result = run_experiment(config)
    row = result_row(result)
    for key, value in row.items():
        print(f"{key}: {format_value(value)}")
    if args.out:
        write_csv(args.out, CSV_COLUMNS, [row])
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    check_jobs(args.jobs)
    settings = effective_settings(args, fixed=SWEEP_AXES)
    base = build_experiment_config(settings, derived_seed=0)
    for topology in TOPOLOGIES:  # the cell budget and duration depend on it
        replace(base, topology=topology).validate()
    if args.print_config:
        shown = {k: v for k, v in settings.items() if k not in SWEEP_AXES}
        print_settings({**shown, "jobs": args.jobs, "out": args.out})
        return 0
    out = Path(args.out)
    # The other outputs go next to it, one per tag; all are checked before any cell runs.
    tags = ("aggregate", "destinations", *(f"figure_{figure:02d}" for figure in sorted(FIGURE_SPECS)))
    aggregate, destinations, *figures = (out.with_name(f"{out.stem}_{t}{out.suffix}") for t in tags)
    check_output_paths(out, aggregate, destinations, *figures)
    sweep = run_sweep(master_seed=settings["seed"], jobs=args.jobs, base=base)  # type: ignore[arg-type]
    rows = sweep_rows(sweep)
    write_sweep_csv(str(out), sweep)
    write_aggregate_csv(str(aggregate), rows)
    write_destination_csv(str(destinations), sweep)
    print(f"wrote {out} ({len(sweep.results)} cells)")
    print(f"wrote {aggregate}")
    print(f"wrote {destinations}")
    for figure, path in zip(sorted(FIGURE_SPECS), figures):
        write_figure_csv(str(path), rows, figure)
        print(f"wrote {path}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    records = sorted(load_trace(args.trace), key=itemgetter(0))  # stable: ties keep file order
    delay = args.receiver_delay
    clock = SimClock()
    receiver = Receiver(clock, delay or 0.0, args.queue_variant)
    queue = receiver.queue
    duration = records[-1][0] if records else 0.0
    # Without a delay the consumer is never woken: the queue only fills.
    fire, blame = receiver.deliver, f"the trace's last send time {duration}"
    if delay is not None:
        check_range("receiver_delay_s", delay, 0.0, FINITE, ">= 0 and finite")
        duration += delay * (len(records) + 1)
        fire, blame = receiver.arrive, f"{blame} plus --receiver-delay {delay} per message"
    check_horizon(duration, len(records), blame)
    clock.run(duration, records, fire)
    print(f"final_queue_length: {len(queue)}")
    for msg in queue.snapshot():
        print(format_trace_record(msg.t_enqueued or 0.0, msg))
    print(f"inserted: {queue.inserted}")
    print(f"replaced: {queue.replaced}")
    print(f"dequeued: {queue.dequeued}")
    row = report_row(receiver.collector.finalize(duration, queue))
    for key in ("avg_queue_len", "peak_queue_len", "avg_time_in_queue_s", "littles_residual"):
        print(f"{key}: {format_value(row[key])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = CliParser(
        prog="uqsim",
        description="transport comparison harness over FIFO and updatable receive queues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment cell")
    _add_model_flags(p_run, full=True)
    p_run.add_argument("--out", default=None, help="write the result as a one-row CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full experiment matrix")
    _add_model_flags(p_sweep, full=False)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p_sweep.add_argument("--out", default="sweep_results.csv",
                         help="results CSV; the other ten CSVs go next to it")
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay", help="replay a trace file through a queue variant")
    p_replay.add_argument("--trace", required=True)
    p_replay.add_argument(
        "--queue-variant", choices=("fifo", *QUEUE_VARIANTS.values()), default="uqa",
        help="queue policy",
    )
    p_replay.add_argument(
        "--receiver-delay",
        type=float,
        default=None,
        help="drain through a receiver with this per-message delay",
    )
    p_replay.set_defaults(func=cmd_replay)
    return parser


def run_guarded(command: Callable[[], int]) -> int:
    """Exit status of ``command``: 1 with one ``error:`` line on a ValueError,
    RuntimeError or OSError; 0, quietly, if stdout is closed. stdout is flushed
    here, then pointed at os.devnull, so the flush at exit cannot fail again."""
    try:
        status = command()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[list[str]] = None) -> int:
    def command() -> int:  # parsing inside run_guarded: a bad flag exits 1 too
        args = build_parser().parse_args(argv)
        return args.func(args)

    return run_guarded(command)


if __name__ == "__main__":
    sys.exit(main())
