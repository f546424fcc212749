#!/usr/bin/env python3
"""Benchmark for uqsim: three batch workloads, measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 20100 --seconds 30 --trace 0

Every workload is a closed batch job: it is submitted once, with no arrival
schedule, and its inputs come only from --seed.

* sweep         the default 96-cell matrix (master seed = --seed) run
                serially, then the three CSVs and eight figure tables
                written, as ``uqsim sweep`` and reproduce_comparison.py do.
* sweep-jobs    the same matrix with jobs = nproc. The simulated work is
                identical to sweep; only the process-pool path differs.
* replay-keyed  a seeded 64-sender Poisson trace, made before timing
                starts, replayed through ``uqsim replay --queue-variant
                keyed`` with a consumer slower than the command and event
                rate alone, so the keyed queue grows to about two thousand
                entries.

With --trace 0 the workload's timed call is repeated for --seconds seconds
with nothing wrapped, and the end-to-end metrics are medians over the
repetitions. With --trace 1 the run makes two traced rounds over the
serial sweep and the keyed replay (see spans.py) and reports the per-layer
metrics instead; the second round repeats the first so that the
deterministic counts can be asserted to repeat exactly. Metric names and
units come from BENCHMARK.json. The last line of stdout is one JSON object.

Every output is checked: each sweep cell and destination must conserve
messages, every repetition (and sweep-jobs against a serial sweep) must
write byte-identical CSVs, and each replay must exit 0 with balanced queue
counters. A failed check counts its cell or replay as failed.

Without uqsim's sources in src/ next to this directory the benchmark exits
with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "uqsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: uqsim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import uqsim  # noqa: E402
from uqsim import cli, harness, messages, traffic  # noqa: E402
from uqsim.engine import (  # noqa: E402
    SERVICE_PRIORITY,
    EventHandle,
    Receiver,
    SimClock,
    TcpConnection,
    UdpSender,
)
from uqsim.metrics import MetricsCollector  # noqa: E402
from uqsim.queues import EnqueueOutcome, UpdatableQueue  # noqa: E402

from spans import Tracer, write_spans  # noqa: E402
from speed import SpeedProbe  # noqa: E402

if Path(uqsim.__file__).resolve().parent != SRC / "uqsim":
    sys.exit(f"perfbench: imported uqsim from {uqsim.__file__}, not from {SRC}")

WORKLOADS = ("sweep", "sweep-jobs", "replay-keyed")
JOBS = os.cpu_count() or 1
SWEEP_CELLS = 96
CSV_FILES = ("sweep_results.csv", "sweep_aggregate.csv", "sweep_destinations.csv")
FIGURE_FILES = tuple(f"figure_{fig:02d}.csv" for fig in sorted(harness.FIGURE_SPECS))
EMITTERS = ("write_sweep_csv", "write_aggregate_csv", "write_destination_csv", "write_figure_csv")

# 64 senders x 150 messages (70% status), sent within 45 s of a 50 s run:
# about 64 commands and events arrive per second and the consumer takes 20,
# so the keyed queue grows to about two thousand entries. The consumer is far
# slower than that arrival rate so that the queue's growth, and with it the
# scan work, varies little with the seed (about 4% between seeds).
REPLAY_SENDERS = 64
REPLAY_MESSAGES_PER_SENDER = 150
REPLAY_DURATION_S = 50.0
REPLAY_DELAY_S = 0.05

SETUP_SAMPLES = 7
TRACE_ROUNDS = 2
MIN_REPEATS = 2
DETERMINISTIC = (
    "engine.events_scheduled",
    "engine.cancelled_frac",
    "engine.service_per_delivery",
    "traffic.msgs_generated",
    "queues.replaced_frac",
    "messages.objects",
)


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def cpu_now() -> float:
    """User + system seconds of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def nearest_rank(values: list[float], pct: float) -> float:
    return sorted(values)[max(0, math.ceil(len(values) * pct / 100) - 1)]


# -- workloads ----------------------------------------------------------------


class Sweep:
    """The default matrix, serial (jobs=1) or over a process pool."""

    def __init__(self, seed: int, jobs: int, label: str) -> None:
        self.seed = seed
        self.jobs = jobs
        self.out = WORK / "out" / label
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference: dict[str, bytes] | None = None
        self.messages = 0

    def call(self) -> harness.SweepResult:
        """The timed call: run the sweep, write every CSV and figure table."""
        out = self.out
        sweep = harness.run_sweep(master_seed=self.seed, jobs=self.jobs)
        rows = harness.sweep_rows(sweep)
        harness.write_sweep_csv(str(out / CSV_FILES[0]), sweep)
        harness.write_aggregate_csv(str(out / CSV_FILES[1]), rows)
        harness.write_destination_csv(str(out / CSV_FILES[2]), sweep)
        for fig, name in zip(sorted(harness.FIGURE_SPECS), FIGURE_FILES):
            harness.write_figure_csv(str(out / name), rows, fig)
        return sweep

    def check(self, sweep: harness.SweepResult) -> set[int]:
        """Indices of cells that fail a check; the first call sets the reference."""
        self.messages = int(
            sum(rep.messages_sent for res in sweep.results for rep in res.per_destination)
        )
        failed = {
            i
            for i, res in enumerate(sweep.results)
            if any(rep.conservation_residual() != 0 for rep in res.per_destination)
        }
        if len(sweep.results) != SWEEP_CELLS:
            failed.update(range(SWEEP_CELLS))
        files = {name: (self.out / name).read_bytes() for name in CSV_FILES + FIGURE_FILES}
        if self.reference is None:
            self.reference = files
        else:
            failed |= differing_cells(files, self.reference)
        return failed

    def fingerprint(self) -> dict[str, str]:
        assert self.reference is not None
        return {name: sha256(self.reference[name]) for name in CSV_FILES}


def differing_cells(files: dict[str, bytes], reference: dict[str, bytes]) -> set[int]:
    """Cells whose results-CSV row differs; every cell if only other bytes do."""
    if files == reference:
        return set()
    new = files[CSV_FILES[0]].splitlines()[1:]
    old = reference[CSV_FILES[0]].splitlines()[1:]
    rows = {i for i in range(SWEEP_CELLS) if i >= len(new) or i >= len(old) or new[i] != old[i]}
    return rows or set(range(SWEEP_CELLS))


def replay_argv(trace: str) -> list[str]:
    return ["replay", "--trace", trace, "--queue-variant", "keyed",
            "--receiver-delay", str(REPLAY_DELAY_S)]


class Replay:
    """A seeded multi-sender trace replayed through the keyed queue."""

    def __init__(self, seed: int) -> None:
        self.trace = WORK / "replay.trace"
        self.trace.parent.mkdir(parents=True, exist_ok=True)
        records = []
        for sender in range(REPLAY_SENDERS):
            records += traffic.generate_schedule(
                traffic.TrafficConfig(
                    message_count=REPLAY_MESSAGES_PER_SENDER,
                    packet_size_bytes=64,
                    run_duration_s=REPLAY_DURATION_S,
                    seed=traffic.derive_seed("perfbench-replay", seed, sender),
                    sender=sender,
                    schedule="poisson",
                )
            )
        records.sort(key=lambda rec: rec[0])
        messages.dump_trace(str(self.trace), records)
        self.messages = len(records)
        self.argv = replay_argv(str(self.trace))
        self.reference: str | None = None

    def call(self) -> tuple[int, str]:
        """The timed call: ``uqsim replay``, its stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(self.argv)
        return status, buf.getvalue()

    def check(self, outcome: tuple[int, str]) -> set[int]:
        """{0} if the replay failed a check; the first call sets the reference."""
        status, out = outcome
        counters = {}
        for line in out.splitlines():
            key, sep, value = line.partition(": ")
            if sep:
                counters[key] = value
        try:
            inserted, replaced, queued, dequeued = (
                int(counters[k])
                for k in ("inserted", "replaced", "final_queue_length", "dequeued")
            )
        except (KeyError, ValueError):
            return {0}
        ok = status == 0 and inserted == self.messages == replaced + queued + dequeued
        if self.reference is None:
            self.reference = out
        return set() if ok and out == self.reference else {0}

    def fingerprint(self) -> dict[str, str]:
        assert self.reference is not None
        return {"replay_stdout": sha256(self.reference)}


def make_workload(name: str, seed: int) -> Sweep | Replay:
    if name == "replay-keyed":
        return Replay(seed)
    return Sweep(seed, JOBS if name == "sweep-jobs" else 1, name)


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from a fresh interpreter to the workload's first timed call.

    Covers importing uqsim and building the sweep configs or parsing the
    replay arguments. The first probe also compiles bytecode and is dropped.
    """
    if workload == "replay-keyed":
        body = f"from uqsim import cli; cli.build_parser().parse_args({replay_argv('x')!r})"
    else:
        body = f"import uqsim.harness as h; h.default_configs({seed})"
    code = (
        "import sys, time; t0 = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); {body}; print(time.perf_counter() - t0)"
    )
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=60,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


# -- untraced run: end-to-end metrics ----------------------------------------


def run_end_to_end(
    name: str, seed: int, seconds: float, probe: SpeedProbe
) -> tuple[dict, int, int]:
    with probe.work_cpus(serial=name != "sweep-jobs") as cpus:
        return timed_loop(name, seed, seconds, probe, cpus)


def timed_loop(
    name: str, seed: int, seconds: float, probe: SpeedProbe, cpus: list[int]
) -> tuple[dict, int, int]:
    mark = probe.mark()
    setup_raw = measure_setup(name, seed)
    setup_s = setup_raw * probe.factor(mark, cpus)
    work = make_workload(name, seed)
    per_call = SWEEP_CELLS if isinstance(work, Sweep) else 1
    raw: list[float] = []
    walls: list[float] = []
    cpu_times: list[float] = []
    failures: list[set[int]] = []
    start = time.perf_counter()
    while True:
        mark = probe.mark()
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            outcome = work.call()
        except Exception:
            traceback.print_exc()
            outcome = None
        t1 = time.perf_counter()
        c1 = cpu_now()
        factor = probe.factor(mark, cpus)
        raw.append(t1 - t0)
        walls.append((t1 - t0) * factor)
        cpu_times.append((c1 - c0) * factor)
        failures.append(set(range(per_call)) if outcome is None else work.check(outcome))
        if len(raw) >= MIN_REPEATS and t1 - start + statistics.median(raw) > seconds:
            break
    rss = peak_rss_mb()
    if name == "sweep-jobs" and work.reference is not None:
        serial = Sweep(seed, 1, "sweep-jobs-serial-reference")
        serial.check(serial.call())
        diff = differing_cells(work.reference, serial.reference)  # type: ignore[arg-type]
        failures = [f | diff for f in failures]
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "msgs_per_s": work.messages / wall_s,
        "cpu_s": statistics.median(cpu_times),
        "peak_rss_mb": rss,
    }
    attempted = per_call * len(walls)
    failed = sum(len(f) for f in failures)
    print(f"{name}: {len(walls)} timed calls in {time.perf_counter() - start:.1f} s")
    print(f"host seconds per call: {' '.join(f'{w:.3f}' for w in raw)}; setup {setup_raw:.4f}")
    print(f"reference seconds per call: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"fail_frac: {failed / attempted:.6g} ({failed}/{attempted} "
          f"{'cells' if per_call > 1 else 'replays'})")
    if work.reference is not None:
        record_fingerprint(name, seed, work.fingerprint())
    return metrics, attempted, failed


def record_fingerprint(name: str, seed: int, fingerprint: dict[str, str]) -> None:
    """Print the behaviour fingerprint and keep it in the work directory."""
    for key, digest in fingerprint.items():
        print(f"sha256 {key}: {digest}")
    path = WORK / f"fingerprint-{name}-{seed}.json"
    path.write_text(json.dumps(fingerprint, indent=1) + "\n", encoding="utf-8")


# -- traced run: per-layer metrics -------------------------------------------


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the harness and cli entry points; with ``full``, every layer."""
    tracer.wrap(harness, "run_experiment", "harness", keyed=True)
    for emitter in EMITTERS:
        tracer.wrap(harness, emitter, "harness")
    tracer.wrap(cli, "main", "cli", keyed=True)
    if not full:
        return

    def on_schedule(args: tuple, kwargs: dict, _result: object) -> None:
        priority = kwargs.get("priority", args[3] if len(args) > 3 else 0)
        if priority == SERVICE_PRIORITY:
            tracer.count("engine.service_scheduled")

    def on_enqueue(_args: tuple, _kwargs: dict, result: object) -> None:
        if result is EnqueueOutcome.REPLACED_TAIL:
            tracer.count("queues.replaced")

    def on_schedules(_args: tuple, _kwargs: dict, result: object) -> None:
        tracer.count("traffic.msgs_generated", sum(map(len, result)))  # type: ignore[arg-type]

    tracer.wrap(SimClock, "schedule", "engine", hook=on_schedule)
    tracer.wrap(SimClock, "run", "engine")
    tracer.wrap(EventHandle, "cancel", "engine")
    tracer.wrap(Receiver, "deliver", "engine")
    tracer.wrap(TcpConnection, "submit", "engine")
    tracer.wrap(UdpSender, "submit", "engine")
    for method in ("enqueue_fifo", "enqueue_uqa", "enqueue_keyed"):
        tracer.wrap(UpdatableQueue, method, "queues", hook=on_enqueue)
    tracer.wrap(UpdatableQueue, "dequeue", "queues")
    # destination_schedules reads generate_schedule from the harness module.
    tracer.wrap(harness, "generate_schedule", "traffic", name="traffic.generate_schedule")
    tracer.wrap(harness, "destination_schedules", "traffic", hook=on_schedules)
    for method in sorted(vars(MetricsCollector)):
        if method.startswith("record_") or method == "finalize":
            tracer.wrap(MetricsCollector, method, "metrics")
    tracer.wrap(messages, "parse_trace_record", "messages")
    tracer.wrap(messages.Message, "__init__", "messages")


def traced_call(
    call: Callable[[], object], full: bool | None, probe: SpeedProbe, serial: bool = True
) -> tuple[Tracer, float, float, object]:
    """Run one pass: tracer, wall in reference seconds, speed factor, outcome.

    ``full`` None wraps nothing, False only the harness and cli boundaries,
    True every layer. A ``serial`` pass runs pinned to one CPU (see speed.py).
    """
    tracer = Tracer()
    if full is not None:
        install(tracer, full)
    with probe.work_cpus(serial) as cpus:
        mark = probe.mark()
        try:
            t0 = time.perf_counter()
            outcome = call()
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
    factor = probe.factor(mark, cpus)
    return tracer, wall * factor, factor, outcome


def scaled(agg: dict[str, dict[str, float]], factor: float) -> dict[str, dict[str, float]]:
    """Span aggregates with their times in reference seconds."""
    return {
        name: dict(v, incl_s=v["incl_s"] * factor, self_s=v["self_s"] * factor)
        for name, v in agg.items()
    }


def traced_round(
    name: str, seed: int, replay: Replay, probe: SpeedProbe
) -> tuple[dict, dict, int, int]:
    """One round of passes; returns per-layer metrics, tracers, attempted, failed.

    Every time is in reference seconds (see speed.py), scaled per pass.

    A  serial sweep, harness boundaries only (107 spans): cell times, emit
       time, and the untraced sweep wall time.
    B  serial sweep, every layer wrapped.
    C  sweep over JOBS processes, nothing wrapped: parallel efficiency.
    D  keyed replay, every layer wrapped.
    E  keyed replay, only cli.main wrapped: the untraced replay wall time.
    """
    failed = 0
    sweep_a = Sweep(seed, 1, f"{name}-trace-A")
    a, wall_a, factor_a, out_a = traced_call(sweep_a.call, False, probe)
    failed += len(sweep_a.check(out_a))
    sweep_b = Sweep(seed, 1, f"{name}-trace-B")
    b, wall_b, factor_b, out_b = traced_call(sweep_b.call, True, probe)
    failed += len(sweep_b.check(out_b) | differing_cells(sweep_b.reference, sweep_a.reference))  # type: ignore[arg-type]
    sweep_c = Sweep(seed, JOBS, f"{name}-trace-C")
    _, wall_c, factor_c, out_c = traced_call(sweep_c.call, None, probe, serial=False)
    failed += len(sweep_c.check(out_c) | differing_cells(sweep_c.reference, sweep_a.reference))  # type: ignore[arg-type]
    d, wall_d, factor_d, out_d = traced_call(replay.call, True, probe)
    e, wall_e, _, out_e = traced_call(replay.call, False, probe)
    failed += len(replay.check(out_d)) + len(replay.check(out_e))

    ab, ad = scaled(b.aggregate(), factor_b), scaled(d.aggregate(), factor_d)
    aa = scaled(a.aggregate(), factor_a)
    records = [n for n in ab if n.startswith("MetricsCollector.record_")]
    events = ab["SimClock.schedule"]["calls"]
    deliveries = ab["Receiver.deliver"]["calls"]
    cells = [t * factor_a for t in a.durations("harness.run_experiment")]
    enqueues = [f"UpdatableQueue.enqueue_{m}" for m in ("fifo", "uqa", "keyed")]

    def us(agg: dict, span: str) -> float:
        return agg[span]["incl_s"] / agg[span]["calls"] * 1e6

    def layer_self(agg: dict, layer: str) -> float:
        return sum(v["self_s"] for v in agg.values() if v["layer"] == layer)

    # The trace's counts must agree with the program's own accounting.
    reports = [rep for res in out_b.results for rep in res.per_destination]  # type: ignore[attr-defined]
    if b.counts["traffic.msgs_generated"] != sum(r.messages_sent for r in reports):
        failed += 1
    if deliveries != sum(r.delivered_to_queue for r in reports):
        failed += 1

    metrics = {
        "engine.self_s": layer_self(ab, "engine"),
        "engine.events_scheduled": events,
        "engine.events_per_s": events / sum(cells),
        "engine.cancelled_frac": ab["EventHandle.cancel"]["calls"] / events,
        "engine.service_per_delivery": b.counts["engine.service_scheduled"] / deliveries,
        "engine.tcp_submit_us": us(ab, "TcpConnection.submit"),
        "engine.udp_submit_us": us(ab, "UdpSender.submit"),
        "engine.deliver_us": us(ab, "Receiver.deliver"),
        "queues.enqueue_keyed_us": us(ad, "UpdatableQueue.enqueue_keyed"),
        "queues.enqueue_fifo_us": us(ab, "UpdatableQueue.enqueue_fifo"),
        "queues.enqueue_uqa_us": us(ab, "UpdatableQueue.enqueue_uqa"),
        "queues.dequeue_us": us(ab, "UpdatableQueue.dequeue"),
        "queues.replaced_frac": (b.counts.get("queues.replaced", 0) + d.counts.get("queues.replaced", 0))
        / sum(agg[n]["calls"] for agg in (ab, ad) for n in enqueues),
        "traffic.schedule_s": ab["harness.destination_schedules"]["incl_s"],
        "traffic.msgs_generated": b.counts["traffic.msgs_generated"],
        "metrics.record_calls": sum(ab[n]["calls"] for n in records),
        "metrics.record_s": sum(ab[n]["incl_s"] for n in records),
        "metrics.finalize_s": ab["MetricsCollector.finalize"]["incl_s"],
        "messages.parse_us": us(ad, "messages.parse_trace_record"),
        "messages.objects": ab["Message.__init__"]["calls"] + ad["Message.__init__"]["calls"],
        "harness.cell_p50_s": statistics.median(cells),
        "harness.cell_p89_s": nearest_rank(cells, 89),
        # In host seconds: the probe runs in this process, not in the workers.
        "harness.parallel_eff": sum(cells) / factor_a / (JOBS * wall_c / factor_c),
        "harness.emit_s": sum(aa[f"harness.{n}"]["incl_s"] for n in EMITTERS),
        "cli.replay_self_s": layer_self(ad, "cli"),
        "bench.trace_overhead_frac": (
            wall_d / wall_e - 1.0 if name == "replay-keyed" else wall_b / wall_a - 1.0
        ),
    }
    attempted = 3 * SWEEP_CELLS + 2 + 2  # cells, replays, trace-vs-program counts
    return metrics, {"A": a, "B": b, "D": d, "E": e}, attempted, failed


def run_traced(name: str, seed: int, probe: SpeedProbe) -> tuple[dict, int, int]:
    replay = Replay(seed)
    rounds = []
    attempted = failed = 0
    tracers: dict[str, Tracer] = {}
    for _ in range(TRACE_ROUNDS):
        tracers.clear()  # keep only one round's spans in memory
        metrics, tracers, n, bad = traced_round(name, seed, replay, probe)
        rounds.append(metrics)
        attempted += n
        failed += bad
    attempted += len(DETERMINISTIC)
    for key in DETERMINISTIC:
        values = {m[key] for m in rounds}
        if len(values) != 1:
            print(f"deterministic count {key} differs between rounds: {sorted(values)}")
            failed += 1
    print(f"{name}: {TRACE_ROUNDS} traced rounds; fail_frac {failed / attempted:.6g} "
          f"({failed}/{attempted} cells and replays and count checks)")
    for key in DETERMINISTIC:
        print(f"count {key}: {rounds[-1][key]!r}")
    write_spans(WORK / f"spans-{name}", tracers)
    print(f"spans of the last round: {WORK / f'spans-{name}.bin'} "
          f"({sum(len(t.start) for t in tracers.values())} spans)")
    metrics = {key: statistics.median(m[key] for m in rounds) for key in rounds[0]}
    return metrics, attempted, failed


# -- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="uqsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORK.mkdir(exist_ok=True)
    print(f"python {platform.python_version()} on {platform.machine()}, nproc {JOBS}, "
          f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    with SpeedProbe() as probe:
        if args.trace:
            values, attempted, failed = run_traced(args.workload, args.seed, probe)
        else:
            values, attempted, failed = run_end_to_end(
                args.workload, args.seed, args.seconds, probe
            )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for key, metric in metrics.items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
