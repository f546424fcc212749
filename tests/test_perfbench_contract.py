"""The benchmark imports and wraps uqsim names; removing one must fail here."""

import importlib.util
import sys
from pathlib import Path

from conftest import sweep_axes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", run)
    spec.loader.exec_module(run)
    return run


def test_benchmark_loads_and_installs_every_wrapper(monkeypatch):
    run = load_benchmark(monkeypatch)
    import spans

    tracer = spans.Tracer()
    try:
        run.install(tracer, True)
    finally:
        tracer.restore()
    assert "harness.write_sweep_csv" in tracer.names


def test_replay_keyed_workload_passes_its_check(monkeypatch, tmp_path):
    # One untimed call of the replay-keyed workload: its check reads the
    # replay's counters and fails the call when they do not balance.
    run = load_benchmark(monkeypatch)
    monkeypatch.setattr(run, "WORK", tmp_path)
    replay = run.Replay(20100)
    status, out = replay.call()
    assert status == 0
    assert f"inserted: {replay.messages}" in out
    assert replay.check((status, out)) == set()


def test_traced_keyed_replay_counts_every_replacement(monkeypatch, tmp_path):
    # The traced run counts queues.replaced from enqueue_keyed's REPLACED_TAIL
    # outcome; a replacement returned as INSERTED would skew replaced_frac
    # without an error.
    run = load_benchmark(monkeypatch)
    import spans

    monkeypatch.setattr(run, "WORK", tmp_path)
    replay = run.Replay(20100)
    tracer = spans.Tracer()
    try:
        run.install(tracer, True)
        status, out = replay.call()
    finally:
        tracer.restore()
    assert status == 0
    counters = dict(line.split(": ") for line in out.splitlines() if ": " in line)
    assert int(counters["replaced"]) > 0
    assert tracer.counts["queues.replaced"] == int(counters["replaced"])
    calls = tracer.aggregate()["UpdatableQueue.enqueue_keyed"]["calls"]
    assert calls == int(counters["inserted"]) == replay.messages


def test_traced_sweep_counts_service_pushes_and_every_delivery(monkeypatch):
    # The traced run divides the service pushes its schedule hook counts by
    # the deliveries it counts, and checks those against the reports. A
    # priority passed positionally, or a delivery that skips
    # Receiver.deliver, would skew both without an error.
    run = load_benchmark(monkeypatch)
    import spans

    from uqsim.harness import run_sweep

    tracer = spans.Tracer()
    try:
        run.install(tracer, True)
        with sweep_axes((256,), (0.0, 0.05)):
            sweep = run_sweep(master_seed=7)
    finally:
        tracer.restore()
    assert len(sweep.results) == 16
    assert tracer.counts["engine.service_scheduled"] > 0
    delivered = sum(rep.delivered_to_queue for res in sweep.results for rep in res.per_destination)
    assert tracer.aggregate()["Receiver.deliver"]["calls"] == delivered


def test_traced_sweep_times_each_destinations_traffic(monkeypatch):
    # The traffic layer wraps harness.generate_schedule; the sweep must draw
    # through that name, once per destination of each comparison group: 1 for
    # each of the 2 one-to-one groups, 4 for each of the 2 fan-out groups.
    run = load_benchmark(monkeypatch)
    import spans

    from uqsim.harness import run_sweep

    tracer = spans.Tracer()
    try:
        run.install(tracer, True)
        with sweep_axes((256,), (0.0, 0.05)):
            run_sweep(master_seed=7)
    finally:
        tracer.restore()
    assert tracer.aggregate()["traffic.generate_schedule"]["calls"] == 2 * 1 + 2 * 4
