"""The benchmark imports and wraps uqsim names; removing one must fail here."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_loads_and_installs_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", run)
    spec.loader.exec_module(run)
    import spans

    tracer = spans.Tracer()
    try:
        run.install(tracer, True)
    finally:
        tracer.restore()
    assert "harness.write_sweep_csv" in tracer.names
