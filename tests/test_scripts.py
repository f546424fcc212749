"""The scripts import uqsim names; removing one must fail here. Also what
importing the queue library loads, and how the scripts and ``uqsim`` end:
bad input, closed stdout."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name, monkeypatch):
    # Each script puts src/ on sys.path at import; keep that to this test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["reproduce_comparison", "littles_law_check"])
def test_script_loads(monkeypatch, name):
    assert callable(load_script(name, monkeypatch).main)


def test_littles_law_check_runs(monkeypatch, capsys):
    script = load_script("littles_law_check", monkeypatch)
    monkeypatch.setattr(sys, "argv", ["littles_law_check.py", "--messages", "300"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["delay_s", "rho", "L", "rate*W", "residual"]
    assert [line.split()[0] for line in lines[1:]] == ["0.033", "0.050", "0.100"]


def test_queue_library_imports_without_the_simulator():
    # A fresh interpreter: this one has loaded every module already.
    code = (
        "import sys, uqsim.queues\n"
        "print(sorted(m for m in sys.modules if m.startswith('uqsim')))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert child.stdout.strip() == "['uqsim', 'uqsim.messages', 'uqsim.queues']", child.stderr


def run_child(argv, unbuffered, stdout=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_reproduce_comparison_rejects_jobs_below_one(tmp_path):
    out_dir = tmp_path / "results"
    child = run_child(
        [str(SCRIPTS / "reproduce_comparison.py"), "--jobs", "-2", "--out-dir", str(out_dir)],
        unbuffered=False,
        stdout=subprocess.DEVNULL,
    )
    err = child.communicate(timeout=60)[1].decode()
    assert child.returncode == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "jobs" in lines[0], err
    assert not out_dir.exists()


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "uqsim", "sweep", "--print-config"],
        [str(SCRIPTS / "littles_law_check.py"), "--messages", "300"],
    ],
    ids=["uqsim", "littles_law_check"],
)
def test_closed_stdout_ends_quietly(argv, unbuffered):
    child = run_child(argv, unbuffered)
    child.stdout.close()  # the reader is gone before the child writes
    err = child.stderr.read()
    assert child.wait(timeout=60) == 0
    assert err == b""
