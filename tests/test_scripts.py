"""The scripts import uqsim names; removing one must fail here. Also what
importing the queue library or the engine loads, how the scripts and
``uqsim`` end: bad input, closed stdout, and that the package, the scripts
and the tests import nothing they do not use, and that the package defines
no public name only tests use."""

import ast
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


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("uqsim.queues", ["uqsim", "uqsim.messages", "uqsim.queues"]),
        # The engine reads ExperimentConfig but must not import the harness.
        ("uqsim.engine", ["uqsim", "uqsim.engine", "uqsim.messages", "uqsim.metrics", "uqsim.queues"]),
    ],
    ids=["uqsim.queues", "uqsim.engine"],
)
def test_queue_library_imports_without_the_simulator(module, loaded):
    child = fresh_import(module, "sorted(m for m in sys.modules if m.startswith('uqsim'))")
    assert child.stdout.strip() == str(loaded), child.stderr


def fresh_import(module, expression):
    """Print ``expression`` in a fresh interpreter that imported ``module``:
    this one has loaded every module already."""
    code = f"import sys, {module}\nprint({expression})"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("module", ["uqsim.cli", "uqsim.harness"])
def test_serial_entry_points_import_no_process_pool(module):
    # Only a sweep with --jobs > 1 needs the pool; multiprocessing is most of
    # what importing it costs a serial run or a replay.
    child = fresh_import(
        module, "[m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]"
    )
    assert child.stdout.strip() == "[]", child.stdout + child.stderr


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


@pytest.mark.parametrize(
    "argv",
    [["reproduce_comparison.py", "--jobs", "x"], ["littles_law_check.py", "--messages", "1e3"]],
    ids=["reproduce_comparison", "littles_law_check"],
)
def test_script_rejects_a_bad_flag_in_one_line(argv):
    child = run_child([str(SCRIPTS / argv[0]), *argv[1:]], unbuffered=False)
    out, err = child.communicate(timeout=60)
    assert child.returncode == 1 and out == b""
    lines = err.decode().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and argv[1] in lines[0], err


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
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == b""


def referenced_names(tree):
    """Every bare name a module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # A function's return, an argument's or an annotated assignment's.
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if annotation is not None:
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        names |= referenced_names(ast.parse(part.value, mode="eval"))
                    except SyntaxError:  # a Literal value, not a forward reference
                        pass
    return names


def unused_imports(source):
    """(line, name) of each import never referenced in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = referenced_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if any("# noqa: F401" in line for line in marked):
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((alias.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import heapq, os.path\n"
        "from operator import itemgetter\n"
        "from typing import Optional\n"
        "from .traffic import (  # noqa: F401\n"
        "    generate_schedule,\n"
        ")\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "heapq"), (3, "itemgetter")]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "uqsim").glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_unused_imports(path):
    # No linter is a test dependency, so this is the one lint that runs.
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path",
    sorted([*SCRIPTS.glob("*.py"), *(ROOT / "tests").glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_scripts_and_tests_have_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_names(tree):
    """The public names a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def uses(tree):
    """Every name a module reads: loaded names, attributes, imported names and
    string constants (perfbench wraps functions by their name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_public_names_are_used_outside_tests():
    # A public name only tests reach is an API kept alive for its own tests.
    package = sorted((ROOT / "src" / "uqsim").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*package, *SCRIPTS.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    }
    used = set().union(*map(uses, trees.values()))
    unused = [
        f"{path.stem}.{name}"
        for path in package
        for name in sorted(public_names(trees[path]))
        if name not in used
    ]
    assert unused == []


def test_public_names_counts_a_name_only_tests_use():
    tree = ast.parse("A = 1\nB: int = 2\ndef f():\n    return A\nclass _Hidden:\n    pass\n")
    assert public_names(tree) == {"A", "B", "f"}
    assert public_names(tree) - uses(tree) == {"B", "f"}
