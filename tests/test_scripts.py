"""The scripts import uqsim names; removing one must fail here. Also what
importing the queue library or the engine loads, how the scripts and
``uqsim`` end: bad input, closed stdout, and that the package, the scripts
and the tests import nothing they do not use, and that the package defines
no public name only tests use, no defaulted parameter only tests pass and no
field that nothing reads."""

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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
    """(line, name) of each import ``source`` never reads; a ``noqa`` mark
    excuses none, and only ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    used = referenced_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((alias.lineno, name))
    return unused


def test_unused_imports_are_found():
    # A re-export kept for a wrapper elsewhere, or a name only rebound, is unread.
    source = (
        "from __future__ import annotations\n"
        "import heapq, os.path\n"
        "from operator import itemgetter\n"
        "from typing import Optional\n"
        "from .traffic import (  # noqa: F401\n"
        "    generate_schedule,\n"
        ")\n"
        "from math import inf\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    inf = 0\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [
        (2, "heapq"), (3, "itemgetter"), (6, "generate_schedule"), (8, "inf")
    ]


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


def defaulted_parameters(tree):
    """(label, called name, position, name) of each defaulted parameter of a
    public function, or of a public class's public method or ``__init__``.
    The position leaves out ``self``; it is None for a keyword-only parameter."""
    found = []

    def add(node, label, called, bound):
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        for index in range(len(positional) - len(args.defaults), len(positional)):
            found.append((label, called, index - bound, positional[index].arg))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((label, called, None, arg.arg))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    add(item, f"{node.name}.{item.name}", called, 0 if static else 1)
    return found


def passed_arguments(tree):
    """(called name, position or keyword) of every argument of every call, and
    (called name, "*") for a call with ``*args`` or ``**kwargs``."""
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passed |= {(called, index) for index in range(len(node.args))}
            passed |= {(called, keyword.arg or "*") for keyword in node.keywords}
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.add((called, "*"))
    return passed


def unpassed_defaults(tree, passed):
    """``label(name)`` of each of ``tree``'s defaulted parameters no call in ``passed`` sets."""
    return [
        f"{label}({name})"
        for label, called, index, name in defaulted_parameters(tree)
        if not {(called, "*"), (called, index), (called, name)} & passed
    ]


# Defaulted parameters that no caller outside the tests passes, each with the
# reason it stays.
UNPASSED_ALLOWED = {
    f"queues.UpdatableQueue.enqueue_{policy}(now)":
        "Receiver binds the method with getattr, so no call names it"
    for policy in ("fifo", "uqa", "keyed")
}


def test_defaulted_parameters_are_passed_outside_tests():
    # A default that only tests override is a parameter kept alive for its own tests.
    package = sorted((ROOT / "src" / "uqsim").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*package, *SCRIPTS.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    }
    passed = set().union(*map(passed_arguments, trees.values()))
    unpassed = {
        f"{path.stem}.{entry}" for path in package for entry in unpassed_defaults(trees[path], passed)
    }
    assert unpassed == set(UNPASSED_ALLOWED)


def test_unpassed_defaults_are_found():
    source = (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "def _g(v=0):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "    def _hidden(self, w=0):\n        pass\n"
        "f(0, c=3)\nK()\nobj.m(1)\n"
    )
    tree = ast.parse(source)
    assert unpassed_defaults(tree, passed_arguments(tree)) == ["f(b)", "K.__init__(x)", "K.m(z)"]
    tree = ast.parse(source + "f(*rest)\nK(**options)\n")
    assert unpassed_defaults(tree, passed_arguments(tree)) == ["K.m(z)"]


def written_fields(tree):
    """``Class.attr`` of each ``self.attr`` a class's code assigns."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    found |= {
                        f"{cls.name}.{t.attr}"
                        for t in ast.walk(target)
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
                    }
    return found


def read_attributes(tree):
    """Every attribute name a module reads (an ``ast.Load`` of ``.attr``)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def write_only_fields(tree, read):
    return sorted(f for f in written_fields(tree) if f.split(".")[1] not in read)


def test_fields_are_read():
    # A field no code reads is a second copy of some fact, kept up to date for nothing.
    package = sorted((ROOT / "src" / "uqsim").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*package, *SCRIPTS.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    }
    read = set().union(*map(read_attributes, trees.values()))
    unread = [f"{path.stem}.{entry}" for path in package for entry in write_only_fields(trees[path], read)]
    assert unread == []


def test_write_only_fields_are_found():
    source = (
        "class K:\n"
        "    def __init__(self):\n"
        "        self.a = self.b = 0\n"
        "        self.c: int = 0\n"
        "        self.d, other.e = 1, 2\n"
        "    def bump(self):\n"
        "        self.a += 1\n"
        "        return self.b\n"
    )
    tree = ast.parse(source)
    assert write_only_fields(tree, read_attributes(tree)) == ["K.a", "K.c", "K.d"]
