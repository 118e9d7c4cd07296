"""Line coverage of the package source under a pytest run, with the
standard library only.

Usage:
    python scripts/coverage_src.py [--out FILE] [-- PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests -q``) under a
``sys.settrace`` tracer that records line events only in frames whose
code lives under ``src/``.  The executable lines of each module are read
from its compiled code objects: every line that ``co_lines`` gives for
the module's code or for a code object nested in it.  The report, on
stdout or in FILE, lists each executable line that never ran as
``path:line: source``, then the count never run out of all executable
lines, then the tests that started a child process (``subprocess`` or
``os.fork``): a child is not traced, so what only a child ran is listed
as never run.  Exits with pytest's exit code.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of code and of every code object nested in it."""
    lines: set[int] = set()
    todo = [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        todo += [k for k in c.co_consts if isinstance(k, CodeType)]
    return lines


class LineTracer:
    """Records the lines run in code whose file lies under root, per
    file, from start() to stop(); a tracer set before start() is put back
    by stop()."""

    def __init__(self, root: Path):
        self.prefix = str(root.resolve()) + os.sep
        # absolute file name -> lines run, for the files under root.
        self.hits: dict[str, set[int]] = {}
        # co_filename as given -> the same set, or None outside root.
        self._lines_of: dict[str, set[int] | None] = {}
        self._previous = None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._lines_of.get(name, False)
        if lines is False:
            path = os.path.abspath(name)
            lines = self._lines_of[name] = (
                self.hits.setdefault(path, set())
                if path.startswith(self.prefix) else None)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def unrun(paths, hits: dict) -> tuple[list[tuple[Path, int]], int]:
    """The (path, line) of each executable line of the given source
    files that is not among the hits, and the number of executable
    lines."""
    missed, total = [], 0
    for path in paths:
        code = compile(path.read_text(), str(path), "exec")
        lines = executable_lines(code)
        total += len(lines)
        ran = hits.get(str(path.resolve()), set())
        missed += [(path, line) for line in sorted(lines - ran)]
    return missed, total


class ChildWatch:
    """A pytest plugin that names the tests during which a child process
    was started, by wrapping subprocess.Popen._execute_child and
    os.fork."""

    def __init__(self):
        self.current = None
        self.tests: list[str] = []
        for owner, name in ((subprocess.Popen, "_execute_child"),
                            (os, "fork")):
            setattr(owner, name, self._watched(getattr(owner, name)))

    def _watched(self, start):
        def wrapper(*args, **kwargs):
            if self.current is not None and self.current not in self.tests:
                self.tests.append(self.current)
            return start(*args, **kwargs)
        return wrapper

    def pytest_runtest_logstart(self, nodeid, location):
        self.current = nodeid

    def pytest_runtest_logfinish(self, nodeid, location):
        self.current = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the report here, not stdout")
    parser.add_argument("pytest_args", nargs="*", default=["tests", "-q"])
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # Child processes import the package from the same checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if any(name == "k3ade" or name.startswith("k3ade.")
           for name in sys.modules):
        raise RuntimeError("k3ade was imported before the tracer started")
    watch = ChildWatch()
    tracer = LineTracer(SRC)
    tracer.start()
    try:
        code = pytest.main(args.pytest_args, plugins=[watch])
    finally:
        tracer.stop()

    missed, total = unrun(sorted(SRC.rglob("*.py")), tracer.hits)
    sources = {path: path.read_text().splitlines() for path, _ in missed}
    report = [f"{path.relative_to(ROOT)}:{line}: "
              f"{sources[path][line - 1].strip()}" for path, line in missed]
    report.append(f"{len(missed)} of {total} executable src/ lines never ran")
    report.append(f"{len(watch.tests)} tests started a child process, "
                  "which was not traced:")
    report += [f"  {nodeid}" for nodeid in watch.tests]
    text = "\n".join(report) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
