"""Tests of scripts/coverage_src.py on a small module of its own."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "coverage_src.py"
spec = importlib.util.spec_from_file_location("coverage_src", SCRIPT)
coverage_src = importlib.util.module_from_spec(spec)
spec.loader.exec_module(coverage_src)

SOURCE = '''\
def sign(x):
    """Docstring lines are not executable."""
    if x < 0:
        return -1
    return 1


VALUE = sign(5)
'''


def test_unrun_branch_is_reported(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    code = compile(SOURCE, str(path), "exec")
    assert coverage_src.executable_lines(code) == {1, 3, 4, 5, 8}
    outer = sys.gettrace()
    tracer = coverage_src.LineTracer(tmp_path)
    tracer.start()
    try:
        exec(code, {})
    finally:
        tracer.stop()
    # A tracer already running, such as this script's own over the test
    # suite, is put back.
    assert sys.gettrace() is outer
    assert tracer.hits == {str(path.resolve()): {1, 3, 5, 8}}
    assert coverage_src.unrun([path], tracer.hits) == ([(path, 4)], 5)


def test_code_outside_the_root_is_not_traced(tmp_path):
    inside, outside = tmp_path / "src", tmp_path / "other"
    inside.mkdir()
    outside.mkdir()
    code = compile(SOURCE, str(outside / "small.py"), "exec")
    tracer = coverage_src.LineTracer(inside)
    tracer.start()
    try:
        exec(code, {})
    finally:
        tracer.stop()
    assert tracer.hits == {}
