"""Tests for the command-line interface: subcommand output formats,
exit codes, and parallel-run determinism."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import k3ade
from k3ade import refdata
from k3ade.ade_types import disc_form_closed, parse_type
from k3ade.classifier import ClassEntry
from k3ade.cli import main
from k3ade.exact_linalg import int_det
from k3ade.fqf import (
    TRIVIAL_FORM,
    discriminant_form,
    dump_form,
    is_nondegenerate,
    parse_form,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_small_tsv(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--max-rank", "2"])
        assert code == 0
        assert out == ("rank\teuler\ttype\n"
                       "1\t2\tA1\n"
                       "2\t3\tA2\n"
                       "2\t4\t2A1\n")

    def test_default_row_count(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate"])
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "rank\teuler\ttype"
        assert len(rows) - 1 == 3937

    def test_no_euler_bound(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--max-euler", "none"])
        assert code == 0
        assert len(out.strip().splitlines()) - 1 == 5366

    def test_rank_above_18_is_valid(self, capsys):
        # Only classify is limited to rank 18.
        code, out, _ = run_cli(capsys, ["enumerate", "--max-rank", "19",
                                        "--max-euler", "20"])
        assert code == 0
        assert "19\t20\tA19" in out.splitlines()

    def test_zero_euler_bound(self, capsys):
        # A bound below 1 is bad input, not an empty table.
        code, out, err = run_cli(capsys, ["enumerate", "--max-euler", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--max-euler" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--max-rank", "2",
                                        "--format", "json"])
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows == [
            {"type": "A1", "rank": 1, "euler": 2},
            {"type": "A2", "rank": 2, "euler": 3},
            {"type": "2A1", "rank": 2, "euler": 4},
        ]


class TestClassifySingle:
    @pytest.mark.parametrize("text,line", [
        ("3A6", "18\t3A6\t[7]"),
        ("8A1", "8\t8A1\t[2],[1]"),
        ("A5+A2+A1", "8\tA5+A2+A1\t[1]"),
        ("12A1", "12\t12A1\t[2,2]"),
        # No torsion group, not even the trivial one: an empty row and
        # exit 0.  9A2 has Euler number 27, beyond the candidate bound.
        ("E6+8A1", "14\tE6+8A1\t"),
        ("9A2", "18\t9A2\t"),
    ])
    def test_tsv(self, capsys, text, line):
        code, out, _ = run_cli(capsys, ["classify", "--type", text])
        assert code == 0
        assert out == line + "\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--type", "12A1",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"type": "12A1", "rank": 12,
                                   "euler": 24, "groups": [[2, 2]]}

    def test_json_group_order(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--type", "8A1",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["groups"] == [[2], []]

    @pytest.mark.parametrize("text,rank,euler", [("E6+8A1", 14, 24),
                                                 ("9A2", 18, 27)])
    def test_json_unrealizable(self, capsys, text, rank, euler):
        code, out, _ = run_cli(capsys, ["classify", "--type", text,
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"type": text, "rank": rank,
                                   "euler": euler, "groups": []}

    @pytest.mark.parametrize("text", ["XYZ", "A0", "D19", "A1+", ""])
    def test_bad_type_exits_2(self, capsys, text):
        code, out, err = run_cli(capsys, ["classify", "--type", text])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestClassifyFull:
    def test_bounded_run(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--max-rank", "8"])
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "rank\ttype\tgroups"
        # Every candidate of rank <= 8 is realizable.
        assert len(rows) - 1 == 100
        assert "8\t8A1\t[2],[1]" in rows

    def test_jobs_byte_identical(self, capsys):
        code1, serial, _ = run_cli(capsys, ["classify", "--max-rank", "9"])
        code2, parallel, _ = run_cli(capsys, ["classify", "--max-rank", "9",
                                              "--jobs", "2"])
        assert code1 == code2 == 0
        assert serial == parallel
        assert len(serial.strip().splitlines()) - 1 == 157

    def test_one_job_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args):
            raise RuntimeError("a --jobs 1 run asked for a process pool")

        monkeypatch.setattr("multiprocessing.get_context", no_pool)
        code, out, _ = run_cli(capsys, ["classify", "--max-rank", "3",
                                        "--jobs", "1"])
        assert code == 0
        assert len(out.strip().splitlines()) - 1 == 6

    @pytest.mark.parametrize("max_rank,cores,workers", [
        ("5", 8, 2),     # 21 types: two chunks of 16
        ("9", 8, 8),     # 157 types: ten chunks, eight cores
        ("9", None, 0),  # no core count: one process, no pool
    ])
    def test_jobs_bounded_by_cores_and_chunks(self, capsys, monkeypatch,
                                              max_rank, cores, workers):
        # No process is started: the fake pool records the worker count
        # it is asked for and maps in this process.
        asked = []

        class FakePool:
            def __init__(self, n):
                asked.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize):
                return map(fn, items)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr("multiprocessing.get_context",
                            lambda method: FakeContext)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        argv = ["classify", "--max-rank", max_rank]
        code1, serial, _ = run_cli(capsys, argv + ["--jobs", "1"])
        code, out, _ = run_cli(capsys, argv + ["--jobs", "1000000"])
        assert code1 == code == 0
        assert out == serial
        assert asked == ([workers] if workers else [])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("bound", ["19", "0", "-3"])
    def test_max_rank_out_of_range_exits_2(self, capsys, bound, jobs):
        # Rejected before any row is printed, not after classifying
        # every lower rank.
        code, out, err = run_cli(capsys, ["classify", "--max-rank", bound,
                                          "--max-euler", "20",
                                          "--jobs", jobs])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--max-rank" in err

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--max-rank", "5",
                                        "--format", "json"])
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 21
        assert all(row["groups"] == [[]] for row in rows)
        assert all(row["rank"] <= 5 for row in rows)


class TestExistsLattice:
    def write_form(self, tmp_path, form, name="form.txt"):
        path = tmp_path / name
        path.write_text(dump_form(form))
        return str(path)

    def test_exists(self, capsys, tmp_path):
        path = self.write_form(tmp_path, TRIVIAL_FORM)
        code, _, _ = run_cli(capsys, ["exists-lattice", "--signature",
                                      "8,0", "--form", path])
        assert code == 0

    def test_does_not_exist(self, capsys, tmp_path):
        # No even unimodular lattice of rank 1.
        path = self.write_form(tmp_path, TRIVIAL_FORM)
        code, _, _ = run_cli(capsys, ["exists-lattice", "--signature",
                                      "1,0", "--form", path])
        assert code == 1

    def test_transcendental_partner(self, capsys, tmp_path):
        form, _ = disc_form_closed(parse_type("8A1"))
        path = self.write_form(tmp_path, form)
        code, _, _ = run_cli(capsys, ["exists-lattice", "--signature",
                                      "2,10", "--form", path])
        assert code == 0

    def test_bad_signature(self, capsys, tmp_path):
        path = self.write_form(tmp_path, TRIVIAL_FORM)
        for sig in ("8", "8,0,1", "a,b"):
            code, _, err = run_cli(capsys, ["exists-lattice",
                                            "--signature", sig,
                                            "--form", path])
            assert code == 2
            assert err.startswith("error:")
        code, _, err = run_cli(capsys, ["exists-lattice",
                                        "--signature=-1,2",
                                        "--form", path])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["exists-lattice", "--signature",
                                        "8,0", "--form",
                                        str(tmp_path / "absent.txt")])
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a form\n")
        code, _, err = run_cli(capsys, ["exists-lattice", "--signature",
                                        "8,0", "--form", str(path)])
        assert code == 2
        assert err.startswith("error:")

    def test_zero_denominator(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("2 2\n1/0 1/2\n1/2 0/1\n1/2\n")
        code, _, err = run_cli(capsys, ["exists-lattice", "--signature",
                                        "2,16", "--form", str(path)])
        assert code == 2
        assert err.startswith("error:")

    def test_degenerate_form(self, capsys, tmp_path):
        path = tmp_path / "degenerate.txt"
        path.write_text("2 2\n0 0\n0 0\n0\n")
        code, _, err = run_cli(capsys, ["exists-lattice", "--signature",
                                        "2,16", "--form", str(path)])
        assert code == 2
        assert err.startswith("error:") and "degenerate" in err


class TestTransform:
    @pytest.mark.parametrize("ruleset,count", [
        ("trivial", 2746), ("2", 732), ("3", 85), ("4", 41), ("22", 61),
    ])
    def test_builtin_closure_counts(self, capsys, ruleset, count):
        code, out, _ = run_cli(capsys, ["transform", "--ruleset", ruleset])
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == count
        assert len(set(rows)) == count

    def test_closure_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, ["transform", "--ruleset", "3"])
        assert code == 0
        got = {parse_type(line) for line in out.strip().splitlines()}
        want = {t for t, g in refdata.load_reference_pairs()
                if g == (3,)}
        assert got == want

    def test_seed_file(self, capsys, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# comment\nA2\n")
        code, out, _ = run_cli(capsys, ["transform", "--ruleset",
                                        "trivial", "--seeds", str(path)])
        assert code == 0
        assert out == "A1\nA2\n"

    def test_missing_seed_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["transform", "--ruleset", "2",
                                        "--seeds",
                                        str(tmp_path / "absent.txt")])
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_seed_file(self, capsys, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("Z9\n")
        code, _, err = run_cli(capsys, ["transform", "--ruleset", "2",
                                        "--seeds", str(path)])
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["exists-lattice", "--signature", "0,0", "--form", "{form}"],
    ["exists-lattice", "--signature", "2,16", "--form", "{missing}"],
    ["exists-lattice", "--signature", "2,16", "--form", "{degenerate}"],
    ["classify", "--type", "Q7"],
    ["classify", "--max-rank", "19"],
    ["classify", "--jobs", "0", "--max-rank", "1"],
    ["classify", "--jobs", "-2", "--max-rank", "1"],
    ["transform", "--ruleset", "2", "--seeds", "{missing}"],
    ["enumerate", "--max-rank", "x"],
    ["enumerate", "--max-rank", "-3"],
    ["enumerate", "--max-euler", "0"],
    ["classify", "--max-rank", "3", "--max-euler", "-1"],
    ["verify", "--only", "tables"],
    ["classify", "--type=--"],
    ["classify", "--jobs=--", "--max-rank", "1"],
    ["exists-lattice", "--signature=--", "--form", "{form}"],
    ["exists-lattice", "--signature", "8,0", "--form=--"],
], ids=["signature-0,0", "missing-form", "degenerate-form", "bad-type",
        "max-rank-19", "jobs-0", "jobs-negative", "missing-seeds",
        "enumerate-bad-int", "enumerate-max-rank-negative",
        "enumerate-max-euler-0", "classify-max-euler-negative",
        "verify-bad-only", "type-attached-dashes", "jobs-attached-dashes",
        "signature-attached-dashes", "form-attached-dashes"])
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    # Bad input exits 2 with an error on stderr; it must never read as
    # the mathematical "no" (exit 1), nor escape as a traceback.
    (tmp_path / "form.txt").write_text(dump_form(TRIVIAL_FORM))
    (tmp_path / "degenerate.txt").write_text("2 2\n0 0\n0 0\n0\n")
    files = {name: str(tmp_path / f"{name}.txt")
             for name in ("form", "missing", "degenerate")}
    argv = [arg.format(**files) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def _reference_entries():
    return [ClassEntry(t, g) for t, g in refdata.load_reference_pairs()]


class TestVerify:
    def test_passes_on_reference(self, capsys, monkeypatch):
        entries = _reference_entries()
        monkeypatch.setattr("k3ade.cli.classify_all", lambda: entries)
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0
        assert out == "verification passed (counts and tables; 3693 pairs)\n"

    def test_only_counts(self, capsys, monkeypatch):
        entries = _reference_entries()
        monkeypatch.setattr("k3ade.cli.classify_all", lambda: entries)
        code, out, _ = run_cli(capsys, ["verify", "--only", "counts"])
        assert code == 0
        assert out == "verification passed (counts; 3693 pairs)\n"

    def test_fails_on_missing_pair(self, capsys, monkeypatch):
        entries = _reference_entries()
        dropped = next(e for e in entries
                       if str(e.type) == "8A1" and e.group == (2,))
        entries.remove(dropped)
        monkeypatch.setattr("k3ade.cli.classify_all", lambda: entries)
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 1
        lines = out.strip().splitlines()
        assert all(line.startswith("FAIL ") for line in lines[:-1])
        assert any("8A1" in line for line in lines)
        assert lines[-1].startswith("verification failed:")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_checkout(*args, timeout=120):
    """Run a child interpreter that imports k3ade from the checkout under
    test, so that no installed copy can shadow it."""
    src = Path(k3ade.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_console_script(*argv):
    """Call the ``[project.scripts] k3ade`` target the way the generated
    console script does: ``sys.argv[0] = "k3ade"; sys.exit(main())``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["k3ade"]
    module, func = target.split(":")
    code = (f"import sys\n"
            f"from {module} import {func}\n"
            f"sys.argv[0] = 'k3ade'\n"
            f"sys.exit({func}())\n")
    return run_checkout("-c", code, *argv)


class TestConsoleScript:
    def test_help(self):
        proc = run_console_script("--help")
        assert proc.returncode == 0
        for sub in ("enumerate", "classify", "exists-lattice",
                    "transform", "verify"):
            assert sub in proc.stdout

    def test_module_entry_point(self):
        proc = run_checkout("-m", "k3ade.cli", "classify", "--type", "3A6")
        assert proc.returncode == 0
        assert proc.stdout == "18\t3A6\t[7]\n"

    def test_no_subcommand_exits_2(self):
        proc = run_console_script()
        assert proc.returncode == 2
        assert "the following arguments are required" in proc.stderr


class TestLargePrimeOrders:
    """exists-lattice on the rank-1 lattices <2m>: each is its own
    witness, so the answer is yes, and factoring m must not take time
    that grows like a root of m."""

    P, Q = 10 ** 9 + 7, 998244353

    def run_rank_one(self, tmp_path, m):
        path = tmp_path / "form.txt"
        path.write_text(dump_form(discriminant_form([[2 * m]])[0]))
        return run_checkout("-m", "k3ade.cli", "exists-lattice",
                            "--signature", "1,0", "--form", str(path),
                            timeout=30)

    def test_one_large_prime(self, tmp_path):
        proc = self.run_rank_one(tmp_path, self.P)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_two_large_primes(self, tmp_path):
        proc = self.run_rank_one(tmp_path, self.P * self.Q)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_past_the_exact_range_exits_2(self, tmp_path):
        # 2^89 - 1 is prime, beyond the range where its primality can be
        # decided exactly: bad input, not a guess.
        proc = self.run_rank_one(tmp_path, 2 ** 89 - 1)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot factor")
        assert "Traceback" not in proc.stderr


def test_exponent_token_exits_2_at_once(tmp_path):
    # A value written with an exponent is refused by the token grammar
    # before any arithmetic: expanding 10^20000000 would outlast the
    # timeout.
    path = tmp_path / "form.txt"
    path.write_text("2\n1e-20000000\n1/2\n")
    proc = run_checkout("-m", "k3ade.cli", "exists-lattice", "--signature",
                        "1,0", "--form", str(path), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == ("error: '1e-20000000' is neither an integer nor "
                           "a fraction a/b\n")


def test_overlong_token_exits_2_with_a_form_file_message(tmp_path):
    # A q value of 5 000 ones over 2: a number past the interpreter's
    # 4 300-digit bound on reading ints is refused as a form-file token,
    # not with the interpreter's own message.
    token = "1" * 5000 + "/2"
    path = tmp_path / "form.txt"
    path.write_text(f"2\n{token}\n1/2\n")
    proc = run_checkout("-m", "k3ade.cli", "exists-lattice", "--signature",
                        "1,0", "--form", str(path), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == ("error: form-file token of 5002 characters has "
                           "a number of more than 4300 digits\n")
    assert "set_int_max_str_digits" not in proc.stderr


#: Tokens of a random form file: integers, fractions (a zero or negative
#: denominator among them) and words that are neither.
TOKENS = st.one_of(
    st.integers(-3, 30).map(str),
    st.builds("{}/{}".format, st.integers(-5, 40), st.integers(-2, 40)),
    st.sampled_from(["x", "1.5", "1/2/3", "-", "1e3", "0x10", "/"]))


@st.composite
def form_texts(draw):
    """A form file: random token lines, a written-out form with values
    of the right denominators (often degenerate or malformed), the
    discriminant form of an even lattice, or that form with one token
    replaced."""
    kind = draw(st.sampled_from(["tokens", "values", "lattice", "mutated"]))
    if kind == "tokens":
        lines = draw(st.lists(st.lists(TOKENS, max_size=4), max_size=6))
        return "\n".join(" ".join(line) for line in lines) + "\n"
    if kind == "values":
        orders = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]),
                               min_size=1, max_size=3))
        nums = [draw(st.integers(0, 2 * d - 1)) for d in orders]
        lines = [" ".join(map(str, orders)),
                 " ".join(f"{k}/{d}" for k, d in zip(nums, orders))]
        for i, di in enumerate(orders):
            row = [f"{nums[i] % di}/{di}"]
            for dj in orders[i + 1:]:
                g = gcd(di, dj)
                row.append(f"{draw(st.integers(0, g - 1))}/{g}")
            lines.append(" ".join(row))
        return "\n".join(lines) + "\n"
    n = draw(st.integers(1, 3))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    assume(int_det(gram) != 0)
    lines = [line.split() for line in
             dump_form(discriminant_form(gram)[0]).splitlines()]
    if kind == "mutated":
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = draw(TOKENS)
    return "\n".join(" ".join(line) for line in lines) + "\n"


SIGNATURES_TEXT = st.one_of(
    st.builds("{},{}".format, st.integers(-1, 20), st.integers(-1, 20)),
    st.sampled_from(["", "8", "1,2,3", "x,y", "2,-0"]))

TYPE_TEXTS = st.one_of(
    st.text(alphabet="ADEa+ 0123456789x-", max_size=10),
    st.lists(st.builds("{}{}{}".format, st.sampled_from(["", "1", "2", "4"]),
                       st.sampled_from("ADE"), st.integers(0, 10)),
             min_size=1, max_size=3).map("+".join))


def run_in_process(argv):
    """(exit code, stderr) of the CLI run in this process; argparse's
    own exit counts as an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestEveryInputEndsWithItsExitCode:
    """Random input ends with exit 0, 1 or 2 and no traceback: an
    exception escaping main fails the test.  Bad input is exit 2, so
    the mathematical "no" (exit 1) comes only from a form that parses
    and is nondegenerate."""

    @given(form_texts(), SIGNATURES_TEXT)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exists_lattice(self, text, signature):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "form.txt"
            path.write_text(text)
            code, err = run_in_process(["exists-lattice",
                                        f"--signature={signature}",
                                        "--form", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error:")
        else:
            assert err == ""
            assert is_nondegenerate(parse_form(text))

    @given(TYPE_TEXTS)
    @settings(max_examples=200, deadline=None)
    def test_classify_type(self, text):
        code, err = run_in_process(["classify", f"--type={text}"])
        assert code in (0, 2)
        assert "Traceback" not in err
        assert err.startswith("error:") if code == 2 else err == ""
