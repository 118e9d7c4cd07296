"""Each output check passes on a correct output and fails on a
corrupted one.

Run with: python3 -m pytest k3bench/test_checks.py
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path

import checks

TABLE_TSV = (Path(__file__).resolve().parent.parent / "src" / "k3ade"
             / "data" / "table1.tsv")


def _published():
    return checks.load_published(TABLE_TSV)


# ---------------------------------------------------------------------------
# Candidate enumeration and the type grammar

def test_candidates_match_published_counts():
    names = checks.candidate_types()
    assert len(names) == 3937
    assert checks.check_candidates(names) == []
    assert checks.check_candidates(names[1:])


def test_every_published_type_is_a_candidate_in_table_order():
    names = checks.candidate_types()
    published = list(_published())
    assert len(published) == 3279
    position = {n: i for i, n in enumerate(names)}
    assert [position[n] for n in published] == sorted(
        position[n] for n in published)


def test_parse_and_format_round_trip():
    comps = checks.parse_type("A2+2E8+D4+A2")
    assert comps == (("E", 8), ("E", 8), ("D", 4), ("A", 2), ("A", 2))
    assert checks.format_type(comps) == "2E8+D4+2A2"


# ---------------------------------------------------------------------------
# table

_TABLE_TYPES = ["8A1", "A2", "A7+A1", "D4+6A1", "E8+7A1"]


def _table_stdout(published, names):
    rows = []
    for name in names:
        rank, cell = published.get(
            name, (str(sum(n for _, n in checks.parse_type(name))), ""))
        rows.append(f"{rank}\t{name}\t{cell}")
    return "\n".join(rows) + "\n"


def test_table_accepts_published_rows():
    published = _published()
    assert "E8+7A1" not in published
    out = _table_stdout(published, _TABLE_TYPES)
    assert checks.check_table(_TABLE_TYPES, out, published, set()) == []


def test_table_skips_failed_types():
    published = _published()
    names = [n for n in _TABLE_TYPES if n != "A2"]
    out = _table_stdout(published, names)
    assert checks.check_table(_TABLE_TYPES, out, published, {"A2"}) == []


def test_table_rejects_corrupted_rows():
    published = _published()
    good = _table_stdout(published, _TABLE_TYPES).splitlines()
    corruptions = [
        good[:-1],                                        # row missing
        good + [good[0]],                                 # row extra
        [good[1], good[0]] + good[2:],                    # order
        [good[0].replace("[2],[1]", "[1]")] + good[1:],   # group dropped
        [good[0].replace("[2],[1]", "[1],[2]")] + good[1:],
        [good[0].replace("8\t", "9\t", 1)] + good[1:],    # rank
        good[:-1] + [good[-1] + "[1]"],                   # not realizable
        [good[0].replace("\t", " ")] + good[1:],          # malformed
    ]
    for rows in corruptions:
        out = "\n".join(rows) + "\n"
        assert checks.check_table(_TABLE_TYPES, out, published, set()), rows


def test_table_property_checks():
    # Rows that agree with a corrupted copy of the table still fail the
    # properties every row must have.
    bad_cells = {"8A1": "[3],[1]",         # 9 does not divide 2^8
                 "A7+A1": "[8],[1]",       # 64 does not divide 16
                 "D4+6A1": "[3,2],[1]",    # not a chain
                 "A2": "[1],[1]"}          # listed twice
    for name, cell in bad_cells.items():
        published = dict(_published())
        published[name] = (published[name][0], cell)
        out = _table_stdout(published, [name])
        assert checks.check_table([name], out, published, set()), name
    published = dict(_published())
    published["D4+6A1"] = ("10", "[2],[2,2],[1]")  # not largest first
    out = _table_stdout(published, ["D4+6A1"])
    assert checks.check_table(["D4+6A1"], out, published, set())


# ---------------------------------------------------------------------------
# stream

def _all_glue_pairs(name):
    """Every isotropic orthogonal pair of the type with a new span, found by
    brute force with the benchmark's own arithmetic."""
    form = checks.closed_form(checks.parse_type(name))
    orders = form[0]
    iso = [x for x in product(*(range(d) for d in orders))
           if not checks.q_value(form, x)]
    pairs, seen = [], set()
    for v in iso:
        for w in iso:
            if checks.b_value(form, v, w):
                continue
            sub = checks.span_of(orders, v, w)
            if sub not in seen:
                seen.add(sub)
                pairs.append([list(v), list(w)])
    return pairs


def test_closed_form_values():
    form = checks.closed_form(checks.parse_type("D6+A2"))
    assert form[0] == [2, 2, 3]
    assert checks.q_value(form, (1, 0, 0)) == Fraction(3, 2)
    assert checks.q_value(form, (0, 1, 0)) == 1
    assert checks.q_value(form, (1, 1, 0)) == Fraction(3, 2)
    assert checks.q_value(form, (0, 0, 1)) == Fraction(2, 3)
    assert checks.b_value(form, (1, 0, 0), (0, 1, 0)) == Fraction(1, 2)
    assert checks.b_value(form, (0, 0, 1), (0, 0, 2)) == Fraction(1, 3)


def test_stream_accepts_brute_force_pairs():
    published = _published()
    pairs = {"8A1": _all_glue_pairs("8A1")}
    assert checks.check_stream(["8A1"], pairs, published, set()) == []


def test_stream_rejects_corrupted_pairs():
    published = _published()
    good = _all_glue_pairs("8A1")
    zero = [[0] * 8, [0] * 8]
    one = [1, 0, 0, 0, 0, 0, 0, 0]
    with_group_2 = [p for p in good
                    if checks.span_factors([2] * 8, p[0], p[1], len(
                        checks.span_of([2] * 8, p[0], p[1]))) == (2,)]
    corruptions = [
        good + [[one, [0] * 8]],                      # not isotropic
        good + [[[1, 1, 1, 1, 0, 0, 0, 0],
                 [0, 0, 0, 1, 1, 1, 1, 0]]],          # not orthogonal
        good + [good[1]],                             # span listed twice
        good + [[good[1][1], good[1][0]]],            # same span, swapped
        [p for p in good if p != zero],               # (0, 0) missing
        [p for p in good if p not in with_group_2],   # [2] not realized
        good + [[[2] + [0] * 7, [0] * 8]],            # not reduced
        good + [[[0] * 7, [0] * 8]],                  # wrong length
    ]
    for pairs in corruptions:
        assert checks.check_stream(["8A1"], {"8A1": pairs}, published,
                                   set()), pairs[-1]
    assert checks.check_stream(["8A1"], {}, published, set())


# ---------------------------------------------------------------------------
# genus

_GRAMS = [
    [[2]],                                  # A1, (1, 0)
    [[0, 1], [1, 0]],                       # U, (1, 1)
    [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],   # A3(-1), (0, 3)
    [[2, 1], [1, -4]],                      # (1, 1), det -9
]


def test_signature_and_determinant():
    assert [checks.signature(g) for g in _GRAMS] == [
        (1, 0), (1, 1), (0, 3), (1, 1)]
    assert [checks.determinant(g) for g in _GRAMS] == [2, -1, -4, -9]
    assert checks.signature([[0, 0, 1], [0, 2, 0], [1, 0, 0]]) == (2, 1)


def test_degenerate_gram_is_rejected():
    try:
        checks.diagonal([[2, 2], [2, 2]])
    except ValueError:
        return
    raise AssertionError("a degenerate matrix was diagonalised")


_ANSWERS = (True, True, True, False, False, False)


def test_genus_accepts_known_answers():
    answers = [a for _ in _GRAMS for a in _ANSWERS]
    assert checks.check_genus(_GRAMS, answers, set()) == []


def test_genus_rejects_corrupted_answers():
    good = [a for _ in _GRAMS for a in _ANSWERS]
    for k in range(len(good)):
        bad = list(good)
        bad[k] = not bad[k]
        assert checks.check_genus(_GRAMS, bad, set()), k
        assert checks.check_genus(_GRAMS, bad, {k}) == []
    assert checks.check_genus(_GRAMS, good[:-1], set())
    assert checks.check_genus(_GRAMS, good[:-1] + [None], set())
