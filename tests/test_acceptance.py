"""End-to-end acceptance checks.

Each test regenerates one classification artifact from scratch and compares
it exactly against the frozen reference tables, so ``pytest -v`` reports one
pass or fail line per criterion.  Criterion 9 is split into its five
independent oracle suites (9a-9e).  Everything here is exact integer or
rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from fraction_views import eval_b, eval_q
from jordan_oracle import gauss_signature
from k3ade import classifier
from k3ade.ade_types import (
    cartan_gram,
    closure,
    disc_form_closed,
    enumerate_candidates,
    parse_type,
)
from k3ade.classifier import (
    GluePair,
    check_pair,
    classify_all,
    classify_type,
    slow_check_pair,
    verify_reference,
)
from k3ade.exact_linalg import int_det, prime_factors, rat_inverse
from k3ade.fqf import (
    discriminant_form,
    elements,
    group_order,
    span,
    subquotient,
)
from k3ade.genus import exists_even_lattice
from k3ade.kernels import isotropic_list, orthogonal_filter
from k3ade.lattice_ops import overlattice, root_type
from k3ade.refdata import (
    CANDIDATES_PER_RANK,
    GROUP_COUNTS,
    GROUP_PER_RANK,
    RANK_BOUND_PER_RANK,
    REALIZABLE_PER_RANK,
    RULESET_GROUPS,
    TRIVIAL_ONLY_PER_RANK,
    load_rank18,
    load_reference_pairs,
    load_seeds,
)

RANK18_SIZES = {"trivial": 199, "[2]": 84, "[3]": 19, "[4]": 11, "[2,2]": 11}

HIGH_TORSION = {
    (7,): {"3A6"},
    (8,): {"2A7+A3+A1"},
    (2, 6): {"3A5+3A1"},
    (4, 4): {"6A3"},
    (3, 3): {"2A5+4A2", "A5+6A2", "8A2"},
}


@pytest.fixture(scope="module")
def partner_questions():
    """(type, form, v, w, answer) per partner question of the full run,
    filled by the classification fixture."""
    return []


@pytest.fixture(scope="module")
def classification(partner_questions):
    decide = classifier._partner_exists

    def recorded(ctx, v, w, sub):
        answer = decide(ctx, v, w, sub)
        partner_questions.append((ctx.sigma, ctx.form, v, w, answer))
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifier, "_partner_exists", recorded)
        start = time.perf_counter()
        entries = classify_all()
        elapsed = time.perf_counter() - start
    return entries, elapsed


def test_criterion_01_full_classification_within_budget(classification):
    entries, elapsed = classification
    assert len(entries) == 3693
    assert len({e.type for e in entries}) == 3279
    assert elapsed < 600.0


def test_criterion_02_group_totals(classification):
    entries, _ = classification
    assert Counter(e.group for e in entries) == GROUP_COUNTS


def test_criterion_03_group_by_rank_tables(classification):
    entries, _ = classification
    table = Counter((e.group, e.type.rank) for e in entries)
    for group, row in GROUP_PER_RANK.items():
        got = tuple(table.get((group, r), 0) for r in range(1, 19))
        assert got == row, group


def test_criterion_04_candidate_enumeration_tables(classification):
    entries, _ = classification
    capped = Counter(t.rank for t in enumerate_candidates(18, 24))
    assert tuple(capped.get(r, 0) for r in range(1, 19)) == CANDIDATES_PER_RANK
    assert sum(CANDIDATES_PER_RANK) == 3937

    uncapped = Counter(t.rank for t in enumerate_candidates(18, None))
    assert tuple(uncapped.get(r, 0) for r in range(1, 19)) == RANK_BOUND_PER_RANK
    assert sum(RANK_BOUND_PER_RANK) == 5366

    by_type: dict = {}
    for entry in entries:
        by_type.setdefault(entry.type, set()).add(entry.group)
    realizable = Counter(t.rank for t in by_type)
    assert tuple(realizable.get(r, 0) for r in range(1, 19)) == REALIZABLE_PER_RANK
    trivial_only = Counter(t.rank for t, gs in by_type.items() if gs == {()})
    assert tuple(trivial_only.get(r, 0) for r in range(1, 19)) == TRIVIAL_ONLY_PER_RANK
    assert sum(TRIVIAL_ONLY_PER_RANK) == 2360


def test_criterion_05_rank18_membership_lists(classification):
    entries, _ = classification
    for ruleset, group in RULESET_GROUPS.items():
        computed = {str(e.type) for e in entries
                    if e.group == group and e.type.rank == 18}
        expected = {str(t) for t in load_rank18(ruleset)}
        assert len(expected) == RANK18_SIZES[ruleset]
        assert computed == expected, ruleset


def test_criterion_06_substitution_closures(classification):
    entries, _ = classification
    for ruleset, group in RULESET_GROUPS.items():
        admits = {e.type for e in entries if e.group == group}
        assert closure(load_seeds(ruleset), ruleset) == admits, ruleset


def test_criterion_07_unique_high_torsion_types(classification):
    entries, _ = classification
    for group, names in HIGH_TORSION.items():
        computed = {e.type for e in entries if e.group == group}
        assert computed == {parse_type(n) for n in names}, group


def test_criterion_08_reference_table_diff_empty(classification):
    entries, _ = classification
    assert verify_reference(entries, load_reference_pairs()) == []


def test_miranda_persson_semistable_extremal_count(classification):
    # Miranda-Persson 1989 ("Configurations of I_n fibers on elliptic K3
    # surfaces", Math. Z. 201) find 112 configurations of six I_n fibres,
    # counting I_1.  An I_n fibre adds A_{n-1} to the root type and its
    # Euler number n to 24, so these are the rank-18 types made of at
    # most six A components.
    entries, _ = classification
    semistable = [e for e in entries if e.type.rank == 18
                  and len(e.type.components) <= 6
                  and all(letter == "A" for letter, _ in e.type.components)]
    assert len({e.type for e in semistable}) == 112
    assert len(semistable) == 124


def test_partner_length_rule(classification, partner_questions):
    # Every question of the full run that the length count decides is a
    # "yes" of the full local decision, and a "no" once r - s is moved
    # off sigma.rank mod 8 by 4.  The glued lengths never exceed the
    # type's p-ranks, so the type's primes are all the count needs.  On
    # the questions of every 20th type, the Gauss sum of the glued form
    # keeps the signature sigma.rank mod 8 that the rule relies on.
    table_types = set(enumerate_candidates(18, 24)[::20])
    by_length = gauss_checked = 0
    for sigma, form, v, w, answer in partner_questions:
        glued = subquotient(form, (v, w))
        n = 20 - sigma.rank
        lengths = Counter(p for d in glued.orders for p in prime_factors(d))
        pranks = Counter(p for d in form.orders for p in prime_factors(d))
        assert lengths <= pranks, sigma
        if max(lengths.values(), default=0) < n:
            by_length += 1
            assert answer is True
            assert exists_even_lattice(2, n - 2, glued) is True
            assert exists_even_lattice(6, n - 2, glued) is False
        if sigma in table_types:
            gauss_checked += 1
            assert gauss_signature(glued) == sigma.rank % 8
    assert len(partner_questions) == 4017
    assert by_length == 2110
    assert gauss_checked == 188


def test_both_routes_refuse_partner_no(classification, partner_questions):
    # Each "no" of the full run's partner test is a root-free glue pair
    # that passes the p-rank prune, so only the partner test refuses it:
    # the oracle must refuse it too, by its own partner test.
    refused = [(sigma, GluePair(v, w))
               for sigma, _, v, w, answer in partner_questions if not answer]
    assert len(refused) == 324
    assert sum(1 for _, pair in refused if any(pair.v + pair.w)) == 161
    for sigma, pair in refused:
        assert check_pair(sigma, pair) is None, (sigma, pair)
        assert slow_check_pair(sigma, pair) is None, (sigma, pair)


def test_criterion_09a_root_type_round_trip():
    for sigma in enumerate_candidates(18, 24):
        assert root_type(cartan_gram(sigma)) == sigma


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _match_generators(gram, closed_lifts, snf, snf_lifts):
    """Map each tabulated generator to its class in the computed form.

    The lifts are dual coordinates z of the dual vectors G^-1 z.  Two
    dual vectors represent the same class exactly when their difference
    is integral, so the coefficient scan below is exact.
    """
    ginv = rat_inverse(gram)
    images = []
    for lift in closed_lifts:
        image = None
        for coeffs in product(*(range(o) for o in snf.orders)):
            diff = [x - sum(c * z[k] for c, z in zip(coeffs, snf_lifts))
                    for k, x in enumerate(lift)]
            if all(sum(map(mul, row, diff)).denominator == 1
                   for row in ginv):
                image = coeffs
                break
        assert image is not None
        images.append(image)
    return images


def test_criterion_09b_component_discriminant_forms():
    names = ([f"A{l}" for l in range(1, 19)]
             + [f"D{m}" for m in range(4, 19)]
             + ["E6", "E7", "E8"])
    assert len(names) == 36
    for name in names:
        sigma = parse_type(name)
        closed, closed_lifts = disc_form_closed(sigma)
        snf, snf_lifts = discriminant_form(cartan_gram(sigma))
        assert group_order(closed) == group_order(snf)
        images = _match_generators(cartan_gram(sigma), closed_lifts, snf,
                                   snf_lifts)
        m = len(snf.orders)
        seen = set()
        for e in elements(closed):
            phi = tuple(sum(ei * images[i][t] for i, ei in enumerate(e))
                        % snf.orders[t] for t in range(m))
            assert eval_q(closed, e) == eval_q(snf, phi), (name, e)
            seen.add(phi)
        assert len(seen) == group_order(snf)
        k = len(closed.orders)
        for i in range(k):
            for j in range(k):
                assert eval_b(closed, _unit(k, i), _unit(k, j)) \
                    == eval_b(snf, images[i], images[j]), (name, i, j)


def _exact_signature(gram):
    """Inertia of a rational symmetric matrix by congruence reduction."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    pos = neg = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            i, j = next((i, j) for i in active for j in active
                        if i != j and a[i][j] != 0)
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        d = a[k][k]
        for i in active:
            f = a[i][k] / d
            if f:
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos, neg


def test_criterion_09c_random_lattice_genus_invariants():
    rng = random.Random(181818)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-6, 6)
        if int_det(gram) == 0:
            continue
        checked += 1
        r, s = _exact_signature(gram)
        assert r + s == n
        form, _ = discriminant_form(gram)
        assert exists_even_lattice(r, s, form) is True
        assert gauss_signature(form) == (r - s) % 8
    assert checked == 500


def coset_closure(orders, v, w):
    """The subgroup <v, w> of the group with the given generator orders:
    the multiples of v, then the cosets b w + <v> for b = 1, 2, ...
    until b w lands back in the set."""
    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, orders))

    zero = (0,) * len(orders)
    multiples = [zero]
    x = v
    while x != zero:
        multiples.append(x)
        x = add(x, v)
    sub = set(multiples)
    shift = w
    while shift not in sub:
        sub.update(add(shift, u) for u in multiples)
        shift = add(shift, w)
    return frozenset(sub)


def test_criterion_09d_exhaustive_small_discriminant_glue(classification):
    entries, _ = classification
    expected: dict = {}
    for entry in entries:
        expected.setdefault(entry.type, set()).add(entry.group)
    scanned = 0
    tested = 0
    mismatches = []
    for sigma in enumerate_candidates(18, 24):
        form, _ = disc_form_closed(sigma)
        if group_order(form) > 1024:
            continue
        scanned += 1
        iso = isotropic_list(form)
        seen = set()
        got = set()
        for v in iso:
            for w in orthogonal_filter(form, iso, v):
                sub = coset_closure(form.orders, v, w)
                if sub in seen:
                    continue
                seen.add(sub)
                tested += 1
                entry = check_pair(sigma, GluePair(v, w))
                if entry is not None:
                    got.add(entry.group)
        if got != expected.get(sigma, set()):
            mismatches.append(str(sigma))
    assert scanned == 3459
    assert tested == 107963
    assert mismatches == []


def test_criterion_09e_degenerate_rejections():
    for name in ("13A1", "14A1", "2D4+5A2"):
        sigma = parse_type(name)
        assert sigma.euler > 24
        assert classify_type(sigma) == set()

    sigma = parse_type("12A1")
    form, lifts = disc_form_closed(sigma)
    base = cartan_gram(sigma)
    weight8 = [v for v in isotropic_list(form) if sum(v) == 8]
    triples = []
    for a, b, c in combinations(sorted(weight8), 3):
        if eval_b(form, a, b) or eval_b(form, a, c) or eval_b(form, b, c):
            continue
        if len(span(form, [a, b, c])) != 8:
            continue
        triples.append((a, b, c))
        if len(triples) == 5:
            break
    assert triples

    def lift(x):
        # The dual coordinates of the class x.
        return [sum(x[i] * lifts[i][j] for i in range(12)) for j in range(12)]

    for gens in triples:
        glued = subquotient(form, list(gens))
        ok_genus = exists_even_lattice(2, 6, glued)
        over, factors = overlattice(base, [lift(g) for g in gens])
        assert factors == (2, 2, 2)
        assert not (ok_genus and root_type(over) == sigma)


def test_criterion_10_parallel_determinism():
    outputs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "k3ade.cli", "classify", "--jobs", jobs],
            capture_output=True, timeout=900, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert lines[0] == "rank\ttype\tgroups"
    assert len(lines) == 3280
