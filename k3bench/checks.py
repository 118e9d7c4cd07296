"""Output checks for the k3ade benchmark, made apart from the program.

Nothing here imports ``k3ade``.  The checks use the benchmark's own
arithmetic: the ADE type grammar, the candidate enumeration, the
closed-form discriminant forms of the components A_n, D_n, E_6, E_7,
E_8 and an exact rational diagonalisation for the signature of a Gram
matrix.  Each ``check_*`` function returns a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

_LETTER_RANK = {"A": 1, "D": 2, "E": 3}

#: Candidate types per rank (rank <= 18, Euler number <= 24), as
#: published with the table.
CANDIDATES_PER_RANK = (1, 2, 3, 6, 9, 16, 24, 39, 57, 88, 128, 193,
                       274, 393, 531, 688, 773, 712)


# ---------------------------------------------------------------------------
# ADE types

def _comp_key(comp):
    return (_LETTER_RANK[comp[0]], comp[1])


def parse_type(text: str) -> tuple:
    """Components of a type string such as ``2E8+A2``, in canonical
    order: E before D before A, higher index first."""
    comps = []
    for token in text.split("+"):
        head = 0
        while head < len(token) and token[head].isdigit():
            head += 1
        count = int(token[:head]) if head else 1
        letter, index = token[head], int(token[head + 1:])
        if letter not in _LETTER_RANK or count < 1:
            raise ValueError(f"bad component token: {token!r}")
        comps.extend([(letter, index)] * count)
    return tuple(sorted(comps, key=_comp_key, reverse=True))


def format_type(comps) -> str:
    """Inverse of parse_type: runs of equal components with a count."""
    parts = []
    i = 0
    while i < len(comps):
        j = i
        while j < len(comps) and comps[j] == comps[i]:
            j += 1
        prefix = str(j - i) if j - i > 1 else ""
        parts.append(f"{prefix}{comps[i][0]}{comps[i][1]}")
        i = j
    return "+".join(parts)


def _euler(comp) -> int:
    return comp[1] + 1 if comp[0] == "A" else comp[1] + 2


def type_sort_key(comps) -> tuple:
    """Published table order: rank, then descending component list."""
    return (sum(n for _, n in comps),
            tuple((-_LETTER_RANK[k], -n) for k, n in comps))


def candidate_types(max_rank: int = 18, max_euler: int = 24) -> list[str]:
    """Names of all nonempty types with rank <= max_rank and Euler
    number <= max_euler, in published table order."""
    pool = [("E", n) for n in (8, 7, 6)]
    pool += [("D", n) for n in range(max_rank, 3, -1)]
    pool += [("A", n) for n in range(max_rank, 0, -1)]
    out = []

    def extend(start, chosen, rank_left, euler_left):
        for i in range(start, len(pool)):
            comp = pool[i]
            if comp[1] > rank_left or _euler(comp) > euler_left:
                continue
            now = chosen + (comp,)
            out.append(now)
            extend(i, now, rank_left - comp[1], euler_left - _euler(comp))

    extend(0, (), max_rank, max_euler)
    out.sort(key=type_sort_key)
    return [format_type(c) for c in out]


def component_disc_order(comp) -> int:
    """|disc| of one component: n+1 for A_n, 4 for D_n, 9-n for E_n."""
    kind, n = comp
    if kind == "A":
        return n + 1
    if kind == "D":
        return 4
    return 9 - n


def closed_form(comps) -> tuple[list[int], int, list[tuple[int, int, int]]]:
    """Discriminant form of a root type on the standard generators.

    Returns the generator orders, a scale N and the nonzero entries
    (i, j, N * g_ij), i <= j, of the matrix g with q(gamma_i) = g_ii mod
    2 and b(gamma_i, gamma_j) = g_ij mod 1.

    A_n: one generator of order n+1 with q = n/(n+1).  D_n, n even: two
    generators of order 2 with q = n/4 and 1, pairing to 1/2.  D_n, n
    odd: one generator of order 4 with q = n/4.  E_6: order 3, q = 4/3.
    E_7: order 2, q = 3/2.  E_8: no generator.
    """
    orders: list[int] = []
    entries: list[tuple[int, int, Fraction]] = []
    for kind, n in comps:
        i = len(orders)
        if kind == "A":
            orders.append(n + 1)
            entries.append((i, i, Fraction(n, n + 1)))
        elif kind == "D" and n % 2 == 0:
            orders += [2, 2]
            entries += [(i, i, Fraction(n, 4)), (i, i + 1, Fraction(1, 2)),
                        (i + 1, i + 1, Fraction(1))]
        elif kind == "D":
            orders.append(4)
            entries.append((i, i, Fraction(n, 4)))
        elif n == 6:
            orders.append(3)
            entries.append((i, i, Fraction(4, 3)))
        elif n == 7:
            orders.append(2)
            entries.append((i, i, Fraction(3, 2)))
    scale = 4 * lcm(1, *orders)
    scaled = []
    for i, j, g in entries:
        if g * scale % 1:
            raise ValueError("scale does not clear the denominators")
        scaled.append((i, j, int(g * scale)))
    return orders, scale, scaled


def q_value(form, x) -> Fraction:
    """q(x) mod 2 for a form returned by closed_form."""
    _, scale, entries = form
    total = sum(x[i] * x[j] * g * (1 if i == j else 2)
                for i, j, g in entries)
    return Fraction(total % (2 * scale), scale)


def b_value(form, x, y) -> Fraction:
    """b(x, y) mod 1 for a form returned by closed_form."""
    _, scale, entries = form
    total = sum((x[i] * y[j] + (x[j] * y[i] if i != j else 0)) * g
                for i, j, g in entries)
    return Fraction(total % scale, scale)


def _element_order(orders, x) -> int:
    return lcm(1, *(d // gcd(c, d) for c, d in zip(x, orders)))


def span_of(orders, v, w) -> frozenset:
    """The subgroup generated by v and w."""
    ev, ew = _element_order(orders, v), _element_order(orders, w)
    return frozenset(
        tuple((a * x + b * y) % d for x, y, d in zip(v, w, orders))
        for a in range(ev) for b in range(ew))


def span_factors(orders, v, w, size: int) -> tuple[int, ...]:
    """Ascending invariant factors of the span of v and w.  The span has
    at most two factors d1 | d2, so d2 is the exponent lcm(ord v, ord w)
    and d1 = size / d2."""
    e = lcm(_element_order(orders, v), _element_order(orders, w))
    return tuple(f for f in (size // e, e) if f > 1)


# ---------------------------------------------------------------------------
# Published table

def parse_group_cell(cell: str) -> list[tuple[int, ...]]:
    """Groups of a cell like ``[4,2],[2],[1]`` as printed factor tuples,
    in printed order; ``[1]`` is ``()``."""
    if not cell:
        return []
    if not (cell.startswith("[") and cell.endswith("]")):
        raise ValueError(f"malformed group cell: {cell!r}")
    groups = []
    for token in cell[1:-1].split("],["):
        factors = tuple(int(t) for t in token.split(","))
        if any(f < 1 for f in factors):
            raise ValueError(f"malformed group cell: {cell!r}")
        groups.append(tuple(f for f in factors if f != 1))
    return groups


def load_published(path) -> dict[str, tuple[str, str]]:
    """type name -> (rank column, groups column) of the published table."""
    rows = {}
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh
                 if ln.strip() and not ln.startswith("#")]
    for line in lines[1:]:
        _, rank, name, cell = line.split("\t")
        rows[name] = (rank, cell)
    return rows


def check_candidates(names: list[str]) -> list[str]:
    """The benchmark's own enumeration against the published per-rank
    candidate counts."""
    per_rank = [0] * 18
    for name in names:
        per_rank[sum(n for _, n in parse_type(name)) - 1] += 1
    if tuple(per_rank) != CANDIDATES_PER_RANK:
        return [f"candidate types per rank {per_rank} != "
                f"{list(CANDIDATES_PER_RANK)}"]
    return []


def check_table(names: list[str], stdout: str, published: dict,
                failed: set) -> list[str]:
    """The classify rows for the given types, in order, against the
    published table and the properties every row must have.

    A type missing from the published table is not realizable and must
    print an empty group cell.  Types in ``failed`` raised in the
    program and print no row.
    """
    problems = []
    rows = stdout.splitlines()
    want = [n for n in names if n not in failed]
    if len(rows) != len(want):
        return [f"{len(rows)} rows for {len(want)} types"]
    for name, row in zip(want, rows):
        cols = row.split("\t")
        if len(cols) != 3:
            problems.append(f"{name}: malformed row {row!r}")
            continue
        comps = parse_type(name)
        rank, cell = published.get(name, (str(sum(n for _, n in comps)), ""))
        if cols != [rank, name, cell]:
            problems.append(f"{name}: row {cols} != published "
                            f"{[rank, name, cell]}")
            continue
        try:
            groups = parse_group_cell(cols[2])
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        disc = prod(component_disc_order(c) for c in comps)
        for g in groups:
            if list(g) != sorted(g, reverse=True):
                problems.append(f"{name}: factors of {g} not descending")
            if any(a % b for a, b in zip(g, g[1:])):
                problems.append(f"{name}: factors {g} do not form a chain")
            if disc % prod(g) ** 2:
                problems.append(f"{name}: |G|^2 = {prod(g) ** 2} does not "
                                f"divide |disc| = {disc}")
        keys = [(prod(g), g) for g in groups]
        if keys != sorted(keys, reverse=True) or len(set(keys)) != len(keys):
            problems.append(f"{name}: groups not listed largest first")
    return problems


def check_stream(names: list[str], pairs: dict, published: dict,
                 failed: set) -> list[str]:
    """The glue pairs of each type, with the benchmark's own arithmetic:
    both classes isotropic and pairing to zero, spans distinct within a
    type, (0, 0) listed, and every published group of the type the
    invariant factors of some listed span."""
    problems = []
    for name in names:
        if name in failed:
            continue
        if name not in pairs:
            problems.append(f"{name}: no pairs reported")
            continue
        form = closed_form(parse_type(name))
        orders = form[0]
        zero = tuple([0] * len(orders))
        seen = set()
        factors = set()
        bad = 0
        for v, w in pairs[name]:
            v, w = tuple(v), tuple(w)
            if (len(v) != len(orders) or len(w) != len(orders)
                    or any(not 0 <= c < d for x in (v, w)
                           for c, d in zip(x, orders))):
                problems.append(f"{name}: malformed pair {v}, {w}")
                bad += 1
                break
            if q_value(form, v) or q_value(form, w) or b_value(form, v, w):
                problems.append(f"{name}: pair {v}, {w} is not isotropic "
                                f"and orthogonal")
                bad += 1
                break
            sub = span_of(orders, v, w)
            if sub in seen:
                problems.append(f"{name}: span of {v}, {w} listed twice")
                bad += 1
                break
            seen.add(sub)
            factors.add(span_factors(orders, v, w, len(sub)))
        if bad:
            continue
        if frozenset([zero]) not in seen:
            problems.append(f"{name}: the pair (0, 0) is not listed")
        for g in parse_group_cell(published.get(name, ("", ""))[1]):
            if tuple(sorted(g)) not in factors:
                problems.append(f"{name}: published group {list(g)} is not "
                                f"the span of any listed pair")
    return problems


# ---------------------------------------------------------------------------
# Genus decisions

def diagonal(gram) -> list[Fraction]:
    """Diagonal entries of a rational congruence diagonalisation of a
    symmetric integer matrix; raises ValueError when it is degenerate."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pivots = []
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    raise ValueError("degenerate Gram matrix")
                # Replace e_k by e_k + e_j: the new diagonal entry is
                # 2 a[k][j], since a[k][k] = a[j][j] = 0.
                for i in range(n):
                    a[k][i] += a[j][i]
                for i in range(n):
                    a[i][k] += a[i][j]
        p = a[k][k]
        pivots.append(p)
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        for i in range(k + 1, n):
            a[k][i] = Fraction(0)
    return pivots


def signature(gram) -> tuple[int, int]:
    """(positive, negative) index of inertia."""
    d = diagonal(gram)
    return sum(1 for x in d if x > 0), sum(1 for x in d if x < 0)


def determinant(gram) -> int:
    """The determinant: the product of the pivots, since each congruence
    step above has determinant +-1."""
    return int(prod(diagonal(gram)))


def genus_questions(gram) -> list[tuple[int, int, bool]]:
    """Six signatures with known answers for the discriminant form of an
    even lattice L of exact signature (r, s).

    (r, s), (r+1, s+1) (add U) and (r+8, s) (add E8) exist.  (r+1, s),
    (r+2, s) and (r+4, s) do not, because by Milgram's formula the form
    fixes r - s mod 8.  The first two are already ruled out by the local
    conditions at 2; (r+4, s) passes every local condition (add U + U
    locally) and is ruled out only by the global relation between the
    signature and the excesses.
    """
    r, s = signature(gram)
    return [(r, s, True), (r + 1, s + 1, True), (r + 8, s, True),
            (r + 1, s, False), (r + 2, s, False), (r + 4, s, False)]


def check_genus(grams: list, answers: list, failed: set) -> list[str]:
    """Each answer against the known answer for its signature.  An
    index in ``failed`` raised in the program and has no answer."""
    problems = []
    questions = [q for g in grams for q in genus_questions(g)]
    if len(answers) != len(questions):
        return [f"{len(answers)} answers for {len(questions)} questions"]
    for k, ((r, s, want), got) in enumerate(zip(questions, answers)):
        if k in failed:
            continue
        if got is not want:
            problems.append(f"question {k} at signature ({r}, {s}): "
                            f"answered {got}, expected {want}")
    return problems
