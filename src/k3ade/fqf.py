"""Finite quadratic forms on finite abelian groups.

A finite quadratic form is a finite abelian group D together with a map
q: D -> Q/2Z such that q(nx) = n^2 q(x) and such that
b(x, y) = (q(x+y) - q(x) - q(y))/2 is a symmetric bilinear pairing with
values in Q/Z.  The main source of such forms is the discriminant group
D_L = L^vee / L of an even nondegenerate lattice L, where
q(x) = (x', x') mod 2Z for any lift x' in L^vee of x.  With G the Gram
matrix of L, a lift is given by its dual coordinates z = G x', an
integer vector: L^vee is then Z^n, L the row span of G, and
(x', y') = z G^-1 z'.

A form is stored as a presentation: independent generators gamma_i of
order d_i (so D is the direct sum of the cyclic groups they span), the
values q(gamma_i) in Q/2Z, and the full symmetric matrix b(gamma_i,
gamma_j) in Q/Z.  Every value is a multiple of 1/E for the exponent
E = lcm(d_i), so the form stores only integers: q(gamma_i) * E mod 2E
and b(gamma_i, gamma_j) * E mod E.  Elements are integer coefficient
tuples, canonical when reduced into 0 <= c_i < d_i.  A presentation is
used as it comes: no function sorts its generators or puts it into a
normal form, and the invariants computed from a form do not depend on
the order of its generators.  The constructor takes these integers and
every function gives them; only the text format (dump_form/parse_form)
spells a value as a fraction a/b, and it converts with integer
arithmetic too.
"""

from __future__ import annotations

import re
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exact_linalg import (
    IntMatrix,
    hermite_normal_form,
    int_inverse,
    prime_factors,
    smith_normal_form,
)

FqfElement = tuple[int, ...]


class FiniteQuadraticForm:
    """A finite quadratic form presented on independent generators.

    orders[i] is the order d_i >= 2 of the i-th generator and exp is
    E = lcm(orders).  The values are stored scaled by E, as integers:
    qs[i] = q(gamma_i) * E mod 2E and bs[i][j] = b(gamma_i, gamma_j) * E
    mod E.  Equality is presentation equality.

    FiniteQuadraticForm(orders, qs, bs) takes those scaled integers and
    rejects a malformed presentation with ValueError, a value that is not
    an int (a Fraction, say) included.  The forms that p_part, direct_sum
    and form_on_generators (without orders) compute from a valid form are
    valid by construction and skip the checks.  Instances are immutable.
    """

    __slots__ = ("orders", "exp", "qs", "bs", "_hash")

    def __init__(self, orders: Sequence[int], qs: Sequence[int],
                 bs: Sequence[Sequence[int]]):
        _set_presentation(self, tuple(orders), tuple(qs),
                          tuple(tuple(row) for row in bs))

    def __eq__(self, other):
        if not isinstance(other, FiniteQuadraticForm):
            return NotImplemented
        return (self.orders == other.orders and self.qs == other.qs
                and self.bs == other.bs)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("FiniteQuadraticForm is immutable")

    def __delattr__(self, name):
        raise AttributeError("FiniteQuadraticForm is immutable")

    def __reduce__(self):
        return (FiniteQuadraticForm, (self.orders, self.qs, self.bs))

    def __repr__(self):
        return (f"FiniteQuadraticForm({self.orders!r}, {self.qs!r}, "
                f"{self.bs!r})")


def _rescale(x: int, e: int, e2: int) -> int:
    """A value scaled by e moved to exponent e2, i.e. x * e2 / e; raises
    when that is not an integer."""
    y, r = divmod(x * e2, e)
    if r:
        raise ValueError("value is not integral at the new exponent")
    return y


def _set_presentation(form: FiniteQuadraticForm, orders: tuple[int, ...],
                      qs: tuple[int, ...],
                      bs: tuple[tuple[int, ...], ...]) -> None:
    """Validate a scaled presentation at exponent e = lcm(orders) and
    store it in the new instance."""
    n = len(orders)
    if len(qs) != n or len(bs) != n:
        raise ValueError("inconsistent presentation sizes")
    if not all(isinstance(x, int) for row in (orders, qs, *bs) for x in row):
        raise ValueError("orders and values must be ints")
    if n and min(orders) < 2:
        raise ValueError("generator orders must be at least 2")
    e = lcm(*orders)
    two_e = 2 * e
    for i, d in enumerate(orders):
        qi = qs[i]
        row = bs[i]
        if len(row) != n:
            raise ValueError("inconsistent presentation sizes")
        if not 0 <= qi < two_e:
            raise ValueError("q values must be reduced into [0, 2)")
        if row[i] != qi % e:
            raise ValueError("b(g, g) must be q(g) reduced mod Z")
        if d * d * qi % two_e:
            raise ValueError("q(g) must be killed by the square of ord(g)")
        for j, bij in enumerate(row):
            if not 0 <= bij < e:
                raise ValueError("b values must be reduced into [0, 1)")
            if d * bij % e:
                raise ValueError("b(g, .) must be killed by ord(g)")
            # Rows before i have been checked for size already.
            if j < i and bij != bs[j][i]:
                raise ValueError("b must be symmetric")
    _store(form, orders, e, qs, bs)


def _store(form: FiniteQuadraticForm, orders: tuple[int, ...], e: int,
           qs: tuple[int, ...], bs: tuple[tuple[int, ...], ...]) -> None:
    setter = object.__setattr__
    setter(form, "orders", orders)
    setter(form, "exp", e)
    setter(form, "qs", qs)
    setter(form, "bs", bs)
    setter(form, "_hash", hash((orders, qs, bs)))


def _derived(orders: Sequence[int], e: int, qs: Sequence[int],
             bs: Sequence[Sequence[int]]) -> FiniteQuadraticForm:
    """A form computed from a valid one by a map that preserves every
    presentation invariant (e = lcm(orders), values reduced, q and b
    consistent), so the checks of _set_presentation are skipped."""
    form = object.__new__(FiniteQuadraticForm)
    _store(form, tuple(orders), e, tuple(qs), tuple(tuple(row) for row in bs))
    return form


TRIVIAL_FORM = FiniteQuadraticForm((), (), ())


def discriminant_form(gram: IntMatrix) -> tuple[FiniteQuadraticForm, IntMatrix]:
    """Discriminant form of an even nondegenerate lattice.

    Returns the form on D = L^vee / L together with one lift per
    generator in dual coordinates (see the module docstring).  The
    generator orders are the nontrivial invariant factors of D, obtained
    from the Smith normal form of the Gram matrix.
    """
    n = len(gram)
    # The square check comes first: zip(*gram) would cut a ragged Gram
    # matrix short without an error.
    if any(len(row) != n for row in gram):
        raise ValueError("Gram matrix must be square")
    if any(row[i] % 2 for i, row in enumerate(gram)):
        raise ValueError("Gram matrix must be even")
    if any(tuple(row) != col for row, col in zip(gram, zip(*gram))):
        raise ValueError("Gram matrix must be symmetric")
    d, v = smith_normal_form(gram)
    if any(d[i][i] == 0 for i in range(n)):
        raise ValueError("Gram matrix must be nondegenerate")
    # The map z -> Uz identifies L^vee/L, in dual coordinates, with the
    # standard quotient Z^n / diag(d) Z^n, so the generators are the
    # columns of U^{-1}.  Since G V = U^{-1} D, generator i is column i of
    # G V divided by d_i, exactly, and the values of the form are
    # (V^T G V)_ij / (d_i d_j).
    cols = [i for i in range(n) if d[i][i] > 1]
    vcols = [[v[r][i] for r in range(n)] for i in cols]
    gv = [[sum(map(mul, row, c)) for row in gram] for c in vcols]
    lifts = [[x // d[i][i] for x in c] for i, c in zip(cols, gv)]
    orders = tuple(d[i][i] for i in cols)
    e = lcm(*orders)
    qs = []
    bs = []
    for a, da in enumerate(orders):
        row = []
        for b, db in enumerate(orders):
            w = _rescale(sum(map(mul, vcols[a], gv[b])), da * db, e)
            row.append(w % e)
            if a == b:
                qs.append(w % (2 * e))
        bs.append(row)
    return FiniteQuadraticForm(orders, qs, bs), lifts


def direct_sum(*forms: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Orthogonal direct sum: concatenated generators, block-diagonal b.
    The sum of no forms is the trivial form."""
    e = lcm(*(form.exp for form in forms))
    n = sum(len(form.orders) for form in forms)
    orders, qs, bs = [], [], []
    for form in forms:
        # Every exponent divides e, so the values move up by integer
        # factors.
        s = e // form.exp
        before, k = len(orders), len(form.orders)
        orders += form.orders
        qs += [q * s for q in form.qs]
        bs += [[0] * before + [b * s for b in row] + [0] * (n - before - k)
               for row in form.bs]
    return _derived(orders, e, qs, bs)


def p_part(form: FiniteQuadraticForm, p: int) -> FiniteQuadraticForm:
    """Restriction of the form to the p-Sylow subgroup of D: the form on
    the scaled integers of _p_scaled, after a check that p is prime.

    The genus decision reads those integers directly and no longer calls
    it.  It stays because BENCHMARK.json names it as a per-layer metric
    (fqf.p_part.self_s); the tests still call it.
    """
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    orders, qs, bs = _p_scaled(form, p)
    if not orders:
        return TRIVIAL_FORM
    return _derived(orders, max(orders), qs, bs)


def _p_scaled(form: FiniteQuadraticForm, p: int
              ) -> tuple[tuple[int, ...], tuple[int, ...],
                         tuple[tuple[int, ...], ...]]:
    """(orders, qs, bs) of the p-Sylow subgroup of D, the values scaled
    by its exponent P, the largest order; all empty when p does not
    divide |D|.  p must be prime.

    The generator of the p-part of the cyclic group spanned by gamma_i is
    m_i * gamma_i where m_i is the prime-to-p part of d_i.
    """
    idx = []
    pord = []
    mult = []
    for i, d in enumerate(form.orders):
        if d % p != 0:
            continue
        q = 1
        while d % p == 0:
            d //= p
            q *= p
        idx.append(i)
        pord.append(q)
        mult.append(d)
    if not idx:
        return (), (), ()
    e = form.exp
    ep = max(pord)
    if ep == e:
        # Every order divides the p-power e: D is its own p-part.
        return form.orders, form.qs, form.bs
    qs = tuple(_rescale(m * m * form.qs[i], e, ep) % (2 * ep)
               for i, m in zip(idx, mult))
    bs = tuple(tuple(_rescale(mi * mj * form.bs[i][j], e, ep) % ep
                     for j, mj in zip(idx, mult))
               for i, mi in zip(idx, mult))
    return tuple(pord), qs, bs


def _reduce(form: FiniteQuadraticForm, x: Sequence[int]) -> FqfElement:
    if len(x) != len(form.orders):
        raise ValueError("element has the wrong number of coefficients")
    return tuple(c % d for c, d in zip(x, form.orders))


def _q_scaled(form: FiniteQuadraticForm, x: FqfElement) -> int:
    """q(x) * E mod 2E for a reduced element x."""
    total = 0
    for i, ci in enumerate(x):
        if ci:
            row = form.bs[i]
            total += ci * (ci * form.qs[i] + 2 * sum(
                row[j] * x[j] for j in range(i + 1, len(x))))
    return total % (2 * form.exp)


def _b_scaled(form: FiniteQuadraticForm, x: FqfElement,
              y: FqfElement) -> int:
    """b(x, y) * E mod E for reduced elements x and y."""
    total = 0
    for ci, row in zip(x, form.bs):
        if ci:
            total += ci * sum(b * c for b, c in zip(row, y))
    return total % form.exp


def elements(form: FiniteQuadraticForm) -> Iterator[FqfElement]:
    """All elements of D in odometer order (last coefficient fastest)."""
    return product(*(range(d) for d in form.orders))


def group_order(form: FiniteQuadraticForm) -> int:
    return prod(form.orders)


def is_nondegenerate(form: FiniteQuadraticForm) -> bool:
    """Whether b has trivial radical.

    x -> b(x, .) maps D to its dual, written on the generators as the
    integer matrix N with N[i][j] = d_j b(gamma_i, gamma_j) modulo d_j.
    The two groups have the same order, so the map is injective exactly
    when it is onto, i.e. when the rows of N and of diag(orders) span Z^n.
    """
    n = len(form.orders)
    rows = [[b * d // form.exp for b, d in zip(row, form.orders)]
            for row in form.bs]
    hnf = hermite_normal_form(rows + _relation_rows(form))
    return prod(hnf[i][i] for i in range(n)) == 1


def element_order(form: FiniteQuadraticForm, x: Sequence[int]) -> int:
    x = _reduce(form, x)
    return lcm(*(d // gcd(c, d) for c, d in zip(x, form.orders))) if x else 1


def span(form: FiniteQuadraticForm,
         gens: Iterable[Sequence[int]]) -> frozenset[FqfElement]:
    """The subgroup generated by the given elements."""
    gens = [_reduce(form, g) for g in gens]
    seen = {tuple([0] * len(form.orders))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, form.orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _relation_rows(form: FiniteQuadraticForm) -> IntMatrix:
    n = len(form.orders)
    return [[form.orders[i] if j == i else 0 for j in range(n)]
            for i in range(n)]


def subquotient(form: FiniteQuadraticForm,
                subgroup: Iterable[Sequence[int]]) -> FiniteQuadraticForm:
    """The induced form on H^perp / H for a totally isotropic subgroup H.

    H is given by generators; it must satisfy q(h) = 0 for each generator
    and b(h, h') = 0 for each pair, which makes every element of H
    isotropic and the induced form well defined.  For a nondegenerate form
    the result has order |D| / |H|^2.  A trivial H returns the form itself.

    Everything is integer arithmetic on the presentation; D is never
    listed.  In D = Z^n / diag(orders), y lies in H^perp exactly when
    P y = 0 mod E, where P holds the scaled pairings E b(h, gamma_j) of
    the generators.  One Smith step U P V = S turns this into
    s_i z_i = 0 mod E for z = V^-1 y, so H^perp is spanned by the columns
    of V scaled by E / gcd(s_i, E).  H + diag(orders) is then written in
    that basis, and the Smith form of the result presents H^perp / H.
    """
    gens = [h for h in (_reduce(form, g) for g in subgroup) if any(h)]
    for h in gens:
        if _q_scaled(form, h):
            raise ValueError("subgroup is not totally isotropic")
        for k in gens:
            if _b_scaled(form, h, k):
                raise ValueError("subgroup is not totally isotropic")
    if not gens:
        return form
    n = len(form.orders)
    e = form.exp
    pairings = [[sum(c * form.bs[i][j] for i, c in enumerate(h) if c) % e
                 for j in range(n)] for h in gens]
    s, v = smith_normal_form(pairings)
    # A zero or missing s_i leaves z_i free; ord(gamma_j) kills
    # b(., gamma_j), so the relations diag(orders) lie in the span.
    scale = [e // gcd(s[i][i], e) if i < len(gens) else 1 for i in range(n)]
    basis_a = [[c * v[j][i] for j in range(n)] for i, c in enumerate(scale)]
    vinv = int_inverse(v)
    basis_b = hermite_normal_form(gens + _relation_rows(form))
    rel = []
    for row in basis_b:
        coords = []
        for vrow, c in zip(vinv, scale):
            x, r = divmod(sum(a * b for a, b in zip(vrow, row)), c)
            if r:
                raise RuntimeError("H is not contained in its orthogonal "
                                   "complement")
            coords.append(x)
        rel.append(coords)
    d, w = smith_normal_form(rel)
    winv = int_inverse(w)
    new_gens = []
    new_orders = []
    for k in range(n):
        if d[k][k] > 1:
            coords = [sum(winv[k][t] * basis_a[t][j] for t in range(n))
                      for j in range(n)]
            new_gens.append(_reduce(form, coords))
            new_orders.append(d[k][k])
    result = form_on_generators(form, new_gens, new_orders)
    order_h = group_order(form) // prod(r[i] for i, r in enumerate(basis_b))
    if group_order(result) * order_h * order_h != group_order(form):
        raise RuntimeError("subquotient order mismatch; degenerate input?")
    return result


def form_on_generators(form: FiniteQuadraticForm,
                       rows: Sequence[Sequence[int]],
                       orders: Sequence[int] | None = None) -> FiniteQuadraticForm:
    """Present the values of the form on a family of new generators.

    Each row lists integer coefficients of a new generator in the current
    ones.  When the rows span D and are independent this re-presents the
    form.  orders are the orders of the new generators, recomputed from
    the rows when not supplied; subquotient passes their orders modulo H.
    With supplied orders the result runs every check of the constructor; with
    derived ones each check holds by construction once no row is zero.
    """
    xs = [_reduce(form, row) for row in rows]
    derived = orders is None
    if derived:
        orders = [element_order(form, x) for x in xs]
        if 1 in orders:
            raise ValueError("generator orders must be at least 2")
    # The values move from the exponent of the form to lcm(orders).  Each
    # new generator x gets its row E b(x, gamma_j) once (b is symmetric,
    # so it is x times the rows of bs); b(x, y) is that row times y.
    e = form.exp
    e2 = lcm(*orders)
    qs = [_rescale(_q_scaled(form, x), e, e2) % (2 * e2) for x in xs]
    pairings = [[sum(map(mul, x, row)) for row in form.bs] for x in xs]
    bs = [[_rescale(sum(map(mul, row, y)) % e, e, e2) % e2 for y in xs]
          for row in pairings]
    if derived:
        return _derived(orders, e2, qs, bs)
    return FiniteQuadraticForm(orders, qs, bs)


def dump_form(form: FiniteQuadraticForm) -> str:
    """Serialize to the plain-text form format.

    Line 1 lists the generator orders ("1" for the trivial form); line 2
    lists q(gamma_i) as fractions a/b in lowest terms, a in [0, 2b); the
    following lines give the rows of the upper triangle of b, diagonal
    included, a in [0, b).  parse_form inverts this exactly.
    """
    if not form.orders:
        return "1\n"
    e = form.exp
    lines = [" ".join(map(str, form.orders)),
             " ".join(_fmt(q, e) for q in form.qs)]
    lines += [" ".join(_fmt(b, e) for b in row[i:])
              for i, row in enumerate(form.bs)]
    return "\n".join(lines) + "\n"


def _fmt(x: int, e: int) -> str:
    """The value x / e as a/b in lowest terms."""
    g = gcd(x, e)
    return f"{x // g}/{e // g}"


_ORDER = re.compile(r"[0-9]+")
_VALUE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
#: Most digits in one number of a form file: the interpreter's default
#: bound on reading an int from text, refused here as bad input.
_MAX_DIGITS = 4300


def _token_int(digits: str, token: str) -> int:
    """The int written by the digits, a part of the form-file token."""
    if len(digits.lstrip("-")) > _MAX_DIGITS:
        raise ValueError(f"form-file token of {len(token)} characters has "
                         f"a number of more than {_MAX_DIGITS} digits")
    return int(digits)


def _parse_order(token: str) -> int:
    if not _ORDER.fullmatch(token):
        raise ValueError(f"{token!r} is not a generator order")
    return _token_int(token, token)


def _scaled_value(token: str, e: int) -> int:
    """An integer or fraction token a/b as the integer a e / b."""
    match = _VALUE.fullmatch(token)
    if match is None:
        raise ValueError(f"{token!r} is neither an integer nor a fraction "
                         "a/b")
    num, den = match.groups()
    den = _token_int(den or "1", token)
    if den == 0:
        raise ValueError(f"zero denominator in {token!r}")
    x, r = divmod(_token_int(num, token) * e, den)
    if r:
        raise ValueError("value denominators must divide the exponent")
    return x


def parse_form(text: str) -> FiniteQuadraticForm:
    """Parse the plain-text form format produced by dump_form.

    Orders are digit strings and values integers or fractions a/b (a may
    be negative), all in ASCII digits; any other token is refused.  Each
    value is moved to the exponent E = lcm(orders) in integers, so a
    value whose denominator does not divide E is refused, and the
    constructor then checks the presentation.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty form file")
    if lines[0] == ["1"]:
        if len(lines) > 1:
            raise ValueError("trailing data after trivial form")
        return TRIVIAL_FORM
    orders = [_parse_order(t) for t in lines[0]]
    n = len(orders)
    if len(lines) != n + 2:
        raise ValueError(f"expected {n + 2} lines, got {len(lines)}")
    e = lcm(*orders)
    qs = [_scaled_value(t, e) for t in lines[1]]
    if len(qs) != n:
        raise ValueError("wrong number of q values")
    bs = [[0] * n for _ in range(n)]
    for i in range(n):
        row = [_scaled_value(t, e) for t in lines[2 + i]]
        if len(row) != n - i:
            raise ValueError(f"wrong number of b entries in row {i}")
        for j, x in enumerate(row, i):
            bs[i][j] = bs[j][i] = x
    return FiniteQuadraticForm(orders, qs, bs)
