"""Finite quadratic forms on finite abelian groups.

A finite quadratic form is a finite abelian group D together with a map
q: D -> Q/2Z such that q(nx) = n^2 q(x) and such that
b(x, y) = (q(x+y) - q(x) - q(y))/2 is a symmetric bilinear pairing with
values in Q/Z.  The main source of such forms is the discriminant group
D_L = L^vee / L of an even nondegenerate lattice L, where
q(x) = (x', x') mod 2Z for any rational lift x' of x.

A form is stored as a presentation: independent generators gamma_i of
order d_i (so D is the direct sum of the cyclic groups they span), the
values q(gamma_i) in Q/2Z, and the full symmetric matrix b(gamma_i,
gamma_j) in Q/Z.  Every value is a multiple of 1/E for the exponent
E = lcm(d_i), so the form stores only integers: q(gamma_i) * E mod 2E
and b(gamma_i, gamma_j) * E mod E.  Elements are integer coefficient
tuples, canonical when reduced into 0 <= c_i < d_i.  A presentation is
used as it comes: no function sorts its generators or puts it into a
normal form, and the invariants computed from a form do not depend on
the order of its generators.  Fractions appear
only at the edge: the Fraction constructor, the qdiag/bmat views and
eval_q/eval_b, which return q in [0, 2) and b in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction
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
RatVector = list[Fraction]


class FiniteQuadraticForm:
    """A finite quadratic form presented on independent generators.

    orders[i] is the order d_i >= 2 of the i-th generator and exp is
    E = lcm(orders).  The values are stored scaled by E, as integers:
    qs[i] = q(gamma_i) * E mod 2E and bs[i][j] = b(gamma_i, gamma_j) * E
    mod E.  qdiag and bmat give the same values as Fractions in [0, 2)
    and [0, 1).  Equality is presentation equality.

    FiniteQuadraticForm(orders, qdiag, bmat) takes Fraction (or int)
    values; FiniteQuadraticForm.from_scaled(orders, qs, bs) takes the
    scaled integers.  Both run the same checks and reject a malformed
    presentation with ValueError.  The forms that p_part, direct_sum and
    form_on_generators (without orders) compute from a valid form are
    valid by construction and skip them.  Instances are immutable.
    """

    __slots__ = ("orders", "exp", "qs", "bs", "_hash")

    def __init__(self, orders: Sequence[int],
                 qdiag: Sequence[Fraction | int],
                 bmat: Sequence[Sequence[Fraction | int]]):
        orders = tuple(orders)
        e = lcm(*orders)
        _set_presentation(
            self, orders, e, tuple(_scale(q, e) for q in qdiag),
            tuple(tuple(_scale(b, e) for b in row) for row in bmat))

    @classmethod
    def from_scaled(cls, orders: Sequence[int], qs: Sequence[int],
                    bs: Sequence[Sequence[int]]) -> "FiniteQuadraticForm":
        """The form with q(gamma_i) = qs[i] / E and b(gamma_i, gamma_j) =
        bs[i][j] / E for E = lcm(orders)."""
        form = object.__new__(cls)
        orders = tuple(orders)
        _set_presentation(form, orders, lcm(*orders), tuple(qs),
                          tuple(tuple(row) for row in bs))
        return form

    @property
    def qdiag(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(q, self.exp) for q in self.qs)

    @property
    def bmat(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(b, self.exp) for b in row)
                     for row in self.bs)

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
        return (FiniteQuadraticForm.from_scaled, (self.orders, self.qs, self.bs))

    def __repr__(self):
        return (f"FiniteQuadraticForm.from_scaled({self.orders!r}, "
                f"{self.qs!r}, {self.bs!r})")


def _scale(x: Fraction | int, e: int) -> int:
    """The rational value x as an integer at exponent e, i.e. x * e."""
    v = Fraction(x) * e
    if v.denominator != 1:
        raise ValueError("value denominators must divide the exponent")
    return v.numerator


def _rescale(x: int, e: int, e2: int) -> int:
    """A value scaled by e moved to exponent e2, i.e. x * e2 / e; raises
    when that is not an integer."""
    y, r = divmod(x * e2, e)
    if r:
        raise ValueError("value is not integral at the new exponent")
    return y


def _set_presentation(form: FiniteQuadraticForm, orders: tuple[int, ...],
                      e: int, qs: tuple[int, ...],
                      bs: tuple[tuple[int, ...], ...]) -> None:
    """Validate a scaled presentation at exponent e = lcm(orders) and
    store it in the new instance."""
    n = len(orders)
    if len(qs) != n or len(bs) != n:
        raise ValueError("inconsistent presentation sizes")
    if n and min(orders) < 2:
        raise ValueError("generator orders must be at least 2")
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


def make_form(orders: Sequence[int],
              qdiag: Sequence[Fraction | int],
              bmat: Sequence[Sequence[Fraction | int]]) -> FiniteQuadraticForm:
    """Build a form from raw values, reducing q mod 2Z and b mod Z.

    Generators of order one are dropped from the presentation.
    """
    keep = [i for i, d in enumerate(orders) if d > 1]
    return FiniteQuadraticForm(
        tuple(orders[i] for i in keep),
        tuple(Fraction(qdiag[i]) % 2 for i in keep),
        tuple(tuple(Fraction(bmat[i][j]) % 1 for j in keep) for i in keep),
    )


def discriminant_form(gram: IntMatrix) -> tuple[FiniteQuadraticForm, list[RatVector]]:
    """Discriminant form of an even nondegenerate lattice.

    Returns the form on D = L^vee / L together with one rational lift per
    generator, as coordinates in the basis of the given Gram matrix.  The
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
    # The map x -> Ux identifies L^vee/L, written in the dual basis, with
    # the standard quotient Z^n / diag(d) Z^n, so the generators are the
    # columns of U^{-1}.  Since G^{-1} = V D^{-1} U, the lift of generator
    # i is column i of V divided by d_i, and the values of the form are
    # (V^T G V)_ij / (d_i d_j).
    cols = [i for i in range(n) if d[i][i] > 1]
    vcols = [[v[r][i] for r in range(n)] for i in cols]
    gv = [[sum(map(mul, row, c)) for row in gram] for c in vcols]
    lifts = [[Fraction(x, d[i][i]) for x in c] for i, c in zip(cols, vcols)]
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
    return FiniteQuadraticForm.from_scaled(orders, qs, bs), lifts


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
    """Restriction of the form to the p-Sylow subgroup of D.

    The generator of the p-part of the cyclic group spanned by gamma_i is
    m_i * gamma_i where m_i is the prime-to-p part of d_i.
    """
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
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
        return TRIVIAL_FORM
    e = form.exp
    ep = lcm(*pord)
    qs = [_rescale(m * m * form.qs[i], e, ep) % (2 * ep)
          for i, m in zip(idx, mult)]
    bs = [[_rescale(mi * mj * form.bs[i][j], e, ep) % ep
           for j, mj in zip(idx, mult)] for i, mi in zip(idx, mult)]
    return _derived(pord, ep, qs, bs)


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


def eval_q(form: FiniteQuadraticForm, x: Sequence[int]) -> Fraction:
    """q(x) in Q/2Z, returned reduced into [0, 2)."""
    return Fraction(_q_scaled(form, _reduce(form, x)), form.exp)


def eval_b(form: FiniteQuadraticForm, x: Sequence[int],
           y: Sequence[int]) -> Fraction:
    """b(x, y) in Q/Z, returned reduced into [0, 1)."""
    return Fraction(_b_scaled(form, _reduce(form, x), _reduce(form, y)),
                    form.exp)


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
    basis_b = hermite_normal_form([list(h) for h in gens] + _relation_rows(form))
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
    With supplied orders the result runs every check of from_scaled; with
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
    return FiniteQuadraticForm.from_scaled(orders, qs, bs)


def dump_form(form: FiniteQuadraticForm) -> str:
    """Serialize to the plain-text form format.

    Line 1 lists the generator orders ("1" for the trivial form); line 2
    lists q(gamma_i) as fractions a/b; the following lines give the rows
    of the upper triangle of b, diagonal included.  parse_form inverts
    this exactly.
    """
    if not form.orders:
        return "1\n"
    n = len(form.orders)
    lines = [" ".join(str(d) for d in form.orders)]
    lines.append(" ".join(_fmt(x) for x in form.qdiag))
    for i in range(n):
        lines.append(" ".join(_fmt(form.bmat[i][j]) for j in range(i, n)))
    return "\n".join(lines) + "\n"


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_form(text: str) -> FiniteQuadraticForm:
    """Parse the plain-text form format produced by dump_form."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty form file")
    if lines[0] == ["1"]:
        if len(lines) > 1:
            raise ValueError("trailing data after trivial form")
        return TRIVIAL_FORM
    orders = [int(t) for t in lines[0]]
    n = len(orders)
    if len(lines) != n + 2:
        raise ValueError(f"expected {n + 2} lines, got {len(lines)}")
    qdiag = [_parse_fraction(t) for t in lines[1]]
    if len(qdiag) != n:
        raise ValueError("wrong number of q values")
    bmat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        row = [_parse_fraction(t) for t in lines[2 + i]]
        if len(row) != n - i:
            raise ValueError(f"wrong number of b entries in row {i}")
        for j, x in enumerate(row):
            bmat[i][i + j] = x
            bmat[i + j][i] = x
    return FiniteQuadraticForm(
        tuple(orders), tuple(qdiag), tuple(tuple(r) for r in bmat))
