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
gamma_j) in Q/Z.  Elements are integer coefficient tuples, canonical when
reduced into 0 <= c_i < d_i.  All arithmetic is exact; values of q live in
[0, 2) and values of b in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .exact_linalg import (
    IntMatrix,
    hermite_normal_form,
    int_inverse,
    prime_factors,
    rat_inverse,
    smith_normal_form,
)

FqfElement = tuple[int, ...]
RatVector = list[Fraction]


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """A finite quadratic form presented on independent generators.

    orders[i] is the order d_i >= 2 of the i-th generator, qdiag[i] is
    q(gamma_i) in Q/2Z and bmat[i][j] is b(gamma_i, gamma_j) in Q/Z.
    Equality is presentation equality.
    """

    orders: tuple[int, ...]
    qdiag: tuple[Fraction, ...]
    bmat: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.orders)
        if len(self.qdiag) != n or len(self.bmat) != n:
            raise ValueError("inconsistent presentation sizes")
        for i, d in enumerate(self.orders):
            if d < 2:
                raise ValueError("generator orders must be at least 2")
            qi = self.qdiag[i]
            if not 0 <= qi < 2:
                raise ValueError("q values must be reduced into [0, 2)")
            if len(self.bmat[i]) != n:
                raise ValueError("inconsistent presentation sizes")
            if self.bmat[i][i] != qi % 1:
                raise ValueError("b(g, g) must be q(g) reduced mod Z")
            if d * d * qi % 2 != 0:
                raise ValueError("q(g) must be killed by the square of ord(g)")
            for j in range(n):
                bij = self.bmat[i][j]
                if not 0 <= bij < 1:
                    raise ValueError("b values must be reduced into [0, 1)")
                if bij != self.bmat[j][i]:
                    raise ValueError("b must be symmetric")
                if d * bij % 1 != 0:
                    raise ValueError("b(g, .) must be killed by ord(g)")


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
    for i, row in enumerate(gram):
        if len(row) != n:
            raise ValueError("Gram matrix must be square")
        if row[i] % 2 != 0:
            raise ValueError("Gram matrix must be even")
        for j in range(n):
            if row[j] != gram[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    _, d, v = smith_normal_form(gram)
    if any(d[i][i] == 0 for i in range(n)):
        raise ValueError("Gram matrix must be nondegenerate")
    # The map x -> Ux identifies L^vee/L, written in the dual basis, with
    # the standard quotient Z^n / diag(d) Z^n, so the generators are the
    # columns of U^{-1}.  Since G^{-1} = V D^{-1} U, the lift of generator
    # i is column i of V divided by d_i, and the values of the form are
    # (V^T G V)_ij / (d_i d_j).
    cols = [i for i in range(n) if d[i][i] > 1]
    vcols = [[v[r][i] for r in range(n)] for i in cols]
    gv = [[sum(gram[r][k] * c[k] for k in range(n)) for r in range(n)]
          for c in vcols]
    lifts = [[Fraction(x, d[i][i]) for x in c] for i, c in zip(cols, vcols)]
    qdiag = []
    bmat = []
    for a, i in enumerate(cols):
        row = []
        for b, j in enumerate(cols):
            w = Fraction(sum(x * y for x, y in zip(vcols[a], gv[b])),
                         d[i][i] * d[j][j])
            row.append(w % 1)
            if a == b:
                qdiag.append(w % 2)
        bmat.append(tuple(row))
    form = FiniteQuadraticForm(
        tuple(d[i][i] for i in cols), tuple(qdiag), tuple(bmat))
    return form, lifts


def direct_sum(q1: FiniteQuadraticForm,
               q2: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Orthogonal direct sum: concatenated generators, block-diagonal b."""
    n1, n2 = len(q1.orders), len(q2.orders)
    zero = Fraction(0)
    bmat = [tuple(q1.bmat[i]) + (zero,) * n2 for i in range(n1)]
    bmat += [(zero,) * n1 + tuple(q2.bmat[i]) for i in range(n2)]
    return FiniteQuadraticForm(
        q1.orders + q2.orders, q1.qdiag + q2.qdiag, tuple(bmat))


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
    qdiag = tuple(form.qdiag[i] * m * m % 2 for i, m in zip(idx, mult))
    bmat = tuple(
        tuple(form.bmat[i][j] * mi * mj % 1 for j, mj in zip(idx, mult))
        for i, mi in zip(idx, mult))
    return FiniteQuadraticForm(tuple(pord), qdiag, bmat)


def _reduce(form: FiniteQuadraticForm, x: Sequence[int]) -> FqfElement:
    if len(x) != len(form.orders):
        raise ValueError("element has the wrong number of coefficients")
    return tuple(c % d for c, d in zip(x, form.orders))


def eval_q(form: FiniteQuadraticForm, x: Sequence[int]) -> Fraction:
    """q(x) in Q/2Z, returned reduced into [0, 2)."""
    x = _reduce(form, x)
    total = Fraction(0)
    for i, ci in enumerate(x):
        if not ci:
            continue
        total += ci * ci * form.qdiag[i]
        for j in range(i + 1, len(x)):
            if x[j]:
                total += 2 * ci * x[j] * form.bmat[i][j]
    return total % 2


def eval_b(form: FiniteQuadraticForm, x: Sequence[int],
           y: Sequence[int]) -> Fraction:
    """b(x, y) in Q/Z, returned reduced into [0, 1)."""
    x = _reduce(form, x)
    y = _reduce(form, y)
    total = Fraction(0)
    for i, ci in enumerate(x):
        if not ci:
            continue
        for j, cj in enumerate(y):
            if cj:
                total += ci * cj * form.bmat[i][j]
    return total % 1


def elements(form: FiniteQuadraticForm) -> Iterator[FqfElement]:
    """All elements of D in odometer order (last coefficient fastest)."""
    return product(*(range(d) for d in form.orders))


def group_order(form: FiniteQuadraticForm) -> int:
    return prod(form.orders)


def exponent(form: FiniteQuadraticForm) -> int:
    return lcm(*form.orders) if form.orders else 1


def is_nondegenerate(form: FiniteQuadraticForm) -> bool:
    """Whether b has trivial radical.

    x -> b(x, .) maps D to its dual, written on the generators as the
    integer matrix N with N[i][j] = d_j b(gamma_i, gamma_j) modulo d_j.
    The two groups have the same order, so the map is injective exactly
    when it is onto, i.e. when the rows of N and of diag(orders) span Z^n.
    """
    n = len(form.orders)
    rows = [[int(form.bmat[i][j] * d) for j, d in enumerate(form.orders)]
            for i in range(n)]
    hnf = hermite_normal_form(rows + _relation_rows(form))
    return prod(hnf[i][i] for i in range(n)) == 1


def element_order(form: FiniteQuadraticForm, x: Sequence[int]) -> int:
    x = _reduce(form, x)
    return lcm(*(d // gcd(c, d) for c, d in zip(x, form.orders))) if x else 1


def isotropic_elements(form: FiniteQuadraticForm) -> set[FqfElement]:
    """All x in D with q(x) = 0 in Q/2Z; always contains 0."""
    return {x for x in elements(form) if eval_q(form, x) == 0}


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


def orthogonal_complement(form: FiniteQuadraticForm,
                          subgroup: Iterable[Sequence[int]]) -> frozenset[FqfElement]:
    """All y in D with b(x, y) = 0 for every generator x of the subgroup."""
    gens = [_reduce(form, g) for g in subgroup]
    return frozenset(
        y for y in elements(form)
        if all(eval_b(form, g, y) == 0 for g in gens))


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
    the result has order |D| / |H|^2.
    """
    gens = [_reduce(form, h) for h in subgroup]
    for h in gens:
        if eval_q(form, h) != 0:
            raise ValueError("subgroup is not totally isotropic")
        for k in gens:
            if eval_b(form, h, k) != 0:
                raise ValueError("subgroup is not totally isotropic")
    n = len(form.orders)
    if n == 0:
        return form
    # Model D as Z^n modulo the relation lattice diag(orders).  H^perp and
    # H + relations are then full-rank integer lattices A >= B, and
    # H^perp/H is A/B, read off from the Smith normal form of the matrix
    # expressing a basis of B in a basis of A.
    perp = sorted(orthogonal_complement(form, gens))
    basis_a = hermite_normal_form([list(x) for x in perp] + _relation_rows(form))
    basis_b = hermite_normal_form([list(h) for h in gens] + _relation_rows(form))
    ainv = rat_inverse(basis_a)
    rel = []
    for row in basis_b:
        entries = [sum(row[k] * ainv[k][j] for k in range(n)) for j in range(n)]
        if any(x.denominator != 1 for x in entries):
            raise AssertionError("H is not contained in its orthogonal complement")
        rel.append([x.numerator for x in entries])
    u, d, v = smith_normal_form(rel)
    vinv = int_inverse(v)
    new_gens = []
    new_orders = []
    for k in range(n):
        if d[k][k] > 1:
            coords = [sum(vinv[k][t] * basis_a[t][j] for t in range(n))
                      for j in range(n)]
            new_gens.append(_reduce(form, coords))
            new_orders.append(d[k][k])
    result = FiniteQuadraticForm(
        tuple(new_orders),
        tuple(eval_q(form, g) for g in new_gens),
        tuple(tuple(eval_b(form, g, h) for h in new_gens) for g in new_gens),
    )
    order_h = group_order(form) // prod(r[i] for i, r in enumerate(basis_b))
    if group_order(result) * order_h * order_h != group_order(form):
        raise AssertionError("subquotient order mismatch; degenerate input?")
    return result


def reduced_generators(form: FiniteQuadraticForm) -> list[FqfElement]:
    """Generators of a p-group form sorted by weakly decreasing order.

    The presentation generators already span independent cyclic factors,
    so this just checks that all orders are powers of one prime and sorts.
    Raises ValueError when the group is not a p-group.
    """
    p = None
    for d in form.orders:
        primes = prime_factors(d)
        if p is None:
            p = primes[0]
        if primes != [p]:
            raise ValueError("mixed-order input: not a p-group form")
    order = sorted(range(len(form.orders)),
                   key=lambda i: (-form.orders[i], i))
    out = []
    for i in order:
        gen = [0] * len(form.orders)
        gen[i] = 1
        out.append(tuple(gen))
    return out


def form_on_generators(form: FiniteQuadraticForm,
                       rows: Sequence[Sequence[int]],
                       orders: Sequence[int] | None = None) -> FiniteQuadraticForm:
    """Re-present the form on a new family of independent generators.

    Each row lists integer coefficients of a new generator in the current
    ones.  The caller guarantees that the rows span D and are independent;
    orders are recomputed from the rows when not supplied.
    """
    xs = [_reduce(form, row) for row in rows]
    if orders is None:
        orders = [element_order(form, x) for x in xs]
    return FiniteQuadraticForm(
        tuple(orders),
        tuple(eval_q(form, x) for x in xs),
        tuple(tuple(eval_b(form, x, y) for y in xs) for x in xs),
    )


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
