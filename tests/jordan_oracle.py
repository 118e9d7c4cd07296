"""Exact Jordan decompositions of integer Gram matrices over Z_p, the
p-excess and reduced discriminant of a decomposition, and the signature
mod 8 of a discriminant form from its Gauss sum.

Test-only oracle: the package itself never decomposes a lattice p-adically
and never sums over the group; these routines provide independent expected
values for the local-invariant machinery and the genus decision on small
random lattices.  p_excess shares only the rank-1 2-excess table
_unit_excess_2 with the package.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from fraction_views import eval_q
from k3ade.exact_linalg import legendre_symbol, square_class
from k3ade.fqf import elements, group_order
from k3ade.local_invariants import _unit_excess_2

UNIT, U_BLOCK, V_BLOCK = "unit", "U", "V"


@dataclass(frozen=True)
class JordanBlock:
    """One block of a p-adic Jordan decomposition, scaled by p^nu.

    kind is "unit" for a rank-1 block <a * p^nu> with a a p-adic unit, or
    (p = 2 only) "U" / "V" for the scaled even rank-2 blocks.
    """

    nu: int
    kind: str
    a: int | None = None

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("scale exponent must be nonnegative")
        if self.kind == UNIT:
            if self.a is None:
                raise ValueError("unit block needs a unit residue")
        elif self.kind not in (U_BLOCK, V_BLOCK):
            raise ValueError(f"unknown block kind {self.kind!r}")


def p_excess(blocks: list[JordanBlock], p: int) -> int:
    """p-excess (2-excess at p = 2) of a p-adic Jordan decomposition."""
    if p == 2:
        total = 0
        for blk in blocks:
            if blk.kind == UNIT:
                if blk.a % 2 == 0:
                    raise ValueError(f"{blk.a} is not a 2-adic unit")
                total += _unit_excess_2(blk.nu, blk.a)
            elif blk.kind == U_BLOCK:
                total += 2
            else:
                total += 2 if blk.nu % 2 == 0 else 6
        return total % 8
    total = 0
    for blk in blocks:
        if blk.kind != UNIT:
            raise ValueError("U/V blocks exist only at p = 2")
        if blk.a % p == 0:
            raise ValueError(f"{blk.a} is not a unit at {p}")
        total += pow(p, blk.nu, 8) - 1
        if blk.nu % 2 == 1 and legendre_symbol(blk.a, p) == -1:
            total += 4
    return total % 8


def reddisc(blocks: list[JordanBlock], p: int) -> int:
    """Square class of the product of the unit parts of the blocks, as a
    residue mod 8 (see exact_linalg.square_class)."""
    cls = 1
    for blk in blocks:
        if blk.kind == UNIT:
            cls = cls * square_class(blk.a, p) % 8
        elif p != 2:
            raise ValueError("U/V blocks exist only at p = 2")
        elif blk.kind == U_BLOCK:
            cls = cls * 7 % 8
        else:
            cls = cls * 3 % 8
    return cls


def _val(x: Fraction, p: int) -> int:
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _unit_residue(x: Fraction, p: int, mod: int) -> int:
    """Residue modulo mod (a power of p) of the unit part of x."""
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return num * pow(den, -1, mod) % mod


def signature(gram) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues, exactly."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    pos = neg = 0
    while active:
        i = next((i for i in active if m[i][i] != 0), None)
        if i is None:
            pair = next(((a, b) for a in active for b in active
                         if a != b and m[a][b] != 0), None)
            if pair is None:
                break
            a, b = pair
            for j in range(n):
                m[a][j] += m[b][j]
            for j in range(n):
                m[j][a] += m[j][b]
            continue
        if m[i][i] > 0:
            pos += 1
        else:
            neg += 1
        piv = m[i][i]
        others = [k for k in active if k != i]
        for k in others:
            if m[k][i] != 0:
                f = m[k][i] / piv
                for j in range(n):
                    m[k][j] -= f * m[i][j]
                for j in range(n):
                    m[j][k] -= f * m[j][i]
        active.remove(i)
    return pos, neg


def _eliminate_unit(m, n, active, i):
    piv = m[i][i]
    for k in [k for k in active if k != i]:
        if m[k][i] != 0:
            f = m[k][i] / piv
            for j in range(n):
                m[k][j] -= f * m[i][j]
            for j in range(n):
                m[j][k] -= f * m[j][i]
    active.remove(i)


def _eliminate_pair(m, n, active, i, j):
    aii, aij, ajj = m[i][i], m[i][j], m[j][j]
    det = aii * ajj - aij * aij
    for k in [k for k in active if k not in (i, j)]:
        c1 = (m[k][i] * ajj - m[k][j] * aij) / det
        c2 = (m[k][j] * aii - m[k][i] * aij) / det
        if c1 or c2:
            for t in range(n):
                m[k][t] -= c1 * m[i][t] + c2 * m[j][t]
            for t in range(n):
                m[t][k] -= c1 * m[t][i] + c2 * m[t][j]
    active.remove(i)
    active.remove(j)


def jordan_blocks(gram, p: int) -> list[JordanBlock]:
    """Jordan decomposition of a nondegenerate Gram matrix over Z_p."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    blocks = []
    while active:
        vd = di = None
        for i in active:
            if m[i][i] != 0:
                v = _val(m[i][i], p)
                if vd is None or v < vd:
                    vd, di = v, i
        vo = oij = None
        for a, i in enumerate(active):
            for j in active[a + 1:]:
                if m[i][j] != 0:
                    v = _val(m[i][j], p)
                    if vo is None or v < vo:
                        vo, oij = v, (i, j)
        if vd is None and vo is None:
            raise ValueError("degenerate Gram matrix")
        if p != 2:
            if vd is None or (vo is not None and vo < vd):
                i, j = oij
                s = m[i][i] + 2 * m[i][j] + m[j][j]
                sign = 1 if s != 0 and _val(s, p) == vo else -1
                for t in range(n):
                    m[i][t] += sign * m[j][t]
                for t in range(n):
                    m[t][i] += sign * m[t][j]
                continue
            blocks.append(JordanBlock(vd, UNIT, _unit_residue(m[di][di], p, p)))
            _eliminate_unit(m, n, active, di)
        elif vd is not None and (vo is None or vd <= vo):
            blocks.append(JordanBlock(vd, UNIT, _unit_residue(m[di][di], 2, 8)))
            _eliminate_unit(m, n, active, di)
        else:
            i, j = oij
            odd_diag = (m[i][i] != 0 and _val(m[i][i], 2) == vo + 1 and
                        m[j][j] != 0 and _val(m[j][j], 2) == vo + 1)
            blocks.append(JordanBlock(vo, V_BLOCK if odd_diag else U_BLOCK))
            _eliminate_pair(m, n, active, i, j)
    return sorted(blocks, key=lambda b: (b.nu, b.kind, b.a or 0))


def gauss_signature(form) -> int:
    """Signature mod 8 from the quadratic Gauss sum of the form (Milgram:
    the sum over D of exp(pi i q(x)) is sqrt|D| exp(pi i (r - s) / 4))."""
    total = complex(0.0)
    for e in elements(form):
        total += cmath.exp(1j * math.pi * float(eval_q(form, e)))
    scale = math.sqrt(group_order(form))
    assert abs(abs(total) - scale) < 1e-6 * scale
    angle = cmath.phase(total) * 4.0 / math.pi
    nearest = round(angle)
    assert abs(angle - nearest) < 1e-6
    return nearest % 8
