"""Exact integer and rational linear algebra shared by all other modules.

All matrices are dense lists of lists of Python ints (arbitrary precision).
One fraction-free elimination, _scaled_inverse, gives the determinant and
both inverses; rank is read off the Hermite normal form.  The Smith
normal form returns D and the right transform V only; the left
transform U lives only in the test oracle tests/smith_oracle.py.
Fractions appear only in the output of rat_inverse.  No floating point
anywhere.

A square class of Z_p^x / (Z_p^x)^2 is a plain int, a residue mod 8: the
unit itself mod 8 at p = 2, and 1 (squares) or 7 = -1 (non-squares) at
odd p.  Classes at one prime then multiply mod 8 at every p, and each is
its own inverse, since every odd square is 1 mod 8.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (D, V) with D = U*a*V diagonal, d_1 | d_2 | ... >= 0, for
    unimodular U and V.

    Only V is built: no caller reads U, which only the test oracle
    tests/smith_oracle.py builds.  Each pivot is the smallest
    nonzero |entry| of the trailing block, the first in row-major order,
    so the output is deterministic.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    d = [row[:] for row in a]
    v = mat_identity(c)
    t = 0
    # Rows and columns before t are zero off the diagonal, so every step
    # on pivot t touches only the trailing block.
    while t < min(r, c):
        best = 0
        for i in range(t, r):
            row = d[i]
            for j in range(t, c):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best, pi, pj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for row in d[t:]:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        top = d[t]
        p = top[t]
        # Euclidean steps on column t, then on row t.  A column step
        # changes D only in row t and in the rows left with a remainder
        # in column t; under an exact pivot there are none.
        rest = []
        for i in range(t + 1, r):
            row = d[i]
            x = row[t]
            if x:
                q = x // p
                for j in range(t, c):
                    row[j] -= q * top[j]
                if row[t]:
                    rest.append(row)
        dirty = bool(rest)
        for j in range(t + 1, c):
            x = top[j]
            if x:
                q = x // p
                top[j] = x - q * p
                for row in rest:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if top[j]:
                    dirty = True
        if dirty:
            continue
        if best != 1:
            # Make the pivot divide the rest of the block: add the first
            # row holding a non-multiple to row t and pivot again.
            offender = next((row for row in d[t + 1:]
                             if any(x % p for x in row[t + 1:])), None)
            if offender is not None:
                for j in range(t + 1, c):
                    top[j] += offender[j]
                continue
        if p < 0:
            top[t] = -p
        t += 1
    return d, v


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style HNF: positive pivots, entries above a pivot reduced into
    [0, pivot); zero rows removed. The integer row span is preserved."""
    rows = [row[:] for row in a]
    if not rows:
        return []
    ncols = len(rows[0])
    pr = 0
    for col in range(ncols):
        while True:
            best = None
            for i in range(pr, len(rows)):
                x = rows[i][col]
                if x != 0 and (best is None or abs(x) < abs(rows[best][col])):
                    best = i
            if best is None:
                break
            rows[pr], rows[best] = rows[best], rows[pr]
            done = True
            for i in range(pr + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[pr][col]
                    for j in range(ncols):
                        rows[i][j] -= q * rows[pr][j]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if best is None:
            continue
        if rows[pr][col] < 0:
            rows[pr] = [-x for x in rows[pr]]
        p = rows[pr][col]
        for i in range(pr):
            q = rows[i][col] // p
            if q:
                for j in range(ncols):
                    rows[i][j] -= q * rows[pr][j]
        pr += 1
    return [row for row in rows[:pr]]


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division up to
    the square root of what is left; [] for n in {-1, 0, 1}."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def legendre_symbol(u: int, p: int) -> int:
    """(u/p) for an odd prime p and u coprime to p."""
    if p % 2 == 0 or p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    if u % p == 0:
        raise ValueError(f"{u} is divisible by {p}")
    r = pow(u, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(f"{p} is not prime")


def square_class(u: int, p: int) -> int:
    """Class of the unit u in Z_p^x / (Z_p^x)^2 as a residue mod 8: u mod 8
    at p = 2, and at odd p the Legendre symbol mod 8 (1 for a square, 7
    for a non-square)."""
    if u % p == 0:
        raise ValueError(f"{u} is not a unit at {p}")
    if p == 2:
        return u % 8
    return legendre_symbol(u, p) % 8


def _scaled_inverse(a: IntMatrix) -> tuple[IntMatrix, int]:
    """(d * a^-1, d) for a nonsingular square integer matrix, where
    d = det(a), by fraction-free (Bareiss) Gauss-Jordan elimination
    of [a | I].

    Each row swap also negates the row moved down, so no step changes
    the determinant.  After the step on column k every entry of the
    working matrix is then a (k+1)-minor of [a | I] up to sign, so each
    division by the previous pivot is exact, and the left block ends as
    d * I.  Raises ValueError when a is singular.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != k:
            m[k], m[piv] = m[piv], [-x for x in m[k]]
        rk = m[k]
        p = rk[k]
        for i in range(n):
            if i == k:
                continue
            ri = m[i]
            f = ri[k]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
            elif p != prev:
                m[i] = [p * x // prev for x in ri]
        prev = p
    return [row[n:] for row in m], prev


def int_det(a: IntMatrix) -> int:
    """Determinant of a square integer matrix; 1 for the empty one."""
    try:
        return _scaled_inverse(a)[1]
    except ValueError:
        return 0


def int_rank(a: IntMatrix) -> int:
    """Rank over Q of an integer matrix: the number of rows of its
    Hermite normal form."""
    return len(hermite_normal_form(a))


def int_inverse(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, again with integer entries."""
    inv, d = _scaled_inverse(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return inv if d == 1 else [[-x for x in row] for row in inv]


def rat_inverse(a: IntMatrix) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular integer matrix."""
    inv, d = _scaled_inverse(a)
    return [[Fraction(x, d) for x in row] for row in inv]
