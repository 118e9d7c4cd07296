"""Exact integer and rational linear algebra shared by all other modules.

Matrices are dense lists of rows of Python ints (arbitrary precision);
the rows may be tuples, since each function copies them with list().
One fraction-free elimination, _scaled_inverse, gives the determinant,
both inverses and the adjugate that lattice_ops.overlattice reads; rank
is read off the Hermite normal form.  One Smith elimination, _smith,
builds D and, as its caller asks, the right transform V, its inverse
V^-1, both or neither: smith_normal_form returns D and V, and
fqf.subquotient reads V^-1 from it rather than invert V.  The left
transform U lives only in the test oracle tests/smith_oracle.py.  No
package code calls int_inverse or rat_inverse; the output of rat_inverse
is the only Fraction in the package.  Both stay because the benchmark
names them as per-layer metrics.  No floating point anywhere.

A square class of Z_p^x / (Z_p^x)^2 is a plain int, a residue mod 8: the
unit itself mod 8 at p = 2, and 1 (squares) or 7 = -1 (non-squares) at
odd p.  Classes at one prime then multiply mod 8 at every p, and each is
its own inverse, since every odd square is 1 mod 8.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

IntMatrix = list[list[int]]


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (D, V) with D = U*a*V diagonal, d_1 | d_2 | ... >= 0, for
    unimodular U and V.

    Only V is built: no caller reads U, which only the test oracle
    tests/smith_oracle.py builds, and V^-1 is left to the callers of
    _smith that read it.  Each pivot is the smallest
    nonzero |entry| of the trailing block, the first in row-major order,
    so the output is deterministic.
    """
    d, v, _ = _smith(a)
    return d, v


def _smith(a: IntMatrix, right: bool = True, inverse: bool = False
           ) -> tuple[IntMatrix, IntMatrix | None, IntMatrix | None]:
    """The elimination of smith_normal_form: (D, V, V^-1), with V only
    when right is set and V^-1 only when inverse is set, None otherwise.

    Each step on V is a column step, V -> V E, so V^-1 -> E^-1 V^-1 takes
    the inverse row step: a swap of columns t and j of V swaps rows t and
    j of V^-1, and column j -= q column t makes row t += q row j.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    d = [list(row) for row in a]
    v = mat_identity(c) if right else None
    vinv = mat_identity(c) if inverse else None
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
            if v is not None:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            if vinv is not None:
                vinv[t], vinv[pj] = vinv[pj], vinv[t]
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
                if v is not None:
                    for row in v:
                        row[j] -= q * row[t]
                if vinv is not None:
                    vinv[t] = [y + q * z for y, z in zip(vinv[t], vinv[j])]
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
    return d, v, vinv


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style HNF: positive pivots, entries above a pivot reduced into
    [0, pivot); zero rows removed. The integer row span is preserved."""
    rows = [list(row) for row in a]
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


#: Trial division runs over 2 and the odd d <= _TRIAL_BOUND; a cofactor
#: below _TRIAL_BOUND**2 with no such factor is prime.  Every order the
#: classifier meets has all its primes below the bound.
_TRIAL_BOUND = 1000
_TRIAL_DIVISORS = (2, *range(3, _TRIAL_BOUND + 1, 2))

#: Miller-Rabin with the first 13 primes as bases is exact below this
#: bound, the least strong pseudoprime to all of them (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
#: (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; [] for n in {-1, 0, 1}.

    Trial division by 2 and the odd d <= _TRIAL_BOUND, stopping once
    d * d exceeds what is left.  A cofactor of at least _TRIAL_BOUND**2
    left over has only primes above the bound: it is tested by
    Miller-Rabin and split by Pollard's rho (Brent's variant).  For
    cofactors below _MR_LIMIT (about 3.3e24) the test is exact and a
    split takes about sqrt(p) steps for the least prime p of the
    cofactor, so at most about n**(1/4), a second or so; a larger
    cofactor raises ValueError rather than guess or run for hours.
    """
    n = abs(n)
    out = []
    for d in _TRIAL_DIVISORS:
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    if n >= _TRIAL_BOUND * _TRIAL_BOUND:
        if n >= _MR_LIMIT:
            raise ValueError(f"cannot factor {n} exactly: it has no "
                             f"prime factor below {_TRIAL_BOUND} and is "
                             f"not below {_MR_LIMIT}")
        return out + sorted(_large_prime_factors(n))
    if n > 1:
        out.append(n)
    return out


def _large_prime_factors(n: int) -> set[int]:
    """The distinct primes of n > 1, which has no prime below
    _TRIAL_BOUND."""
    if _is_prime(n):
        return {n}
    d = _rho_divisor(n)
    return _large_prime_factors(d) | _large_prime_factors(n // d)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES, exact for odd n > 41 below _MR_LIMIT."""
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho: x -> x^2 + c mod n, the gcd taken over batches of 128
    products, with the next c after a cycle that gives no divisor."""
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # The batch overshot: step back to the first single gcd > 1.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"no divisor of {n} found")


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
    """Inverse of a unimodular integer matrix, again with integer entries.

    Nothing in the package calls it: fqf.subquotient reads its inverse
    transforms off the Smith elimination.  It stays because
    BENCHMARK.json names it as a per-layer metric
    (exact_linalg.int_inverse.self_s); the tests still call it.
    """
    inv, d = _scaled_inverse(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return inv if d == 1 else [[-x for x in row] for row in inv]


def rat_inverse(a: IntMatrix) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular integer matrix."""
    inv, d = _scaled_inverse(a)
    return [[Fraction(x, d) for x in row] for row in inv]
