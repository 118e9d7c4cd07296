"""The Smith normal form with both transforms, for the tests.

smith_normal_form here builds the left transform U next to D and V, row
by row over the whole matrix, so a test can check U*a*V = D directly
and read U where it needs the generators of a cokernel.  It is the
reference for exact_linalg.smith_normal_form, which builds only D and V
under the same pivot rule; the two give the same D and V bit for bit.
"""

from k3ade.exact_linalg import IntMatrix, mat_identity


def _find_pivot(a: IntMatrix, t: int):
    """Smallest nonzero |entry| in the trailing submatrix, earliest position."""
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            x = a[i][j]
            if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(a: IntMatrix):
    """Return (U, D, V) with U*a*V = D, D diagonal, d_1 | d_2 | ... >= 0.

    U and V are unimodular. Pivot choice is the smallest nonzero absolute
    value (earliest position on ties), so the output is deterministic.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    d = [row[:] for row in a]
    u = mat_identity(r)
    v = mat_identity(c)
    t = 0
    while t < min(r, c):
        pos = _find_pivot(d, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        # clear column t and row t by Euclidean steps
        dirty = False
        for i in range(r):
            if i != t and d[i][t] != 0:
                q = d[i][t] // d[t][t]
                for j in range(c):
                    d[i][j] -= q * d[t][j]
                for j in range(r):
                    u[i][j] -= q * u[t][j]
                if d[i][t] != 0:
                    dirty = True
        for j in range(c):
            if j != t and d[t][j] != 0:
                q = d[t][j] // d[t][t]
                for i in range(r):
                    d[i][j] -= q * d[i][t]
                for i in range(c):
                    v[i][j] -= q * v[i][t]
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # column and row are clear; enforce divisibility of the rest
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(c):
                d[t][j] += d[offender][j]
            for j in range(r):
                u[t][j] += u[offender][j]
            continue
        t += 1
    for i in range(min(r, c)):
        if d[i][i] < 0:
            for j in range(c):
                d[i][j] = -d[i][j]
            for j in range(r):
                u[i][j] = -u[i][j]
    return u, d, v
