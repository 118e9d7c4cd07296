"""The classifier's scan loops over a finite quadratic form.

The scans read the scaled integer values that FiniteQuadraticForm
stores: with E = lcm(orders), form.qs[i] = q(g_i) * E mod 2E and
form.bs[i][j] = b(g_i, g_j) * E mod E, so isotropy and orthogonality
tests are pure integer arithmetic.  The isotropy scan evaluates q on
the whole group in one int64 numpy product, and the orthogonality
test of many classes against a pool is one int64 matrix product.
"""

from __future__ import annotations

import numpy as np

from .fqf import FiniteQuadraticForm, FqfElement

_INT64_MAX = int(np.iinfo(np.int64).max)


def backend() -> str:
    """Name of the scan implementation."""
    return "numpy"


def isotropic_list(form: FiniteQuadraticForm) -> list[FqfElement]:
    """All elements x with q(x) = 0 in Q/2Z, in odometer order (last
    coefficient fastest).

    With M = diag(qs) + 2 triu(bs, 1), E q(x) = x^T M x mod 2E.  Every
    entry of M and of x is nonnegative, so no partial sum of x^T M x
    exceeds its value at x_i = orders[i] - 1; the scan raises
    RuntimeError when that bound does not fit in int64.
    """
    orders = form.orders
    n = len(orders)
    if n == 0:
        return [()]
    mat = [[form.qs[i] if i == j else 2 * form.bs[i][j] if i < j else 0
            for j in range(n)] for i in range(n)]
    if sum((orders[i] - 1) * mat[i][j] * (orders[j] - 1)
           for i in range(n) for j in range(i, n)) > _INT64_MAX:
        raise RuntimeError("the isotropy scan of this form would "
                           "overflow int64")
    xs = np.indices(orders, dtype=np.int64).reshape(n, -1).T
    values = np.einsum("ki,ij,kj->k", xs, np.array(mat, dtype=np.int64), xs)
    return list(map(tuple, xs[values % (2 * form.exp) == 0].tolist()))


def orthogonal_mask(form: FiniteQuadraticForm, vs, pool) -> np.ndarray:
    """The boolean matrix of b(v, w) = 0 in Q/Z, one row per v in vs and
    one column per w in the pool; vs and pool are sequences of reduced
    elements or integer arrays of them.

    E b(v, w) = (v^T bs mod E) w mod E.  Every partial sum of either
    product stays below n E max(orders); the kernel raises RuntimeError
    when that bound does not fit in int64.
    """
    n = len(form.orders)
    if n * form.exp * max(form.orders, default=1) > _INT64_MAX:
        raise RuntimeError("the orthogonality test of this form would "
                           "overflow int64")
    bs = np.array(form.bs, dtype=np.int64).reshape(n, n)
    vs = np.asarray(vs, dtype=np.int64).reshape(len(vs), n)
    pool = np.asarray(pool, dtype=np.int64).reshape(len(pool), n)
    return (vs @ bs % form.exp @ pool.T) % form.exp == 0


def orthogonal_filter(form: FiniteQuadraticForm,
                      pool: list[FqfElement],
                      v: FqfElement) -> list[FqfElement]:
    """The elements w of the pool with b(v, w) = 0 in Q/Z, in pool
    order."""
    return [w for w, ok in zip(pool, orthogonal_mask(form, [v], pool)[0])
            if ok]
