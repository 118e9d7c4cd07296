"""Backend dispatch for the classifier's hot scan loops.

The scans read the scaled integer values that FiniteQuadraticForm
stores: with E = lcm(orders), form.qs[i] = q(g_i) * E mod 2E and
form.bs[i][j] = b(g_i, g_j) * E mod E, so isotropy and orthogonality
tests are pure integer arithmetic.  A compiled extension (_core)
provides fast versions of the scans; the pure-Python module (_purecore)
is the always-available fallback.  Set K3ADE_PURE=1 to force the
fallback.
"""

from __future__ import annotations

import os

from .fqf import FiniteQuadraticForm, FqfElement

if os.environ.get("K3ADE_PURE"):
    from . import _purecore as _impl
    _BACKEND = "pure"
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]
        _BACKEND = "compiled"
    except ImportError:
        from . import _purecore as _impl
        _BACKEND = "pure"


def backend() -> str:
    """Name of the active backend: "compiled" or "pure"."""
    return _BACKEND


def isotropic_list(form: FiniteQuadraticForm) -> list[FqfElement]:
    """All elements x with q(x) = 0 in Q/2Z, in odometer order."""
    return _impl.iso_scan(list(form.orders), list(form.qs),
                          [list(row) for row in form.bs], 2 * form.exp)


def orthogonal_filter(form: FiniteQuadraticForm,
                      pool: list[FqfElement],
                      v: FqfElement) -> list[FqfElement]:
    """The elements w of the pool with b(v, w) = 0 in Q/Z."""
    e, bs = form.exp, form.bs
    n = len(form.orders)
    bv = [sum(v[i] * bs[i][j] for i in range(n)) % e for j in range(n)]
    return _impl.orth_scan(pool, bv, e)
