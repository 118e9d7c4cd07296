"""Fraction views of finite quadratic forms, for the tests.

The package stores a form only as scaled integers (see k3ade.fqf).  The
tests state many expected values as fractions, so this module turns
fractions into a form and a form's values back into fractions: q in
[0, 2) and b in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from k3ade.fqf import FiniteQuadraticForm, _b_scaled, _q_scaled, _reduce


def _scale(x: Fraction | int, e: int) -> int:
    """The rational value x as an integer at exponent e, i.e. x * e."""
    v = Fraction(x) * e
    if v.denominator != 1:
        raise ValueError("value denominators must divide the exponent")
    return v.numerator


def form_from_fractions(orders: Sequence[int],
                        qdiag: Sequence[Fraction | int],
                        bmat: Sequence[Sequence[Fraction | int]]
                        ) -> FiniteQuadraticForm:
    """The form with q(gamma_i) = qdiag[i] and b(gamma_i, gamma_j) =
    bmat[i][j], values taken as given: unreduced ones are refused by the
    constructor's checks."""
    e = lcm(*orders)
    return FiniteQuadraticForm(
        orders, [_scale(q, e) for q in qdiag],
        [[_scale(b, e) for b in row] for row in bmat])


def make_form(orders: Sequence[int],
              qdiag: Sequence[Fraction | int],
              bmat: Sequence[Sequence[Fraction | int]]) -> FiniteQuadraticForm:
    """Build a form from raw values, reducing q mod 2Z and b mod Z.

    Generators of order one are dropped from the presentation.
    """
    keep = [i for i, d in enumerate(orders) if d > 1]
    return form_from_fractions(
        [orders[i] for i in keep],
        [Fraction(qdiag[i]) % 2 for i in keep],
        [[Fraction(bmat[i][j]) % 1 for j in keep] for i in keep])


def qdiag(form: FiniteQuadraticForm) -> tuple[Fraction, ...]:
    """q(gamma_i) for each generator."""
    return tuple(Fraction(q, form.exp) for q in form.qs)


def bmat(form: FiniteQuadraticForm) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix of b(gamma_i, gamma_j)."""
    return tuple(tuple(Fraction(b, form.exp) for b in row)
                 for row in form.bs)


def eval_q(form: FiniteQuadraticForm, x: Sequence[int]) -> Fraction:
    """q(x) in Q/2Z, returned reduced into [0, 2)."""
    return Fraction(_q_scaled(form, _reduce(form, x)), form.exp)


def eval_b(form: FiniteQuadraticForm, x: Sequence[int],
           y: Sequence[int]) -> Fraction:
    """b(x, y) in Q/Z, returned reduced into [0, 1)."""
    return Fraction(_b_scaled(form, _reduce(form, x), _reduce(form, y)),
                    form.exp)
