"""ADE root types and their combinatorics.

An ADE type is a finite multiset of simple root lattice components
``A_l`` (l >= 1), ``D_m`` (m >= 4) and ``E_n`` (n in {6, 7, 8}).  This
module provides the type grammar (rank and Euler number are properties
of ADEType), positive definite Cartan matrices, the closed-form
discriminant quadratic form of each type, the stable symmetries of
each component's form as permutations of its classes, and the one-step
specialization relation (with optional torsion restrictions) together
with its downward closure.  The stable symmetries of a type are the
products of its components' symmetries with the permutations of equal
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import prod
from typing import Iterable

from .fqf import FiniteQuadraticForm, TRIVIAL_FORM, direct_sum

Component = tuple[str, int]
IntMatrix = list[list[int]]

_LETTER_RANK = {"A": 1, "D": 2, "E": 3}

#: Rulesets accepted by restricted_children and closure.  "trivial"
#: allows every substitution; the bracketed names restrict to the
#: substitutions compatible with a torsion subgroup of that shape.
RULESETS = ("trivial", "[2]", "[3]", "[4]", "[2,2]")


def _check_component(comp: Component) -> Component:
    if not (isinstance(comp, tuple) and len(comp) == 2):
        raise ValueError(f"component must be a (letter, index) pair: {comp!r}")
    kind, n = comp
    if kind == "A":
        if n < 1:
            raise ValueError(f"A index must be at least 1: {comp!r}")
    elif kind == "D":
        if n < 4:
            raise ValueError(f"D index must be at least 4: {comp!r}")
    elif kind == "E":
        if n not in (6, 7, 8):
            raise ValueError(f"E index must be 6, 7 or 8: {comp!r}")
    else:
        raise ValueError(f"component letter must be A, D or E: {comp!r}")
    return (kind, int(n))


def _comp_key(comp: Component) -> tuple[int, int]:
    return (_LETTER_RANK[comp[0]], comp[1])


@dataclass(frozen=True)
class ADEType:
    """A multiset of ADE components in canonical descending order.

    Components are stored sorted by (letter, index) with E before D
    before A and higher indices first, so equal multisets compare
    equal.  The empty type is representable (for internal use) but is
    excluded from all enumeration, child and closure outputs.
    """

    components: tuple[Component, ...]

    def __post_init__(self):
        comps = tuple(sorted((_check_component(c) for c in self.components),
                             key=_comp_key, reverse=True))
        object.__setattr__(self, "components", comps)

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    @property
    def euler(self) -> int:
        return sum(map(_component_euler, self.components))

    def runs(self) -> tuple[tuple[Component, int], ...]:
        """Distinct components with multiplicities, in canonical order."""
        out: list[tuple[Component, int]] = []
        for comp in self.components:
            if out and out[-1][0] == comp:
                out[-1] = (comp, out[-1][1] + 1)
            else:
                out.append((comp, 1))
        return tuple(out)

    def sort_key(self) -> tuple:
        """Reference-table order: rank, then descending lexicographic
        on the canonical component list."""
        return (self.rank,
                tuple((-lr, -n) for lr, n in map(_comp_key, self.components)))

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for (kind, n), count in self.runs():
            prefix = str(count) if count > 1 else ""
            parts.append(f"{prefix}{kind}{n}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"ADEType({str(self)!r})"


EMPTY_TYPE = ADEType(())


def parse_type(text: str) -> ADEType:
    """Parse a type string such as ``2E8+A2`` or ``a2 + 2 e8``.

    Component order and whitespace are arbitrary; ``0`` denotes the
    empty type.
    """
    compact = "".join(text.split())
    if compact == "0":
        return EMPTY_TYPE
    if not compact:
        raise ValueError("empty type string")
    comps: list[Component] = []
    for token in compact.split("+"):
        head = 0
        while head < len(token) and token[head].isdigit():
            head += 1
        count = int(token[:head]) if head else 1
        body = token[head:]
        if count < 1 or not body or not body[1:].isdigit():
            raise ValueError(f"bad component token: {token!r}")
        comp = _check_component((body[0].upper(), int(body[1:])))
        comps.extend([comp] * count)
    return ADEType(tuple(comps))


def enumerate_candidates(max_rank: int = 18,
                         max_euler: int | None = 24) -> list[ADEType]:
    """All nonempty types with rank <= max_rank and Euler number <=
    max_euler, sorted in reference-table order.  max_euler=None drops
    the Euler bound (every type satisfies euler <= 3 * rank)."""
    if max_euler is None:
        max_euler = 3 * max_rank
    pool: list[Component] = []
    for n in range(min(max_rank, 8), 5, -1):
        pool.append(("E", n))
    for n in range(max_rank, 3, -1):
        pool.append(("D", n))
    for n in range(max_rank, 0, -1):
        pool.append(("A", n))
    pool = [c for c in pool
            if _component_euler(c) <= max_euler]
    pool.sort(key=_comp_key, reverse=True)

    results: list[ADEType] = []
    chosen: list[Component] = []

    def extend(start: int, rank_left: int, euler_left: int) -> None:
        for i in range(start, len(pool)):
            comp = pool[i]
            r, e = comp[1], _component_euler(comp)
            if r > rank_left or e > euler_left:
                continue
            chosen.append(comp)
            results.append(ADEType(tuple(chosen)))
            extend(i, rank_left - r, euler_left - e)
            chosen.pop()

    extend(0, max_rank, max_euler)
    results.sort(key=ADEType.sort_key)
    return results


def _component_euler(comp: Component) -> int:
    kind, n = comp
    return n + 1 if kind == "A" else n + 2


# ---------------------------------------------------------------------------
# Cartan matrices and discriminant forms

@lru_cache(maxsize=None)
def _component_gram(comp: Component) -> tuple[tuple[int, ...], ...]:
    kind, n = _check_component(comp)
    gram = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i: int, j: int) -> None:
        gram[i - 1][j - 1] = gram[j - 1][i - 1] = 1

    if kind == "A":
        for i in range(1, n):
            edge(i, i + 1)
    elif kind == "D":
        # Vertex 1 hangs off vertex 3 of the chain 2-3-4-...-m.
        edge(1, 3)
        for i in range(2, n):
            edge(i, i + 1)
    else:
        # Vertex 1 hangs off vertex 4 of the chain 2-3-4-...-n.
        edge(1, 4)
        for i in range(2, n):
            edge(i, i + 1)
    return tuple(tuple(row) for row in gram)


def cartan_gram(sigma: ADEType) -> IntMatrix:
    """Positive definite Gram matrix of the root lattice of sigma.

    Blocks follow the canonical component order; inside a component
    the diagonal is 2 and adjacent vertices pair to 1.
    """
    total = sigma.rank
    gram = [[0] * total for _ in range(total)]
    base = 0
    for comp in sigma.components:
        block = _component_gram(comp)
        n = comp[1]
        for i in range(n):
            for j in range(n):
                gram[base + i][base + j] = block[i][j]
        base += n
    return gram


@lru_cache(maxsize=None)
def _component_form(comp: Component) -> FiniteQuadraticForm:
    """Closed-form discriminant form of one component on its standard
    generators (see _component_nodes), scaled by the exponent E:
    q = l/(l+1) for A_l; q = n/4 and 1 pairing to 1/2 for D_n, n even;
    q = n/4 for D_n, n odd; q = 4/3 for E6 and 3/2 for E7."""
    kind, n = _check_component(comp)
    if kind == "A":
        return FiniteQuadraticForm((n + 1,), (n,), ((n,),))
    if kind == "D":
        if n % 2 == 0:
            return FiniteQuadraticForm((2, 2), (n // 2 % 4, 2),
                                       ((n // 2 % 2, 1), (1, 0)))
        return FiniteQuadraticForm((4,), (n % 8,), ((n % 4,),))
    if n == 6:
        return FiniteQuadraticForm((3,), (4,), ((1,),))
    if n == 7:
        return FiniteQuadraticForm((2,), (3,), ((1,),))
    return TRIVIAL_FORM


def _component_nodes(comp: Component) -> tuple[int, ...]:
    """The vertices, numbered from 1, whose dual basis vectors lift the
    standard generators of _component_form: l for A_l, 1 and m for D_m
    (only 1 when m is odd, where it already generates the cyclic group),
    the last chain vertex for E_6 and E_7, none for E_8.
    """
    kind, n = comp
    if kind == "D":
        return (1, n) if n % 2 == 0 else (1,)
    return (n,) if kind == "A" or n < 8 else ()


def disc_order(sigma: ADEType) -> int:
    """Order of the discriminant group of the root lattice of sigma."""
    return prod(prod(_component_form(comp).orders)
                for comp in sigma.components)


def closed_form(sigma: ADEType) -> FiniteQuadraticForm:
    """The form of disc_form_closed alone, without building any lift."""
    return direct_sum(*map(_component_form, sigma.components))


def disc_form_closed(sigma: ADEType) -> tuple[FiniteQuadraticForm, IntMatrix]:
    """Discriminant form of the root lattice from the closed tables.

    Returns the form on the standard per-component generators plus the
    generator lifts in the dual coordinates of ``cartan_gram(sigma)``
    (see fqf): the lift of a generator is the unit vector of its vertex.
    Agrees element-wise with ``discriminant_form(cartan_gram(sigma))``.
    """
    lifts = []
    base = 0
    for comp in sigma.components:
        for node in _component_nodes(comp):
            lifts.append([int(k == base + node - 1)
                          for k in range(sigma.rank)])
        base += comp[1]
    return closed_form(sigma), lifts


# ---------------------------------------------------------------------------
# Stable automorphisms of the discriminant form

@lru_cache(maxsize=None)
def _component_group(comp: Component) -> tuple[tuple[int, ...], ...]:
    """The stable symmetries of one component's discriminant form, each
    the permutation of its class codes that it induces, identity first.
    Codes number the classes of _component_form in odometer order.

    The group is +-1 on a cyclic group (A_l, D_m for odd m, E_6, E_7),
    the swap of the two spinor classes for D_m with m even and m > 4,
    and all six permutations of the nonzero classes for D_4; each is
    additive and preserves q.
    """
    kind, n = _check_component(comp)
    size = prod(_component_form(comp).orders)
    identity = tuple(range(size))
    if kind == "D" and n % 2 == 0:
        # Codes 1, 2, 3: the vector class (0, 1) and the spinor classes
        # (1, 0) and (1, 1).
        if n == 4:
            return tuple((0, *perm) for perm in permutations((1, 2, 3)))
        return (identity, (0, 1, 3, 2))
    negation = tuple(-k % size for k in identity)
    return (identity, negation) if negation != identity else (identity,)


# ---------------------------------------------------------------------------
# Specialization children and closure

def _a_multiset(*indices: int) -> tuple[Component, ...]:
    return tuple(sorted((("A", l) for l in indices if l > 0),
                        key=_comp_key, reverse=True))


def _a_pair_forbidden(ruleset: str, l: int, l1: int, l2: int) -> bool:
    if ruleset in ("[2]", "[2,2]"):
        return l % 2 == 1 and l1 % 2 == 0
    if ruleset == "[3]":
        return l % 3 == 2 and l1 % 3 != 2 and l2 % 3 != 2
    if ruleset == "[4]":
        if l == 1:
            return True
        return l % 4 == 3 and l1 % 4 != 3 and l2 % 4 != 3
    return False


def _d_forbidden(ruleset: str, m: int, family: str, mp: int = 0) -> bool:
    if ruleset in ("[2]", "[2,2]"):
        if family == "chain":
            return True
        if family == "a3":
            return m % 2 == 0
        if family == "d":
            return m % 2 == 0 and mp % 2 == 1 and mp >= 5
        return False
    if ruleset == "[4]" and m % 2 == 1:
        if family in ("chain", "fork"):
            return True
        if family == "d":
            return mp == m - 1 or (mp == m - 3 and m > 6)
        return False
    return False


def _e_forbidden_results(ruleset: str, n: int) -> frozenset:
    if ruleset == "[2]" and n == 7:
        return frozenset({(("A", 6),),
                          (("A", 4), ("A", 2)),
                          (("E", 6),)})
    if ruleset == "[3]" and n == 6:
        return frozenset({(("A", 4), ("A", 1)),
                          (("D", 5),)})
    return frozenset()


@lru_cache(maxsize=None)
def _allowed_replacements(comp: Component,
                          ruleset: str) -> tuple[tuple[Component, ...], ...]:
    """Distinct one-component replacements allowed under the ruleset."""
    kind, n = comp
    reps: set[tuple[Component, ...]] = set()
    if kind == "A":
        for l1 in range((n - 1) // 2 + 1):
            l2 = n - 1 - l1
            if not _a_pair_forbidden(ruleset, n, l1, l2):
                reps.add(_a_multiset(l1, l2))
    elif kind == "D":
        if not _d_forbidden(ruleset, n, "chain"):
            reps.add(_a_multiset(n - 1))
        if not _d_forbidden(ruleset, n, "fork"):
            reps.add(_a_multiset(1, 1, n - 3))
        if not _d_forbidden(ruleset, n, "a3"):
            reps.add(_a_multiset(3, n - 4))
        for mp in range(4, n):
            if not _d_forbidden(ruleset, n, "d", mp):
                reps.add(tuple(sorted((("D", mp),) + _a_multiset(n - 1 - mp),
                                      key=_comp_key, reverse=True)))
    else:
        results = [
            _a_multiset(n - 1),
            (("D", n - 1),),
            _a_multiset(1, n - 2),
            _a_multiset(1, 2, n - 4),
            _a_multiset(4, n - 5),
            tuple(sorted((("D", 5),) + _a_multiset(n - 6),
                         key=_comp_key, reverse=True)),
        ]
        for np in range(6, n):
            results.append(tuple(sorted((("E", np),) + _a_multiset(n - 1 - np),
                                        key=_comp_key, reverse=True)))
        forbidden = _e_forbidden_results(ruleset, n)
        reps.update(r for r in results if r not in forbidden)
    return tuple(sorted(reps))


def restricted_children(sigma: ADEType,
                        ruleset: str = "trivial") -> set[ADEType]:
    """Types obtained by one allowed substitution in one component.

    Each child has rank exactly sigma.rank - 1 and Euler number at most
    sigma.euler.  The empty type is never returned.  The default
    ruleset "trivial" gives every one-step specialization.
    """
    if ruleset not in RULESETS:
        raise ValueError(f"unknown ruleset: {ruleset!r}")
    out: set[ADEType] = set()
    comps = sigma.components
    seen_comps: set[Component] = set()
    for idx, comp in enumerate(comps):
        if comp in seen_comps:
            continue
        seen_comps.add(comp)
        rest = comps[:idx] + comps[idx + 1:]
        for rep in _allowed_replacements(comp, ruleset):
            child = rest + rep
            if child:
                out.add(ADEType(child))
    return out


def closure(seeds: Iterable[ADEType],
            ruleset: str = "trivial") -> set[ADEType]:
    """Downward closure of the seeds under allowed substitutions.

    Includes the (nonempty) seeds themselves; the empty type is
    silently dropped.
    """
    if ruleset not in RULESETS:
        raise ValueError(f"unknown ruleset: {ruleset!r}")
    seen: set[ADEType] = {s for s in seeds if not s.is_empty}
    frontier = list(seen)
    while frontier:
        sigma = frontier.pop()
        for child in restricted_children(sigma, ruleset):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen
