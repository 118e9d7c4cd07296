"""An independent model of the stable symmetries of the discriminant
forms of root lattices, for the tests.

Each component's symmetries are generated by integer matrices acting on
the coefficients of the standard generators of its closed form (row i
is the image of generator i, mod the generator orders); the symmetries
of a type are their products with the permutations of equal
components, whose generator blocks sit side by side in the direct-sum
form of ade_types.disc_form_closed.
"""

from itertools import product

from k3ade.ade_types import _component_form

ALL_COMPONENTS = ([("A", n) for n in range(1, 19)]
                  + [("D", n) for n in range(4, 19)]
                  + [("E", 6), ("E", 7), ("E", 8)])


def component_gamma(comp):
    """Generator matrices of the stable symmetries of one component."""
    kind, n = comp
    if kind == "A":
        return () if n == 1 else (((n,),),)  # x -> -x mod n + 1
    if kind == "D":
        if n == 4:
            # The two generators realize the full permutation group of
            # the three nonzero classes.
            return (((0, 1), (1, 0)), ((0, 1), (1, 1)))
        if n % 2 == 0:
            return (((1, 1), (0, 1)),)  # g1 -> g1 + g2, g2 fixed
        return (((3,),),)  # x -> -x mod 4
    if n == 6:
        return (((2,),),)  # x -> -x mod 3
    return ()  # E7, E8


def act(mat, x, orders):
    """Image of the element with coefficients x under the matrix."""
    return tuple(sum(x[i] * mat[i][j] for i in range(len(x))) % d
                 for j, d in enumerate(orders))


def pieces(comp):
    """The classes of one component in odometer order; a class's index
    is its code."""
    return list(product(*(range(d) for d in _component_form(comp).orders)))


def generated_group(comp, mats=None):
    """The group generated by the matrices (by default those of
    component_gamma(comp)), closed by brute force, each element as the
    tuple of images of pieces(comp)."""
    orders = _component_form(comp).orders
    if mats is None:
        mats = component_gamma(comp)
    group = {tuple(pieces(comp))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for mat in mats:
            h = tuple(act(mat, y, orders) for y in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def layout(sigma):
    """(component, offset, count) for each component of sigma: its
    generators are count consecutive generators of the direct-sum form,
    from the offset on."""
    out, pos = [], 0
    for comp in sigma.components:
        count = len(_component_form(comp).orders)
        out.append((comp, pos, count))
        pos += count
    return out


def blocks(sigma):
    """(first, count) for each run of equal components of sigma."""
    out, start = [], 0
    for _, count in sigma.runs():
        out.append((start, count))
        start += count
    return out
