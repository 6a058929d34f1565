"""Automorphisms of a finite group built from images of one generating pair.

A candidate map (x, y) -> (x', y') is grown over the Cayley graph of the
pair and accepted only if every edge of the graph maps consistently and the
result is a bijection.  An automorphism is its image list: images[e] is the
id of the image of element e.  Outer representatives are found by
attempting the extension onto one representative of every pair class; the
number of successes is exactly the order of the outer automorphism group,
since inner automorphisms are what pair classes already quotient by.
"""

from __future__ import annotations

from .pairs import PcSet
from .permcore import ConjugacyClassTable, ElementTable


def extend_pair_map(
    table: ElementTable,
    cols: tuple[list[int], list[int]],
    target_cols: tuple[list[int], list[int]],
) -> list[int] | None:
    """Extend x -> x', y -> y' to an automorphism's image list, or return None.

    cols are the right columns of x and y, target_cols those of x' and y'.
    The pair (x, y) must generate the group; ValueError otherwise.
    """
    (col_x, col_y), (col_x2, col_y2) = cols, target_cols
    n = table.order
    images = [-1] * n
    images[0] = 0
    queue = [0]
    for e in queue:
        fe = images[e]
        for col, col2 in ((col_x, col_x2), (col_y, col_y2)):
            tgt = col[e]
            want = col2[fe]
            if images[tgt] == -1:
                images[tgt] = want
                queue.append(tgt)
            elif images[tgt] != want:
                return None
    if len(queue) != n:
        raise ValueError("input pair does not generate the group")
    if len(set(images)) != n:
        return None
    return images


def _pair_stats(table: ElementTable, classes: ConjugacyClassTable, g: int, h: int) -> tuple:
    """Class invariants of gh, gh^-1 and [g, h], kept by any automorphism."""
    gh = table.mul(g, h)
    h_inv = table.inverse_id(h)
    gh_inv = table.mul(g, h_inv)
    comm = table.mul(table.mul(table.inverse_id(g), h_inv), gh)
    orders, class_of = classes.class_orders, classes.class_of
    return (orders[class_of[gh]], classes.sizes[class_of[gh]],
            orders[class_of[gh_inv]], orders[class_of[comm]])


def out_representatives(classes: ConjugacyClassTable, pcset: PcSet) -> list[list[int]]:
    """Attempt extension of the base pair onto every pair-class representative.

    Successes correspond one to one with outer automorphism classes; the
    base class itself yields the identity map and is listed first.  A rep
    is tried only if its members' class orders and sizes, then its
    `_pair_stats`, match the base pair's: an automorphism keeps all of them.
    The base pair's right columns are built once and serve the base class.
    """
    table = pcset.table
    orders, sizes, class_of = classes.class_orders, classes.sizes, classes.class_of

    def shape(g: int, h: int) -> tuple:
        cg, ch = class_of[g], class_of[h]
        return orders[cg], sizes[cg], orders[ch], sizes[ch]

    base = pcset.reps[0]
    base_shape, base_stats = shape(*base), _pair_stats(table, classes, *base)
    base_cols = table.right_column(base[0]), table.right_column(base[1])
    maps = [extend_pair_map(table, base_cols, base_cols)]
    for g, h in pcset.reps[1:]:
        if shape(g, h) != base_shape or _pair_stats(table, classes, g, h) != base_stats:
            continue
        cols = table.right_column(g), table.right_column(h)
        m = extend_pair_map(table, base_cols, cols)
        if m is not None:
            maps.append(m)
    if maps[0] != list(range(table.order)):
        raise RuntimeError("identity extension missing; pair-class reps corrupt")
    return maps
