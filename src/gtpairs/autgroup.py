"""Automorphisms of a finite group built from images of one generating pair.

A candidate map (x, y) -> (x', y') is grown over the Cayley graph of the
pair and accepted only if every edge of the graph maps consistently and the
result is a bijection.  Outer representatives are found by attempting the
extension onto one representative of every pair class; the number of
successes is exactly the order of the outer automorphism group, since inner
automorphisms are what pair classes already quotient by.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairs import PcSet
from .permcore import ConjugacyClassTable, ElementTable


@dataclass
class AutMap:
    """A verified automorphism as a total map on element ids."""

    images: list[int]
    src_pair: tuple[int, int]
    dst_pair: tuple[int, int]

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))


def extend_pair_map(
    table: ElementTable,
    pair: tuple[int, int],
    target: tuple[int, int],
) -> AutMap | None:
    """Extend x -> x', y -> y' to an automorphism, or return None.

    The pair (x, y) must generate the group; ValueError otherwise.
    """
    x, y = pair
    x2, y2 = target
    n = table.order
    col_x = table.right_column(x)
    col_y = table.right_column(y)
    col_x2 = table.right_column(x2)
    col_y2 = table.right_column(y2)
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
    return AutMap(images, pair, target)


@dataclass
class OutReps:
    """One automorphism per outer class; entry 0 is the identity."""

    maps: list[AutMap]

    @property
    def out_order(self) -> int:
        return len(self.maps)


def _pair_stats(table: ElementTable, classes: ConjugacyClassTable, g: int, h: int) -> tuple:
    """Cheap invariants of a pair preserved by any automorphism."""
    gh = table.mul(g, h)
    h_inv = table.inverse_id(h)
    gh_inv = table.mul(g, h_inv)
    comm = table.mul(table.mul(table.inverse_id(g), h_inv), gh)
    orders, sizes, class_of = classes.class_orders, classes.sizes, classes.class_of
    out = []
    for e in (g, h, gh):
        out.append(orders[class_of[e]])
        out.append(sizes[class_of[e]])
    out.append(orders[class_of[gh_inv]])
    out.append(orders[class_of[comm]])
    return tuple(out)


def out_representatives(classes: ConjugacyClassTable, pcset: PcSet) -> OutReps:
    """Attempt extension of the base pair onto every pair-class representative.

    Successes correspond one to one with outer automorphism classes; the
    base class itself yields the identity map and is listed first.
    """
    if pcset.ell == 0:
        raise ValueError("group is not generated by any pair")
    table = pcset.table
    base = pcset.reps[0]
    base_stats = _pair_stats(table, classes, *base)
    maps: list[AutMap] = []
    for g, h in pcset.reps:
        if _pair_stats(table, classes, g, h) != base_stats:
            continue
        m = extend_pair_map(table, base, (g, h))
        if m is not None:
            maps.append(m)
    if not maps or not maps[0].is_identity():
        raise RuntimeError("identity extension missing; pair-class reps corrupt")
    return OutReps(maps)
