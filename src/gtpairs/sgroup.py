"""Symmetries of the pair-class set that commute with the induced actions.

The permutations of {0..ell-1} commuting with every induced permutation and
mapping each block of the (class(g), class(h)) partition onto itself form a
product of wreath factors E wr Sym(s), one per packet of equivalent orbits.
This module computes it exactly, from the columns of H, one orbit at a time.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, prod
from operator import itemgetter

from .pairs import InducedPerms
from .permcore import (
    ElementTable,
    EnumerationCapError,
    Perm,
    composer,
    is_identity,
    subgroup_table,
)
from .structure import (
    composition_factors_small,
    product_fingerprint,
    simple_factors_of_symmetric,
    wreath_fingerprint,
)

def build_haction(induced: InducedPerms) -> ElementTable:
    """The closure H of the non-identity outer, theta and delta permutations
    of the pair classes, generated in that order.  |H| is at most 6 |Out|,
    so the enumeration stops as soon as it passes that bound."""
    gens = list(induced.out_perms[1:]) + [induced.theta, induced.delta]
    try:
        return ElementTable(gens, len(induced.theta), cap=6 * len(induced.out_perms))
    except EnumerationCapError:
        message = "induced action closure exceeded six per outer class"
        raise RuntimeError(message) from None


def _columns(h: ElementTable, pts: list[int]) -> list[tuple]:
    """The columns of the points pts, read in one pass over H: the column
    of q is e(q) for every e of H, in table order."""
    return list(zip(*map(composer(tuple(pts)), h.elements)))


def _point_key(q: int, col: tuple, block_of: list[int]) -> tuple:
    """(ids of the e fixing q, block of e(q) for every e), from q's column.

    An equivariant block-respecting map between orbits keeps this key, and two
    points with equal keys are joined by such a map."""
    stab = tuple([i for i, x in enumerate(col) if x == q])
    return stab, tuple([block_of[x] for x in col])


def _equivariant_map(src: tuple, dst: tuple) -> dict[int, int]:
    """The map e(p) -> e(q) for every e of H, from the columns of p and q."""
    bij = dict(zip(src, dst))
    if tuple(map(bij.__getitem__, src)) != dst:
        raise RuntimeError("equivariant map is not well defined")
    return bij


class WreathFactor:
    """One packet: s equivalent orbits sharing the self-equivalence group E."""

    def __init__(
        self,
        points: list[int],
        e_elements: list[Perm],
        s: int,
        member_orbits: list[int],
        bijections: list[dict[int, int]],
    ) -> None:
        self.points, self.e_elements, self.s = points, e_elements, s
        self.member_orbits, self.bijections = member_orbits, bijections

    def __eq__(self, other: object) -> bool:
        return type(other) is WreathFactor and vars(self) == vars(other)

    @property
    def e_order(self) -> int:
        return len(self.e_elements)


class PacketDecomposition(namedtuple("PacketDecomposition", "orbits factors")):
    """H's orbits as sorted point lists, ascending by base (first point), and
    the packets (WreathFactor) they fall into."""

    __slots__ = ()


def packet_decomposition(h: ElementTable, block_of: list[int]) -> PacketDecomposition:
    """H's orbits, grouped into packets of equivalent orbits, and each E.

    Each orbit's columns are read in one pass.  An orbit's key is the least
    point key over its points, so two orbits are equivalent exactly when
    their keys are equal.  Members' bijections start from the column of the
    representative's base, which the packet keeps with the base's key.
    """
    orbits: list[list[int]] = []
    packets: dict[tuple, tuple[WreathFactor, tuple, tuple]] = {}
    seen = [False] * h.degree
    for p in range(h.degree):
        if seen[p]:
            continue
        # p is the least point of its orbit, so pts[0] == p below
        base_col = tuple(map(itemgetter(p), h.elements))
        pts = sorted(set(base_col))
        if len(pts) * base_col.count(p) != h.order:
            raise RuntimeError("orbit size times stabilizer size is not the group size")
        for q in pts:
            seen[q] = True
        cols = _columns(h, pts)
        keys = [_point_key(q, col, block_of) for q, col in zip(pts, cols)]
        key = min(keys)
        orbits.append(pts)
        if key not in packets:
            pos = {q: i for i, q in enumerate(pts)}
            maps = [_equivariant_map(base_col, c) for c, k in zip(cols, keys) if k == keys[0]]
            e_elements = [tuple(pos[bij[x]] for x in pts) for bij in maps]
            f = WreathFactor(pts, e_elements, 1, [len(orbits) - 1], [{q: q for q in pts}])
            packets[key] = f, base_col, keys[0]
            continue
        f, rep_col, rep_key = packets[key]
        col = next(c for c, k in zip(cols, keys) if k == rep_key)
        f.s += 1
        f.member_orbits.append(len(orbits) - 1)
        f.bijections.append(_equivariant_map(rep_col, col))
    return PacketDecomposition(orbits, [f for f, _, _ in packets.values()])


def check_s_generators(
    decomp: PacketDecomposition, h: ElementTable, block_of: list[int]
) -> None:
    """Self-check of S's generators: E on one orbit plus member swaps.

    Each generator is written on a support P, the representative orbit for
    E or the two member orbits for a swap.  P is a union of H-orbits, so a
    generator that fixes every point outside P commutes with H and keeps
    the blocks exactly when it does so on P; it is checked there only.
    """
    emitted: list[tuple[dict[int, int], list[int]]] = []
    for f in decomp.factors:
        for loc in f.e_elements:
            if not is_identity(loc):
                moves = {p: f.points[loc[i]] for i, p in enumerate(f.points)}
                emitted.append((moves, f.points))
        for i in range(1, f.s):
            prev, cur = f.bijections[i - 1], f.bijections[i]
            moves = {}
            for p in f.points:
                moves[prev[p]] = cur[p]
                moves[cur[p]] = prev[p]
            members = (decomp.orbits[f.member_orbits[j]] for j in (i - 1, i))
            emitted.append((moves, [p for o in members for p in o]))
    for moves, support in emitted:
        if moves.keys() != set(support):
            raise RuntimeError("S generator moves a point outside its orbits")
        if any(block_of[moves[p]] != block_of[p] for p in support):
            raise RuntimeError("S generator moves a point across blocks")
        for hp in h.generators:
            if any(moves[hp[p]] != hp[moves[p]] for p in support):
                raise RuntimeError("S generator fails to commute")


SgReport = namedtuple("SgReport", "order simple_factors packets fingerprint num_orbits")


def sg_report(
    decomp: PacketDecomposition, h: ElementTable, block_of: list[int]
) -> SgReport:
    """Order, composition factors and packets of S = prod E wr Sym(s).

    The fingerprint counts S's direct factors as C2, D8 or `other`, read
    exactly from each distinct (E, s) and summed over the packets.  It is
    built only when |S| is a power of 2, the only case in which S can be
    C2^a x D8^b.
    """
    order = prod(f.e_order**f.s * factorial(f.s) for f in decomp.factors)
    simple: list[tuple[int, str]] = []
    packets = []
    # packets often share one E: each distinct set of permutations is
    # analysed once, since only its isomorphism invariants are read
    e_keys = [frozenset(f.e_elements) for f in decomp.factors]
    e_tables: dict[frozenset, ElementTable] = {}
    for f, key in zip(decomp.factors, e_keys):
        if key not in e_tables:
            e_tables[key] = subgroup_table(f.e_elements, len(f.points))
        if e_tables[key].order != f.e_order:
            raise RuntimeError("self-equivalence set is not closed")
    e_factors = {key: composition_factors_small(e) for key, e in e_tables.items()}
    for f, key in zip(decomp.factors, e_keys):
        simple += e_factors[key] * f.s
        simple += simple_factors_of_symmetric(f.s)
        packets.append({"e_order": f.e_order, "s": f.s})
    simple.sort()
    if prod(n for n, _ in simple) != order:
        raise RuntimeError("simple factor orders do not multiply to the order")
    fingerprint = None
    if order & (order - 1) == 0:
        wreaths = {}
        for f, key in zip(decomp.factors, e_keys):
            if (key, f.s) not in wreaths:
                wreaths[key, f.s] = wreath_fingerprint(e_tables[key], f.s)
        fingerprint = product_fingerprint(
            [wreaths[key, f.s] for f, key in zip(decomp.factors, e_keys)]
        )
        a, b = fingerprint["C2"], fingerprint["D8"]
        if not fingerprint["other"] and 2 ** (a + 3 * b) != order:
            raise RuntimeError("fingerprint order disagrees with the order")
    check_s_generators(decomp, h, block_of)
    return SgReport(
        order=order,
        simple_factors=[name for _, name in simple],
        packets=packets,
        fingerprint=fingerprint,
        num_orbits=len(decomp.orbits),
    )
