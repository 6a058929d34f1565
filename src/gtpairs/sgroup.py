"""Symmetries of the pair-class set that commute with the induced actions.

The permutations of {0..ell-1} commuting with every induced permutation and
mapping each block of the (class(g), class(h)) partition onto itself form a
product of wreath factors E wr Sym(s), one per packet of equivalent orbits.
This module computes it exactly, from the columns of H, one orbit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .pairs import InducedPerms
from .permcore import (
    ElementTable,
    EnumerationCapError,
    Perm,
    is_identity,
    subgroup_table,
)
from .structure import (
    GroupFingerprint,
    composition_factors_small,
    product_fingerprint,
    simple_factor_order,
    simple_factors_of_symmetric,
    sort_factor_labels,
    wreath_fingerprint,
)

def build_haction(induced: InducedPerms) -> ElementTable:
    """The closure H of the outer, theta and delta permutations of the pair
    classes, generated in that order.  |H| is at most 6 |Out|, so the
    enumeration stops as soon as it passes that bound."""
    gens = list(induced.out_perms) + [induced.theta, induced.delta]
    try:
        return ElementTable(gens, len(induced.theta), cap=6 * len(induced.out_perms))
    except EnumerationCapError:
        message = "induced action closure exceeded six per outer class"
        raise RuntimeError(message) from None


def _column(h: ElementTable, q: int) -> tuple:
    """The column of q: e(q) for every e of H, in table order."""
    return tuple([e[q] for e in h.elements])


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


@dataclass
class WreathFactor:
    """One packet: s equivalent orbits sharing the self-equivalence group E."""

    points: list[int]
    e_elements: list[Perm]
    s: int
    member_orbits: list[int]
    bijections: list[dict[int, int]]

    @property
    def e_order(self) -> int:
        return len(self.e_elements)


@dataclass
class PacketDecomposition:
    orbits: list[list[int]]  # sorted point lists, ascending by base (first point)
    factors: list[WreathFactor]


def packet_decomposition(h: ElementTable, block_of: list[int]) -> PacketDecomposition:
    """H's orbits, grouped into packets of equivalent orbits, and each E.

    Each orbit's points get their columns once.  An orbit's key is the least
    point key over its points, so two orbits are equivalent exactly when
    their keys are equal.  Members' bijections start from the column of the
    representative's base, which the packet keeps.
    """
    orbits: list[list[int]] = []
    packets: dict[tuple, tuple[WreathFactor, tuple]] = {}
    seen = [False] * h.degree
    for p in range(h.degree):
        if seen[p]:
            continue
        base_col = _column(h, p)
        pts = sorted(set(base_col))
        if len(pts) * base_col.count(p) != h.order:
            raise RuntimeError("orbit size times stabilizer size is not the group size")
        for q in pts:
            seen[q] = True
        cols = {q: base_col if q == p else _column(h, q) for q in pts}
        keys = {q: _point_key(q, cols[q], block_of) for q in pts}
        key = min(keys.values())
        orbits.append(pts)
        if key not in packets:
            pos = {q: i for i, q in enumerate(pts)}
            maps = [_equivariant_map(base_col, cols[q]) for q in pts if keys[q] == keys[p]]
            e_elements = [tuple(pos[bij[x]] for x in pts) for bij in maps]
            f = WreathFactor(pts, e_elements, 1, [len(orbits) - 1], [{q: q for q in pts}])
            packets[key] = f, base_col
            continue
        f, rep_col = packets[key]
        rep_key = _point_key(f.points[0], rep_col, block_of)
        q = next(q for q in pts if keys[q] == rep_key)
        f.s += 1
        f.member_orbits.append(len(orbits) - 1)
        f.bijections.append(_equivariant_map(rep_col, cols[q]))
    return PacketDecomposition(orbits, [f for f, _ in packets.values()])


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


@dataclass
class SgReport:
    order: int
    simple_factors: list[str]
    packets: list[dict]
    fingerprint: GroupFingerprint | None
    num_orbits: int


def sg_report(
    decomp: PacketDecomposition, h: ElementTable, block_of: list[int]
) -> SgReport:
    """Order, composition factors and packets of S = prod E wr Sym(s).

    The fingerprint is built only when |S| is a power of 2, the only case in
    which it can match C2^a x D8^b.
    """
    order = prod(f.e_order**f.s * factorial(f.s) for f in decomp.factors)
    simple: list[str] = []
    packets = []
    e_tables = [subgroup_table(f.e_elements, len(f.points)) for f in decomp.factors]
    if any(e.order != f.e_order for f, e in zip(decomp.factors, e_tables)):
        raise RuntimeError("self-equivalence set is not closed")
    for f, e_table in zip(decomp.factors, e_tables):
        simple += composition_factors_small(e_table) * f.s
        simple += simple_factors_of_symmetric(f.s)
        packets.append({"e_order": f.e_order, "s": f.s})
    simple = sort_factor_labels(simple)
    if prod(simple_factor_order(label) for label in simple) != order:
        raise RuntimeError("simple factor orders do not multiply to the order")
    fingerprint = None
    if order & (order - 1) == 0:
        fingerprint = product_fingerprint(
            [
                wreath_fingerprint(e_table, f.s)
                for f, e_table in zip(decomp.factors, e_tables)
            ]
        )
        if fingerprint.order != order:
            raise RuntimeError("fingerprint order disagrees with the order")
    check_s_generators(decomp, h, block_of)
    return SgReport(
        order=order,
        simple_factors=simple,
        packets=packets,
        fingerprint=fingerprint,
        num_orbits=len(decomp.orbits),
    )
