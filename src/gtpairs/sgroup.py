"""Symmetries of the pair-class set that commute with the induced actions.

The permutations of {0..ell-1} commuting with every induced permutation and
mapping each block of the (class(g), class(h)) partition onto itself form a
product of wreath factors E wr Sym(s), one per packet of equivalent orbits.
This module computes that decomposition exactly.
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
    orbit,
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


@dataclass
class HOrbit:
    points: list[int]
    base: int
    stabilizer: frozenset[int]


def h_orbits(h: ElementTable) -> list[HOrbit]:
    """Orbits on {0..ell-1} in ascending base order, with exact stabilizers."""
    seen = [False] * h.degree
    out = []
    for p in range(h.degree):
        if seen[p]:
            continue
        pts = sorted(orbit(h.generators, p))
        for q in pts:
            seen[q] = True
        stab = frozenset(i for i, e in enumerate(h.elements) if e[p] == p)
        if len(pts) * len(stab) != h.order:
            raise RuntimeError("orbit size times stabilizer size is not the group size")
        out.append(HOrbit(pts, p, stab))
    return out


def _equivariant_map(h: ElementTable, o1: HOrbit, q: int) -> dict[int, int]:
    """The map sending e(base of o1) to e(q) for every e in the closure."""
    bij: dict[int, int] = {}
    for e in h.elements:
        src, dst = e[o1.base], e[q]
        prior = bij.get(src)
        if prior is None:
            bij[src] = dst
        elif prior != dst:
            raise RuntimeError("equivariant map is not well defined")
    return bij


def _point_key(h: ElementTable, q: int, block_of: list[int]) -> tuple:
    """(stabilizer ids of q, block of e(q) for every e in table order).

    An equivariant block-respecting map between orbits keeps this key, and two
    points with equal keys are joined by such a map."""
    stab = tuple(i for i, e in enumerate(h.elements) if e[q] == q)
    return stab, tuple(block_of[e[q]] for e in h.elements)


def _self_maps(h: ElementTable, o: HOrbit, targets: list[int]) -> list[Perm]:
    """The equivariant maps sending the base to each target, as local perms."""
    pos = {p: i for i, p in enumerate(o.points)}
    out = []
    for q in targets:
        bij = _equivariant_map(h, o, q)
        out.append(tuple(pos[bij[p]] for p in o.points))
    return out


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
    orbits: list[HOrbit]
    factors: list[WreathFactor]


def packet_decomposition(h: ElementTable, block_of: list[int]) -> PacketDecomposition:
    """Group the orbits into packets of equivalent orbits and compute each E.

    An orbit's key is the least point key over its points, so two orbits are
    equivalent exactly when their keys are equal.
    """
    orbits = h_orbits(h)
    packets: dict[tuple, WreathFactor] = {}
    for idx, o in enumerate(orbits):
        keys = {q: _point_key(h, q, block_of) for q in o.points}
        key = min(keys.values())
        f = packets.get(key)
        if f is None:
            targets = [q for q in o.points if keys[q] == keys[o.base]]
            ident = {p: p for p in o.points}
            packets[key] = WreathFactor(
                o.points, _self_maps(h, o, targets), 1, [idx], [ident]
            )
            continue
        rep = orbits[f.member_orbits[0]]
        # recomputed, not stored, so that only one key per packet is held
        rep_key = _point_key(h, rep.base, block_of)
        q = next(q for q in o.points if keys[q] == rep_key)
        f.s += 1
        f.member_orbits.append(idx)
        f.bijections.append(_equivariant_map(h, rep, q))
    return PacketDecomposition(orbits, list(packets.values()))


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
            emitted.append((moves, [p for o in members for p in o.points]))
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
        packets.append(
            {"e_order": f.e_order, "s": f.s, "orbit_size": len(f.points)}
        )
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
