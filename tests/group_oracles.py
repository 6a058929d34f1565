"""Test-only oracles: a direct product, a transitivity test and the
dihedral and GT1 counts, kept out of the library they check."""

from __future__ import annotations

from gtpairs.atlas import ConstructedGroup
from gtpairs.gbar import build_gbar, double_coset_survey
from gtpairs.permcore import PermGroupBSGS, orbit


def direct_product(g1: ConstructedGroup, g2: ConstructedGroup) -> ConstructedGroup:
    """Product group acting on the disjoint union of the two domains."""
    d1, d2 = g1.degree, g2.degree
    gens = [tuple(list(g) + list(range(d1, d1 + d2))) for g in g1.generators]
    gens += [tuple(list(range(d1)) + [d1 + i for i in g]) for g in g2.generators]
    order = PermGroupBSGS(gens, d1 + d2).order
    assert order == g1.order * g2.order
    return ConstructedGroup(f"product({g1.spec},{g2.spec})", d1 + d2, gens, order)


def is_transitive(group: ConstructedGroup) -> bool:
    return len(orbit(group.generators, 0)) == group.degree


def gt1_order(group: ConstructedGroup) -> tuple[int, list]:
    """Count surviving double cosets for the identity power."""
    survivors = [rep for rep in double_coset_survey(build_gbar(group)) if rep.survives]
    return len(survivors), survivors


def dihedral_closed_form(n: int) -> int:
    """Known count for dihedral groups: trivial exactly when 4 divides n."""
    if n < 3:
        raise ValueError("dihedral groups start at n = 3")
    return 1 if n % 4 == 0 else 2
