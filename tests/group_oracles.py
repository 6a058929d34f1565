"""Test-only oracles: a direct product, a transitivity test, the dihedral
and GT1 counts and an exhaustive S search, kept out of the library they
check."""

from __future__ import annotations

import itertools
from math import factorial

from sympy.combinatorics import Permutation, PermutationGroup

from gtpairs.atlas import ConstructedGroup
from gtpairs.gbar import build_gbar, double_coset_survey
from gtpairs.permcore import ElementTable, Perm, compose, orbit

DEFAULT_BRUTE_BUDGET = 10**7


class SgBudgetError(RuntimeError):
    pass


def direct_product(g1: ConstructedGroup, g2: ConstructedGroup) -> ConstructedGroup:
    """Product group acting on the disjoint union of the two domains."""
    d1, d2 = g1.degree, g2.degree
    gens = [tuple(list(g) + list(range(d1, d1 + d2))) for g in g1.generators]
    gens += [tuple(list(range(d1)) + [d1 + i for i in g]) for g in g2.generators]
    order = PermutationGroup([Permutation(list(g)) for g in gens]).order()
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


def brute_force_sg(
    h: ElementTable, block_of: list[int], budget: int = DEFAULT_BRUTE_BUDGET
) -> list[Perm]:
    """Filter the whole block-wise symmetric group by commutation, exhaustively."""
    blocks: dict[int, list[int]] = {}
    for p in range(h.degree):
        blocks.setdefault(block_of[p], []).append(p)
    block_lists = list(blocks.values())
    total = 1
    for pts in block_lists:
        total *= factorial(len(pts))
        if total > budget:
            raise SgBudgetError(
                f"brute-force search space exceeds budget {budget}"
            )
    out = []
    for combo in itertools.product(
        *(list(itertools.permutations(pts)) for pts in block_lists)
    ):
        arr = list(range(h.degree))
        for pts, images in zip(block_lists, combo):
            for src, dst in zip(pts, images):
                arr[src] = dst
        g = tuple(arr)
        if all(compose(g, hp) == compose(hp, g) for hp in h.generators):
            out.append(g)
    return out
