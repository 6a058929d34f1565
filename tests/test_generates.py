"""The Schreier-Sims chain and the generation test: exact orders and
verdicts against sympy and listed orders."""

from __future__ import annotations

import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from gtpairs import permcore
from gtpairs.atlas import construct
from gtpairs.permcore import (
    ElementTable,
    StabilizerChain,
    generates,
    orbit,
    parse_cycles,
)


def _sympy_order(gens: list[tuple[int, ...]]) -> int:
    return PermutationGroup([Permutation(list(g)) for g in gens]).order()


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )
)
def test_generates_agrees_with_deterministic_chain_and_sympy(gens) -> None:
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    full = factorial(n)
    even = all(Permutation(list(g)).is_even for g in gens)
    target = full // 2 if even and n > 1 else full
    order = _sympy_order(gens)
    verdict = generates(gens, n, target)
    assert verdict == (StabilizerChain(gens, n).exact_order() == target)
    assert verdict == (order == target)
    assert StabilizerChain(gens, n, stop_at=target).bound <= order
    assert StabilizerChain(gens, n, stop_at=target).exact_order() <= order
    assert StabilizerChain(gens, n, stop_at=full + 1).exact_order() == order


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4)
        )
    )
)
def test_exact_order_matches_sympy(gens) -> None:
    gens = [tuple(g) for g in gens]
    assert StabilizerChain(gens, len(gens[0])).exact_order() == _sympy_order(gens)


_PSL3_2_IN_A7 = [parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(3,5)(6,7)", 7)]
_S5_AFTER_NINE_SWAPS = [parse_cycles("(1,2)", 5)] * 9 + [parse_cycles("(1,2,3,4,5)", 5)]


@pytest.mark.parametrize("repeats", [8, 0])
def test_stalled_chain_on_a_proper_subgroup(repeats) -> None:
    # redundant copies of a generator ahead of the pair change no verdict
    gens = [_PSL3_2_IN_A7[1]] * repeats + _PSL3_2_IN_A7
    assert _sympy_order(gens) == 168
    chain = StabilizerChain(gens, 7, stop_at=2520)
    assert chain.bound <= 168
    assert chain.exact_order() == 168
    assert not generates(gens, 7, 2520)


def test_transitive_non_generating_pairs_of_m11() -> None:
    group = construct("m11")
    elements = ElementTable(group.generators, group.degree).elements
    rng = random.Random(11)
    seen = Counter()
    while sum(seen.values()) < 60:
        pair = [rng.choice(elements), rng.choice(elements)]
        if len(orbit(pair, 0)) < 11 or generates(pair, 11, group.order):
            continue
        order = StabilizerChain(pair, 11, stop_at=group.order).exact_order()
        assert order == _sympy_order(pair) < group.order
        seen[order] += 1
    assert set(seen) == {55, 660}


def test_every_generator_is_sifted() -> None:
    # eight of the swaps sift to the identity; the 5-cycle after them must still be sifted
    assert StabilizerChain(_S5_AFTER_NINE_SWAPS, 5).exact_order() == 120
    assert generates(_S5_AFTER_NINE_SWAPS, 5, 120)


def test_exact_order_does_not_depend_on_the_seed() -> None:
    # the chain draws no random words: these orders follow from the generators alone
    groups = map(construct, ("m11", "psl3:3", "alternating:7"))
    cases = [(g.generators, g.degree, g.order) for g in groups]
    cases += [(_PSL3_2_IN_A7, 7, 168), (_S5_AFTER_NINE_SWAPS, 5, 120)]
    for gens, degree, order in cases:
        assert StabilizerChain(gens, degree).exact_order() == order


def test_target_below_the_group_order_breaks_the_contract() -> None:
    s5 = [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)]
    with pytest.raises(RuntimeError, match="generators lie in a group of target_order"):
        generates(s5, 5, 7)


def test_lower_bound_stops_at_stop_at() -> None:
    s5 = [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)]
    assert StabilizerChain(s5, 5, stop_at=120).exact_order() == 120
    assert 2 <= StabilizerChain(s5, 5, stop_at=2).exact_order() <= 120
    assert StabilizerChain([parse_cycles("()", 5)], 5, stop_at=120).exact_order() == 1
    assert StabilizerChain([], 5).exact_order() == 1


def _around_the_packing_limit(degree: int) -> list[list[tuple[int, ...]]]:
    """Generating pairs of degree `degree`: the dihedral group of the whole
    degree, and M11 x PSL2(13) with M11 acting diagonally on two copies,
    the second ending at the last point."""
    rotation = tuple(list(range(1, degree)) + [0])
    reflection = tuple((-i) % degree for i in range(degree))
    m11, psl = construct("m11"), construct("psl2:13")
    product = []
    for a, b in zip(m11.generators, psl.generators):
        g = list(range(degree))
        g[:14] = b
        g[14:25] = [14 + i for i in a]
        g[degree - 11:] = [degree - 11 + i for i in a]
        product.append(tuple(g))
    return [[rotation, reflection], product]


@pytest.mark.parametrize("degree", [255, 256, 257])
def test_chains_around_the_packing_limit(degree, monkeypatch) -> None:
    """Chains hold packed permutations up to degree 256 and tuples above
    it: orders and verdicts against sympy, and base, bound and order
    against chains that hold tuples at every degree."""
    dihedral, product = _around_the_packing_limit(degree)
    assert _sympy_order(product) == 7920 * 1092
    for gens in (dihedral, product, product[:1]):
        order = _sympy_order(gens)
        chain = StabilizerChain(gens, degree)
        sifted = (list(chain.base), chain.bound)
        assert chain.exact_order() == order
        assert generates(gens, degree, order)
        with monkeypatch.context() as mp:
            mp.setattr(permcore, "PACKED_DEGREE", 0)
            tuples = StabilizerChain(gens, degree)
            assert (tuples.base, tuples.bound) == sifted
            assert tuples.exact_order() == order
            assert tuples.base == chain.base
            assert generates(gens, degree, order)
    assert not generates(product[:1], degree, 7920 * 1092)
    assert not generates([dihedral[0]], degree, 2 * degree)
