"""The Las Vegas generation test: exact verdicts whatever the random source."""

from __future__ import annotations

from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from gtpairs import permcore
from gtpairs.atlas import construct
from gtpairs.pairs import build_pc
from gtpairs.permcore import (
    ConjugacyClassTable,
    ElementTable,
    PermGroupBSGS,
    generates,
    order_lower_bound,
    parse_cycles,
)


def _pc_key(spec: str):
    g = construct(spec)
    table = ElementTable(g.generators, g.degree)
    pcset = build_pc(table, ConjugacyClassTable(table))
    return pcset.reps, pcset.g_class, pcset.h_class, pcset._lookup


@pytest.mark.parametrize("spec", ["psl2:7", "dihedral:6"])
def test_forced_fallback_gives_the_same_pair_classes(spec, monkeypatch) -> None:
    random_path = _pc_key(spec)
    calls = {"tests": 0, "fallbacks": 0}
    generates_, chain = permcore.generates, permcore.PermGroupBSGS

    def counted_generates(*args):
        calls["tests"] += 1
        return generates_(*args)

    def counted_chain(*args, **kwargs):
        calls["fallbacks"] += 1
        return chain(*args, **kwargs)

    monkeypatch.setattr("gtpairs.pairs.generates", counted_generates)
    monkeypatch.setattr(permcore, "PermGroupBSGS", counted_chain)
    monkeypatch.setattr(permcore, "_SIFT_BUDGET", 0)
    assert _pc_key(spec) == random_path
    assert calls["tests"] > 0
    assert calls["fallbacks"] == calls["tests"]


def test_pair_classes_do_not_depend_on_the_seed(monkeypatch) -> None:
    keys = []
    for seed in (1, 0x5EED):
        monkeypatch.setattr(permcore, "_CHAIN_SEED", seed)
        keys.append(_pc_key("psl2:11"))
    assert keys[0] == keys[1]


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
    assert verdict == (PermGroupBSGS(gens, n).order == target)
    assert verdict == (order == target)
    assert order_lower_bound(gens, n, target) <= order
    assert order_lower_bound(gens, n, full + 1) <= order


def test_target_below_the_group_order_breaks_the_contract() -> None:
    s5 = [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)]
    with pytest.raises(RuntimeError, match="generators lie in a group of target_order"):
        generates(s5, 5, 7)


def test_lower_bound_stops_at_stop_at() -> None:
    s5 = [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)]
    assert order_lower_bound(s5, 5, 120) == 120
    assert 2 <= order_lower_bound(s5, 5, 2) <= 120
    assert order_lower_bound([parse_cycles("()", 5)], 5, 120) == 1
