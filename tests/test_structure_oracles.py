"""ElementTable group structure, and the ElementTable fingerprint that
cross-checks S's shape, against two references that share no structure
code with them: the whole-table mul-table scans of `group_oracles`, and
sympy's PermutationGroup."""

from __future__ import annotations

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint
from sympy.combinatorics import Permutation, PermutationGroup

from gtpairs.atlas import construct
from gtpairs.cli import pair_stages
from gtpairs.permcore import ConjugacyClassTable, ElementTable
from gtpairs.structure import composition_factors_small, quotient
from group_oracles import (
    GroupFingerprint,
    abelian_invariants,
    center_element_ids,
    derived_subgroup,
    derived_subgroup_ids,
    mul_composition_factors,
    mul_fingerprint,
)

SMALL_SPECS = [
    "symmetric:3",
    "cyclic:5",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "quaternion8",
    "alternating:4",
]
ATLAS_SPECS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:12",
    "dihedral:6",
    "dihedral:8",
    "symmetric:4",
    "alternating:5",
    "psl2:4",
    "psl2:5",
    "symmetric:5",
]


def _table(spec: str) -> ElementTable:
    g = construct(spec)
    return ElementTable(g.generators, g.degree)


def _e_tables(spec: str) -> list[ElementTable]:
    _, decomp, _ = pair_stages(construct(spec)).decomposition
    return [ElementTable(f.e_elements, len(f.points)) for f in decomp.factors]


def _random_groups(count: int, max_degree: int, seed: int) -> list[ElementTable]:
    """Groups of one to three generators, each a random permutation of a
    random set of points, so that intransitive groups and products turn up."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(2, max_degree)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            support = rng.sample(range(degree), rng.randint(2, degree))
            for p, q in zip(support, rng.sample(support, len(support))):
                images[p] = q
            gens.append(tuple(images))
        out.append(ElementTable(gens, degree))
    return out


def _assert_matches_oracle(t: ElementTable) -> None:
    assert GroupFingerprint.from_mul(t) == mul_fingerprint(t)
    assert composition_factors_small(t) == mul_composition_factors(t)
    derived = {t.elements[i] for i in derived_subgroup_ids(t)}
    assert set(derived_subgroup(t).elements) == derived
    assert ConjugacyClassTable(t).center_ids == center_element_ids(t)


def test_structure_matches_mul_table_oracle() -> None:
    tables = [_table(spec) for spec in SMALL_SPECS + ATLAS_SPECS]
    for spec in ("psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11"):
        tables += _e_tables(spec)
    tables += _random_groups(20, 6, seed=20)
    for t in tables:
        _assert_matches_oracle(t)


def test_abelianization_invariants_match_sympy() -> None:
    # both sides give the elementary divisors as sorted prime powers
    specs = SMALL_SPECS + ATLAS_SPECS + ["psl2:7", "psl2:8", "psl2:9", "psl2:11"]
    tables = [t for t in map(_table, specs) if t.order <= 1000]
    tables += _random_groups(30, 6, seed=31)
    for t in tables:
        group = PermutationGroup([Permutation(list(g)) for g in t.generators])
        ours = abelian_invariants(quotient(t, derived_subgroup(t)))
        assert list(ours) == group.abelian_invariants(), t.generators


@pytest.mark.extended
@pytest.mark.parametrize("spec", ["alternating:7", "psl3:3", "m11"])
def test_e_tables_match_mul_table_oracle(spec) -> None:
    for t in _e_tables(spec):
        _assert_matches_oracle(t)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )
)
def test_structure_agrees_with_sympy(gens) -> None:
    gens = [tuple(g) for g in gens]
    degree = len(gens[0])
    t = ElementTable(gens, degree)
    group = PermutationGroup([Permutation(list(g)) for g in gens])
    fp = GroupFingerprint.from_mul(t)
    assert fp.order == group.order()
    assert fp.center_order == group.center().order()
    assert fp.derived_order == group.derived_subgroup().order()
    assert prod(fp.abelianization) == group.order() // fp.derived_order
    if group.is_solvable:
        series = group.composition_series()
        theirs = [a.order() // b.order() for a, b in zip(series, series[1:])]
    else:
        # sympy's composition series needs a solvable group.  At degree <= 6
        # the perfect end of the derived series is A5 or A6, which is simple,
        # and the solvable quotient above it has one factor per prime.
        core = group.derived_series()[-1].order()
        assert core in (60, 360)
        theirs = [core]
        for p, e in factorint(group.order() // core).items():
            theirs += [p] * e
    ours = [n for n, _ in composition_factors_small(t)]
    assert sorted(ours) == sorted(theirs)
    assert len(ConjugacyClassTable(t).reps) == len(group.conjugacy_classes())
