"""Tests for factored text, the direct-factor reading, and composition
factors."""

from __future__ import annotations

from collections import Counter
from math import factorial, prod

import pytest

from gtpairs.atlas import construct
from gtpairs.permcore import (
    ConjugacyClassTable,
    ElementTable,
    Perm,
    identity_perm,
    subgroup_table,
)
from gtpairs.structure import (
    StructureSizeError,
    composition_factors_small,
    factored_text,
    factorint,
    fingerprint_recognize,
    isprime,
    product_fingerprint,
    quotient,
    simple_factors_of_symmetric,
    wreath_fingerprint,
)
from group_oracles import (
    D8_GENERATORS,
    GroupFingerprint,
    SubgroupTable,
    abelian_invariants,
    c2_d8_model_table,
    derived_subgroup,
    derived_subgroup_ids,
    disjoint_product,
    element_order,
    element_order_histogram,
)


def _table(spec: str) -> ElementTable:
    g = construct(spec)
    return ElementTable(g.generators, g.degree)


def _embed(p: Perm, window: int, d: int, s: int) -> Perm:
    """Embed a degree-d permutation into window `window` of s windows."""
    out = list(range(d * s))
    for i, j in enumerate(p):
        out[window * d + i] = window * d + j
    return tuple(out)


def _top(sigma: Perm, d: int) -> Perm:
    """Lift a window permutation to the full degree-d*len(sigma) set."""
    out = []
    for w in range(len(sigma)):
        out.extend(range(sigma[w] * d, sigma[w] * d + d))
    return tuple(out)


def _wreath_table(e_gens: list[Perm], d: int, s: int = 2) -> ElementTable:
    """Materialize (group generated by e_gens) wr Sym(s) as permutations:
    E on the first window and the swaps of neighbouring windows."""
    gens = [_embed(g, 0, d, s) for g in e_gens]
    for i in range(s - 1):
        sigma = list(range(s))
        sigma[i], sigma[i + 1] = i + 1, i
        gens.append(_top(tuple(sigma), d))
    return ElementTable(gens, s * d)


def test_factored_text() -> None:
    assert factored_text(1) == "1"
    assert factored_text(720) == "2^4 * 3^2 * 5"
    assert factored_text(512) == "2^9"
    assert factored_text(2**25 * 3**7) == "2^25 * 3^7"


def test_element_table_over_element_list() -> None:
    t = ElementTable([(1, 0), (0, 1)], 2)
    assert t.elements[0] == (0, 1)
    assert t.order == 2
    assert t.mul(1, 1) == 0
    assert t.inverse_id(1) == 1
    assert element_order(t, 1) == 2


def _class_span(t: ElementTable, p: Perm) -> ElementTable:
    """The subgroup spanned by the conjugacy class of p: its normal closure."""
    classes = ConjugacyClassTable(t)
    cid = classes.class_of[t.index[p]]
    members = [q for e, q in enumerate(t.elements) if classes.class_of[e] == cid]
    return subgroup_table(members, t.degree)


def test_subgroup_closure_of_rotation_in_dihedral() -> None:
    t = _table("dihedral:6")
    rot = next(i for i in range(t.order) if element_order(t, i) == 6)
    rotations = _class_span(t, t.elements[rot])
    assert rotations.order == 6
    assert set(rotations.elements) <= set(t.elements)


def test_normal_closure_adds_conjugates() -> None:
    t = _table("symmetric:4")
    transposition = (1, 0, 2, 3)
    assert ElementTable([transposition], 4).order == 2
    assert _class_span(t, transposition).order == 24
    klein = _class_span(t, (1, 0, 3, 2))
    assert set(klein.elements) == {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    assert subgroup_table([], 4).order == 1


def test_center_of_dihedral_groups() -> None:
    assert len(ConjugacyClassTable(_table("dihedral:5")).center_ids) == 1
    assert len(ConjugacyClassTable(_table("dihedral:6")).center_ids) == 2
    assert len(ConjugacyClassTable(_table("quaternion8")).center_ids) == 2


def test_derived_subgroup_sizes() -> None:
    assert derived_subgroup(_table("symmetric:3")).order == 3
    assert derived_subgroup(_table("symmetric:4")).order == 12
    assert derived_subgroup(_table("dihedral:4")).order == 2
    assert derived_subgroup(_table("cyclic:7")).order == 1
    assert derived_subgroup(_table("quaternion8")).order == 2


def test_derived_subgroup_generator_path_matches_full_scan() -> None:
    for spec in ["symmetric:4", "dihedral:6", "quaternion8", "alternating:4"]:
        t = _table(spec)
        plain = SubgroupTable(t, range(t.order))
        slow_set = {t.elements[i] for i in derived_subgroup_ids(plain)}
        assert set(derived_subgroup(t).elements) == slow_set


def test_element_order_histogram_quaternion_vs_dihedral() -> None:
    assert element_order_histogram(_table("quaternion8")) == {1: 1, 2: 1, 4: 6}
    assert element_order_histogram(_table("dihedral:4")) == {1: 1, 2: 5, 4: 2}


def test_abelian_invariants_cyclic_and_products() -> None:
    assert abelian_invariants(_table("cyclic:1")) == ()
    assert abelian_invariants(_table("cyclic:4")) == (4,)
    assert abelian_invariants(_table("cyclic:6")) == (2, 3)
    assert abelian_invariants(_table("cyclic:12")) == (3, 4)


def test_abelian_invariants_elementary_and_mixed() -> None:
    klein = ElementTable([(1, 0, 2, 3), (0, 1, 3, 2)], 4)
    assert abelian_invariants(klein) == (2, 2)
    c2xc4 = ElementTable(
        [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)], 6
    )
    assert abelian_invariants(c2xc4) == (2, 4)


def test_quotient_of_dihedral4_by_center_is_klein() -> None:
    t = _table("dihedral:4")
    center = [t.elements[i] for i in ConjugacyClassTable(t).center_ids]
    q = quotient(t, subgroup_table(center, t.degree))
    assert q.order == 4
    assert abelian_invariants(q) == (2, 2)


def test_quotient_by_trivial_and_whole_group() -> None:
    t = _table("symmetric:4")
    assert quotient(t, subgroup_table([], t.degree)).order == 24
    assert quotient(t, t).order == 1
    assert quotient(t, derived_subgroup(t)).order == 2


def test_subgroup_table_reindexes_members() -> None:
    t = _table("symmetric:3")
    sub = SubgroupTable(t, derived_subgroup_ids(t))
    assert sub.order == 3
    assert sorted(element_order(sub, i) for i in range(3)) == [1, 3, 3]
    derived = derived_subgroup(t)
    assert sorted(element_order(derived, i) for i in range(3)) == [1, 3, 3]


def test_fingerprint_from_mul_quaternion8() -> None:
    fp = GroupFingerprint.from_mul(_table("quaternion8"))
    assert fp.order == 8
    assert fp.exponent == 4
    assert fp.center_order == 2
    assert fp.derived_order == 2
    assert fp.derived_abelian
    assert fp.abelianization == (2, 2)
    assert fp.order_histogram == {1: 1, 2: 1, 4: 6}
    assert fp.center_exponent == 2
    assert fp.derived_exponent == 2


def test_trivial_fingerprint_fields() -> None:
    """The trivial group has no direct factors: C2^0 x D8^0."""
    fp = wreath_fingerprint(_table("cyclic:1"), 1)
    assert fp == Counter()
    assert fingerprint_recognize(fp) == (0, 0)
    assert product_fingerprint([]) == Counter()


def _signed(images: list[int], signs: list[int]) -> Perm:
    """The signed permutation e_k -> signs[k] e_images[k] of four
    coordinates, on the eight points k + 4s for the vector (-1)^s e_k."""
    return tuple(
        images[k] + 4 * ((s + (signs[k] < 0)) % 2) for s in (0, 1) for k in range(4)
    )


# Pauli matrices on two real qubits, as signed permutations of the basis
# e_{2a+b}: X on the first qubit swaps a, Z negates a = 1
X1 = _signed([2, 3, 0, 1], [1, 1, 1, 1])
Z1 = _signed([0, 1, 2, 3], [1, 1, -1, -1])
X2 = _signed([1, 0, 3, 2], [1, 1, 1, 1])
Z2 = _signed([0, 1, 2, 3], [1, -1, 1, -1])
XZ2 = _signed([1, 0, 3, 2], [1, -1, 1, -1])  # order 4, squares to -1

C2, C4, D16 = [(1, 0)], [(1, 2, 3, 0)], construct("dihedral:8").generators
Q8 = construct("quaternion8").generators
# a = (0 1 2 3) and b, a reflection of the square times a 4-cycle, with
# b^-1 a b = a^-1 and <a> n <b> = 1
C4_SEMI_C4 = [(1, 2, 3, 0, 4, 5, 6, 7), (0, 3, 2, 1, 5, 6, 7, 4)]

# name -> (group, its direct factors); a D8 splits off before the rest
# reads `other`
CONSTRUCTED = {
    "C2": (disjoint_product(C2), Counter(C2=1)),
    "C2^3": (disjoint_product(C2, C2, C2), Counter(C2=3)),
    "C4": (disjoint_product(C4), Counter(other=1)),
    "D8": (disjoint_product(D8_GENERATORS), Counter(D8=1)),
    "Q8": (disjoint_product(Q8), Counter(other=1)),
    "D16": (disjoint_product(D16), Counter(other=1)),
    "D8xC2": (disjoint_product(D8_GENERATORS, C2), Counter(C2=1, D8=1)),
    "Q8xC2": (disjoint_product(Q8, C2), Counter(other=1)),
    "D8xD8": (c2_d8_model_table(0, 2), Counter(D8=2)),
    "D8xC4": (disjoint_product(D8_GENERATORS, C4), Counter(D8=1, other=1)),
    "D8xD8xC2": (c2_d8_model_table(1, 2), Counter(C2=1, D8=2)),
    "C4:C4": (ElementTable(C4_SEMI_C4, 8), Counter(other=1)),
    "D8xQ8": (disjoint_product(D8_GENERATORS, Q8), Counter(D8=1, other=1)),
    "D8oD8": (ElementTable([X1, Z1, X2, Z2], 8), Counter(other=1)),
    "C4oD8": (ElementTable([X1, Z1, XZ2], 8), Counter(other=1)),
}
ORDERS = {"C4:C4": 16, "D8oD8": 32, "C4oD8": 16}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_direct_factors_of_constructed_groups(name) -> None:
    t, want = CONSTRUCTED[name]
    assert t.order == ORDERS.get(name, t.order)
    assert wreath_fingerprint(t, 1) == want
    if not want["other"]:
        a, b = want["C2"], want["D8"]
        assert t.order == 2 ** (a + 3 * b)
        assert GroupFingerprint.from_mul(t) == GroupFingerprint.from_mul(
            c2_d8_model_table(a, b)
        )


def test_central_products_are_not_direct() -> None:
    """D8 o D8 and C4 o D8 each hold a D8 whose centralizer has a quarter
    of the order, but that centralizer's Frattini subgroup holds the shared
    centre, so no D8 splits off."""
    for name, center in (("D8oD8", 2), ("C4oD8", 4)):
        t = CONSTRUCTED[name][0]
        assert len(ConjugacyClassTable(t).center_ids) == center
        assert derived_subgroup(t).order == 2


def test_wreath_fingerprint_matches_materialized_groups() -> None:
    """E wr C2 read by the s = 2 rule equals the reading of the
    materialized wreath product: C2 for E = 1, D8 for |E| = 2, `other` for
    every other E, C4, C2^2 and D8 among them."""
    d8, q8 = construct("dihedral:4"), construct("quaternion8")
    cases = [
        ([identity_perm(1)], 1, "C2"),
        ([(1, 0)], 2, "D8"),
        ([(1, 2, 0)], 3, "other"),
        ([(1, 0, 2), (1, 2, 0)], 3, "other"),
        ([(1, 2, 3, 0)], 4, "other"),
        ([(1, 0, 2, 3), (0, 1, 3, 2)], 4, "other"),
        (d8.generators, d8.degree, "other"),
        (q8.generators, q8.degree, "other"),
    ]
    for e_gens, d, want in cases:
        e_table = ElementTable(e_gens, d)
        by_rule = wreath_fingerprint(ElementTable(e_table.elements, d), 2)
        assert by_rule == Counter([want]), e_gens
        assert wreath_fingerprint(_wreath_table(e_gens, d), 1) == by_rule, e_gens


def test_wreath_fingerprint_trivial_base() -> None:
    e_table = ElementTable([identity_perm(1)], 1)
    sym2 = wreath_fingerprint(e_table, 2)
    assert sym2 == wreath_fingerprint(_table("symmetric:2"), 1) == Counter(C2=1)


def test_wreath_fingerprint_rejects_s_outside_one_and_two() -> None:
    """From s = 3 on, 3 divides |E wr Sym(s)|: the factor reads `other`."""
    for e_gens, d in (([identity_perm(1)], 1), ([(1, 0)], 2)):
        for s in (3, 4):
            assert wreath_fingerprint(ElementTable(e_gens, d), s) == Counter(other=1)
            materialized = _wreath_table(e_gens, d, s)
            assert wreath_fingerprint(materialized, 1) == Counter(other=1)


def test_wreath_fingerprint_s_equal_one_is_base() -> None:
    """With s = 1 the factor is E itself, read directly."""
    klein = ElementTable([(1, 0, 2, 3), (0, 1, 3, 2)], 4)
    assert wreath_fingerprint(klein, 1) == Counter(C2=2)
    assert wreath_fingerprint(_table("dihedral:4"), 1) == Counter(D8=1)
    assert wreath_fingerprint(_table("quaternion8"), 1) == Counter(other=1)
    assert wreath_fingerprint(_table("cyclic:4"), 1) == Counter(other=1)


def test_c2_d8_model_round_trip() -> None:
    for a in range(4):
        for b in range(3):
            t = c2_d8_model_table(a, b)
            fp = wreath_fingerprint(t, 1)
            assert t.order == 2 ** (a + 3 * b)
            assert len(ConjugacyClassTable(t).center_ids) == 2 ** (a + b)
            assert fingerprint_recognize(fp) == (a, b)


def test_product_fingerprint_adds_the_factors() -> None:
    parts = [Counter(C2=1), Counter(D8=2), Counter(C2=3, D8=1), Counter()]
    assert fingerprint_recognize(product_fingerprint(parts)) == (4, 3)
    parts.append(Counter(other=1))
    assert fingerprint_recognize(product_fingerprint(parts)) is None


def test_fingerprint_recognize_rejects_quaternion8() -> None:
    fp = wreath_fingerprint(_table("quaternion8"), 1)
    assert fingerprint_recognize(fp) is None


def test_fingerprint_recognize_rejects_non_two_power() -> None:
    fp = wreath_fingerprint(_table("symmetric:3"), 1)
    assert fingerprint_recognize(fp) is None


def test_simple_factors_of_symmetric_small() -> None:
    """Factors carry their orders and sort by them, not by name: C2 before
    A5, C3 after every C2."""
    assert simple_factors_of_symmetric(0) == []
    assert simple_factors_of_symmetric(1) == []
    assert simple_factors_of_symmetric(2) == [(2, "C2")]
    assert simple_factors_of_symmetric(3) == [(2, "C2"), (3, "C3")]
    assert simple_factors_of_symmetric(4) == [(2, "C2")] * 3 + [(3, "C3")]
    assert simple_factors_of_symmetric(5) == [(2, "C2"), (60, "A5")]
    assert simple_factors_of_symmetric(9) == [(2, "C2"), (181440, "A9")]


def test_simple_factor_order_values() -> None:
    """Each factor's order is the order of the simple group it names, and the
    orders multiply to the order of the group."""
    assert composition_factors_small(_table("cyclic:2")) == [(2, "C2")]
    assert composition_factors_small(_table("cyclic:13")) == [(13, "C13")]
    assert composition_factors_small(_table("alternating:5")) == [(60, "A5")]
    assert simple_factors_of_symmetric(9)[-1] == (181440, "A9")
    assert composition_factors_small(_table("psl2:7")) == [(168, "Other(168)")]
    for spec in ("cyclic:12", "dihedral:6", "quaternion8", "symmetric:4", "symmetric:5"):
        t = _table(spec)
        assert prod(o for o, _ in composition_factors_small(t)) == t.order, spec
    for s in range(2, 10):
        assert prod(o for o, _ in simple_factors_of_symmetric(s)) == factorial(s), s


def test_sort_factor_labels_orders_by_group_order() -> None:
    """Factors come ascending by group order, not by name: C2 before A5 and
    A6, C3 after every C2, C5 after C3."""
    assert composition_factors_small(_table("symmetric:5")) == [(2, "C2"), (60, "A5")]
    assert simple_factors_of_symmetric(6) == [(2, "C2"), (360, "A6")]
    assert composition_factors_small(_table("dihedral:6")) == [
        (2, "C2"),
        (2, "C2"),
        (3, "C3"),
    ]
    assert composition_factors_small(_table("cyclic:15")) == [(3, "C3"), (5, "C5")]
    for spec in ("cyclic:30", "symmetric:4", "symmetric:5", "alternating:5"):
        orders = [o for o, _ in composition_factors_small(_table(spec))]
        assert orders == sorted(orders), spec


def test_composition_factors_of_solvable_groups() -> None:
    c2, c3 = (2, "C2"), (3, "C3")
    assert composition_factors_small(_table("cyclic:1")) == []
    assert composition_factors_small(_table("cyclic:6")) == [c2, c3]
    assert composition_factors_small(_table("dihedral:4")) == [c2] * 3
    assert composition_factors_small(_table("quaternion8")) == [c2] * 3
    assert composition_factors_small(_table("symmetric:4")) == [c2] * 3 + [c3]


def test_composition_factors_of_simple_and_almost_simple() -> None:
    assert composition_factors_small(_table("alternating:5")) == [(60, "A5")]
    assert composition_factors_small(_table("symmetric:5")) == [(2, "C2"), (60, "A5")]
    assert composition_factors_small(_table("cyclic:13")) == [(13, "C13")]
    assert composition_factors_small(_table("alternating:6")) == [(360, "A6")]
    assert composition_factors_small(_table("psl2:7")) == [(168, "Other(168)")]


def test_composition_factors_size_limit() -> None:
    with pytest.raises(StructureSizeError):
        composition_factors_small(_table("symmetric:5"), limit=100)


def test_factorint_and_isprime_match_sympy() -> None:
    sympy = pytest.importorskip("sympy")
    for n in range(1, 2001):
        assert factorint(n) == sympy.factorint(n), n
        assert isprime(n) == sympy.isprime(n), n
