"""Tests for factored text, fingerprints, and composition factors."""

from __future__ import annotations

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
    GroupFingerprint,
    StructureSizeError,
    abelian_invariants,
    c2_d8_model_fingerprint,
    composition_factors_small,
    derived_subgroup,
    element_order_histogram,
    factored_text,
    factorint,
    fingerprint_recognize,
    isprime,
    lcm_convolve,
    quotient,
    simple_factors_of_symmetric,
    trivial_fingerprint,
    wreath_fingerprint,
)
from group_oracles import SubgroupTable, derived_subgroup_ids


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


def _wreath2_table(e_gens: list[Perm], d: int) -> ElementTable:
    """Materialize (group generated by e_gens) wr Sym(2) as permutations."""
    gens = [_embed(g, 0, d, 2) for g in e_gens]
    gens.append(_top((1, 0), d))
    return ElementTable(gens, 2 * d)


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
    assert t.element_order(1) == 2


def _class_span(t: ElementTable, p: Perm) -> ElementTable:
    """The subgroup spanned by the conjugacy class of p: its normal closure."""
    classes = ConjugacyClassTable(t)
    cid = classes.class_of[t.index[p]]
    members = [q for e, q in enumerate(t.elements) if classes.class_of[e] == cid]
    return subgroup_table(members, t.degree)


def test_subgroup_closure_of_rotation_in_dihedral() -> None:
    t = _table("dihedral:6")
    rot = next(
        i for i in range(t.order) if t.element_order(i) == 6
    )
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
    assert sorted(sub.element_order(i) for i in range(3)) == [1, 3, 3]
    derived = derived_subgroup(t)
    assert sorted(derived.element_order(i) for i in range(3)) == [1, 3, 3]


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
    fp = trivial_fingerprint()
    assert fp.order == 1
    assert fp.center_order == fp.derived_order == 1
    assert fingerprint_recognize(fp) == (0, 0)


def test_lcm_convolve_squares_a_histogram() -> None:
    h = {1: 1, 2: 1}
    assert lcm_convolve(h, h) == {1: 1, 2: 3}
    assert lcm_convolve({1: 1, 3: 2}, {1: 1, 2: 1}) == {1: 1, 2: 1, 3: 2, 6: 2}


def test_wreath_fingerprint_matches_materialized_groups() -> None:
    d8, q8 = construct("dihedral:4"), construct("quaternion8")
    cases = [
        ([(1, 0)], 2),
        ([(1, 2, 0)], 3),
        ([(1, 0, 2), (1, 2, 0)], 3),
        ([(1, 2, 3, 0)], 4),
        ([(1, 0, 2, 3), (0, 1, 3, 2)], 4),
        (d8.generators, d8.degree),
        (q8.generators, q8.degree),
    ]
    for e_gens, d in cases:
        e_table = ElementTable(e_gens, d)
        by_formula = wreath_fingerprint(ElementTable(e_table.elements, d), 2)
        by_table = GroupFingerprint.from_mul(_wreath2_table(e_gens, d))
        assert by_formula == by_table, e_gens


def test_wreath_fingerprint_trivial_base() -> None:
    e_table = ElementTable([identity_perm(1)], 1)
    sym2 = wreath_fingerprint(e_table, 2)
    assert sym2 == GroupFingerprint.from_mul(_table("symmetric:2"))


def test_wreath_fingerprint_rejects_s_outside_one_and_two() -> None:
    t = _table("cyclic:2")
    for s in (0, 3):
        with pytest.raises(ValueError):
            wreath_fingerprint(t, s)


def test_wreath_fingerprint_s_equal_one_is_base() -> None:
    t = _table("quaternion8")
    assert wreath_fingerprint(t, 1) == GroupFingerprint.from_mul(t)


def test_c2_d8_model_round_trip() -> None:
    for a in range(5):
        for b in range(5):
            fp = c2_d8_model_fingerprint(a, b)
            assert fp.order == 2 ** (a + 3 * b)
            assert fp.center_order == 2 ** (a + b)
            assert fingerprint_recognize(fp) == (a, b)


def test_fingerprint_recognize_rejects_quaternion8() -> None:
    fp = GroupFingerprint.from_mul(_table("quaternion8"))
    assert fingerprint_recognize(fp) is None


def test_fingerprint_recognize_rejects_non_two_power() -> None:
    fp = GroupFingerprint.from_mul(_table("symmetric:3"))
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
