"""Tests for the commuting-permutation group machinery."""

from __future__ import annotations

import copy
import math
from collections import Counter

import pytest

from gtpairs import sgroup
from gtpairs.atlas import construct
from gtpairs.cli import pair_stages
from gtpairs.permcore import ConjugacyClassTable, ElementTable, compose, identity_perm
from gtpairs.sgroup import (
    _equivariant_map,
    check_s_generators,
    packet_decomposition,
    sg_report,
)
from gtpairs.structure import (
    fingerprint_recognize,
    product_fingerprint,
    quotient,
    simple_factors_of_symmetric,
    wreath_fingerprint,
)
from group_oracles import (
    SgBudgetError,
    abelian_invariants,
    brute_force_sg,
    brute_packet_decomposition,
    c2_d8_model_table,
    mul_composition_factors,
    mul_fingerprint,
    orbit_equivalence,
    s_generators,
)

_CACHE: dict = {}


def _stages(spec: str):
    if spec not in _CACHE:
        _CACHE[spec] = pair_stages(construct(spec))
    return _CACHE[spec]


def _pipeline(spec: str):
    """Table, classes, pcset, outs, induced perms, blocks and the closed H-action."""
    st = _stages(spec)
    h = st.decomposition[0]
    return st.table, st.classes, st.pcset, st.ind.out_perms, st.ind, st.block_of, h


def _report(spec: str):
    st = _stages(spec)
    h, _, rep = st.decomposition
    return rep, st.block_of, h


def _s_generators(spec: str):
    h, decomp, _ = _stages(spec).decomposition
    return s_generators(decomp, h)


SMALL_SPECS = [
    "symmetric:3",
    "cyclic:5",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "quaternion8",
    "alternating:4",
]


def test_haction_relations() -> None:
    for spec in SMALL_SPECS:
        _, _, _, outs, ind, _, h = _pipeline(spec)
        ident = identity_perm(h.degree)
        assert compose(ind.theta, ind.theta) == ident
        assert compose(ind.delta, ind.delta) == ident
        tdt = compose(compose(ind.theta, ind.delta), ind.theta)
        dtd = compose(compose(ind.delta, ind.theta), ind.delta)
        assert tdt == dtd
        for p in ind.out_perms:
            assert compose(p, ind.theta) == compose(ind.theta, p)
            assert compose(p, ind.delta) == compose(ind.delta, p)
        assert h.order <= 6 * len(outs)


def test_out_action_is_free() -> None:
    for spec in SMALL_SPECS + ["psl2:7"]:
        _, _, _, outs, ind, _, _ = _pipeline(spec)
        for i, p in enumerate(ind.out_perms):
            if i == 0:  # entry 0 is the identity, the only inner class
                continue
            assert all(p[x] != x for x in range(len(p)))


def _column(h: ElementTable, q: int) -> tuple:
    """The column of q: e(q) for every e of H, in table order."""
    return tuple([e[q] for e in h.elements])


def _stabilizer(h: ElementTable, q: int) -> list[int]:
    return [i for i, e in enumerate(h.elements) if e[q] == q]


def _orbits(spec: str) -> list[list[int]]:
    return _stages(spec).decomposition[1].orbits


def test_h_orbits_cover_without_overlap() -> None:
    for spec in SMALL_SPECS:
        _, _, _, _, _, _, h = _pipeline(spec)
        seen: list[int] = []
        for o in _orbits(spec):
            assert o == sorted({e[o[0]] for e in h.elements})
            assert len(o) * len(_stabilizer(h, o[0])) == h.order
            seen.extend(o)
        assert sorted(seen) == list(range(h.degree))


def test_orbit_equivalence_on_itself() -> None:
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    for o in _orbits("psl2:7")[:5]:
        bij = orbit_equivalence(h, o, o, block_of)
        assert bij is not None
        assert sorted(bij) == o
        assert sorted(bij.values()) == o


def test_orbit_equivalence_rejects_size_mismatch() -> None:
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    orbits = _orbits("psl2:7")
    small, large = min(orbits, key=len), max(orbits, key=len)
    assert len(small) != len(large)
    assert orbit_equivalence(h, small, large, block_of) is None


def test_packets_reject_an_unclosed_h() -> None:
    """Five of the six elements of Sym(3): no orbit size times stabilizer
    size is 5."""
    h = ElementTable([(1, 0, 2), (1, 2, 0)], 3)
    h.elements = h.elements[:5]
    with pytest.raises(RuntimeError, match="orbit size times stabilizer size"):
        packet_decomposition(h, [0, 0, 0])


def test_equivariant_map_rejects_points_with_different_stabilizers() -> None:
    """Two points of one orbit with distinct stabilizers of equal size: some
    e and f agree on the first point and not on the second."""
    _, _, _, _, _, _, h = _pipeline("psl2:7")
    p, q = next(
        (o[0], q)
        for o in _orbits("psl2:7")
        for q in o
        if _stabilizer(h, q) != _stabilizer(h, o[0])
    )
    with pytest.raises(RuntimeError, match="equivariant map is not well defined"):
        _equivariant_map(_column(h, p), _column(h, q))


@pytest.mark.parametrize(
    "spec",
    SMALL_SPECS
    + ["dihedral:6", "cyclic:12", "psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11"]
    + [
        pytest.param(spec, marks=pytest.mark.extended)
        for spec in ["psl2:13", "alternating:7", "psl3:3", "m11"]
    ],
)
def test_packets_match_pairwise_oracle(spec) -> None:
    _, _, _, _, _, block_of, h = _pipeline(spec)
    decomp = packet_decomposition(h, block_of)
    assert decomp == brute_packet_decomposition(h, block_of)


def test_equivalences_respect_blocks_pointwise() -> None:
    rep, block_of, h = _report("psl2:7")
    decomp = packet_decomposition(h, block_of)
    for f in decomp.factors:
        for bij in f.bijections:
            for src, dst in bij.items():
                assert block_of[src] == block_of[dst]


def test_symmetric3_single_trivial_factor() -> None:
    rep, block_of, h = _report("symmetric:3")
    assert h.degree == 3
    assert rep.num_orbits == 1
    assert len(rep.packets) == 1
    assert rep.packets[0] == {"e_order": 1, "s": 1}
    assert rep.order == 1
    assert rep.simple_factors == []


def test_cyclic5_trivial() -> None:
    rep, _, _ = _report("cyclic:5")
    assert rep.order == 1


def test_brute_force_matches_packet_order() -> None:
    for spec in SMALL_SPECS:
        rep, block_of, h = _report(spec)
        brute = brute_force_sg(h, block_of)
        assert len(brute) == rep.order, spec


def test_emitted_generators_close_onto_brute_group() -> None:
    for spec in SMALL_SPECS:
        _, block_of, h = _report(spec)
        brute = set(brute_force_sg(h, block_of))
        closure = set(ElementTable(_s_generators(spec), h.degree).elements)
        assert closure == brute, spec


def test_brute_force_budget_error() -> None:
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    with pytest.raises(SgBudgetError):
        brute_force_sg(h, block_of)


def test_wreath_multiplicity_bound() -> None:
    for spec in SMALL_SPECS + ["psl2:7"]:
        table, classes, _, _, _, block_of, h = _pipeline(spec)
        decomp = packet_decomposition(h, block_of)
        z = len(classes.center_ids)
        m = max(classes.sizes)
        for f in decomp.factors:
            assert f.s * table.order <= z * m * m, spec


def test_psl27_report_values() -> None:
    rep, block_of, h = _report("psl2:7")
    assert h.degree == 114
    sizes = Counter(Counter(block_of).values())
    assert sizes == {2: 4, 3: 8, 6: 9, 8: 1, 10: 2}
    assert rep.num_orbits == 17
    assert rep.order == 512
    assert rep.simple_factors == ["C2"] * 9
    assert fingerprint_recognize(rep.fingerprint) == (3, 2)
    shapes = Counter((p["e_order"], p["s"]) for p in rep.packets)
    assert shapes[(2, 2)] == 2
    assert shapes[(2, 1)] == 1
    assert shapes[(1, 2)] == 2


def test_psl27_materialized_group_matches_formulas() -> None:
    """The materialized S has the whole-table fingerprint of a
    materialized C2^3 x D8^2, the shape its packets read."""
    rep, block_of, h = _report("psl2:7")
    sg_table = ElementTable(_s_generators("psl2:7"), h.degree)
    assert sg_table.order == 512
    assert fingerprint_recognize(rep.fingerprint) == (3, 2)
    assert mul_fingerprint(sg_table) == mul_fingerprint(c2_d8_model_table(3, 2))
    center_ids = ConjugacyClassTable(sg_table).center_ids
    assert len(center_ids) == 32
    center = ElementTable([sg_table.elements[i] for i in center_ids], h.degree)
    assert abelian_invariants(center) == (2,) * 5
    quo = quotient(sg_table, center)
    assert quo.order == 16
    assert abelian_invariants(quo) == (2, 2, 2, 2)


def test_report_order_equals_packet_product() -> None:
    for spec in ["psl2:7", "dihedral:5", "quaternion8"]:
        rep, _, _ = _report(spec)
        expected = 1
        for p in rep.packets:
            expected *= p["e_order"] ** p["s"] * math.factorial(p["s"])
        assert rep.order == expected


def _with_swapped_images(spec: str, same_block: bool):
    """spec's packets, with the images of two points swapped in the first
    member bijection that has two such points in the same (or in different)
    blocks."""
    _, _, _, _, _, block_of, h = _pipeline(spec)
    decomp = copy.deepcopy(_stages(spec).decomposition[1])
    for f in decomp.factors:
        if f.s < 2:
            continue
        bij = f.bijections[1]
        for p in bij:
            for q in bij:
                if p != q and (block_of[bij[p]] == block_of[bij[q]]) == same_block:
                    bij[p], bij[q] = bij[q], bij[p]
                    return decomp, h, block_of
    raise AssertionError("no packet with two members")


def test_s_generator_check_rejects_a_non_equivariant_bijection() -> None:
    decomp, h, block_of = _with_swapped_images("psl2:7", same_block=True)
    with pytest.raises(RuntimeError, match="fails to commute"):
        check_s_generators(decomp, h, block_of)


def test_s_generator_check_rejects_a_block_crossing_bijection() -> None:
    decomp, h, block_of = _with_swapped_images("psl2:7", same_block=False)
    with pytest.raises(RuntimeError, match="across blocks"):
        check_s_generators(decomp, h, block_of)


def test_s_generator_check_rejects_a_point_outside_the_members() -> None:
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    decomp = copy.deepcopy(_stages("psl2:7").decomposition[1])
    f = next(f for f in decomp.factors if f.s >= 2)
    inside = {p for idx in f.member_orbits[:2] for p in decomp.orbits[idx]}
    p = f.points[0]
    f.bijections[1][p] = next(q for q in range(h.degree) if q not in inside)
    with pytest.raises(RuntimeError, match="outside its orbits"):
        check_s_generators(decomp, h, block_of)


def test_sg_report_checks_s_generators_above_ell_2000() -> None:
    decomp, h, block_of = _with_swapped_images("psl3:3", same_block=True)
    assert h.degree > 2000
    with pytest.raises(RuntimeError, match="fails to commute"):
        sg_report(decomp, h, block_of)


def test_sg_report_checks_the_shape_against_the_order(monkeypatch) -> None:
    """A shape C2^a x D8^b whose order 2^(a+3b) is not |S| fails the named
    self-check."""
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    decomp = _stages("psl2:7").decomposition[1]
    monkeypatch.setattr(sgroup, "wreath_fingerprint", lambda e, s: Counter(C2=1))
    with pytest.raises(RuntimeError, match="fingerprint order disagrees"):
        sg_report(decomp, h, block_of)


def test_sg_report_rejects_an_unclosed_self_equivalence_set() -> None:
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    decomp = copy.deepcopy(_stages("psl2:7").decomposition[1])
    f = decomp.factors[0]
    # a 3-cycle and the identity: the span has order 3, not 2
    f.e_elements = [identity_perm(len(f.points)), (1, 2, 0) + tuple(range(3, len(f.points)))]
    with pytest.raises(RuntimeError, match="self-equivalence set is not closed"):
        sg_report(decomp, h, block_of)


def _two_packets_of_one_degree(spec: str):
    """A copy of spec's decomposition and its first two packets of the
    largest orbit size that two packets share."""
    decomp = copy.deepcopy(_stages(spec).decomposition[1])
    by_size: dict[int, list] = {}
    for f in decomp.factors:
        by_size.setdefault(len(f.points), []).append(f)
    size = max(k for k, fs in by_size.items() if len(fs) >= 2)
    return decomp, by_size[size][0], by_size[size][1]


def test_sg_report_rejects_an_unclosed_set_shared_by_two_packets() -> None:
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    decomp, f1, f2 = _two_packets_of_one_degree("psl2:7")
    k = len(f1.points)
    bad = [identity_perm(k), (1, 2, 0) + tuple(range(3, k))]
    f1.e_elements, f2.e_elements = bad, list(bad)
    with pytest.raises(RuntimeError, match="self-equivalence set is not closed"):
        sg_report(decomp, h, block_of)


def test_sg_report_checks_closure_per_packet_when_the_set_is_shared() -> None:
    """Two packets list the same set of maps, the second one with a repeat:
    the span built for the first is closed, but not of the second's size."""
    _, _, _, _, _, block_of, h = _pipeline("psl2:7")
    decomp, f1, f2 = _two_packets_of_one_degree("psl2:7")
    k = len(f1.points)
    swap = (1, 0) + tuple(range(2, k))
    f1.e_elements = [identity_perm(k), swap]
    f2.e_elements = [identity_perm(k), swap, swap]
    with pytest.raises(RuntimeError, match="self-equivalence set is not closed"):
        sg_report(decomp, h, block_of)


def _wreath_table(f) -> ElementTable:
    """E wr Sym(s) on s copies of the packet's orbit: E on the first copy
    and the swaps of neighbouring copies."""
    k, s = len(f.points), f.s
    gens = [tuple(e) + tuple(range(k, s * k)) for e in f.e_elements]
    for i in range(s - 1):
        swap = list(range(s * k))
        for j in range(k):
            swap[i * k + j], swap[(i + 1) * k + j] = (i + 1) * k + j, i * k + j
        gens.append(tuple(swap))
    return ElementTable(gens, s * k)


@pytest.mark.parametrize("spec", ["psl2:11", "psl2:13", "alternating:7"])
def test_shared_e_analysis_matches_per_packet_oracle(spec) -> None:
    """sg_report analyses each distinct E once; every packet recomputed on
    its own gives the same factors (by whole-table scans) and direct
    factors (read off the materialized E wr Sym(s))."""
    h, decomp, rep = _stages(spec).decomposition
    assert len({frozenset(f.e_elements) for f in decomp.factors}) < len(decomp.factors)
    simple = []
    for f in decomp.factors:
        e_table = ElementTable(f.e_elements, len(f.points))
        simple += mul_composition_factors(e_table) * f.s
        simple += simple_factors_of_symmetric(f.s)
    assert rep.simple_factors == [name for _, name in sorted(simple)]
    if rep.order & (rep.order - 1):
        assert rep.fingerprint is None
    else:
        fps = [wreath_fingerprint(_wreath_table(f), 1) for f in decomp.factors]
        assert rep.fingerprint == product_fingerprint(fps)
    assert (spec == "alternating:7") == (rep.fingerprint is None)
