from __future__ import annotations

import os
import time
from collections import Counter
from math import factorial, gcd, prod

import pytest

from gtpairs.atlas import construct
from gtpairs.cli import pair_stages
from gtpairs.dessins import (
    DessinXY,
    analyze_dessin,
    cyclic_structures,
)
from gtpairs.gbar import double_coset_survey, gt_full_order
from gtpairs.pairs import build_pc
from gtpairs.permcore import (
    ConjugacyClassTable,
    ElementTable,
    compose,
    generates,
    identity_perm,
    parse_cycles,
)
from gtpairs.sgroup import build_haction, packet_decomposition
from gtpairs.structure import factorint, fingerprint_recognize, quotient
from group_oracles import (
    GammaStructure,
    GroupFingerprint,
    abelian_invariants,
    brute_force_sg,
    c2_d8_model_table,
    dihedral_closed_form,
    gt1_order,
    model_group,
    s_generators,
    triple_isomorphic,
)

THREADS = os.cpu_count() or 1


def _pipeline(spec: str, threads: int = 1):
    st = pair_stages(construct(spec), threads=threads)
    return st.table, st.classes, st.pcset, st.ind.out_perms, st.ind, st.block_of


def _sg(spec: str, threads: int = 1):
    st = pair_stages(construct(spec), threads=threads)
    h, decomp, rep = st.decomposition
    return rep, st.table, st.classes, st.pcset, st.ind.out_perms, st.block_of, h, decomp


def _perm_closure(perms, ell: int) -> set:
    ident = identity_perm(ell)
    seen = {ident}
    queue = [ident]
    for p in queue:
        for q in perms:
            r = compose(p, q)
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return seen


def test_criterion_01_pair_class_count() -> None:
    start = time.perf_counter()
    _, _, pcset, _, _, block_of = _pipeline("psl2:7")
    elapsed = time.perf_counter() - start
    assert pcset.ell == 114
    sizes = Counter(Counter(block_of).values())
    assert sizes == {2: 4, 3: 8, 6: 9, 8: 1, 10: 2}
    assert elapsed < 10.0


def test_criterion_02_psl2_7_decomposition() -> None:
    start = time.perf_counter()
    rep, _, _, _, _, _, h, decomp = _sg("psl2:7")
    assert rep.order == 512
    assert fingerprint_recognize(rep.fingerprint) == (3, 2)
    sg_table = ElementTable(s_generators(decomp, h), h.degree)
    assert sg_table.order == 512
    model = c2_d8_model_table(3, 2)
    assert GroupFingerprint.from_mul(sg_table) == GroupFingerprint.from_mul(model)
    center_ids = ConjugacyClassTable(sg_table).center_ids
    assert len(center_ids) == 32
    center = ElementTable([sg_table.elements[i] for i in center_ids], h.degree)
    assert abelian_invariants(center) == (2,) * 5
    quo = quotient(sg_table, center)
    assert quo.order == 16
    assert abelian_invariants(quo) == (2, 2, 2, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_03_trivial_cases() -> None:
    for spec in ["psl2:4", "psl2:8"]:
        start = time.perf_counter()
        rep = _sg(spec)[0]
        elapsed = time.perf_counter() - start
        assert rep.order == 1
        assert rep.simple_factors == []
        assert elapsed < 60.0


def test_criterion_04_psl2_9_and_11() -> None:
    start = time.perf_counter()
    rep9 = _sg("psl2:9", threads=THREADS)[0]
    assert rep9.order == 2**15
    assert fingerprint_recognize(rep9.fingerprint) == (12, 1)
    rep11 = _sg("psl2:11", threads=THREADS)[0]
    assert rep11.order == 2**48
    assert fingerprint_recognize(rep11.fingerprint) == (27, 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0


def test_criterion_05_dihedral_survivor_counts() -> None:
    start = time.perf_counter()
    values = []
    for n in range(3, 16):
        group = construct(f"dihedral:{n}")
        gbar = model_group(group)
        count = sum(1 for rep in double_coset_survey(gbar) if rep.survives)
        values.append(count)
        assert count == dihedral_closed_form(n)
        if n % 2 == 1:
            assert gbar.order == 4 * n**3
    assert values == [2, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0


def test_criterion_06_cyclic_counts() -> None:
    start = time.perf_counter()
    for n in range(2, 13):
        group = construct(f"cyclic:{n}")
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert gt_full_order(model_group(group)) == phi
        assert gt1_order(group)[0] == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_07_two_group_row() -> None:
    start = time.perf_counter()
    assert gt1_order(construct("dihedral:4"))[0] == 1
    assert gt1_order(construct("quaternion8"))[0] == 1
    count = gt1_order(construct("dihedral:8"))[0]
    assert count >= 1 and count & (count - 1) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_08_brute_force_equivalence() -> None:
    start = time.perf_counter()
    for spec in ["symmetric:3", "cyclic:5", "dihedral:5"]:
        rep, _, _, _, _, block_of, h, _ = _sg(spec)
        brute = brute_force_sg(h, block_of)
        assert len(brute) == rep.order
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


RELATION_SPECS = (
    [f"cyclic:{n}" for n in range(1, 13)]
    + [f"dihedral:{n}" for n in range(3, 16)]
    + ["symmetric:3", "symmetric:4", "symmetric:5"]
    + ["alternating:4", "alternating:5", "alternating:6"]
    + ["quaternion8"]
    + ["psl2:4", "psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11"]
)


def test_criterion_09_relation_suite() -> None:
    start = time.perf_counter()
    for spec in RELATION_SPECS:
        group = construct(spec)
        assert group.order <= 700
        table, classes, pcset, outs, ind, block_of = _pipeline(spec)
        ident = identity_perm(pcset.ell)
        t, d = ind.theta, ind.delta
        assert compose(t, t) == ident
        assert compose(d, d) == ident
        assert compose(compose(d, t), d) == compose(compose(t, d), t)
        for p in ind.out_perms:
            assert compose(p, t) == compose(t, p)
            assert compose(p, d) == compose(d, p)
        closure = _perm_closure(ind.out_perms, pcset.ell)
        assert len(closure) == len(outs)
        for p in closure:
            if p != ident:
                assert all(p[i] != i for i in range(pcset.ell))
        h = build_haction(ind)
        decomp = packet_decomposition(h, block_of)
        z = len(classes.center_ids)
        m = max(classes.sizes)
        for f in decomp.factors:
            assert f.s * table.order <= z * m * m
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0


def test_criterion_10_dessins() -> None:
    start = time.perf_counter()
    d = DessinXY(
        12,
        parse_cycles("(1,2,3)(4,5,6)(7,8,9)(10,11,12)", 12),
        parse_cycles("(1,4)(2,10)(3,7)(5,9)(6,11)(8,12)", 12),
    )
    a = analyze_dessin(d)
    assert a.monodromy_order == 12
    assert a.regular
    cls = ConjugacyClassTable(a.table)
    pair = (a.table.index[d.x], a.table.index[d.y])
    reps = cyclic_structures(cls, pair, 3)
    assert len(reps) == 3
    nontrivial = [GammaStructure(a.table, *pair, (z,)) for z in reps if z != 0]
    assert len(nontrivial) == 2
    assert not triple_isomorphic(cls, nontrivial[0], nontrivial[1])

    group = construct("symmetric:3")
    table = ElementTable(group.generators, group.degree)
    classes = ConjugacyClassTable(table)
    pcset = build_pc(table, classes)
    fixed = tuple(table.index[p] for p in table.generators)
    reps2: list[GammaStructure] = []
    for i in range(table.order):
        for j in range(table.order):
            if not generates(
                [table.elements[i], table.elements[j]], table.degree, table.order
            ):
                continue
            cand = GammaStructure(table, i, j, fixed)
            if not any(triple_isomorphic(classes, cand, r) for r in reps2):
                reps2.append(cand)
    assert len(reps2) == pcset.ell == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


A7_FACTORS = {
    "C2": 152, "C3": 15, "A5": 3, "A6": 3, "A7": 1, "A8": 2, "A10": 1, "A18": 1,
}
PSL33_FACTORS = {
    "C2": 245, "C3": 33, "A5": 5, "A6": 15, "A7": 6, "A8": 3, "A9": 11,
}
# The M11 values below are frozen from an independent oracle that enumerated
# every orbit bijection exhaustively and re-tallied the composition factors
# per packet; see the C2/C3 sub-assertions at the end of the criterion.
M11_FACTORS = {
    "C2": 477, "C3": 52, "A5": 10, "A6": 9, "A7": 10, "A8": 4, "A9": 4,
    "A10": 5, "A11": 5, "A12": 1, "A14": 2, "A15": 4, "A16": 1, "A17": 3,
    "A18": 12, "A19": 1, "A20": 2, "A23": 1, "A28": 1, "A31": 1, "A33": 2,
}
M11_PACKET_SHAPES = {
    (1, 1): 14, (1, 2): 11, (1, 3): 16, (1, 4): 6, (1, 5): 8, (1, 6): 2,
    (1, 7): 4, (1, 8): 2, (1, 9): 4, (1, 10): 3, (1, 11): 4, (1, 15): 4,
    (1, 16): 1, (1, 17): 2, (1, 18): 10, (1, 20): 2, (1, 23): 1, (1, 28): 1,
    (1, 31): 1, (1, 33): 2, (2, 1): 10, (2, 2): 2, (2, 3): 7, (2, 4): 6,
    (2, 5): 2, (2, 6): 6, (2, 7): 6, (2, 8): 2, (2, 10): 2, (2, 11): 1,
    (2, 12): 1, (2, 14): 2, (2, 17): 1, (2, 18): 2, (2, 19): 1, (6, 1): 2,
    (6, 2): 2, (6, 4): 1, (6, 6): 1,
}


def _factor_product(multiset: dict[str, int]) -> int:
    """The product of the factor orders: Cp has order p, An has n!/2."""
    orders = {
        label: int(label[1:]) if label[0] == "C" else factorial(int(label[1:])) // 2
        for label in multiset
    }
    return prod(orders[label] ** n for label, n in multiset.items())


@pytest.mark.extended
def test_criterion_11_extended_tier() -> None:
    rep13, *_ = _sg("psl2:13", threads=THREADS)
    assert rep13.order == 2**105
    assert fingerprint_recognize(rep13.fingerprint) == (54, 17)

    rep16, _, _, pc16, *_ = _sg("psl2:16", threads=THREADS)
    assert pc16.ell == 3756
    assert rep16.order == 1

    rep17, *_ = _sg("psl2:17", threads=THREADS)
    assert rep17.order == 2**254
    assert fingerprint_recognize(rep17.fingerprint) == (104, 50)

    rep19, *_ = _sg("psl2:19", threads=THREADS)
    assert rep19.order == 2**355
    assert fingerprint_recognize(rep19.fingerprint) == (133, 74)

    rep_a7, _, _, pc_a7, *_ = _sg("alternating:7", threads=THREADS)
    assert pc_a7.ell == 1832
    assert dict(Counter(rep_a7.simple_factors)) == A7_FACTORS
    assert rep_a7.order == _factor_product(A7_FACTORS)

    rep_l33, _, _, pc_l33, *_ = _sg("psl3:3", threads=THREADS)
    assert pc_l33.ell == 4848
    assert dict(Counter(rep_l33.simple_factors)) == PSL33_FACTORS
    assert rep_l33.order == _factor_product(PSL33_FACTORS)

    rep_m11, _, _, pc_m11, outs_m11, _, _, _ = _sg("m11", threads=THREADS)
    assert pc_m11.ell == 6478
    assert len(outs_m11) == 1
    assert rep_m11.num_orbits == 1114
    shapes = Counter((p["e_order"], p["s"]) for p in rep_m11.packets)
    assert dict(shapes) == M11_PACKET_SHAPES
    assert dict(Counter(rep_m11.simple_factors)) == M11_FACTORS
    assert rep_m11.order == _factor_product(M11_FACTORS)
    factored = factorint(rep_m11.order)
    big = {p: e for p, e in factored.items() if p >= 5}
    assert big == {5: 165, 7: 98, 11: 43, 13: 34, 17: 23, 19: 8, 23: 5, 29: 3, 31: 3}
    assert factored[2] == 1153
    assert factored[3] == 413
