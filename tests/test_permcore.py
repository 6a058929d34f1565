from __future__ import annotations

import itertools

import pytest

from sympy.combinatorics import Permutation, PermutationGroup

from gtpairs.atlas import construct
from gtpairs.permcore import (
    CentralizerCheckError,
    ConjugacyClassTable,
    CycleFormatError,
    ElementTable,
    EnumerationCapError,
    StabilizerChain,
    compose,
    cycle_type,
    cycles,
    generates,
    identity_perm,
    inverse,
    parse_cycles,
    perm_order,
    subgroup_table,
)
from group_oracles import conjugate, scan_centralizer_ids, transporter_tuple


def _mul(p, q):
    # independent composition used by the oracle code in this file
    return tuple(q[i] for i in p)


def _inv(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def _closure(gens):
    """Brute-force closure, written without the library."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    queue = [ident]
    for e in queue:
        for g in gens:
            n = _mul(e, g)
            if n not in seen:
                seen.add(n)
                queue.append(n)
    return seen


def test_compose_is_right_action() -> None:
    p = parse_cycles("(1,2,3)", 5)
    q = parse_cycles("(3,4)(1,5)", 5)
    pq = compose(p, q)
    for i in range(5):
        assert pq[i] == q[p[i]]


def test_group_identities_over_all_of_s4() -> None:
    all_s4 = list(itertools.permutations(range(4)))
    for a in all_s4:
        assert compose(a, inverse(a)) == identity_perm(4)
    for a, b in itertools.product(all_s4[:8], all_s4[:8]):
        assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))
        assert conjugate(a, b) == compose(inverse(b), compose(a, b))
    for a, b, c in itertools.product(all_s4[:5], all_s4[:5], all_s4[:5]):
        assert conjugate(conjugate(a, b), c) == conjugate(a, compose(b, c))


def test_parse_cycles_basic() -> None:
    assert parse_cycles("(1,2,3)(4,5)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("(1 2 3)", 3) == (1, 2, 0)


def test_parse_cycles_errors() -> None:
    with pytest.raises(CycleFormatError):
        parse_cycles("(1,2,6)", 5)
    with pytest.raises(CycleFormatError):
        parse_cycles("(1,2)(2,3)", 5)
    with pytest.raises(CycleFormatError):
        parse_cycles("(1,2) junk", 5)
    with pytest.raises(CycleFormatError):
        parse_cycles("", 5)
    with pytest.raises(CycleFormatError):
        parse_cycles("(1,x)", 5)


def format_cycles(p) -> str:
    """The 1-based cycle notation that parse_cycles reads."""
    cycs = cycles(p)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(i + 1) for i in c) + ")" for c in cycs)


def test_format_parse_round_trip_over_s4() -> None:
    for p in itertools.permutations(range(4)):
        assert parse_cycles(format_cycles(p), 4) == p


def test_perm_order_and_cycles() -> None:
    p = parse_cycles("(1,2,3)(4,5)", 6)
    assert perm_order(p) == 6
    assert perm_order(identity_perm(4)) == 1
    assert cycles(p) == [(0, 1, 2), (3, 4)]
    assert cycle_type(p) == (3, 2, 1)


def test_bsgs_orders_match_brute_closure() -> None:
    cases = [
        [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)],
        [parse_cycles("(1,2,3)", 5), parse_cycles("(3,4,5)", 5)],
        [parse_cycles("(1,2,3,4,5)", 5)],
        [parse_cycles("(1,2,3)(4,5)", 5)],
        [parse_cycles("(1,4)(2,3,5)", 5)],
        [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)],
        [parse_cycles("(2,3)", 5), parse_cycles("(1,2,3,4,5)", 5)],
    ]
    for gens in cases:
        assert StabilizerChain(gens, len(gens[0])).exact_order() == len(_closure(gens))


def test_generates_early_stop() -> None:
    swap = parse_cycles("(1,2)", 5)
    cyc = parse_cycles("(1,2,3,4,5)", 5)
    assert generates([swap, cyc], 5, 120)
    assert not generates([swap], 5, 120)


def test_element_table_discovery_order() -> None:
    g = parse_cycles("(1,2,3,4,5,6,7)", 7)
    table = ElementTable([g], 7)
    assert table.order == 7
    expected = identity_perm(7)
    for i in range(7):
        assert table.elements[i] == expected
        expected = compose(expected, g)


def test_element_table_two_generators_deterministic() -> None:
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(1,2,3)", 3)
    table = ElementTable([a, b], 3)
    assert table.order == 6
    assert table.elements[0] == identity_perm(3)
    assert table.elements[1] == a
    assert table.elements[2] == b
    assert table.mul(1, 2) == table.index[compose(a, b)]
    for i in range(6):
        assert compose(table.elements[i], table.elements[table.inverse_id(i)]) == identity_perm(3)


def test_element_table_cap_error_names_flag() -> None:
    gens = [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)]
    with pytest.raises(EnumerationCapError, match="--cap"):
        ElementTable(gens, 5, cap=50)


def test_element_table_words_are_shortest() -> None:
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(1,2,3)", 3)
    table = ElementTable([a, b], 3)
    # oracle: BFS distances computed independently
    dist = {identity_perm(3): 0}
    queue = [identity_perm(3)]
    for e in queue:
        for g in (a, b):
            n = _mul(e, g)
            if n not in dist:
                dist[n] = dist[e] + 1
                queue.append(n)
    for i, e in enumerate(table.elements):
        word = table.word(i)
        assert len(word) == dist[e]
        built = identity_perm(3)
        for gi in word:
            built = compose(built, (a, b)[gi])
        assert built == e


def _conjugacy_partition_oracle(gens):
    """Brute-force conjugacy classes, independent of the library."""
    elements = sorted(_closure(gens))
    unassigned = set(elements)
    classes = []
    while unassigned:
        rep = next(iter(unassigned))
        cls = {_mul(_inv(t), _mul(rep, t)) for t in elements}
        classes.append(cls)
        unassigned -= cls
    return classes


def test_conjugacy_classes_s3() -> None:
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    table = ElementTable(gens, 3)
    classes = ConjugacyClassTable(table)
    assert len(classes.reps) == 3
    assert sorted(classes.sizes) == [1, 2, 3]
    assert classes.center_ids == [0]
    assert max(classes.sizes) == 3


def test_conjugacy_classes_dihedral5_against_oracle() -> None:
    s = tuple((-i) % 5 for i in range(5))
    t = tuple((1 - i) % 5 for i in range(5))
    oracle = _conjugacy_partition_oracle([s, t])
    assert len(oracle) == 4
    assert sorted(len(c) for c in oracle) == [1, 2, 2, 5]
    table = ElementTable([s, t], 5)
    classes = ConjugacyClassTable(table)
    assert len(classes.reps) == 4
    assert sorted(classes.sizes) == [1, 2, 2, 5]
    # library classes and oracle classes agree as partitions
    lib_classes = {
        frozenset(
            table.elements[e]
            for e in range(table.order)
            if classes.class_of[e] == c
        )
        for c in range(len(classes.reps))
    }
    assert lib_classes == {frozenset(c) for c in oracle}


def test_transporters_recompose() -> None:
    gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)]
    table = ElementTable(gens, 4)
    classes = ConjugacyClassTable(table)
    for e in range(table.order):
        rep = table.elements[classes.reps[classes.class_of[e]]]
        t = table.elements[classes.transporter_ids[e]]
        assert conjugate(rep, t) == table.elements[e]


def _centralizer_span(classes, cid):
    """The closure of centralizer_ids(cid), after checking that every
    generator commutes with the class representative."""
    table = classes.table
    rep = table.elements[classes.reps[cid]]
    gens = [table.elements[c] for c in classes.centralizer_ids(cid)]
    for c in gens:
        assert _mul(c, rep) == _mul(rep, c)
    return ElementTable(gens, table.degree)


def test_centralizer() -> None:
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    table = ElementTable(gens, 3)
    classes = ConjugacyClassTable(table)
    rot = table.index[parse_cycles("(1,2,3)", 3)]
    cent = _centralizer_span(classes, classes.class_of[rot])
    assert set(cent.elements) == {table.elements[c] for c in scan_centralizer_ids(table, rot)}
    assert cent.order == 3


def _class_tables(spec):
    g = construct(spec)
    table = ElementTable(g.generators, g.degree)
    return g, table, ConjugacyClassTable(table)


@pytest.mark.parametrize(
    "spec", ["symmetric:4", "alternating:5", "dihedral:6", "quaternion8", "psl2:7"]
)
def test_centralizer_of_every_element_matches_scan(spec) -> None:
    # C(e) = C(rep)^t for the transporter t of e, conjugated here by tuples
    _, table, classes = _class_tables(spec)
    spans = [_centralizer_span(classes, cid) for cid in range(len(classes.reps))]
    for e in range(table.order):
        t = table.elements[classes.transporter_ids[e]]
        cent = {_mul(_mul(_inv(t), c), t) for c in spans[classes.class_of[e]].elements}
        assert cent == {table.elements[c] for c in scan_centralizer_ids(table, e)}


@pytest.mark.parametrize("spec", ["psl2:13", "alternating:7", "psl3:3"])
def test_class_centralizer_orders_match_sympy(spec) -> None:
    g, table, classes = _class_tables(spec)
    group = PermutationGroup([Permutation(list(p)) for p in g.generators])
    for cid, rep in enumerate(classes.reps):
        want = group.centralizer(Permutation(list(table.elements[rep]))).order()
        assert _centralizer_span(classes, cid).order == want


def test_centralizer_ids_are_cached_per_class() -> None:
    _, _, classes = _class_tables("psl2:7")
    assert classes.centralizer_ids(2) is classes.centralizer_ids(2)


def test_subgroup_table_draws_nothing_once_the_span_reaches_order() -> None:
    rot, swap = parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)

    def candidates():
        yield rot
        yield swap
        raise AssertionError("a candidate was drawn after the span reached order")

    sub = subgroup_table(candidates(), 4, order=8)
    assert sub.order == 8
    assert sub.generators == [rot, swap]
    assert subgroup_table([rot, compose(rot, rot), swap], 4).generators == [rot, swap]


@pytest.mark.parametrize("spec", ["symmetric:4", "psl2:7"])
def test_class_orders_hold_for_every_member(spec) -> None:
    _, table, classes = _class_tables(spec)
    for e, p in enumerate(table.elements):
        assert classes.class_orders[classes.class_of[e]] == perm_order(p)


def test_centralizer_check_names_wrong_class_size() -> None:
    _, table, classes = _class_tables("psl2:5")
    classes.sizes[1] //= 2
    with pytest.raises(CentralizerCheckError, match="centralizer check failed"):
        classes.centralizer_ids(1)


def test_transporter_pair_s3_example() -> None:
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    table = ElementTable(gens, 3)
    classes = ConjugacyClassTable(table)
    a = table.index[parse_cycles("(1,2)", 3)]
    b = table.index[parse_cycles("(2,3)", 3)]
    a2 = table.index[parse_cycles("(2,3)", 3)]
    b2 = table.index[parse_cycles("(1,3)", 3)]
    t = transporter_tuple(classes, (a, b), (a2, b2))
    # the solution is unique here and equals (1,2,3); verify by composition
    assert t == parse_cycles("(1,2,3)", 3)
    assert conjugate(table.elements[a], t) == table.elements[a2]
    assert conjugate(table.elements[b], t) == table.elements[b2]


def test_transporter_pair_none_cases() -> None:
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    table = ElementTable(gens, 3)
    classes = ConjugacyClassTable(table)
    swap = table.index[parse_cycles("(1,2)", 3)]
    rot = table.index[parse_cycles("(1,2,3)", 3)]
    other = table.index[parse_cycles("(1,3)", 3)]
    assert transporter_tuple(classes, (swap, swap), (rot, rot)) is None
    assert transporter_tuple(classes, (swap, swap), (swap, other)) is None


def test_transporter_tuple() -> None:
    gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)]
    table = ElementTable(gens, 4)
    classes = ConjugacyClassTable(table)
    g = table.index[parse_cycles("(1,2,3)", 4)]
    h = table.index[parse_cycles("(1,2)", 4)]
    k = table.index[parse_cycles("(3,4)", 4)]
    t = parse_cycles("(1,4,2)", 4)
    imgs = tuple(
        table.index[conjugate(table.elements[e], t)] for e in (g, h, k)
    )
    found = transporter_tuple(classes, (g, h, k), imgs)
    assert found is not None
    for e, img in zip((g, h, k), imgs):
        assert table.index[conjugate(table.elements[e], found)] == img
    # non-simultaneously-conjugate tuples
    assert transporter_tuple(classes, (g, h), (g, k)) is None
