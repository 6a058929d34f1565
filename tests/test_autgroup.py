from __future__ import annotations

import itertools

import pytest

from gtpairs.atlas import construct
from gtpairs.autgroup import out_representatives
from gtpairs.pairs import build_pc
from gtpairs.permcore import ConjugacyClassTable, ElementTable, parse_cycles
from group_oracles import extend_pair


def _tables(spec):
    g = construct(spec)
    table = ElementTable(g.generators, g.degree)
    classes = ConjugacyClassTable(table)
    return table, classes


def test_identity_extension() -> None:
    table, _ = _tables("symmetric:3")
    x = table.index[parse_cycles("(1,2)", 3)]
    y = table.index[parse_cycles("(1,2,3)", 3)]
    m = extend_pair(table, (x, y), (x, y))
    assert m == list(range(table.order))


def test_inner_extension_s3() -> None:
    table, _ = _tables("symmetric:3")
    x = table.index[parse_cycles("(1,2)", 3)]
    y = table.index[parse_cycles("(1,2,3)", 3)]
    x2 = table.index[parse_cycles("(1,3)", 3)]
    m = extend_pair(table, (x, y), (x2, y))
    assert m is not None
    # verify multiplicativity on every pair of elements
    for a, b in itertools.product(range(table.order), repeat=2):
        assert m[table.mul(a, b)] == table.mul(m[a], m[b])


def test_extension_fails_on_order_mismatch() -> None:
    table, _ = _tables("symmetric:3")
    x = table.index[parse_cycles("(1,2)", 3)]
    y = table.index[parse_cycles("(1,2,3)", 3)]
    y2 = table.index[parse_cycles("(1,3)", 3)]
    assert extend_pair(table, (x, y), (x, y2)) is None


def test_extension_fails_when_no_automorphism_exists() -> None:
    # in S4 the centralizer of (1,2) reaches only four of the 4-cycles from
    # (1,2,3,4), and Aut(S4) is inner, so this target is unreachable
    table, _ = _tables("symmetric:4")
    x = table.index[parse_cycles("(1,2)", 4)]
    y = table.index[parse_cycles("(1,2,3,4)", 4)]
    y2 = table.index[parse_cycles("(1,3,2,4)", 4)]
    assert extend_pair(table, (x, y), (x, y2)) is None


def test_extension_rejects_non_generating_input() -> None:
    table, _ = _tables("symmetric:3")
    y = table.index[parse_cycles("(1,2,3)", 3)]
    with pytest.raises(ValueError):
        extend_pair(table, (0, y), (0, y))


def _out_order(spec):
    table, classes = _tables(spec)
    pcset = build_pc(table, classes)
    return out_representatives(classes, pcset), pcset, table


def test_out_orders_small_groups() -> None:
    assert len(_out_order("symmetric:3")[0]) == 1
    assert len(_out_order("symmetric:4")[0]) == 1
    assert len(_out_order("cyclic:5")[0]) == 4
    assert len(_out_order("dihedral:4")[0]) == 2
    assert len(_out_order("dihedral:5")[0]) == 2
    assert len(_out_order("quaternion8")[0]) == 6
    assert len(_out_order("alternating:4")[0]) == 2


def test_out_order_psl28_frozen_oracle() -> None:
    # oracle: brute-force |Aut| = 1512 = 3 * |G|, so |Out| = 3
    outs, pcset, _ = _out_order("psl2:8")
    assert len(outs) == 3
    assert pcset.ell % 3 == 0


def test_first_entry_identity_and_inner() -> None:
    for spec in ("cyclic:5", "dihedral:4", "quaternion8"):
        outs, pcset, table = _out_order(spec)
        assert outs[0] == list(range(table.order))
        # entry 0 maps the base pair to itself, and the maps land in
        # pairwise distinct pair classes
        g, h = pcset.reps[0]
        assert (outs[0][g], outs[0][h]) == (g, h)
        targets = {pcset.locate(m[g], m[h]) for m in outs}
        assert len(targets) == len(outs)


def test_out_maps_are_automorphisms() -> None:
    outs, _, table = _out_order("dihedral:4")
    for m in outs:
        assert sorted(m) == list(range(table.order))
        for a, b in itertools.product(range(table.order), repeat=2):
            assert m[table.mul(a, b)] == table.mul(m[a], m[b])


def test_cyclic5_out_maps_are_power_maps() -> None:
    outs, _, table = _out_order("cyclic:5")
    gen = 1  # the table generator g
    images_of_gen = {m[gen] for m in outs}
    assert images_of_gen == {1, 2, 3, 4}


UNFILTERED_SPECS = [
    "quaternion8", "cyclic:12", "dihedral:15", "psl2:9", "alternating:6", "psl2:13",
] + [
    pytest.param(spec, marks=pytest.mark.extended)
    for spec in ("psl2:16", "alternating:7")
]


@pytest.mark.parametrize("spec", UNFILTERED_SPECS)
def test_out_representatives_match_unfiltered_extension(spec) -> None:
    # the class-order, class-size and product-stat filters only skip reps
    # that no automorphism reaches: extending onto every rep finds the same
    # maps in the same order
    table, classes = _tables(spec)
    pcset = build_pc(table, classes)
    base = pcset.reps[0]
    want = [m for m in (extend_pair(table, base, rep) for rep in pcset.reps) if m]
    assert out_representatives(classes, pcset) == want
