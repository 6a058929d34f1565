"""Integer id columns of ElementTable against tuple arithmetic.

The BFS keeps one column per generator and its discovery tree; left,
right and conjugation columns, tree words, transporter ids and the pair
locator are all built from them and checked here against the list-form
product and the element index, on small groups in full and on a model
table of base images by sample.  The product kernel itself, and the whole
BFS, are checked against the list-form references in group_oracles.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from gtpairs import cli
from gtpairs.atlas import construct
from gtpairs.gbar import double_coset_survey
from gtpairs.pairs import PairLookupError, build_pc
from gtpairs.permcore import (
    IDENT256,
    ConjugacyClassTable,
    ElementTable,
    compose,
    composer,
    inverse,
    pack,
)
from group_oracles import (
    conjugate,
    list_compose,
    model_group,
    model_perm,
    reference_table,
    tuple_locate,
    tuple_model_table,
)

KERNEL_SPECS = ["symmetric:4", "alternating:5", "psl2:7", "dihedral:6", "quaternion8"]
LADDER_SPECS = [
    "cyclic:1", "cyclic:2", "dihedral:9", "alternating:4", "cyclic:12",
    "psl2:13", "psl3:3", "m11",
]
MODEL_SPECS = ["cyclic:1", "cyclic:5", "dihedral:5", "alternating:4"]
REGULAR_SPECS = ["cyclic:12", "quaternion8"]
MODEL_SAMPLES = 500


def _table(spec: str) -> ElementTable:
    g = construct(spec)
    return ElementTable(g.generators, g.degree)


def _check_columns(table: ElementTable, x: int, es) -> None:
    el, index = table.elements, table.index
    px, px_inv = el[x], el[table.inverse_id(x)]
    left = table.left_column(x)
    right = table.right_column(x)
    conj = table.conjugation_column(x)
    for e in es:
        assert left[e] == index[list_compose(px, el[e])]
        assert right[e] == index[list_compose(el[e], px)]
        assert conj[e] == index[conjugate(el[e], px)]
        assert conj[e] == index[list_compose(list_compose(px_inv, el[e]), px)]


def _tuples(table: ElementTable) -> tuple[list, dict]:
    """The table's elements and index with every element as a tuple, after
    checking that the elements have the table's form: bytes when packed."""
    form = bytes if table.packed else tuple
    assert all(type(e) is form for e in table.elements)
    el = [tuple(e) for e in table.elements]
    return el, {tuple(e): i for e, i in table.index.items()}


def _check_generator_columns_and_words(table: ElementTable) -> None:
    el, index = _tuples(table)
    for s, g in enumerate(table.generators):
        assert table.gen_cols[s] == [index[list_compose(e, g)] for e in el]
    for i, e in enumerate(el):
        built = el[0]
        for s in table.word(i):
            built = list_compose(built, table.generators[s])
        assert built == e
        if i:
            assert len(table.word(i)) == len(table.word(table.parent[i])) + 1


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_columns_match_tuple_arithmetic(spec) -> None:
    table = _table(spec)
    _check_generator_columns_and_words(table)
    every = range(table.order)
    for x in every:
        _check_columns(table, x, every)


def test_model_table_columns_match_tuple_arithmetic() -> None:
    """The base-image model table's generator columns, words and left
    columns, against products in the permutation model table."""
    gbar = model_group(construct("alternating:4"))
    table, tuples = gbar.table, tuple_model_table(gbar)
    _check_generator_columns_and_words(table)
    el, index = tuples.elements, tuples.index
    rng = random.Random(12)
    for _ in range(MODEL_SAMPLES):
        x, e = rng.randrange(table.order), rng.randrange(table.order)
        assert model_perm(gbar, x) == el[x]
        assert table.left_column(x)[e] == index[list_compose(el[x], el[e])]


def test_compose_matches_list_form() -> None:
    rng = random.Random(56)
    for degree in range(1, 41):
        for _ in range(20):
            p, q = list(range(degree)), list(range(degree))
            rng.shuffle(p)
            rng.shuffle(q)
            p, q = tuple(p), tuple(q)
            got = compose(p, q)
            assert type(got) is tuple
            assert got == list_compose(p, q)


def test_packed_kernel_matches_list_form() -> None:
    """pack, compose, composer and inverse on packed permutations, and the
    base-image step (short bytes times a packed permutation), against the
    list-form product on every degree 1-40 and 250-256."""
    rng = random.Random(57)
    for degree in [*range(1, 41), *range(250, 257)]:
        for _ in range(5):
            p, q = list(range(degree)), list(range(degree))
            rng.shuffle(p)
            rng.shuffle(q)
            p, q = tuple(p), tuple(q)
            pp, pq = pack(p), pack(q)
            assert len(pp) == 256 and tuple(pp[:degree]) == p
            assert pp[degree:] == IDENT256[degree:]
            want = pack(list_compose(p, q))
            assert compose(pp, pq) == want
            assert composer(pp)(pq) == want
            p_inv = tuple(sorted(range(degree), key=p.__getitem__))
            assert inverse(pp) == pack(p_inv)
            assert compose(pp, inverse(pp)) == IDENT256
            start = bytes(rng.sample(range(degree), min(degree, 9)))
            assert composer(start)(pq) == bytes(list_compose(tuple(start), q))


def _check_against_reference(table: ElementTable) -> None:
    ref = reference_table(table.generators, table.degree, table.elements[0])
    el, index = _tuples(table)
    assert el == ref.elements
    assert index == ref.index
    assert table.gen_cols == ref.gen_cols
    assert list(table.parent) == ref.parent
    assert list(table.letter) == ref.letter


@pytest.mark.parametrize("spec", LADDER_SPECS)
def test_element_table_matches_reference_bfs(spec) -> None:
    _check_against_reference(_table(spec))


@pytest.mark.parametrize("spec", MODEL_SPECS)
def test_model_table_matches_reference_bfs(spec) -> None:
    # the model of cyclic:1 has one window, so its base images are 1-tuples
    gbar = model_group(construct(spec))
    _check_against_reference(gbar.table)


@pytest.mark.parametrize("spec", REGULAR_SPECS)
def test_one_point_base_image_table_matches_reference_bfs(spec) -> None:
    # a regular group is determined by the image of one point: 1-tuple products
    g = construct(spec)
    table = ElementTable(g.generators, g.degree, start=(0,))
    assert table.order == g.order
    assert all(len(e) == 1 for e in table.elements)
    _check_against_reference(table)


def _new_locate(pcset, g, h):
    try:
        return pcset.locate(g, h)
    except PairLookupError as err:
        assert f"pair ({g}, {h})" in str(err)
        return None


@pytest.mark.parametrize("spec, samples", [
    ("psl2:7", None), ("symmetric:4", None), ("alternating:7", 2000),
])
def test_locate_matches_tuple_oracle(spec, samples) -> None:
    table = _table(spec)
    pcset = build_pc(table, ConjugacyClassTable(table))
    n = table.order
    if samples is None:
        pairs = [(g, h) for g in range(n) for h in range(n)]
    else:
        rng = random.Random(34)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
    located = 0
    for g, h in pairs:
        got = _new_locate(pcset, g, h)
        assert got == tuple_locate(pcset, g, h)
        located += got is not None
    assert located > 0


def test_tables_are_freed_without_the_cycle_collector() -> None:
    # a back-reference from a table's contents to the table would keep dead
    # tables alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        table = _table("psl2:7")
        classes = ConjugacyClassTable(table)
        classes.centralizer_ids(len(classes.reps) - 1)
        pcset = build_pc(table, classes)
        pcset.locate(*pcset.reps[-1])
        gbar = model_group(construct("dihedral:5"))
        double_coset_survey(gbar)
        refs = {
            "PcSet": weakref.ref(pcset),
            "ConjugacyClassTable": weakref.ref(classes),
            "ElementTable": weakref.ref(table),
            "GbarGroup": weakref.ref(gbar),
            "model ElementTable": weakref.ref(gbar.table),
        }
        del pcset
        assert refs["PcSet"]() is None
        del classes
        assert refs["ConjugacyClassTable"]() is None
        del table
        assert refs["ElementTable"]() is None
        del gbar
        assert refs["GbarGroup"]() is None
        assert refs["model ElementTable"]() is None
    finally:
        gc.enable()


# whole-table column passes on the base table in one `sg`: the class table's
# conjugation columns, each sweep's right and centralizer columns, one
# conjugation column per transported class and the action stage's right
# columns (two for the base pair, two per other candidate)
COLUMN_PASSES = {"psl2:9": 30, "psl2:13": 25, "alternating:7": 31, "m11": 34, "psl3:3": 43}


@pytest.mark.parametrize("spec", sorted(COLUMN_PASSES))
def test_sg_column_passes_on_the_base_table(spec, monkeypatch, capsys) -> None:
    calls: list[ElementTable] = []
    original = ElementTable.left_column

    def counting(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(ElementTable, "left_column", counting)
    assert cli.run(["sg", spec, "--threads", "1"]) == 0
    capsys.readouterr()
    base = calls[0]  # the class table reads the base table's columns first
    assert base.order == construct(spec).order
    assert sum(t is base for t in calls) == COLUMN_PASSES[spec]
