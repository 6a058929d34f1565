from __future__ import annotations

import time

import pytest

from gtpairs.atlas import construct
from gtpairs.dessins import (
    DessinError,
    DessinXY,
    analyze_dessin,
    cyclic_structures,
    load_dessin,
)
from gtpairs.pairs import build_pc
from gtpairs.permcore import (
    ConjugacyClassTable,
    ElementTable,
    compose,
    generates,
    inverse,
    parse_cycles,
)
from group_oracles import (
    GammaStructure,
    derived_subgroup,
    element_order,
    triple_isomorphic,
)

TETRA_X = "(1,2,3)(4,5,6)(7,8,9)(10,11,12)"
TETRA_Y = "(1,4)(2,10)(3,7)(5,9)(6,11)(8,12)"

_CACHE: dict = {}


def _tetrahedron():
    """Analyze the twelve-dart tetrahedron once and reuse the result."""
    if "tetra" not in _CACHE:
        d = DessinXY(12, parse_cycles(TETRA_X, 12), parse_cycles(TETRA_Y, 12))
        _CACHE["tetra"] = (d, analyze_dessin(d))
    return _CACHE["tetra"]


def _tetra_classes() -> ConjugacyClassTable:
    if "tetra_classes" not in _CACHE:
        _, a = _tetrahedron()
        _CACHE["tetra_classes"] = ConjugacyClassTable(a.table)
    return _CACHE["tetra_classes"]


def test_load_dessin_roundtrip(tmp_path) -> None:
    path = tmp_path / "tetra.txt"
    path.write_text(
        "# twelve darts\n\ndarts 12\n" + TETRA_X + "\n" + TETRA_Y + "\n",
        encoding="utf-8",
    )
    d = load_dessin(str(path))
    assert d.darts == 12
    assert d.x == parse_cycles(TETRA_X, 12)
    assert d.y == parse_cycles(TETRA_Y, 12)


def test_load_dessin_errors(tmp_path) -> None:
    cases = [
        "degree 12\n(1,2)\n(1,2)\n",
        "darts twelve\n(1,2)\n(1,2)\n",
        "darts 0\n()\n()\n",
        "darts 2\n(1,2)\n",
        "darts 2\n(1,2)\n(1,2)\n(1,2)\n",
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DessinError):
            load_dessin(str(path))
    path = tmp_path / "garbage.txt"
    path.write_text("darts 2\n(1,2)\nnot cycles\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_dessin(str(path))


def test_load_dessin_refuses_huge_dart_count(tmp_path) -> None:
    path = tmp_path / "huge.txt"
    path.write_text("darts 1000000000000\n(1,2)\n(1,2)\n", encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(DessinError, match="darts N must lie in 1..1000000"):
        load_dessin(str(path))
    assert time.perf_counter() - start < 1.0


def test_dessin_domain_mismatch() -> None:
    with pytest.raises(DessinError):
        DessinXY(3, (1, 0), (0, 1, 2))


def test_one_dart_regular() -> None:
    a = analyze_dessin(DessinXY(1, (0,), (0,)))
    assert a.monodromy_order == 1
    assert a.transitive
    assert a.regular


def test_two_darts_not_transitive() -> None:
    a = analyze_dessin(DessinXY(2, (0, 1), (0, 1)))
    assert not a.transitive
    assert not a.regular


def test_tetrahedron_analysis() -> None:
    d, a = _tetrahedron()
    assert a.monodromy_order == 12
    assert a.transitive
    assert a.regular
    der = derived_subgroup(a.table)
    assert der.order == 4
    for i in range(der.order):
        assert element_order(der, i) in (1, 2)


def test_tetrahedron_action_free() -> None:
    _, a = _tetrahedron()
    for e in a.table.elements[1:]:
        for dart in range(12):
            assert e[dart] != dart


def test_triple_identical_true() -> None:
    d, a = _tetrahedron()
    cls = _tetra_classes()
    t = a.table
    s = GammaStructure(t, t.index[d.x], t.index[d.y], (t.index[d.x],))
    assert triple_isomorphic(cls, s, s)


def test_triple_conjugate_images_true() -> None:
    d, a = _tetrahedron()
    cls = _tetra_classes()
    t = a.table
    gx, gy = t.index[d.x], t.index[d.y]
    z = t.index[d.x]
    for w in range(t.order):
        zw = t.mul(t.mul(t.inverse_id(w), z), w)
        s1 = GammaStructure(t, gx, gy, (z,))
        s2 = GammaStructure(t, gx, gy, (zw,))
        assert triple_isomorphic(cls, s1, s2)


def test_triple_generator_vs_inverse_false() -> None:
    d, a = _tetrahedron()
    cls = _tetra_classes()
    t = a.table
    gx, gy = t.index[d.x], t.index[d.y]
    s1 = GammaStructure(t, gx, gy, (t.index[d.x],))
    s2 = GammaStructure(t, gx, gy, (t.index[inverse(d.x)],))
    assert not triple_isomorphic(cls, s1, s2)


def test_triple_incompatible_tables_error() -> None:
    d, a = _tetrahedron()
    cls = _tetra_classes()
    g = construct("symmetric:3")
    other = ElementTable(g.generators, g.degree)
    t = a.table
    gx, gy = t.index[d.x], t.index[d.y]
    s1 = GammaStructure(t, gx, gy, (0,))
    s2 = GammaStructure(other, 0, 0, (0,))
    with pytest.raises(DessinError):
        triple_isomorphic(cls, s1, s2)
    s3 = GammaStructure(t, gx, gy, (0, 0))
    with pytest.raises(DessinError):
        triple_isomorphic(cls, s1, s3)


def test_cyclic_structure_checks_order() -> None:
    d, a = _tetrahedron()
    t = a.table
    pair = (t.index[d.x], t.index[d.y])
    with pytest.raises(DessinError, match="cyclic order must be positive"):
        cyclic_structures(_tetra_classes(), pair, 0)


def test_cyclic_structures_tetrahedron() -> None:
    """The regular tetrahedron carries exactly two nontrivial 3-structures."""
    d, a = _tetrahedron()
    cls = _tetra_classes()
    t = a.table
    reps = cyclic_structures(cls, (t.index[d.x], t.index[d.y]), 3)
    assert len(reps) == 3
    assert reps[0] == 0
    orders = sorted(element_order(t, z) for z in reps)
    assert orders == [1, 3, 3]
    conj_count = len(
        {
            cls.class_of[i]
            for i in range(t.order)
            if 3 % element_order(t, i) == 0
        }
    )
    assert conj_count == len(reps)


def test_cyclic_structures_trivial_and_coprime() -> None:
    g = construct("symmetric:3")
    t = ElementTable(g.generators, g.degree)
    cls = ConjugacyClassTable(t)
    pair = (t.index[g.generators[0]], t.index[g.generators[1]])
    ones = cyclic_structures(cls, pair, 1)
    assert ones == [0]
    assert len(cyclic_structures(cls, pair, 5)) == 1


def _regular_dessin(spec: str) -> DessinXY:
    """The regular dessin of a group: its generators acting on the right of
    its own elements."""
    g = construct(spec)
    t = ElementTable(g.generators, g.degree)
    x, y = (
        tuple(t.index[compose(e, gen)] for e in t.elements) for gen in g.generators
    )
    return DessinXY(t.order, x, y)


def test_cyclic_structures_match_pairwise_isomorphism_oracle() -> None:
    """One structure per conjugacy class, as the pairwise triple test finds."""
    tetra, _ = _tetrahedron()
    for d in (tetra, _regular_dessin("alternating:5"), _regular_dessin("symmetric:4")):
        a = analyze_dessin(d)
        assert a.regular
        t = a.table
        cls = ConjugacyClassTable(t)
        pair = (t.index[d.x], t.index[d.y])
        for n in range(1, 7):
            oracle: list[GammaStructure] = []
            for z in range(t.order):
                if n % element_order(t, z):
                    continue
                cand = GammaStructure(t, pair[0], pair[1], (z,))
                if not any(triple_isomorphic(cls, cand, r) for r in oracle):
                    oracle.append(cand)
            got = cyclic_structures(cls, pair, n)
            assert [(z,) for z in got] == [r.image_ids for r in oracle]


def test_cyclic_structures_requires_generating_pair() -> None:
    g = construct("symmetric:3")
    t = ElementTable(g.generators, g.degree)
    cls = ConjugacyClassTable(t)
    rot = parse_cycles("(1,2,3)", 3)
    with pytest.raises(DessinError):
        cyclic_structures(cls, (t.index[rot], t.index[rot]), 3)


def test_triple_isomorphism_is_equivalence() -> None:
    d, a = _tetrahedron()
    cls = _tetra_classes()
    t = a.table
    gx, gy = t.index[d.x], t.index[d.y]
    triples = [
        GammaStructure(t, gx, gy, (z,))
        for z in range(t.order)
        if 3 % element_order(t, z) == 0
    ]
    m = len(triples)
    rel = [
        [triple_isomorphic(cls, triples[i], triples[j]) for j in range(m)]
        for i in range(m)
    ]
    for i in range(m):
        assert rel[i][i]
        for j in range(m):
            assert rel[i][j] == rel[j][i]
            for k in range(m):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_generating_pair_triples_match_pair_classes() -> None:
    """Identity-image triples over all generating pairs refine to ell classes."""
    for spec, want_pairs, want_classes in [
        ("symmetric:3", 18, 3),
        ("alternating:4", 96, 8),
    ]:
        g = construct(spec)
        t = ElementTable(g.generators, g.degree)
        cls = ConjugacyClassTable(t)
        pc = build_pc(t, cls)
        fixed = tuple(t.index[p] for p in t.generators)
        pairs = [
            (i, j)
            for i in range(t.order)
            for j in range(t.order)
            if generates([t.elements[i], t.elements[j]], t.degree, t.order)
        ]
        assert len(pairs) == want_pairs
        reps: list[GammaStructure] = []
        for i, j in pairs:
            cand = GammaStructure(t, i, j, fixed)
            if not any(triple_isomorphic(cls, cand, r) for r in reps):
                reps.append(cand)
        assert len(reps) == want_classes
        assert pc.ell == want_classes
