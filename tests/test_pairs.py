from __future__ import annotations

import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from gtpairs import pairs
from gtpairs.atlas import construct
from gtpairs.autgroup import out_representatives
from gtpairs.cli import pair_stages
from gtpairs.pairs import (
    PairLookupError,
    block_partition,
    build_pc,
    coprime_powers,
    induced_perms,
)
from gtpairs.permcore import (
    ConjugacyClassTable,
    ElementTable,
    compose,
    generates,
    orbit,
)
from group_oracles import brute_build_pc, conjugate, coprime_power_sets, tuple_locate


def _tables(spec):
    g = construct(spec)
    table = ElementTable(g.generators, g.degree)
    classes = ConjugacyClassTable(table)
    return table, classes


def _mul(p, q):
    return tuple(q[i] for i in p)


def _inv(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def _closure_set(gens):
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


def _pair_classes_oracle(elements):
    """All generating pairs partitioned by simultaneous conjugation, brute force."""
    elements = list(elements)
    full = len(elements)
    pairs = [
        (g, h)
        for g in elements
        for h in elements
        if len(_closure_set([g, h])) == full
    ]
    classes = []
    assigned = set()
    for p in pairs:
        if p in assigned:
            continue
        orb = set()
        for t in elements:
            ti = _inv(t)
            orb.add((_mul(ti, _mul(p[0], t)), _mul(ti, _mul(p[1], t))))
        classes.append(orb)
        assigned |= orb
    return classes


def test_s3_pair_classes_against_oracle() -> None:
    table, classes = _tables("symmetric:3")
    pcset = build_pc(table, classes)
    oracle = _pair_classes_oracle(table.elements)
    assert len(oracle) == 3
    assert pcset.ell == 3
    # the library partition and the oracle partition agree
    for orb in oracle:
        ids = {pcset.locate(table.index[g], table.index[h]) for (g, h) in orb}
        assert len(ids) == 1


def test_s3_reps_are_canonical() -> None:
    table, classes = _tables("symmetric:3")
    pcset = build_pc(table, classes)
    for i, (g, h) in enumerate(pcset.reps):
        assert g == classes.reps[classes.class_of[g]]
        assert pcset.locate(g, h) == i


def test_cyclic5_ell_against_oracle() -> None:
    table, classes = _tables("cyclic:5")
    pcset = build_pc(table, classes)
    oracle = _pair_classes_oracle(table.elements)
    assert len(oracle) == 24
    assert pcset.ell == 24


def test_dihedral5_ell_against_oracle() -> None:
    table, classes = _tables("dihedral:5")
    pcset = build_pc(table, classes)
    oracle = _pair_classes_oracle(table.elements)
    assert len(oracle) == 6
    assert pcset.ell == 6


def test_locate_constant_on_orbits() -> None:
    table, classes = _tables("dihedral:5")
    pcset = build_pc(table, classes)
    for i, (g, h) in enumerate(pcset.reps):
        pg, ph = table.elements[g], table.elements[h]
        for t in table.elements:
            gi = table.index[conjugate(pg, t)]
            hi = table.index[conjugate(ph, t)]
            assert pcset.locate(gi, hi) == i


def test_locate_rejects_non_generating() -> None:
    table, classes = _tables("symmetric:3")
    pcset = build_pc(table, classes)
    with pytest.raises(PairLookupError):
        pcset.locate(0, 0)


def test_not_two_generated_gives_empty_pcset(tmp_path) -> None:
    # C2 x C2 x C2 needs three generators
    path = tmp_path / "c222.txt"
    path.write_text("degree 6\n(1,2)\n(3,4)\n(5,6)\n")
    g = construct(f"file:{path}")
    assert g.order == 8
    table = ElementTable(g.generators, g.degree)
    pcset = build_pc(table, ConjugacyClassTable(table))
    assert pcset.ell == 0


def test_trivial_group_pcset() -> None:
    table, classes = _tables("cyclic:1")
    pcset = build_pc(table, classes)
    assert pcset.ell == 1
    assert pcset.reps == [(0, 0)]


def test_threads_match_serial() -> None:
    for spec in ("symmetric:3", "dihedral:5", "psl2:13"):
        table, classes = _tables(spec)
        a = build_pc(table, classes, threads=1)
        b = build_pc(table, classes, threads=2)
        assert a.reps == b.reps
        assert a._lookup == b._lookup


def test_serial_sweep_keeps_no_table_alive() -> None:
    table, classes = _tables("psl2:7")
    pcset = build_pc(table, classes)
    ref = weakref.ref(table)
    del table, classes, pcset
    gc.collect()
    assert ref() is None


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the cids it
    maps, maps serially in this process and starts nothing."""

    seen: list[int] = []
    mapped: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.seen.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.mapped.extend(items)
        return map(fn, items)


@pytest.mark.parametrize(
    ("threads", "cpus", "workers"), [(8, 4, 4), (8, 64, 4), (3, 64, 3), (8, 1, None)]
)
def test_workers_bounded_by_classes_and_cpus(monkeypatch, threads, cpus, workers) -> None:
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "seen", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
    # 5 conjugacy classes; the two classes of order 5 are one rational
    # class, so 4 are swept
    table, classes = _tables("psl2:5")
    serial = build_pc(table, classes, threads=1)
    assert _SerialPool.seen == []
    pooled = build_pc(table, classes, threads=threads)
    assert _SerialPool.seen == ([] if workers is None else [workers])
    assert pooled.reps == serial.reps and pooled._lookup == serial._lookup


def _transported(table, classes):
    """The classes whose rep has a power in an earlier class."""
    powers, class_of = coprime_powers(table), classes.class_of
    return [
        c for c, g in enumerate(classes.reps) if min(class_of[a] for a in powers[g]) < c
    ]


def test_pool_maps_only_swept_classes(monkeypatch) -> None:
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "seen", [])
    monkeypatch.setattr(_SerialPool, "mapped", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)))
    table, classes = _tables("psl2:13")
    assert len(classes.reps) == 9
    pooled = build_pc(table, classes, threads=8)
    # the two classes of order 13 and the three of order 7 are power-related
    transported = _transported(table, classes)
    assert len(transported) == 3
    assert _SerialPool.mapped == [c for c in range(9) if c not in transported]
    assert _SerialPool.seen == [6]
    serial = build_pc(table, classes)
    assert pooled.reps == serial.reps and pooled._lookup == serial._lookup


ORACLE_SPECS = [
    "psl2:4", "psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11", "psl2:13",
    "alternating:5", "alternating:6", "alternating:7",
    "symmetric:4", "symmetric:5", "symmetric:6",
    "dihedral:6", "dihedral:15", "quaternion8", "cyclic:12", "psl3:3",
] + [
    pytest.param(spec, marks=pytest.mark.extended)
    for spec in ("m11", "psl2:16", "psl2:17", "psl2:19")
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_sweep_matches_per_orbit_oracle(spec) -> None:
    # one test per <g>-double coset numbers the classes exactly like one
    # test per C(g)-orbit with scanned centralizers
    table, classes = _tables(spec)
    got = build_pc(table, classes)
    want = brute_build_pc(table, classes)
    assert got.reps == want.reps
    assert got._lookup == want._lookup


# m11 runs here at tier 1: its classes 8a/8b and 11a/11b are transported
@pytest.mark.parametrize("spec", ORACLE_SPECS[:-4] + [
    "m11", *(pytest.param(spec, marks=pytest.mark.extended)
             for spec in ("psl2:16", "psl2:17", "psl2:19")),
])
def test_transported_classes_match_a_direct_sweep(spec) -> None:
    # a transported class holds what sweeping it from scratch would give:
    # the same least h per orbit, numbered in the same order
    table, classes = _tables(spec)
    pcset = build_pc(table, classes)
    transitive = len(orbit(table.generators, 0)) == table.degree
    powers = coprime_powers(table)
    try:
        for cid in _transported(table, classes):
            pairs._init_sweep(table, classes, transitive, powers)
            local_reps, assign = pairs._sweep_class(cid)
            g = classes.reps[cid]
            got = [i for i, (rep_g, _) in enumerate(pcset.reps) if rep_g == g]
            assert [pcset.reps[i][1] for i in got] == local_reps
            offset = got[0] if got else 0
            assert pcset._lookup[cid] == [offset + a if a >= 0 else a for a in assign]
    finally:
        pairs._SWEEP_STATE.clear()


@pytest.mark.parametrize("spec", ["psl2:7", "psl2:13", "alternating:7", "psl3:3", "m11"])
def test_verdicts_read_from_earlier_classes_match_generates(monkeypatch, spec) -> None:
    # the sweep carries no pair to its rep but (a, g), a in an earlier swept
    # class, and (a, g) generates exactly when it locates
    reads = []
    original = ConjugacyClassTable.to_rep

    def recording(self, a, g):
        reads.append((a, g))
        return original(self, a, g)

    monkeypatch.setattr(ConjugacyClassTable, "to_rep", recording)
    table, classes = _tables(spec)
    pcset = build_pc(table, classes)
    monkeypatch.undo()  # locate below walks through to_rep too
    elements, degree, n = table.elements, table.degree, table.order
    verdicts = set()
    for a, g in reads:
        assert classes.class_of[a] < classes.class_of[g]
        want = generates([elements[a], elements[g]], degree, n)
        try:
            pcset.locate(a, g)
        except PairLookupError:
            assert not want
        else:
            assert want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("threads", [1, 2])
def test_short_centralizer_fails_the_generating_orbit_check(threads) -> None:
    # C(g) meets C(h) in Z(G) when <g, h> = G, so a generating C(g)-orbit
    # has |C(g)|/|Z(G)| members; walked on one of the two generators of an
    # involution's centralizer V4 in A5, it has 2, not 4
    table, classes = _tables("alternating:5")
    cid = next(c for c, o in enumerate(classes.class_orders) if o == 2)
    cent = classes.centralizer_ids(cid)
    assert len(cent) == 2
    classes._centralizer_ids[cid] = cent[:1]  # the cache the sweep reads
    with pytest.raises(RuntimeError, match="generating-orbit check failed: class"):
        build_pc(table, classes, threads=threads)
    assert not pairs._SWEEP_STATE  # a failed sweep keeps no table alive


@pytest.mark.parametrize(
    "spec",
    ["cyclic:1", "cyclic:12", "cyclic:30", "dihedral:12", "quaternion8",
     "symmetric:4", "alternating:7", "psl2:13"],
)
def test_coprime_powers_match_oracle(spec) -> None:
    table, _ = _tables(spec)
    powers = coprime_powers(table)
    want = coprime_power_sets(table.elements)
    assert len(powers) == len(want) == table.order
    for e, ids in enumerate(powers):
        assert e in ids
        assert len(ids) == len(want[e])
        assert {table.elements[f] for f in ids} == want[e]
        # the generators of <e> share one list
        assert all(powers[f] is ids for f in ids)


GENERATION_TESTS = [
    ("psl2:5", 4), ("psl2:7", 8), ("psl2:9", 6), ("psl2:11", 17),
    ("psl2:13", 7), ("alternating:7", 21), ("psl3:3", 15),
    pytest.param("m11", 19, marks=pytest.mark.extended),
    pytest.param("alternating:8", 77, marks=pytest.mark.extended),
]


@pytest.mark.parametrize("spec, tests", GENERATION_TESTS)
def test_generation_test_counts(monkeypatch, spec, tests) -> None:
    # the closure of the sweep's moves, the transported classes and the
    # verdicts read from earlier classes fix which h are tested, so the serial
    # count is exact: a lost move, a narrower spread or a missed read tests more h
    calls = []

    def counting(*args):
        calls.append(args)
        return generates(*args)

    monkeypatch.setattr("gtpairs.pairs.generates", counting)
    table, classes = _tables(spec)
    build_pc(table, classes)
    assert len(calls) == tests


def test_s3_induced_theta_delta() -> None:
    table, classes = _tables("symmetric:3")
    pcset = build_pc(table, classes)
    outs = out_representatives(classes, pcset)
    ind = induced_perms(pcset, outs)
    assert ind.theta == (2, 1, 0)
    assert ind.delta == (0, 2, 1)
    assert ind.out_perms == [(0, 1, 2)]


def test_theta_delta_relations_small_sweep() -> None:
    for spec in ("symmetric:3", "dihedral:4", "cyclic:5", "quaternion8"):
        table, classes = _tables(spec)
        pcset = build_pc(table, classes)
        outs = out_representatives(classes, pcset)
        ind = induced_perms(pcset, outs)
        ell = pcset.ell
        ident = tuple(range(ell))
        assert compose(ind.theta, ind.theta) == ident
        assert compose(ind.delta, ind.delta) == ident
        braid1 = compose(compose(ind.delta, ind.theta), ind.delta)
        braid2 = compose(compose(ind.theta, ind.delta), ind.theta)
        assert braid1 == braid2
        for p in ind.out_perms:
            assert compose(p, ind.theta) == compose(ind.theta, p)
            assert compose(p, ind.delta) == compose(ind.delta, p)


@pytest.mark.parametrize(
    "spec, out_order",
    [("symmetric:4", 1), ("psl2:7", 2), ("psl2:8", 3), ("psl2:9", 4)],
)
def test_induced_perms_match_tuple_locate(spec, out_order) -> None:
    """theta and delta are carried along outer orbits; each class's image
    is checked against (h, g) and ((gh)^-1, h) formed in tuple arithmetic
    and located by conjugating with the whole transporter."""
    table, classes = _tables(spec)
    pcset = build_pc(table, classes)
    outs = out_representatives(classes, pcset)
    assert len(outs) == out_order
    ind = induced_perms(pcset, outs)
    elements, index = table.elements, table.index
    for i, (g, h) in enumerate(pcset.reps):
        gh_inv = index[_inv(_mul(elements[g], elements[h]))]
        assert ind.theta[i] == tuple_locate(pcset, h, g)
        assert ind.delta[i] == tuple_locate(pcset, gh_inv, h)
        for m, perm in zip(outs, ind.out_perms):
            assert perm[i] == tuple_locate(pcset, m[g], m[h])


def test_induced_perms_refuse_an_outer_map_listed_twice() -> None:
    """The identity listed twice reaches every class twice: Out would not
    act freely, and carrying theta along orbits would be unsound."""
    table, classes = _tables("psl2:7")
    pcset = build_pc(table, classes)
    identity = out_representatives(classes, pcset)[0]
    with pytest.raises(RuntimeError, match="outer maps do not act freely"):
        induced_perms(pcset, [identity, identity])


def test_out_perms_act_freely() -> None:
    for spec in ("cyclic:5", "dihedral:4", "quaternion8"):
        table, classes = _tables(spec)
        pcset = build_pc(table, classes)
        outs = out_representatives(classes, pcset)
        ind = induced_perms(pcset, outs)
        for k, p in enumerate(ind.out_perms):
            if k == 0:
                assert p == tuple(range(pcset.ell))
            else:
                assert all(p[i] != i for i in range(pcset.ell))
        # the out perms are all of Out, so {p[i]} is the whole outer orbit of i
        least = {min(p[i] for p in ind.out_perms) for i in range(pcset.ell)}
        assert ind.orbit_reps == sorted(least)
        assert len(ind.orbit_reps) * len(ind.out_perms) == pcset.ell
        assert ind.orbit_of == [
            ind.orbit_reps.index(min(p[i] for p in ind.out_perms))
            for i in range(pcset.ell)
        ]


def test_block_partition_dihedral5() -> None:
    table, classes = _tables("dihedral:5")
    pcset = build_pc(table, classes)
    block_of = block_partition(pcset)
    assert sorted(Counter(block_of).values()) == [1, 1, 1, 1, 2]
    # one block per pair of member classes, numbered by first appearance
    keys = [(classes.class_of[g], classes.class_of[h]) for g, h in pcset.reps]
    first = list(dict.fromkeys(keys))
    assert block_of == [first.index(k) for k in keys]


def test_ell_multiple_of_out_order() -> None:
    for spec in ("symmetric:3", "symmetric:4", "cyclic:5", "cyclic:8",
                 "dihedral:4", "dihedral:5", "quaternion8", "alternating:4"):
        table, classes = _tables(spec)
        pcset = build_pc(table, classes)
        outs = out_representatives(classes, pcset)
        assert pcset.ell % len(outs) == 0


def test_pair_orbit_sizes_partition_pairs() -> None:
    # sum over classes of |G| / |C(g) cap C(h)| equals the number of
    # generating pairs, cross-checked against brute force
    table, classes = _tables("dihedral:5")
    pcset = build_pc(table, classes)
    total = 0
    for (g, h) in pcset.reps:
        pg, ph = table.elements[g], table.elements[h]
        stab = sum(
            1
            for t in table.elements
            if compose(t, pg) == compose(pg, t) and compose(t, ph) == compose(ph, t)
        )
        total += table.order // stab
    brute = sum(
        1
        for g, h in itertools.product(table.elements, repeat=2)
        if len(_closure_set([g, h])) == table.order
    )
    assert total == brute


def _eulerian_check(group) -> None:
    # a generating pair's conjugation stabilizer is C(g) cap C(h) = Z(G), so
    # every pair class holds |G:Z(G)| pairs
    table = ElementTable(group.generators, group.degree)
    pcset = build_pc(table, ConjugacyClassTable(table))
    elements = list(_closure_set(group.generators))
    assert len(elements) == table.order
    center = [z for z in elements if all(_mul(z, e) == _mul(e, z) for e in elements)]
    brute = sum(
        1
        for g, h in itertools.product(elements, repeat=2)
        if len(_closure_set([g, h])) == len(elements)
    )
    assert pcset.ell * (len(elements) // len(center)) == brute


@pytest.mark.parametrize(
    "spec",
    ["cyclic:6", "cyclic:12", "cyclic:30", "dihedral:3", "dihedral:4",
     "dihedral:5", "dihedral:6", "dihedral:8", "dihedral:12", "dihedral:15",
     "quaternion8", "symmetric:3", "alternating:4", "symmetric:4", "psl2:4",
     "psl2:5", "alternating:5",
     pytest.param("symmetric:5", marks=pytest.mark.extended),
     pytest.param("psl2:7", marks=pytest.mark.extended)],
)
def test_eulerian_identity(spec) -> None:
    _eulerian_check(construct(spec))


@pytest.mark.parametrize("spec, seed", [("alternating:5", 0), ("symmetric:4", 1)])
def test_eulerian_identity_on_a_relabelled_file_group(tmp_path, spec, seed) -> None:
    """A seeded random generating pair of the group, its points relabelled,
    read back through a `file:` spec."""
    rng = random.Random(seed)
    elements = sorted(_closure_set(construct(spec).generators))
    while True:
        pair = rng.choice(elements), rng.choice(elements)
        if len(_closure_set(list(pair))) == len(elements):
            break
    degree = len(elements[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    lines = [f"degree {degree}"]
    for p in pair:
        relabelled = [0] * degree
        for i, img in enumerate(p):
            relabelled[sigma[i]] = sigma[img]
        lines.append("images " + " ".join(str(img + 1) for img in relabelled))
    path = tmp_path / "group.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    group = construct(f"file:{path}")
    assert group.order == len(elements)
    _eulerian_check(group)


@pytest.mark.parametrize("spec, d2", [("psl2:4", 19), ("psl2:5", 19), ("psl2:7", 57)])
def test_hall_d2_published_values(spec, d2) -> None:
    # Hall (1936): A5 = PSL(2,4) = PSL(2,5) has d_2 = 19, PSL(2,7) has d_2 = 57
    stages = pair_stages(construct(spec))
    assert stages.pcset.ell // len(stages.ind.out_perms) == d2
    assert len(stages.ind.orbit_reps) == d2
