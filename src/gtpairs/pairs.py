"""Generating pairs of a finite group up to conjugation.

A pair class is the conjugation orbit of an ordered generating pair (g, h).
Classes are canonically numbered: conjugacy classes of g in table order;
within one class, by the least h of each C(g)-orbit, ascending.  The
canonical representative of a class is (class rep of g, that least h).

Two symmetries cut the work (P. Hall, "The Eulerian functions of a group",
1936).  C(g) = C(g^k) and <g, h> = <g^k, h> for k prime to |g|, so only one
g-class per rational class is swept: a class whose rep has a power in an
earlier class is transported from that class by one column of the class
table (`ConjugacyClassTable.to_rep_column`).
And <g, h> = <a, g> for a generator a of <h> or of <h g>, so before a sweep
tests a pair it reads the verdict of (a, g) from a class this process has
already swept.  One verdict, read or tested, settles every h reached by
h -> h g and h -> h^k, k prime to |h|, and their C(g)-orbits.  Pool workers
read only the classes they swept themselves, so they may run more tests
than a serial sweep; the classes and their numbering do not change.
"""

from __future__ import annotations

import os
from collections import namedtuple
from math import gcd

from .permcore import ConjugacyClassTable, ElementTable, composer, generates, orbit


class PairLookupError(KeyError):
    pass


class PcSet:
    """Classes of generating pairs under conjugation."""

    def __init__(
        self,
        table: ElementTable,
        classes: ConjugacyClassTable,
        reps: list[tuple[int, int]],
        _lookup: list[list[int]],  # per g-conjugacy-class: h id -> pc index or -2
    ) -> None:
        self.table, self.classes, self.reps, self._lookup = table, classes, reps, _lookup

    @property
    def ell(self) -> int:
        return len(self.reps)

    def locate(self, g: int, h: int) -> int:
        """Pair-class index of a generating pair, by conjugating g to its rep
        (`ConjugacyClassTable.to_rep`)."""
        classes = self.classes
        idx = self._lookup[classes.class_of[g]][classes.to_rep(g, h)]
        if idx < 0:
            raise PairLookupError(f"pair ({g}, {h}) does not generate the group")
        return idx


def coprime_powers(table: ElementTable) -> list[list[int]]:
    """powers[e] = the ids of e^k for k prime to m = |e|: the generators of <e>.

    They are the same for every generator of <e>, so its members share one
    list object.  The ids are table.index's own ints.
    """
    elements, index = table.elements, table.index
    powers: list = [None] * table.order
    for e, e_perm in enumerate(elements):
        if powers[e] is not None:
            continue
        by_e = composer(e_perm)
        walk = [index[e_perm]]  # ids of e, e^2, ..., e^m = identity
        p = by_e(e_perm)
        while p != e_perm:
            walk.append(index[p])
            p = by_e(p)
        m = len(walk)
        gens = [f for k, f in enumerate(walk, 1) if gcd(k, m) == 1]
        for f in gens:
            powers[f] = gens
    return powers


_SWEEP_STATE: dict = {}


def _init_sweep(
    table: ElementTable, classes: ConjugacyClassTable, transitive: bool, powers: list
) -> None:
    _SWEEP_STATE.update(
        table=table, classes=classes, transitive=transitive, powers=powers, done={}
    )


def _sweep_class(cid: int) -> tuple[list[int], list[int]]:
    """Settle all pairs (rep of class cid, h); returns (h reps, h -> local idx).

    <g, h> is also <g, h g> and <g, h^k> for every k prime to |h|, so one
    verdict holds for every h reached by those moves.  h^-1 = h^(|h|-1) is
    one of them.  An element gets its verdict together with its whole
    coprime-power list, so an element that has one had its list spread
    with it, and the queue makes only the moves h -> h g.  A C(g)-orbit,
    walked through the conjugation columns of the generators of C(g),
    takes the verdict of any member that has one.  An orbit without one
    reads it from a class swept earlier in this process, which holds a
    generator a of <h> or of <h g>: <g, h> = <a, g>, located like
    `PcSet.locate` does.  Only an orbit with neither runs a generation test.

    C(g) meets C(h) in Z(<g, h>) = Z(G), so a generating orbit has exactly
    |C(g)|/|Z(G)| members; each is checked, naming the check.
    """
    table: ElementTable = _SWEEP_STATE["table"]
    classes: ConjugacyClassTable = _SWEEP_STATE["classes"]
    transitive: bool = _SWEEP_STATE["transitive"]
    powers: list[list[int]] = _SWEEP_STATE["powers"]
    done: dict[int, list[int]] = _SWEEP_STATE["done"]  # swept cid -> its assign
    class_of, to_rep = classes.class_of, classes.to_rep
    n = table.order
    orbit_size = n // classes.sizes[cid] // len(classes.center_ids)
    degree, elements = table.degree, table.elements
    g_id = classes.reps[cid]
    g_perm = elements[g_id]
    conj = [table.conjugation_column(c) for c in classes.centralizer_ids(cid)]
    right = table.right_column(g_id)  # e -> e g
    verdict = [0] * n  # 1 generates, -1 does not, 0 unknown
    assign = [-1] * n  # -1 unseen, -3 in the current orbit
    local_reps: list[int] = []
    for h in range(n):
        if assign[h] != -1:
            continue
        assign[h] = -3
        orbit_ids = [h]
        for e in orbit_ids:
            for col in conj:
                f = col[e]
                if assign[f] == -1:
                    assign[f] = -3
                    orbit_ids.append(f)
        gen = next((verdict[e] for e in orbit_ids if verdict[e]), 0)
        if not gen:
            a = next(
                (a for a in powers[h] + powers[right[h]] if class_of[a] in done), None
            )
            if a is not None:
                gen = 1 if done[class_of[a]][to_rep(a, g_id)] >= 0 else -1
            elif transitive and len(orbit([g_perm, elements[h]], 0)) != degree:
                gen = -1
            else:
                gen = 1 if generates([g_perm, elements[h]], degree, n) else -1
            queue = list(powers[h])
            for f in queue:
                verdict[f] = gen
            for e in queue:
                f = right[e]
                if not verdict[f]:
                    for p in powers[f]:
                        verdict[p] = gen
                    queue += powers[f]
        if gen > 0:
            if len(orbit_ids) != orbit_size:
                raise RuntimeError(
                    f"generating-orbit check failed: class {cid} has an orbit of "
                    f"{len(orbit_ids)} pairs, not |C(g)|/|Z(G)| = {orbit_size}"
                )
            mark = len(local_reps)
            local_reps.append(h)
        else:
            mark = -2
        for e in orbit_ids:
            assign[e] = mark
    done[cid] = assign
    return local_reps, assign


def build_pc(
    table: ElementTable,
    classes: ConjugacyClassTable,
    threads: int = 1,
) -> PcSet:
    """Enumerate pair classes: sweep one g-class per rational class
    (`_sweep_class`) and transport the rest, here, after the sweep.

    A class is transported when its rep g has a power a = g^k, k prime to
    |g|, in an earlier class; a is taken in the least such class, which is
    swept, since its rep's powers lie in the same classes.  (g, h) and
    (a, h) generate together, C(g) = C(a), and the transporter s of a
    carries (a, h) to (rep of a's class, s h s^-1).

    The power lists are built once here.  The pool forks all its workers up
    front, so they inherit them with the class table, and it gets
    no more workers than there are classes to sweep or CPUs to run them on.
    """
    transitive = (
        len(orbit(table.generators, 0)) == table.degree if table.generators else False
    )
    powers = coprime_powers(table)
    class_of = classes.class_of
    least = [min(powers[g], key=class_of.__getitem__) for g in classes.reps]
    swept = [c for c, a in enumerate(least) if class_of[a] == c]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity mask
        cpus = os.cpu_count() or 1
    workers = min(threads, len(swept), cpus)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, pickle and socket,
        # which a --threads 1 run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_sweep,
            initargs=(table, classes, transitive, powers),
        ) as pool:
            results = dict(zip(swept, pool.map(_sweep_class, swept)))
    else:
        _init_sweep(table, classes, transitive, powers)
        try:
            results = {c: _sweep_class(c) for c in swept}
        finally:
            _SWEEP_STATE.clear()  # keeps no table alive past the sweep
    reps: list[tuple[int, int]] = []
    lookup: list[list[int]] = []
    for cid, a in enumerate(least):
        if cid in results:
            hs, marks = results.pop(cid)  # local idx or -2
        else:
            col = classes.to_rep_column(a)
            marks = list(map(lookup[class_of[a]].__getitem__, col))  # pc idx or -2
            # mark -> its least h: of the writes to one key, the last stays
            first = dict(zip(reversed(marks), range(table.order - 1, -1, -1)))
            first.pop(-2, None)
            hs = sorted(first.values())
        # one int object per pair class, shared by all its entries
        renumber = {marks[h]: i for i, h in enumerate(hs, len(reps))}
        renumber[-2] = -2
        g_id = classes.reps[cid]
        reps.extend((g_id, h) for h in hs)
        lookup.append(list(map(renumber.__getitem__, marks)))
    return PcSet(table, classes, reps, lookup)


class InducedPerms(
    namedtuple("InducedPerms", "theta delta out_perms orbit_reps orbit_of")
):
    """The involutions theta, delta and the outer maps as permutations of
    pair-class indices, the least pair class of each outer orbit, ascending,
    and the outer orbit of each pair class, as an index into orbit_reps."""

    __slots__ = ()


def induced_perms(pcset: PcSet, out_maps: list) -> InducedPerms:
    """Permutations induced on pair classes by swapping, inversion shift, and
    each outer representative.

    out_maps[0] is the identity (`out_representatives` lists it first), so
    its permutation is not located.  Every outer map commutes with theta and
    delta, so both are located only on the first class o of each outer
    orbit and carried to the rest: theta[a(o)] = a(theta[o]), the same for
    delta.  A class reached twice means Out does not act freely; so on
    return every class was written once, and ell = r |Out|.
    """
    table, reps, locate = pcset.table, pcset.reps, pcset.locate
    ell = len(reps)
    outs = [tuple(range(ell))]
    outs += [tuple([locate(m[g], m[h]) for g, h in reps]) for m in out_maps[1:]]
    theta = [-1] * ell
    delta = [-1] * ell
    orbit_reps = []
    orbit_of = [0] * ell
    for o, (g, h) in enumerate(reps):
        if theta[o] >= 0:
            continue
        t = locate(h, g)
        d = locate(table.inverse_id(table.mul(g, h)), h)
        for a in outs:
            p = a[o]
            if theta[p] >= 0:
                raise RuntimeError(
                    f"outer maps do not act freely: pair class {p} reached twice"
                )
            theta[p] = a[t]
            delta[p] = a[d]
            orbit_of[p] = len(orbit_reps)
        orbit_reps.append(o)
    return InducedPerms(tuple(theta), tuple(delta), outs, orbit_reps, orbit_of)


def block_partition(pcset: PcSet) -> list[int]:
    """block_of[i] = the block of pair class i.  A block holds the pair classes
    whose members lie in the same two conjugacy classes; blocks are numbered
    by first appearance over the reps."""
    class_of = pcset.classes.class_of
    block_ids: dict[tuple[int, int], int] = {}
    return [
        block_ids.setdefault((class_of[g], class_of[h]), len(block_ids))
        for g, h in pcset.reps
    ]
