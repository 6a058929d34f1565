"""Generating pairs of a finite group up to conjugation.

A pair class is the conjugation orbit of an ordered generating pair (g, h).
Classes are canonically numbered: sweep conjugacy classes of g in table
order; within one sweep, h runs over element ids ascending and a whole
C(g)-orbit of h is settled at once.  One generation test settles every h
reached from the tested one by the moves h -> h g and h -> h^k, k prime to
|h|, and their C(g)-orbits.  The canonical representative of a class is
(class rep of g, smallest h in its C(g)-orbit).
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
        _lookup: list[list[int]],  # per g-conjugacy-class: h id -> pc index or -1
    ) -> None:
        self.table, self.classes, self.reps, self._lookup = table, classes, reps, _lookup
        # per table generator s: e -> id(s e s^-1), built on the first locate
        self._unconj: list[list[int]] | None = None

    @property
    def ell(self) -> int:
        return len(self.reps)

    def locate(self, g: int, h: int) -> int:
        """Pair-class index of a generating pair, by conjugating g to its rep.

        The transporter t of g has tree word s_1..s_m, and (g, h)^(t^-1)
        = (rep, t h t^-1) is reached by one inverse generator-conjugation
        column per letter, last letter first.
        """
        table = self.table
        if self._unconj is None:
            inv = table.inverse_ids
            self._unconj = [
                table.conjugation_column(inv[table.index[s]]) for s in table.generators
            ]
        t, moved = self.classes.transporter_ids[g], h
        parent, letter, unconj = table.parent, table.letter, self._unconj
        while t:
            moved = unconj[letter[t]][moved]
            t = parent[t]
        idx = self._lookup[self.classes.class_of[g]][moved]
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
    _SWEEP_STATE.update(table=table, classes=classes, transitive=transitive, powers=powers)


def _sweep_class(cid: int) -> tuple[list[int], list[int]]:
    """Settle all pairs (rep of class cid, h); returns (h reps, h -> local idx).

    <g, h> is also <g, h g> and <g, h^k> for every k prime to |h|, so one
    verdict holds for every h reached by those moves.  h^-1 = h^(|h|-1) is
    one of them.  A C(g)-orbit, walked through the conjugation columns of
    the generators of C(g), takes the verdict of any member that has one,
    and only an orbit without one runs a generation test.
    """
    table: ElementTable = _SWEEP_STATE["table"]
    classes: ConjugacyClassTable = _SWEEP_STATE["classes"]
    transitive: bool = _SWEEP_STATE["transitive"]
    powers: list[list[int]] = _SWEEP_STATE["powers"]
    n = table.order
    degree = table.degree
    elements = table.elements
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
            h_perm = elements[h]
            if transitive and len(orbit([g_perm, h_perm], 0)) != degree:
                gen = -1
            else:
                gen = 1 if generates([g_perm, h_perm], degree, n) else -1
            verdict[h] = gen
            queue = [h]
            for e in queue:
                f = right[e]
                if not verdict[f]:
                    verdict[f] = gen
                    queue.append(f)
                for f in powers[e]:
                    if not verdict[f]:
                        verdict[f] = gen
                        queue.append(f)
        if gen > 0:
            mark = len(local_reps)
            local_reps.append(h)
        else:
            mark = -2
        for e in orbit_ids:
            assign[e] = mark
    return local_reps, assign


def build_pc(
    table: ElementTable,
    classes: ConjugacyClassTable,
    threads: int = 1,
) -> PcSet:
    """Enumerate pair classes; one generation test settles the closure of h
    under h -> h g and h -> h^k, k prime to |h| (`_sweep_class`).

    The power lists are built once here and handed to every sweep.  The pool
    forks all its workers up front, so they inherit the lists, and it gets
    no more workers than there are classes to sweep or CPUs to run them on.
    """
    transitive = (
        len(orbit(table.generators, 0)) == table.degree if table.generators else False
    )
    powers = coprime_powers(table)
    cids = list(range(classes.num_classes))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity mask
        cpus = os.cpu_count() or 1
    workers = min(threads, len(cids), cpus)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, pickle and socket,
        # which a --threads 1 run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_sweep,
            initargs=(table, classes, transitive, powers),
        ) as pool:
            swept = list(pool.map(_sweep_class, cids))
    else:
        _init_sweep(table, classes, transitive, powers)
        swept = [_sweep_class(c) for c in cids]
        _SWEEP_STATE.clear()  # keeps no table alive past its results
    reps: list[tuple[int, int]] = []
    lookup: list[list[int]] = []
    for cid, (local_reps, assign) in zip(cids, swept):
        offset = len(reps)
        g_id = classes.reps[cid]
        reps.extend((g_id, h) for h in local_reps)
        lookup.append([a + offset if a >= 0 else a for a in assign])
    return PcSet(table, classes, reps, lookup)


class InducedPerms(namedtuple("InducedPerms", "theta delta out_perms")):
    """The involutions theta, delta and the outer maps as permutations of
    pair-class indices."""

    __slots__ = ()


def induced_perms(pcset: PcSet, out_maps: list) -> InducedPerms:
    """Permutations induced on pair classes by swapping, inversion shift, and
    each outer representative."""
    table = pcset.table
    theta = []
    delta = []
    for (g, h) in pcset.reps:
        theta.append(pcset.locate(h, g))
        gh_inv = table.inverse_id(table.mul(g, h))
        delta.append(pcset.locate(gh_inv, h))
    outs = []
    for m in out_maps:
        outs.append(tuple(pcset.locate(m[g], m[h]) for (g, h) in pcset.reps))
    return InducedPerms(tuple(theta), tuple(delta), outs)


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
