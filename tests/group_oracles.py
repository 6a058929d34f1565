"""Test-only oracles: the list-form permutation product and element table,
a direct product, a transitivity test, the dihedral and GT1 counts, a
brute-force double-coset survey, a pairwise packet decomposition (with its
own orbits, stabilizers and equivariant maps), an exhaustive S search, S's
generators as whole permutations, a per-orbit pair sweep, coprime powers, a
tuple pair locator, scanned centralizers, structure-triple isomorphism,
mul-table group structure and group fingerprints, kept out of the library
they check.  Tests get a model group through `model_group`, the command
line's chain."""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass
from math import factorial, gcd, isqrt, lcm

from sympy.combinatorics import Permutation, PermutationGroup

from gtpairs.atlas import ConstructedGroup
from gtpairs.autgroup import extend_pair_map
from gtpairs.cli import model_stages
from gtpairs.dessins import DessinError
from gtpairs.gbar import GbarGroup, double_coset_survey
from gtpairs.pairs import PcSet
from gtpairs.permcore import (
    DEFAULT_CAP,
    ConjugacyClassTable,
    ElementTable,
    Perm,
    compose,
    generates,
    identity_perm,
    inverse,
    orbit,
    subgroup_table,
)
from gtpairs.sgroup import PacketDecomposition, WreathFactor
from gtpairs.structure import StructureSizeError, factorint, quotient

DEFAULT_BRUTE_BUDGET = 10**7


class SgBudgetError(RuntimeError):
    pass


def conjugate(a: Perm, b: Perm) -> Perm:
    """Return a^b = b^-1 * a * b."""
    return compose(inverse(b), compose(a, b))


def list_compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q, as a list comprehension: the reference for
    permcore's product kernel."""
    return tuple([q[i] for i in p])


@dataclass
class ReferenceTable:
    elements: list[Perm]
    index: dict[Perm, int]
    gen_cols: list[list[int]]
    parent: list[int]
    letter: list[int]


def reference_table(
    generators: list[Perm], degree: int, start: Perm | None = None
) -> ReferenceTable:
    """ElementTable's BFS with list_compose for every product: elements in
    discovery order, generator columns and the discovery tree."""
    ident = identity_perm(degree) if start is None else tuple(start)
    t = ReferenceTable([ident], {ident: 0}, [[] for _ in generators], [-1], [-1])
    for e_id, e in enumerate(t.elements):
        for gi, g in enumerate(generators):
            n = list_compose(e, tuple(g))
            i = t.index.get(n)
            if i is None:
                i = t.index[n] = len(t.elements)
                t.elements.append(n)
                t.parent.append(e_id)
                t.letter.append(gi)
            t.gen_cols[gi].append(i)
    return t


def disjoint_product(*factors: list[Perm]) -> ElementTable:
    """The direct product of permutation groups, each given by a nonempty
    list of generators of one degree, acting on disjoint point sets."""
    degree = sum(len(gens[0]) for gens in factors)
    out, shift = [], 0
    for gens in factors:
        d = len(gens[0])
        for g in gens:
            p = list(range(degree))
            p[shift:shift + d] = [shift + j for j in g]
            out.append(tuple(p))
        shift += d
    return ElementTable(out, degree)


def direct_product(g1: ConstructedGroup, g2: ConstructedGroup) -> ConstructedGroup:
    """Product group acting on the disjoint union of the two domains."""
    gens = disjoint_product(g1.generators, g2.generators).generators
    order = PermutationGroup([Permutation(list(g)) for g in gens]).order()
    assert order == g1.order * g2.order
    return ConstructedGroup(
        f"product({g1.spec},{g2.spec})", g1.degree + g2.degree, gens, order
    )


D8_GENERATORS = [(1, 2, 3, 0), (0, 3, 2, 1)]  # the symmetries of a square


def c2_d8_model_table(a: int, b: int) -> ElementTable:
    """C2^a x D8^b on 2a + 4b points."""
    return disjoint_product(*[[(1, 0)]] * a, *[D8_GENERATORS] * b)


def is_transitive(group: ConstructedGroup) -> bool:
    return len(orbit(group.generators, 0)) == group.degree


def model_group(group: ConstructedGroup, cap: int = DEFAULT_CAP) -> GbarGroup:
    """The model group of a group, built by the command-line pair chain."""
    return model_stages(group, cap)[1]


def gt1_order(group: ConstructedGroup) -> tuple[int, list]:
    """Count surviving double cosets for the identity power."""
    survivors = [rep for rep in double_coset_survey(model_group(group)) if rep.survives]
    return len(survivors), survivors


def model_perm(gbar: GbarGroup, i: int) -> Perm:
    """Model element i as a permutation of degree r*d: base element
    window_ids(i)[w] on window w."""
    d, elements = gbar.base.degree, gbar.base.elements
    ids = gbar.window_ids(i)
    return tuple([w * d + j for w, e in enumerate(ids) for j in elements[e]])


def tuple_model_table(gbar: GbarGroup) -> ElementTable:
    """The model group enumerated as permutations of degree r*d from gbar.x
    and gbar.y, with the generators in the model table's order."""
    x, y = gbar.x, gbar.y
    return ElementTable([x, y, inverse(x), inverse(y)], len(x))


def brute_double_coset_survey(gbar: GbarGroup, k: int = 1) -> list[tuple]:
    """Every double coset C(x^k) f C(y^k) from all |C(x^k)| * |C(y^k)|
    products, with centralizers from a full scan of the model group, all in
    permutation arithmetic on a table of its own.

    Returns (element, word, coset size, generates, theta, delta) for the
    least element of each double coset, sorted by word.
    """
    table = tuple_model_table(gbar)
    x, y = gbar.x, gbar.y
    ident = identity_perm(len(x))

    def power(p: Perm) -> Perm:
        acc = ident
        for _ in range(k):
            acc = compose(acc, p)
        return acc

    def substitute(x_image: Perm, y_image: Perm, fid: int) -> Perm:
        letters = [x_image, y_image, inverse(x_image), inverse(y_image)]
        acc = ident
        for s in table.word(fid):
            acc = compose(acc, letters[s])
        return acc

    def centralizer(a: Perm) -> list[Perm]:
        return [e for e in table.elements if compose(e, a) == compose(a, e)]

    xk, yk = power(x), power(y)
    cx, cy = centralizer(xk), centralizer(yk)
    cy_set = set(cy)
    y_inv_x_inv = compose(inverse(y), inverse(x))
    prod_inv_k = power(y_inv_x_inv)
    visited: set[Perm] = set()
    out = []
    for fid, f in enumerate(table.elements):
        if f in visited:
            continue
        coset = set()
        for s in cx:
            sf = compose(s, f)
            coset.update(compose(sf, t) for t in cy)
        visited |= coset
        xkf = conjugate(xk, f)
        gen_ok = generates([xkf, yk], len(x), table.order)
        tf = substitute(y, x, fid)
        theta_ok = gen_ok and any(compose(compose(tf, s), f) in cy_set for s in cx)
        delta_ok = False
        if theta_ok:
            lhs = conjugate(prod_inv_k, substitute(y_inv_x_inv, y, fid))
            rhs = compose(inverse(yk), inverse(xkf))
            delta_ok = any(conjugate(lhs, c) == rhs for c in cy)
        out.append((f, table.word(fid), len(coset), gen_ok, theta_ok, delta_ok))
    assert len(visited) == table.order
    out.sort(key=lambda rep: (len(rep[1]), rep[1]))
    return out


def dihedral_closed_form(n: int) -> int:
    """Known count for dihedral groups: trivial exactly when 4 divides n."""
    if n < 3:
        raise ValueError("dihedral groups start at n = 3")
    return 1 if n % 4 == 0 else 2


def brute_force_sg(
    h: ElementTable, block_of: list[int], budget: int = DEFAULT_BRUTE_BUDGET
) -> list[Perm]:
    """Filter the whole block-wise symmetric group by commutation, exhaustively."""
    blocks: dict[int, list[int]] = {}
    for p in range(h.degree):
        blocks.setdefault(block_of[p], []).append(p)
    block_lists = list(blocks.values())
    total = 1
    for pts in block_lists:
        total *= factorial(len(pts))
        if total > budget:
            raise SgBudgetError(
                f"brute-force search space exceeds budget {budget}"
            )
    out = []
    for combo in itertools.product(
        *(list(itertools.permutations(pts)) for pts in block_lists)
    ):
        arr = list(range(h.degree))
        for pts, images in zip(block_lists, combo):
            for src, dst in zip(pts, images):
                arr[src] = dst
        g = tuple(arr)
        if all(compose(g, hp) == compose(hp, g) for hp in h.generators):
            out.append(g)
    return out


def s_generators(decomp: PacketDecomposition, h: ElementTable) -> list[Perm]:
    """S's generators on {0..ell-1}: each non-identity element of E on its
    packet's representative orbit, and the swap of each two consecutive
    member orbits, every other point fixed."""
    gens = []
    for f in decomp.factors:
        moves_list = []
        for loc in f.e_elements:
            if loc != identity_perm(len(loc)):
                moves_list.append({p: f.points[loc[i]] for i, p in enumerate(f.points)})
        for prev, cur in zip(f.bijections, f.bijections[1:]):
            moves = {}
            for p in f.points:
                moves[prev[p]] = cur[p]
                moves[cur[p]] = prev[p]
            moves_list.append(moves)
        for moves in moves_list:
            arr = list(range(h.degree))
            for p, img in moves.items():
                arr[p] = img
            gens.append(tuple(arr))
    return gens


def brute_orbits(h: ElementTable) -> list[list[int]]:
    """Orbits of H as sorted point lists, ascending by least point: the
    orbit of p is every e(p), from a scan of all of H."""
    seen: set[int] = set()
    out = []
    for p in range(h.degree):
        if p not in seen:
            pts = sorted({e[p] for e in h.elements})
            seen.update(pts)
            out.append(pts)
    return out


def _point_stabilizer(h: ElementTable, q: int) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(h.elements) if e[q] == q)


def _transport(h: ElementTable, p: int, q: int) -> dict[int, int]:
    """e(p) -> e(q) for every e of H; p and q must have one stabilizer."""
    bij: dict[int, int] = {}
    for e in h.elements:
        if bij.setdefault(e[p], e[q]) != e[q]:
            raise AssertionError(f"e({p}) does not determine e({q})")
    return bij


def orbit_equivalence(
    h: ElementTable, o1: list[int], o2: list[int], block_of: list[int]
) -> dict[int, int] | None:
    """Equivariant block-respecting bijection from orbit o1 onto orbit o2
    (sorted point lists), if one exists."""
    if len(o1) != len(o2):
        return None
    stab = _point_stabilizer(h, o1[0])
    for q in o2:
        if _point_stabilizer(h, q) != stab:
            continue
        bij = _transport(h, o1[0], q)
        if all(block_of[src] == block_of[dst] for src, dst in bij.items()):
            return bij
    return None


def _self_equivalences(h: ElementTable, orbit: list[int], block_of: list[int]) -> list[Perm]:
    """All equivariant block-respecting self-bijections of an orbit, as local perms."""
    pos = {p: i for i, p in enumerate(orbit)}
    out = []
    stab = _point_stabilizer(h, orbit[0])
    for q in orbit:
        if _point_stabilizer(h, q) != stab:
            continue
        bij = _transport(h, orbit[0], q)
        if all(block_of[src] == block_of[dst] for src, dst in bij.items()):
            out.append(tuple(pos[bij[p]] for p in orbit))
    known = set(out)
    for a in out:
        for b in out:
            if compose(a, b) not in known:
                raise RuntimeError("self-equivalence set is not closed")
    return out


def _canonical_stabilizer_key(
    mul: list[list[int]], inv: list[int], stab: frozenset[int]
) -> tuple[int, ...]:
    best = None
    for g in range(len(mul)):
        conj = tuple(sorted(mul[mul[inv[g]][s]][g] for s in stab))
        if best is None or conj < best:
            best = conj
    return best


def brute_packet_decomposition(
    h: ElementTable, block_of: list[int]
) -> PacketDecomposition:
    """Packets by comparing each orbit with the first member of every packet
    in its coarse group, one equivalence search per comparison."""
    orbits = brute_orbits(h)
    mul = [[h.index[compose(a, b)] for b in h.elements] for a in h.elements]
    inv = [h.inverse_id(g) for g in range(h.order)]
    coarse_groups: dict[tuple, list[int]] = {}
    for idx, o in enumerate(orbits):
        stab = _point_stabilizer(h, o[0])
        profile = tuple(sorted(Counter(block_of[p] for p in o).values()))
        key = (_canonical_stabilizer_key(mul, inv, stab), profile)
        coarse_groups.setdefault(key, []).append(idx)
    classes: list[tuple[list[int], list[dict[int, int]]]] = []
    for group in coarse_groups.values():
        local: list[tuple[list[int], list[dict[int, int]]]] = []
        for idx in group:
            for members, bijections in local:
                bij = orbit_equivalence(h, orbits[members[0]], orbits[idx], block_of)
                if bij is not None:
                    members.append(idx)
                    bijections.append(bij)
                    break
            else:
                ident = {p: p for p in orbits[idx]}
                local.append(([idx], [ident]))
        classes.extend(local)
    classes.sort(key=lambda cls: orbits[cls[0][0]][0])
    factors = []
    for members, bijections in classes:
        rep = orbits[members[0]]
        factors.append(
            WreathFactor(
                points=rep,
                e_elements=_self_equivalences(h, rep, block_of),
                s=len(members),
                member_orbits=members,
                bijections=bijections,
            )
        )
    return PacketDecomposition(orbits, factors)


# Pair classes and structure triples, settled one C(g)-orbit at a time.


def scan_centralizer_ids(table: ElementTable, e: int) -> list[int]:
    """Element ids commuting with element e, from a whole-group scan."""
    pe = table.elements[e]
    return [
        f for f, pf in enumerate(table.elements) if compose(pe, pf) == compose(pf, pe)
    ]


def brute_build_pc(table: ElementTable, classes: ConjugacyClassTable) -> PcSet:
    """Pair classes numbered like build_pc, with one generation test per
    C(g)-orbit of h and centralizers from whole-group scans."""
    n, degree = table.order, table.degree
    transitive = bool(table.generators) and len(orbit(table.generators, 0)) == degree
    reps: list[tuple[int, int]] = []
    lookup: list[list[int]] = []
    for g_id in classes.reps:
        g_perm = table.elements[g_id]
        cent = [table.elements[c] for c in scan_centralizer_ids(table, g_id)]
        cent_invs = [inverse(c) for c in cent]
        assign = [-1] * n
        for h in range(n):
            if assign[h] != -1:
                continue
            h_perm = table.elements[h]
            orbit_ids = {
                table.index[tuple([c[h_perm[j]] for j in ci])]
                for c, ci in zip(cent, cent_invs)
            }
            if transitive and len(orbit([g_perm, h_perm], 0)) != degree:
                gen = False
            else:
                gen = generates([g_perm, h_perm], degree, n)
            mark = -2
            if gen:
                mark = len(reps)
                reps.append((g_id, h))
            for e in orbit_ids:
                assign[e] = mark
        lookup.append(assign)
    return PcSet(table, classes, reps, lookup)


def coprime_power_sets(elements: list[Perm]) -> list[set[Perm]]:
    """For each element e, {e^k : 1 <= k <= |e|, gcd(k, |e|) = 1}, the powers
    taken by repeated list_compose."""
    out = []
    for e in elements:
        ident = tuple(range(len(e)))
        powers = [e]
        while powers[-1] != ident:
            powers.append(list_compose(powers[-1], e))
        m = len(powers)
        out.append({powers[k - 1] for k in range(1, m + 1) if gcd(k, m) == 1})
    return out


def tuple_locate(pcset: PcSet, g: int, h: int) -> int | None:
    """Pair-class index of (g, h) by tuple arithmetic, or None if the pair
    does not generate: h is conjugated by the inverse of g's transporter
    as one permutation and looked up in the element index."""
    table, classes = pcset.table, pcset.classes
    t_inv = inverse(table.elements[classes.transporter_ids[g]])
    h_moved = table.index[conjugate(table.elements[h], t_inv)]
    idx = pcset._lookup[classes.class_of[g]][h_moved]
    return idx if idx >= 0 else None


def transporter_tuple(
    classes: ConjugacyClassTable,
    tup_a: tuple[int, ...],
    tup_b: tuple[int, ...],
) -> Perm | None:
    """Simultaneous conjugator for two equal-length element-id tuples."""
    if len(tup_a) != len(tup_b):
        raise ValueError("tuples must have equal length")
    if not tup_a:
        return identity_perm(classes.table.degree)
    a, a2 = tup_a[0], tup_b[0]
    if classes.class_of[a] != classes.class_of[a2]:
        return None
    table = classes.table
    t0 = compose(
        inverse(table.elements[classes.transporter_ids[a]]),
        table.elements[classes.transporter_ids[a2]],
    )
    rest_a = [table.elements[e] for e in tup_a[1:]]
    rest_b = [table.elements[e] for e in tup_b[1:]]
    for c in scan_centralizer_ids(table, a):
        t = compose(table.elements[c], t0)
        if all(conjugate(pa, t) == pb for pa, pb in zip(rest_a, rest_b)):
            return t
    return None


def extend_pair(
    table: ElementTable, pair: tuple[int, int], target: tuple[int, int]
) -> list[int] | None:
    """`extend_pair_map` of pair -> target, on right columns built here."""
    (x, y), (x2, y2), right = pair, target, table.right_column
    return extend_pair_map(table, (right(x), right(y)), (right(x2), right(y2)))


@dataclass
class GammaStructure:
    """A generating pair with homomorphism images, all as element ids."""

    table: ElementTable
    g_id: int
    h_id: int
    image_ids: tuple[int, ...]


def triple_isomorphic(
    classes: ConjugacyClassTable, t1: GammaStructure, t2: GammaStructure
) -> bool:
    """Decide isomorphism of two structure triples over one group.

    The unique candidate map sends the first pair to the second; it must be
    an automorphism, and a single conjugator must carry the mapped images
    onto the images of the second structure simultaneously.
    """
    if t1.table is not t2.table or classes.table is not t1.table:
        raise DessinError("triples must live over one shared group table")
    if len(t1.image_ids) != len(t2.image_ids):
        raise DessinError("structures declare different generator counts")
    alpha = extend_pair(t1.table, (t1.g_id, t1.h_id), (t2.g_id, t2.h_id))
    if alpha is None:
        return False
    moved = tuple(alpha[i] for i in t1.image_ids)
    return transporter_tuple(classes, t2.image_ids, moved) is not None


# Group structure on duck-typed "mul tables": objects with an integer
# `order`, methods mul(a, b) and inverse_id(a), and the identity at id 0.
# ElementTable is one; SubgroupTable and QuotientTable build the others.
# Every scan here is over whole tables.


def element_order(t, a: int) -> int:
    """The order of element a of a mul table, by repeated products."""
    k, x = 1, a
    while x != 0:
        x = t.mul(x, a)
        k += 1
    return k


class SubgroupTable:
    """Mul table of a subgroup, reindexed over sorted member ids."""

    def __init__(self, parent, member_ids: list[int]):
        self.parent = parent
        self.members = sorted(member_ids)
        if not self.members or self.members[0] != 0:
            raise ValueError("subgroup must contain the identity")
        self._pos = {e: i for i, e in enumerate(self.members)}

    @property
    def order(self) -> int:
        return len(self.members)

    def mul(self, i: int, j: int) -> int:
        return self._pos[self.parent.mul(self.members[i], self.members[j])]

    def inverse_id(self, i: int) -> int:
        return self._pos[self.parent.inverse_id(self.members[i])]


class QuotientTable:
    """Mul table of parent modulo a normal subgroup, via coset representatives."""

    def __init__(self, parent, normal_ids: list[int]):
        self.parent = parent
        self.coset_of = [-1] * parent.order
        self.reps: list[int] = []
        for x in range(parent.order):
            if self.coset_of[x] != -1:
                continue
            cid = len(self.reps)
            self.reps.append(x)
            for k in normal_ids:
                self.coset_of[parent.mul(x, k)] = cid

    @property
    def order(self) -> int:
        return len(self.reps)

    def mul(self, i: int, j: int) -> int:
        return self.coset_of[self.parent.mul(self.reps[i], self.reps[j])]

    def inverse_id(self, i: int) -> int:
        return self.coset_of[self.parent.inverse_id(self.reps[i])]


def subgroup_closure(t, seed_ids) -> list[int]:
    """Ids of the subgroup generated by the seeds, sorted."""
    seeds = sorted(set(seed_ids) | {t.inverse_id(s) for s in seed_ids})
    ids = {0}
    queue = [0]
    for a in queue:
        for s in seeds:
            n = t.mul(a, s)
            if n not in ids:
                ids.add(n)
                queue.append(n)
    return sorted(ids)


def center_element_ids(t) -> list[int]:
    n = t.order
    return [
        a for a in range(n) if all(t.mul(a, b) == t.mul(b, a) for b in range(n))
    ]


def derived_subgroup_ids(t) -> list[int]:
    """Ids of the commutator subgroup of a mul table: from the generators'
    commutators when the table has generators, else from all commutators."""
    gen_ids = None
    if hasattr(t, "generators") and getattr(t, "index", None) is not None:
        gen_ids = [t.index[tuple(g)] for g in t.generators]
    if gen_ids:
        comms = set()
        for a in gen_ids:
            for b in gen_ids:
                comms.add(
                    t.mul(t.mul(t.inverse_id(a), t.inverse_id(b)), t.mul(a, b))
                )
        closure = set(subgroup_closure(t, comms))
        # normal closure: conjugation-closed under generators suffices
        while True:
            fresh = set()
            for a in closure:
                for g in gen_ids:
                    c = t.mul(t.mul(t.inverse_id(g), a), g)
                    if c not in closure:
                        fresh.add(c)
            if not fresh:
                return sorted(closure)
            closure = set(subgroup_closure(t, closure | fresh))
    n = t.order
    comms = set()
    for a in range(n):
        for b in range(n):
            comms.add(t.mul(t.mul(t.inverse_id(a), t.inverse_id(b)), t.mul(a, b)))
    return subgroup_closure(t, comms)


def element_order_histogram(t) -> dict[int, int]:
    hist: dict[int, int] = {}
    for a in range(t.order):
        o = element_order(t, a)
        hist[o] = hist.get(o, 0) + 1
    return hist


def abelian_invariants(t) -> tuple[int, ...]:
    """Elementary divisors of an abelian mul table, sorted ascending.

    The elements with a^(p^k) = 1 are those whose order divides p^k.
    """
    n = t.order
    if n == 1:
        return ()
    hist = element_order_histogram(t)
    out: list[int] = []
    for p, e_tot in sorted(factorint(n).items()):
        counts = []  # counts[k-1] = number of invariants with exponent >= k
        prev_val = 0
        k = 1
        while prev_val < e_tot:
            pk = p**k
            cnt = sum(c for o, c in hist.items() if pk % o == 0)
            val = 0
            while cnt % p == 0:
                cnt //= p
                val += 1
            if cnt != 1:
                raise RuntimeError("abelian invariant count is not a prime power")
            counts.append(val - prev_val)
            prev_val = val
            k += 1
        counts.append(0)
        for k in range(1, len(counts)):
            out.extend([p**k] * (counts[k - 1] - counts[k]))
    return tuple(sorted(out))


def derived_subgroup(t: ElementTable) -> ElementTable:
    """The commutator subgroup of an ElementTable, spanned by the
    commutators [x, s] of the elements x with the generators s.

    [x, s]^g = [xg, s][g, s]^-1, so the span is normal, and every generator
    is central modulo it, so the quotient is abelian.
    """
    comms = (
        compose(inverse(x), conjugate(x, s)) for x in t.elements for s in t.generators
    )
    return subgroup_table(comms, t.degree)


class GroupFingerprint(
    namedtuple(
        "GroupFingerprint",
        "order exponent center_order center_exponent derived_order "
        "derived_abelian derived_exponent abelianization order_histogram",
    )
):
    """Isomorphism-invariant statistics of a finite group: the cross-check
    on S's direct-factor reading.  derived_exponent is None unless the
    derived subgroup is abelian."""

    __slots__ = ()

    @classmethod
    def from_mul(cls, t: ElementTable) -> GroupFingerprint:
        """The fingerprint of an ElementTable from its class table, its
        derived subgroup and the quotient by it."""
        hist = element_order_histogram(t)
        center = ConjugacyClassTable(t).center_ids
        derived = derived_subgroup(t)
        d_abelian = all(
            compose(a, b) == compose(b, a)
            for a in derived.generators
            for b in derived.generators
        )
        return cls(
            order=t.order,
            exponent=lcm(*hist),
            center_order=len(center),
            center_exponent=lcm(*(element_order(t, a) for a in center)),
            derived_order=derived.order,
            derived_abelian=d_abelian,
            derived_exponent=(
                lcm(*element_order_histogram(derived)) if d_abelian else None
            ),
            abelianization=abelian_invariants(quotient(t, derived)),
            order_histogram=hist,
        )


def mul_fingerprint(t) -> GroupFingerprint:
    """GroupFingerprint of a mul table by whole-table scans."""
    hist = element_order_histogram(t)
    exponent = lcm(*hist)
    center = center_element_ids(t)
    center_exp = lcm(*(element_order(t, a) for a in center))
    derived = derived_subgroup_ids(t)
    dsub = SubgroupTable(t, derived)
    d_abelian = all(
        dsub.mul(a, b) == dsub.mul(b, a)
        for a in range(dsub.order)
        for b in range(dsub.order)
    )
    d_exp = lcm(*(element_order(dsub, a) for a in range(dsub.order)))
    ab = abelian_invariants(QuotientTable(t, derived))
    return GroupFingerprint(
        order=t.order,
        exponent=exponent,
        center_order=len(center),
        center_exponent=center_exp,
        derived_order=len(derived),
        derived_abelian=d_abelian,
        derived_exponent=d_exp if d_abelian else None,
        abelianization=ab,
        order_histogram=hist,
    )


def _conjugacy_class_lists(t) -> list[list[int]]:
    n = t.order
    class_of = [-1] * n
    out = []
    for a in range(n):
        if class_of[a] != -1:
            continue
        cid = len(out)
        cls = set()
        for g in range(n):
            cls.add(t.mul(t.mul(t.inverse_id(g), a), g))
        for e in cls:
            class_of[e] = cid
        out.append(sorted(cls))
    return out


def _simple_factor(order: int) -> tuple[int, str]:
    """(order, label) of a simple group from its order alone: C_p for a
    prime, A5, A6 and A7 by their orders, Other(n) otherwise."""
    if order > 1 and all(order % k for k in range(2, isqrt(order) + 1)):
        return order, f"C{order}"
    return order, {60: "A5", 360: "A6", 2520: "A7"}.get(order, f"Other({order})")


def mul_composition_factors(t, limit: int = 10**4) -> list[tuple[int, str]]:
    """Composition factors of a mul table as (order, label), ascending, by
    minimal normal subgroups found from every conjugacy class's subgroup
    closure."""
    if t.order > limit:
        raise StructureSizeError(
            f"composition factors supported up to order {limit}, got {t.order}"
        )
    if t.order == 1:
        return []
    best: list[int] | None = None
    for cls in _conjugacy_class_lists(t):
        if cls == [0]:
            continue
        closure = subgroup_closure(t, cls)
        if best is None or len(closure) < len(best):
            best = closure
    if len(best) == t.order:
        return [_simple_factor(t.order)]
    sub = mul_composition_factors(SubgroupTable(t, best), limit)
    quo = mul_composition_factors(QuotientTable(t, best), limit)
    return sorted(sub + quo)
