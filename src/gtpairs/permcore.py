"""Permutation arithmetic, Schreier-Sims chains, element and conjugacy tables.

Permutations are tuples of images on 0..degree-1.  The action is on the
right: i^(p*q) = (i^p)^q, so compose(p, q)[i] = q[p[i]].  All text I/O
(cycle notation) is 1-based.

Up to degree PACKED_DEGREE, Schreier-Sims chains hold their permutations
packed instead: 256 bytes, with the points from the degree on fixed, so a
product is one bytes.translate and an inverse one bytes.maketrans.  No packed
permutation leaves a chain.  Base-image tables of that degree hold bytes
elements, which read as sequences of ints.  composer, compose and inverse
take either form.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from math import inf, lcm
from operator import attrgetter, itemgetter

Perm = tuple[int, ...]

DEFAULT_CAP = 10**6
PACKED_DEGREE = 256  # the largest degree held packed
IDENT256 = bytes(range(256))  # the packed identity
COLUMN_CHUNK = 64  # slots an ElementTable column grows by


class CycleFormatError(ValueError):
    pass


class EnumerationCapError(RuntimeError):
    pass


class CentralizerCheckError(RuntimeError):
    pass


class TransporterCheckError(RuntimeError):
    pass


class BaseImageError(RuntimeError):
    pass


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def pack(p: Perm) -> bytes:
    """p of degree at most 256 as a packed permutation: 256 bytes of images."""
    return bytes(p) + IDENT256[len(p):]


def composer(p: Perm) -> Callable[[Perm], Perm]:
    """q -> compose(p, q) in one C call: the product kernel.

    For bytes p (packed, or base images) and packed q it is p.translate;
    for tuples itemgetter(*p).  itemgetter with one index returns a bare
    item, not a 1-tuple, so tuple p of length below 2 (degree 1, or one
    window of base images) keeps the list form.
    """
    if type(p) is bytes:
        return p.translate
    if len(p) < 2:
        return lambda q: tuple([q[i] for i in p])
    return itemgetter(*p)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return composer(p)(q)


def inverse(p: Perm) -> Perm:
    if type(p) is bytes:
        return bytes.maketrans(p, IDENT256)
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def is_identity(p: Perm) -> bool:
    return all(i == img for i, img in enumerate(p))


def perm_order(p: Perm) -> int:
    cycs = cycles(p)
    return lcm(*(len(c) for c in cycs)) if cycs else 1


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles of p, each starting at its smallest point, sorted."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of p including fixed points, descending."""
    lens = [len(c) for c in cycles(p)]
    lens += [1] * (len(p) - sum(lens))
    return tuple(sorted(lens, reverse=True))


_CYCLE_BODY_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1,2,3)(4,5)" or "()"."""
    s = text.strip()
    if not s:
        raise CycleFormatError("empty permutation string")
    if _CYCLE_BODY_RE.sub("", s).strip():
        raise CycleFormatError(f"stray characters outside cycles in {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_BODY_RE.findall(s):
        toks = [tok for tok in re.split(r"[\s,;]+", body) if tok]
        if not toks:
            continue
        try:
            points = [int(tok) - 1 for tok in toks]
        except ValueError:
            raise CycleFormatError(f"non-integer entry in cycle ({body})") from None
        for pt in points:
            if not 0 <= pt < degree:
                raise CycleFormatError(
                    f"point {pt + 1} outside 1..{degree} in {text!r}"
                )
            if pt in seen:
                raise CycleFormatError(f"point {pt + 1} repeated in {text!r}")
            seen.add(pt)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def read_permutation_file(
    path: str, keyword: str, error: type[Exception]
) -> tuple[int, list[str]]:
    """The point count N and the body lines of a permutation file.

    The file is UTF-8 text headed by a line "keyword N", exactly those two
    tokens (the keyword in any case); blank lines and lines starting with #
    are dropped.  N must lie in 1..DEFAULT_CAP, so a body line never asks
    for more points than an element table may hold.  Every refusal raises
    error, naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err.reason})") from None
    if not lines or not lines[0].lower().startswith(keyword):
        raise error(f"{path}: first line must be '{keyword} N'")
    head = lines[0].split()
    malformed = error(f"{path}: malformed {keyword} line {lines[0]!r}")
    if len(head) != 2 or head[0].lower() != keyword:
        raise malformed
    try:
        n = int(head[1])
    except ValueError:
        raise malformed from None
    if not 1 <= n <= DEFAULT_CAP:
        raise error(f"{path}: {keyword} N must lie in 1..{DEFAULT_CAP}, not {n}")
    return n, lines[1:]


def orbit(generators: list[Perm], point: int) -> list[int]:
    """Orbit of a point in BFS discovery order."""
    seen = {point}
    queue = [point]
    for pt in queue:
        for g in generators:
            img = g[pt]
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return queue


class StabilizerChain:
    """Schreier-Sims base and strong generating set of <generators>.

    Construction sifts every generator, inserting each nontrivial residue
    at its level and extending the basic orbits in place, and stops once
    `bound` reaches stop_at.  Every strong generator at level i lies in the
    group and fixes base[:i], so each basic orbit lies in the true orbit of
    the point stabilizer, and `bound`, the product of the orbit lengths, is
    a proven lower bound on the group order.  exact_order() completes the
    chain.  Up to PACKED_DEGREE the chain holds its permutations packed.
    """

    def __init__(self, generators: list[Perm], degree: int, stop_at: int | None = None):
        self.degree = degree
        self.base: list[int] = []
        self.bound = 1
        self._stop_at = inf if stop_at is None else stop_at
        if degree <= PACKED_DEGREE:
            generators = [pack(g) for g in generators]
            self._ident = IDENT256
        else:
            self._ident = identity_perm(degree)
        self._gens: list[list[tuple[Perm, Perm]]] = []  # (s, s^-1) fixing base[:i]
        # _orbit_invs[i][pt] = u^-1 for a word u in _gens[i] with base[i]^u = pt
        self._orbit_invs: list[dict[int, Perm]] = []
        for g in generators:
            if self.bound >= self._stop_at:
                return
            self._add(g, 0)

    def exact_order(self) -> int:
        """The group order, or `bound` as soon as it reaches stop_at.

        Checks the chain deepest level first: each Schreier generator
        u*s*u'^-1 of a level is sifted through the levels below it, and a
        nontrivial residue is inserted, which sends the check to the
        residue's level.  Orbits only grow and representatives never change,
        so a Schreier generator that sifted once stays sifted; each level
        records how many of its points and strong generators were checked.
        """
        checked: dict[int, tuple[int, int]] = {}
        level = len(self.base) - 1
        while level >= 0 and self.bound < self._stop_at:
            inserted = self._verify_level(level, checked)
            level = level - 1 if inserted is None else inserted
        return self.bound

    def _verify_level(self, level: int, checked: dict[int, tuple[int, int]]) -> int | None:
        """Sift the level's unchecked Schreier generators; return the level of
        the first residue inserted, or None once all of them sift."""
        invs, gens = self._orbit_invs[level], self._gens[level]
        old_pts, old_gens = checked.get(level, (0, 0))
        for k, (pt, uinv) in enumerate(list(invs.items())):
            todo = gens[old_gens:] if k < old_pts else gens
            if not todo:
                continue
            by_u = composer(inverse(uinv))
            for s, _ in todo:
                w = compose(by_u(s), invs[s[pt]])
                if w != self._ident:
                    inserted = self._add(w, level + 1)
                    if inserted is not None:
                        return inserted
        checked[level] = (len(invs), len(gens))
        return None

    def _add(self, p: Perm, level: int) -> int | None:
        """Sift p, which fixes base[:level], from that level down; insert a
        nontrivial residue and return its level, or None if p sifts."""
        for invs, b in zip(self._orbit_invs[level:], self.base[level:]):
            uinv = invs.get(p[b])
            if uinv is None:
                break
            p = compose(p, uinv)
            level += 1
        else:
            if p == self._ident:
                return None
            self.base.append(next(i for i in range(self.degree) if p[i] != i))
            self._gens.append([])
            self._orbit_invs.append({self.base[-1]: self._ident})
        p_inv = inverse(p)
        for i in range(level + 1):
            self._gens[i].append((p, p_inv))
            invs = self._orbit_invs[i]
            before = len(invs)
            # the new generator first, on the old orbit; new points then see all
            fresh = []
            for pt in list(invs):
                img = p[pt]
                if img not in invs:
                    invs[img] = compose(p_inv, invs[pt])
                    fresh.append(img)
            for pt in fresh:
                uinv = invs[pt]
                for s, sinv in self._gens[i]:
                    img = s[pt]
                    if img not in invs:
                        invs[img] = compose(sinv, uinv)
                        fresh.append(img)
            self.bound = self.bound // before * len(invs)
        return level


def generates(generators: list[Perm], degree: int, target_order: int) -> bool:
    """Test whether generators known to lie in a group of target_order span
    it: a Schreier-Sims chain stopped once its bound reaches target_order."""
    order = StabilizerChain(generators, degree, stop_at=target_order).exact_order()
    if order > target_order:
        raise RuntimeError(
            f"generators span at least {order} elements, so the check "
            f"\"generators lie in a group of target_order {target_order}\" failed"
        )
    return order == target_order


class ElementTable:
    """Full element list of a permutation group in BFS discovery order.

    Generators are explored in declared order, so element numbering is
    deterministic.  The BFS keeps one id column per generator,
    gen_cols[s][e] = id(e*s), and its discovery tree: element i > 0 is
    element parent[i] times generator letter[i].  Left, right and
    conjugation columns of any element are integer work on these.  When
    s^-1 is a generator too (x, y, x^-1, y^-1, or an involution), the step
    e*s = i also fills gen_cols[s^-1][i] = e, and i's own s^-1 step reads
    it: each Cayley edge is built once, and the numbering, columns and tree
    are those of the BFS that builds every step.

    Given a start tuple of points, the table holds base images instead:
    elements[i] is the image of start under element i, which determines the
    element when the group acts regularly on the orbits of those points.
    Up to PACKED_DEGREE they are bytes (`packed`), and each BFS step is one
    bytes.translate by a packed generator.  Words, gen_cols and left columns
    stay valid; mul and inverse_ids (and so right and conjugation columns)
    need permutations and raise BaseImageError.  Permutation tables stay
    tuples: their elements go on into chains and dict lookups.
    """

    def __init__(
        self,
        generators: list[Perm],
        degree: int,
        cap: int = DEFAULT_CAP,
        start: Perm | None = None,
    ):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.base_images = start is not None
        self.packed = self.base_images and degree <= PACKED_DEGREE
        gens = self.generators
        if start is None:
            ident = identity_perm(degree)
        elif self.packed:
            ident, gens = bytes(start), [pack(g) for g in gens]
        else:
            ident = tuple(start)
        elements = self.elements = [ident]
        index = self.index = {ident: 0}
        # columns grow COLUMN_CHUNK empty slots at a time, cut to size at the end
        cols = self.gen_cols = [[None] * COLUMN_CHUNK for _ in gens]
        room = COLUMN_CHUNK
        parent = self.parent = array("i", [-1])
        letter = self.letter = array("i", [-1])
        # e*s = i gives i*s^-1 = e: each step s also fills s^-1's column
        letter_of = {g: s for s, g in enumerate(self.generators)}
        backs = [letter_of.get(inverse(g)) for g in self.generators]
        learns = any(t is not None for t in backs)
        steps = [
            (s, g, cols[s], None if t is None else cols[t])
            for s, (g, t) in enumerate(zip(gens, backs))
        ]
        kernel = attrgetter("translate") if self.packed else composer
        for e_id, e in enumerate(elements):
            if e_id and learns:  # the index's own int, for the learned entries
                e_id = cols[letter[e_id]][parent[e_id]]
            by_e = kernel(e)
            for s, g, col, back in steps:
                if col[e_id] is not None:  # learned
                    continue
                n = by_e(g)
                i = index.get(n)
                if i is None:
                    i = index[n] = len(elements)
                    elements.append(n)
                    parent.append(e_id)
                    letter.append(s)
                    if i >= cap:
                        raise EnumerationCapError(
                            f"element enumeration passed {cap} elements "
                            f"(partial count {i + 1}); "
                            "raise --cap to allow a larger group"
                        )
                    if i == room:
                        room += COLUMN_CHUNK
                        for c in cols:
                            c.extend([None] * COLUMN_CHUNK)
                col[e_id] = i
                if back is not None:
                    back[i] = e_id
        for c in cols:
            del c[len(elements):]
        self._inverse_ids: list[int] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def _need_perms(self, what: str) -> None:
        if self.base_images:
            raise BaseImageError(
                f"{what} needs permutations, but this table holds base images"
            )

    def mul(self, i: int, j: int) -> int:
        self._need_perms("mul")
        return self.index[compose(self.elements[i], self.elements[j])]

    @property
    def inverse_ids(self) -> list[int]:
        """The id of each element's inverse, built on first use."""
        if self._inverse_ids is None:
            self._need_perms("inverse_ids")
            self._inverse_ids = [self.index[inverse(e)] for e in self.elements]
        return self._inverse_ids

    def inverse_id(self, i: int) -> int:
        return self.inverse_ids[i]

    def word(self, i: int) -> tuple[int, ...]:
        """The BFS tree's word for element i, a shortest one, as generator indices."""
        out = []
        while i:
            out.append(self.letter[i])
            i = self.parent[i]
        return tuple(reversed(out))

    def left_column(self, x: int) -> list[int]:
        """col[e] = id(x*e), down the BFS tree: x*(p*s) = (x*p)*s."""
        col = [x]
        cols = self.gen_cols
        for p, s in zip(islice(self.parent, 1, None), islice(self.letter, 1, None)):
            col.append(cols[s][col[p]])
        return col

    def right_column(self, x: int) -> list[int]:
        """col[e] = id(e*x) = the inverse of x^-1 * e^-1."""
        inv = self.inverse_ids
        left = self.left_column(inv[x])
        return [inv[left[i]] for i in inv]

    def conjugation_column(self, x: int) -> list[int]:
        """col[e] = id(x^-1*e*x), the right column of x after the left of x^-1."""
        inv = self.inverse_ids
        left = self.left_column(inv[x])
        return [inv[left[inv[f]]] for f in left]


def subgroup_table(
    candidates: Iterable[Perm], degree: int, order: int | None = None
) -> ElementTable:
    """The table of the subgroup the candidates span, generated by the ones
    outside the span of the candidates before them.  No candidate is drawn
    once the span reaches `order`."""
    stop = inf if order is None else order
    table = ElementTable([], degree)
    for c in candidates:
        if c not in table.index:
            table = ElementTable(table.generators + [c], degree)
            if table.order >= stop:
                break
    return table


class ConjugacyClassTable:
    """Conjugacy classes of an ElementTable with per-element transporters.

    transporter_ids[e] is the id of an element t with rep^t = element e,
    where rep is the class representative.  The classes are walked through
    the conjugation columns of the table generators, so the transporter of
    x^s is gen_cols[s][t_x]; every transporter is re-verified by tuple
    recomposition during construction.  class_orders[c] is the element
    order shared by every member of class c.

    t^-1 carries a pair (g, h) to (rep, t h t^-1), t the transporter of g.
    `to_rep` follows t's tree word back from its last letter s, one inverted
    conjugation column h -> s h s^-1 of the class walk per letter;
    `to_rep_column` is the same map for every h at once.
    """

    def __init__(self, table: ElementTable):
        self.table = table
        n = table.order
        self.class_of = [-1] * n
        self.reps: list[int] = []
        self.sizes: list[int] = []
        self.transporter_ids = [0] * n
        steps = [
            (table.conjugation_column(table.index[g]), col)
            for g, col in zip(table.generators, table.gen_cols)
        ]
        for start in range(n):
            if self.class_of[start] != -1:
                continue
            cid = len(self.reps)
            self.reps.append(start)
            self.class_of[start] = cid
            queue = [start]
            for e in queue:
                t = self.transporter_ids[e]
                for col, gcol in steps:
                    img = col[e]
                    if self.class_of[img] == -1:
                        self.class_of[img] = cid
                        self.transporter_ids[img] = gcol[t]
                        queue.append(img)
            self.sizes.append(len(queue))
        self._check_transporters()
        self._unconj = [[0] * n for _ in steps]  # per generator s: e -> id(s e s^-1)
        for (col, _), un in zip(steps, self._unconj):
            for e, f in zip(table.index.values(), col):
                un[f] = e
        self.center_ids = sorted(
            self.reps[c] for c in range(len(self.reps)) if self.sizes[c] == 1
        )
        self.class_orders = [perm_order(table.elements[r]) for r in self.reps]
        self._centralizer_ids: dict[int, list[int]] = {}

    def _check_transporters(self) -> None:
        """rep^t = e, checked as rep*t = t*e in tuple arithmetic for every e."""
        elements = self.table.elements
        for e, pe in enumerate(elements):
            rep = elements[self.reps[self.class_of[e]]]
            t = elements[self.transporter_ids[e]]
            if compose(rep, t) != compose(t, pe):
                raise TransporterCheckError(
                    f"transporter check failed: the transporter of element {e} "
                    "does not conjugate its class representative onto it"
                )

    def to_rep(self, g: int, h: int) -> int:
        """t h t^-1 for the transporter t of g."""
        parent, letter, unconj = self.table.parent, self.table.letter, self._unconj
        t = self.transporter_ids[g]
        while t:
            h = unconj[letter[t]][h]
            t = parent[t]
        return h

    def to_rep_column(self, g: int) -> list[int]:
        """col[h] = to_rep(g, h), for every h."""
        table = self.table
        return table.conjugation_column(table.inverse_ids[self.transporter_ids[g]])

    def _schreier_generators(self, cid: int) -> Iterator[Perm]:
        """t_x s t_y^-1 for each member x of class cid, in BFS order, and
        each table generator s, where y = x^s."""
        table = self.table
        gens = [(s, inverse(s)) for s in table.generators]
        seen = {self.reps[cid]}
        queue = [self.reps[cid]]
        for x in queue:
            px = table.elements[x]
            tx = table.elements[self.transporter_ids[x]]
            for s, s_inv in gens:
                y = table.index[compose(compose(s_inv, px), s)]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                ty_inv = inverse(table.elements[self.transporter_ids[y]])
                yield compose(compose(tx, s), ty_inv)

    def centralizer_ids(self, cid: int) -> list[int]:
        """Ids of generators of C(rep) for the representative rep of class
        cid, cached per class.

        |C(rep)| = |G| / |class| is known.  For a class member x and a
        generator s with x^s = y, t_x s t_y^-1 fixes rep under conjugation
        (Schreier's lemma), and these elements generate C(rep); the closure
        keeps the ones it needs to reach the known order.  A central class
        keeps the table generators.
        """
        cached = self._centralizer_ids.get(cid)
        if cached is not None:
            return cached
        table = self.table
        rep = table.elements[self.reps[cid]]
        known = table.order // self.sizes[cid]
        closure = table
        if known != table.order:
            closure = subgroup_table(self._schreier_generators(cid), table.degree, known)
        if any(compose(rep, w) != compose(w, rep) for w in closure.generators):
            raise CentralizerCheckError(
                f"centralizer check failed: a Schreier generator of class "
                f"{cid} does not commute with its representative"
            )
        if closure.order != known:
            raise CentralizerCheckError(
                f"centralizer check failed: class {cid} closes to order "
                f"{closure.order}, not |G|/|class| = {known}"
            )
        out = self._centralizer_ids[cid] = [table.index[w] for w in closure.generators]
        return out
