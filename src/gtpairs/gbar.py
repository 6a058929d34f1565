"""Diagonal model group on pair-orbit representatives and double-coset counts.

The model group lives inside G^r, one window per orbit of the outer
automorphisms on pair classes, generated by the tuple of first members and
the tuple of second members.  The model table holds each element as its r
base-group element ids, window w's shifted by w*|G|: the image of the
points w*|G| when the generators act on r copies of G by right
multiplication.  G acts regularly on itself, so these r points determine
the element.  Up to 256 window points they are bytes, and each step of
the model table's BFS is one bytes.translate.  Products walk the model
table's generator columns along BFS tree words over the alphabet
{x, y, x^-1, y^-1}, so images under an endomorphism given on the two
generators are word substitutions.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, product
from math import gcd, prod

# ConjugacyClassTable, build_pc, out_representatives and generates are
# re-exported: perfbench/spans.py traces them under these names
from .autgroup import out_representatives  # noqa: F401
from .pairs import PairLookupError, PcSet, build_pc  # noqa: F401
from .permcore import (
    DEFAULT_CAP,
    ConjugacyClassTable,  # noqa: F401
    ElementTable,
    EnumerationCapError,
    Perm,
    StabilizerChain,
    composer,
    generates,  # noqa: F401
    pack,
    perm_order,
)


class GbarError(RuntimeError):
    pass


class DoubleCosets(namedtuple("DoubleCosets", "cy reps coset_of")):
    """The model group cut into the double cosets C(x) f C(y), one rep each:
    cy is C(y) as model ids, ascending; reps holds (element id, coset size)
    by ascending id; coset_of maps a model id to its double coset's index in
    reps."""

    __slots__ = ()


class GbarGroup:
    """The model group with its element table, the base group's pair
    classes, the outer orbit of each pair class (orbit_of[c] = the window
    of c's orbit) and the generators as permutations of degree r*d."""

    def __init__(
        self,
        r: int,
        x: Perm,
        y: Perm,
        pcset: PcSet,
        table: ElementTable,
        orbit_of: list[int],
    ) -> None:
        self.r, self.x, self.y, self.pcset, self.table = r, x, y, pcset, table
        self.orbit_of = orbit_of

    @property
    def base(self) -> ElementTable:
        return self.pcset.table

    @property
    def order(self) -> int:
        return self.table.order

    def window_ids(self, i: int) -> list[int]:
        """The base-group ids of model element i, one per window."""
        n = self.base.order
        return [p - w * n for w, p in enumerate(self.table.elements[i])]


class EndoImages(namedtuple("EndoImages", "x_image y_image")):
    """The words of the images of x and y over the letters 0 = x, 1 = y,
    2 = x^-1, 3 = y^-1."""

    __slots__ = ()


THETA = EndoImages(x_image=(1,), y_image=(0,))  # x <-> y
DELTA = EndoImages(x_image=(3, 2), y_image=(1,))  # x -> y^-1 x^-1, y -> y


class DoubleCosetRep(
    namedtuple("DoubleCosetRep", "word coset_size generates_model theta_ok delta_ok")
):
    """One double coset with the survival flags of its representative, the
    model element reached by word from the identity."""

    __slots__ = ()

    @property
    def survives(self) -> bool:
        return self.generates_model and self.theta_ok and self.delta_ok


def _windows(base: ElementTable, ids: list[int]) -> Perm:
    """The permutation of degree r*d acting as base element ids[w] on window w."""
    d = base.degree
    return tuple([w * d + j for w, e in enumerate(ids) for j in base.elements[e]])


def _right_actions(base: ElementTable, windows: list[list[int]]) -> list[list[int]]:
    """Right multiplication by base element ids[w] on window w, for each ids
    in windows, as permutations of the r*|G| window points."""
    n = base.order
    columns: dict[int, list[int]] = {}
    out = []
    for ids in windows:
        action: list[int] = []
        for w, e in enumerate(ids):
            col = columns.get(e)
            if col is None:
                col = columns[e] = base.right_column(e)
            action.extend([w * n + c for c in col])
        out.append(action)
    return out


def build_gbar(
    pcset: PcSet, orbit_reps: list[int], orbit_of: list[int], cap: int = DEFAULT_CAP
) -> GbarGroup:
    """Enumerate the model group, one window per outer orbit of pair
    classes, on its least class: `InducedPerms.orbit_reps`.  orbit_of maps
    each pair class to the window of its outer orbit."""
    base = pcset.table
    r = len(orbit_reps)
    xs = [pcset.reps[i][0] for i in orbit_reps]
    ys = [pcset.reps[i][1] for i in orbit_reps]
    x, y = _windows(base, xs), _windows(base, ys)
    # |M| exactly, or a proven lower bound past the cap
    order = StabilizerChain([x, y], r * base.degree, stop_at=cap + 1).exact_order()
    if order > cap:
        raise EnumerationCapError(
            f"model group has at least {order} elements, more than --cap {cap}; "
            "raise --cap to allow a larger group"
        )
    inv = base.inverse_ids
    gens = _right_actions(base, [xs, ys, [inv[g] for g in xs], [inv[h] for h in ys]])
    n = base.order
    model = ElementTable(gens, r * n, cap=cap, start=tuple(range(0, r * n, n)))
    if model.order != order:
        raise GbarError(
            f"model order check failed: the table holds {model.order} elements, "
            f"the Schreier-Sims chain counts {order}"
        )
    if n**r % model.order:
        raise GbarError("model order fails to divide the full power order")
    # each window is a pair-class representative, which the sweep proved
    # generates G: it locates back to its own class
    for w, o in enumerate(orbit_reps):
        try:
            located = pcset.locate(*pcset.reps[o])
        except PairLookupError:
            located = -1
        if located != o:
            raise GbarError(f"window {w} projection fails to cover the base group")
    return GbarGroup(r=r, x=x, y=y, pcset=pcset, table=model, orbit_of=orbit_of)


def _inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([(s + 2) % 4 for s in reversed(word)])


def _walk(table: ElementTable, e: int, word: tuple[int, ...]) -> int:
    """The id of element e times the word, through the generator columns."""
    cols = table.gen_cols
    for s in word:
        e = cols[s][e]
    return e


def evaluate_endo(gbar: GbarGroup, endo: EndoImages, i: int) -> int:
    """Substitute the endomorphism images into element i's tree word."""
    x, y = endo.x_image, endo.y_image
    images = [x, y, _inverse_word(x), _inverse_word(y)]
    word = tuple([s for letter in gbar.table.word(i) for s in images[letter]])
    return _walk(gbar.table, 0, word)


def _window_centralizer(gbar: GbarGroup, a: int) -> list[int]:
    """Ids of the model elements commuting with model element a, ascending.

    Model elements act window by window, so e commutes with a exactly when
    every window entry of e commutes in G with the same entry of a.  When
    the product of the window centralizers is smaller than the model, its
    members found in the model table's index are the answer; otherwise the
    model table is scanned.
    """
    base, n, table = gbar.base, gbar.base.order, gbar.table
    cents = []
    for w, b in enumerate(gbar.window_ids(a)):
        left, right = base.left_column(b), base.right_column(b)
        cents.append([w * n + e for e in range(n) if left[e] == right[e]])
    if prod(map(len, cents)) < table.order:
        form = bytes if table.packed else tuple
        found = map(table.index.get, map(form, product(*cents)))
        return sorted(i for i in found if i is not None)
    allowed = set(chain.from_iterable(cents))
    return [i for i, e in enumerate(table.elements) if allowed.issuperset(e)]


def _double_cosets(gbar: GbarGroup) -> DoubleCosets:
    """Partition the model group into the double cosets C(x) f C(y).

    Each double coset starts from its least unvisited element f and is the
    union of the left cosets c f C(y), c in C(x): the left coset of every
    unvisited product c f is materialized.  y is central in C(y), so a left
    coset g C(y) is the union of the g t <y> over a transversal t of <y> in
    C(y): one product g t, then a walk of y's column.
    """
    table = gbar.table
    index, elements, word = table.index, table.elements, table.word
    ycol = table.gen_cols[1]
    cx = _window_centralizer(gbar, table.gen_cols[0][0])
    cy = _window_centralizer(gbar, ycol[0])
    transversal: list[int] = []
    seen: set[int] = set()
    for t in cy:
        if t not in seen:
            transversal.append(t)
            e = t
            while e not in seen:  # the coset t <y>
                seen.add(e)
                e = ycol[e]
    y_order = perm_order(gbar.y)
    rights = _right_actions(gbar.base, [gbar.window_ids(t) for t in transversal])
    if table.packed:
        rights = [pack(right) for right in rights]
    coset_of = [-1] * gbar.order

    def materialize(g: int, d: int) -> int:
        """Put the left coset g C(y) in double coset d; return how many
        elements it moved."""
        moved = 0
        by_g = composer(elements[g])
        for right in rights:
            i = index[by_g(right)]
            for _ in range(y_order):
                if coset_of[i] < 0:
                    coset_of[i] = d
                    moved += 1
                i = ycol[i]
        if moved != len(cy):
            raise GbarError(
                f"left coset check failed: a left coset of C(y) moved {moved} "
                f"elements, not |C(y)| = {len(cy)}"
            )
        return moved

    covered = 0
    reps: list[tuple[int, int]] = []
    for fid in range(gbar.order):
        if coset_of[fid] >= 0:
            continue
        d, f = len(reps), word(fid)
        size = 0
        for c in cx:
            g = _walk(table, c, f)
            if coset_of[g] < 0:
                size += materialize(g, d)
        reps.append((fid, size))
        covered += size
    if covered != gbar.order:
        raise GbarError(
            f"partition check failed: double cosets cover {covered} of "
            f"{gbar.order} model elements"
        )
    return DoubleCosets(cy=cy, reps=reps, coset_of=coset_of)


def double_coset_survey(
    gbar: GbarGroup, k: int = 1, cosets: DoubleCosets | None = None
) -> list[DoubleCosetRep]:
    """Flag every double coset C(x^k) f C(y^k), for k prime to ord x and ord y.

    For such k, C(x^k) = C(x) and C(y^k) = C(y), so every power reads the
    same partition; it is built here unless cosets is given.  Only the
    generation, theta and delta flags depend on k.  The flags are model-id
    arithmetic.

    Generation of M by a = (x^k)^f and b = y^k is read off their window
    pairs (`PcSet.locate`): <a, b> = M exactly when every window pair
    generates G and the r window pairs lie in r distinct outer orbits.  The
    kernel of F_2 -> G, (X, Y) -> (g, h), depends only on the outer orbit
    of the generating pair (g, h) (P. Hall, 1936), and M's windows hold one
    pair of each orbit.  If the r window pairs lie in r distinct orbits,
    <a, b> has M's kernel, hence M's order, and lies in M: it is M.
    Conversely let phi: F_2 -> M send X -> a, Y -> b, onto if <a, b> = M.
    Window w's kernel is then phi^-1(K_w), K_w the kernel of M's projection
    to window w.  The K_w are distinct, as M's own windows lie in distinct
    orbits, so the window kernels are distinct and the window pairs lie in
    distinct orbits.  A window pair that fails to generate G, or two
    windows in one orbit, prove that <a, b> != M.
    """
    if gcd(k, perm_order(gbar.x)) != 1 or gcd(k, perm_order(gbar.y)) != 1:
        raise ValueError(f"power {k} is not prime to the generator orders")
    if cosets is None:
        cosets = _double_cosets(gbar)
    table = gbar.table
    word = table.word
    xk_word, yk_word = (0,) * k, (1,) * k
    yk = _walk(table, 0, yk_word)
    cy, coset_of = cosets.cy, cosets.coset_of
    prod_inv_k = DELTA.x_image * k  # (y^-1 x^-1)^k
    yk_windows = gbar.window_ids(yk)
    locate, orbit_of = gbar.pcset.locate, gbar.orbit_of

    def generates_model(i: int) -> bool:
        pairs = zip(gbar.window_ids(i), yk_windows)
        try:
            orbits = {orbit_of[locate(g, h)] for g, h in pairs}
        except PairLookupError:
            return False
        return len(orbits) == gbar.r

    reps: list[DoubleCosetRep] = []
    for d, (fid, size) in enumerate(cosets.reps):
        f = word(fid)
        xkf = _walk(table, _walk(table, 0, _inverse_word(f)), xk_word + f)
        gen_ok = generates_model(xkf)
        theta_ok = False
        delta_ok = False
        if gen_ok:
            # theta(f) s f lies in C(y) for some s in C(x) exactly when
            # theta(f)^-1 lies in C(x) f C(y)
            tf = word(evaluate_endo(gbar, THETA, fid))
            theta_ok = coset_of[_walk(table, 0, _inverse_word(tf))] == d
        if theta_ok:
            # c^-1 lhs c = rhs, tested as lhs c = c rhs
            df = word(evaluate_endo(gbar, DELTA, fid))
            lhs = _walk(table, 0, _inverse_word(df) + prod_inv_k + df)
            rhs = word(_walk(table, 0, _inverse_word(word(xkf) + yk_word)))
            delta_ok = any(_walk(table, lhs, word(c)) == _walk(table, c, rhs) for c in cy)
        reps.append(
            DoubleCosetRep(
                word=f,
                coset_size=size,
                generates_model=gen_ok,
                theta_ok=theta_ok,
                delta_ok=delta_ok,
            )
        )
    reps.sort(key=lambda rep: (len(rep.word), rep.word))
    return reps


def survivor_counts(gbar: GbarGroup) -> dict[int, int]:
    """The surviving double cosets of each power k coprime to the order.

    The partition is built once and handed to each power's survey, which
    recomputes only the flags.  Validated against cyclic targets only;
    experimental elsewhere.
    """
    n = perm_order(gbar.x)
    if perm_order(gbar.y) != n:
        raise GbarError("generator tuples have different orders")
    cosets = _double_cosets(gbar)
    return {
        k: sum(1 for rep in double_coset_survey(gbar, k, cosets) if rep.survives)
        for k in range(1, n + 1)
        if gcd(k, n) == 1
    }


def gt_full_order(gbar: GbarGroup) -> int:
    """Sum the surviving double cosets over all powers coprime to the order."""
    return sum(survivor_counts(gbar).values())
