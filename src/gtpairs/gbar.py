"""Diagonal model group on pair-orbit representatives and double-coset counts.

The model group lives inside G^r, one coordinate per orbit of the outer
automorphisms on pair classes, generated by the tuple of first members and
the tuple of second members.  The model table's BFS tree gives every
element a word over the alphabet {x, y, x^-1, y^-1}, so images under an
endomorphism given on the two generators can be computed by word
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .atlas import ConstructedGroup
from .autgroup import out_representatives
from .pairs import build_pc, induced_perms
from .permcore import (
    DEFAULT_CAP,
    ConjugacyClassTable,
    ElementTable,
    EnumerationCapError,
    Perm,
    StabilizerChain,
    compose,
    conjugate,
    generates,
    generating_subset,
    identity_perm,
    inverse,
    orbit,
    perm_order,
)
from .structure import mul_power


class GbarError(RuntimeError):
    pass


@dataclass
class DoubleCosets:
    """The double cosets C(x^k) f C(y^k) of the model group, one rep each.

    C(x^k) depends only on <x^k>, so one partition serves every k with the
    same gcds with the generator orders.
    """

    cx: list[Perm]
    cy: list[Perm]
    reps: list[tuple[int, int]]  # (element id, coset size), ascending ids


@dataclass
class GbarGroup:
    """The model group with its element table and canonical generators."""

    spec: str
    r: int
    base_degree: int
    degree: int
    x: Perm
    y: Perm
    table: ElementTable
    base_order: int
    # double-coset partitions keyed by (gcd(k, ord x), gcd(k, ord y))
    partitions: dict[tuple[int, int], DoubleCosets] = field(
        default_factory=dict, repr=False
    )

    @property
    def order(self) -> int:
        return self.table.order


@dataclass
class EndoImages:
    x_image: Perm
    y_image: Perm


@dataclass
class DoubleCosetRep:
    """One double coset with the survival flags of its representative."""

    element: Perm
    word: tuple[int, ...]
    coset_size: int
    generates_model: bool
    theta_ok: bool
    delta_ok: bool

    @property
    def survives(self) -> bool:
        return self.generates_model and self.theta_ok and self.delta_ok


def _embed(p: Perm, w: int, d: int) -> list[int]:
    out = list(range(w * d, w * d + d))
    for i, j in enumerate(p):
        out[i] = w * d + j
    return out


def build_gbar(group: ConstructedGroup, cap: int = DEFAULT_CAP) -> GbarGroup:
    """Enumerate the model group, one window per outer orbit."""
    table = ElementTable(group.generators, group.degree)
    classes = ConjugacyClassTable(table)
    pcset = build_pc(table, classes)
    outs = out_representatives(classes, pcset)
    if pcset.ell % outs.out_order:
        raise GbarError("pair classes do not split evenly into outer orbits")
    out_perms = induced_perms(pcset, outs.maps).out_perms
    seen = [False] * pcset.ell
    reps = []
    for i in range(pcset.ell):
        if seen[i]:
            continue
        for q in orbit(out_perms, i):
            seen[q] = True
        reps.append(i)
    r = len(reps)
    if r != pcset.ell // outs.out_order:
        raise GbarError("outer orbit count disagrees with the free-action count")
    d = group.degree
    x_parts: list[int] = []
    y_parts: list[int] = []
    for w, i in enumerate(reps):
        g_id, h_id = pcset.reps[i]
        x_parts.extend(_embed(table.elements[g_id], w, d))
        y_parts.extend(_embed(table.elements[h_id], w, d))
    x, y = tuple(x_parts), tuple(y_parts)
    # the random fill's bound only: verifying a chain at this degree can take minutes
    at_least = StabilizerChain([x, y], r * d, stop_at=cap + 1).bound
    if at_least > cap:
        raise EnumerationCapError(
            f"model group has at least {at_least} elements, more than --cap {cap}; "
            "raise --cap to allow a larger group"
        )
    gens = [x, y, inverse(x), inverse(y)]
    model = ElementTable(gens, r * d, cap=cap)
    if group.order**r % model.order:
        raise GbarError("model order fails to divide the full power order")
    for w in range(r):
        xs = tuple(x[w * d + i] - w * d for i in range(d))
        ys = tuple(y[w * d + i] - w * d for i in range(d))
        if not generates([xs, ys], d, group.order):
            raise GbarError(f"window {w} projection fails to cover the base group")
    return GbarGroup(
        spec=group.spec,
        r=r,
        base_degree=d,
        degree=r * d,
        x=x,
        y=y,
        table=model,
        base_order=group.order,
    )


def theta_images(gbar: GbarGroup) -> EndoImages:
    return EndoImages(x_image=gbar.y, y_image=gbar.x)


def delta_images(gbar: GbarGroup) -> EndoImages:
    return EndoImages(
        x_image=compose(inverse(gbar.y), inverse(gbar.x)), y_image=gbar.y
    )


def evaluate_endo(gbar: GbarGroup, endo: EndoImages, element: Perm) -> Perm:
    """Substitute the endomorphism images into the element's stored word."""
    letters = [
        endo.x_image,
        endo.y_image,
        inverse(endo.x_image),
        inverse(endo.y_image),
    ]
    acc = identity_perm(gbar.degree)
    for letter in gbar.table.word(gbar.table.index[element]):
        acc = compose(acc, letters[letter])
    return acc


def _window_centralizer(gbar: GbarGroup, a: Perm) -> list[Perm]:
    """The model elements commuting with a, in table order.

    Model elements act window by window, so e commutes with a exactly when
    every window slice of e commutes with the same slice of a.  The verdict
    is memoized per distinct slice; a window has at most |G| of them.
    """
    candidates = gbar.table.elements
    for lo in range(0, gbar.degree, gbar.base_degree):
        hi = lo + gbar.base_degree
        verdict: dict[Perm, bool] = {}
        kept = []
        for e in candidates:
            s = e[lo:hi]
            ok = verdict.get(s)
            if ok is None:
                ok = all(a[s[j - lo]] == s[a[j] - lo] for j in range(lo, hi))
                verdict[s] = ok
            if ok:
                kept.append(e)
        candidates = kept
    return candidates


def _double_cosets(gbar: GbarGroup, xk: Perm, yk: Perm) -> DoubleCosets:
    """Partition the model group into orbits of C(x^k) on the left cosets of C(y^k).

    Each double coset starts from its least unvisited element f.  The left
    coset f C(y^k) is materialized, then a BFS multiplies left-coset
    representatives on the left by generators of C(x^k) and materializes
    the left coset of every unvisited product.
    """
    table = gbar.table
    index = table.index
    cx = _window_centralizer(gbar, xk)
    cy = _window_centralizer(gbar, yk)
    left = generating_subset(cx, gbar.degree)
    visited = [False] * gbar.order

    def materialize(g: Perm) -> int:
        """Mark the left coset g C(y^k) visited and return the flags it flipped."""
        flipped = 0
        for t in cy:
            i = index[compose(g, t)]
            if not visited[i]:
                visited[i] = True
                flipped += 1
        if flipped != len(cy):
            raise GbarError(
                f"left coset check failed: a left coset of C(y^k) flipped {flipped} "
                f"flags, not |C(y^k)| = {len(cy)}"
            )
        return flipped

    covered = 0
    reps: list[tuple[int, int]] = []
    for fid, f in enumerate(table.elements):
        if visited[fid]:
            continue
        size = materialize(f)
        queue = [f]
        for g in queue:
            for s in left:
                n = compose(s, g)
                if not visited[index[n]]:
                    size += materialize(n)
                    queue.append(n)
        reps.append((fid, size))
        covered += size
    if covered != gbar.order:
        raise GbarError(
            f"partition check failed: double cosets cover {covered} of "
            f"{gbar.order} model elements"
        )
    return DoubleCosets(cx=cx, cy=cy, reps=reps)


def double_coset_survey(gbar: GbarGroup, k: int = 1) -> list[DoubleCosetRep]:
    """Flag every double coset of the centralizers of the k-th generator powers.

    The partition is cached on gbar, keyed by (gcd(k, ord x), gcd(k, ord y));
    only the generation, theta and delta flags depend on k itself.
    """
    table = gbar.table

    def power(p: Perm) -> Perm:
        return table.elements[mul_power(table, table.index[p], k)]

    xk = power(gbar.x)
    yk = power(gbar.y)
    key = (gcd(k, perm_order(gbar.x)), gcd(k, perm_order(gbar.y)))
    cosets = gbar.partitions.get(key)
    if cosets is None:
        cosets = gbar.partitions[key] = _double_cosets(gbar, xk, yk)
    cx, cy = cosets.cx, cosets.cy
    cy_set = set(cy)
    theta = theta_images(gbar)
    delta = delta_images(gbar)
    prod_inv_k = power(compose(inverse(gbar.y), inverse(gbar.x)))
    yk_inv = inverse(yk)
    reps: list[DoubleCosetRep] = []
    for fid, size in cosets.reps:
        f = table.elements[fid]
        xkf = conjugate(xk, f)
        gen_ok = generates([xkf, yk], gbar.degree, gbar.order)
        theta_ok = False
        delta_ok = False
        if gen_ok:
            tf = evaluate_endo(gbar, theta, f)
            for s in cx:
                if compose(compose(tf, s), f) in cy_set:
                    theta_ok = True
                    break
        if gen_ok and theta_ok:
            df = evaluate_endo(gbar, delta, f)
            lhs = conjugate(prod_inv_k, df)
            rhs = compose(yk_inv, inverse(xkf))
            for c in cy:
                if conjugate(lhs, c) == rhs:
                    delta_ok = True
                    break
        reps.append(
            DoubleCosetRep(
                element=f,
                word=table.word(fid),
                coset_size=size,
                generates_model=gen_ok,
                theta_ok=theta_ok,
                delta_ok=delta_ok,
            )
        )
    reps.sort(key=lambda rep: (len(rep.word), rep.word))
    return reps


def gt_full_order(group: ConstructedGroup, cap: int = DEFAULT_CAP) -> int:
    """Sum the surviving double cosets over all powers coprime to the order.

    C(x^k) = C(x) when gcd(k, ord x) = 1, so every survey after the first
    reuses the partition cached on the model group and recomputes only the
    flags.  Validated against cyclic targets only; experimental elsewhere.
    """
    gbar = build_gbar(group, cap)
    n = perm_order(gbar.x)
    if perm_order(gbar.y) != n:
        raise GbarError("generator tuples have different orders")
    total = 0
    for k in range(1, n + 1):
        if gcd(k, n) != 1:
            continue
        total += sum(1 for rep in double_coset_survey(gbar, k) if rep.survives)
    return total
