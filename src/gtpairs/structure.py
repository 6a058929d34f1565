"""Composition factors and the direct-factor shape of wreath products.

Every group here is a permutation group held as an ElementTable.  Subgroups
come from `subgroup_table`, the span of conjugacy classes or of chosen
elements, and quotients from `quotient`, the action on the cosets of a
normal subgroup, so composition series are ElementTables too.  The shape of
S = prod E wr Sym(s) is read exactly, one factor at a time, as counts of
C2 and D8 direct factors: by Remak-Krull-Schmidt S is C2^a x D8^b exactly
when every factor is.  The small integer helpers (factorint, isprime) are
stdlib trial division, sized for the group orders met here.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from .permcore import (
    ConjugacyClassTable,
    ElementTable,
    Perm,
    compose,
    inverse,
    is_identity,
    perm_order,
    subgroup_table,
)


class StructureSizeError(RuntimeError):
    pass


def factorint(n: int) -> dict[int, int]:
    """Prime -> exponent map of a positive integer, primes ascending."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def isprime(n: int) -> bool:
    return n >= 2 and factorint(n) == {n: 1}


def factored_text(n: int) -> str:
    """A positive integer as "p^e * q * ...", primes ascending; "1" for 1."""
    parts = [str(p) if e == 1 else f"{p}^{e}" for p, e in factorint(n).items()]
    return " * ".join(parts) or "1"


def quotient(t: ElementTable, normal: ElementTable) -> ElementTable:
    """t acting on the right cosets N*x of a normal subgroup N.

    g sends the coset of rep_c to the coset of rep_c * g.  The kernel of
    this action is N, so the result is isomorphic to t/N.
    """
    coset_of = [-1] * t.order
    reps: list[Perm] = []
    for x, px in enumerate(t.elements):
        if coset_of[x] != -1:
            continue
        for k in normal.elements:
            coset_of[t.index[compose(k, px)]] = len(reps)
        reps.append(px)
    gens = [
        tuple(coset_of[t.index[compose(r, g)]] for r in reps) for g in t.generators
    ]
    return ElementTable(gens, len(reps))


def _direct_factors(e: ElementTable) -> Counter:
    """The direct factors of E counted as C2, D8 or `other`; `other` is
    counted when E is not C2^a x D8^b.

    A group whose order is not a power of 2 is `other`.  An abelian E is
    C2^k exactly when every generator squares to 1.  A nonabelian E that
    is C2^a x D8^b holds r of order 4 and an involution t with t r t = r^-1,
    spanning D ~ D8 with centre <z>, z = r^2.  Let C = C_E(D).  If |C| =
    |E|/4 and z lies outside <c^2 : c in C>, which is Phi(C) for a
    2-group, then E = DC with D n C = <z>, a maximal subgroup M of C
    misses z, and E = D x M with M ~ C/<z>.  Conversely E = D8 x M gives
    C = <z> x M with Phi(C) inside M.  By Krull-Schmidt D8 x M ~ D8 x M'
    forces M ~ M', so the first such pair decides: E is C2^a x D8^b
    exactly when M is C2^a x D8^(b-1).  No such pair means `other`.
    """
    n = e.order
    if n & (n - 1):
        return Counter(other=1)
    gens = e.generators
    if all(compose(a, b) == compose(b, a) for a in gens for b in gens):
        if all(is_identity(compose(a, a)) for a in gens):
            return Counter(C2=n.bit_length() - 1)
        return Counter(other=1)
    involutions = [t for t in e.elements if perm_order(t) == 2]
    for r in (r for r in e.elements if perm_order(r) == 4):
        z = compose(r, r)
        for t in (t for t in involutions if compose(compose(t, r), t) == inverse(r)):
            c = [x for x in e.elements if compose(x, r) == compose(r, x)
                 and compose(x, t) == compose(t, x)]
            if 4 * len(c) == n and z not in subgroup_table(
                [compose(x, x) for x in c], e.degree
            ).index:
                m = quotient(subgroup_table(c, e.degree), subgroup_table([z], e.degree))
                return _direct_factors(m) + Counter(D8=1)
    return Counter(other=1)


def wreath_fingerprint(e_table: ElementTable, s: int) -> Counter:
    """The direct factors of E wr Sym(s) as a Counter over C2, D8 and
    `other`, from the element table of E.

    From s = 3 on, 3 divides s!, so the factor is `other`.  C2^a x D8^b has
    order 2^(a+3b), centre 2^(a+b) and derived order 2^b, while E wr C2 with
    E != 1 has order 2|E|^2, centre |Z(E)| and derived order |E||E'|; these
    agree only for E abelian of order 2.  So s = 2 gives C2 for E = 1, D8
    for |E| = 2 and `other` otherwise, and s = 1 reads E itself.
    """
    if s >= 3:
        return Counter(other=1)
    if s == 2:
        return Counter([{1: "C2", 2: "D8"}.get(e_table.order, "other")])
    return _direct_factors(e_table)


def product_fingerprint(parts: list[Counter]) -> Counter:
    """The direct factors of a direct product: the sum of its factors'
    counts.  By Remak-Krull-Schmidt the product is C2^a x D8^b exactly when
    every factor is."""
    return sum(parts, Counter())


def fingerprint_recognize(fp: Counter) -> tuple[int, int] | None:
    """(a, b) with C2^a x D8^b the group whose factors fp counts, or None
    when a factor is `other`."""
    if fp["other"]:
        return None
    return fp["C2"], fp["D8"]


def simple_factors_of_symmetric(s: int) -> list[tuple[int, str]]:
    """Composition factors of Sym(s) as (order, name), ascending."""
    if s <= 1:
        return []
    if s == 2:
        return [(2, "C2")]
    if s == 3:
        return [(2, "C2"), (3, "C3")]
    if s == 4:
        return [(2, "C2"), (2, "C2"), (2, "C2"), (3, "C3")]
    return [(2, "C2"), (factorial(s) // 2, f"A{s}")]


def _simple_factor(t: ElementTable) -> tuple[int, str]:
    n = t.order
    if isprime(n):
        return n, f"C{n}"
    return n, {60: "A5", 360: "A6", 2520: "A7"}.get(n, f"Other({n})")


def composition_factors_small(
    t: ElementTable, limit: int = 10**4
) -> list[tuple[int, str]]:
    """Composition factors of a group as (order, name), ascending, by minimal
    normal subgroups: the least subgroup spanned by a conjugacy class, then
    its quotient."""
    if t.order > limit:
        raise StructureSizeError(
            f"composition factors supported up to order {limit}, got {t.order}"
        )
    if t.order == 1:
        return []
    classes = ConjugacyClassTable(t)
    members: list[list[Perm]] = [[] for _ in classes.reps]
    for p, c in zip(t.elements, classes.class_of):
        members[c].append(p)
    best = min(
        (subgroup_table(m, t.degree) for m in members[1:]), key=lambda n: n.order
    )
    if best.order == t.order:
        return [_simple_factor(t)]
    sub = composition_factors_small(best, limit)
    quo = composition_factors_small(quotient(t, best), limit)
    return sorted(sub + quo)
