"""Composition factors and group fingerprints.

Every group here is a permutation group held as an ElementTable.  Subgroups
come from `subgroup_table`, the span of conjugacy classes or commutators,
and quotients from `quotient`, the action on the cosets of a normal
subgroup, so derived subgroups, abelianizations and composition series are
ElementTables too.  Fingerprints of large products are assembled per factor
with closed wreath-product formulas instead of materializing the group.
The small integer helpers (factorint, isprime) are stdlib trial division,
sized for the group orders met here.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, lcm

from .permcore import (
    ConjugacyClassTable,
    ElementTable,
    Perm,
    compose,
    conjugate,
    inverse,
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


def derived_subgroup(t: ElementTable) -> ElementTable:
    """The commutator subgroup, spanned by the commutators [x, s] of the
    elements x with the generators s.

    [x, s]^g = [xg, s][g, s]^-1, so the span is normal, and every generator
    is central modulo it, so the quotient is abelian.
    """
    comms = (
        compose(inverse(x), conjugate(x, s)) for x in t.elements for s in t.generators
    )
    return subgroup_table(comms, t.degree)


def element_order_histogram(t: ElementTable) -> dict[int, int]:
    hist: dict[int, int] = {}
    for a in range(t.order):
        o = t.element_order(a)
        hist[o] = hist.get(o, 0) + 1
    return hist


def abelian_invariants(t: ElementTable) -> tuple[int, ...]:
    """Elementary divisors of an abelian group, sorted ascending.

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


class GroupFingerprint(
    namedtuple(
        "GroupFingerprint",
        "order exponent center_order center_exponent derived_order "
        "derived_abelian derived_exponent abelianization order_histogram",
    )
):
    """Isomorphism-invariant statistics of a finite group.  derived_exponent
    is None unless the derived subgroup is abelian."""

    __slots__ = ()

    @classmethod
    def from_mul(cls, t: ElementTable) -> GroupFingerprint:
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
            center_exponent=lcm(*(t.element_order(a) for a in center)),
            derived_order=derived.order,
            derived_abelian=d_abelian,
            derived_exponent=(
                lcm(*element_order_histogram(derived)) if d_abelian else None
            ),
            abelianization=abelian_invariants(quotient(t, derived)),
            order_histogram=hist,
        )


def trivial_fingerprint() -> GroupFingerprint:
    return GroupFingerprint(1, 1, 1, 1, 1, True, 1, (), {1: 1})


def lcm_convolve(h1: dict[int, int], h2: dict[int, int]) -> dict[int, int]:
    """Order histogram of a direct product from the factor histograms."""
    out: dict[int, int] = {}
    for o1, c1 in h1.items():
        for o2, c2 in h2.items():
            o = lcm(o1, o2)
            out[o] = out.get(o, 0) + c1 * c2
    return out


def wreath_fingerprint(e_table: ElementTable, s: int) -> GroupFingerprint:
    """Fingerprint of E wr Sym(s), s = 1 or 2, from the element table of E,
    by closed formulas.

    ((a, b)t)^2 = (ab, ba) for the swap t, so such an element has order
    2 o(ab), and |E| pairs (a, b) share each product ab.  Only 2-groups are
    fingerprinted, and 3 divides s! from s = 3 on.
    """
    if s not in (1, 2):
        raise ValueError("wreath fingerprints cover s = 1 and s = 2 only")
    e_fp = GroupFingerprint.from_mul(e_table)
    if s == 1:
        return e_fp
    eo = e_fp.order
    hist = lcm_convolve(e_fp.order_histogram, e_fp.order_histogram)
    for d, cnt in e_fp.order_histogram.items():
        hist[2 * d] = hist.get(2 * d, 0) + eo * cnt
    if eo == 1:
        center_order, center_exp = 2, 2
    else:
        center_order, center_exp = e_fp.center_order, e_fp.center_exponent
    derived_abelian = e_fp.derived_order == 1
    return GroupFingerprint(
        order=2 * eo**2,
        exponent=2 * e_fp.exponent,
        center_order=center_order,
        center_exponent=center_exp,
        derived_order=e_fp.derived_order * eo,
        derived_abelian=derived_abelian,
        derived_exponent=e_fp.exponent if derived_abelian else None,
        abelianization=tuple(sorted(e_fp.abelianization + (2,))),
        order_histogram=hist,
    )


def product_fingerprint(fps: list[GroupFingerprint]) -> GroupFingerprint:
    """Fingerprint of the direct product of the given fingerprints."""
    out = trivial_fingerprint()
    for fp in fps:
        d_abelian = out.derived_abelian and fp.derived_abelian
        if d_abelian:
            d_exp = lcm(out.derived_exponent, fp.derived_exponent)
        else:
            d_exp = None
        out = GroupFingerprint(
            order=out.order * fp.order,
            exponent=lcm(out.exponent, fp.exponent),
            center_order=out.center_order * fp.center_order,
            center_exponent=lcm(out.center_exponent, fp.center_exponent),
            derived_order=out.derived_order * fp.derived_order,
            derived_abelian=d_abelian,
            derived_exponent=d_exp,
            abelianization=tuple(sorted(out.abelianization + fp.abelianization)),
            order_histogram=lcm_convolve(out.order_histogram, fp.order_histogram),
        )
    return out


def _two_power_exponent(n: int) -> int | None:
    if n < 1 or n & (n - 1):
        return None
    return n.bit_length() - 1


def c2_d8_model_fingerprint(a: int, b: int) -> GroupFingerprint:
    """Fingerprint of C2^a x D8^b, built from the order-2 group by formula."""
    c2 = ElementTable([(1, 0)], 2)
    factors = [GroupFingerprint.from_mul(c2)] * a + [wreath_fingerprint(c2, 2)] * b
    return product_fingerprint(factors)


def fingerprint_recognize(fp: GroupFingerprint) -> tuple[int, int] | None:
    """Solve for (a, b) with fp consistent with C2^a x D8^b, if possible."""
    big_a = _two_power_exponent(fp.order)
    big_b = _two_power_exponent(fp.center_order)
    if big_a is None or big_b is None:
        return None
    if big_a < big_b or (big_a - big_b) % 2:
        return None
    b = (big_a - big_b) // 2
    a = big_b - b
    if a < 0:
        return None
    model = c2_d8_model_fingerprint(a, b)
    if fp == model:
        return (a, b)
    return None


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
