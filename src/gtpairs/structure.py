"""Factored orders, composition factors, and group fingerprints.

Groups enter this module as "mul tables": objects with an integer `order`,
methods mul(a, b), inverse_id(a), element_order(a), and the identity at
id 0.  ElementTable satisfies the interface; SubgroupTable and
QuotientTable below provide it for derived constructions.  Fingerprints
of large products are assembled per factor with closed wreath-product
formulas instead of materializing the group.  The small integer helpers
(factorint, isprime, primerange, partitions) are stdlib trial division and
recursion, sized for the group orders met here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lcm

from .permcore import ElementTable


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


def primerange(a: int, b: int) -> list[int]:
    """Primes p with a <= p < b."""
    return [p for p in range(max(a, 2), b) if isprime(p)]


def partitions(n: int):
    """Partitions of n as fresh {part: multiplicity} dicts, largest part
    first, in reverse lexicographic order."""

    def split(rest: int, largest: int):
        if rest == 0:
            yield {}
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in split(rest - part, part):
                out = {part: 1}
                for q, m in tail.items():
                    out[q] = out.get(q, 0) + m
                yield out

    return split(n, n)


class FactoredOrder:
    """Positive integer kept as a prime -> exponent map."""

    def __init__(self, factors: dict[int, int] | None = None):
        self.factors = {p: e for p, e in sorted((factors or {}).items()) if e}

    @classmethod
    def of(cls, n: int) -> FactoredOrder:
        if n < 1:
            raise ValueError("factored orders are positive integers")
        return cls({int(p): int(e) for p, e in factorint(n).items()})

    @classmethod
    def of_factorial(cls, s: int) -> FactoredOrder:
        """Factor s! by counting prime powers up to s."""
        out: dict[int, int] = {}
        for p in primerange(2, s + 1):
            e, q = 0, p
            while q <= s:
                e += s // q
                q *= p
            out[p] = e
        return cls(out)

    def times(self, other: FactoredOrder) -> FactoredOrder:
        out = dict(self.factors)
        for p, e in other.factors.items():
            out[p] = out.get(p, 0) + e
        return FactoredOrder(out)

    def power(self, k: int) -> FactoredOrder:
        if k < 0:
            raise ValueError("negative power of a factored order")
        return FactoredOrder({p: e * k for p, e in self.factors.items()})

    def value(self) -> int:
        n = 1
        for p, e in self.factors.items():
            n *= p**e
        return n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactoredOrder) and self.factors == other.factors

    def __repr__(self) -> str:
        return f"FactoredOrder({self.factors})"

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors.items():
            parts.append(str(p) if e == 1 else f"{p}^{e}")
        return " * ".join(parts)


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

    def element_order(self, i: int) -> int:
        return self.parent.element_order(self.members[i])


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

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.mul(x, i)
            k += 1
        return k


def mul_power(t, a: int, k: int) -> int:
    """Raise element a of a mul table to the k-th power, k >= 0."""
    out, base = 0, a
    while k:
        if k & 1:
            out = t.mul(out, base)
        base = t.mul(base, base)
        k >>= 1
    return out


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
    """Ids of the commutator subgroup of a mul table."""
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
        o = t.element_order(a)
        hist[o] = hist.get(o, 0) + 1
    return hist


def abelian_invariants(t) -> tuple[int, ...]:
    """Elementary divisors of an abelian mul table, sorted ascending."""
    n = t.order
    if n == 1:
        return ()
    out: list[int] = []
    for p, e_tot in sorted(factorint(n).items()):
        counts = []  # counts[k-1] = number of invariants with exponent >= k
        prev_val = 0
        k = 1
        while prev_val < e_tot:
            pk = p**k
            cnt = sum(1 for a in range(n) if mul_power(t, a, pk) == 0)
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


@dataclass
class GroupFingerprint:
    """Isomorphism-invariant statistics of a finite group."""

    order: int
    exponent: int
    center_order: int
    center_exponent: int
    derived_order: int
    derived_abelian: bool
    derived_exponent: int | None
    abelianization: tuple[int, ...]
    order_histogram: dict[int, int] | None

    @property
    def center_elementary(self) -> bool:
        return self.center_order == 1 or isprime(self.center_exponent)

    @property
    def derived_elementary(self) -> bool:
        if self.derived_order == 1:
            return True
        if not self.derived_abelian:
            return False
        return self.derived_exponent is not None and isprime(self.derived_exponent)

    @classmethod
    def from_mul(cls, t, histogram: bool = True) -> GroupFingerprint:
        hist = element_order_histogram(t)
        exponent = lcm(*hist)
        center = center_element_ids(t)
        center_exp = lcm(*(t.element_order(a) for a in center))
        derived = derived_subgroup_ids(t)
        dsub = SubgroupTable(t, derived)
        d_abelian = all(
            dsub.mul(a, b) == dsub.mul(b, a)
            for a in range(dsub.order)
            for b in range(dsub.order)
        )
        d_exp = lcm(*(dsub.element_order(a) for a in range(dsub.order)))
        ab = abelian_invariants(QuotientTable(t, derived))
        return cls(
            order=t.order,
            exponent=exponent,
            center_order=len(center),
            center_exponent=center_exp,
            derived_order=len(derived),
            derived_abelian=d_abelian,
            derived_exponent=d_exp if d_abelian else None,
            abelianization=ab,
            order_histogram=hist if histogram else None,
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


def wreath_order_histogram(base_hist: dict[int, int], s: int) -> dict[int, int]:
    """Element-order histogram of (base group) wr Sym(s).

    An element with a length-c cycle on top has block order c times the
    order of the cycle product, and there are |base|^(c-1) fillings per
    product value; blocks combine by lcm.  Summed exactly over the cycle
    types of Sym(s).
    """
    base_order = sum(base_hist.values())
    cycle_dist = {}
    for c in range(1, s + 1):
        w = base_order ** (c - 1)
        cycle_dist[c] = {c * d: w * cnt for d, cnt in base_hist.items()}
    total: dict[int, int] = {}
    for part in partitions(s):
        counts = dict(part)
        tops = factorial(s)
        conv = {1: 1}
        for c, m in counts.items():
            tops //= (c**m) * factorial(m)
            for _ in range(m):
                conv = lcm_convolve(conv, cycle_dist[c])
        for o, cnt in conv.items():
            total[o] = total.get(o, 0) + tops * cnt
    if sum(total.values()) != base_order**s * factorial(s):
        raise RuntimeError("wreath histogram mass check failed")
    return total


def wreath_fingerprint(e_table, s: int, histogram: bool = True) -> GroupFingerprint:
    """Fingerprint of E wr Sym(s) from the mul table of E, by closed formulas."""
    if s < 1:
        raise ValueError("wreath multiplicity must be at least 1")
    e_fp = GroupFingerprint.from_mul(e_table)
    if s == 1:
        return e_fp
    eo = e_fp.order
    order = eo**s * factorial(s)
    exponent = lcm(*(c * m for c in range(1, s + 1) for m in e_fp.order_histogram))
    if eo == 1:
        center_order, center_exp = (2, 2) if s == 2 else (1, 1)
    else:
        center_order, center_exp = e_fp.center_order, e_fp.center_exponent
    derived_order = e_fp.derived_order * eo ** (s - 1) * (factorial(s) // 2)
    if eo == 1:
        # the wreath product is Sym(s); its derived subgroup is Alt(s)
        derived_abelian = s <= 3
        derived_exp = {2: 1, 3: 3}.get(s)
    elif s == 2:
        derived_abelian = e_fp.derived_order == 1
        derived_exp = e_fp.exponent if derived_abelian else None
    else:
        derived_abelian = False
        derived_exp = None
    ab = tuple(sorted(e_fp.abelianization + (2,)))
    hist = wreath_order_histogram(e_fp.order_histogram, s) if histogram else None
    return GroupFingerprint(
        order=order,
        exponent=exponent,
        center_order=center_order,
        center_exponent=center_exp,
        derived_order=derived_order,
        derived_abelian=derived_abelian,
        derived_exponent=derived_exp,
        abelianization=ab,
        order_histogram=hist,
    )


def product_fingerprint(
    fps: list[GroupFingerprint], histogram: bool = True
) -> GroupFingerprint:
    """Fingerprint of the direct product of the given fingerprints."""
    out = trivial_fingerprint()
    for fp in fps:
        d_abelian = out.derived_abelian and fp.derived_abelian
        if d_abelian:
            d_exp = lcm(out.derived_exponent, fp.derived_exponent)
        else:
            d_exp = None
        if histogram and out.order_histogram is not None and fp.order_histogram:
            hist = lcm_convolve(out.order_histogram, fp.order_histogram)
        else:
            hist = None
        out = GroupFingerprint(
            order=out.order * fp.order,
            exponent=lcm(out.exponent, fp.exponent),
            center_order=out.center_order * fp.center_order,
            center_exponent=lcm(out.center_exponent, fp.center_exponent),
            derived_order=out.derived_order * fp.derived_order,
            derived_abelian=d_abelian,
            derived_exponent=d_exp,
            abelianization=tuple(sorted(out.abelianization + fp.abelianization)),
            order_histogram=hist,
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
    if fp.order_histogram is None:
        return None
    model = c2_d8_model_fingerprint(a, b)
    if fp == model:
        return (a, b)
    return None


def simple_factors_of_symmetric(s: int) -> list[str]:
    """Composition factor labels of Sym(s)."""
    if s <= 1:
        return []
    if s == 2:
        return ["C2"]
    if s == 3:
        return ["C2", "C3"]
    if s == 4:
        return ["C2", "C2", "C2", "C3"]
    return sorted([f"A{s}", "C2"], key=_label_key)


def simple_factor_order(label: str) -> FactoredOrder:
    if label.startswith("Other(") and label.endswith(")"):
        return FactoredOrder.of(int(label[6:-1]))
    if label.startswith("A"):
        n = int(label[1:])
        factors = dict(FactoredOrder.of_factorial(n).factors)
        factors[2] -= 1
        return FactoredOrder(factors)
    if label.startswith("C"):
        return FactoredOrder.of(int(label[1:]))
    raise ValueError(f"unknown simple factor label {label!r}")


def _label_key(label: str) -> tuple[int, str]:
    return (simple_factor_order(label).value(), label)


def sort_factor_labels(labels: list[str]) -> list[str]:
    return sorted(labels, key=_label_key)


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


def _simple_label(t) -> str:
    n = t.order
    if isprime(n):
        return f"C{n}"
    if n == 60:
        return "A5"
    if n == 360:
        return "A6"
    if n == 2520:
        return "A7"
    return f"Other({n})"


def composition_factors_small(t, limit: int = 10**4) -> list[str]:
    """Composition factor labels of a mul table, by minimal normal subgroups."""
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
        return [_simple_label(t)]
    sub = composition_factors_small(SubgroupTable(t, best), limit)
    quo = composition_factors_small(QuotientTable(t, best), limit)
    return sort_factor_labels(sub + quo)
