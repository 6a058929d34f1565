"""Reference values computed without any gtpairs code.

Everything here is either a published value (ATLAS outer-automorphism
orders, Hall's Eulerian counts) or a brute-force computation over the
benchmark's own permutation closure.  Permutations are tuples of images of
0..n-1; `mul(p, q)` applies p first, then q.
"""

from __future__ import annotations

import random
from math import gcd

BRUTE_ORDER_LIMIT = 60

# Hall, "The Eulerian functions of a group" (1936): the number of
# Aut(G)-orbits of generating pairs, d_2(G).  psl2:4 and psl2:5 are A5.
HALL_D2 = {"psl2:4": 19, "psl2:5": 19, "psl2:7": 57}

# Fixed-generator presentations of the small groups the benchmark builds
# its own inputs from.  Points are 0-based.
SMALL_GROUP_GENERATORS = {
    "A5": [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
}


def totient(n: int) -> int:
    """Euler's phi by direct count of the units below n."""
    if n < 1:
        raise ValueError("totient needs a positive integer")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, f
    raise ValueError("not a prime power")


def atlas_out_order(spec: str) -> int:
    """|Out(G)| from the ATLAS for the paper's simple groups."""
    if spec.startswith("psl2:"):
        q = int(spec[5:])
        _, f = _prime_power(q)
        return gcd(2, q - 1) * f
    table = {"alternating:7": 2, "psl3:3": 2, "m11": 1}
    if spec not in table:
        raise KeyError(f"no ATLAS value recorded for {spec}")
    return table[spec]


def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[i] for i in p)


def closure(generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All elements of the group the generators span, identity first."""
    ident = tuple(range(len(generators[0])))
    elements = [ident]
    seen = {ident}
    for e in elements:
        for g in generators:
            n = mul(e, g)
            if n not in seen:
                seen.add(n)
                elements.append(n)
    return elements


class SmallGroup:
    """A group of order at most BRUTE_ORDER_LIMIT with its Cayley table."""

    def __init__(self, generators: list[tuple[int, ...]]):
        self.elements = closure(generators)
        self.order = len(self.elements)
        if self.order > BRUTE_ORDER_LIMIT:
            raise ValueError(f"brute force is limited to order {BRUTE_ORDER_LIMIT}")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.table = [
            [self.index[mul(a, b)] for b in self.elements] for a in self.elements
        ]

    def span_size(self, a: int, b: int) -> int:
        seen = {0}
        frontier = [0]
        for e in frontier:
            for g in (a, b):
                n = self.table[e][g]
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return len(frontier)

    def generating_pairs(self) -> int:
        """Ordered pairs (a, b) with <a, b> = G, by closure of every pair."""
        n = self.order
        return sum(
            1 for a in range(n) for b in range(n) if self.span_size(a, b) == n
        )

    def center_order(self) -> int:
        t = self.table
        n = self.order
        return sum(1 for z in range(n) if all(t[z][g] == t[g][z] for g in range(n)))

    def element_order(self, a: int) -> int:
        k, e = 1, a
        while e != 0:
            e = self.table[e][a]
            k += 1
        return k

    def classes_with_order_dividing(self, n: int) -> int:
        """Conjugacy classes of elements whose order divides n."""
        inv = [row.index(0) for row in self.table]
        seen: set[int] = set()
        count = 0
        for z in range(self.order):
            if z in seen or n % self.element_order(z):
                continue
            count += 1
            seen.update(self.table[self.table[inv[g]][z]][g] for g in range(self.order))
        return count

    def random_generating_pair(self, rng: random.Random) -> tuple[int, int]:
        while True:
            a, b = rng.randrange(self.order), rng.randrange(self.order)
            if self.span_size(a, b) == self.order:
                return a, b


def sympy_generates(a: tuple[int, ...], b: tuple[int, ...], order: int) -> bool:
    """Whether <a, b> has the given order, decided by sympy."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation(list(a)), Permutation(list(b))]).order() == order


def sympy_order(generators: list[tuple[int, ...]]) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation(list(g)) for g in generators]).order()


def cycle_text(p: tuple[int, ...]) -> str:
    """1-based cycle notation, "()" for the identity."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(str(i + 1))
            i = p[i]
        parts.append("(" + ",".join(cyc) + ")")
    return "".join(parts) or "()"
