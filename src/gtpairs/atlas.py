"""Constructions of the supported groups in their natural permutation domains.

Every constructor ends with a hard order gate: the Schreier-Sims order of the
generated group must equal the theoretical order, otherwise construction
fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, gcd

from .permcore import Perm, StabilizerChain, orbit, parse_cycles, perm_order
from .structure import factorint

PSL2_FIELD_SIZES = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19)


class GroupSpecError(ValueError):
    pass


class ConstructionError(RuntimeError):
    pass


@dataclass
class ConstructedGroup:
    spec: str
    degree: int
    generators: list[Perm]
    order: int


def _gate(spec: str, degree: int, generators: list[Perm], order: int) -> ConstructedGroup:
    got = StabilizerChain(generators, degree).exact_order()
    if got != order:
        raise ConstructionError(
            f"{spec}: generated group has order {got}, expected {order}"
        )
    return ConstructedGroup(spec, degree, generators, order)


class FieldGF:
    """GF(p^d) arithmetic on elements 0..q-1, verified exhaustively.

    Element k encodes the polynomial with base-p digits of k as
    coefficients.  Multiplication is modulo the first monic polynomial of
    degree d, in lexicographic coefficient order, whose multiplication table
    has no zero divisor.  A finite ring without zero divisors is a field, so
    that is the first irreducible modulus (x for d = 1).
    """

    def __init__(self, q: int):
        factors = factorint(q)
        if len(factors) != 1:
            raise GroupSpecError(f"{q} is not a prime power")
        ((p, d),) = factors.items()
        self.q = q
        self.p = p
        self.d = d
        self._add = [
            [self._poly_to_int(self._poly_add(a, b)) for b in range(q)]
            for a in range(q)
        ]
        for counter in range(p**d):
            self.modulus = self._digits(counter) + [1]
            self._mul = [
                [self._poly_to_int(self._poly_mulmod(a, b)) for b in range(q)]
                for a in range(q)
            ]
            if all(0 not in row[1:] for row in self._mul[1:]):
                break
        else:
            raise AssertionError(f"no irreducible modulus of degree {d} over GF({p})")
        self.generator = p if d > 1 else 1  # the class of x generates an extension
        self._verify()

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        for b in range(self.q):
            if self._add[a][b] == 0:
                return b
        raise AssertionError(f"no additive inverse for {a} in GF({self.q})")

    def inv(self, a: int) -> int:
        for b in range(self.q):
            if self._mul[a][b] == 1:
                return b
        raise ZeroDivisionError(f"no inverse for {a} in GF({self.q})")

    def _digits(self, k: int) -> list[int]:
        out = []
        for _ in range(self.d):
            out.append(k % self.p)
            k //= self.p
        return out

    def _poly_to_int(self, coeffs: list[int]) -> int:
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + c
        return val

    def _poly_add(self, a: int, b: int) -> list[int]:
        da, db = self._digits(a), self._digits(b)
        return [(x + y) % self.p for x, y in zip(da, db)]

    def _poly_mulmod(self, a: int, b: int) -> list[int]:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.d - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus
        for top in range(len(prod) - 1, self.d - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for k, m in enumerate(self.modulus[:-1]):
                    idx = top - self.d + k
                    prod[idx] = (prod[idx] - c * m) % self.p
        return prod[: self.d]

    def _verify(self) -> None:
        q = self.q
        rng = range(q)
        for a in rng:
            if self._add[a][0] != a or self._mul[a][1] != a:
                raise AssertionError("identity axiom failed")
            for b in rng:
                if self._add[a][b] != self._add[b][a] or self._mul[a][b] != self._mul[b][a]:
                    raise AssertionError("commutativity failed")
        for a in rng:
            for b in rng:
                for c in rng:
                    if self._add[self._add[a][b]][c] != self._add[a][self._add[b][c]]:
                        raise AssertionError("additive associativity failed")
                    if self._mul[self._mul[a][b]][c] != self._mul[a][self._mul[b][c]]:
                        raise AssertionError("multiplicative associativity failed")
                    if self._mul[a][self._add[b][c]] != self._add[self._mul[a][b]][self._mul[a][c]]:
                        raise AssertionError("distributivity failed")
        for a in range(1, q):
            self.inv(a)


def cyclic_group(n: int) -> ConstructedGroup:
    if n < 1:
        raise GroupSpecError("cyclic:n needs n >= 1")
    gen = tuple((i + 1) % n for i in range(n))
    return _gate(f"cyclic:{n}", n, [gen], n)


def dihedral_group(n: int) -> ConstructedGroup:
    """Dihedral group of order 2n on the n polygon vertices, two reflections."""
    if n < 3:
        raise GroupSpecError("dihedral:n needs n >= 3")
    s = tuple((-i) % n for i in range(n))
    t = tuple((1 - i) % n for i in range(n))
    return _gate(f"dihedral:{n}", n, [s, t], 2 * n)


def symmetric_group(n: int) -> ConstructedGroup:
    if n < 2:
        raise GroupSpecError("symmetric:n needs n >= 2")
    swap = tuple([1, 0] + list(range(2, n)))
    cyc = tuple((i + 1) % n for i in range(n))
    gens = [swap] if n == 2 else [swap, cyc]
    return _gate(f"symmetric:{n}", n, gens, factorial(n))


def alternating_group(n: int) -> ConstructedGroup:
    if n < 3:
        raise GroupSpecError("alternating:n needs n >= 3")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = tuple([0] + [1 + (i % (n - 1)) for i in range(1, n)])
    gens = [three] if n == 3 else [three, big]
    return _gate(f"alternating:{n}", n, gens, factorial(n) // 2)


def _quat_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Multiply quaternions given as (sign, axis) with axes 1, i, j, k."""
    sa, xa = a
    sb, xb = b
    sign = sa * sb
    if xa == 0:
        return (sign, xb)
    if xb == 0:
        return (sign, xa)
    if xa == xb:
        return (-sign, 0)
    # i*j = k and cyclic; reversed order flips sign
    if (xa, xb) in ((1, 2), (2, 3), (3, 1)):
        return (sign, {(1, 2): 3, (2, 3): 1, (3, 1): 2}[(xa, xb)])
    return (-sign, {(2, 1): 3, (3, 2): 1, (1, 3): 2}[(xa, xb)])


def quaternion_group() -> ConstructedGroup:
    """Quaternion group of order 8 in its regular representation."""
    elems = [(s, x) for s in (1, -1) for x in range(4)]
    idx = {e: i for i, e in enumerate(elems)}
    by_i = tuple(idx[_quat_mul(e, (1, 1))] for e in elems)
    by_j = tuple(idx[_quat_mul(e, (1, 2))] for e in elems)
    group = _gate("quaternion8", 8, [by_i, by_j], 8)
    if sum(1 for e in group.generators if perm_order(e) != 4) != 0:
        raise ConstructionError("quaternion8: generators must have order 4")
    return group


def _projective_perms(
    field: FieldGF, points: list[tuple[int, ...]], matrices: list[list[list[int]]]
) -> list[Perm]:
    """Matrices acting on projective points by v -> v*m, as permutations of
    the point list.  Every point is scaled so its last nonzero coordinate is 1."""
    index = {pt: i for i, pt in enumerate(points)}

    def image(v: tuple[int, ...], m: list[list[int]]) -> tuple[int, ...]:
        w = [0] * len(v)
        for vi, row in zip(v, m):
            w = [field.add(c, field.mul(vi, mij)) for c, mij in zip(w, row)]
        s = field.inv(next(c for c in reversed(w) if c))
        return tuple(field.mul(c, s) for c in w)

    return [tuple(index[image(v, m)] for v in points) for m in matrices]


def psl2_group(q: int) -> ConstructedGroup:
    if q not in PSL2_FIELD_SIZES:
        raise GroupSpecError(
            f"psl2:q supports q in {PSL2_FIELD_SIZES}, not {q}"
        )
    field = FieldGF(q)
    points = [(x, 1) for x in range(q)] + [(1, 0)]
    alpha = field.generator
    matrices = [[[1, 1], [0, 1]], [[1, alpha], [0, 1]], [[0, field.neg(1)], [1, 0]]]
    gens = _projective_perms(field, points, matrices)
    unique = []
    for g in gens:
        if g not in unique:
            unique.append(g)
    order = q * (q * q - 1) // gcd(2, q - 1)
    return _gate(f"psl2:{q}", q + 1, unique, order)


def psl3_3_group() -> ConstructedGroup:
    field = FieldGF(3)
    # nonzero vectors whose last nonzero coordinate is 1, lexicographic
    points = [v for v in product(range(3), repeat=3) if [c for c in v if c][-1:] == [1]]
    matrices = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
                m[i][j] = 1
                matrices.append(m)
    return _gate("psl3:3", 13, _projective_perms(field, points, matrices), 5616)


def m11_group() -> ConstructedGroup:
    a = parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 11)
    b = parse_cycles("(3,7,11,8)(4,10,5,6)", 11)
    group = _gate("m11", 11, [a, b], 7920)
    # gate also on 2-transitivity: the action on ordered pairs, as 11x + y
    on_pairs = [tuple(11 * g[i // 11] + g[i % 11] for i in range(121)) for g in [a, b]]
    if len(orbit(on_pairs, 1)) != 11 * 10:
        raise ConstructionError("m11: action is not 2-transitive")
    return group


def load_group_file(path: str) -> ConstructedGroup:
    """Read a group from a text file: a degree line, then generator lines.

    Generators are cycle notation like (1,2,3)(4,5) or a line
    "images i1 ... iN" giving 1-based images.  Blank lines and lines starting
    with # are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError as err:
        raise GroupSpecError(f"{path}: not UTF-8 text ({err.reason})") from None
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("degree"):
        raise GroupSpecError(f"{path}: first line must be 'degree N'")
    try:
        degree = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GroupSpecError(f"{path}: malformed degree line {lines[0]!r}") from None
    if degree < 1:
        raise GroupSpecError(f"{path}: degree must be positive")
    gens = []
    for ln in lines[1:]:
        if ln.lower().startswith("images"):
            toks = ln.split()[1:]
            if len(toks) != degree:
                raise GroupSpecError(f"{path}: images line needs {degree} entries")
            try:
                images = tuple(int(t) - 1 for t in toks)
            except ValueError:
                raise GroupSpecError(f"{path}: non-integer entry in {ln!r}") from None
            if sorted(images) != list(range(degree)):
                raise GroupSpecError(f"{path}: images line is not a permutation")
            gens.append(images)
        else:
            gens.append(parse_cycles(ln, degree))
    if not gens:
        raise GroupSpecError(f"{path}: no generators given")
    order = StabilizerChain(gens, degree).exact_order()
    return ConstructedGroup(f"file:{path}", degree, gens, order)


def construct(spec: str) -> ConstructedGroup:
    """Build the group named by a spec string like psl2:7 or dihedral:5."""
    if spec == "quaternion8":
        return quaternion_group()
    if spec == "m11":
        return m11_group()
    if spec == "psl3:3":
        return psl3_3_group()
    if spec.startswith("file:"):
        return load_group_file(spec[5:])
    if ":" in spec:
        family, _, param = spec.partition(":")
        try:
            n = int(param)
        except ValueError:
            raise GroupSpecError(f"bad parameter in {spec!r}") from None
        if family == "cyclic":
            return cyclic_group(n)
        if family == "dihedral":
            return dihedral_group(n)
        if family == "symmetric":
            return symmetric_group(n)
        if family == "alternating":
            return alternating_group(n)
        if family == "psl2":
            return psl2_group(n)
    raise GroupSpecError(f"unknown group spec {spec!r}")


def atlas_entries() -> list[str]:
    """Spec strings of the supported families, one line each."""
    return [
        "cyclic:n          cyclic group of order n (n >= 1)",
        "dihedral:n        dihedral group of order 2n (n >= 3)",
        "symmetric:n       symmetric group on n points (n >= 2)",
        "alternating:n     alternating group on n points (n >= 3)",
        "quaternion8       quaternion group of order 8, regular representation",
        "psl2:q            PSL2(F_q) on the projective line, q in "
        + ",".join(str(q) for q in PSL2_FIELD_SIZES),
        "psl3:3            PSL3(F_3) on the 13 points of the projective plane",
        "m11               Mathieu group on 11 points",
        "file:PATH         generators from a text file (degree line, cycles)",
    ]

