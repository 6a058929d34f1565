"""Constructions of the supported groups in their natural permutation domains.

Every constructor ends with a hard order gate: the Schreier-Sims order of the
generated group must equal the theoretical order, otherwise construction
fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, gcd

from .permcore import (
    Perm,
    StabilizerChain,
    compose,
    orbit,
    parse_cycles,
    perm_order,
    read_permutation_file,
)
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
    that is the first irreducible modulus (x for d = 1).  Each row of the
    table follows Horner's rule, a*b = b0*a + x*(a*(b // p)), from a
    "times x" table and the scalar multiples of a.
    """

    def __init__(self, q: int):
        factors = factorint(q)
        if len(factors) != 1:
            raise GroupSpecError(f"{q} is not a prime power")
        ((p, d),) = factors.items()
        self.q, self.p, self.d = q, p, d
        # the low digits add mod p; the higher ones are row a // p's sum
        add = [list(range(q))]
        for a in range(1, q):
            add.append([(a + b) % p + p * add[a // p][b // p] for b in range(q)])
        scale = [[0] * q]  # scale[c][a] = c*a for the scalars c < p
        for _ in range(1, p):
            scale.append([add[ca][a] for a, ca in enumerate(scale[-1])])
        top = p ** (d - 1)
        for low in range(p**d):
            # x^d = -low: x*a shifts a's digits up and adds (p-c)*low for the top digit c
            times_x = [add[(a % top) * p][scale[-(a // top) % p][low]] for a in range(q)]
            mul = []
            for a in range(q):
                row = [0]
                for b in range(1, q):
                    row.append(add[scale[b % p][a]][times_x[row[b // p]]])
                mul.append(row)
            if all(0 not in row[1:] for row in mul[1:]):
                break
        else:
            raise AssertionError(f"no irreducible modulus of degree {d} over GF({p})")
        self.modulus = [low // p**i % p for i in range(d)] + [1]
        self._add = add
        self._mul = mul
        self.generator = p if d > 1 else 1  # the class of x generates an extension
        self._verify()

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._add[a].index(0)

    def inv(self, a: int) -> int:
        for b in range(self.q):
            if self._mul[a][b] == 1:
                return b
        raise ZeroDivisionError(f"no inverse for {a} in GF({self.q})")

    def _verify(self) -> None:
        add, mul, rng = self._add, self._mul, range(self.q)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a:
                raise AssertionError("identity axiom failed")
            if any(add[a][b] != add[b][a] or mul[a][b] != mul[b][a] for b in rng):
                raise AssertionError("commutativity failed")
        for a, b, c in product(rng, repeat=3):
            if add[add[a][b]][c] != add[a][add[b][c]]:
                raise AssertionError("additive associativity failed")
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise AssertionError("multiplicative associativity failed")
            if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                raise AssertionError("distributivity failed")
        for a in range(1, self.q):
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


def quaternion_group() -> ConstructedGroup:
    """Quaternion group of order 8 in its regular representation on
    1, i, j, k, -1, -i, -j, -k: right multiplication by i and by j."""
    i = parse_cycles("(1,2,5,6)(3,8,7,4)", 8)
    j = parse_cycles("(1,3,5,7)(2,4,6,8)", 8)
    group = _gate("quaternion8", 8, [i, j], 8)
    # a nonabelian group of order 8 is D8 or Q8, and D8's elements of order 4 commute
    if perm_order(i) != 4 or perm_order(j) != 4 or compose(i, j) == compose(j, i):
        raise ConstructionError("quaternion8: needs noncommuting generators of order 4")
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
        raise GroupSpecError(f"psl2:q supports q in {PSL2_FIELD_SIZES}, not {q}")
    field = FieldGF(q)
    points = [(x, 1) for x in range(q)] + [(1, 0)]
    alpha = field.generator
    matrices = [[[1, 1], [0, 1]], [[1, alpha], [0, 1]], [[0, field.neg(1)], [1, 0]]]
    unique = list(dict.fromkeys(_projective_perms(field, points, matrices)))
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
    degree, body = read_permutation_file(path, "degree", GroupSpecError)
    gens = []
    for ln in body:
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

