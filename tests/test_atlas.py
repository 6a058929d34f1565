from __future__ import annotations

import time
from math import factorial, gcd

import pytest

from gtpairs import atlas
from gtpairs.atlas import (
    PSL2_FIELD_SIZES,
    ConstructionError,
    FieldGF,
    GroupSpecError,
    atlas_entries,
    construct,
    load_group_file,
)
from gtpairs.permcore import compose, perm_order
from group_oracles import direct_product, is_transitive


def test_family_orders() -> None:
    assert construct("cyclic:12").order == 12
    assert construct("cyclic:1").order == 1
    assert construct("dihedral:7").order == 14
    assert construct("symmetric:5").order == 120
    assert construct("alternating:6").order == 360
    assert construct("quaternion8").order == 8
    assert construct("psl3:3").order == 5616
    assert construct("m11").order == 7920


def test_psl2_orders_and_degrees() -> None:
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19):
        g = construct(f"psl2:{q}")
        assert g.degree == q + 1
        assert g.order == q * (q * q - 1) // gcd(2, q - 1)


def test_dihedral_generators_are_reflections() -> None:
    for n in (5, 8, 12):
        g = construct(f"dihedral:{n}")
        s, t = g.generators
        assert perm_order(s) == 2
        assert perm_order(t) == 2
        assert perm_order(compose(s, t)) == n


def test_symmetric_and_alternating_even_odd() -> None:
    for n in (3, 4, 5, 6, 7):
        assert construct(f"symmetric:{n}").order == factorial(n)
        assert construct(f"alternating:{n}").order == factorial(n) // 2


def test_bad_specs_rejected() -> None:
    for bad in ("psl2:6", "psl2:25", "dihedral:2", "cyclic:0", "frobenius:20", "psl2:x"):
        with pytest.raises(GroupSpecError):
            construct(bad)


def test_field_gf4() -> None:
    f = FieldGF(4)
    assert f.add(1, 1) == 0
    assert f.add(2, 3) == 1
    # modulus is x^2+x+1, so alpha^2 = alpha+1
    assert f.mul(2, 2) == 3
    assert f.mul(3, 3) == 2
    assert f.inv(2) == 3


def test_field_gf8() -> None:
    f = FieldGF(8)
    # modulus is x^3+x+1, so alpha^3 = alpha+1
    assert f.mul(2, f.mul(2, 2)) == 3
    for a in range(1, 8):
        assert f.mul(a, f.inv(a)) == 1


def test_field_gf9() -> None:
    f = FieldGF(9)
    # modulus is x^2+1, so alpha^2 = -1 = 2
    assert f.mul(3, 3) == 2
    assert f.neg(1) == 2


def test_field_prime() -> None:
    f = FieldGF(7)
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert f.generator == 1


def _monic(p: int, d: int) -> list[tuple[int, ...]]:
    """Monic degree-d polynomials over GF(p), low coefficient first, in the
    lexicographic order of their base-p counters."""
    out = []
    for k in range(p**d):
        coeffs = []
        for _ in range(d):
            coeffs.append(k % p)
            k //= p
        out.append(tuple(coeffs) + (1,))
    return out


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _reduce(poly: tuple[int, ...], modulus: list[int], p: int) -> tuple[int, ...]:
    """poly modulo the monic modulus, by long division from the top."""
    out, d = list(poly), len(modulus) - 1
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        for k, m in enumerate(modulus):
            out[top - d + k] = (out[top - d + k] - c * m) % p
    return tuple(out[:d])


def test_field_tables_match_polynomial_oracle() -> None:
    # equal tables mean equal psl2 generators, so this also pins those
    for q in sorted({*PSL2_FIELD_SIZES, 25, 27, 32, 49}):
        f = FieldGF(q)
        p, d = f.p, f.d
        poly = [tuple(k // p**i % p for i in range(d)) for k in range(q)]
        index = {c: k for k, c in enumerate(poly)}
        for a in range(q):
            for b in range(q):
                total = tuple((x + y) % p for x, y in zip(poly[a], poly[b]))
                assert f.add(a, b) == index[total], (q, a, b)
                product = _reduce(_poly_mul(poly[a], poly[b], p), f.modulus, p)
                assert f.mul(a, b) == index[product], (q, a, b)


def test_field_moduli_are_first_irreducibles() -> None:
    pinned = {4: [1, 1, 1], 8: [1, 1, 0, 1], 9: [1, 0, 1], 16: [1, 1, 0, 0, 1]}
    for q, modulus in pinned.items():
        assert FieldGF(q).modulus == modulus
    for q, (p, d) in {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4),
                      25: (5, 2), 27: (3, 3), 32: (2, 5)}.items():
        reducible = {
            _poly_mul(a, b, p)
            for i in range(1, d // 2 + 1)
            for a in _monic(p, i)
            for b in _monic(p, d - i)
        }
        first = next(m for m in _monic(p, d) if m not in reducible)
        f = FieldGF(q)
        assert f.modulus == list(first), q
        assert f.generator == p
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1


def test_field_rejects_non_prime_power() -> None:
    for q in (6, 1, 0):
        with pytest.raises(GroupSpecError, match="is not a prime power"):
            FieldGF(q)


def test_direct_product() -> None:
    g = direct_product(construct("cyclic:3"), construct("dihedral:4"))
    assert g.degree == 7
    assert g.order == 24
    assert not is_transitive(g)


def test_is_transitive() -> None:
    assert is_transitive(construct("cyclic:5"))
    assert is_transitive(construct("psl2:7"))


def test_load_group_file(tmp_path) -> None:
    path = tmp_path / "grp.txt"
    path.write_text(
        "# a dihedral group of order 10\n"
        "degree 5\n"
        "(1,5)(2,4)\n"
        "images 2 1 5 4 3\n"
    )
    g = load_group_file(str(path))
    assert g.degree == 5
    assert g.order == 10
    assert construct(f"file:{path}").order == 10


def test_load_group_file_order_sees_every_generator(tmp_path) -> None:
    path = tmp_path / "s5.txt"
    path.write_text("degree 5\n" + "(1,2)\n" * 9 + "(1,2,3,4,5)\n")
    assert load_group_file(str(path)).order == 120


def test_load_group_file_refuses_huge_degree(tmp_path) -> None:
    path = tmp_path / "huge.txt"
    path.write_text("degree 1000000000000\n(1,2)\n")
    start = time.perf_counter()
    with pytest.raises(GroupSpecError, match="degree N must lie in 1..1000000"):
        load_group_file(str(path))
    assert time.perf_counter() - start < 1.0


def test_load_group_file_errors(tmp_path) -> None:
    bad1 = tmp_path / "bad1.txt"
    bad1.write_text("(1,2)\n")
    with pytest.raises(GroupSpecError):
        load_group_file(str(bad1))
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("degree 3\nimages 1 1 2\n")
    with pytest.raises(GroupSpecError):
        load_group_file(str(bad2))
    bad3 = tmp_path / "bad3.txt"
    bad3.write_text("degree 3\n")
    with pytest.raises(GroupSpecError):
        load_group_file(str(bad3))


def test_atlas_entries_cover_families() -> None:
    text = "\n".join(atlas_entries())
    for family in ("cyclic", "dihedral", "symmetric", "alternating",
                   "quaternion8", "psl2", "psl3:3", "m11", "file:"):
        assert family in text


def test_quaternion_is_not_dihedral() -> None:
    g = construct("quaternion8")
    orders = sorted(perm_order(e) for e in _all_elements(g))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quaternion_gate_refuses_c4_x_c2(monkeypatch) -> None:
    # C4 x C2 has order 8 and two generators of order 4, but they commute
    fake = iter([(1, 2, 3, 0, 4, 5, 6, 7), (1, 2, 3, 0, 5, 4, 6, 7)])
    monkeypatch.setattr(atlas, "parse_cycles", lambda text, degree: next(fake))
    with pytest.raises(ConstructionError, match="noncommuting"):
        atlas.quaternion_group()


def _all_elements(g):
    from gtpairs.permcore import ElementTable

    return ElementTable(g.generators, g.degree).elements


def test_construction_gate_fires() -> None:
    # a deliberately wrong expected order must raise, exercised via the
    # internal gate helper
    from gtpairs.atlas import _gate

    with pytest.raises(ConstructionError):
        _gate("bogus", 3, [construct("cyclic:3").generators[0]], 5)
