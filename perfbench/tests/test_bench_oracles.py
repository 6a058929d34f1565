"""The benchmark's oracles against published and hand-checkable values."""

from __future__ import annotations

import pytest

import oracles
import workloads


def test_totient_small_values_and_gauss_sum() -> None:
    assert [oracles.totient(n) for n in (1, 2, 7, 9, 12)] == [1, 1, 6, 6, 4]
    for n in range(1, 60):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sum(oracles.totient(d) for d in divisors) == n
    with pytest.raises(ValueError):
        oracles.totient(0)


def test_brute_count_matches_hall_for_a5() -> None:
    a5 = oracles.SmallGroup(oracles.SMALL_GROUP_GENERATORS["A5"])
    assert a5.order == 60
    assert a5.generating_pairs() == 19 * 120 == 2280
    assert a5.generating_pairs() // 120 == oracles.HALL_D2["psl2:5"]


def test_brute_count_known_small_groups() -> None:
    s4 = oracles.SmallGroup(oracles.SMALL_GROUP_GENERATORS["S4"])
    assert s4.generating_pairs() == 216  # Hall: phi_2(S4) = 216, probability 3/8
    c12 = oracles.SmallGroup([tuple((i + 1) % 12 for i in range(12))])
    assert c12.generating_pairs() == 96  # Jordan J_2(12) = 144 (3/4)(8/9)


def test_center_and_class_counts() -> None:
    a5 = oracles.SmallGroup(oracles.SMALL_GROUP_GENERATORS["A5"])
    d6 = oracles.SmallGroup([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)])
    assert (a5.center_order(), d6.order, d6.center_order()) == (1, 12, 2)
    assert a5.classes_with_order_dividing(5) == 3  # 1, 5A, 5B
    assert a5.classes_with_order_dividing(3) == 2
    assert a5.classes_with_order_dividing(30) == 5


def test_brute_force_refuses_large_groups() -> None:
    with pytest.raises(ValueError):
        oracles.SmallGroup([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])  # S6


def test_atlas_out_orders() -> None:
    want = {"psl2:4": 2, "psl2:5": 2, "psl2:7": 2, "psl2:8": 3, "psl2:9": 4,
            "psl2:16": 4, "psl2:13": 2, "alternating:7": 2, "psl3:3": 2, "m11": 1}
    assert {s: oracles.atlas_out_order(s) for s in want} == want
    with pytest.raises(KeyError):
        oracles.atlas_out_order("symmetric:5")


def test_sympy_generation_check() -> None:
    five, three = oracles.SMALL_GROUP_GENERATORS["A5"]
    assert oracles.sympy_generates(five, three, 60)
    assert not oracles.sympy_generates(three, three, 60)
    assert oracles.sympy_order([five, three]) == 60


def test_cycle_text() -> None:
    assert oracles.cycle_text((1, 2, 0, 3)) == "(1,2,3)"
    assert oracles.cycle_text((0, 1)) == "()"


def test_inputs_follow_the_seed(tmp_path) -> None:
    a = workloads.make_inputs(tmp_path / "a", 5)
    b = workloads.make_inputs(tmp_path / "b", 5)
    c = workloads.make_inputs(tmp_path / "c", 6)
    texts = [[p.read_text() for p in (i.a5_file, i.s4_file, i.dessin_file)]
             for i in (a, b, c)]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def _parse(text: str, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    for body in text.strip().strip("()").split(")("):
        if body:
            pts = [int(t) - 1 for t in body.split(",")]
            for x, y in zip(pts, pts[1:] + pts[:1]):
                images[x] = y
    return tuple(images)


def test_generated_inputs_have_the_intended_groups(tmp_path) -> None:
    inputs = workloads.make_inputs(tmp_path, 9)
    for path, order in ((inputs.a5_file, 60), (inputs.s4_file, 24)):
        lines = path.read_text().splitlines()
        degree = int(lines[0].split()[1])
        gens = [_parse(ln, degree) for ln in lines[1:]]
        assert len(oracles.closure(gens)) == order
    lines = inputs.dessin_file.read_text().splitlines()
    darts = int(lines[0].split()[1])
    x, y = (_parse(ln, darts) for ln in lines[1:])
    # regular: the monodromy group has exactly as many elements as darts
    assert len(oracles.closure([x, y])) == darts == inputs.dessin_darts
