"""Isomorphic groups in different representations give equal `sg` reports.

PSL2(4) = PSL2(5) = A5, PSL2(7) = PSL3(2), PSL2(9) = A6 and PSL4(2) = A8
reach the same invariants through different degrees, point numberings,
chains and field arithmetic.  The reports are compared whole, apart from
`spec` and `timings`, so a fault that depends on the representation shows
as a difference.  A built-in group with its points renamed by a seeded
permutation must give its own report again.  The pipeline is shared, so a
fault of the method itself does not.
"""

from __future__ import annotations

import json
import random
from itertools import product

import pytest

from gtpairs import cli
from gtpairs.atlas import FieldGF, _projective_perms, construct, load_group_file

# PSL3(2) on the 7 points of the Fano plane: the six transvections I + E_ij
PSL3_2 = [
    "(4,6)(5,7)",
    "(4,5)(6,7)",
    "(2,6)(3,7)",
    "(2,3)(6,7)",
    "(1,5)(3,7)",
    "(1,3)(5,7)",
]


def _report(tmp_path, spec: str) -> dict:
    path = tmp_path / "report.json"
    assert cli.run(["sg", spec, "--threads", "1", "--json", str(path)]) == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["spec"], report["timings"]
    return report


def _group_file(tmp_path, degree: int, lines: list[str], order: int) -> str:
    path = tmp_path / "group.txt"
    path.write_text("\n".join([f"degree {degree}", *lines]) + "\n", encoding="utf-8")
    assert load_group_file(str(path)).order == order
    return f"file:{path}"


@pytest.mark.parametrize(
    "specs", [["psl2:9", "alternating:6"], ["psl2:4", "psl2:5", "alternating:5"]]
)
def test_isomorphic_specs_give_equal_reports(tmp_path, specs) -> None:
    first, *rest = [_report(tmp_path, spec) for spec in specs]
    assert all(report == first for report in rest)


def test_psl2_7_and_psl3_2_give_equal_reports(tmp_path) -> None:
    spec = _group_file(tmp_path, 7, PSL3_2, 168)
    assert _report(tmp_path, spec) == _report(tmp_path, "psl2:7")


@pytest.mark.extended
def test_alternating_8_and_psl4_2_give_equal_reports(tmp_path) -> None:
    """PSL4(2) on the 15 nonzero vectors of GF(2)^4, from the twelve
    transvections I + E_ij."""
    points = [v for v in product(range(2), repeat=4) if any(v)]
    matrices = []
    for i, j in product(range(4), repeat=2):
        if i != j:
            m = [[int(r == c) for c in range(4)] for r in range(4)]
            m[i][j] = 1
            matrices.append(m)
    perms = _projective_perms(FieldGF(2), points, matrices)
    lines = ["images " + " ".join(str(k + 1) for k in p) for p in perms]
    spec = _group_file(tmp_path, 15, lines, 20160)
    assert _report(tmp_path, spec) == _report(tmp_path, "alternating:8")


def _relabelled(tmp_path, spec: str) -> str:
    """spec's group with point p renamed sigma(p) for a seeded shuffle sigma:
    each generator g becomes sigma g sigma^-1, written as an images line."""
    group = construct(spec)
    sigma = list(range(group.degree))
    random.Random(2014).shuffle(sigma)
    assert sigma != sorted(sigma)
    lines = []
    for g in group.generators:
        images = [0] * group.degree
        for p, q in enumerate(g):
            images[sigma[p]] = sigma[q] + 1
        lines.append("images " + " ".join(map(str, images)))
    return _group_file(tmp_path, group.degree, lines, group.order)


@pytest.mark.parametrize(
    "spec",
    ["psl2:11", "psl2:13"]
    + [
        pytest.param(spec, marks=pytest.mark.extended)
        for spec in ("psl2:16", "psl2:17", "psl2:19")
    ],
)
def test_relabelled_points_give_equal_reports(tmp_path, spec) -> None:
    assert _report(tmp_path, _relabelled(tmp_path, spec)) == _report(tmp_path, spec)
