"""Whole --json reports, minus timings, against committed golden copies."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gtpairs import cli

GOLDEN = Path(__file__).parent / "golden"

TETRA = (
    "darts 12\n"
    "(1,2,3)(4,5,6)(7,8,9)(10,11,12)\n"
    "(1,4)(2,10)(3,7)(5,9)(6,11)(8,12)\n"
)

LADDER = {
    "pc_psl2_5": ["pc", "psl2:5"],
    "sg_psl2_7": ["sg", "psl2:7"],
    "sg_psl2_11": ["sg", "psl2:11"],
    "sg_psl2_13": ["sg", "psl2:13"],
    "sg_alternating_7": ["sg", "alternating:7"],
    "sg_m11": ["sg", "m11"],
    # six table generators: six inverted conjugation columns
    "sg_psl3_3": ["sg", "psl3:3"],
    "sg_quaternion8": ["sg", "quaternion8"],
    "sg_symmetric_6": ["sg", "symmetric:6"],
    "gt1_dihedral_7": ["gt1", "dihedral:7"],
    "gt1_dihedral_15": ["gt1", "dihedral:15"],
    "gt1_alternating_4": ["gt1", "alternating:4"],
    "gt1_cyclic_12": ["gt1", "cyclic:12"],
    "gtfull_cyclic_12": ["gtfull", "cyclic:12"],
    "dessin_tetra_cyclic_3": ["dessin", "tetra.txt", "--cyclic", "3"],
}

# 442,368 model elements
EXTENDED = {"gt1_symmetric_4": ["gt1", "symmetric:4"]}

STAGE_TIMINGS = {
    "pc": {"tables", "pairs", "action"},
    "sg": {"tables", "pairs", "action", "decomposition"},
    "gt1": {"tables", "pairs", "action", "model", "survey"},
    "gtfull": {"tables", "pairs", "action", "model", "survey"},
}


@pytest.mark.parametrize(
    "name",
    sorted(LADDER)
    + [pytest.param(name, marks=pytest.mark.extended) for name in sorted(EXTENDED)],
)
def test_report_matches_golden(name, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tetra.txt").write_text(TETRA, encoding="utf-8")
    assert cli.run({**LADDER, **EXTENDED}[name] + ["--threads", "1", "--json", "out.json"]) == 0
    report = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    timings = report.pop("timings")
    assert set(timings) == STAGE_TIMINGS.get(report["command"], {"total"})
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert report == golden
