"""The names the benchmark harness reaches into gtpairs by.

`perfbench/spans.py` wraps functions under the names their callers look
them up by, and `perfbench/workloads.py` captures the return values of
`gtpairs.cli` functions.  A refactor that moves or removes one of those
names breaks the benchmark, not any command, so it is guarded here.  So
is a patch that resolves but that no call in gtpairs goes through: its
span stays empty.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

from gtpairs import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "gtpairs"


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_patch_resolves_in_its_owner() -> None:
    spans = _spans()
    assert spans.PATCHES
    for path, attr, *_ in spans.PATCHES:
        assert attr in vars(spans._owner(path)), (path, attr)


def test_captured_cli_names_exist() -> None:
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    captured = set(re.findall(r'capture="(\w+)"', text))
    assert {"build_pc", "build_gbar"} <= captured
    for name in captured:
        assert callable(vars(cli).get(name)), name


# attributes the benchmark's checks and span values read off captured return
# values (perfbench/workloads.py, perfbench/spans.py)
CAPTURED_ATTRS = {
    "build_pc": ("table", "reps", "locate", "ell"),
    "build_gbar": ("x", "y", "order"),
}
TABLE_ATTRS = ("order", "elements")


def test_captured_results_carry_the_attributes_the_checks_read(monkeypatch) -> None:
    captured = {}
    for name in CAPTURED_ATTRS:
        original = vars(cli)[name]

        def keep(*args, _name=name, _original=original, **kwargs):
            captured[_name] = out = _original(*args, **kwargs)
            return out

        monkeypatch.setattr(cli, name, keep)
    assert cli.run(["gt1", "dihedral:3", "--threads", "1"]) == 0
    assert set(captured) == set(CAPTURED_ATTRS)
    for name, attrs in CAPTURED_ATTRS.items():
        for attr in attrs:
            assert hasattr(captured[name], attr), (name, attr)
    pcset = captured["build_pc"]
    assert isinstance(pcset.table, cli.ElementTable)
    for attr in TABLE_ATTRS:
        assert hasattr(pcset.table, attr), ("ElementTable", attr)
    g, h = pcset.reps[0]
    assert pcset.locate(g, h) == 0


def _calls(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(bare names called, attribute names called) in one module's ast."""
    bare, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                bare.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                attrs.add(node.func.attr)
    return bare, attrs


# patches whose wrapper no call in gtpairs goes through, so their spans stay
# empty: gbar's re-exports and the dessins one only exist so the patch
# resolves, and cli, not gbar, calls build_gbar
DEAD_PATCHES = {
    ("gtpairs.gbar", "ConjugacyClassTable"),
    ("gtpairs.gbar", "build_pc"),
    ("gtpairs.gbar", "out_representatives"),
    ("gtpairs.dessins", "extend_pair_map"),
    ("gtpairs.gbar", "build_gbar"),
}


def test_span_patches_sit_on_live_calls() -> None:
    # a `module:Class` patch is live if some module calls `.attr(...)`; any
    # other patch is live if its owner module calls `attr(...)` by bare name,
    # which is the lookup the wrapper replaces
    calls = {
        path.stem: _calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in SRC.glob("*.py")
    }
    dead = set()
    for path, attr, *_ in _spans().PATCHES:
        module, _, cls = path.partition(":")
        if cls:
            live = any(attr in attrs for _, attrs in calls.values())
        else:
            live = attr in calls[module.rpartition(".")[2]][0]
        if not live:
            dead.add((path, attr))
    assert dead == DEAD_PATCHES
