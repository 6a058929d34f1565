"""The names the benchmark harness reaches into gtpairs by.

`perfbench/spans.py` wraps functions under the names their callers look
them up by, and `perfbench/workloads.py` captures the return values of
`gtpairs.cli` functions.  A refactor that moves or removes one of those
names breaks the benchmark, not any command, so it is guarded here.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from gtpairs import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
