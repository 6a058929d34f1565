"""Import hygiene of the package: every imported name is used.

The only exceptions are re-exports on lines marked `# noqa: F401`, and
each of those must be a name that `perfbench/spans.py` patches in that
module: the benchmark wraps a function under the name its caller looks it
up by, so such a re-export is how a caller's name is reached from outside.

The same ast pass guards file access: input files are read by one shared
reader, and reports are written by one writer.  It also keeps the test
oracles off the package's private helpers, so that an oracle does not share
the code it checks, and keeps test-only code out of the package: every
function, method and class it defines is referenced by name inside it.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtpairs"

FILE_OPENERS = {
    ("permcore", "read_permutation_file"),
    ("cli", "write_json_report"),
}

REEXPORTS = {
    ("gbar", "ConjugacyClassTable"),
    ("gbar", "build_pc"),
    ("gbar", "out_representatives"),
    ("gbar", "generates"),
    ("dessins", "extend_pair_map"),
}


def _imports() -> list[tuple[str, str, int, bool, bool]]:
    """(module, bound name, line, used, on a `# noqa: F401` line) for every
    import in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    marked = "# noqa: F401" in lines[alias.lineno - 1]
                    out.append((path.stem, name, alias.lineno, name in used, marked))
    return out


def _patched() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {
        (path.split(":")[0].rsplit(".", 1)[-1], attr) for path, attr, *_ in spans.PATCHES
    }


def test_every_import_is_used_or_a_marked_reexport() -> None:
    imports = _imports()
    unused = [(mod, name) for mod, name, _, used, _ in imports if not used]
    assert [(mod, name) for mod, name, _, used, marked in imports if not (used or marked)] == []
    assert sorted(unused) == sorted(REEXPORTS)


def test_every_noqa_line_holds_a_reexport() -> None:
    imports = _imports()
    marked_lines = {(mod, line) for mod, _, line, _, marked in imports if marked}
    assert marked_lines == {(mod, line) for mod, _, line, used, _ in imports if not used}


def test_every_reexport_is_patched_by_the_benchmark() -> None:
    assert REEXPORTS <= _patched()


def _openers() -> set[tuple[str, str | None]]:
    """(module, innermost enclosing function or None) for every call of
    open() or of an .open() method in the package."""
    out = set()

    def visit(node: ast.AST, module: str, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "open") or (
                isinstance(f, ast.Attribute) and f.attr == "open"
            ):
                out.add((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return out


def test_only_the_shared_reader_and_the_report_writer_open_files() -> None:
    assert _openers() == FILE_OPENERS


def test_oracles_import_no_private_name_from_the_package() -> None:
    tree = ast.parse((ROOT / "tests" / "group_oracles.py").read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gtpairs")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_definition_is_referenced_in_the_package() -> None:
    """A function, method or class that nothing in the package names is
    test-only code; it belongs in tests/group_oracles.py.  Dunders are
    called by the interpreter and exempt."""
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        (mod, name)
        for mod, name in defined
        if name not in referenced and not (name[:2] == name[-2:] == "__")
    ]
    assert unreferenced == []
