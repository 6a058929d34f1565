from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtpairs import cli
from gtpairs.atlas import load_group_file
from gtpairs.dessins import load_dessin
from gtpairs.pairs import InducedPerms
from gtpairs.permcore import parse_cycles
from gtpairs.sgroup import build_haction

TETRA = (
    "darts 12\n"
    "(1,2,3)(4,5,6)(7,8,9)(10,11,12)\n"
    "(1,4)(2,10)(3,7)(5,9)(6,11)(8,12)\n"
)


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    rc = cli.run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_atlas_list(capsys) -> None:
    rc, out, _ = _run(capsys, ["atlas", "list"])
    assert rc == 0
    assert "cyclic:n" in out
    assert "m11" in out


def test_pc_report(capsys) -> None:
    rc, out, _ = _run(capsys, ["pc", "psl2:7", "--threads", "1"])
    assert rc == 0
    assert "ell: 114" in out
    assert "out order: 2" in out
    assert "r: 57" in out
    assert "block sizes: 2 x 4, 3 x 8, 6 x 9, 8 x 1, 10 x 2" in out


def test_sg_report(capsys) -> None:
    rc, out, _ = _run(capsys, ["sg", "psl2:7", "--threads", "1"])
    assert rc == 0
    assert "order: 512 = 2^9" in out
    assert "simple factors: C2^9" in out
    assert "fingerprint: consistent with C2^3 x D8^2" in out


def test_sg_trivial_group(capsys) -> None:
    rc, out, _ = _run(capsys, ["sg", "cyclic:1", "--threads", "1"])
    assert rc == 0
    assert "ell: 1" in out
    assert "order: 1 = 1" in out
    assert "consistent with C2^0 x D8^0" in out


def test_sg_json_roundtrip(capsys, tmp_path) -> None:
    path = tmp_path / "report.json"
    rc, _, _ = _run(
        capsys, ["sg", "quaternion8", "--threads", "1", "--json", str(path)]
    )
    assert rc == 0
    raw = path.read_bytes()
    obj = json.loads(raw)
    assert raw == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    assert obj["schema"] == 1
    assert obj["command"] == "sg"
    assert obj["spec"] == "quaternion8"
    assert obj["ell"] == obj["r"] * obj["out_order"]


def test_gt1_report(capsys, tmp_path) -> None:
    path = tmp_path / "gt1.json"
    rc, out, _ = _run(
        capsys, ["gt1", "dihedral:9", "--threads", "1", "--json", str(path)]
    )
    assert rc == 0
    assert "count: 2" in out
    assert "model order: 2916" in out
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["count"] == 2
    assert obj["survivors"][0] == "1"
    assert len(obj["survivors"]) == 2


def test_gtfull_report(capsys) -> None:
    rc, out, _ = _run(capsys, ["gtfull", "cyclic:6", "--threads", "1"])
    assert rc == 0
    assert "total: 2" in out
    assert "experimental" in out


def test_dessin_report(capsys, tmp_path) -> None:
    path = tmp_path / "tetra.txt"
    path.write_text(TETRA, encoding="utf-8")
    rc, out, _ = _run(capsys, ["dessin", str(path), "--cyclic", "3"])
    assert rc == 0
    assert "monodromy order: 12" in out
    assert "regular: yes" in out
    assert "structure classes: 3 (element orders 1, 3, 3)" in out


def test_dessin_cyclic_requires_regular(capsys, tmp_path) -> None:
    path = tmp_path / "flat.txt"
    path.write_text("darts 2\n()\n()\n", encoding="utf-8")
    rc, out, _ = _run(capsys, ["dessin", str(path)])
    assert rc == 0
    assert "transitive: no" in out
    rc, _, err = _run(capsys, ["dessin", str(path), "--cyclic", "2"])
    assert rc == 2
    assert "regular" in err


def test_unknown_spec_exits_nonzero(capsys) -> None:
    rc, _, err = _run(capsys, ["sg", "nosuch:1"])
    assert rc == 2
    assert "unknown group spec" in err


def test_missing_file_exits_nonzero(capsys) -> None:
    rc, _, err = _run(capsys, ["dessin", "/no/such/file.txt"])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("missing_parent", [True, False], ids=["missing-dir", "dir"])
def test_unwritable_json_path_exits_2(capsys, tmp_path, missing_parent) -> None:
    # the report is written inside the run, so an OSError is a user error
    path = tmp_path / "no" / "such" / "x.json" if missing_parent else tmp_path
    rc, _, err = _run(capsys, ["pc", "cyclic:4", "--threads", "1", "--json", str(path)])
    assert rc == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("sg", b"degree 3\nimages 1 x 3\n", "non-integer entry in 'images 1 x 3'"),
        ("sg", b"degree 3\n(1,2\xff)\n", "not UTF-8 text"),
        ("dessin", b"darts 2\n(1,2)\n(1\xfe)\n", "not UTF-8 text"),
        ("sg", b"degree 1000000000000\n(1,2)\n", "degree N must lie in 1..1000000"),
        ("dessin", b"darts 1000000000000\n(1,2)\n(1,2)\n", "darts N must lie in"),
        ("sg", b"degrees 3 junk\n(1,2)\n", "malformed degree line 'degrees 3 junk'"),
        ("dessin", b"darts 2 9\n(1,2)\n(1,2)\n", "malformed darts line 'darts 2 9'"),
    ],
)
def test_bad_input_file_exits_2(capsys, tmp_path, command, text, message) -> None:
    path = tmp_path / "input.txt"
    path.write_bytes(text)
    arg = f"file:{path}" if command == "sg" else str(path)
    rc, out, err = _run(capsys, [command, arg, "--threads", "1"])
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("command", ["pc", "sg", "gt1", "gtfull"])
def test_group_without_generating_pair_exits_2(capsys, tmp_path, command) -> None:
    # C2^3 needs three generators, so it has no pair classes
    path = tmp_path / "c2cubed.txt"
    path.write_text("degree 6\n(1,2)\n(3,4)\n(5,6)\n", encoding="utf-8")
    rc, out, err = _run(capsys, [command, f"file:{path}", "--threads", "1"])
    assert rc == 2
    assert out == ""
    assert err == f"error: file:{path}: no pair of elements generates the group\n"


_HEADS = st.sampled_from(["degree", "darts", "DARTS", "images", "", "#"])
_COUNTS = st.one_of(
    st.integers(min_value=-1, max_value=12).map(str),
    st.sampled_from(["", "x", "3.0", "2 9", "1000000000000"]),
)
_BODIES = st.text(alphabet="0123456789(),; x#-\u00e9", max_size=16)


@st.composite
def _input_files(draw) -> bytes:
    lines = [f"{draw(_HEADS)} {draw(_COUNTS)}"]
    lines += draw(
        st.lists(st.one_of(_BODIES, _BODIES.map("images ".__add__)), max_size=3)
    )
    raw = "\n".join(lines).encode()
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


@given(raw=_input_files())
def test_input_files_raise_only_user_errors(tmp_path_factory, raw) -> None:
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_bytes(raw)
    for load in (load_group_file, load_dessin):
        try:
            load(str(path))
        except cli.USER_ERRORS:
            pass


@given(
    text=st.text(alphabet=st.characters(), max_size=20),
    degree=st.integers(min_value=0, max_value=12),
)
def test_parse_cycles_raises_only_user_errors(text, degree) -> None:
    try:
        perm = parse_cycles(text, degree)
    except cli.USER_ERRORS:
        return
    assert sorted(perm) == list(range(degree))


def test_cap_error_names_flag(capsys) -> None:
    rc, _, err = _run(capsys, ["sg", "psl2:7", "--cap", "50", "--threads", "1"])
    assert rc == 2
    assert "--cap" in err


def test_oversized_model_refused_before_enumeration(capsys) -> None:
    # the psl2:7 model has order 168^57; its lower bound passes --cap at once
    start = time.perf_counter()
    rc, out, err = _run(capsys, ["gt1", "psl2:7", "--threads", "1"])
    assert time.perf_counter() - start < 10.0
    assert rc == 2
    assert not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "model group has at least" in lines[0] and "--cap" in lines[0]


@pytest.mark.parametrize("command", ["gt1", "gtfull"])
def test_model_commands_cap_the_base_group(capsys, monkeypatch, command) -> None:
    # psl3:3 has 5,616 elements: the base table refuses before any pair sweep
    def unreachable(*args, **kwargs):
        raise AssertionError("build_pc ran on a base group past --cap")

    monkeypatch.setattr(cli, "build_pc", unreachable)
    rc, out, err = _run(capsys, [command, "psl3:3", "--cap", "1000", "--threads", "1"])
    assert rc == 2
    assert not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "psl3:3 has 5616 elements, more than --cap 1000" in lines[0]
    assert "raise --cap" in lines[0]


def test_base_group_past_cap_is_refused_before_its_table(capsys, monkeypatch) -> None:
    # |symmetric:10| = 3628800 is known from construction, so no table is built
    def unreachable(*args, **kwargs):
        raise AssertionError("ElementTable ran on a base group past --cap")

    monkeypatch.setattr(cli, "ElementTable", unreachable)
    rc, out, err = _run(capsys, ["pc", "symmetric:10", "--threads", "1"])
    assert rc == 2
    assert not out
    assert err == (
        "error: symmetric:10 has 3628800 elements, more than --cap 1000000; "
        "raise --cap to allow a larger group\n"
    )


def test_small_base_group_leaves_the_model_refusal(capsys) -> None:
    # 168 < 20000, so only the model's lower bound refuses
    rc, out, err = _run(capsys, ["gt1", "psl2:7", "--cap", "20000", "--threads", "1"])
    assert rc == 2
    assert not out
    assert err == (
        "error: model group has at least 65856 elements, more than --cap 20000; "
        "raise --cap to allow a larger group\n"
    )
    # a proven bound: past the cap, and at most |G|^r for r = 57 windows
    bound = int(err.split()[6])
    assert 20000 < bound <= 168**57


def test_bad_thread_count(capsys) -> None:
    rc, _, err = _run(capsys, ["pc", "cyclic:4", "--threads", "-1"])
    assert rc == 2
    assert "--threads" in err


def test_bad_thread_count_rejected_for_every_command(capsys) -> None:
    for argv in (["gt1", "dihedral:3"], ["atlas", "list"]):
        rc, out, err = _run(capsys, argv + ["--threads", "-1"])
        assert rc == 2
        assert out == ""
        assert err == "error: --threads must be nonnegative\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_cap_rejected_for_every_command(capsys, cap) -> None:
    for argv in (["pc", "cyclic:4"], ["gt1", "dihedral:3"], ["atlas", "list"]):
        rc, out, err = _run(capsys, argv + ["--cap", cap])
        assert rc == 2
        assert out == ""
        assert err == "error: --cap must be positive\n"


def test_cli_import_leaves_sympy_out() -> None:
    # -B: the env below drops PYTHONDONTWRITEBYTECODE, and bytecode the child
    # left in src/ would make later start-up timings of the checkout depend on
    # whether the tests ran
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, gtpairs.cli; "
        "print('sympy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.stdout.strip() == "False False"


def test_cli_import_leaves_dataclasses_inspect_and_typing_out() -> None:
    # -S: no site module, so no .pth file can preload any of them
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, gtpairs.cli; "
        "print(sorted({'dataclasses', 'inspect', 'random', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.stdout.strip() == "[]"


def test_threads_flag_deterministic(capsys) -> None:
    rc1, out1, _ = _run(capsys, ["pc", "psl2:7", "--threads", "1"])
    rc2, out2, _ = _run(capsys, ["pc", "psl2:7", "--threads", "2"])
    assert rc1 == rc2 == 0

    def strip(s: str) -> list[str]:
        return [ln for ln in s.splitlines() if not ln.startswith("timings")]

    assert strip(out1) == strip(out2)


def test_threads_without_an_affinity_mask(capsys, monkeypatch) -> None:
    """macOS and Windows have no os.sched_getaffinity; the CPU count stands in."""
    monkeypatch.delattr(os, "sched_getaffinity")
    rc, out, err = _run(capsys, ["pc", "psl2:5", "--threads", "2"])
    assert (rc, err) == (0, "")
    assert "ell:" in out


@pytest.mark.parametrize("argv", [["gt1", "dihedral:9"], ["gtfull", "cyclic:12"]])
def test_model_commands_deterministic_across_threads(capsys, tmp_path, argv) -> None:
    reports = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.json"
        rc, _, _ = _run(capsys, argv + ["--threads", threads, "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]


def test_repro_cyclic_table(capsys) -> None:
    rc, out, _ = _run(capsys, ["repro", "cyclic", "--threads", "1"])
    assert rc == 0
    assert "result: 22 of 22 entries match" in out


def test_repro_cyclic_builds_one_partition_per_row(capsys, monkeypatch) -> None:
    from gtpairs import gbar

    builds = []
    build = gbar._double_cosets
    monkeypatch.setattr(gbar, "_double_cosets", lambda g: builds.append(g) or build(g))
    rc, _, _ = _run(capsys, ["repro", "cyclic", "--threads", "1"])
    assert rc == 0
    assert len(builds) == len(cli.CYCLIC_FULL_EXPECTED) == 11


def test_repro_psl2_default_rows(capsys, tmp_path) -> None:
    path = tmp_path / "repro.json"
    rc, out, _ = _run(
        capsys, ["repro", "psl2", "--threads", "1", "--json", str(path)]
    )
    assert rc == 0
    obj = json.loads(path.read_text(encoding="utf-8"))
    ids = [e["id"] for e in obj["entries"]]
    assert "psl2-7-order" in ids
    assert "psl2-9-fingerprint" in ids
    assert not any("11" in i for i in ids)
    assert len(ids) == 8
    assert obj["ok"] is True


def test_repro_mismatch_exits_nonzero(capsys, monkeypatch) -> None:
    monkeypatch.setitem(cli.CYCLIC_FULL_EXPECTED, 5, 999)
    rc, out, _ = _run(capsys, ["repro", "cyclic", "--threads", "1"])
    assert rc == 1
    assert "MISMATCH cyclic-5-full expected 999 got 4" in out


INTERNAL_FAILURES = [
    RuntimeError(
        'generators span at least 120 elements, so the check "generators '
        'lie in a group of target_order 60" failed'
    ),
    RuntimeError("conjugacy transporter failed recomposition"),
    AssertionError("distributivity failed"),
]


@pytest.mark.parametrize("failure", INTERNAL_FAILURES, ids=repr)
def test_internal_check_failure_exits_3(capsys, monkeypatch, failure) -> None:
    def broken(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "construct", broken)
    rc, out, err = _run(capsys, ["pc", "psl2:5", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err == f"error: internal check failed: {failure}\n"


def test_outer_map_listed_twice_exits_3(capsys, monkeypatch) -> None:
    true_out_representatives = cli.out_representatives

    def identity_twice(classes, pcset):
        return true_out_representatives(classes, pcset)[:1] * 2

    monkeypatch.setattr(cli, "out_representatives", identity_twice)
    rc, out, err = _run(capsys, ["sg", "psl2:7", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: internal check failed: outer maps do not act freely")


def test_model_self_check_failure_exits_3(capsys, monkeypatch) -> None:
    from gtpairs import gbar

    true_centralizer = gbar._window_centralizer

    def with_identity_twice(model, a):
        return true_centralizer(model, a) + [0]

    monkeypatch.setattr(gbar, "_window_centralizer", with_identity_twice)
    rc, out, err = _run(capsys, ["gt1", "dihedral:3", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: internal check failed: left coset check failed")
    assert len(err.splitlines()) == 1


def test_model_order_check_failure_exits_3(capsys, monkeypatch) -> None:
    from gtpairs import gbar

    class Overcounting(gbar.StabilizerChain):
        def exact_order(self) -> int:
            return super().exact_order() * 2

    monkeypatch.setattr(gbar, "StabilizerChain", Overcounting)
    rc, out, err = _run(capsys, ["gt1", "dihedral:3", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: internal check failed: model order check failed")
    assert len(err.splitlines()) == 1


def test_centralizer_check_failure_exits_3(capsys, monkeypatch) -> None:
    true_classes = cli.ConjugacyClassTable

    def with_wrong_size(table):
        classes = true_classes(table)
        classes.sizes[1] //= 2
        return classes

    monkeypatch.setattr(cli, "ConjugacyClassTable", with_wrong_size)
    rc, out, err = _run(capsys, ["sg", "psl2:5", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: internal check failed: centralizer check failed")
    assert len(err.splitlines()) == 1


def test_transporter_check_failure_exits_3(capsys, monkeypatch) -> None:
    from gtpairs.permcore import ConjugacyClassTable

    true_check = ConjugacyClassTable._check_transporters

    def with_one_wrong_id(classes):
        # a member that is not its class rep now claims the identity
        e = next(e for e, c in enumerate(classes.class_of) if classes.reps[c] != e)
        classes.transporter_ids[e] = 0
        true_check(classes)

    monkeypatch.setattr(ConjugacyClassTable, "_check_transporters", with_one_wrong_id)
    rc, out, err = _run(capsys, ["sg", "psl2:5", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: internal check failed: transporter check failed")
    assert len(err.splitlines()) == 1


def test_field_axiom_failure_exits_3(capsys, monkeypatch) -> None:
    from gtpairs import atlas

    def broken(self) -> None:
        raise AssertionError("multiplicative associativity failed")

    monkeypatch.setattr(atlas.FieldGF, "_verify", broken)
    rc, _, err = _run(capsys, ["sg", "psl2:7", "--threads", "1"])
    assert rc == 3
    assert err.splitlines() == [
        "error: internal check failed: multiplicative associativity failed"
    ]


def test_parser_is_built_once_and_keeps_no_options(capsys, tmp_path) -> None:
    assert cli._parser() is cli._parser()
    path = tmp_path / "sg.json"
    argv = ["sg", "quaternion8", "--threads", "1", "--cap", "5000", "--json", str(path)]
    rc, _, _ = _run(capsys, argv)
    assert rc == 0 and path.is_file()
    path.unlink()
    rc, out, _ = _run(capsys, ["gt1", "dihedral:3"])
    assert rc == 0 and "count: 2" in out
    assert not path.exists()
    args = cli._parser().parse_args(["gt1", "dihedral:3"])
    assert (args.json, args.cap, args.threads) == (None, cli.DEFAULT_CAP, 0)


def test_report_with_a_5000_digit_order_renders_and_writes(
    capsys, monkeypatch, tmp_path
) -> None:
    """|S| of alternating:9 has 21,088 digits; ints that long print in full,
    and the report holds them bare, so a reader must lift the interpreter's
    limit on int digits to load it."""
    order = 7 * 10**4999
    true_sg = cli.DISPATCH["sg"]

    def with_long_order(args):
        report = true_sg(args)
        report["order"] = order
        return report

    monkeypatch.setitem(cli.DISPATCH, "sg", with_long_order)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        path = tmp_path / "sg.json"
        argv = ["sg", "cyclic:5", "--threads", "1", "--json", str(path)]
        rc, out, _ = _run(capsys, argv)
        assert rc == 0
        text = path.read_text()
        if limit is not None:
            # run lifted the limit for itself only
            with pytest.raises(ValueError, match="limit"):
                json.loads(text)
            sys.set_int_max_str_digits(0)
        assert f"order: {order} = " in out
        assert json.loads(text)["order"] == order
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
def test_run_restores_the_callers_int_digit_limit(capsys) -> None:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc, _, _ = _run(capsys, ["pc", "cyclic:4", "--threads", "1"])
        assert rc == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_induced_action_past_its_bound_exits_3(capsys, monkeypatch) -> None:
    """A closure H past 6 |Out| stops there: theta and delta below generate
    Sym(10), and the enumeration stops at its seventh element."""
    degree = 10
    fake = InducedPerms(
        theta=tuple(list(range(1, degree)) + [0]),
        delta=tuple([1, 0] + list(range(2, degree))),
        out_perms=[tuple(range(degree))],
        orbit_reps=list(range(degree)),
        orbit_of=list(range(degree)),
    )
    with pytest.raises(RuntimeError, match="exceeded six per outer class"):
        build_haction(fake)
    monkeypatch.setattr(cli, "induced_perms", lambda pcset, maps: fake)
    rc, out, err = _run(capsys, ["sg", "psl2:5", "--threads", "1"])
    assert rc == 3
    assert out == ""
    assert err == (
        "error: internal check failed: "
        "induced action closure exceeded six per outer class\n"
    )
