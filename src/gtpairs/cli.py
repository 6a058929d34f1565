"""Command-line front end and one-command reproduction of known value tables."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from functools import cache, cached_property

from .atlas import (
    ConstructedGroup,
    ConstructionError,
    GroupSpecError,
    atlas_entries,
    construct,
)
from .autgroup import out_representatives
from .dessins import DessinError, analyze_dessin, cyclic_structures, load_dessin
from .gbar import (
    GbarGroup,
    build_gbar,
    double_coset_survey,
    gt_full_order,
    survivor_counts,
)
from .pairs import (
    InducedPerms,
    PairLookupError,
    PcSet,
    block_partition,
    build_pc,
    induced_perms,
)
from .permcore import (
    DEFAULT_CAP,
    ConjugacyClassTable,
    CycleFormatError,
    ElementTable,
    EnumerationCapError,
    cycle_type,
)
from .sgroup import (
    PacketDecomposition,
    SgReport,
    build_haction,
    packet_decomposition,
    sg_report,
)
from .structure import StructureSizeError, factored_text, fingerprint_recognize

USER_ERRORS = (
    GroupSpecError,
    ConstructionError,
    DessinError,
    CycleFormatError,
    EnumerationCapError,
    StructureSizeError,
    PairLookupError,
    OSError,
)

WORD_LETTERS = ("x", "y", "x^-1", "y^-1")

PSL2_EXPECTED = {
    4: ("1", [0, 0]),
    7: ("2^9", [3, 2]),
    8: ("1", [0, 0]),
    9: ("2^15", [12, 1]),
    11: ("2^48", [27, 7]),
    13: ("2^105", [54, 17]),
    16: ("1", [0, 0]),
    17: ("2^254", [104, 50]),
    19: ("2^355", [133, 74]),
}
PSL2_DEFAULT = (4, 7, 8, 9)
PSL2_EXTENDED = (11, 13, 16, 17, 19)

DIHEDRAL_GT1_EXPECTED = {
    3: 2, 4: 1, 5: 2, 6: 2, 7: 2, 8: 1, 9: 2,
    10: 2, 11: 2, 12: 1, 13: 2, 14: 2, 15: 2,
}
DIHEDRAL_ORDER_EXPECTED = {
    3: 108, 5: 500, 7: 1372, 9: 2916, 11: 5324, 13: 8788, 15: 13500,
}

CYCLIC_FULL_EXPECTED = {
    2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4, 11: 10, 12: 4,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="gtpairs",
        description="Pair-class invariants of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json", metavar="PATH", help="also write the report as JSON to PATH"
        )
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_CAP,
            help="element enumeration cap (default %(default)s)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=0,
            help="worker processes for pair enumeration (0 = all cores)",
        )

    p = sub.add_parser("pc", help="pair classes and the induced action summary")
    p.add_argument("spec")
    common(p)
    p = sub.add_parser("sg", help="full symmetry-group decomposition report")
    p.add_argument("spec")
    common(p)
    p = sub.add_parser("gt1", help="surviving double cosets of the model group")
    p.add_argument("spec")
    common(p)
    p = sub.add_parser("gtfull", help="double-coset count over all coprime powers")
    p.add_argument("spec")
    common(p)
    p = sub.add_parser("dessin", help="monodromy analysis of a dessin file")
    p.add_argument("file")
    p.add_argument(
        "--cyclic", type=int, metavar="N", help="also classify order-N structures"
    )
    common(p)
    p = sub.add_parser("repro", help="recompute an embedded expected-value table")
    p.add_argument("table", choices=["psl2", "dihedral", "cyclic"])
    p.add_argument(
        "--extended", action="store_true", help="include the long-running rows"
    )
    common(p)
    p = sub.add_parser("atlas", help="list the built-in group constructions")
    p.add_argument("action", choices=["list"])
    common(p)
    return parser


def _fmt_cycle_type(t: tuple[int, ...]) -> list[list[int]]:
    counts = Counter(t)
    return [[length, counts[length]] for length in sorted(counts, reverse=True)]


def _cycle_type_text(pairs: list[list[int]]) -> str:
    return " ".join(f"{length}^{count}" for length, count in pairs)


def _aggregate_labels(labels: list[str]) -> list[list]:
    agg: list[list] = []
    for label in labels:
        if agg and agg[-1][0] == label:
            agg[-1][1] += 1
        else:
            agg.append([label, 1])
    return agg


def _word_text(word: tuple[int, ...]) -> str:
    if not word:
        return "1"
    return " ".join(WORD_LETTERS[letter] for letter in word)


class PairStages:
    """The pair-class chain of one group, with its stage timings.

    Element and conjugacy tables, pair classes, outer representatives, the
    induced permutations and the block partition are built eagerly; the
    packet decomposition runs on first use of `decomposition`.
    """

    def __init__(
        self,
        table: ElementTable,
        classes: ConjugacyClassTable,
        pcset: PcSet,
        outs: list[list[int]],
        ind: InducedPerms,
        block_of: list[int],
        timings: dict[str, float],
    ) -> None:
        self.table, self.classes, self.pcset, self.outs = table, classes, pcset, outs
        self.ind, self.block_of, self.timings = ind, block_of, timings

    @cached_property
    def decomposition(self) -> tuple[ElementTable, PacketDecomposition, SgReport]:
        """The closed induced action H, its packets and the S report."""
        start = time.perf_counter()
        h = build_haction(self.ind)
        decomp = packet_decomposition(h, self.block_of)
        rep = sg_report(decomp, h, self.block_of)
        self.timings["decomposition"] = time.perf_counter() - start
        return h, decomp, rep


def pair_stages(
    group: ConstructedGroup, cap: int = DEFAULT_CAP, threads: int = 1
) -> PairStages:
    """Run the pair-class chain of a group up to the block partition."""
    if group.order > cap:
        raise EnumerationCapError(
            f"{group.spec} has {group.order} elements, more than --cap {cap}; "
            "raise --cap to allow a larger group"
        )
    timings = {}
    start = time.perf_counter()
    table = ElementTable(group.generators, group.degree, cap=cap)
    classes = ConjugacyClassTable(table)
    timings["tables"] = time.perf_counter() - start
    start = time.perf_counter()
    pcset = build_pc(table, classes, threads=threads)
    timings["pairs"] = time.perf_counter() - start
    if not pcset.ell:
        raise GroupSpecError(f"{group.spec}: no pair of elements generates the group")
    start = time.perf_counter()
    outs = out_representatives(classes, pcset)
    ind = induced_perms(pcset, outs)
    block_of = block_partition(pcset)
    timings["action"] = time.perf_counter() - start
    if pcset.ell % len(outs):
        raise RuntimeError("pair classes do not split evenly into outer orbits")
    return PairStages(table, classes, pcset, outs, ind, block_of, timings)


def model_stages(
    group: ConstructedGroup, cap: int = DEFAULT_CAP, threads: int = 1
) -> tuple[PairStages, GbarGroup]:
    """The pair-class chain of a group, then its model group on the outer
    orbits; the model build is timed as stage `model`."""
    st = pair_stages(group, cap, threads)
    start = time.perf_counter()
    gbar = build_gbar(st.pcset, st.ind.out_perms, cap)
    st.timings["model"] = time.perf_counter() - start
    return st, gbar


def _fingerprint_ab(rep: SgReport) -> list[int] | None:
    if rep.fingerprint is None:
        return None
    ab = fingerprint_recognize(rep.fingerprint)
    return None if ab is None else [ab[0], ab[1]]


def _pc_report(command: str, spec: str, st: PairStages) -> dict:
    ind, outs = st.ind, st.outs
    return {
        "schema": 1,
        "command": command,
        "spec": spec,
        "ell": st.pcset.ell,
        "out_order": len(outs),
        "r": st.pcset.ell // len(outs),
        "block_sizes": sorted(Counter(Counter(st.block_of).values()).items()),
        "theta_cycle_type": _fmt_cycle_type(cycle_type(ind.theta)),
        "delta_cycle_type": _fmt_cycle_type(cycle_type(ind.delta)),
        "out_cycle_types": [
            _fmt_cycle_type(cycle_type(p)) for p in ind.out_perms
        ],
        "timings": st.timings,
    }


def _cmd_pc(args: argparse.Namespace) -> dict:
    st = pair_stages(construct(args.spec), args.cap, args.threads)
    return _pc_report("pc", args.spec, st)


def _cmd_sg(args: argparse.Namespace) -> dict:
    st = pair_stages(construct(args.spec), args.cap, args.threads)
    _, _, rep = st.decomposition
    report = _pc_report("sg", args.spec, st)
    packet_counts = Counter(
        (p["e_order"], p["s"]) for p in rep.packets
    )
    ab = _fingerprint_ab(rep)
    if ab is None:
        verdict = "no C2^a x D8^b model match"
    else:
        verdict = f"consistent with C2^{ab[0]} x D8^{ab[1]}"
    report.update(
        {
            "num_orbits": rep.num_orbits,
            "packets": [
                [e, s, packet_counts[(e, s)]]
                for e, s in sorted(packet_counts)
            ],
            "order": rep.order,
            "order_factored": factored_text(rep.order),
            "simple_factors": _aggregate_labels(rep.simple_factors),
            "fingerprint_verdict": verdict,
            "fingerprint_ab": ab,
        }
    )
    return report


def _cmd_gt1(args: argparse.Namespace) -> dict:
    st, gbar = model_stages(construct(args.spec), args.cap, args.threads)
    start = time.perf_counter()
    reps = double_coset_survey(gbar)
    st.timings["survey"] = time.perf_counter() - start
    survivors = [rep for rep in reps if rep.survives]
    return {
        "schema": 1,
        "command": "gt1",
        "spec": args.spec,
        "model_order": gbar.order,
        "r": gbar.r,
        "double_cosets": len(reps),
        "count": len(survivors),
        "survivors": [_word_text(rep.word) for rep in survivors],
        "timings": st.timings,
    }


def _cmd_gtfull(args: argparse.Namespace) -> dict:
    st, gbar = model_stages(construct(args.spec), args.cap, args.threads)
    start = time.perf_counter()
    total = gt_full_order(gbar)
    st.timings["survey"] = time.perf_counter() - start
    return {
        "schema": 1,
        "command": "gtfull",
        "spec": args.spec,
        "total": total,
        "note": "experimental beyond cyclic groups",
        "timings": st.timings,
    }


def _cmd_dessin(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    dessin = load_dessin(args.file)
    analysis = analyze_dessin(dessin, cap=args.cap)
    report = {
        "schema": 1,
        "command": "dessin",
        "file": args.file,
        "darts": dessin.darts,
        "monodromy_order": analysis.monodromy_order,
        "transitive": analysis.transitive,
        "regular": analysis.regular,
    }
    if args.cyclic is not None:
        if not analysis.regular:
            raise DessinError("cyclic structures require a regular dessin")
        table = analysis.table
        classes = ConjugacyClassTable(table)
        pair = (table.index[dessin.x], table.index[dessin.y])
        reps = cyclic_structures(classes, pair, args.cyclic)
        report["cyclic_n"] = args.cyclic
        report["structure_classes"] = len(reps)
        report["structure_orders"] = sorted(table.element_order(z) for z in reps)
    report["timings"] = {"total": time.perf_counter() - start}
    return report


def _repro_entries(args: argparse.Namespace) -> list[dict]:
    entries = []

    def check(entry_id: str, expected, got) -> None:
        entries.append(
            {
                "id": entry_id,
                "expected": expected,
                "got": got,
                "ok": expected == got,
            }
        )

    if args.table == "psl2":
        qs = PSL2_DEFAULT + (PSL2_EXTENDED if args.extended else ())
        for q in qs:
            st = pair_stages(construct(f"psl2:{q}"), args.cap, args.threads)
            _, _, rep = st.decomposition
            want_order, want_ab = PSL2_EXPECTED[q]
            check(f"psl2-{q}-order", want_order, factored_text(rep.order))
            check(f"psl2-{q}-fingerprint", want_ab, _fingerprint_ab(rep))
    elif args.table == "dihedral":
        for n in sorted(DIHEDRAL_GT1_EXPECTED):
            _, gbar = model_stages(construct(f"dihedral:{n}"), args.cap, args.threads)
            count = sum(1 for rep in double_coset_survey(gbar) if rep.survives)
            check(f"dihedral-{n}-gt1", DIHEDRAL_GT1_EXPECTED[n], count)
            if n in DIHEDRAL_ORDER_EXPECTED:
                check(
                    f"dihedral-{n}-model-order",
                    DIHEDRAL_ORDER_EXPECTED[n],
                    gbar.order,
                )
    else:
        for n in sorted(CYCLIC_FULL_EXPECTED):
            _, gbar = model_stages(construct(f"cyclic:{n}"), args.cap, args.threads)
            counts = survivor_counts(gbar)
            check(f"cyclic-{n}-full", CYCLIC_FULL_EXPECTED[n], sum(counts.values()))
            check(f"cyclic-{n}-gt1", 1, counts[1])
    return entries


def _cmd_repro(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    entries = _repro_entries(args)
    return {
        "schema": 1,
        "command": "repro",
        "table": args.table,
        "extended": bool(args.extended),
        "entries": entries,
        "ok": all(e["ok"] for e in entries),
        "timings": {"total": time.perf_counter() - start},
    }


def _cmd_atlas(args: argparse.Namespace) -> dict:
    return {"schema": 1, "command": "atlas", "entries": atlas_entries()}


def _render(report: dict) -> str:
    lines = []
    cmd = report["command"]
    if cmd == "atlas":
        lines += report["entries"]
        return "\n".join(lines)
    if cmd == "repro":
        lines.append(f"table: {report['table']}")
        for e in report["entries"]:
            if e["ok"]:
                lines.append(f"ok       {e['id']} = {e['got']}")
            else:
                lines.append(
                    f"MISMATCH {e['id']} expected {e['expected']} got {e['got']}"
                )
        good = sum(1 for e in report["entries"] if e["ok"])
        lines.append(f"result: {good} of {len(report['entries'])} entries match")
        return "\n".join(lines)
    lines.append(f"spec: {report.get('spec', report.get('file', ''))}")
    if cmd in ("pc", "sg"):
        lines.append(f"ell: {report['ell']}")
        lines.append(f"out order: {report['out_order']}")
        lines.append(f"r: {report['r']}")
        lines.append(
            "block sizes: "
            + ", ".join(f"{s} x {c}" for s, c in report["block_sizes"])
        )
        lines.append(
            "theta cycle type: " + _cycle_type_text(report["theta_cycle_type"])
        )
        lines.append(
            "delta cycle type: " + _cycle_type_text(report["delta_cycle_type"])
        )
        for i, t in enumerate(report["out_cycle_types"]):
            lines.append(f"out[{i}] cycle type: " + _cycle_type_text(t))
    if cmd == "sg":
        lines.append(f"orbits: {report['num_orbits']}")
        lines.append(
            "packets: "
            + ", ".join(
                f"(e={e}, s={s}) x {c}" for e, s, c in report["packets"]
            )
        )
        lines.append(f"order: {report['order']} = {report['order_factored']}")
        lines.append(
            "simple factors: "
            + (
                " x ".join(
                    f"{label}^{c}" if c > 1 else label
                    for label, c in report["simple_factors"]
                )
                or "none"
            )
        )
        lines.append(f"fingerprint: {report['fingerprint_verdict']}")
    if cmd == "gt1":
        lines.append(f"model order: {report['model_order']}")
        lines.append(f"r: {report['r']}")
        lines.append(f"double cosets: {report['double_cosets']}")
        lines.append(f"count: {report['count']}")
        lines.append("survivors: " + ", ".join(report["survivors"]))
    if cmd == "gtfull":
        lines.append(f"total: {report['total']}")
        lines.append(f"note: {report['note']}")
    if cmd == "dessin":
        lines.append(f"darts: {report['darts']}")
        lines.append(f"monodromy order: {report['monodromy_order']}")
        lines.append(f"transitive: {'yes' if report['transitive'] else 'no'}")
        lines.append(f"regular: {'yes' if report['regular'] else 'no'}")
        if "cyclic_n" in report:
            orders = ", ".join(str(o) for o in report["structure_orders"])
            lines.append(
                f"cyclic {report['cyclic_n']} structure classes: "
                f"{report['structure_classes']} (element orders {orders})"
            )
    timings = report.get("timings")
    if timings:
        lines.append(
            "timings: "
            + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items())
        )
    return "\n".join(lines)


def write_json_report(path: str, report: dict) -> None:
    """Emit a report as stable JSON: sorted keys, two-space indent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


DISPATCH = {
    "pc": _cmd_pc,
    "sg": _cmd_sg,
    "gt1": _cmd_gt1,
    "gtfull": _cmd_gtfull,
    "dessin": _cmd_dessin,
    "repro": _cmd_repro,
    "atlas": _cmd_atlas,
}


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    0: success; 1: a `repro` table mismatch; 2: bad input or an oversized
    problem; 3: an internal self-check failed.  Ints print in full, however
    long (|S| of alternating:9 has 21,088 digits).
    """
    if hasattr(sys, "set_int_max_str_digits"):  # the limit exists from 3.10.7 on
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        if args.threads < 0:
            raise GroupSpecError("--threads must be nonnegative")
        if args.cap < 1:
            raise GroupSpecError("--cap must be positive")
        args.threads = args.threads or os.cpu_count() or 1
        report = DISPATCH[args.command](args)
        if getattr(args, "json", None):
            write_json_report(args.json, report)
    except USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as err:
        print(f"error: internal check failed: {err}", file=sys.stderr)
        return 3
    print(_render(report))
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(run())
