"""The three workloads: their seeded inputs, their operations and the checks
each operation's output must pass.

An operation is one gtpairs command line.  In-process operations go
through `gtpairs.cli.run`, child operations through a fresh interpreter.
The seed only relabels inputs, picks generating pairs and pair samples, and
orders the operations of a round; the work a round does is the same for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

SAMPLE_PAIRS = 40
DESSIN_CYCLIC = 5
REFUSAL_CAP = 20000


@dataclass
class Outcome:
    """What one run of an operation produced."""

    code: int
    report: dict | None
    stdout: str
    stderr: str
    captured: object = None
    error: str | None = None
    seconds: float = 0.0


Check = tuple[str, Callable[[Outcome], bool]]


@dataclass
class Op:
    name: str
    argv: list[str]
    checks: list[Check]
    json: bool = True
    expect_code: int = 0
    capture: str | None = None  # gtpairs.cli name whose return value the checks need


@dataclass
class Inputs:
    """Seeded input files and the benchmark's own view of their groups."""

    a5_file: Path
    s4_file: Path
    dessin_file: Path
    a5: oracles.SmallGroup
    s4: oracles.SmallGroup
    dessin_darts: int


def _relabelled_pair(group: oracles.SmallGroup, rng: random.Random):
    a, b = group.random_generating_pair(rng)
    degree = len(group.elements[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    sigma_inv = [0] * degree
    for i, s in enumerate(sigma):
        sigma_inv[s] = i

    def conj(p):
        return tuple(sigma[p[sigma_inv[i]]] for i in range(degree))

    return conj(group.elements[a]), conj(group.elements[b])


def _group_file(path: Path, pair) -> None:
    degree = len(pair[0])
    path.write_text(
        f"degree {degree}\n" + "".join(oracles.cycle_text(p) + "\n" for p in pair),
        encoding="utf-8",
    )


def _regular_dessin(path: Path, group: oracles.SmallGroup, rng: random.Random) -> int:
    """Darts are the group's elements in a seeded order; x and y act by right
    multiplication with a seeded generating pair, so the dessin is regular."""
    a, b = group.random_generating_pair(rng)
    order = list(range(group.order))
    rng.shuffle(order)
    dart_of = {e: d for d, e in enumerate(order)}
    x = tuple(dart_of[group.table[e][a]] for e in order)
    y = tuple(dart_of[group.table[e][b]] for e in order)
    path.write_text(
        f"darts {group.order}\n{oracles.cycle_text(x)}\n{oracles.cycle_text(y)}\n",
        encoding="utf-8",
    )
    return group.order


def make_inputs(directory: Path, seed: int) -> Inputs:
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    a5 = oracles.SmallGroup(oracles.SMALL_GROUP_GENERATORS["A5"])
    s4 = oracles.SmallGroup(oracles.SMALL_GROUP_GENERATORS["S4"])
    a5_file = directory / "a5.txt"
    s4_file = directory / "s4.txt"
    dessin_file = directory / "dessin.txt"
    _group_file(a5_file, _relabelled_pair(a5, rng))
    _group_file(s4_file, _relabelled_pair(s4, rng))
    darts = _regular_dessin(dessin_file, a5, rng)
    return Inputs(a5_file, s4_file, dessin_file, a5, s4, darts)


# ---- checks -------------------------------------------------------------


def _field(key: str, want) -> Check:
    return (f"{key} = {want}", lambda o: o.report[key] == want)


def _involution(key: str) -> Check:
    return (
        f"{key} is an involution",
        lambda o: all(length in (1, 2) for length, _ in o.report[key]),
    )


def _blocks_cover() -> Check:
    return (
        "blocks cover all pair classes",
        lambda o: sum(s * c for s, c in o.report["block_sizes"]) == o.report["ell"],
    )


def _pairs_agree_with_sympy(seed: int, spec: str) -> Check:
    def check(o: Outcome) -> bool:
        from gtpairs.pairs import PairLookupError

        pcset = o.captured
        table = pcset.table
        rng = random.Random(f"{seed}:{spec}")
        for _ in range(SAMPLE_PAIRS):
            g, h = rng.randrange(table.order), rng.randrange(table.order)
            try:
                pcset.locate(g, h)
                program = True
            except PairLookupError:
                program = False
            a, b = table.elements[g], table.elements[h]
            if program != oracles.sympy_generates(a, b, table.order):
                return False
        return True

    return (f"{SAMPLE_PAIRS} seeded pairs agree with sympy on generation", check)


def _model_order_matches_sympy() -> Check:
    return (
        "model order = sympy order of <x, y>",
        lambda o: oracles.sympy_order([o.captured.x, o.captured.y])
        == o.report["model_order"],
    )


def _eulerian(group: oracles.SmallGroup) -> Check:
    def check(o: Outcome) -> bool:
        index = group.order // group.center_order()
        return o.report["ell"] * index == group.generating_pairs()

    return ("ell * |G:Z(G)| = brute generating-pair count", check)


def _sg_op(spec: str, seed: int) -> Op:
    checks = [
        _field("out_order", oracles.atlas_out_order(spec)),
        _involution("theta_cycle_type"),
        _involution("delta_cycle_type"),
        _blocks_cover(),
        _pairs_agree_with_sympy(seed, spec),
    ]
    if spec in oracles.HALL_D2:
        checks.append(_field("r", oracles.HALL_D2[spec]))
    return Op(f"sg {spec}", ["sg", spec], checks, capture="build_pc")


def _gt1_op(spec: str) -> Op:
    checks = [_model_order_matches_sympy()]
    family, _, param = spec.partition(":")
    if family == "dihedral":
        n = int(param)
        if n % 2:
            checks.append(_field("model_order", 4 * n**3))
        # the repository's recorded dihedral table: 1 survivor iff 4 | n
        checks.append(_field("count", 1 if n % 4 == 0 else 2))
    if family == "cyclic":
        checks.append(_field("count", 1))
    return Op(f"gt1 {spec}", ["gt1", spec], checks, capture="build_gbar")


def _gtfull_op(n: int) -> Op:
    return Op(
        f"gtfull cyclic:{n}",
        ["gtfull", f"cyclic:{n}"],
        [_field("total", oracles.totient(n))],
    )


def _dessin_op(inputs: Inputs) -> Op:
    expected = inputs.a5.classes_with_order_dividing(DESSIN_CYCLIC)
    return Op(
        f"dessin --cyclic {DESSIN_CYCLIC}",
        ["dessin", str(inputs.dessin_file), "--cyclic", str(DESSIN_CYCLIC)],
        [
            _field("regular", True),
            _field("transitive", True),
            _field("monodromy_order", inputs.dessin_darts),
            _field("structure_classes", expected),
        ],
    )


def _refusal_op() -> Op:
    def one_line_error(o: Outcome) -> bool:
        lines = o.stderr.strip().splitlines()
        return len(lines) == 1 and lines[0].startswith("error:") and not o.stdout

    return Op(
        f"gt1 psl2:7 --cap {REFUSAL_CAP}",
        ["gt1", "psl2:7", "--cap", str(REFUSAL_CAP)],
        [("refused with a one-line error: message", one_line_error)],
        json=False,
        expect_code=2,
    )


def _atlas_op() -> Op:
    families = {"cyclic", "dihedral", "symmetric", "alternating", "quaternion8",
                "psl2", "psl3", "m11", "file"}
    return Op(
        "atlas list",
        ["atlas", "list"],
        [(
            "lists every family",
            lambda o: {e.split()[0].split(":")[0] for e in o.report["entries"]}
            == families,
        )],
    )


SWEEP_SPECS = ["psl2:5", "psl2:7", "psl2:9", "psl2:11", "psl2:13", "alternating:7"]
MODEL_GT1 = [f"dihedral:{n}" for n in (3, 5, 7, 9, 11, 13, 15, 8, 12)] + [
    "alternating:4", "cyclic:6", "cyclic:12",
]
MODEL_GTFULL = [7, 9, 12]


def sweep_ops(inputs: Inputs, seed: int) -> list[Op]:
    ops = [_sg_op(spec, seed) for spec in SWEEP_SPECS]
    # one small call into the model and dessin layers, so every layer's
    # time is measured on this workload too
    ops += [_gt1_op("dihedral:3"), _dessin_op(inputs)]
    return ops


def model_ops(inputs: Inputs, seed: int) -> list[Op]:
    ops = [_gt1_op(spec) for spec in MODEL_GT1]
    ops += [_gtfull_op(n) for n in MODEL_GTFULL]
    # one small call into the decomposition and dessin layers
    ops += [_sg_op("psl2:5", seed), _dessin_op(inputs)]
    return ops


def cli_ops(inputs: Inputs, seed: int) -> list[Op]:
    a5_pc = Op(
        "pc file:a5",
        ["pc", f"file:{inputs.a5_file}"],
        [
            _eulerian(inputs.a5),
            _field("out_order", 2),
            _field("r", oracles.HALL_D2["psl2:5"]),
        ],
    )
    s4_sg = Op(
        "sg file:s4",
        ["sg", f"file:{inputs.s4_file}"],
        [_eulerian(inputs.s4), _field("out_order", 1)],
    )
    d6 = oracles.SmallGroup([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)])
    d6_pc = Op("pc dihedral:6", ["pc", "dihedral:6"], [_eulerian(d6)])
    gt1 = Op(
        "gt1 dihedral:7",
        ["gt1", "dihedral:7"],
        [_field("model_order", 4 * 7**3), _field("count", 2)],
    )
    return [_atlas_op(), a5_pc, s4_sg, d6_pc, gt1, _dessin_op(inputs), _refusal_op()]


WORKLOADS = {"sweep": sweep_ops, "model": model_ops, "cli": cli_ops}
IN_PROCESS = {"sweep": True, "model": True, "cli": False}
WARMUP = {
    "sweep": ["sg", "psl2:4"],
    "model": ["gt1", "dihedral:4"],
    "cli": ["atlas", "list"],
}


def round_order(ops: list[Op], seed: int) -> list[Op]:
    """The seeded order of a workload's operations within every round."""
    ordered = list(ops)
    random.Random(f"order:{seed}").shuffle(ordered)
    return ordered
