"""Spans around calls into each gtpairs layer, recorded from outside.

A wrapper replaces a public function under the name its caller looks it up
by (`gtpairs.pairs.generates`, not only `gtpairs.permcore.generates`),
records one span per call and restores the original afterwards.  Spans
stay in memory; a layer's self time is its span's duration minus the part
its child spans cover.
"""

from __future__ import annotations

import importlib
from statistics import median
from time import perf_counter

# span record fields
NAME, SITE, START, END, PARENT, OP, ROUND, VALUE = range(8)


def _order(result) -> int:
    return result.order


def _count(result) -> int:
    return len(result)


def _flag(result) -> int:
    return 1 if result else 0


def _cap_reached(args, kwargs) -> int:
    """Elements an ElementTable enumerated before it refused: cap + 1."""
    from gtpairs.permcore import DEFAULT_CAP

    return kwargs.get("cap", DEFAULT_CAP) + 1


# (module or "module:Class", attribute, span name, value of the result,
#  value when the call raised)
PATCHES = [
    ("gtpairs.cli", "construct", "atlas.construct", None, None),
    ("gtpairs.cli", "ElementTable", "permcore.element_table", _order, _cap_reached),
    ("gtpairs.gbar", "ElementTable", "permcore.element_table", _order, _cap_reached),
    ("gtpairs.dessins", "ElementTable", "permcore.element_table", _order, _cap_reached),
    ("gtpairs.cli", "ConjugacyClassTable", "permcore.conjugacy_classes", None, None),
    ("gtpairs.gbar", "ConjugacyClassTable", "permcore.conjugacy_classes", None, None),
    ("gtpairs.permcore:ConjugacyClassTable", "centralizer_ids", "permcore.centralizer",
     None, None),
    ("gtpairs.pairs", "generates", "permcore.generates", _flag, None),
    ("gtpairs.gbar", "generates", "permcore.generates", _flag, None),
    ("gtpairs.dessins", "generates", "permcore.generates", _flag, None),
    ("gtpairs.cli", "build_pc", "pairs.build_pc", lambda pc: pc.ell, None),
    ("gtpairs.gbar", "build_pc", "pairs.build_pc", lambda pc: pc.ell, None),
    ("gtpairs.cli", "induced_perms", "pairs.induced_perms", None, None),
    ("gtpairs.cli", "out_representatives", "autgroup.out_representatives", None, None),
    ("gtpairs.gbar", "out_representatives", "autgroup.out_representatives", None, None),
    ("gtpairs.autgroup", "extend_pair_map", "autgroup.extend_pair_map", None, None),
    ("gtpairs.dessins", "extend_pair_map", "autgroup.extend_pair_map", None, None),
    ("gtpairs.cli", "build_haction", "sgroup.build_haction", None, None),
    ("gtpairs.cli", "packet_decomposition", "sgroup.packet_decomposition", None, None),
    ("gtpairs.cli", "sg_report", "sgroup.sg_report", None, None),
    ("gtpairs.sgroup", "wreath_fingerprint", "structure.fingerprint", None, None),
    ("gtpairs.sgroup", "product_fingerprint", "structure.fingerprint", None, None),
    ("gtpairs.cli", "fingerprint_recognize", "structure.fingerprint", None, None),
    ("gtpairs.sgroup", "composition_factors_small", "structure.composition_factors",
     None, None),
    ("gtpairs.cli", "build_gbar", "gbar.build_gbar", _order, None),
    ("gtpairs.gbar", "build_gbar", "gbar.build_gbar", _order, None),
    ("gtpairs.cli", "double_coset_survey", "gbar.double_coset_survey", _count, None),
    ("gtpairs.gbar", "double_coset_survey", "gbar.double_coset_survey", _count, None),
    ("gtpairs.cli", "analyze_dessin", "dessins.analyze_dessin", None, None),
    ("gtpairs.cli", "cyclic_structures", "dessins.cyclic_structures", None, None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; `op` and `round` tag new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, site: str, fn, value=None, on_error=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, site, 0.0, 0.0, stack[-1] if stack else -1,
                   self.op, self.round, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[END] = perf_counter()
                stack.pop()
                if on_error is not None:
                    rec[VALUE] = on_error(args, kwargs)
                raise
            rec[END] = perf_counter()
            stack.pop()
            if value is not None:
                rec[VALUE] = value(out)
            return out

        return wrapper

    def install(self) -> None:
        for path, attr, name, value, on_error in PATCHES:
            owner = _owner(path)
            original = owner.__dict__[attr]
            site = path.split(":")[0].rsplit(".", 1)[-1]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, site, original, value, on_error))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        self.spans.append([name, "bench", start, end, -1, self.op, self.round, None])

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by a child process, retagged for this op."""
        offset = len(self.spans)
        for rec in spans:
            rec = list(rec)
            if rec[PARENT] >= 0:
                rec[PARENT] += offset
            rec[OP], rec[ROUND] = self.op, self.round
            self.spans.append(rec)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def round_layers(spans: list[list], round_id: int) -> dict[str, float]:
    """Per-layer totals of one round: self times, call counts and values."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v

    for i, rec in enumerate(spans):
        if rec[ROUND] != round_id:
            continue
        name = rec[NAME]
        add(f"{name}:self", own[i])
        add(f"{name}:total", rec[END] - rec[START])
        add(f"{name}:calls", 1)
        if rec[VALUE] is not None:
            add(f"{name}:value", rec[VALUE])
        if name == "permcore.generates":
            add(f"generates@{rec[SITE]}:calls", 1)
            add(f"generates@{rec[SITE]}:value", rec[VALUE])
            parent = rec[PARENT]
            if parent >= 0 and spans[parent][NAME] == "gbar.double_coset_survey":
                add("generates@survey:calls", 1)
    return out


def layer_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics, each the median over the traced rounds."""

    def med(key: str) -> float:
        return median(r.get(key, 0.0) for r in per_round)

    pairs_calls = med("generates@pairs:calls")
    return {
        "atlas.construct_s": med("atlas.construct:self"),
        "permcore.element_table_s": med("permcore.element_table:self"),
        "permcore.elements_enumerated": med("permcore.element_table:value"),
        "permcore.conjugacy_classes_s": med("permcore.conjugacy_classes:self"),
        "permcore.centralizer_s": med("permcore.centralizer:self"),
        "permcore.generates_s": med("permcore.generates:self"),
        "permcore.generates_calls": med("permcore.generates:calls"),
        "pairs.build_pc_self_s": med("pairs.build_pc:self"),
        "pairs.useful_test_ratio": (
            med("generates@pairs:value") / pairs_calls if pairs_calls else 0.0
        ),
        "pairs.pair_classes": med("pairs.build_pc:value"),
        "pairs.induced_perms_s": med("pairs.induced_perms:self"),
        "autgroup.out_representatives_s": med("autgroup.out_representatives:self"),
        "autgroup.extend_calls": med("autgroup.extend_pair_map:calls"),
        "sgroup.build_haction_s": med("sgroup.build_haction:self"),
        "sgroup.packet_decomposition_s": med("sgroup.packet_decomposition:self"),
        "sgroup.sg_report_s": med("sgroup.sg_report:self"),
        "structure.fingerprint_s": med("structure.fingerprint:self"),
        "structure.composition_factors_s": med("structure.composition_factors:self"),
        "gbar.build_gbar_self_s": med("gbar.build_gbar:self"),
        "gbar.model_elements": med("gbar.build_gbar:value"),
        "gbar.double_coset_survey_s": med("gbar.double_coset_survey:self"),
        "gbar.double_cosets": med("gbar.double_coset_survey:value"),
        "gbar.survey_generates_calls": med("generates@survey:calls"),
        "dessins.analyze_dessin_s": med("dessins.analyze_dessin:self"),
        "dessins.cyclic_structures_s": med("dessins.cyclic_structures:self"),
        "cli.run_s": med("cli.run:total"),
    }
