"""The benchmark's contract: workloads and metrics, written to BENCHMARK.json.

    python3 perfbench/spec.py     # rewrites BENCHMARK.json at the repo root
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = [
    ("sweep", "sg on psl2:5..13 and A7 in-process: the pair sweep and its "
              "generation tests take about 85% of the time; the model layer is "
              "touched only by one tiny gt1"),
    ("model", "gt1 on a dihedral ladder, A4 and cyclic groups, gtfull on cyclic "
              "groups, in-process: model enumeration and the double-coset survey "
              "dominate while the pair sweep is trivial"),
    ("cli", "one client running fresh gtpairs processes on small inputs and one "
            "oversized gt1 that must be refused: interpreter start-up, imports and "
            "enumerate-then-refuse dominate"),
]

# name, unit, better, bound.  Raw wall times are not gated: on a host whose
# speed drifts they spread by up to 30% between runs (see README.md), more
# than any bound may allow; round_ref cancels that drift.
END_TO_END = [
    ("round_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

# name, unit, better
PER_LAYER = [
    ("atlas.construct_s", "s", "lower"),
    ("permcore.element_table_s", "s", "lower"),
    ("permcore.elements_enumerated", "count", "lower"),
    ("permcore.conjugacy_classes_s", "s", "lower"),
    ("permcore.centralizer_s", "s", "lower"),
    ("permcore.generates_s", "s", "lower"),
    ("permcore.generates_calls", "count", "lower"),
    ("pairs.build_pc_self_s", "s", "lower"),
    ("pairs.useful_test_ratio", "ratio", "higher"),
    ("pairs.pair_classes", "count", "higher"),
    ("pairs.induced_perms_s", "s", "lower"),
    ("autgroup.out_representatives_s", "s", "lower"),
    ("autgroup.extend_calls", "count", "lower"),
    ("sgroup.build_haction_s", "s", "lower"),
    ("sgroup.packet_decomposition_s", "s", "lower"),
    ("sgroup.sg_report_s", "s", "lower"),
    ("structure.fingerprint_s", "s", "lower"),
    ("structure.composition_factors_s", "s", "lower"),
    ("gbar.build_gbar_self_s", "s", "lower"),
    ("gbar.model_elements", "count", "lower"),
    ("gbar.double_coset_survey_s", "s", "lower"),
    ("gbar.double_cosets", "count", "higher"),
    ("gbar.survey_generates_calls", "count", "lower"),
    ("dessins.analyze_dessin_s", "s", "lower"),
    ("dessins.cyclic_structures_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run_s", "s", "lower"),
    ("bench.wall_s", "s", "lower"),
    ("bench.round_s", "s", "lower"),
    ("bench.ref_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
]


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit for the metrics a run prints."""
    return {m[0]: m[1] for m in (PER_LAYER if trace else END_TO_END)}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(render())
