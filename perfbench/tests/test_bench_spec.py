"""BENCHMARK.json, the metric names the runner prints, and span bookkeeping."""

from __future__ import annotations

from pathlib import Path

import spec
import spans

ROOT = Path(__file__).resolve().parent.parent.parent


def test_benchmark_json_is_generated_from_spec() -> None:
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_per_layer_names_match_what_the_runner_computes() -> None:
    computed = set(spans.layer_metrics([{}]))
    computed |= {"cli.interpreter_s", "cli.import_s", "bench.wall_s",
                 "bench.round_s", "bench.ref_s", "bench.trace_overhead"}
    assert computed == set(spec.units(trace=True))


def test_bounds_and_required_metrics() -> None:
    e2e = {n: (u, b, bound) for n, u, b, bound in spec.END_TO_END}
    assert e2e["setup_s"][:2] == ("s", "lower")
    assert all(0 < bound <= 0.25 for _, _, bound in e2e.values())
    assert max(b for _, _, b in e2e.values()) == e2e["setup_s"][2]


def test_self_time_subtracts_direct_children() -> None:
    recs = [
        ["a", "x", 0.0, 10.0, -1, 0, 0, None],
        ["b", "x", 2.0, 5.0, 0, 0, 0, None],
        ["c", "x", 3.0, 4.0, 1, 0, 0, None],
        ["d", "x", 6.0, 7.0, 0, 0, 0, None],
    ]
    assert spans.self_times(recs) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_and_restores() -> None:
    from gtpairs import cli, pairs, permcore

    before = (cli.construct, pairs.generates, permcore.ConjugacyClassTable.centralizer_ids)
    tracer = spans.Tracer()
    tracer.round = 0
    tracer.install()
    try:
        cli.run(["pc", "cyclic:4", "--threads", "1"])
    finally:
        tracer.uninstall()
    after = (cli.construct, pairs.generates, permcore.ConjugacyClassTable.centralizer_ids)
    assert after == before
    layers = spans.round_layers(tracer.spans, 0)
    assert layers["atlas.construct:calls"] == 1
    assert layers["pairs.build_pc:value"] > 0
    assert layers["permcore.generates:calls"] >= 1
