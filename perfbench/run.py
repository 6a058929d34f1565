"""Run one benchmark workload of gtpairs and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones.  The exit code is 0
when every operation passed its checks, 1 when one failed (each failed
check is named on standard error), and 2 when the program is missing.
"""

from time import perf_counter

T_FIRST = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, round_layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
REF_ELEMENTS = 6000
CHILD_TIMEOUT = 120


def reference_loop() -> float:
    """Seconds for a fixed pure-Python closure: tuple composition and dict
    lookups, the same interpreter work the program does, but no gtpairs code."""
    degree = 16
    shift = tuple(range(1, degree)) + (0,)
    swap = (1, 0) + tuple(range(2, degree))
    start = perf_counter()
    ident = tuple(range(degree))
    seen = {ident: 0}
    queue = [ident]
    for e in queue:
        for g in (shift, swap):
            n = tuple(g[i] for i in e)
            if n not in seen:
                seen[n] = len(queue)
                queue.append(n)
        if len(queue) >= REF_ELEMENTS:
            break
    return perf_counter() - start


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class Session:
    """A workload set up and ready: inputs written, operations built."""

    workload: str
    seed: int
    ops: list
    tmp: Path
    import_s: float | None
    tracer: Tracer | None = None
    interpreter_samples: list = field(default_factory=list)
    import_samples: list = field(default_factory=list)

    def run_op(self, op: workloads.Op, idx: int, capture: bool) -> workloads.Outcome:
        argv = op.argv + ["--threads", "1"]
        path = self.tmp / f"op{idx}.json"
        path.unlink(missing_ok=True)
        if op.json:
            argv += ["--json", str(path)]
        start = perf_counter()
        if workloads.IN_PROCESS[self.workload]:
            outcome = self._in_process(argv, op.capture if capture else None)
        else:
            outcome = self._child(argv, idx)
        outcome.seconds = perf_counter() - start
        if op.json and outcome.code == 0 and outcome.error is None:
            outcome.report = json.loads(path.read_text(encoding="utf-8"))
        return outcome

    def _in_process(self, argv: list[str], capture: str | None) -> workloads.Outcome:
        from gtpairs import cli

        captured = []
        original = None
        if capture:
            original = getattr(cli, capture)

            def keep(*args, **kwargs):
                out = original(*args, **kwargs)
                captured.append(out)
                return out

            setattr(cli, capture, keep)
        run = cli.run
        if self.tracer is not None:
            run = self.tracer.span("cli.run", "cli", run)
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = -1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        except Exception as exc:  # an internal fault of the program: the op failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if capture:
                setattr(cli, capture, original)
        return workloads.Outcome(
            code, None, out.getvalue(), err.getvalue(),
            captured[0] if captured else None, error,
        )

    def _child(self, argv: list[str], idx: int) -> workloads.Outcome:
        spans_path = self.tmp / f"spans{idx}.json"
        if self.tracer is not None:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "gtpairs.cli"]
        spawn = perf_counter()
        try:
            proc = subprocess.run(
                cmd + argv, cwd=ROOT, env=_child_env(), capture_output=True,
                text=True, timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return workloads.Outcome(-1, None, "", "", error="timed out")
        if self.tracer is not None:
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            self.tracer.adopt(child["spans"])
            self.interpreter_samples.append(child["first"] - spawn)
            self.import_samples.append(child["import_s"])
        return workloads.Outcome(proc.returncode, None, proc.stdout, proc.stderr)


def setup(workload: str, seed: int, tmp: Path) -> Session:
    """Imports, seeded inputs and one warm-up call: what precedes timing."""
    import_s = None
    if workloads.IN_PROCESS[workload]:
        start = perf_counter()
        import gtpairs.cli  # noqa: F401

        import_s = perf_counter() - start
    inputs = workloads.make_inputs(tmp / "inputs", seed)
    ops = workloads.round_order(workloads.WORKLOADS[workload](inputs, seed), seed)
    session = Session(workload, seed, ops, tmp, import_s)
    warm = workloads.Op("warm-up", workloads.WARMUP[workload], [], json=False)
    if session.run_op(warm, -1, capture=False).code != 0:
        raise RuntimeError(f"warm-up call {warm.argv} failed")
    return session


def _probe(args: argparse.Namespace) -> int:
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        session = setup(args.workload, args.seed, tmp)
        print(json.dumps({
            "first": T_FIRST, "ready": perf_counter(), "import_s": session.import_s,
        }))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def _setup_probe(args: argparse.Namespace) -> dict:
    """Set the workload up in a fresh process; time spawn to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--probe"]
    spawn = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    stamp = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "setup_s": stamp["ready"] - spawn,
        "interpreter_s": stamp["first"] - spawn,
        "import_s": stamp["import_s"],
    }


def _normal(outcome: workloads.Outcome):
    report = dict(outcome.report or {})
    report.pop("timings", None)
    return outcome.code, outcome.error, report, outcome.stderr


def _verdicts(session: Session, rounds: list[list]) -> tuple[int, list[str]]:
    """Failed operation count and the names of the failed checks."""
    failed = 0
    names: list[str] = []
    for idx, op in enumerate(session.ops):
        first = rounds[0][idx]
        bad = None
        if first.error is not None:
            bad = f"raised {first.error}"
        elif first.code != op.expect_code:
            bad = f"exit code {first.code}, expected {op.expect_code}"
        else:
            for name, check in op.checks:
                try:
                    ok = check(first)
                except Exception as exc:  # a malformed report fails the check
                    ok = False
                    name = f"{name} ({type(exc).__name__}: {exc})"
                if not ok:
                    bad = name
                    break
        if bad is not None:
            names.append(f"{op.name}: {bad}")
            failed += len(rounds)
            continue
        base = _normal(first)
        for r, outcomes in enumerate(rounds[1:], start=2):
            if _normal(outcomes[idx]) != base:
                names.append(f"{op.name}: round {r} output differs from round 1")
                failed += 1
    return failed, names


def _round_ref(untraced: list[tuple[int, list]], ref: list[float]) -> float:
    """Each operation's time over the median of the four reference samples
    nearest to it, two taken before it and two after; the median over rounds
    of that ratio, summed over the operations of a round.  The medians drop
    samples and rounds that a momentary stall of the host distorted."""
    ratios = [
        [o.seconds / median(ref[max(first + i - 1, 0):first + i + 3])
         for i, o in enumerate(outcomes)]
        for first, outcomes in untraced
    ]
    return sum(median(column) for column in zip(*ratios))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gtpairs" / "cli.py").is_file():
        print(f"error: gtpairs sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.probe:
        return _probe(args)

    # one core for the benchmark and every process it starts, so that the
    # reference samples see the same contention as the work they measure
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        session = setup(args.workload, args.seed, tmp)
        return _measure(args, session)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.sched_setaffinity(0, cpus)


def _measure(args: argparse.Namespace, session: Session) -> int:
    tracer = Tracer() if args.trace else None
    probes: list[dict] = []
    probe_s = 0.0  # set-up probes run between rounds, outside the time budget
    ref: list[float] = []
    rounds: list[list] = []
    walls: list[float] = []
    untraced: list[tuple[int, list]] = []  # (index of the round's first ref sample, outcomes)
    traced_walls: list[float] = []
    traced_ids: list[int] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        probes.append(_setup_probe(args))
        probe_s += perf_counter() - t0
        gc.collect()
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.round = len(rounds)
            tracer.install()
            session.tracer = tracer
        first_ref = len(ref)
        ref.append(reference_loop())
        outcomes = []
        for idx, op in enumerate(session.ops):
            if traced:
                tracer.op = idx
            outcomes.append(session.run_op(op, idx, capture=not rounds))
            ref.append(reference_loop())
        if traced:
            tracer.uninstall()
            session.tracer = None
            traced_walls.append(sum(o.seconds for o in outcomes))
            traced_ids.append(len(rounds))
        else:
            walls.append(sum(o.seconds for o in outcomes))
            untraced.append((first_ref, outcomes))
        rounds.append(outcomes)
        if (perf_counter() - start - probe_s >= args.seconds
                and (tracer is None or not traced)):
            break
    peak = _peak_rss_mb()
    ref.append(reference_loop())  # completes the last operation's window
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(args))

    failed, bad_checks = _verdicts(session, rounds)
    attempted = len(rounds) * len(session.ops)
    ref_s = median(ref)
    # raw wall times follow the host's speed: printed, but not gated
    raw = {"wall_s": sum(walls) / len(walls), "round_s": median(walls)}
    if tracer is None:
        metrics = {
            "round_ref": _round_ref(untraced, ref),
            "peak_rss_mb": peak,
            "setup_s": median(p["setup_s"] for p in probes),
        }
    else:
        metrics = layer_metrics([round_layers(tracer.spans, r) for r in traced_ids])
        interp = session.interpreter_samples or [p["interpreter_s"] for p in probes]
        imports = session.import_samples or [p["import_s"] for p in probes]
        metrics["cli.interpreter_s"] = median(interp)
        metrics["cli.import_s"] = median(imports)
        metrics["bench.wall_s"] = raw["wall_s"]
        metrics["bench.round_s"] = raw["round_s"]
        metrics["bench.ref_s"] = ref_s
        metrics["bench.trace_overhead"] = median(traced_walls) / median(walls)
    units = spec.units(bool(args.trace))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": [op.name for op in session.ops],
        "op_seconds": [[o.seconds for o in outcomes] for outcomes in rounds],
        "round_walls": walls,
        "traced_round_walls": traced_walls,
        "ref_samples": ref,
        "setup_probes": probes,
        "result": result,
    }
    _write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", detail, tracer)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if tracer is None:
        for name, value in raw.items():
            print(f"{args.workload} {name} {value:.6g} s (host-bound, not gated)")
    print(f"{args.workload} rounds {len(rounds)}, attempted {attempted}, failed {failed}")
    for name in bad_checks:
        print(f"FAILED {name}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _write_outputs(stem: str, detail: dict, tracer: Tracer | None) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        fields = ["name", "site", "start", "end", "parent", "op", "round", "value"]
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"fields": fields, "ops": detail["ops"], "spans": tracer.spans})
            + "\n"
        )


if __name__ == "__main__":
    sys.exit(main())
