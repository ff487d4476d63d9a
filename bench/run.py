"""Closed-loop benchmark of divalg verdicts.

    python3 bench/run.py --workload em-ladder --seed 1 --seconds 30 --trace 0

One caller asks for the next verdict only when the previous one has
returned.  A pass is one walk over the workload's cases; passes repeat until
the next one would overrun --seconds (at least one pass).  After each pass,
outside the timed region, every answer is checked against `oracle`, which
does not import divalg.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see README.md); `--workload all` runs each workload in a fresh
interpreter and prints every metric with its unit.  Times are reported in
seconds of a quiet host: every measured time is scaled by how much slower
than its nominal time a fixed piece of reference work ran right next to it (see
`reference`), because other tenants of a shared host slow everything by up to
2x for minutes at a time.  A wrong verdict sets "correct" to false and the
exit code to 1.  The program is imported from
src/ of the checkout this file lives in; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import reference

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_traces"
SETUP_PROBES = 7
WORKLOADS = ("em-ladder", "module-route", "fusion-ladder", "cli-sweep")

END_TO_END = {
    "wall_s": "s",
    "slowest_verdict_s": "s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in ("monads", "rings", "nimreps", "catalog", "cli")},
    "monads.enumerate_em_algebras.self_s": "s",
    "monads.em_isomorphic.calls": "count",
    "monads.em_isomorphic.self_s": "s",
    "monads.em_candidates": "count",
    "monads.em_isoclasses": "count",
    "monads.em_isoclass_yield": "ratio",
    "monads.enumerate_modules.self_s": "s",
    "monads.module_isomorphic.calls": "count",
    "monads.module_isomorphic.self_s": "s",
    "monads.module_isoclasses": "count",
    "monads.check_strength.self_s": "s",
    "monads.check_strength.errors": "count",
    "monads.check_comparison_fully_faithful.self_s": "s",
    "monads.validate_monad.self_s": "s",
    "rings.validate_ring.calls": "count",
    "rings.validate_ring.self_s": "s",
    "rings.validate_ring.peak_mb": "MB",
    "rings.classify_internal_end.calls": "count",
    "rings.classify_internal_end.self_s": "s",
    "rings.is_left_invertible.self_s": "s",
    "rings.is_right_invertible.self_s": "s",
    "rings.tensor.self_s": "s",
    "nimreps.validate_nimrep.calls": "count",
    "nimreps.validate_nimrep.self_s": "s",
    "nimreps.classify_internal_end_nimrep.self_s": "s",
    "nimreps.cross_check_internal_end.self_s": "s",
    "nimreps.module_components.self_s": "s",
    "catalog.entries.calls": "count",
    "catalog.entries.self_s": "s",
    "catalog.builtin_ring.calls": "count",
    "catalog.builtin_ring.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "cli.export_report.self_s": "s",
    "trace.overhead_s": "s",
}


def load_program():
    """Import divalg from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import divalg
    except ImportError as exc:
        print(f"bench: cannot import divalg from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(divalg.__file__).resolve().parent.parent != src.resolve():
        print(f"bench: divalg was imported from {divalg.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return divalg


@dataclass
class Pass:
    seed: int
    wall: float  # measured seconds, the sum of `durations`
    durations: list[float]
    scaled: list[float]  # `durations` in quiet-host seconds
    slowdown: float  # the pass's reference slices over their nominal time
    tally: Counter
    wrong: list[str]
    digest: Optional[str]
    summary: dict = field(default_factory=dict)


def run_pass(cases, seed: int, tracer=None) -> Pass:
    import workloads

    gc.collect()
    answers = []
    paces = {}  # case index -> reference slice time just before that case
    last = -math.inf
    for index, case in enumerate(cases):
        if perf_counter() - last >= reference.EVERY_S:
            paces[index] = reference.pace()
            last = perf_counter()
        if tracer is not None:
            tracer.verdict = index
        start = perf_counter()
        try:
            value, error = case.call(), None
        except workloads.DivalgError as exc:
            value, error = None, exc
        answers.append((value, error, perf_counter() - start))
    paces[len(cases)] = reference.pace()
    durations = [a[2] for a in answers]

    tally, wrong, stdout = Counter(), [], hashlib.sha256()
    for case, (value, error, _) in zip(cases, answers):
        outcome, message = workloads.judge(case, value, error)
        tally[outcome] += 1
        if message:
            wrong.append(f"{outcome}: {message}")
        if case.cli:
            stdout.update(value[1].encode())
    digest = stdout.hexdigest() if any(case.cli for case in cases) else None
    slowdown = statistics.median(paces.values()) / reference.NOMINAL_S
    return Pass(seed, sum(durations), durations, reference.scale(durations, paces), slowdown,
                tally, wrong, digest)


def measure(schedule, seconds: float) -> list[Pass]:
    """Passes until the next one would end after `seconds`, cycling through the schedule.

    Each schedule entry is (seed, cases, tracer or None); every entry runs at
    least once.  A tracer is installed for its pass only.
    """
    passes: list[Pass] = []
    begin = perf_counter()
    while True:
        seed, cases, tracer = schedule[len(passes) % len(schedule)]
        if tracer is None:
            done = run_pass(cases, seed)
        else:
            tracer.install()
            try:
                done = run_pass(cases, seed, tracer)
            finally:
                tracer.uninstall()
            done.summary = tracer.take(len(passes))
        passes.append(done)
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= len(schedule) and perf_counter() - begin + typical > seconds:
            return passes


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Interpreter start to inputs ready, timed from outside in fresh processes.

    In quiet-host seconds: each probe is scaled by the `reference.startup`
    runs just before and just after it.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    out = []
    before = reference.startup(ROOT)
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE) as probe:
            line = probe.stdout.readline()
            ready = perf_counter()
            probe.stdout.read()
        if line.strip() != b"ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        after = reference.startup(ROOT)
        out += reference.scale([ready - start], {0: before, 1: after}, reference.NOMINAL_STARTUP_S)
        before = after
    return out


def consistency_errors(passes: list[Pass]) -> list[str]:
    """Stdout digests must repeat per seed, and count metrics across all passes."""
    errors = []
    digests = {}
    for p in passes:
        if digests.setdefault(p.seed, p.digest) != p.digest:
            errors.append(f"stdout digest of seed {p.seed} changed between passes")
    counts = [{k: v for k, v in p.summary.items() if is_count(k)} for p in passes if p.summary]
    if any(c != counts[0] for c in counts):
        errors.append("count metrics differ between traced passes")
    return errors


def is_count(name: str) -> bool:
    return PER_LAYER.get(name) == "count" or name.endswith((".calls", ".errors"))


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    tally = sum((p.tally for p in passes), Counter())
    typical = [statistics.median(times) for times in zip(*(p.scaled for p in passes))]
    return {
        "wall_s": statistics.median(sum(p.scaled) for p in passes),
        "slowest_verdict_s": max(typical),
        "decided_share": tally["decided"] / sum(tally.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        values = [p.summary.get(name, 0) for p in traced]
        out[name] = values[0] if is_count(name) else statistics.median(values)
    candidates = out["monads.em_candidates"]
    out["monads.em_isoclass_yield"] = out["monads.em_isoclasses"] / candidates if candidates else 0.0
    out["trace.overhead_s"] = (statistics.median(sum(p.scaled) for p in traced)
                               - statistics.median(sum(p.scaled) for p in untraced))
    return out


def write_spans(tracer, workload: str, seed: int):
    TRACE_DIR.mkdir(exist_ok=True)
    rows = [
        {"pass": index, "spans": [[s.name, s.start, s.end, s.parent, s.verdict, s.failed] for s in spans]}
        for index, spans in tracer.recorded
    ]
    with open(TRACE_DIR / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(rows, handle)


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak_rss_mb is per workload."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if not proc.stdout.strip():
            return proc.returncode or 2
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in results[workload]["metrics"].items():
            print(f"{workload:14s} {name:46s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    divalg = load_program()
    import workloads
    from tracing import Tracer

    cases = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if args.trace:
        # untraced and traced passes alternate so that both see the same host
        # load; traced passes alternate seeds to show counts are seed-invariant
        companion = args.seed + 1
        tracer = Tracer(divalg)
        passes = measure([
            (args.seed, cases, None),
            (args.seed, cases, tracer),
            (args.seed, cases, None),
            (companion, workloads.build(args.workload, companion), tracer),
        ], args.seconds)
        write_spans(tracer, args.workload, args.seed)
        metrics = per_layer([p for p in passes if not p.summary], [p for p in passes if p.summary])
        units = PER_LAYER
    else:
        setup = setup_seconds(args.workload, args.seed)
        passes = measure([(args.seed, cases, None)], args.seconds)
        metrics = end_to_end(passes, setup)
        units = END_TO_END

    tally = sum((p.tally for p in passes), Counter())
    errors = consistency_errors(passes)
    for message in sorted({m for p in passes for m in p.wrong}) + errors:
        print(f"bench: {message}", file=sys.stderr)
    for seed in sorted({p.seed for p in passes if p.digest}):
        digest = next(p.digest for p in passes if p.seed == seed)
        print(f"stdout sha256 {args.workload} seed {seed}: {digest}")
    print(f"host: median pass {statistics.median(p.wall for p in passes):.3f} s measured, "
          f"reference slices at {statistics.median(p.slowdown for p in passes):.2f}x their nominal time")
    correct = tally["wrong"] == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": sum(tally.values()),
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
