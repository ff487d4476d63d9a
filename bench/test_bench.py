"""Tests of the benchmark itself: oracle, span arithmetic, generated rings, result line.

    python3 -m pytest bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import divalg  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------------- oracle

def test_stirling_and_partition_counts():
    assert [oracle.stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert oracle.stirling2(0, 0) == 1
    # Bell numbers when the block cap is not binding
    assert [oracle.partitions_at_most(n, n) for n in range(5)] == [1, 1, 2, 5, 15]
    assert oracle.partitions_at_most(3, 2) == 4


@pytest.mark.parametrize("bound", [4, 6, 8])
def test_exception_isoclass_counts_by_hand(bound):
    assert oracle.em_verdict("exception", 1, bound)["isoclass_count"] == bound
    assert oracle.em_verdict("exception", 2, bound)["isoclass_count"] == 2 * bound - 1
    assert oracle.em_verdict("exception", 3, bound)["isoclass_count"] == 1 + 4 + 5 * (bound - 2)
    assert oracle.em_verdict("exception", 0, bound)["isoclass_count"] == bound + 1


def test_exception_verdicts_by_hand():
    maybe = oracle.em_verdict("exception", 1, 3)
    assert maybe["trivial"] and maybe["counterexample_carrier"] is None
    assert maybe["witnesses"] == {1: 0, 2: 1, 3: 2}
    two = oracle.em_verdict("exception", 2, 4)
    assert not two["trivial"] and two["counterexample_carrier"] == 1
    assert two["witnesses"] == {2: 0, 3: 1, 4: 2}


def test_freevec2_verdicts_by_hand():
    assert oracle.em_verdict("freevec2", 0, 3)["witnesses"] == {1: 0, 2: 1}
    four = oracle.em_verdict("freevec2", 0, 4)
    assert four["isoclass_count"] == 3 and four["trivial"]
    assert four["witnesses"] == {1: 0, 2: 1, 4: 2}
    assert oracle.freevec2_very_strong_witness(2) == (0, 0, 0, 1)


def test_module_freeness_by_hand():
    # exception(2) modules Y + S -> Y written as action tables over Y then S
    assert oracle.module_is_free(2, 2, (0, 1, 0, 1))
    assert not oracle.module_is_free(2, 2, (0, 1, 0, 0))
    assert not oracle.module_is_free(2, 1, (0, 0, 0))
    assert oracle.strength_algebra(2) == (2, (0, 1, 0, 1), ())


def test_fusion_verdicts_by_hand():
    factors = ("fib", "ising", "vec_cyclic(3)")
    assert oracle.object_verdict("simple", factors=factors, parts=("1", "eps", "g2")) == (True, True)
    assert oracle.object_verdict("simple", factors=factors, parts=("tau", "1", "g0")) == (True, False)
    assert oracle.object_verdict("simple", factors=factors, parts=("1", "sigma", "g0")) == (True, False)
    assert oracle.object_verdict("composite") == (False, False)
    assert oracle.object_verdict("permutation", n=3) == (False, True)
    assert oracle.object_verdict("partial_unit", n=3) == (False, False)
    assert oracle.object_verdict("matrix", n=1) == (True, True)
    assert oracle.object_verdict("matrix", n=2) == (True, False)


def test_oracle_tensor_on_fibonacci():
    fusion = np.zeros((2, 2, 2), dtype=np.int64)
    fusion[0, 0, 0] = fusion[0, 1, 1] = fusion[1, 0, 1] = fusion[1, 1, 0] = fusion[1, 1, 1] = 1
    assert list(oracle.tensor(fusion, [0, 1], [0, 1])) == [1, 1]
    assert list(oracle.tensor(fusion, [1, 1], [0, 2])) == [2, 4]


def test_catalog_ranks():
    assert [oracle.catalog_rank(n) for n in ("fib", "rep_s3", "vec_cyclic(7)", "matrix_multifusion(3)")] \
        == [2, 3, 7, 9]
    assert len(oracle.CATALOG_NAMES) == 18


# ----------------------------------------------------------- span arithmetic

def test_self_time_subtracts_union_of_children():
    S = tracing.Span
    spans = [
        S("cli.run", 0.0, 10.0, None, 0, False),
        S("rings.validate_ring", 1.0, 3.0, 0, 0, False),
        S("rings.tensor", 1.5, 2.5, 1, 0, False),
        S("rings.tensor", 2.0, 5.0, 0, 0, False),  # overlaps its sibling: counted once
        S("nimreps.act", 8.0, 12.0, 0, 0, True),  # clipped to the parent's interval
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 3.0, 4.0])
    summary = tracing.summarise(spans, {"monads.em_candidates": 7}, {"rings.validate_ring": 2**21})
    assert summary["rings.tensor.calls"] == 2
    assert summary["rings.tensor.self_s"] == pytest.approx(4.0)
    assert summary["rings.self_s"] == pytest.approx(5.0)
    assert summary["nimreps.act.errors"] == 1
    assert summary["monads.em_candidates"] == 7
    assert summary["rings.validate_ring.peak_mb"] == 2.0


def test_tracer_counts_and_restores():
    originals = (divalg.rings.validate_ring, divalg.nimreps.classify_internal_end,
                 divalg.monads.FreeVectorF2.em_structure_candidates)
    tracer = tracing.Tracer(divalg)
    tracer.install()
    try:
        assert divalg.nimreps.classify_internal_end is divalg.rings.classify_internal_end
        assert divalg.classify_internal_end is not originals[1]
        workloads.cli_call(["monad", "check", "freevec2", "--max-size", "2"])()
        divalg.cross_check_internal_end(divalg.builtin_ring("fib"), [0, 1])
        summary = tracer.take(0)
    finally:
        tracer.uninstall()
    assert (divalg.rings.validate_ring, divalg.nimreps.classify_internal_end,
            divalg.monads.FreeVectorF2.em_structure_candidates) == originals
    assert summary["cli.run.calls"] == 1
    assert summary["monads.em_isoclasses"] == 2
    # carrier 1: one candidate; carrier 2: 2 ** (4 - 2) unit-compatible tables
    assert summary["monads.em_candidates"] == 5
    assert summary["rings.classify_internal_end.calls"] == 1
    assert summary["nimreps.cross_check_internal_end.calls"] == 1


# ------------------------------------------------------- host-speed scaling

def test_scale_uses_the_slices_around_each_duration():
    n = reference.NOMINAL_S
    # slices before durations 0 and 2 and after the last: 1x, 2x and 4x nominal
    scaled = reference.scale([1.0, 2.0, 3.0], {0: n, 2: 2 * n, 3: 4 * n})
    assert scaled == pytest.approx([1.0 / 1.5, 2.0 / 1.5, 3.0 / 3.0])
    assert reference.scale([0.5], {0: n, 1: n}) == pytest.approx([0.5])


def test_reference_slice_is_fixed_work():
    assert reference._tuples() == 240
    assert json.loads(reference._parser())["payload"]["side"] == "right"
    assert reference._arrays() == reference._arrays()
    assert reference.run() > 0


# ---------------------------------------------------------- generated inputs

def test_generated_rings_are_valid_with_expected_rank():
    ranks = {name: ring.rank for name, ring, _, _ in workloads.fusion_rings(random.Random(3))}
    assert list(ranks.values()) == [8, 9, 36, 48, 64, 25]
    for name, ring, _, _ in workloads.fusion_rings(random.Random(4)):
        assert divalg.validate_ring(ring).passed, name


def test_seed_changes_order_not_amount():
    for name, build in workloads.WORKLOADS.items():
        one, two = build(random.Random(1)), build(random.Random(2))
        assert len(one) == len(two), name
        assert [c.name for c in one] != [c.name for c in two], name


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # fusion-ladder stays runnable by hand but is not listed (README.md)
    assert [w["name"] for w in spec["workloads"]] == ["em-ladder", "module-route", "cli-sweep"]
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


# ------------------------------------------------------------- result line

def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_stdout_digest_repeats_across_runs():
    outputs = [bench("--workload", "cli-sweep", "--seed", "5", "--seconds", "0.1") for _ in range(2)]
    digests = [[line for line in p.stdout.splitlines() if line.startswith("stdout sha256")] for p in outputs]
    assert digests[0] == digests[1] and len(digests[0]) == 1
    line = result(outputs[0])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 319
    assert line["metrics"]["decided_share"]["value"] == 1.0


def test_traced_run_reports_every_layer_metric():
    line = result(bench("--workload", "module-route", "--seed", "2", "--seconds", "0.1", "--trace", "1"))
    assert line["correct"]
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["monads.check_strength.errors"] == 1
    assert metrics["monads.module_isoclasses"] == 8 + 7 + 13 + 25
    assert metrics["rings.validate_ring.calls"] == 0
    assert max(("monads", "rings", "nimreps", "catalog", "cli"),
               key=lambda layer: metrics[f"{layer}.self_s"]) == "monads"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "em-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
