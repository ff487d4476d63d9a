"""The four benchmark workloads as seeded lists of verdict requests.

A workload is a list of `Case`s.  Each case makes one request to divalg and
carries the check that compares the answer with `oracle`.  The seed decides
basis relabelings, the object sample and the case order; it never changes
how many cases there are or what kind of work each one does.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import divalg
from divalg import cli, monads, nimreps, rings
from divalg.errors import BudgetExceededError, DivalgError

import oracle


class Wrong(Exception):
    """An answer that contradicts the oracle."""


@dataclass(frozen=True)
class Case:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # a documented precondition error that is the expected, decided answer
    expect_error: Optional[type] = None
    # CLI cases return (exit code, stdout)
    cli: bool = False


def expect(condition: bool, message: str):
    if not condition:
        raise Wrong(message)


def judge(case: Case, value, error: Optional[DivalgError]) -> tuple[str, Optional[str]]:
    """'decided', 'undecided' (budget exceeded), 'failed' (unexpected error) or 'wrong'."""
    if isinstance(error, BudgetExceededError) or (case.cli and value[0] == cli.EXIT_BUDGET):
        return "undecided", None
    if error is not None:
        if case.expect_error is not None and isinstance(error, case.expect_error):
            return "decided", None
        return "failed", f"{case.name}: {type(error).__name__}: {error}"
    if case.cli and value[0] == cli.EXIT_STRUCTURAL:
        return "failed", f"{case.name}: exit {value[0]}"
    try:
        case.check(value)
    except Wrong as exc:
        return "wrong", f"{case.name}: {exc}"
    return "decided", None


# ---------------------------------------------------------------- CLI calls

def cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return code, out.getvalue()

    return call


def cli_payload(value, code: int = 0) -> dict:
    got, stdout = value
    expect(got == code, f"exit code {got}, expected {code}")
    return json.loads(stdout)["payload"]


# ---------------------------------------------------------------- em-ladder

EM_LADDER = (
    [("maybe", 1, b) for b in (6, 7, 8)]
    + [("exception", 2, b) for b in (5, 6, 7)]
    + [("exception", 3, b) for b in (4, 5, 6)]
    + [("freevec2", 0, b) for b in (3, 4)]
)


def _em_check(family: str, marks: int, bound: int):
    want = oracle.em_verdict(family, marks, bound)

    def check(value):
        payload = cli_payload(value)
        expect(payload["laws_passed"] is True, "monad laws not passed")
        expect(payload["isoclass_count"] == want["isoclass_count"],
               f"isoclass_count {payload['isoclass_count']} != {want['isoclass_count']}")
        expect(payload["applicable"] == want["applicable"], "applicable flag")
        expect(payload["trivial_up_to_bound"] == want["trivial"], "triviality verdict")
        counter = payload["counterexample"]
        expect((counter["carrier"] if counter else None) == want["counterexample_carrier"],
               f"counterexample {counter}")
        witnesses = {w["algebra"]["carrier"]: w["generator_size"] for w in payload["free_witnesses"]}
        expect(witnesses == want["witnesses"], f"free witnesses {witnesses}")

    return check


def em_ladder(rng: random.Random) -> list[Case]:
    cases = []
    for family, marks, bound in EM_LADDER:
        argv = ["monad", "check", family]
        if family == "exception":
            argv += ["--marks", str(marks)]
        argv += ["--max-size", str(bound)]
        cases.append(Case(" ".join(argv), cli_call(argv), _em_check(family, marks, bound), cli=True))
    rng.shuffle(cases)
    return cases


# ------------------------------------------------------------- module-route

MODULE_ROUTE = ((0, 7), (1, 7), (2, 7), (3, 6))  # (marks, bound)
STRENGTH_SIZE = 8
FREEVEC2_STRENGTH_SIZES = (2, 3)  # size 3 exceeds the table budget at the seed
COMPARISON = (("maybe", 1, 3), ("identity", 0, 3), ("exception", 2, 3), ("freevec2", 0, 2))


def _module_group(marks: int, bound: int, order_seed: float) -> list[Case]:
    monad = divalg.builtin_monad("exception", marks=marks)
    state: dict = {}
    tag = f"exception({marks})"

    def algebra():
        state["algebra"] = monads.algebra_from_strength(monad)
        return state["algebra"]

    def check_algebra(alg):
        want = oracle.strength_algebra(marks)
        expect((alg.carrier, alg.mult, alg.unit) == want, f"T(0) algebra {alg}")

    def modules():
        state["modules"] = monads.enumerate_modules(state["algebra"], bound)
        return state["modules"]

    def check_modules(found):
        per_carrier: dict[int, int] = {}
        for module in found:
            per_carrier[module.carrier] = per_carrier.get(module.carrier, 0) + 1
        want = oracle.exception_isoclasses(marks, bound)
        expect(per_carrier == want, f"module isoclasses {per_carrier} != {want}")

    def match_free():
        alg = state["algebra"]
        order = list(state["modules"])
        random.Random(order_seed).shuffle(order)
        out = []
        for module in order:
            iso = None
            if module.carrier >= marks:
                free = monads.free_module(alg, module.carrier - marks)
                iso = monads.module_isomorphic(alg, module, free)
            out.append((module, iso))
        return out

    def check_free(matches):
        for module, iso in matches:
            want = oracle.module_is_free(marks, module.carrier, module.action)
            expect((iso is not None) == want, f"module {module} free={iso is not None}")

    return [
        Case(f"algebra_from_strength({tag})", algebra, check_algebra),
        Case(f"enumerate_modules({tag}, {bound})", modules, check_modules),
        Case(f"module_isomorphic({tag}, free)", match_free, check_free),
    ]


def _passed(report):
    expect(report.passed, f"violations {report.violations[:3]}")


def _very_strong(verdict):
    expect(verdict.very_strong, f"not very strong: {verdict}")


def _freevec2_not_very_strong(size: int):
    def check(verdict):
        want = oracle.freevec2_very_strong_witness(size)
        got = (verdict.x_size, verdict.y_size, verdict.domain, verdict.codomain)
        expect(not verdict.very_strong and verdict.reason == "cardinality" and got == want,
               f"very-strength witness {verdict}")

    return check


def _fully_faithful(result):
    expect(result is True, "comparison functor not fully faithful")


def module_route(rng: random.Random) -> list[Case]:
    groups = [_module_group(marks, bound, rng.random()) for marks, bound in MODULE_ROUTE]
    for marks in range(4):
        monad = divalg.builtin_monad("exception", marks=marks)
        tag = f"exception({marks}), {STRENGTH_SIZE}"
        groups.append([Case(f"check_strength({tag})",
                            lambda m=monad: monads.check_strength(m, STRENGTH_SIZE), _passed)])
        groups.append([Case(f"is_very_strong({tag})",
                            lambda m=monad: monads.is_very_strong(m, STRENGTH_SIZE), _very_strong)])
    freevec2 = divalg.FreeVectorF2()
    for size in FREEVEC2_STRENGTH_SIZES:
        groups.append([Case(f"check_strength(freevec2, {size})",
                            lambda s=size: monads.check_strength(freevec2, s), _passed)])
    size = FREEVEC2_STRENGTH_SIZES[0]
    groups.append([Case(f"is_very_strong(freevec2, {size})",
                        lambda: monads.is_very_strong(freevec2, size), _freevec2_not_very_strong(size))])
    for family, marks, size in COMPARISON:
        monad = divalg.builtin_monad(family, marks=marks if family == "exception" else None)
        groups.append([Case(f"check_comparison_fully_faithful({monad.name}, {size})",
                            lambda m=monad, s=size: monads.check_comparison_fully_faithful(m, s),
                            _fully_faithful)])
    rng.shuffle(groups)
    return [case for group in groups for case in group]


# ------------------------------------------------------------ fusion-ladder

FUSION_LADDER = (
    ("fib",) * 3,
    ("ising", "rep_s3"),
    ("rep_s3", "vec_cyclic(12)"),
    ("vec_cyclic(4)", "vec_cyclic(12)"),
    ("fib",) * 6,
)
MATRIX_N = 5
COMPOSITES = 8  # seeded composite objects per ring
COMPOSITE_LENGTH = 3
# objects per ring classified through the regular NIM-rep: each call redoes the
# O(nonzeros) block search, which at rank 64 would take a third of the pass
NIMREP_SAMPLE = 12


def deligne_product(factors: tuple[str, ...]):
    """Basis label parts, unit, dual and fusion tensor of a Deligne product of catalog rings."""
    parts: list[tuple[str, ...]] = [()]
    unit = np.ones(1, dtype=np.int64)
    dual = [0]
    fusion = np.ones((1, 1, 1), dtype=np.int64)
    for name in factors:
        ring = divalg.builtin_ring(name)
        n, r = fusion.shape[0], ring.rank
        fusion = np.einsum("abc,ijk->aibjck", fusion, ring.fusion).reshape(n * r, n * r, n * r)
        unit = np.kron(unit, ring.unit)
        dual = [d * r + ring.dual[i] for d in dual for i in range(r)]
        parts = [p + (label,) for p in parts for label in ring.labels]
    return parts, unit, dual, fusion


def matrix_ring(n: int):
    """Label parts, unit, dual and fusion tensor of the n x n matrix-unit ring."""
    rank = n * n
    fusion = np.zeros((rank, rank, rank), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for d in range(n):
                fusion[a * n + b, b * n + d, a * n + d] = 1
    unit = np.zeros(rank, dtype=np.int64)
    unit[[a * n + a for a in range(n)]] = 1
    dual = [b * n + a for a in range(n) for b in range(n)]
    parts = [(f"e{a + 1}{b + 1}",) for a in range(n) for b in range(n)]
    return parts, unit, dual, fusion


def relabeled_ring(parts, unit, dual, fusion, perm) -> tuple[rings.FusionRing, list]:
    """The ring with new basis position q holding old basis element perm[q]."""
    inverse = np.argsort(perm)
    ring = rings.FusionRing(
        labels=tuple("|".join(parts[p]) for p in perm),
        unit=unit[perm],
        dual=tuple(int(inverse[dual[p]]) for p in perm),
        fusion=fusion[np.ix_(perm, perm, perm)],
    )
    return ring, [parts[p] for p in perm]


def _witness_ok(ring: rings.FusionRing, x, witness, side: str) -> bool:
    """y (x) x = 1 for a left witness y, x (x) y = 1 for a right one."""
    left, right = (witness, x) if side == "left" else (x, witness)
    return [int(v) for v in oracle.tensor(ring.fusion, left, right)] == [int(v) for v in ring.unit]


def _object_cases(ring, nr_name, x, kind, facts, matrix, via_nimrep) -> list[Case]:
    simplistic, essential = oracle.object_verdict(kind, **facts)
    tag = f"{nr_name}:{','.join(str(int(v)) for v in x)}"

    def classify_check(side):
        def check(report):
            expect(report.simplistic == simplistic and report.essential == essential,
                   f"{side} verdict ({report.simplistic}, {report.essential}) != ({simplistic}, {essential})")
            if essential:
                expect(_witness_ok(ring, x, report.inverse_witness, side), "bad inverse witness")

        return check

    def inverse_check(side):
        def check(witness):
            expect((witness is not None) == essential, f"{side} invertibility")
            if witness is not None:
                expect(_witness_ok(ring, x, witness, side), "bad inverse witness")

        return check

    def agree(result):
        expect(result is True, "classifiers disagree")

    def nimrep_classify():
        return nimreps.classify_internal_end_nimrep(ring, nimreps.regular_nimrep(ring), x)

    def nimrep_check(report):
        expect(not matrix, "decomposable regular NIM-rep was classified")
        expect(report.simplistic == simplistic and report.essential == essential, "NIM-rep verdict")

    cases = [
        Case(f"classify left {tag}", lambda: rings.classify_internal_end(ring, x, side="left"),
             classify_check("left")),
        Case(f"classify right {tag}", lambda: rings.classify_internal_end(ring, x, side="right"),
             classify_check("right")),
        Case(f"is_left_invertible {tag}", lambda: rings.is_left_invertible(ring, x), inverse_check("left")),
        Case(f"is_right_invertible {tag}", lambda: rings.is_right_invertible(ring, x), inverse_check("right")),
        Case(f"cross_check {tag}", lambda: nimreps.cross_check_internal_end(ring, x), agree),
    ]
    if via_nimrep:
        cases.append(Case(f"classify_nimrep {tag}", nimrep_classify, nimrep_check,
                          expect_error=divalg.DecomposableModuleError if matrix else None))
    return cases


def _ring_cases(ring, name) -> list[Case]:
    return [
        Case(f"validate_ring {name}", lambda: rings.validate_ring(ring), _passed),
        Case(f"validate_nimrep {name}",
             lambda: nimreps.validate_nimrep(ring, nimreps.regular_nimrep(ring), check_dual=True), _passed),
    ]


def fusion_rings(rng: random.Random):
    """(name, ring, basis label parts, factors) for the ladder, each basis permuted."""
    out = []
    for factors in FUSION_LADDER:
        parts, unit, dual, fusion = deligne_product(factors)
        perm = list(range(len(parts)))
        rng.shuffle(perm)
        ring, parts = relabeled_ring(parts, unit, dual, fusion, perm)
        out.append(("⊠".join(factors), ring, parts, factors))
    parts, unit, dual, fusion = matrix_ring(MATRIX_N)
    perm = list(range(len(parts)))
    rng.shuffle(perm)
    ring, parts = relabeled_ring(parts, unit, dual, fusion, perm)
    out.append((f"matrix_multifusion({MATRIX_N})", ring, parts, None))
    return out


def fusion_ladder(rng: random.Random) -> list[Case]:
    cases = []
    for name, ring, parts, factors in fusion_rings(rng):
        cases += _ring_cases(ring, name)
        rank = ring.rank
        objects = []
        for q in range(rank):
            x = ring.basis(q)
            if factors is None:
                objects.append((x, "matrix", {"n": MATRIX_N}))
            else:
                objects.append((x, "simple", {"factors": factors, "parts": parts[q]}))
        if factors is None:
            index = {p[0]: q for q, p in enumerate(parts)}
            for _ in range(COMPOSITES // 2):
                sigma = list(range(MATRIX_N))
                rng.shuffle(sigma)
                x = np.zeros(rank, dtype=np.int64)
                x[[index[f"e{a + 1}{sigma[a] + 1}"] for a in range(MATRIX_N)]] = 1
                objects.append((x, "permutation", {"n": MATRIX_N}))
            for _ in range(COMPOSITES - COMPOSITES // 2):
                block = rng.sample(range(MATRIX_N), MATRIX_N - 2)
                x = np.zeros(rank, dtype=np.int64)
                x[[index[f"e{a + 1}{a + 1}"] for a in block]] = 1
                objects.append((x, "partial_unit", {"n": MATRIX_N}))
        else:
            for _ in range(COMPOSITES):
                x = np.zeros(rank, dtype=np.int64)
                for q in rng.choices(range(rank), k=COMPOSITE_LENGTH):
                    x[q] += 1
                objects.append((x, "composite", {}))
        sample = set(rng.sample(range(len(objects)), NIMREP_SAMPLE))
        for k, (x, kind, facts) in enumerate(objects):
            cases += _object_cases(ring, name, x, kind, facts, factors is None, k in sample)
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------- cli-sweep

def _classify_cli_check(ring, x, simplistic, essential, side):
    def check(value):
        payload = cli_payload(value)
        expect(payload["simplistic"] == simplistic and payload["essential"] == essential,
               f"verdict ({payload['simplistic']}, {payload['essential']})")
        if essential and side:
            expect(_witness_ok(ring, x, payload["witness"], side), "bad inverse witness")

    return check


def _nimrep_cli_check(value):
    code, stdout = value
    expect(code == cli.EXIT_INVALID_DATA and not stdout, f"decomposable NIM-rep gave exit {code}")


def _validate_cli_check(name):
    def check(value):
        payload = cli_payload(value)
        expect(payload["passed"] and payload["rank"] == oracle.catalog_rank(name), "ring validate")

    return check


def _catalog_list_check(value):
    listing = [(e["name"], e["rank"]) for e in cli_payload(value)["entries"]]
    want = [(name, oracle.catalog_rank(name)) for name in oracle.CATALOG_NAMES]
    expect(listing == want, "catalog list")


def cli_sweep(rng: random.Random) -> list[Case]:
    cases = [Case("catalog list", cli_call(["catalog", "list"]), _catalog_list_check, cli=True)]
    for name in oracle.CATALOG_NAMES:
        ring = divalg.builtin_ring(name)
        matrix = name.startswith("matrix_multifusion(")
        argv = ["ring", "validate", "--builtin", name]
        cases.append(Case(" ".join(argv), cli_call(argv), _validate_cli_check(name), cli=True))
        for q, label in enumerate(ring.labels):
            x = ring.basis(q)
            text = label if rng.random() < 0.5 else ",".join(str(int(v)) for v in x)
            if matrix:
                simplistic, essential = oracle.object_verdict("matrix", n=oracle.catalog_param(name))
            else:
                simplistic, essential = oracle.object_verdict("simple", factors=(name,), parts=(label,))
            for side in ("left", "right"):
                argv = ["ring", "classify", "--builtin", name, "--object", text, "--side", side]
                cases.append(Case(" ".join(argv), cli_call(argv),
                                  _classify_cli_check(ring, x, simplistic, essential, side), cli=True))
            argv = ["nimrep", "classify", "--builtin", name, "--regular", "--object", text]
            decomposable = matrix and ring.rank > 1
            check = _nimrep_cli_check if decomposable else _classify_cli_check(
                ring, x, simplistic, essential, None)
            cases.append(Case(" ".join(argv), cli_call(argv), check, cli=True))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "em-ladder": em_ladder,
    "module-route": module_route,
    "fusion-ladder": fusion_ladder,
    "cli-sweep": cli_sweep,
}


def build(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
