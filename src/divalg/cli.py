"""Command-line front end, file ingestion, and machine-readable reporting.

Exit codes: 0 a verdict was computed (whatever its polarity), 1 the input
data fails validation or a classifier precondition, 2 parse, structural or
usage errors, 3 a search or table budget was exceeded.  Reports are
deterministic: identical command lines and input files give byte-identical
stdout; timing goes to stderr.  Nothing reads the environment, so the
budget of a monad verb is its --budget alone.

Each command line is parsed once.  One that starts with a noun and one of
its verbs (`ring classify ...`) is parsed by that verb's parser alone; any
other (a leading --format or -h, an unknown noun or verb) by the whole
argparse tree, root to noun to verb.  Both give the same namespace; an
argument the verb does not know is reported with the verb's usage line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from . import catalog, monads, nimreps, rings
from .errors import BudgetExceededError, DecomposableModuleError, DivalgError, StructuralError

__all__ = ["RunReport", "export_report", "run", "main"]

EXIT_OK = 0
EXIT_INVALID_DATA = 1
EXIT_STRUCTURAL = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunReport:
    command: tuple[str, ...]
    inputs: dict
    payload: dict
    version: str

    def body(self) -> dict:
        return {
            "command": list(self.command),
            "inputs": self.inputs,
            "payload": self.payload,
            "version": self.version,
        }


def _markdown_cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


def _is_record_list(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(item, dict) for item in value)
        and len({tuple(sorted(item)) for item in value}) == 1
    )


def export_report(report: RunReport, format: str = "json") -> str:
    """Deterministic rendering; the JSON form round-trips."""
    body = report.body()
    if format == "json":
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
    if format == "markdown":
        payload = body["payload"]
        lines = [
            "# divalg report",
            "",
            f"command: `{' '.join(report.command)}`",
            "",
        ]
        scalar_keys = [k for k in sorted(payload) if not _is_record_list(payload[k])]
        if scalar_keys:
            lines += ["| key | value |", "| --- | --- |"]
            lines += [f"| {k} | {_markdown_cell(payload[k])} |" for k in scalar_keys]
            lines.append("")
        for key in sorted(payload):
            value = payload[key]
            if not _is_record_list(value):
                continue
            columns = sorted(value[0])
            lines.append(f"## {key}")
            lines.append("")
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("| " + " | ".join("---" for _ in columns) + " |")
            for item in value:
                lines.append("| " + " | ".join(_markdown_cell(item[c]) for c in columns) + " |")
            lines.append("")
        lines.append(f"version: {report.version}")
        return "\n".join(lines) + "\n"
    raise StructuralError(f"unknown report format {format!r}")


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _ring_digest(ring: rings.FusionRing) -> str:
    return _digest(json.dumps(ring.to_payload(), sort_keys=True).encode())


@functools.cache
def _builtin_digest(name: str) -> str:
    """The digest of a builtin ring, computed once per name and process: builtins never change."""
    return _ring_digest(catalog.builtin_ring(name))


def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw), _digest(raw)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise StructuralError(f"{path} is nested too deeply to parse") from None


def _resolve_ring(args) -> tuple[rings.FusionRing, dict, rings.ValidationReport]:
    """The ring, its inputs and its validation report.

    A builtin is read through `catalog.builtin_ring`; it passed validation when the catalog built it, so
    its report is the passing, empty one.  A ring file is validated here, once per command.
    """
    if args.builtin:
        if args.ring:
            raise StructuralError("give either --builtin or a ring file, not both")
        ring = catalog.builtin_ring(args.builtin)
        inputs = {"builtin": args.builtin, "ring": _builtin_digest(args.builtin)}
        return ring, inputs, rings.ValidationReport.from_violations(())
    if not args.ring:
        raise StructuralError("either --builtin or a ring file is required")
    payload, digest = _load_json(args.ring)
    ring = rings.FusionRing.from_payload(payload)
    return ring, {"ring_file": args.ring, "ring": digest}, rings.validate_ring(ring)


def _parse_object(text: str, labels: Sequence[str]) -> str | list[int]:
    # a label wins over a comma-separated vector of the same spelling
    if text in labels:
        return text
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise StructuralError(
            f"object {text!r} is neither a label nor a multiplicity vector"
        ) from None


def _classification_payload(ring: rings.FusionRing, report: rings.ClassificationReport) -> dict:
    payload = report.to_payload()
    payload["object_label"] = ring.describe(report.object_vector)
    if report.algebra_vector is not None:
        payload["algebra_label"] = ring.describe(report.algebra_vector)
    if report.inverse_witness is not None:
        payload["witness_label"] = ring.describe(report.inverse_witness)
    return payload


def _cmd_ring_validate(args) -> tuple[dict, dict, int]:
    ring, inputs, report = _resolve_ring(args)
    payload = report.to_payload()
    payload["labels"] = list(ring.labels)
    payload["rank"] = ring.rank
    return payload, inputs, EXIT_OK if report.passed else EXIT_INVALID_DATA


def _cmd_ring_classify(args) -> tuple[dict, dict, int]:
    ring, inputs, ring_report = _resolve_ring(args)
    if not ring_report.passed:
        return ring_report.to_payload(), inputs, EXIT_INVALID_DATA
    obj = ring.vector(_parse_object(args.object, ring.labels))
    report = rings.classify_internal_end(ring, obj, side=args.side)
    payload = _classification_payload(ring, report)
    if args.fpdim:
        payload["fp_dimension"] = rings.fp_dimension(ring, obj)
    return payload, inputs, EXIT_OK


def _resolve_nimrep(args, ring: rings.FusionRing) -> tuple[nimreps.NimRep, dict]:
    if args.regular:
        if args.nimrep:
            raise StructuralError("give either --nimrep FILE or --regular, not both")
        nr = nimreps.regular_nimrep(ring)
        return nr, {"nimrep": "regular"}
    if not args.nimrep:
        raise StructuralError("either --nimrep FILE or --regular is required")
    payload, digest = _load_json(args.nimrep)
    return nimreps.NimRep.from_payload(payload), {"nimrep_file": args.nimrep, "nimrep": digest}


def _cmd_nimrep_validate(args) -> tuple[dict, dict, int]:
    ring, inputs, ring_report = _resolve_ring(args)
    if not ring_report.passed:
        return ring_report.to_payload(), inputs, EXIT_INVALID_DATA
    nr, nim_inputs = _resolve_nimrep(args, ring)
    inputs.update(nim_inputs)
    report = nimreps.validate_nimrep(ring, nr, check_dual=args.check_dual)
    payload = report.to_payload()
    payload["module_labels"] = list(nr.module_labels)
    return payload, inputs, EXIT_OK if report.passed else EXIT_INVALID_DATA


def _cmd_nimrep_classify(args) -> tuple[dict, dict, int]:
    ring, inputs, ring_report = _resolve_ring(args)
    if not ring_report.passed:
        return ring_report.to_payload(), inputs, EXIT_INVALID_DATA
    nr, nim_inputs = _resolve_nimrep(args, ring)
    inputs.update(nim_inputs)
    # the regular NIM-rep's two laws are the ring's unit_left and associativity checks, already passed
    if not args.regular:
        nim_report = nimreps.validate_nimrep(ring, nr)
        if not nim_report.passed:
            return nim_report.to_payload(), inputs, EXIT_INVALID_DATA
    mv = nr.vector(_parse_object(args.object, nr.module_labels))
    report = nimreps.classify_internal_end_nimrep(ring, nr, mv)
    payload = report.to_payload()
    payload["module_labels"] = list(nr.module_labels)
    return payload, inputs, EXIT_OK


def _cmd_catalog_list(args) -> tuple[dict, dict, int]:
    listing = [
        {"name": entry.name, "rank": entry.ring.rank, "note": entry.note}
        for entry in catalog.entries()
    ]
    return {"entries": listing}, {}, EXIT_OK


def _cmd_catalog_export(args) -> tuple[Optional[dict], dict, int]:
    ring = catalog.builtin_ring(args.name)
    text = json.dumps(ring.to_payload(), sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise StructuralError(f"cannot write {args.out}: {exc}") from None
        return {"written": args.out, "ring": _builtin_digest(args.name)}, {"builtin": args.name}, EXIT_OK
    sys.stdout.write(text)
    return None, {}, EXIT_OK


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _cmd_monad_check(args) -> tuple[dict, dict, int]:
    monad = monads.builtin_monad(args.name, marks=args.marks)
    laws = monads.validate_monad(monad, args.max_size, budget=args.budget)
    if not laws.passed:
        return laws.to_payload(), {"monad": monad.name}, EXIT_INVALID_DATA
    verdict = monads.check_adjunction_trivial(monad, args.max_size, budget=args.budget)
    payload = verdict.to_payload()
    payload["laws_passed"] = True
    return payload, {"monad": monad.name}, EXIT_OK


def _cmd_monad_strength(args) -> tuple[dict, dict, int]:
    monad = monads.builtin_monad(args.name, marks=args.marks)
    report = monads.check_strength(monad, args.max_size, budget=args.budget)
    very = monads.is_very_strong(monad, args.max_size)
    algebra = monads.algebra_from_strength(monad)
    payload = {
        "monad": monad.name,
        "max_size": args.max_size,
        "strength": report.to_payload(),
        "very_strong": very.to_payload(),
        "unit_algebra": algebra.to_payload(),
    }
    return payload, {"monad": monad.name}, EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree (root, noun, verb), built on first use and shared by every `run` in the process.

    It is the one declaration of every verb, option and default.  `_verb_parsers` reads its verb parsers
    out of it, and its whole parse is the reference the verb parsers are tested against.
    """
    parser = argparse.ArgumentParser(
        prog="divalg",
        description="Division-algebra verdicts for fusion rings, NIM-reps, and finite monads.",
    )
    parser.add_argument("--format", choices=["json", "markdown"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    # the inputs of the ring and NIM-rep verbs, declared once: argparse parents share their Action objects,
    # so the monad verbs, whose --max-size defaults differ, declare theirs in a loop instead
    ring_input = argparse.ArgumentParser(add_help=False)
    ring_input.add_argument("--builtin", help="builtin ring name")
    ring_input.add_argument("--ring", help="ring JSON file")
    nimrep_input = argparse.ArgumentParser(add_help=False, parents=[ring_input])
    nimrep_input.add_argument("--nimrep", help="NIM-rep JSON file")
    nimrep_input.add_argument("--regular", action="store_true", help="use the ring acting on itself")

    ring = sub.add_parser("ring", help="fusion ring operations")
    ring_sub = ring.add_subparsers(dest="subcommand", required=True)
    rv = ring_sub.add_parser("validate", help="check the ring axioms")
    rv.add_argument("ring", nargs="?", metavar="source", help="ring JSON file")
    rv.add_argument("--builtin", help="builtin ring name")
    rv.set_defaults(func=_cmd_ring_validate)
    rc = ring_sub.add_parser("classify", parents=[ring_input], help="division-algebra verdicts for an object")
    rc.add_argument("--object", required=True, help="label or comma-separated vector")
    rc.add_argument("--side", choices=["left", "right"], default="left")
    rc.add_argument("--fpdim", action="store_true", help="include the Perron dimension")
    rc.set_defaults(func=_cmd_ring_classify)

    nim = sub.add_parser("nimrep", help="based-module operations")
    nim_sub = nim.add_subparsers(dest="subcommand", required=True)
    nv = nim_sub.add_parser("validate", parents=[nimrep_input], help="check the based-module axioms")
    nv.add_argument("--check-dual", action="store_true")
    nv.set_defaults(func=_cmd_nimrep_validate)
    nc = nim_sub.add_parser("classify", parents=[nimrep_input], help="classify the internal End of a module object")
    nc.add_argument("--object", required=True, help="module label or comma-separated vector")
    nc.set_defaults(func=_cmd_nimrep_classify)

    cat = sub.add_parser("catalog", help="builtin fixture rings")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    cl = cat_sub.add_parser("list", help="names and ranks of all builtins")
    cl.set_defaults(func=_cmd_catalog_list)
    ce = cat_sub.add_parser("export", help="write a builtin ring in the ring JSON format")
    ce.add_argument("--name", required=True)
    ce.add_argument("--out", help="output path; stdout when omitted")
    ce.set_defaults(func=_cmd_catalog_export)

    mon = sub.add_parser("monad", help="finite monad verdicts")
    budget_help = (
        "cap held by each count on its own: table entries, points evaluated, orbit members, "
        "search leaves (default: %(default)s)"
    )
    mon_sub = mon.add_subparsers(dest="subcommand", required=True)
    for verb, help_text, max_size, func in (
        ("check", "monad laws plus the adjunction-triviality verdict", 4, _cmd_monad_check),
        ("strength", "left-strength axioms and the induced algebra", 3, _cmd_monad_strength),
    ):
        mv = mon_sub.add_parser(verb, help=help_text)
        mv.add_argument("name", choices=list(monads.BUILTIN_MONADS))
        mv.add_argument("--marks", type=int, help="mark count for the exception monad")
        mv.add_argument("--max-size", type=_nonnegative, default=max_size, dest="max_size")
        mv.add_argument("--budget", type=_nonnegative, default=monads.DEFAULT_BUDGET, help=budget_help)
        mv.set_defaults(func=func)

    return parser


def _subcommands(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))


@functools.cache
def _verb_parsers() -> dict[tuple[str, str], tuple[argparse.ArgumentParser, dict]]:
    """Each (noun, verb) of the tree mapped to its verb's parser and the namespace the levels above it set.

    That namespace is the root's defaults plus the noun and verb under the tree's two subcommand dests,
    as the whole parse leaves them before the verb parser reads its own arguments.
    """
    root = _build_parser()
    defaults = {
        action.dest: action.default
        for action in root._actions
        if argparse.SUPPRESS not in (action.dest, action.default)
    }
    nouns = _subcommands(root)
    table = {}
    for noun, noun_parser in nouns.choices.items():
        verbs = _subcommands(noun_parser)
        for verb, verb_parser in verbs.choices.items():
            table[noun, verb] = verb_parser, {**defaults, nouns.dest: noun, verbs.dest: verb}
    return table


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of a command line; SystemExit, as argparse raises it, for help or a usage error.

    A command line that starts with a noun and one of its verbs is parsed once, by that verb's parser;
    the whole tree would run a parse at each of its three levels over the same tokens.  Any other
    command line (a leading option such as --format or -h, an unknown noun or verb) takes the whole
    tree's parse, the only one that reads a root option or reports an unknown noun or verb.
    """
    entry = _verb_parsers().get(tuple(argv[:2]))
    if entry is None:
        return _build_parser().parse_args(argv)
    parser, above = entry
    return parser.parse_args(argv[2:], argparse.Namespace(**above))


def run(argv: Sequence[str]) -> int:
    """Dispatch a command line, parsed once by `_parse`; print the report to stdout; return the exit code."""
    try:
        args = _parse(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_STRUCTURAL

    started = time.perf_counter()
    try:
        payload, inputs, code = args.func(args)
    except BudgetExceededError as exc:
        print(f"divalg: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DecomposableModuleError as exc:
        print(f"divalg: unsuitable input data: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except DivalgError as exc:
        print(f"divalg: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    elapsed = time.perf_counter() - started

    if payload is not None:
        report = RunReport(command=tuple(argv), inputs=inputs, payload=payload, version=__version__)
        sys.stdout.write(export_report(report, format=args.format))
    print(f"elapsed_seconds={elapsed:.3f}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
