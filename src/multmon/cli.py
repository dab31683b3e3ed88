"""Command-line interface: every computation as a subcommand over parsed ideals.

Each run emits one structured JSON document (one per line in batch mode);
`--pretty` renders the same record for humans.  Field names are frozen in
docs/schema.md.  Errors map to exit codes: 0 success, 1 usage/parse error,
2 hypothesis violation, 3 unsupported, 4 resource cap, 5 internal
consistency failure.  One table of multiplicity routes (`METHODS`) drives
the `auto` choice, `--method` and `verify`.  Each route checks its own
hypotheses and raises `HypothesisError` outside them: `--method` exits 2 on
it, while `auto` and `verify` skip to the next route.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import __version__
from .core import MonomialIdeal, VariableTable, polar_sets
from .decomposition import multiplicity_recurrence
from .errors import (
    HypothesisError,
    InternalConsistencyError,
    MultmonError,
    ParseError,
    UsageError,
)
from .formulas import (
    detect_stem,
    e_aci,
    e_codim1,
    e_complete_intersection,
    e_quadratic_dominant,
    e_stem,
    e_structural,
    is_quadratic_dominant,
    reg_quadratic_dominant,
)
from .generate import random_ideal
from .invariants import classify, codim, is_dominant
from .oracle import multiplicity_associativity
from .parsing import parse_ideal_detailed
from .taylor import (
    TaylorResolution,
    face_levels,
    minimal_resolution,
    multiplicity_ps,
    regularity_dominant,
    taylor_resolution,
)

COMMANDS = (
    "multiplicity",
    "codim",
    "classify",
    "betti",
    "taylor",
    "diagram",
    "verify",
    "regularity",
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="multmon", description=__doc__)
    parser.add_argument("--version", action="version", version=f"multmon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # name -> its subparser, which `main` calls directly

    def add_common(p: _Parser) -> None:
        p.add_argument("--ideal", help="ideal text, e.g. \"a^2*b, b^3*c\"")
        p.add_argument("--file", help="batch file: one ideal per line, '#' comments")
        p.add_argument("--vars", help="explicit comma-separated variable order")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="structured output (default)")
        fmt.add_argument("--pretty", action="store_true", help="human-readable rendering")

    for name in COMMANDS:
        p = parser.commands[name] = sub.add_parser(name)
        add_common(p)
        if name == "multiplicity":
            p.add_argument("--method", choices=("auto", *METHODS), default="auto")
            p.add_argument(
                "--check",
                action="store_true",
                help="cross-check multiplicity with engine and oracle",
            )
        if name == "verify":
            p.add_argument("--random", action="store_true", help="verify seeded random ideals")
            p.add_argument("--seed", type=int, default=0, help="seed for --random")
            p.add_argument("--cases", type=int, default=100, help="case count for --random")
    return parser


# ---------------------------------------------------------------------------
# multiplicity methods


# Route name -> multiplicity, in the order `verify` reports them.  A route
# outside its hypotheses raises `HypothesisError`; no other check is made here.
# The rows look routes up by this module's names at call time, so replacing a
# name here (as tests and the benchmark's tracer do) reaches every use.
METHODS = {
    "ps": lambda i: multiplicity_ps(i),
    "oracle": lambda i: multiplicity_associativity(i),
    "codim1": lambda i: e_codim1(i),
    "ci": lambda i: e_complete_intersection(i),
    "stem": lambda i: e_stem(i),
    "aci": lambda i: e_aci(i),
    "structural": lambda i: e_structural(i),
    "quadratic": lambda i: e_quadratic_dominant(i),
    "recurrence": lambda i: multiplicity_recurrence(i),
}

# What `auto` tries, cheapest first; the ps engine answers every ideal within its caps.
AUTO_METHODS = ("codim1", "ci", "stem", "aci", "structural", "ps")


def _answers(ideal: MonomialIdeal, names: Iterable[str]) -> Iterator[tuple[str, int]]:
    """(name, multiplicity) of each named route whose hypotheses hold, in order."""
    for name in names:
        try:
            value = METHODS[name](ideal)
        except HypothesisError:
            continue
        yield name, value


# ---------------------------------------------------------------------------
# document assembly


def _classification_payload(ideal: MonomialIdeal, report) -> dict:
    names = ideal.ring.names
    return {
        "codim": report.codim,
        "codim1": report.is_codim1,
        "dominant": report.is_dominant,
        "dominant_witnesses": [None if w is None else names[w] for w in report.dominant_witness],
        "complete_intersection": report.is_ci,
        "aci_witness": None if report.aci_witness is None else str(ideal.gens[report.aci_witness]),
    }


class _Raw(tuple):
    """A result already rendered as JSON text: its string parts, written out in turn."""


def _betti_runs(resolution: TaylorResolution) -> Iterator[tuple[int, int, list[str]]]:
    """(hdeg, degree, labels) of the faces of each hdeg and degree, in entry order."""
    degrees, labels = resolution.degrees, resolution.labels
    for hdeg, masks in enumerate(face_levels(resolution.ideal.q)):
        faces = sorted(masks, key=degrees.__getitem__)  # labels are sorted only within a run
        for d, run in groupby(faces, degrees.__getitem__):
            yield hdeg, d, sorted(map(labels.__getitem__, run))


def _result_for(
    ideal: MonomialIdeal, args
) -> tuple[dict | _Raw | list[str], str | None, list[dict], bool | None]:
    """Result payload (lines to print for `betti`/`taylor --pretty`), method, checks, agreement."""
    command = args.command

    if command == "multiplicity":
        if args.method == "auto":
            method, value = next(_answers(ideal, AUTO_METHODS))
        else:
            method, value = args.method, METHODS[args.method](ideal)
        checks = [{"method": m, "value": value if m == method else METHODS[m](ideal)}
                  for m in ("ps", "oracle") if args.check]  # the chosen route is not run twice
        agreement = all(c["value"] == value for c in checks) if args.check else None
        return {"multiplicity": value}, method, checks, agreement

    if command == "codim":
        return {"codim": codim(ideal)}, "cover-search", [], None

    if command == "classify":
        structure = detect_stem(ideal)
        result = {
            "stem": None
            if structure is None
            else {
                "stems": [str(s) for s in structure.stems],
                "blocks": [[str(ideal.gens[i]) for i in block] for block in structure.blocks],
            },
            "quadratic_dominant": is_quadratic_dominant(ideal),
            # minimal exactly when dominant: a witness enters a face's lcm only with its generator
            "taylor_minimal": is_dominant(ideal),
        }
        return result, "classification", [], None

    # Labels go into JSON text unescaped: a `VariableTable` holds only `core.VAR_NAME` tokens,
    # and exponents are digits.
    if command == "betti":
        resolution = minimal_resolution(ideal)
        ranks = list(resolution.ranks())
        if args.pretty:
            entries = (f"  {h:>3}  {m:<24} 1" for h, _, run in _betti_runs(resolution) for m in run)
            return ["betti entries (hdeg, mdeg, count):", *entries, f"ranks: {ranks}"], "taylor", [], None
        parts, graded = ['{"entries": ['], []
        for hdeg, d, run in _betti_runs(resolution):  # one text per (hdeg, degree)
            head, tail = f'{{"hdeg": {hdeg}, "mdeg": "', f'", "degree": {d}, "count": 1}}'
            parts += [", " if graded else "", head, f"{tail}, {head}".join(run), tail]
            graded.append(f'{{"hdeg": {hdeg}, "degree": {d}, "count": {len(run)}}}')
        parts.append(f'], "graded": [{", ".join(graded)}], "ranks": {json.dumps(ranks)}}}')
        return _Raw(parts), "taylor", [], None

    if command == "taylor":
        resolution = taylor_resolution(ideal)
        degrees, labels = resolution.degrees, resolution.labels
        ranks, levels = list(resolution.ranks()), face_levels(ideal.q)
        levels = enumerate(zip(levels, face_levels(ideal.q, members=True)))
        if args.pretty:
            faces = (f"  {f'[{t}]':<16} {h:>3}  {labels[m]}"
                     for h, (masks, members) in levels for m, t in zip(masks, members))
            return [f"ranks: {ranks}", "faces (members, hdeg, mdeg):", *faces], "taylor", [], None
        tails = {d: f'", "degree": {d}}}' for d in set(degrees)}
        parts = [f'{{"ranks": {json.dumps(ranks)}, "faces": [']
        for hdeg, (masks, members) in levels:  # one join per hdeg: no Python code runs per face
            pick = itemgetter(*masks, 0)  # a tuple even for one face; the extra 0 is dropped
            row = [', {"members": [', "", f'], "hdeg": {hdeg}, "mdeg": "', "", ""] * len(masks)
            row[1::5], row[3::5] = members, pick(labels)[:-1]
            row[4::5] = map(tails.__getitem__, pick(degrees)[:-1])
            row[0] = row[0] if hdeg else row[0][2:]  # the first face has no comma
            parts.append("".join(row))
        return _Raw([*parts, "]}"]), "taylor", [], None

    if command == "diagram":
        names = ideal.ring.names
        sets = []
        for g, labels in zip(ideal.gens, polar_sets(ideal)):
            rendered = [
                {"var": names[v], "slot": s} for v, s in sorted(labels)
            ]
            sets.append({"generator": str(g), "labels": rendered})
        return {"sets": sets}, "polarization", [], None

    if command == "regularity":
        if not is_quadratic_dominant(ideal):
            return {"regularity": regularity_dominant(ideal)}, "taylor", [], None
        value, taylor_value = reg_quadratic_dominant(ideal), regularity_dominant(ideal)
        checks = [{"method": "taylor", "value": taylor_value}]
        return {"regularity": value}, "quadratic", checks, taylor_value == value

    # argparse admits only `COMMANDS`, so the one left is "verify"
    values = dict(_answers(ideal, METHODS))
    agreement = len(set(values.values())) == 1
    checks = [{"method": m, "value": v} for m, v in values.items()]
    result = {"multiplicity": values["ps"] if agreement else None, "methods": values}
    return result, "consensus", checks, agreement


def _execute(text: str, args, names: list[str] | None) -> tuple[dict, int]:
    """Run one command over one ideal text in the `--vars` order; returns (document, exit code)."""
    started = time.perf_counter()
    parsed = parse_ideal_detailed(text, names)
    ideal = parsed.ideal
    report = classify(ideal)
    result, method, checks, agreement = _result_for(ideal, args)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    document = {
        "command": args.command,
        "input": {
            "text": text,
            "vars": list(ideal.ring.names),
            "ideal": str(ideal),
            "notices": list(parsed.notices),
        },
        "classification": _classification_payload(ideal, report),
        "result": result,
        "method": method,
        "checks": checks,
        "agreement": agreement,
        "timing_ms": round(elapsed_ms, 3),
    }
    code = 0 if agreement in (None, True) else InternalConsistencyError.exit_code
    return document, code


def _var_list(args) -> list[str] | None:
    if not args.vars:
        return None
    names = [name.strip() for name in args.vars.split(",")]
    try:
        VariableTable(tuple(names))
    except ValueError as exc:  # the table's first fault: a repeated name, or a non-token one
        fault = "entries must be distinct" if str(exc).startswith("duplicate") else f"entry {exc}"
        raise UsageError(f"--vars {fault}") from None
    return names


# ---------------------------------------------------------------------------
# rendering


def _emit(document: dict, args) -> None:
    if getattr(args, "pretty", False):
        sys.stdout.write(_render_pretty(document) + "\n")
    elif isinstance(document.get("result"), _Raw):
        # key by key and part by part: joining a multi-MB result text would copy it
        sys.stdout.write("{")
        for n, (key, value) in enumerate(document.items()):
            sys.stdout.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            sys.stdout.writelines(value if isinstance(value, _Raw) else [json.dumps(value)])
        sys.stdout.write("}\n")
    else:
        sys.stdout.write(json.dumps(document) + "\n")


def _render_pretty(document: dict) -> str:
    lines = []
    command = document.get("command", "?")
    if "error" in document:
        err = document["error"]
        return f"{command}: error [{err['code']}] {err['message']}"
    if document.get("mode") == "random":
        lines.append(
            f"random verification: seed={document['seed']} cases={document['cases']}"
        )
        for failure in document["failures"]:
            lines.append(f"  disagreement on {failure['ideal']}: {failure['methods']}")
        lines.append(f"agreement: {document['agreement']}")
        return "\n".join(lines)
    cls = document["classification"]
    lines.append(f"ideal: {document['input']['ideal']}")
    for notice in document["input"]["notices"]:
        lines.append(f"note: {notice}")
    lines.append(
        "classification: codim={codim} dominant={dominant} ci={complete_intersection}".format(**cls)
    )
    result = document["result"]
    if isinstance(result, list):  # betti and taylor render their own lines for --pretty
        lines += result
    elif command == "multiplicity":
        lines.append(f"multiplicity = {result['multiplicity']}  (method: {document['method']})")
    elif command == "codim":
        lines.append(f"codim = {result['codim']}")
    elif command == "regularity":
        lines.append(f"regularity = {result['regularity']}  (method: {document['method']})")
    elif command == "classify":
        stem = result["stem"]
        lines.append(f"stem ideal: {'no' if stem is None else 'yes, stems ' + ', '.join(stem['stems'])}")
        lines.append(f"quadratic dominant: {result['quadratic_dominant']}")
        lines.append(f"taylor resolution minimal: {result['taylor_minimal']}")
    elif command == "diagram":
        for entry in result["sets"]:
            labels = ", ".join(f"{l['var']}_{l['slot']}" for l in entry["labels"])
            lines.append(f"A({entry['generator']}) = {{{labels}}}")
    check_line = "  {method:<12} {value}" if command == "verify" else "check {method}: {value}"
    lines += (check_line.format(**check) for check in document["checks"])
    if document["agreement"] is not None:
        lines.append(f"agreement: {document['agreement']}")
    lines.append(f"time: {document['timing_ms']} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# drivers


def _error_document(command: str, text: str | None, exc: Exception, exit_code: int) -> dict:
    payload = {"code": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    if isinstance(exc, ParseError):
        payload["code"] = exc.code
        payload["line"] = exc.line
        payload["column"] = exc.column
    doc = {"command": command, "error": payload}
    if text is not None:
        doc["input"] = {"text": text}
    return doc


def _exit_code(exc: Exception) -> int:
    """A multmon error's own exit code; any other exception is a bug: its traceback, then 5."""
    if isinstance(exc, MultmonError):
        return exc.exit_code
    import traceback  # deferred: only this rare path needs it, and it slows start-up

    traceback.print_exception(exc)
    return InternalConsistencyError.exit_code


def _run_batch(args, names: list[str] | None) -> int:
    try:
        with open(args.file, encoding="utf-8-sig") as handle:  # drops a leading byte-order mark
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read batch file: {exc}") from exc
    status = 0
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            document, code = _execute(stripped, args, names)
        except Exception as exc:  # a failure, even a bug, ends this line only
            code = _exit_code(exc)
            document = _error_document(args.command, stripped, exc, code)
        _emit(document, args)
        if status == 0 and code != 0:
            status = code
    return status


def _run_random_verify(args) -> int:
    if args.cases < 1:
        raise UsageError("--cases must be at least 1")
    rng = random.Random(args.seed)
    failures = []
    for index in range(args.cases):
        ideal = random_ideal(rng, max_gens=8, max_vars=6, max_exp=4)
        result, _, _, agreement = _result_for(ideal, args)
        if not agreement:
            failures.append({"case": index, "ideal": str(ideal), "methods": result["methods"]})
    document = {
        "command": "verify",
        "mode": "random",
        "seed": args.seed,
        "cases": args.cases,
        "failures": failures,
        "agreement": not failures,
    }
    _emit(document, args)
    return 0 if not failures else InternalConsistencyError.exit_code


def _dispatch(args) -> int:
    if args.command == "verify" and args.random:
        return _run_random_verify(args)
    if args.file and args.ideal:
        raise UsageError("--ideal and --file are mutually exclusive")
    if not (args.file or args.ideal):
        raise UsageError("provide an ideal with --ideal or --file")
    names = _var_list(args)  # once per run: a bad list is one usage error, not one per line
    if args.file:
        return _run_batch(args, names)
    document, code = _execute(args.ideal, args, names)
    _emit(document, args)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a command's own parser skips the top-level pass; any other list takes that pass
        if argv and argv[0] in parser.commands:
            args = parser.commands[argv[0]].parse_args(argv[1:])
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
        return _dispatch(args)
    except Exception as exc:
        if isinstance(exc, MultmonError):
            print(f"multmon: error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def run() -> None:
    import signal  # here, not in `main`: an in-process caller keeps its own SIGPIPE handling

    if hasattr(signal, "SIGPIPE"):  # a closed stdout then ends the process (141), no traceback
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
