"""Command-line interface: every computation as a subcommand over parsed ideals.

Each run emits one structured JSON document (one per line in batch mode);
`--pretty` renders the same record for humans.  Field names are frozen in
docs/schema.md.  Errors map to exit codes: 0 success, 1 usage/parse error,
2 hypothesis violation, 3 unsupported, 4 resource cap, 5 internal
consistency failure.  The command table (`_TABLE`) has one row per command:
its options after the common ones, its result function and its `--pretty`
lines; adding a command means adding one row.  The route table (`METHODS`)
drives the `auto` choice, `--method` and `verify`.  Each route checks its own
hypotheses and raises `HypothesisError` outside them: `--method` exits 2 on
it, while `auto` and `verify` skip to the next route.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .core import MonomialIdeal, VariableTable, polar_sets
from .decomposition import multiplicity_recurrence
from .errors import HypothesisError, InternalConsistencyError, MultmonError, ParseError, UsageError
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The top-level parser, for a list that does not start with a command: it names them."""
    parser = _Parser(prog="multmon", description=__doc__)
    parser.add_argument("--version", action="version", version=f"multmon {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    return parser


@functools.cache
def _command_parser(name: str) -> _Parser:
    """One command's parser, built the first time a list that starts with the command arrives."""
    p = _Parser(prog=f"multmon {name}")
    p.set_defaults(command=name)
    p.add_argument("--ideal", help="ideal text, e.g. \"a^2*b, b^3*c\"")
    p.add_argument("--file", help="batch file: one ideal per line, '#' comments")
    p.add_argument("--vars", help="explicit comma-separated variable order")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="structured output (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable rendering")
    for flag, keywords in _TABLE[name].options:
        p.add_argument(flag, **keywords)
    return p


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


# ---------------------------------------------------------------------------
# commands: each returns (result, method, checks, agreement) for one ideal, and its
# `--pretty` lines render the document's result and checks


def _multiplicity(ideal: MonomialIdeal, args):
    if args.method == "auto":
        method, value = next(_answers(ideal, AUTO_METHODS))
    else:
        method, value = args.method, METHODS[args.method](ideal)
    checks = [{"method": m, "value": value if m == method else METHODS[m](ideal)}
              for m in ("ps", "oracle") if args.check]  # the chosen route is not run twice
    agreement = all(c["value"] == value for c in checks) if args.check else None
    return {"multiplicity": value}, method, checks, agreement


def _classify(ideal: MonomialIdeal, args):
    structure = detect_stem(ideal)
    stem = None if structure is None else {
        "stems": [str(s) for s in structure.stems],
        "blocks": [[str(ideal.gens[i]) for i in block] for block in structure.blocks],
    }
    # minimal exactly when dominant: a witness enters a face's lcm only with its generator
    result = {"stem": stem, "quadratic_dominant": is_quadratic_dominant(ideal),
              "taylor_minimal": is_dominant(ideal)}
    return result, "classification", [], None


def _classify_lines(document: dict) -> list[str]:
    result = document["result"]
    stem = result["stem"]
    return [f"stem ideal: {'no' if stem is None else 'yes, stems ' + ', '.join(stem['stems'])}",
            f"quadratic dominant: {result['quadratic_dominant']}",
            f"taylor resolution minimal: {result['taylor_minimal']}"]


class _Raw(tuple):
    """A result already rendered as JSON text: its string parts, written out in turn."""


def _betti_runs(resolution: TaylorResolution) -> Iterator[tuple[int, int, list[str]]]:
    """(hdeg, degree, labels) of the faces of each hdeg and degree, in entry order."""
    degrees, labels = resolution.degrees, resolution.labels
    for hdeg, masks in enumerate(face_levels(resolution.ideal.q)):
        faces = sorted(masks, key=degrees.__getitem__)  # labels are sorted only within a run
        for d, run in groupby(faces, degrees.__getitem__):
            yield hdeg, d, sorted(map(labels.__getitem__, run))


# `betti` and `taylor` return their `--pretty` lines as the result, and otherwise its JSON
# text.  Labels go into it unescaped: a `VariableTable` holds only `core.VAR_NAME` tokens,
# and exponents are digits.
def _betti(ideal: MonomialIdeal, args):
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


def _taylor(ideal: MonomialIdeal, args):
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


def _diagram(ideal: MonomialIdeal, args):
    names = ideal.ring.names
    sets = [{"generator": str(g), "labels": [{"var": names[v], "slot": s} for v, s in sorted(labels)]}
            for g, labels in zip(ideal.gens, polar_sets(ideal))]
    return {"sets": sets}, "polarization", [], None


def _diagram_lines(document: dict) -> Iterator[str]:
    for entry in document["result"]["sets"]:
        labels = ", ".join(f"{l['var']}_{l['slot']}" for l in entry["labels"])
        yield f"A({entry['generator']}) = {{{labels}}}"


def _verify(ideal: MonomialIdeal, args):
    values = dict(_answers(ideal, METHODS))
    agreement = len(set(values.values())) == 1
    checks = [{"method": m, "value": v} for m, v in values.items()]
    result = {"multiplicity": values["ps"] if agreement else None, "methods": values}
    return result, "consensus", checks, agreement


def _regularity(ideal: MonomialIdeal, args):
    if not is_quadratic_dominant(ideal):
        return {"regularity": regularity_dominant(ideal)}, "taylor", [], None
    value, taylor_value = reg_quadratic_dominant(ideal), regularity_dominant(ideal)
    checks = [{"method": "taylor", "value": taylor_value}]
    return {"regularity": value}, "quadratic", checks, taylor_value == value


def _checked(document: dict) -> Iterator[str]:
    """A pretty line per check, for `multiplicity --check` and quadratic `regularity`."""
    return map("check {method}: {value}".format_map, document["checks"])


class _Command:  # a plain class: a `NamedTuple` would add a quarter of a millisecond to import
    def __init__(self, options: tuple, result: Callable, lines: Callable):
        self.options = options  # (flag, `add_argument` keywords) of each option after the common ones
        self.result = result  # (ideal, args) -> (result, method, checks, agreement)
        self.lines = lines  # document -> its `--pretty` lines between the shared header and footer


# The command table: one row per command, in the order the top-level parser names them.
_TABLE = {
    "multiplicity": _Command(
        (("--method", dict(choices=("auto", *METHODS), default="auto")),
         ("--check", dict(action="store_true", help="cross-check multiplicity with engine and oracle"))),
        _multiplicity,
        lambda d: [f"multiplicity = {d['result']['multiplicity']}  (method: {d['method']})", *_checked(d)],
    ),
    "codim": _Command((), lambda ideal, args: ({"codim": codim(ideal)}, "cover-search", [], None),
                      lambda d: [f"codim = {d['result']['codim']}"]),
    "classify": _Command((), _classify, _classify_lines),
    "betti": _Command((), _betti, itemgetter("result")),
    "taylor": _Command((), _taylor, itemgetter("result")),
    "diagram": _Command((), _diagram, _diagram_lines),
    "verify": _Command(
        (("--random", dict(action="store_true", help="verify seeded random ideals")),
         ("--seed", dict(type=int, default=0, help="seed for --random")),
         ("--cases", dict(type=int, default=100, help="case count for --random"))),
        _verify,
        lambda d: map("  {method:<12} {value}".format_map, d["checks"]),
    ),
    "regularity": _Command(
        (), _regularity,
        lambda d: [f"regularity = {d['result']['regularity']}  (method: {d['method']})", *_checked(d)],
    ),
}

COMMANDS = tuple(_TABLE)


def _execute(text: str, args, names: list[str] | None) -> tuple[dict, int]:
    """Run one command over one ideal text in the `--vars` order; returns (document, exit code)."""
    started = time.perf_counter()
    parsed = parse_ideal_detailed(text, names)
    ideal = parsed.ideal
    report = classify(ideal)
    result, method, checks, agreement = _TABLE[args.command].result(ideal, args)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    document = {
        "command": args.command,
        "input": {"text": text, "vars": list(ideal.ring.names), "ideal": str(ideal),
                  "notices": list(parsed.notices)},
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
    command = document.get("command", "?")
    if "error" in document:
        err = document["error"]
        return f"{command}: error [{err['code']}] {err['message']}"
    if document.get("mode") == "random":
        lines = [f"random verification: seed={document['seed']} cases={document['cases']}"]
        lines += (f"  disagreement on {f['ideal']}: {f['methods']}" for f in document["failures"])
        return "\n".join([*lines, f"agreement: {document['agreement']}"])
    lines = [f"ideal: {document['input']['ideal']}"]
    lines += (f"note: {notice}" for notice in document["input"]["notices"])
    lines.append("classification: codim={codim} dominant={dominant} ci={complete_intersection}"
                 .format_map(document["classification"]))
    lines += _TABLE[command].lines(document)  # the command's own lines, then the shared footer
    if document["agreement"] is not None:
        lines.append(f"agreement: {document['agreement']}")
    lines.append(f"time: {document['timing_ms']} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# drivers


def _error_document(command: str, text: str | None, exc: Exception, exit_code: int) -> dict:
    payload = {"code": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    if isinstance(exc, ParseError):
        payload.update(code=exc.code, line=exc.line, column=exc.column)
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
        status = status or code  # the first failure's code
    return status


def _run_random_verify(args) -> int:
    import random  # deferred, with the generator: no other command draws ideals
    from .generate import random_ideal

    for flag in ("ideal", "file", "vars"):  # it draws its own ideals, over their own variables
        if getattr(args, flag):
            raise UsageError(f"--random and --{flag} are mutually exclusive")
    if args.cases < 1:
        raise UsageError("--cases must be at least 1")
    rng = random.Random(args.seed)
    failures = []
    for index in range(args.cases):
        ideal = random_ideal(rng, max_gens=8, max_vars=6, max_exp=4)
        result, _, _, agreement = _TABLE[args.command].result(ideal, args)
        if not agreement:
            failures.append({"case": index, "ideal": str(ideal), "methods": result["methods"]})
    _emit({"command": "verify", "mode": "random", "seed": args.seed, "cases": args.cases,
           "failures": failures, "agreement": not failures}, args)
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        if not argv or argv[0] not in COMMANDS:  # the top-level parser says why, or reads `-- name`
            argv = [_build_parser().parse_args(argv).command]
        return _dispatch(_command_parser(argv[0]).parse_args(argv[1:]))
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
