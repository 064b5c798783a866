"""Command-line front end.

Reads a structure from ``--input FILE`` or ``--builtin NAME``, dispatches one
subcommand, and writes canonical JSON (or DOT) to stdout or ``--output``.
Exit codes: 0 success, 1 validation error, 2 size guard tripped, 3 usage
error (bad flags, unreadable file, malformed JSON, a failed write to stdout
or ``--output``).  Failures are one-line JSON objects on stderr; the exit
code holds even where that line cannot be written.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from operator import getitem
from typing import Iterable, Iterator

from .biheyting import (coheyting_not, coheyting_subtract, heyting_implies,
                        heyting_not, is_coheyting_regular, is_heyting_regular,
                        is_tight, join, meet)
from .contexts import ContextPoset, _contexts, enumerate_contexts
from .daseinisation import daseinise
from .errors import BiheytError, SizeGuard, UsageError
from .limits import DEFAULT_LIMITS, Limits
from .oml import validate
from .oracle import (brute_coheyting_subtract, brute_heyting_implies,
                     brute_negations, check_adjunctions)
from .presheaf import _section_count, _section_rows, _subobject_batches
from .serialize import (builtin_structure, canonical_json, contexts_dot,
                        subobject_dot, subobject_from_mapping,
                        subobject_to_json)

# `op` verbs in --help order; `not --coheyting` runs `conot`
_OPS = {"meet": lambda s, t: meet([s, t]), "join": lambda s, t: join([s, t]),
        "implies": heyting_implies, "subtract": coheyting_subtract,
        "not": heyting_not, "conot": coheyting_not}
_BINARY_OPS = ("meet", "join", "implies", "subtract")
# the brute-force references that `op --oracle` runs instead
_ORACLE_OPS = {
    "implies": brute_heyting_implies, "subtract": brute_coheyting_subtract,
    "not": lambda s, *, limits: brute_negations(s, limits=limits)[0],
    "conot": lambda s, *, limits: brute_negations(s, limits=limits)[1]}
# `sections --list` joins and writes this many rows at a time
_SECTION_CHUNK = 256


class _Parser(argparse.ArgumentParser):
    # argparse wants to print usage and exit(2); route through our own codes.
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps its state in the namespace
    # and locals of each call, never on the parser.
    parser = _Parser(prog="biheyt", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group()
    src.add_argument("--input", metavar="FILE",
                     help="structure description (JSON)")
    src.add_argument("--builtin", metavar="NAME",
                     help="builtin structure: boolean:N, mo:N, cabello18")
    common.add_argument("--output", metavar="FILE",
                        help="write result here instead of stdout")
    common.add_argument("--max-subobjects", type=int, metavar="N",
                        default=None,
                        help="cap on enumerated subobjects "
                             "(default: BIHEYT_MAX_SUBOBJECTS or "
                             f"{DEFAULT_LIMITS.max_subobjects})")
    common.add_argument("--search-budget", type=int, metavar="N",
                        default=DEFAULT_LIMITS.search_budget,
                        help="cap on section-search nodes and on the "
                             "subobject triples of `check laws`")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("validate", parents=[common],
                   help="validate a structure and summarize it")

    p = sub.add_parser("contexts", parents=[common],
                       help="list the context poset")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    sub.add_parser("spectrum", parents=[common],
                   help="spectrum at every context (atom labels)")

    p = sub.add_parser("das", parents=[common],
                       help="outer daseinisation of an element")
    p.add_argument("--element", required=True, metavar="LABEL")

    p = sub.add_parser("op", parents=[common],
                       help="apply an algebra operation to subobjects")
    p.add_argument("verb", choices=tuple(_OPS))
    p.add_argument("--subobject", required=True, metavar="FILE",
                   help="first (or only) operand")
    p.add_argument("--subobject2", metavar="FILE",
                   help="second operand (binary verbs)")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--heyting", action="store_true",
                      help="`not` only: Heyting negation (default)")
    kind.add_argument("--coheyting", action="store_true",
                      help="`not` only: co-Heyting negation")
    p.add_argument("--oracle", action="store_true",
                   help="brute-force reference (implies subtract not conot)")

    p = sub.add_parser("check", parents=[common],
                       help="predicates and law certification")
    p.add_argument("predicate",
                   choices=("regular", "coregular", "tight", "laws"))
    p.add_argument("--subobject", metavar="FILE",
                   help="operand for regular/coregular/tight")
    p.add_argument("--oracle", action="store_true",
                   help="with `laws`: also print the comparison against "
                        "brute-force ops")

    p = sub.add_parser("sections", parents=[common],
                       help="count (or list) global sections")
    p.add_argument("--list", action="store_true", dest="list_all")

    p = sub.add_parser("enumerate", parents=[common],
                       help="count (or list) all clopen subobjects")
    p.add_argument("--list", action="store_true", dest="list_all")

    p = sub.add_parser("export-dot", parents=[common],
                       help="DOT diagrams")
    p.add_argument("what", choices=("contexts", "subobject"))
    p.add_argument("--subobject", metavar="FILE",
                   help="operand for `subobject`")

    return parser


def _limits_from(args) -> Limits:
    max_sub = args.max_subobjects
    if max_sub is None:
        env = os.environ.get("BIHEYT_MAX_SUBOBJECTS")
        if env is not None:
            try:
                max_sub = int(env)
            except ValueError:
                raise UsageError("BIHEYT_MAX_SUBOBJECTS must be an integer",
                                 value=env) from None
        else:
            max_sub = DEFAULT_LIMITS.max_subobjects
    for limit, value in (("max_subobjects", max_sub),
                         ("search_budget", args.search_budget)):
        if value <= 0:
            raise UsageError("size limits must be positive", limit=limit,
                             value=value)
    return dataclasses.replace(DEFAULT_LIMITS, max_subobjects=max_sub,
                               search_budget=args.search_budget)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}",
                         path=path) from None
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an integer past the digit
        # limit, or nesting past the recursion limit
        raise UsageError(f"invalid JSON in {path}: {exc}", path=path) from None


def _structure(args, limits):
    if args.input is not None:
        return validate(_load_json(args.input), limits=limits)
    if args.builtin is not None:
        return builtin_structure(args.builtin, limits=limits)
    raise UsageError("one of --input or --builtin is required")


def _poset(args, limits) -> ContextPoset:
    return enumerate_contexts(_structure(args, limits), limits=limits)


def _require(path, flag) -> None:
    if path is None:
        raise UsageError(f"{flag} is required for this command")


def _subobject_arg(poset, path):
    return subobject_from_mapping(poset, _load_json(path))


def _cmd_validate(args, limits) -> str:
    structure = _structure(args, limits)
    return canonical_json({
        "atoms": len(structure.atoms()),
        "blocks": len(structure.blocks),
        "contexts": len(_contexts(structure, limits)),
        "elements": structure.n,
        "kind": structure.kind,
        "valid": True,
    })


# validate, contexts (JSON) and spectrum list the contexts and their atoms,
# which the partition walk gives; they build no poset table.
def _cmd_contexts(args, limits) -> str:
    if args.format == "dot":
        return contexts_dot(_poset(args, limits))
    structure = _structure(args, limits)
    labels = structure.labels
    rows = [{"atoms": [labels[a] for a in c.atoms], "id": c.id}
            for c in _contexts(structure, limits)]
    return canonical_json({"contexts": rows, "count": len(rows)})


def _cmd_spectrum(args, limits) -> str:
    structure = _structure(args, limits)
    labels = structure.labels
    return canonical_json({c.id: [labels[a] for a in c.atoms]
                           for c in _contexts(structure, limits)})


def _cmd_das(args, limits) -> str:
    # the labels come with the structure: test them before the poset is built
    structure = _structure(args, limits)
    if args.element not in structure.labels:
        raise UsageError(f"unknown element label {args.element!r}",
                         label=args.element)
    poset = enumerate_contexts(structure, limits=limits)
    return subobject_to_json(daseinise(poset, structure.el(args.element)))


def _cmd_op(args, limits) -> str:
    if args.oracle and args.verb not in _ORACLE_OPS:
        raise UsageError(f"op {args.verb} takes no --oracle")
    kind = "--heyting" if args.heyting else "--coheyting" if args.coheyting else None
    if kind and args.verb != "not":
        raise UsageError(f"op {args.verb} takes no {kind}")
    binary = args.verb in _BINARY_OPS
    if binary:
        _require(args.subobject2, "--subobject2")
    elif args.subobject2 is not None:
        raise UsageError(f"op {args.verb} takes a single --subobject")
    verb = "conot" if args.coheyting else args.verb
    poset = _poset(args, limits)
    operands = [_subobject_arg(poset, path)
                for path in (args.subobject, args.subobject2)[:1 + binary]]
    if args.oracle:
        return subobject_to_json(_ORACLE_OPS[verb](*operands, limits=limits))
    return subobject_to_json(_OPS[verb](*operands))


def _cmd_check(args, limits) -> str:
    if args.oracle and args.predicate != "laws":
        raise UsageError(f"check {args.predicate} takes no --oracle")
    if args.subobject is not None and args.predicate == "laws":
        raise UsageError("check laws takes no --subobject")
    if args.predicate != "laws":
        _require(args.subobject, "--subobject")
    poset = _poset(args, limits)
    if args.predicate == "laws":
        report = check_adjunctions(poset, limits=limits)
        return canonical_json({"adjunctions": report.to_json(),
                               "oracle": report.oracle if args.oracle else None})
    s = _subobject_arg(poset, args.subobject)
    result = {"regular": is_heyting_regular,
              "coregular": is_coheyting_regular,
              "tight": is_tight}[args.predicate](s)
    return canonical_json({"check": args.predicate, "result": result})


def _fragments(poset, elements) -> list[list[str]]:
    """For each context, the JSON ``"id":"label"`` of each element given for
    it, in the given order.  Contexts are indexed in sorted-id order, so the
    canonical JSON of a row's mapping is ``{``, its contexts' fragments
    joined by commas in index order, and ``}``."""
    labels = poset.structure.labels
    dump = functools.cache(canonical_json)  # elements recur across contexts
    return [[head + dump(labels[e]) for e in elems] for head, elems
            in zip([canonical_json(c.id) + ":" for c in poset.contexts], elements)]


def _listing(key: str, count: int, chunks: Iterable[str]) -> Iterator[str]:
    """``{"count":N,"<key>":[...]}`` around ``chunks``, each a run of rows
    joined by commas, as it comes."""
    yield f'{{"count":{count},"{key}":['
    for k, chunk in enumerate(chunks):
        if k:
            yield ","
        yield chunk
    yield "]}"


def _cmd_sections(args, limits) -> "str | Iterator[str]":
    poset = _poset(args, limits)
    if not args.list_all:
        return canonical_json({"count": _section_count(poset, limits)})
    runs = _section_rows(poset, limits)
    tables = [dict(zip(c.atoms, frags)) for c, frags in
              zip(poset.contexts, _fragments(poset, [c.atoms for c in poset.contexts]))]
    # each run's rows are rendered once; a section is one row of each run
    parts = [[",".join(map(getitem, tables[contexts.start:contexts.stop], row))
              for row in rows] for contexts, rows in runs]
    rows = map("{{{}}}".format, map(",".join, itertools.product(*parts)))
    # every row holds at least "{}", so only the end gives an empty chunk
    chunks = iter(lambda: ",".join(itertools.islice(rows, _SECTION_CHUNK)), "")
    return _listing("sections", math.prod(map(len, parts)), chunks)


def _cmd_enumerate(args, limits) -> "str | Iterator[str]":
    poset = _poset(args, limits)
    # counting builds no subobject, so a listing past the limit writes none;
    # the listing then walks again and writes a memo batch at a time
    count = sum(len(batch) for _, batch in _subobject_batches(poset, limits))
    if not args.list_all:
        return canonical_json({"count": count})
    spec = tuple(zip(_fragments(poset, poset._mask_to_elem), poset._offsets,
                     poset._full))
    return _listing("subobjects", count, (",".join(
        ["{" + ",".join([t[bits >> off & f] for t, off, f in spec]) + "}"
         for bits in map(lower.__or__, batch)])
        for lower, batch in _subobject_batches(poset, limits)))


def _cmd_export_dot(args, limits) -> str:
    if args.what == "contexts" and args.subobject is not None:
        raise UsageError("export-dot contexts takes no --subobject")
    if args.what == "subobject":
        _require(args.subobject, "--subobject")
    poset = _poset(args, limits)
    if args.what == "contexts":
        return contexts_dot(poset)
    return subobject_dot(_subobject_arg(poset, args.subobject))


_COMMANDS = {
    "validate": _cmd_validate,
    "contexts": _cmd_contexts,
    "spectrum": _cmd_spectrum,
    "das": _cmd_das,
    "op": _cmd_op,
    "check": _cmd_check,
    "sections": _cmd_sections,
    "enumerate": _cmd_enumerate,
    "export-dot": _cmd_export_dot,
}


def _emit(out: "str | Iterable[str]", output: "str | None", std: str = "stdout") -> None:
    """Write a command's text, or a listing's chunks as they come, and one
    newline to ``output`` or else ``sys.<std>``; a failed write raises ``UsageError``."""
    out = (out.removesuffix("\n"),) if isinstance(out, str) else out
    stream = getattr(sys, std)
    try:
        if output is None and stream is None:
            raise OSError(f"{std} is closed")
        with (contextlib.nullcontext(stream) if output is None
              else open(output, "w", encoding="utf-8")) as fh:
            fh.writelines(itertools.chain(out, ("\n",)))
            fh.flush()
    except OSError as exc:
        if output is None and stream is getattr(sys, f"__{std}__") is not None:
            # the interpreter flushes it again at exit: into nothing
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), stream.fileno())
        path = f"<{std}>" if output is None else output
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}",
                         path=path) from None


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        limits = _limits_from(args)
        _emit(_COMMANDS[args.command](args, limits), args.output)
        return 0
    except BiheytError as exc:
        # the exit code names the class even where the line cannot be written
        with contextlib.suppress(UsageError):
            _emit(canonical_json(exc.to_json()), None, "stderr")
        # any other subclass, ValidationError's included, is a validation error
        return (2 if isinstance(exc, SizeGuard)
                else 3 if isinstance(exc, UsageError) else 1)


if __name__ == "__main__":
    sys.exit(run())
