"""Command-line front end.

Reads a structure from ``--input FILE`` or ``--builtin NAME``, dispatches one
subcommand, and writes canonical JSON (or DOT) to stdout or ``--output``.
Exit codes: 0 success, 1 validation error, 2 size guard tripped, 3 usage
error (bad flags, unreadable file, malformed JSON).  Failures are reported as
one-line JSON objects on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from operator import getitem
from typing import Iterable, Iterator

from .biheyting import (coheyting_not, coheyting_subtract, heyting_implies,
                        heyting_not, is_coheyting_regular, is_heyting_regular,
                        is_tight, join, meet)
from .contexts import ContextPoset, enumerate_contexts
from .daseinisation import daseinise
from .errors import BiheytError, SizeGuard, UsageError, ValidationError
from .limits import DEFAULT_LIMITS, Limits
from .oml import validate
from .oracle import (brute_coheyting_subtract, brute_heyting_implies,
                     brute_negations, check_adjunctions)
from .presheaf import _section_rows, _section_states, _subobject_batches
from .serialize import (builtin_structure, canonical_json, contexts_dot,
                        subobject_dot, subobject_from_mapping,
                        subobject_to_json)

_BINARY_OPS = ("meet", "join", "implies", "subtract")
_UNARY_OPS = ("not", "conot")


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
    p.add_argument("verb", choices=_BINARY_OPS + _UNARY_OPS)
    p.add_argument("--subobject", required=True, metavar="FILE",
                   help="first (or only) operand")
    p.add_argument("--subobject2", metavar="FILE",
                   help="second operand (binary verbs)")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--heyting", action="store_true",
                      help="with `not`: Heyting negation (default)")
    kind.add_argument("--coheyting", action="store_true",
                      help="with `not`: co-Heyting negation")
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


def _subobject_arg(poset, path, flag):
    if path is None:
        raise UsageError(f"{flag} is required for this command")
    return subobject_from_mapping(poset, _load_json(path))


def _cmd_validate(args, limits) -> str:
    structure = _structure(args, limits)
    poset = enumerate_contexts(structure, limits=limits)
    return canonical_json({
        "atoms": len(structure.atoms()),
        "blocks": len(structure.blocks),
        "contexts": len(poset.contexts),
        "elements": structure.n,
        "kind": structure.kind,
        "valid": True,
    })


def _cmd_contexts(args, limits) -> str:
    poset = _poset(args, limits)
    if args.format == "dot":
        return contexts_dot(poset)
    label = poset.structure.label
    rows = [{"atoms": [label(a) for a in c.atoms], "id": c.id}
            for c in poset.contexts]
    return canonical_json({"contexts": rows, "count": len(rows)})


def _cmd_spectrum(args, limits) -> str:
    poset = _poset(args, limits)
    label = poset.structure.label
    return canonical_json({c.id: [label(a) for a in c.atoms]
                           for c in poset.contexts})


def _cmd_das(args, limits) -> str:
    poset = _poset(args, limits)
    structure = poset.structure
    if args.element not in structure.labels:
        raise UsageError(f"unknown element label {args.element!r}",
                         label=args.element)
    return subobject_to_json(daseinise(poset, structure.el(args.element)))


def _cmd_op(args, limits) -> str:
    if args.oracle and args.verb in ("meet", "join"):
        raise UsageError(f"op {args.verb} takes no --oracle")
    poset = _poset(args, limits)
    s = _subobject_arg(poset, args.subobject, "--subobject")
    if args.verb in _BINARY_OPS:
        t = _subobject_arg(poset, args.subobject2, "--subobject2")
        if args.verb == "meet":
            out = meet([s, t])
        elif args.verb == "join":
            out = join([s, t])
        elif args.verb == "implies":
            out = (brute_heyting_implies(s, t, limits=limits)
                   if args.oracle else heyting_implies(s, t))
        else:
            out = (brute_coheyting_subtract(s, t, limits=limits)
                   if args.oracle else coheyting_subtract(s, t))
    else:
        if args.subobject2 is not None:
            raise UsageError(f"op {args.verb} takes a single --subobject")
        coheyting = args.verb == "conot" or args.coheyting
        if args.oracle:
            neg, coneg = brute_negations(s, limits=limits)
            out = coneg if coheyting else neg
        else:
            out = coheyting_not(s) if coheyting else heyting_not(s)
    return subobject_to_json(out)


def _cmd_check(args, limits) -> str:
    if args.oracle and args.predicate != "laws":
        raise UsageError(f"check {args.predicate} takes no --oracle")
    if args.subobject is not None and args.predicate == "laws":
        raise UsageError("check laws takes no --subobject")
    poset = _poset(args, limits)
    if args.predicate == "laws":
        report = check_adjunctions(poset, limits=limits)
        return canonical_json({"adjunctions": report.to_json(),
                               "oracle": report.oracle if args.oracle else None})
    s = _subobject_arg(poset, args.subobject, "--subobject")
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
    dump = functools.cache(json.dumps)   # an element recurs across contexts
    return [[head + dump(labels[e]) for e in elems] for head, elems
            in zip([json.dumps(c.id) + ":" for c in poset.contexts], elements)]


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
        return canonical_json({"count": sum(1 for _ in _section_states(poset, limits))})
    rows = _section_rows(poset, limits)
    tables = [dict(zip(c.atoms, frags)) for c, frags in
              zip(poset.contexts, _fragments(poset, [c.atoms for c in poset.contexts]))]
    return _listing("sections", len(rows), [",".join(
        ["{" + ",".join(map(getitem, tables, row)) + "}" for row in rows])])


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
    poset = _poset(args, limits)
    if args.what == "contexts":
        return contexts_dot(poset)
    s = _subobject_arg(poset, args.subobject, "--subobject")
    return subobject_dot(s)


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


def _emit(out: "str | Iterable[str]", output: "str | None") -> None:
    """Write a command's text, or a listing's chunks as they come, to stdout
    or to ``output``, ending with one newline."""
    if isinstance(out, str):
        out = (out.removesuffix("\n"),)
    chunks = itertools.chain(out, ("\n",))
    if output is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc.strerror or exc}",
                         path=output) from None


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        limits = _limits_from(args)
        _emit(_COMMANDS[args.command](args, limits), args.output)
        return 0
    except ValidationError as exc:
        sys.stderr.write(canonical_json(exc.to_json()) + "\n")
        return 1
    except SizeGuard as exc:
        sys.stderr.write(canonical_json(exc.to_json()) + "\n")
        return 2
    except UsageError as exc:
        sys.stderr.write(canonical_json(exc.to_json()) + "\n")
        return 3
    except BiheytError as exc:  # any future subclass: treat as validation
        sys.stderr.write(canonical_json(exc.to_json()) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(run())
