"""Input parsing, canonical JSON output, and DOT export.

All JSON goes through one ``json.JSONEncoder``, ``canonical_json``: sorted
keys, compact separators, so repeated runs are byte-identical.  Subobject
files map context id to element label; re-ingesting one reproduces it exactly.
"""
from __future__ import annotations

import json
from typing import Any

from .contexts import ContextPoset
from .errors import UsageError
from .limits import DEFAULT_LIMITS, Limits
from .oml import OrthoStructure, generate
from .presheaf import ClopenSubobject, make_subobject


# the package's one JSON encoder
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def builtin_structure(spec: str, *, limits: Limits = DEFAULT_LIMITS) -> OrthoStructure:
    """Parse builtin specs: ``boolean:N``, ``mo:N``, ``cabello18``."""
    if spec == "cabello18":
        return generate("cabello18", limits=limits)
    name, _, arg = spec.partition(":")
    if name in ("boolean", "mo") and arg:
        try:
            n = int(arg)
        except ValueError:
            raise UsageError(f"builtin size must be an integer: {spec!r}") from None
        return generate(name, n, limits=limits)
    raise UsageError(f"unknown builtin {spec!r} (expected boolean:N, mo:N, cabello18)")


def subobject_from_mapping(poset: ContextPoset, raw: Any) -> ClopenSubobject:
    if not isinstance(raw, dict):
        raise UsageError("a subobject file must be an object mapping "
                         "context id to element label")
    for ctx, label in raw.items():
        if not isinstance(label, str):
            raise UsageError(f"context {ctx!r} must map to an element label",
                             context=ctx)
    return make_subobject(poset, raw)


def subobject_to_json(s: ClopenSubobject) -> str:
    return canonical_json(s.to_mapping())


def _quote(name: str) -> str:
    body = (name.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))
    return '"' + body + '"'


def _covers_up(poset: ContextPoset) -> tuple[tuple[int, ...], ...]:
    """For each context, the contexts covering it, ascending."""
    # j covers i iff j is above i and above no strict supercontext of i
    masks = [sum([1 << j for j in up]) for up in poset._above]
    covers = []
    for up, m in zip(poset._above, masks):
        beyond = 0
        for k in up:
            beyond |= masks[k]
        m &= ~beyond
        row = []
        while m:
            low = m & -m
            m ^= low
            row.append(low.bit_length() - 1)
        covers.append(tuple(row))
    return tuple(covers)


def _dot(poset: ContextPoset, title: str, nodes: list[str]) -> str:
    """DOT digraph: header, the given node lines, sorted covering edges."""
    lines = [f"digraph {_quote(title)} {{", "  rankdir=BT;",
             "  node [shape=box];", *nodes]
    edges = []
    for c, covers in zip(poset.contexts, _covers_up(poset)):
        for sup in covers:
            edges.append((c.id, poset.contexts[sup].id))
    for a, b in sorted(edges):
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def contexts_dot(poset: ContextPoset) -> str:
    """Hasse diagram of the context poset (covering edges, subcontext below)."""
    return _dot(poset, "contexts", [f"  {_quote(c.id)};" for c in poset.contexts])


def subobject_dot(s: ClopenSubobject) -> str:
    """Context Hasse diagram with each node annotated by the component."""
    poset = s.poset
    st = poset.structure
    nodes = []
    for i, c in enumerate(poset.contexts):
        atoms = ", ".join(p.label for p in s.points_at(i))
        label = f"{c.id}\n{st.label(s.element_at(i))} = {{{atoms}}}"
        nodes.append(f"  {_quote(c.id)} [label={_quote(label)}];")
    return _dot(poset, "subobject", nodes)
