"""The benchmark's handle on ``biheyt``: every public function it calls.

Each attribute is the package function itself, or, in a traced run, that
function inside a span named after its layer (the ``src/biheyt`` module).
Tests may replace an attribute to feed a corrupted result to the gates.
"""
from __future__ import annotations

import biheyt
from biheyt import cli

# span name -> package functions recorded under it
LAYERS = {
    "oml.build": ("generate", "from_greechie", "validate"),
    "contexts.enumerate": ("enumerate_contexts",),
    "contexts.poset_init": ("ContextPoset",),
    "presheaf.enumerate": ("enumerate_subobjects",),
    "presheaf.make_subobject": ("make_subobject",),
    "presheaf.sections": ("global_sections",),
    "biheyting.implies": ("heyting_implies",),
    "biheyting.subtract": ("coheyting_subtract",),
    "biheyting.not": ("heyting_not",),
    "biheyting.conot": ("coheyting_not",),
    "biheyting.dnot": ("double_heyting_not",),
    "biheyting.dconot": ("double_coheyting_not",),
    "biheyting.regular": ("is_heyting_regular",),
    "biheyting.coregular": ("is_coheyting_regular",),
    "biheyting.tight": ("is_tight",),
    "biheyting.meet": ("meet",),
    "biheyting.join": ("join",),
    "daseinisation.daseinise": ("daseinise",),
    "oracle.check_adjunctions": ("check_adjunctions",),
    "oracle.brute": ("brute_heyting_implies", "brute_coheyting_subtract",
                     "brute_negations"),
    "serialize.json": ("canonical_json", "subobject_to_json"),
    "serialize.dot": ("contexts_dot", "subobject_dot"),
}

CLI_COMMANDS = ("validate", "contexts", "spectrum", "das", "op", "check",
                "sections", "enumerate", "export-dot")


class Lib:
    def __init__(self, tracer):
        self.tracer = tracer
        for span, names in LAYERS.items():
            for name in names:
                setattr(self, name, tracer.wrap(span, getattr(biheyt, name)))
        self.cli_run = {c: tracer.wrap(f"cli.{c}", cli.run)
                        for c in CLI_COMMANDS}

    def count(self, name, n):
        self.tracer.count(name, n)
