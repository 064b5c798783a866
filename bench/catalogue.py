"""The fixed universe of CLI commands that ``cli_mix`` samples from.

Every command here has an exit code and stdout digest recorded in
``expected.json`` (see ``record_expected.py``), so any seed's mix can be
checked byte for byte.  A seed picks one variant per class and the order of
the round; the classes and their multiplicities are fixed, so every seed's
round does about the same work.

Structures are builtins or Greechie pastings written to input files.  Operand
subobjects come from a fixed pool per structure: outer daseinisation images
and random monotone families built from a fixed seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

BUILTINS = ("boolean:3", "boolean:5", "boolean:6", "mo:2", "mo:3", "mo:5",
            "mo:12", "cabello18")

PENTAGON = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
            ["g", "h", "i"], ["i", "j", "a"]]
TREES = 8


def tree_blocks(k: int) -> list[list[str]]:
    """A Greechie tree of two 3-atom and two 4-atom blocks: each new block
    shares one atom, not yet shared, with the blocks before it.  The shape
    and labels are fixed by ``k``; the sizes are the same for every ``k`` so
    that the trees cost about the same."""
    rng = random.Random(f"tree{k}")
    sizes = [3, 3, 4, 4]
    rng.shuffle(sizes)
    fresh = iter(f"t{i}" for i in range(64))
    blocks = [[next(fresh) for _ in range(sizes[0])]]
    unshared = list(blocks[0])
    for size in sizes[1:]:
        shared = rng.choice(unshared)
        unshared.remove(shared)
        block = [shared] + [next(fresh) for _ in range(size - 1)]
        unshared += block[1:]
        blocks.append(block)
    return blocks


def input_files() -> dict[str, dict]:
    """Structure name -> the JSON the CLI reads with ``--input``."""
    files = {"pentagon": {"format": "greechie", "blocks": PENTAGON}}
    for k in range(TREES):
        files[f"tree{k}"] = {"format": "greechie", "blocks": tree_blocks(k)}
    return files


# structure -> elements whose daseinisation images are operands / das targets
DAS_ELEMENTS = {
    "boolean:3": ("p", "q+r"),
    "boolean:5": ("p", "q+s", "p+r+t"),
    "mo:12": ("a", "c'", "k"),
    "pentagon": ("a", "d", "j"),
}
for _k in range(TREES):
    DAS_ELEMENTS[f"tree{_k}"] = ("t0", "t2", "t5")
# random operand families: (density, seed)
RANDOM_OPERANDS = ((0.1, 1), (0.35, 2), (0.7, 3))
OPERAND_STRUCTURES = ("boolean:3", "boolean:5", "mo:12", "cabello18",
                      "pentagon") + tuple(f"tree{k}" for k in range(TREES))


def operands(structure: str) -> tuple[str, ...]:
    """Names of the operand files of one structure."""
    das = tuple(f"das:{e}" for e in DAS_ELEMENTS.get(structure, ()))
    return das + tuple(f"rand:{d}:{s}" for d, s in RANDOM_OPERANDS)


@dataclass(frozen=True)
class Cmd:
    command: str
    source: str                  # builtin spec or input-file structure name
    what: str | None = None      # op verb, check predicate, export-dot target
    element: str | None = None
    subobject: str | None = None
    subobject2: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv(lambda s, o=None: f"@{s}/{o}" if o
                                  else f"@{s}"))

    def argv(self, path) -> list[str]:
        """CLI arguments; ``path(structure[, operand])`` names input files."""
        out = [self.command]
        if self.what:
            out.append(self.what)
        if self.source in BUILTINS:
            out += ["--builtin", self.source]
        else:
            out += ["--input", path(self.source)]
        if self.element:
            out += ["--element", self.element]
        if self.subobject:
            out += ["--subobject", path(self.source, self.subobject)]
        if self.subobject2:
            out += ["--subobject2", path(self.source, self.subobject2)]
        return out + list(self.flags)


def _ops(s, verbs, pairs=False, flags=()):
    pool = operands(s)
    out = []
    for verb in verbs:
        if pairs:
            out.append([Cmd("op", s, verb, subobject=a, subobject2=b,
                            flags=flags) for a in pool for b in pool])
        else:
            out.append([Cmd("op", s, verb, subobject=a, flags=flags)
                        for a in pool])
    return out


def _checks(s, preds):
    return [[Cmd("check", s, p, subobject=a) for a in operands(s)]
            for p in preds]


def _das(s):
    return [[Cmd("das", s, element=e) for e in DAS_ELEMENTS[s]]]


def _plain(s, *specs):
    return [[Cmd(c, s, w, flags=f)] for c, w, f in specs]


def _trees(*classes):
    """One class per entry, its variants spread over every tree."""
    out = []
    for make in classes:
        per_tree = [make(f"tree{k}") for k in range(TREES)]
        for i in range(len(per_tree[0])):
            out.append([v for cls in per_tree for v in cls[i]])
    return out


def classes(tiny: bool = False) -> list[list[Cmd]]:
    """Command classes of one round; a round takes one variant of each.

    The mix keeps the mean command near 10 ms, so a 15 s run issues over
    1000 commands, and keeps the two slowest commands (``sections --list``
    on ``boolean:6`` and ``mo:12``, near 90 ms) at 2.4% of the round, inside
    the p99.
    """
    dot = ("--format", "dot")
    pentagon = (_plain("pentagon", ("validate", None, ()),
                       ("contexts", None, ()), ("contexts", None, dot),
                       ("spectrum", None, ()),
                       ("sections", None, ("--list",)),
                       ("export-dot", "contexts", ()))
                + _das("pentagon")
                + _ops("pentagon", ("meet", "join"), pairs=True)
                + _ops("pentagon", ("not", "conot"))
                + _checks("pentagon", ("regular", "coregular", "tight"))
                + [[Cmd("export-dot", "pentagon", "subobject", subobject=a)
                    for a in operands("pentagon")]])
    small = (_plain("boolean:3", ("enumerate", None, ()),
                    ("enumerate", None, ("--list",)))
             + _ops("boolean:3", ("implies",), pairs=True, flags=("--oracle",))
             + _plain("mo:2", ("check", "laws", ())))
    if tiny:
        return pentagon + small
    big = (
        _plain("boolean:6", ("validate", None, ()),
               ("sections", None, ("--list",)))
        + _plain("mo:12", ("validate", None, ()), ("contexts", None, ()),
                 ("contexts", None, dot),
                 ("spectrum", None, ()), ("export-dot", "contexts", ()),
                 ("sections", None, ()), ("sections", None, ("--list",)))
        + _das("mo:12") + _das("mo:12")
        + _ops("mo:12", ("not", "conot")) + _checks("mo:12", ("tight",))
        + _plain("cabello18", ("validate", None, ()),
                 ("contexts", None, dot), ("sections", None, ()))
        + _ops("cabello18", ("implies",), pairs=True)
        + _ops("cabello18", ("conot",)) + _checks("cabello18", ("tight",))
        + [[Cmd("export-dot", "cabello18", "subobject", subobject=a)
            for a in operands("cabello18")]]
        + _plain("boolean:5", ("validate", None, ()), ("contexts", None, ()),
                 ("spectrum", None, ()), ("sections", None, ()),
                 ("export-dot", "contexts", ()))
        + _das("boolean:5")
        + _ops("boolean:5", ("meet", "join", "implies", "subtract"),
               pairs=True)
        + _ops("boolean:5", ("not", "conot"))
        + _ops("boolean:5", ("not",), flags=("--coheyting",))
        + _checks("boolean:5", ("regular", "coregular", "tight"))
        + [[Cmd("export-dot", "boolean:5", "subobject", subobject=a)
            for a in operands("boolean:5")]]
        + _plain("mo:5", ("enumerate", None, ()),
                 ("enumerate", None, ("--list",))))
    trees = _trees(
        lambda s: _plain(s, ("validate", None, ()), ("contexts", None, ()),
                         ("contexts", None, dot), ("spectrum", None, ()),
                         ("sections", None, ("--list",))),
        _das,
        lambda s: _ops(s, ("implies", "subtract"), pairs=True),
        lambda s: _ops(s, ("not", "conot")),
        lambda s: _checks(s, ("tight",)),
        lambda s: [[Cmd("export-dot", s, "subobject", subobject=a)
                    for a in operands(s)]])
    return big + trees + trees + pentagon + small


def all_commands() -> list[Cmd]:
    seen = {}
    for cls in classes():
        for cmd in cls:
            seen[cmd.key] = cmd
    return list(seen.values())


# -- operand files -------------------------------------------------------------


def random_family(lib, poset, density, rng):
    """A random clopen subobject through the public API.

    Contexts are visited largest first; each keeps the restrictions of the
    points chosen above it (so the family is monotone) and adds each other
    atom with probability ``density``.
    """
    import biheyt
    order = sorted(range(len(poset.contexts)),
                   key=lambda i: (-len(poset.contexts[i].elements),
                                  poset.contexts[i].id))
    chosen = {}
    for i in order:
        need = {biheyt.restrict(poset, pt, i).atom
                for w in poset.up_indices(i) if w != i for pt in chosen[w]}
        chosen[i] = [pt for pt in biheyt.spectrum(poset, i)
                     if pt.atom in need or rng.random() < density]
    label = poset.structure.label
    return lib.make_subobject(poset, {
        poset.contexts[i].id: label(biheyt.alpha_inv(
            poset, i, [pt.atom for pt in pts]))
        for i, pts in chosen.items()})


def operand_subobject(lib, poset, name):
    kind, _, rest = name.partition(":")
    if kind == "das":
        return lib.daseinise(poset, rest)
    density, seed = rest.split(":")
    return random_family(lib, poset, float(density), random.Random(int(seed)))


def build_structure(lib, source, inputs=()):
    """The structure a command reads, built the way the CLI builds it."""
    if source in inputs:
        return lib.validate(inputs[source])
    if source == "cabello18":
        return lib.generate("cabello18")
    name, _, n = source.partition(":")
    return lib.generate(name, int(n))


def poset_of(lib, structure):
    """Enumerate contexts, then build the poset again from them; the second
    build is what ``contexts.poset_init`` times."""
    contexts = lib.enumerate_contexts(structure).contexts
    lib.count("contexts.count", len(contexts))
    return lib.ContextPoset(structure, contexts)


def write_inputs(lib, directory, structures):
    """Write input and operand files; return ``path(structure[, operand])``."""
    inputs = input_files()
    paths = {}
    for s, raw in inputs.items():
        paths[(s, None)] = directory / f"{s}.json"
        paths[(s, None)].write_text(lib.canonical_json(raw) + "\n")
    for s in structures:
        poset = poset_of(lib, build_structure(lib, s, inputs))
        for name in operands(s):
            p = directory / f"{s.replace(':', '_')}__{name.replace(':', '_')}.json"
            p.write_text(lib.subobject_to_json(
                operand_subobject(lib, poset, name)) + "\n")
            paths[(s, name)] = p
    return lambda s, o=None: str(paths[(s, o)])


# -- replay: the same work as a command, through the library -------------------


def replay(lib, cmd: Cmd, path, inputs) -> str:
    """Compute a command's stdout from public library calls.

    Mirrors the CLI's handlers so the traced run can split a command's time
    into layer spans; the caller compares the text with the CLI's stdout.
    """
    import biheyt
    st = build_structure(lib, cmd.source, inputs)
    poset = lib.enumerate_contexts(st)
    lib.count("contexts.count", len(poset.contexts))
    label = st.label

    def sub(name):
        with open(path(cmd.source, name), encoding="utf-8") as fh:
            return lib.make_subobject(poset, json.load(fh))

    c, what = cmd.command, cmd.what
    if c == "validate":
        return lib.canonical_json({
            "atoms": len(st.atoms()), "blocks": len(st.blocks),
            "contexts": len(poset.contexts), "elements": st.n,
            "kind": st.kind, "valid": True})
    if c == "contexts" and "dot" in cmd.flags or c == "export-dot" and what == "contexts":
        return lib.contexts_dot(poset)
    if c == "contexts":
        rows = [{"atoms": [label(a) for a in x.atoms], "id": x.id}
                for x in poset.contexts]
        return lib.canonical_json({"contexts": rows, "count": len(rows)})
    if c == "spectrum":
        return lib.canonical_json({x.id: [label(a) for a in x.atoms]
                                   for x in poset.contexts})
    if c == "das":
        return lib.subobject_to_json(lib.daseinise(poset, st.el(cmd.element)))
    if c == "export-dot":
        return lib.subobject_dot(sub(cmd.subobject))
    if c == "op":
        s = sub(cmd.subobject)
        oracle = "--oracle" in cmd.flags
        if what in ("meet", "join", "implies", "subtract"):
            t = sub(cmd.subobject2)
            if what == "meet":
                out = lib.meet([s, t])
            elif what == "join":
                out = lib.join([s, t])
            elif what == "implies":
                out = (lib.brute_heyting_implies(s, t) if oracle
                       else lib.heyting_implies(s, t))
            else:
                out = (lib.brute_coheyting_subtract(s, t) if oracle
                       else lib.coheyting_subtract(s, t))
        else:
            co = what == "conot" or "--coheyting" in cmd.flags
            if oracle:
                out = lib.brute_negations(s)[1 if co else 0]
            else:
                out = lib.coheyting_not(s) if co else lib.heyting_not(s)
        return lib.subobject_to_json(out)
    if c == "check" and what == "laws":
        # enumerate here, so the spans time it; the oracle then hits the cache
        subs = lib.enumerate_subobjects(poset)
        lib.count("presheaf.subobjects", len(subs))
        report = lib.check_adjunctions(poset)
        lib.count("oracle.triples", report.triples_checked)
        payload = {"adjunctions": report.to_json(), "oracle": None}
        if "--oracle" in cmd.flags:
            payload["oracle"] = oracle_comparison(lib, poset)
        return lib.canonical_json(payload)
    if c == "check":
        fn = {"regular": lib.is_heyting_regular,
              "coregular": lib.is_coheyting_regular,
              "tight": lib.is_tight}[what]
        return lib.canonical_json({"check": what,
                                   "result": fn(sub(cmd.subobject))})
    if c == "sections":
        secs = lib.global_sections(poset)
        lib.count("presheaf.sections", len(secs))
        if "--list" in cmd.flags:
            with lib.tracer.span("presheaf.to_mapping"):
                rows = [g.to_mapping() for g in secs]
            return lib.canonical_json({"count": len(secs), "sections": rows})
        return lib.canonical_json({"count": len(secs)})
    if c == "enumerate":
        subs = lib.enumerate_subobjects(poset, limits=biheyt.DEFAULT_LIMITS)
        lib.count("presheaf.subobjects", len(subs))
        if "--list" in cmd.flags:
            with lib.tracer.span("presheaf.to_mapping"):
                rows = [s.to_mapping() for s in subs]
            return lib.canonical_json({"count": len(subs), "subobjects": rows})
        return lib.canonical_json({"count": len(subs)})
    raise ValueError(f"no replay for {cmd.key}")


def oracle_comparison(lib, poset) -> dict:
    """``check laws --oracle``'s comparison, from public functions."""
    subs = lib.enumerate_subobjects(poset)
    mismatches = 0
    first = None
    for s in subs:
        neg, coneg = lib.brute_negations(s)
        for name, got, want in (("not", lib.heyting_not(s), neg),
                                ("conot", lib.coheyting_not(s), coneg)):
            if got != want:
                mismatches += 1
                if first is None:
                    first = {"op": name, "subobject": s.to_mapping()}
    pair_checks = 0
    for s in subs:
        for t in subs:
            pair_checks += 2
            for name, got, want in (
                    ("implies", lib.heyting_implies(s, t),
                     lib.brute_heyting_implies(s, t)),
                    ("subtract", lib.coheyting_subtract(s, t),
                     lib.brute_coheyting_subtract(s, t))):
                if got != want:
                    mismatches += 1
                    if first is None:
                        first = {"op": name, "subobject": s.to_mapping(),
                                 "other": t.to_mapping()}
    return {"first_mismatch": first, "mismatches": mismatches,
            "negation_checks": 2 * len(subs), "pair_checks": pair_checks,
            "passed": mismatches == 0}
