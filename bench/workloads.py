"""The four workloads: set-up, one round of fixed work, and the gates.

A workload's ``setup(lib, seed)`` builds everything the timed work needs and
returns a state; ``round(state, lib, latencies)`` does the fixed amount of
work once, appending the start and end time of each call it makes into the
package, and returns records; ``check(state, records)`` runs the correctness gates on them
outside the timed region and returns ``(attempted, failed)`` ops.  Each
workload is one closed-loop client: a single thread issuing each call after
the previous one returns.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import biheyt

import catalogue

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@functools.cache
def expected():
    """Exit codes and digests recorded by ``record_expected.py``."""
    return json.loads(EXPECTED_PATH.read_text())


@dataclass(frozen=True)
class Scale:
    """Sizes of a run; ``TINY`` is for the benchmark's own tests."""

    # set-ups per run; those of a few milliseconds need many for a steady
    # median
    setups: dict = field(default_factory=lambda: {
        "enum_b4": 41, "algebra_mix": 5, "cli_mix": 5, "laws_oracle": 41})
    import_samples: int = 15
    cold_samples: int = 9   # cli_mix only
    enum_structure: str = "boolean:4"
    # the default max_subobjects (1,000,000) is below boolean:4's 1,294,249
    enum_limits: biheyt.Limits = biheyt.Limits(max_subobjects=1_300_000)
    algebra_structures: tuple[str, str] = ("boolean:6", "cabello18")
    random_operands: int = 8
    tiny_cli: bool = False
    laws_structures: tuple[str, ...] = ("boolean:3", "mo:3")


FULL = Scale()
TINY = Scale(setups=dict.fromkeys(FULL.setups, 2), import_samples=2,
             cold_samples=1, enum_structure="boolean:3",
             enum_limits=biheyt.DEFAULT_LIMITS,
             algebra_structures=("boolean:3", "mo:3"), random_operands=3,
             tiny_cli=True, laws_structures=("mo:2",))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- enum_b4 ---------------------------------------------------------------------


class EnumB4:
    """All clopen subobjects of ``boolean:4``, on a fresh poset each round.

    The input is the fixed structure, so the seed changes nothing here.
    """

    def __init__(self, scale):
        self.scale = scale

    def setup(self, lib, seed):
        st = catalogue.build_structure(lib, self.scale.enum_structure)
        return {"structure": st, "poset": catalogue.poset_of(lib, st),
                "limits": self.scale.enum_limits,
                "expected": expected()["enumerate"][self.scale.enum_structure]}

    def round(self, state, lib, latencies):
        poset = lib.ContextPoset(state["structure"], state["poset"].contexts)
        t0 = perf_counter()
        subs = lib.enumerate_subobjects(poset, limits=state["limits"])
        latencies.append((t0, perf_counter()))
        lib.count("presheaf.subobjects", len(subs))
        return subs

    def ops(self, state):
        return state["expected"]["count"]

    def check(self, state, subs):
        want = state["expected"]
        ok = len(subs) == want["count"] and order_digest(subs) == want["sha256"]
        return want["count"], 0 if ok else want["count"]

    def info(self, state, records):
        count = state["expected"]["count"]
        return {"subobjects": count, "headroom": {
            "max_subobjects_used": count / state["limits"].max_subobjects,
            "max_subobjects_default":
                count / biheyt.DEFAULT_LIMITS.max_subobjects}}


def order_digest(subs) -> str:
    """sha256 of the packed bits of every subobject, in canonical order."""
    if not subs:
        return hashlib.sha256().hexdigest()
    width = (subs[0].poset.total_bits + 7) // 8
    return hashlib.sha256(b"".join(s.bits.to_bytes(width, "little")
                                   for s in subs)).hexdigest()


# -- algebra_mix -----------------------------------------------------------------

# One round per structure: (group, operand classes, copies).  A group's ops
# share their operand, so the gates can compare them with each other:
# "pred" = tight, regular, coregular, dnot, dconot; "neg" = not, conot.
# Classes: D = daseinisation image (tight, so the predicates scan every
# context), R = random family (not tight, they exit early), E = result of
# an earlier op.  Copies None: once per daseinisation image, in a seeded
# order.  Their cost depends on the element (is_tight takes 10-28 ms on
# boolean:6), so taking every image keeps a round's work, p50 (inside the
# other predicates on them) and p99 (inside tight on them) the same for
# every seed.
MIX = {
    "lattice": [("pred", "D", None), ("pred", "R", 3), ("neg", "D", 1),
                ("neg", "R", 1), ("neg", "E", 2), ("implies", "DD", 2),
                ("implies", "RR", 2), ("implies", "ED", 2),
                ("implies", "ER", 2), ("subtract", "DD", 2),
                ("subtract", "RE", 4), ("meet", "DR", 3), ("meet", "EE", 3),
                ("join", "DR", 3), ("join", "ER", 3), ("das", "", 6)],
    "other": [("pred", "R", 4), ("neg", "R", 2), ("neg", "E", 2),
              ("implies", "RR", 3), ("implies", "ER", 3),
              ("subtract", "RR", 3), ("subtract", "ER", 3),
              ("meet", "RE", 3), ("meet", "RR", 3), ("join", "RE", 3),
              ("join", "RR", 3)],
}
GROUPS = {"pred": ("tight", "regular", "coregular", "dnot", "dconot"),
          "neg": ("not", "conot")}
SUBOBJECT_OPS = {"implies", "subtract", "not", "conot", "dnot", "dconot",
                 "meet", "join", "das"}


class AlgebraMix:
    """A seeded stream of algebra calls on ``boolean:6`` and ``cabello18``."""

    def __init__(self, scale):
        self.scale = scale

    def setup(self, lib, seed):
        rng = random.Random(f"algebra_mix:{seed}")
        structures = []
        for spec in self.scale.algebra_structures:
            st = catalogue.build_structure(lib, spec)
            poset = catalogue.poset_of(lib, st)
            das = {}
            if st.kind == biheyt.LATTICE:
                das = {st.label(e): lib.daseinise(poset, e)
                       for e in range(st.n)}
            densities = (0.02, 0.1, 0.3, 0.6)
            rand = [catalogue.random_family(lib, poset, densities[k % 4], rng)
                    for k in range(self.scale.random_operands)]
            structures.append({"poset": poset, "das": das, "rand": rand,
                               "top": (1 << poset.total_bits) - 1})
        return {"structures": structures, "stream": self._stream(structures, rng)}

    def _stream(self, structures, rng):
        """Ops of one round as (structure, op, operand refs, element)."""
        stream = []
        for x, s in enumerate(structures):
            mix = MIX["lattice" if s["das"] else "other"]
            results = 0
            images = sorted(s["das"])
            rng.shuffle(images)
            groups = [(group, classes) for group, classes, copies in mix
                      for _ in range(copies or 0)]
            groups += [("pred", (("D", e),)) for e in images]
            rng.shuffle(groups)
            for group, classes in groups:
                if group == "das":
                    element = rng.choice(sorted(s["das"]))
                    stream.append((x, "das", (), element))
                    results += 1
                    continue
                refs = tuple(c if isinstance(c, tuple) else
                             self._ref(c, s, results, rng) for c in classes)
                for op in GROUPS.get(group, (group,)):
                    stream.append((x, op, refs, None))
                    results += op in SUBOBJECT_OPS
        # keep each structure's own order, interleave the two at random
        order = [x for x, *_ in stream]
        rng.shuffle(order)
        queues = {x: iter([o for o in stream if o[0] == x])
                  for x in range(len(structures))}
        return [next(queues[x]) for x in order]

    @staticmethod
    def _ref(cls, s, results, rng):
        if cls == "D":
            return ("D", rng.choice(sorted(s["das"])))
        if cls == "E" and results:
            return ("E", rng.randrange(results))
        return ("R", rng.randrange(len(s["rand"])))

    def round(self, state, lib, latencies):
        ops = {"implies": lib.heyting_implies,
               "subtract": lib.coheyting_subtract,
               "not": lib.heyting_not, "conot": lib.coheyting_not,
               "dnot": lib.double_heyting_not,
               "dconot": lib.double_coheyting_not,
               "regular": lib.is_heyting_regular,
               "coregular": lib.is_coheyting_regular,
               "tight": lib.is_tight}
        results = [[] for _ in state["structures"]]
        records = []
        tracer = lib.tracer
        for k, (x, op, refs, element) in enumerate(state["stream"]):
            s = state["structures"][x]
            args = [s["das"][r] if c == "D" else
                    results[x][r] if c == "E" else s["rand"][r]
                    for c, r in refs]
            tracer.op = k
            t0 = perf_counter()
            if op == "das":
                out = lib.daseinise(s["poset"], element)
            elif op in ("meet", "join"):
                out = (lib.meet if op == "meet" else lib.join)(args)
            else:
                out = ops[op](*args)
            latencies.append((t0, perf_counter()))
            if op in SUBOBJECT_OPS:
                results[x].append(out)
            records.append((x, op, element, args, out))
        tracer.op = None
        return records

    def ops(self, state):
        return len(state["stream"])

    def check(self, state, records):
        failed = 0
        memo = {}
        for x, op, element, args, out in records:
            seen = memo.setdefault((x, args[0].bits), {}) if args else {}
            failed += not law_holds(op, element, args, out,
                                    state["structures"][x], seen)
        return len(records), failed

    def info(self, state, records):
        return {"ops_per_round": len(state["stream"]),
                "das_images": [len(s["das"]) for s in state["structures"]]}


def law_holds(op, element, args, out, s, seen) -> bool:
    """A law the result must satisfy, cheaper than the op itself.

    ``seen`` holds earlier results for the same first operand, so results
    that share an operand are checked against each other.
    """
    top = s["top"]
    if op == "das":
        st = s["poset"].structure
        other = s["das"][st.label(st.ortho_of(element))]
        return out == s["das"][element] and out.bits | other.bits == top
    a = args[0]
    if op in ("meet", "join"):
        b = args[1]
        if op == "meet":
            return out.bits & ~a.bits == 0 and out.bits & ~b.bits == 0
        return a.bits & ~out.bits == 0 and b.bits & ~out.bits == 0
    if op == "implies":
        return a.bits & out.bits & ~args[1].bits == 0
    if op == "subtract":
        return a.bits & ~(args[1].bits | out.bits) == 0
    seen[op] = out
    ok = True
    if op == "not":
        ok = a.bits & out.bits == 0
    elif op == "conot":
        ok = a.bits | out.bits == top
    elif op == "dnot":
        ok = a.bits & ~out.bits == 0
    elif op == "dconot":
        ok = out.bits & ~a.bits == 0
    g = seen.get
    if "not" in seen and "conot" in seen:
        ok &= g("not").bits & ~g("conot").bits == 0
    if g("tight") is True:
        ok &= g("regular") is not False and g("coregular") is not False
    if "regular" in seen and "dnot" in seen:
        ok &= g("regular") == (g("dnot") == a)
    if "coregular" in seen and "dconot" in seen:
        ok &= g("coregular") == (g("dconot") == a)
    return ok


# -- cli_mix and laws_oracle -----------------------------------------------------


def run_cli(lib, cmd, path):
    """One in-process ``cli.run``; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli_run[cmd.command](cmd.argv(path))
    return rc, out.getvalue()


class CliMix:
    """A seeded in-process ``cli.run`` loop over all nine subcommands."""

    def __init__(self, scale, workdir):
        self.scale = scale
        self.workdir = workdir

    def setup(self, lib, seed):
        rng = random.Random(f"cli_mix:{seed}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        classes = catalogue.classes(tiny=self.scale.tiny_cli)
        round_ = [rng.choice(cls) for cls in classes]
        rng.shuffle(round_)
        path = catalogue.write_inputs(lib, self.workdir,
                                      catalogue.OPERAND_STRUCTURES)
        return {"round": round_, "path": path,
                "inputs": catalogue.input_files()}

    def round(self, state, lib, latencies):
        records = []
        for k, cmd in enumerate(state["round"]):
            lib.tracer.op = k
            t0 = perf_counter()
            rc, out = run_cli(lib, cmd, state["path"])
            latencies.append((t0, perf_counter()))
            records.append((cmd, rc, out))
        lib.tracer.op = None
        return records

    def ops(self, state):
        return len(state["round"])

    def check(self, state, records):
        failed = sum(not cli_output_ok(cmd, rc, out)
                     for cmd, rc, out in records)
        return len(records), failed

    def replay(self, state, lib, records):
        """Each command of one round again, then through the library."""
        mismatched = 0
        for k, (cmd, _rc, out) in enumerate(records):
            lib.tracer.op = k
            run_cli(lib, cmd, state["path"])
            with lib.tracer.span(f"replay.{cmd.command}"):
                text = catalogue.replay(lib, cmd, state["path"],
                                        state["inputs"])
            text += "" if text.endswith("\n") else "\n"
            lib.count("serialize.bytes_out", len(text))
            mismatched += text != out
        lib.tracer.op = None
        return mismatched

    def info(self, state, records):
        counts = [json.loads(out)["count"] for cmd, rc, out in records
                  if cmd.command == "enumerate" and rc == 0]
        limit = biheyt.DEFAULT_LIMITS.max_subobjects
        return {"commands_per_round": len(state["round"]),
                "headroom": {"max_subobjects_default":
                             max(counts, default=0) / limit}}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def cli_output_ok(cmd, rc, out) -> bool:
    want = expected()["cli"].get(cmd.key)
    return want is not None and [rc, sha256(out)] == want


class LawsOracle(CliMix):
    """``check laws --oracle`` on ``boolean:3`` and ``mo:3`` through
    ``cli.run``, each given as a Greechie input file with seeded labels."""

    def setup(self, lib, seed):
        rng = random.Random(f"laws_oracle:{seed}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        inputs, paths, round_ = {}, {}, []
        for spec in self.scale.laws_structures:
            name, _, n = spec.partition(":")
            labels = rng.sample([f"{a}{b}" for a in "uvwxyz" for b in "klmn"],
                                2 * int(n))
            blocks = ([labels[:int(n)]] if name == "boolean" else
                      [labels[2 * i:2 * i + 2] for i in range(int(n))])
            raw = {"format": "greechie", "blocks": blocks}
            catalogue.poset_of(lib, lib.validate(raw))
            source = f"{spec} relabelled"
            inputs[source] = raw
            paths[source] = self.workdir / f"{name}{n}.json"
            paths[source].write_text(lib.canonical_json(raw) + "\n")
            round_.append(catalogue.Cmd("check", source, "laws",
                                        flags=("--oracle",)))
        rng.shuffle(round_)
        return {"round": round_, "inputs": inputs,
                "path": lambda s, o=None: str(paths[s])}

    def check(self, state, records):
        failed = 0
        for cmd, rc, out in records:
            want = expected()["laws"][cmd.source]
            ok = [rc, sha256(out)] == want
            if ok:
                report = json.loads(out)
                ok = (report["adjunctions"]["passed"] is True
                      and report["oracle"]["passed"] is True)
            failed += not ok
        return len(records), failed

    def info(self, state, records):
        subs = max(json.loads(out)["adjunctions"]["subobjects"]
                   for _cmd, _rc, out in records)
        return {"commands_per_round": len(state["round"]),
                "headroom": {"max_subobjects_default":
                             subs / biheyt.DEFAULT_LIMITS.max_subobjects}}
