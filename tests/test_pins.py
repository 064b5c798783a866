"""Pinned tables, pasting errors and refusals.

Each structure's slots and each context poset's tables are reduced to one
sha256, recorded from the label-level pasting and parse that the index-level
ones replaced, so a rewrite of ``oml`` or ``contexts`` must reproduce them
exactly.  Mappings are hashed as sorted items and sets as sorted members, so
the digests pin what the tables say, not how a dict was filled.  The tree
pastings are every draw ``test_oml.tree_pasting`` can make, enumerated.
"""
import hashlib
import itertools

import pytest

from biheyt import (BiheytError, DegenerateStructure,
                    InconsistentIdentification, NotAPartialOrder,
                    OrthocomplementViolated, OrthoNotInvolutive, PosetMismatch,
                    UnboundedPair, UsageError, daseinise, enumerate_contexts,
                    from_greechie, generate, make_subobject, meet,
                    subobject_from_mapping, top, validate)

PENTAGON = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
            ["g", "h", "i"], ["i", "j", "a"]]
FOUR_LOOP = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"], ["g", "h", "a"]]
TRIANGLE = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "a"]]


def chain_pasting(blocks):
    return [[f"x{k:04d}", f"y{k:04d}", f"x{k + 1:04d}"] for k in range(blocks)]


def tree_pastings():
    """Every block list ``test_oml.tree_pasting`` can draw, in a fixed order."""
    for k in range(2, 5):
        yield [[f"a{i}" for i in range(k)]]
    for count in (2, 3):
        for sizes in itertools.product((3, 4), repeat=count):
            choices = [range(size) for size in sizes[:-1]]
            for picks in itertools.product(*choices):
                fresh = iter(f"a{i}" for i in range(20))
                blocks = [[next(fresh) for _ in range(sizes[0])]]
                for size, pick in zip(sizes[1:], picks):
                    blocks.append([blocks[-1][pick]]
                                  + [next(fresh) for _ in range(size - 1)])
                yield blocks


def _canon(x):
    """A text form that depends on the value only."""
    if isinstance(x, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}"
                              for k, v in sorted(x.items())) + "}"
    if isinstance(x, (set, frozenset)):
        return "s(" + ",".join(map(_canon, sorted(x))) + ")"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(map(_canon, x)) + ")"
    if isinstance(x, (int, str)) or x is None:
        return repr(x)
    if hasattr(x, "atoms") and hasattr(x, "elements"):   # Block or Context
        return _canon((getattr(x, "id", None), x.atoms, x.elements))
    raise TypeError(type(x))


def _structure_text(st):
    parts = []
    for name in type(st).__slots__:
        value = getattr(st, name)
        if name == "_block_joins":   # a join table is a map from all masks
            value = [[joins[m] for m in range(1 << len(b.atoms))]
                     for joins, b in zip(value, st.blocks)]
        parts.append(f"{name}={_canon(value)}")
    return "\n".join(parts)


_POSET_TABLES = ("_by_id", "_elements", "_offsets", "total_bits", "_full",
                 "_elem_mask", "_mask_to_elem", "_least", "_shift", "_below",
                 "_above", "minimal", "maximal")


def _digest(st):
    poset = enumerate_contexts(st)
    text = [_structure_text(st), _canon([c.id for c in poset.contexts]),
            _canon(poset.contexts)]
    text += [f"{name}={_canon(getattr(poset, name))}" for name in _POSET_TABLES]
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


PINNED = {
    "boolean:2": "8c5fa66a084946736eaa2e48817bf773fcb0f024d18420ec22d9bcc1dac0f822",
    "boolean:3": "b762201e7eed436ea6b6736dc909234e0128a9cd600487c6aca1d62aaf2db778",
    "boolean:4": "2b6c86bff0d832d5e0b4174982be0eee1432d7809253128144f70f7aaf2d601a",
    "boolean:5": "f949df811e25f6f7bfa2f0275d083c2440ea619c73503c5eeeae8da8aaf5a6a6",
    "boolean:6": "8aed87ff3fed1120679cadbc29f57680285dae0b5c61d6d6f644a60722abd641",
    "boolean:7": "b495825163896fd98994bad8f6d9d611124447c2e6f8c900f163f8b9e0dad423",
    "boolean:8": "42de2e2cd0a86847b6b20ed727e08363f66792618761b6dc32c11d1e04a466ed",
    "mo:1": "e9dd4d5ddb6cbba671e3275ab6e97f4c9a6764f3a2b0a7f3cc59b181908a09d0",
    "mo:2": "5b63352f2e13b4eff4086b0b3aa5a8a58d8d6d0922358cfb91dcf5bfac948b92",
    "mo:3": "04f68507644875887d9f3a12b83c7b2de53c34db7fb305fc08969426c2ed1e04",
    "mo:4": "366a060a0a3084c17402a391fbb351bf1e27e8f188fa8a15ff01b5a12e006c71",
    "mo:5": "c42edbbafd618303c81c78061b03d5763dbaa5d9ac363e926351d6927cbadd44",
    "mo:6": "bb1159c9984995813a543342e09d1703c64500f10968149c2a850a988f29f1a8",
    "mo:7": "2ba99784e6a97b6f1ccec1a1e6e513e76eabfb7259667d48a2eb704e6bc12cab",
    "mo:8": "2f5fc8f27828c8f6358bfb40b943b62cb1ca6b1e0adaf70ac79804c8430cf0f8",
    "mo:9": "05ad46b0c63f719b166ddf5de3035e0e1850ba5b4e48db7aa900b169365f2c97",
    "mo:10": "6ea4df8e82ccd779f77f95be4efd431de6e7143d67b4b35e109d588b9a67e8e7",
    "mo:11": "03ddcc21328ae8c0be57b3d678dd5ec3ef07bc1fa4743da0de2f47eee4b41c4a",
    "mo:12": "5aeafb39dea8ee325a7626e99a47b8059815e3282a8604def3bb9552c0d09594",
    "mo:13": "4f5c8e9be189e90389825206ccef3d6104d90499e9df67d5c9ba7ccba468d351",
    "mo:14": "ccf88fd9ca8f161f79d5cf22c4408a8f6e444b330b482b4e980970e198caaa40",
    "mo:15": "86c6a514fc3306338ee36806440e3443e6f6a1f3617cb6823ec80ef8d7b1ec3f",
    "mo:16": "6fc6fec81972e843e768b45f93ab0e5c9d541946ffdccee2d7a3c684fd646b5e",
    "mo:17": "4df1eb25304b32261f16bf88be308eaaed1e624fb59dc69b7bfa93eb467c27b9",
    "mo:18": "382f0b845c38d5b7acf41cd2a2e6467e26e43fd398e3331595a5560b249c0c3f",
    "mo:19": "a52a4f0e0e4d342fafca21d08ba88c46658ca6c6a5203e4c5f1e261f8a12dc9c",
    "mo:20": "9fba69a591d26ca9f4af89397d3caeebd210027c33627428bda9dd82b645b6d3",
    "mo:21": "2d96480c40b3b0e823be484c48dfe4c86b85253b13e38b68248f5941e2daab6b",
    "mo:22": "3caad1783c83dba092667cf933f683133ffb9d5aa2489be774971b415134d1e7",
    "mo:23": "b73ef3806da60fb899cfc20cf6e68adf76908dd426a2a00cff4645acbf528786",
    "mo:24": "ba92d8322347188720249bf07bfa03cc80f8e5f00d594194731628054fdf8ace",
    "mo:25": "1033f63a596a622e9551b51ee7436081e01b4ebd36b86c67930de89b405347e3",
    "mo:26": "7c8d57180c77bc32b766dea97f2089e991793d6ef33135462eb54db736e96fef",
    "cabello18": "8323b4650c9821d6d511510442c4ab64b7480ce09ba695ab7d2d725bf5790e61",
    "pentagon": "3f0723e51f3639643babde3cd8c642989a0ca5f0aa75788000f764faadd747ce",
    "four-loop": "2f91896bb5652fbcf36d922cb2c2cea2d7ec57fb32a65f0a37b05b1dbd8b65b1",
    "triangle": "b8f7701d852ec9df0f17bbd39ace958e4643c3de86d8b1ee014b7495d3930d99",
    "chain1": "7fdcd55306c5b638b31f7379b8dbcfec50d816afc2f6e708dfa1bc1be4417d87",
    "chain2": "d4431d16daa196ab36f89c6251d1b5d2415c754236f096fe22f13bee638d07e1",
    "chain3": "3de8236de99abb63ff6500084b1f884a0754e507ae7df00a3fdfd5885f5622c1",
    "chain10": "415150e44824db04fe10d6a651b44ec9d40c074975895588fdcef584e4cb4126",
    "chain100": "255f001d3e8bc71c39cecdd1d01a08be5d82df97b63bb892e9c735b50d4f2d58",
    "trees": "30e5895a3eec6a4e033192e3a432a01f993abfaf2de38e27711ddd5b3a939f4c",
}


def _cases():
    for k in range(2, 9):
        yield f"boolean:{k}", lambda k=k: [generate("boolean", k)]
    for k in range(1, 27):
        yield f"mo:{k}", lambda k=k: [generate("mo", k)]
    yield "cabello18", lambda: [generate("cabello18")]
    for name, blocks in (("pentagon", PENTAGON), ("four-loop", FOUR_LOOP),
                         ("triangle", TRIANGLE)):
        yield name, lambda blocks=blocks: [from_greechie(blocks)]
    for k in (1, 2, 3, 10, 100):
        yield f"chain{k}", lambda k=k: [from_greechie(chain_pasting(k))]
    yield "trees", lambda: [from_greechie(b) for b in tree_pastings()]


def test_tree_pastings_cover_the_strategy():
    assert sum(1 for _ in tree_pastings()) == 3 + 2 * 7 + 2 * 7 * 7


@pytest.mark.parametrize("name, build", list(_cases()),
                         ids=[name for name, _ in _cases()])
def test_tables_match_their_pinned_digest(name, build):
    digest = hashlib.sha256()
    for st in build():
        digest.update(_digest(st).encode())
    assert digest.hexdigest() == PINNED[name]


@pytest.mark.parametrize("blocks, error, message, details", [
    ([["c", "f"], ["b", "e"], ["c", "b", "f", "e"]], InconsistentIdentification,
     "identification forces 0 = 1", {}),
    ([["a", "b"], ["a", "c"], ["b", "c"]], InconsistentIdentification,
     "identification merges two atoms of block ['a', 'b']", {}),
    ([["a", "b", "c"], ["b", "c", "d"], ["c", "d", "a"]],
     InconsistentIdentification,
     "identification merges two atoms of block ['a', 'b', 'c']", {}),
    ([["c", "e"], ["c", "a"], ["a", "e", "d", "b"]], InconsistentIdentification,
     "identification merges two atoms of block ['a', 'e', 'd', 'b']", {}),
    ([["a", "b"], ["a", "b", "c"]], InconsistentIdentification,
     "identification collapses atom 'c' onto a bound", {}),
    ([["b", "c", "a"], ["c", "a"]], InconsistentIdentification,
     "identification collapses atom 'b' onto a bound", {}),
    ([["a", "c", "b", "d"], ["a", "b"]], InconsistentIdentification,
     "order cycle: '0' <= 'c' <= '0'", {"witness": ["0", "c"]}),
    ([["d", "a"], ["e", "d", "b", "a"]], InconsistentIdentification,
     "order cycle: '0' <= 'e' <= '0'", {"witness": ["0", "e"]}),
    ([["h", "e", "d", "a"], ["e", "d"], ["a", "f"]], InconsistentIdentification,
     "order cycle: '0' <= 'h' <= '0'", {"witness": ["0", "h"]}),
    ([["a", "f", "e", "c"], ["a", "c"], ["b", "e"], ["f", "d"]],
     InconsistentIdentification,
     "order cycle: '0' <= 'f' <= '0'", {"witness": ["0", "f"]}),
    ([["c", "b"], ["d", "c", "e"], ["f", "e"], ["a", "f", "b"]],
     InconsistentIdentification,
     "order cycle: 'c' <= 'f' <= 'c'", {"witness": ["c", "f"]}),
    ([["a", "b"], ["a", "c", "d"]], InconsistentIdentification,
     "block ['a', 'b'] does not restrict to a Boolean algebra after "
     "identification", {"block": ["a", "b"]}),
    ([["a", "g", "e", "b"], ["g", "f"], ["f", "c", "d"]],
     InconsistentIdentification,
     "block ['a', 'b', 'e', 'g'] does not restrict to a Boolean algebra "
     "after identification", {"block": ["a", "b", "e", "g"]}),
    ([["a", "b", "c"], ["a", "b", "d"]], InconsistentIdentification,
     "block ['a', 'b', 'c'] collapsed into another block",
     {"block": ["a", "b", "c"]}),
    ([["b", "d"], ["d", "c"]], InconsistentIdentification,
     "block ['b', 'd'] collapsed into another block", {"block": ["b", "d"]}),
    ([["c", "d"], ["b", "f", "d"], ["c", "a", "f"]], OrthocomplementViolated,
     "'a+c' and its orthocomplement share lower bound 'f'",
     {"witness": ["a+c", "f"]}),
    ([["d", "a", "b"], ["g", "c", "b"], ["a", "c"]], OrthocomplementViolated,
     "'a' and its orthocomplement share lower bound 'b'",
     {"witness": ["a", "b"]}),
])
def test_pasting_errors_are_pinned(blocks, error, message, details):
    with pytest.raises(error) as info:
        from_greechie(blocks)
    assert type(info.value) is error
    assert (info.value.message, info.value.details) == (message, details)


B2 = {"elements": ["0", "a", "b", "1"],
      "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
      "ortho": {"0": "1", "1": "0", "a": "b", "b": "a"}}


def _explicit(**changes):
    return {"format": "oml-explicit", **B2, **changes}


CHAIN4 = [["0", "a"], ["a", "b"], ["b", "1"]]


@pytest.mark.parametrize("raw, error, message, details", [
    (_explicit(leq=B2["leq"] + [["a", "b"], ["b", "a"]]), NotAPartialOrder,
     "order cycle: 'a' <= 'b' <= 'a'", {"witness": ["a", "b"]}),
    (_explicit(elements=["b", "1", "0", "a"],
               leq=B2["leq"] + [["a", "b"], ["b", "a"]]), NotAPartialOrder,
     "order cycle: 'b' <= 'a' <= 'b'", {"witness": ["b", "a"]}),
    (_explicit(elements=["a", "b", "1"], leq=[["a", "1"], ["b", "1"]]),
     UnboundedPair, "no global bottom: 'a' and 'b' have no meet",
     {"witness": ["a", "b"]}),
    (_explicit(elements=["0", "a", "b"], leq=[["0", "a"], ["0", "b"]]),
     UnboundedPair, "no global top: 'a' and 'b' have no join",
     {"witness": ["a", "b"]}),
    (_explicit(elements=["0", "1"], leq=[["0", "1"]],
               ortho={"0": "1", "1": "0"}),
     DegenerateStructure, "no element outside {0, 1}", {}),
    (_explicit(elements=["0", "a", "a", "1"]), UsageError,
     "duplicate element label 'a'", {}),
    (_explicit(elements=["0", "a|c", "b", "1"]), UsageError,
     "element label 'a|c' contains reserved character '|'", {}),
    (_explicit(elements=["0", "", "b", "1"]), UsageError,
     "element labels must be nonempty strings", {}),
    (_explicit(leq=B2["leq"] + [["a", "z"]]), UsageError,
     "order pair ('a', 'z') references unknown label", {}),
    (_explicit(ortho={**B2["ortho"], "z": "a"}), UsageError,
     "ortho entry 'z': 'a' references unknown label", {}),
    (_explicit(ortho={"0": "1", "1": "0", "a": "b"}), UsageError,
     "ortho must map every element; missing 'b'", {}),
    (_explicit(ortho={"0": "1", "1": "0", "a": "b", "b": "b"}),
     OrthoNotInvolutive, "ortho(ortho('a')) = 'b'", {"witness": "a"}),
    (_explicit(leq=CHAIN4, ortho={"0": "1", "1": "0", "a": "a", "b": "b"}),
     OrthocomplementViolated, "ortho is not order-reversing on 'a' <= 'b'",
     {"witness": ["a", "b"]}),
    (_explicit(ortho={"0": "1", "1": "0", "a": "a", "b": "b"}),
     OrthocomplementViolated,
     "'a' and its orthocomplement share lower bound 'a'",
     {"witness": ["a", "a"]}),
], ids=["cycle", "cycle-in-input-order", "no-bottom", "no-top", "degenerate",
        "duplicate", "reserved", "empty", "unknown-pair", "unknown-ortho",
        "missing-ortho", "not-involutive", "not-order-reversing",
        "shared-lower-bound"])
def test_explicit_errors_are_pinned(raw, error, message, details):
    with pytest.raises(BiheytError) as info:
        validate(raw)
    assert type(info.value) is error
    assert (info.value.message, info.value.details) == (message, details)


def _element_past_the_end():
    structure = generate("mo", 2)
    structure.el(structure.n)


def _meet_on_another_poset():
    s = top(enumerate_contexts(generate("mo", 2)))
    meet([s], poset=enumerate_contexts(generate("mo", 2)))


def _context_named_twice(index_last):
    """boolean:3's image of p with its context 0, p+q|r, named again by
    index, after or before its id."""
    poset = enumerate_contexts(generate("boolean", 3))
    f = daseinise(poset, "p").to_mapping()
    make_subobject(poset, {**f, 0: "1"} if index_last else {0: "1", **f})


@pytest.mark.parametrize("call, error, message", [
    (lambda: from_greechie(["ab"]), UsageError,
     "each block must be a list of atom labels"),
    (lambda: from_greechie([["a", ""]]), UsageError,
     "atom labels must be nonempty strings"),
    (lambda: from_greechie([["a", 1]]), UsageError,
     "atom labels must be nonempty strings"),
    (lambda: generate("mo", 0), UsageError, "mo requires n >= 1"),
    (lambda: validate(_explicit(elements=[])), DegenerateStructure,
     "structure has no elements"),
    (_element_past_the_end, UsageError, "element index 6 out of range"),
    (_meet_on_another_poset, PosetMismatch,
     "subobjects belong to a different poset"),
    (lambda: subobject_from_mapping(enumerate_contexts(generate("mo", 2)), []),
     UsageError, "a subobject file must be an object mapping context id to "
     "element label"),
    (lambda: _context_named_twice(True), UsageError,
     "context 'p+q|r' assigned twice"),
    (lambda: _context_named_twice(False), UsageError,
     "context 'p+q|r' assigned twice"),
], ids=["block-not-a-list", "empty-atom-label", "atom-label-not-a-string",
        "mo-0", "no-elements", "element-index", "meet-poset",
        "subobject-not-an-object", "context-named-twice-index-last",
        "context-named-twice-index-first"])
def test_refusals_are_pinned(call, error, message):
    with pytest.raises(BiheytError) as info:
        call()
    assert type(info.value) is error
    assert info.value.message == message


def test_subobjects_and_structures_refuse_attribute_assignment():
    structure = generate("mo", 2)
    s = top(enumerate_contexts(structure))
    with pytest.raises(AttributeError, match="^ClopenSubobject is immutable$"):
        s.bits = 0
    with pytest.raises(AttributeError, match="^OrthoStructure is immutable$"):
        structure.n = 3
    assert s == top(s.poset) and structure.n == 6
