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
    # the pins hash each _least entry as the element its atom mask names
    least = [{key: elems[m] for key, m in table.items()}
             for table, elems in zip(poset._least, poset._mask_to_elem)]
    text += [f"{name}={_canon(least if name == '_least' else getattr(poset, name))}"
             for name in _POSET_TABLES]
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


PINNED = {
    "boolean:2": "4db29db271ece1c999cfe952e65ff05ee3895290fb58ea80112d477257be81ac",
    "boolean:3": "af7f2cc74218d4d9fe1d68e3ae25beb0d6cc6a2e0859575f02114b38339a0907",
    "boolean:4": "0e7d70c8ba6a51249944f4d7cfdcb8accc1f990d5c542ba5ecf30d716be8e3c4",
    "boolean:5": "94931216400314024e9996afcfdc19d272e2cb44bde9ce143e2939d448f1dd37",
    "boolean:6": "0189c852e994b534e0068e8fd36b33e517c4a9600d1cc4cdd97844900855cd54",
    "boolean:7": "14712eadc87a023fe52c000423865db9ee3666d8f139d11eb22ca3dd8d838171",
    "boolean:8": "5a0a54b64d7e1d0658a3a6626a2027fd06ae2560e8ecaf05fb47780b8c3ae143",
    "mo:1": "9636a613bcf713406d16ed63abb1ce215c569389906feb1d91ab3310b5939315",
    "mo:2": "4b25b016834122520a81f33a1fed0c57cee8adbcce023ddfa0cae7d03f3e1ba5",
    "mo:3": "78856a00ddea5d675670d545e1f8329040f94faeb05687505fd0fcfdab467a5a",
    "mo:4": "14a994a56e296ab5ea283d7cf9341dec1cc39db86f5b0ea537b3308fd9515704",
    "mo:5": "ef1bcb45618e6711ec46d39d460df08adc8b970902e9baeddcb2916a8373cba3",
    "mo:6": "2e41f1155070c1a0201a11729ef262195bf7a4fe6b97e16f323558637413ea96",
    "mo:7": "e8c2a3f6b1b0924304ce512134bd7915b2c969175058f5839b085f1153ccd274",
    "mo:8": "64a878ea03d47ae3d96eef241525d11befa5941286b890b6807f1fccb3f0273e",
    "mo:9": "87dd3a3c7473dcefbf664f280b034386885dbc96fd89d266d5da11b5eca8cc6e",
    "mo:10": "4f9c7f922f82d89c73afec5ecd6bf629eb93522f46cf9de227a908fa1d7a5b36",
    "mo:11": "df2ffdfc9a43b0c2375fd7ee5291dc0ae689f250f8c039f8f5239f879bd363ff",
    "mo:12": "5ba5bb1ed333a7722b5b01d06e88b27251cb9fbcf40b6c748d268f58d54c6853",
    "mo:13": "a105602b318846ebab90981a951ab19b183420c76195545f2039d86cbeca81f9",
    "mo:14": "c1f7c584950db7c0fb0185db354c2750562ca83316224247920abf9e1487612a",
    "mo:15": "bb9ea2991f9fd00e58fa4e030d5f068f8c1c7b9707399f930531c011ba337cd1",
    "mo:16": "c5050676410f368d21de35dac73a1736d5c99de492a4273f8f57049d8d135340",
    "mo:17": "b8e639a8e85d1479b7ead58ac7558a9b040dc5a302a040a0ead05ca7638a2a43",
    "mo:18": "36ee208bce69ecc6ab56761921005907f89bac7d37d1824eb2041c395c3dc08d",
    "mo:19": "347827210bcef92a3a585411fa867dacac1e547e81f8285b3b83ad0f3aeb19f7",
    "mo:20": "5deae4c462968390d317d3c3a4937d89959d8ac130277dffb48cd6074add0e47",
    "mo:21": "ad28ddf677979652c1dedf9955fa29888cfe95efd126c9630859aa376333e74f",
    "mo:22": "dc84b3dbd876fcda756781e35f95979a67ea5fe421616b8330b726b47deab288",
    "mo:23": "ca81dfd5c90c4213e6edc4a9d00960d4319461317789c5b5cfe121f1d75b1f22",
    "mo:24": "927611caaa6fca2f6761b61ae4df7b2480e17d9b92643ea68d33d3aa218cb5d9",
    "mo:25": "d252d4d1cc33c6221f0afc9bdd1700a54b13d0e8c2c5625ccaeda6c88985cd86",
    "mo:26": "7e56efc7f56e54eb07de2d1f7c9cb33a042d3b73e6f9bd902dd4f2abf75944f1",
    "cabello18": "f54a0099fc44456c8dd6909fb6e5d3a1c212738988b76dc80d062a8397ac0339",
    "pentagon": "b9c8636acd405179ba5364618f8b99356c5d134a25f7c050b9045d63fb01b980",
    "four-loop": "bd9913bc01ce8d65b8122111ac0a95ad4c13d56d30286834d2f4d171ec811305",
    "triangle": "4e7eaf1739af19493b730d2c2662be94fb67f92f2807d446eab5a3fd38ea1bd9",
    "chain1": "02337b4e7c25ba56e61f92d158649a42229c3cda0017bbc560904036ccd174f8",
    "chain2": "c0d32ebba29d6fe00532e5cc0a49a300222bf0a3dd533b0739e14ad44aafe610",
    "chain3": "076add7861188a46258fa6f7aa7740cc9512db3106bfd1ae28e80a568d875d95",
    "chain10": "a6ac0541164061095124c1ad97b3f160459d53402454a3498fa3772b34d6bc4a",
    "chain100": "5f8ff7fb0f91d27f69266590c110bf9e53cd14951f0c62098407c3d6fc4ee144",
    "trees": "866d6d54c2077073d500057e4c34bcf565fffcd3cb15009418ae47b887b65dca",
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
