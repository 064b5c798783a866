"""Bi-Heyting algebra of clopen subobjects of the spectral presheaf.

Finite orthomodular lattices (Boolean cubes, horizontal sums) and Greechie
pastings of Boolean blocks, which need not be orthomodular, are turned into
their poset of Boolean subalgebra contexts; clopen subobjects of the
resulting spectral presheaf form a complete bi-Heyting algebra with Heyting
implication/negation, co-Heyting subtraction/negation, and outer
daseinisation mapping lattice elements into it.
"""
from .biheyting import (bottom, coheyting_not, coheyting_subtract,
                        double_coheyting_not, double_heyting_not,
                        heyting_implies, heyting_not, is_coheyting_regular,
                        is_heyting_regular, is_tight, join, meet, top)
from .contexts import (Context, ContextPoset, delta, delta_global,
                       enumerate_contexts, maximal_above, minimal_below)
from .daseinisation import daseinise
from .errors import (BiheytError, DegenerateStructure,
                     InconsistentIdentification, NoLeastUpperWitness,
                     NotAPartialOrder, NotASubobject, OrthocomplementViolated,
                     OrthoNotInvolutive, OrthomodularityViolated,
                     PosetMismatch, SizeGuard, UnboundedPair, UsageError,
                     ValidationError)
from .limits import DEFAULT_LIMITS, Limits
from .oml import (CABELLO18_BLOCKS, LATTICE, PASTED, Block, OrthoStructure,
                  from_greechie, generate, validate)
from .oracle import (AdjunctionReport, brute_coheyting_subtract,
                     brute_heyting_implies, brute_negations, check_adjunctions,
                     restriction_image_projection)
from .presheaf import (ClopenSubobject, GlobalSection, SpectrumPoint, alpha,
                       alpha_inv, enumerate_subobjects, global_sections,
                       make_subobject, restrict, spectrum)
from .serialize import (builtin_structure, canonical_json, contexts_dot,
                        subobject_dot, subobject_from_mapping,
                        subobject_to_json)

__version__ = "0.1.0"

__all__ = [
    "AdjunctionReport", "BiheytError", "Block", "CABELLO18_BLOCKS",
    "ClopenSubobject", "Context", "ContextPoset", "DEFAULT_LIMITS",
    "DegenerateStructure", "GlobalSection", "InconsistentIdentification",
    "LATTICE", "Limits", "NoLeastUpperWitness", "NotAPartialOrder",
    "NotASubobject", "OrthoNotInvolutive", "OrthoStructure",
    "OrthocomplementViolated", "OrthomodularityViolated", "PASTED",
    "PosetMismatch", "SizeGuard", "SpectrumPoint", "UnboundedPair",
    "UsageError", "ValidationError", "alpha", "alpha_inv", "bottom",
    "brute_coheyting_subtract", "brute_heyting_implies", "brute_negations",
    "builtin_structure", "canonical_json", "check_adjunctions",
    "coheyting_not", "coheyting_subtract", "contexts_dot", "daseinise",
    "delta", "delta_global", "double_coheyting_not", "double_heyting_not",
    "enumerate_contexts", "enumerate_subobjects", "from_greechie", "generate",
    "global_sections", "heyting_implies", "heyting_not",
    "is_coheyting_regular", "is_heyting_regular", "is_tight", "join",
    "make_subobject", "maximal_above", "meet", "minimal_below", "restrict",
    "restriction_image_projection", "spectrum", "subobject_dot",
    "subobject_from_mapping", "subobject_to_json", "top", "validate",
]
