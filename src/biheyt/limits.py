"""Configurable bounds for the exhaustive algorithms.

Everything in this package enumerates finite sets whose sizes can explode
combinatorially; each entry point takes a ``Limits`` and raises ``SizeGuard``
instead of hanging.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_subobjects: int = 1_000_000
    search_budget: int = 10_000_000
    max_contexts: int = 10_000


DEFAULT_LIMITS = Limits()
