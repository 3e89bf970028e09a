"""Flat versus hierarchical vector quantization of compositional patterns.

Patterns are concatenations of two equal-length parts drawn from a small
alphabet of integer-valued vectors. A flat codebook stores every full
pattern; the hierarchical codebook stores the parts once plus a table of
(part, part) index pairs. Matching uses exact equality on the quantized
entries, so classification is a pure lookup in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DuplicateComposition, InvalidArgument, _index

NO_MATCH = None


def _as_key(v, what: str = "pattern entry") -> tuple:
    """v's entries as ints; InvalidArgument for a float (2.0 too), str or bool."""
    return tuple(_index(what, x) for x in np.asarray(v, dtype=object).ravel())


@dataclass(frozen=True)
class PatternFamily:
    """Distinct parts plus the (part, part) compositions that form patterns."""

    part_length: int
    parts: tuple  # of int tuples, each of length part_length
    compositions: tuple  # of (part_index, part_index)

    def __post_init__(self):
        length = _index("part_length", self.part_length, 1)
        object.__setattr__(self, "part_length", length)
        parts = tuple(_as_key(p) for p in self.parts)
        comps = tuple(_as_key(c, "composition index") for c in self.compositions)
        if len(set(parts)) != len(parts):
            raise DuplicateComposition("parts must be distinct")
        for p in parts:
            if len(p) != self.part_length:
                raise DimensionMismatch("part length mismatch")
        if any(len(c) != 2 for c in comps):
            raise DimensionMismatch("a composition is a (part, part) index pair")
        for i, j in comps:
            if not (0 <= i < len(parts) and 0 <= j < len(parts)):
                raise DuplicateComposition(f"composition ({i},{j}) references a missing part")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "compositions", comps)

    @property
    def full_length(self) -> int:
        return 2 * self.part_length

    def pattern(self, comp_index: int) -> tuple:
        i, j = self.compositions[comp_index]
        return self.parts[i] + self.parts[j]


@dataclass(frozen=True)
class VQCodebook:
    """One stored entry per full pattern."""

    entries: tuple  # of full-pattern tuples

    @property
    def full_length(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True)
class HVQCodebook:
    """Parts stored once; classes defined by a (part, part) index table."""

    part_entries: tuple
    composition_table: tuple

    @property
    def part_length(self) -> int:
        return len(self.part_entries[0])


def build_vq(family: PatternFamily) -> VQCodebook:
    """Materialize every composition as a full concatenated entry."""
    entries = tuple(family.pattern(k) for k in range(len(family.compositions)))
    if len(set(entries)) != len(entries):
        raise DuplicateComposition("two compositions produce the same pattern")
    return VQCodebook(entries=entries)


def build_hvq(family: PatternFamily) -> HVQCodebook:
    """Store the parts and the composition table without materializing patterns."""
    if len(set(family.compositions)) != len(family.compositions):
        raise DuplicateComposition("duplicate composition rows")
    return HVQCodebook(
        part_entries=family.parts, composition_table=family.compositions
    )


def memory_cost(codebook, index_weight: int = 1) -> int:
    """Stored scalars: full vectors for VQ, parts plus 2-index rows for HVQ."""
    index_weight = _index("index_weight", index_weight, 0)
    if isinstance(codebook, VQCodebook):
        return len(codebook.entries) * codebook.full_length
    return (
        len(codebook.part_entries) * codebook.part_length
        + len(codebook.composition_table) * 2 * index_weight
    )


def classify(codebook, x):
    """Class index of an exactly matching pattern, or NO_MATCH (None).

    VQ matches the whole vector against the entry list; HVQ matches each
    half against the part entries and then looks up the index pair.
    """
    key = _as_key(x)
    if isinstance(codebook, VQCodebook):
        if len(key) != codebook.full_length:
            raise DimensionMismatch("probe length differs from entry length")
        try:
            return codebook.entries.index(key)
        except ValueError:
            return NO_MATCH

    half = codebook.part_length
    if len(key) != 2 * half:
        raise DimensionMismatch("probe length differs from 2 x part length")
    try:
        i = codebook.part_entries.index(key[:half])
        j = codebook.part_entries.index(key[half:])
        return codebook.composition_table.index((i, j))
    except ValueError:
        return NO_MATCH


def two_part_family(part_length: int) -> PatternFamily:
    """The reference family: two distinct parts and all four ordered pairs."""
    _index("part_length", part_length, 1)
    if part_length == 1:
        a, b = (1,), (2,)
    else:
        a = tuple([1] + [0] * (part_length - 1))
        b = tuple([0] * (part_length - 1) + [1])
    return PatternFamily(
        part_length=part_length,
        parts=(a, b),
        compositions=((0, 1), (0, 0), (1, 1), (1, 0)),
    )
