"""Flat versus hierarchical vector quantization of compositional patterns.

Patterns are concatenations of two equal-length parts drawn from a small
alphabet of integer-valued vectors. A flat codebook stores every full
pattern; the hierarchical codebook stores the parts once plus a table of
(part, part) index pairs. Matching uses exact equality on the quantized
entries, so classification is a pure lookup in both cases.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DuplicateComposition

NO_MATCH = None


def _as_key(v) -> tuple:
    return tuple(int(x) for x in np.asarray(v).ravel())


@dataclass(frozen=True)
class PatternFamily:
    """Distinct parts plus the (part, part) compositions that form patterns."""

    part_length: int
    parts: tuple  # of int tuples, each of length part_length
    compositions: tuple  # of (part_index, part_index)

    def __post_init__(self):
        parts = tuple(_as_key(p) for p in self.parts)
        comps = tuple((int(i), int(j)) for i, j in self.compositions)
        if len(set(parts)) != len(parts):
            raise DuplicateComposition("parts must be distinct")
        for p in parts:
            if len(p) != self.part_length:
                raise DimensionMismatch("part length mismatch")
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
    except ValueError:
        return NO_MATCH
    try:
        return codebook.composition_table.index((i, j))
    except ValueError:
        return NO_MATCH


def family_to_json(family: PatternFamily) -> str:
    return json.dumps(
        {
            "part_length": family.part_length,
            "parts": [list(p) for p in family.parts],
            "compositions": [list(c) for c in family.compositions],
        }
    )


def family_from_json(text: str) -> PatternFamily:
    doc = json.loads(text)
    return PatternFamily(
        part_length=int(doc["part_length"]),
        parts=tuple(tuple(p) for p in doc["parts"]),
        compositions=tuple(tuple(c) for c in doc["compositions"]),
    )


def two_part_family(part_length: int) -> PatternFamily:
    """The reference family: two distinct parts and all four ordered pairs."""
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


def memory_sweep(part_lengths):
    """Cost rows (family_id, N, vq_cost, hvq_cost, ratio) over the reference family."""
    rows = []
    for fid, half in enumerate(part_lengths):
        fam = two_part_family(half)
        vq = memory_cost(build_vq(fam))
        hvq = memory_cost(build_hvq(fam))
        rows.append((fid, 2 * half, vq, hvq, hvq / vq))
    return rows


def sweep_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["family_id", "N", "vq_cost", "hvq_cost", "ratio"])
        for row in rows:
            writer.writerow(list(row[:4]) + [repr(row[4])])
