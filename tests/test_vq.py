import itertools

import numpy as np
import pytest

from invarkit.errors import DimensionMismatch, DuplicateComposition, InvalidArgument
from invarkit.vq import (
    NO_MATCH,
    PatternFamily,
    build_hvq,
    build_vq,
    classify,
    memory_cost,
    two_part_family,
)


def _reference_family(part_length=4):
    """Two parts, all four ordered pairs."""
    return two_part_family(part_length)


class TestBuild:
    def test_reference_family_vq(self):
        fam = _reference_family()
        book = build_vq(fam)
        assert len(book.entries) == 4
        assert book.full_length == 8

    def test_reference_family_hvq(self):
        fam = _reference_family()
        book = build_hvq(fam)
        assert len(book.part_entries) == 2
        assert len(book.composition_table) == 4

    def test_single_part_single_composition(self):
        fam = PatternFamily(part_length=2, parts=((1, 2),), compositions=((0, 0),))
        assert len(build_vq(fam).entries) == 1
        hvq = build_hvq(fam)
        assert len(hvq.part_entries) == 1 and len(hvq.composition_table) == 1

    def test_three_parts_all_pairs(self):
        parts = ((1, 0), (0, 1), (1, 1))
        comps = tuple(itertools.product(range(3), repeat=2))
        fam = PatternFamily(part_length=2, parts=parts, compositions=comps)
        assert len(build_vq(fam).entries) == 9
        hvq = build_hvq(fam)
        assert len(hvq.part_entries) == 3 and len(hvq.composition_table) == 9

    def test_duplicate_parts_rejected(self):
        with pytest.raises(DuplicateComposition):
            PatternFamily(
                part_length=1, parts=((1,), (1,)), compositions=((0, 1),)
            )

    def test_duplicate_compositions_rejected(self):
        fam = PatternFamily(
            part_length=1, parts=((1,), (2,)), compositions=((0, 1), (0, 1))
        )
        with pytest.raises(DuplicateComposition):
            build_hvq(fam)

    @pytest.mark.parametrize(
        "parts, comps, what",
        [
            (((1.5,), (2,)), ((0, 1),), "pattern entry"),
            ((("1",), (2,)), ((0, 1),), "pattern entry"),
            (((1,), (2,)), ((0.5, 1),), "composition index"),
        ],
    )
    def test_family_refuses_non_integers(self, parts, comps, what):
        with pytest.raises(InvalidArgument, match=what):
            PatternFamily(part_length=1, parts=parts, compositions=comps)

    @pytest.mark.parametrize("part_length", [1.0, 1.7, True, "1", 0])
    def test_family_refuses_a_part_length_that_is_not_a_positive_integer(
        self, part_length
    ):
        with pytest.raises(InvalidArgument, match="part_length"):
            PatternFamily(part_length, parts=((1,), (2,)), compositions=((0, 1),))

    def test_family_refuses_a_composition_that_is_not_a_pair(self):
        with pytest.raises(DimensionMismatch):
            PatternFamily(part_length=1, parts=((1,), (2,)), compositions=((0, 1, 1),))


class TestMemoryCost:
    def test_reference_costs_n16(self):
        fam = two_part_family(8)  # full patterns of length 16
        assert memory_cost(build_vq(fam)) == 64
        assert memory_cost(build_hvq(fam)) == 24

    def test_reference_costs_n4(self):
        fam = two_part_family(2)
        assert memory_cost(build_vq(fam)) == 16
        assert memory_cost(build_hvq(fam)) == 12

    @pytest.mark.parametrize("N", range(2, 65, 2))
    def test_cost_formulas_all_even_lengths(self, N):
        fam = two_part_family(N // 2)
        assert memory_cost(build_vq(fam)) == 4 * N
        assert memory_cost(build_hvq(fam)) == 2 * (N // 2) + 8

    def test_crossover_at_three(self):
        # 4N > N + 8 exactly for integer N >= 3
        for N in range(1, 65):
            assert ((N + 8) < 4 * N) == (N >= 3)

    def test_index_weight_configurable(self):
        fam = two_part_family(4)
        assert memory_cost(build_hvq(fam), index_weight=2) == 2 * 4 + 16

    @pytest.mark.parametrize("weight", [float("nan"), 1.5, -1, True, "2"])
    @pytest.mark.parametrize("build", [build_vq, build_hvq])
    def test_index_weight_must_be_a_nonnegative_integer(self, build, weight):
        with pytest.raises(InvalidArgument, match="index_weight"):
            memory_cost(build(two_part_family(4)), weight)

    def test_index_weight_zero_counts_the_parts_alone(self):
        fam = two_part_family(4)
        assert memory_cost(build_hvq(fam), np.int64(0)) == 2 * 4
        assert memory_cost(build_vq(fam), 0) == 4 * 8

    def test_ratio_improves_with_part_length(self):
        ratios = [
            memory_cost(build_hvq(two_part_family(h)))
            / memory_cost(build_vq(two_part_family(h)))
            for h in (2, 4, 8, 16, 32)
        ]
        assert ratios == sorted(ratios, reverse=True)


class TestClassify:
    def test_all_compositions_agree(self):
        fam = _reference_family()
        flat = build_vq(fam)
        hier = build_hvq(fam)
        for k in range(len(fam.compositions)):
            pattern = fam.pattern(k)
            assert classify(flat, pattern) == k
            assert classify(hier, pattern) == k

    def test_unknown_part_no_match(self):
        fam = _reference_family()
        probe = tuple([9] * fam.full_length)
        assert classify(build_vq(fam), probe) is NO_MATCH
        assert classify(build_hvq(fam), probe) is NO_MATCH

    def test_known_parts_unknown_composition(self):
        fam = PatternFamily(
            part_length=1, parts=((1,), (2,)), compositions=((0, 1),)
        )
        hier = build_hvq(fam)
        assert classify(hier, (2, 1)) is NO_MATCH
        assert classify(hier, (1, 2)) == 0

    # an entry that int() would truncate or parse is refused, not matched;
    # integral floats are refused too, as everywhere an integer is asked for
    @pytest.mark.parametrize(
        "probe", [[1.7, 2.2], ["1", "2"], [1.0, 2.0], [True, 2], np.array([1.0, 2.0])]
    )
    @pytest.mark.parametrize("build", [build_vq, build_hvq])
    def test_non_integer_entries_rejected(self, build, probe):
        with pytest.raises(InvalidArgument, match="pattern entry"):
            classify(build(two_part_family(1)), probe)

    @pytest.mark.parametrize("probe", [(1, 2), np.array([1, 2], dtype=np.uint8)])
    def test_integer_entries_of_any_kind_match(self, probe):
        assert classify(build_vq(two_part_family(1)), probe) == 0

    def test_wrong_length_rejected(self):
        fam = _reference_family()
        with pytest.raises(DimensionMismatch):
            classify(build_vq(fam), (1, 2, 3))

    def test_exhaustive_equivalence_small_families(self):
        rng = np.random.default_rng(0)
        for n_parts in (2, 3, 4):
            for half in (1, 2, 4, 8):
                parts = set()
                while len(parts) < n_parts:
                    parts.add(tuple(rng.integers(0, 5, half)))
                parts = tuple(sorted(parts))
                comps = tuple(itertools.product(range(n_parts), repeat=2))
                fam = PatternFamily(
                    part_length=half, parts=parts, compositions=comps
                )
                flat, hier = build_vq(fam), build_hvq(fam)
                for k in range(len(comps)):
                    assert classify(flat, fam.pattern(k)) == classify(
                        hier, fam.pattern(k)
                    )
                probe = tuple([7] * fam.full_length)
                assert classify(flat, probe) is NO_MATCH
                assert classify(hier, probe) is NO_MATCH
