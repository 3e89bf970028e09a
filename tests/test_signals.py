import copy
import pickle

import numpy as np
import pytest

from invarkit.errors import DimensionMismatch, InvalidArgument, ZeroVector
from invarkit.signals import (
    FiniteGroup,
    Signal,
    apply,
    cyclic_group,
    normalize,
    orbit,
)


class TestNormalize:
    def test_scales_to_unit(self):
        s = normalize([3.0, 4.0])
        np.testing.assert_allclose(s.values, [0.6, 0.8])

    def test_already_unit(self):
        s = normalize([1.0, 0.0, 0.0])
        np.testing.assert_allclose(s.values, [1.0, 0.0, 0.0])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0])

    def test_signal_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_signal_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValueError):
            Signal(np.array([entry, 0.0]))

    def test_normalize_rejects_nan(self):
        with pytest.raises(ValueError):
            normalize([np.nan, 1.0])


class TestCyclicGroup:
    def test_order_one(self):
        G = cyclic_group(1)
        assert G.order == 1

    def test_shift_by_one(self):
        G = cyclic_group(4)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        shifted = x[G.elements[1]]
        np.testing.assert_array_equal(shifted, [4.0, 1.0, 2.0, 3.0])

    def test_inverse_pair(self):
        G = cyclic_group(4)
        # the shift by 1 after the shift by 3 is the identity
        np.testing.assert_array_equal(G.elements[3][G.elements[1]], np.arange(4))

    @pytest.mark.parametrize("d", [1.5, 2.0, True, "3", None])
    def test_non_integer_d_is_a_dimension_mismatch(self, d):
        with pytest.raises(DimensionMismatch):
            cyclic_group(d)


class TestApply:
    def test_identity(self):
        G = cyclic_group(2)
        x = normalize([0.6, 0.8])
        np.testing.assert_allclose(apply(G.elements[0], x).values, [0.6, 0.8])

    def test_shift_d2(self):
        G = cyclic_group(2)
        x = normalize([0.6, 0.8])
        np.testing.assert_allclose(apply(G.elements[1], x).values, [0.8, 0.6])

    def test_shift_two_d4(self):
        G = cyclic_group(4)
        x = normalize([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            apply(G.elements[2], x).values, [0.0, 0.0, 1.0, 0.0]
        )

    def test_dimension_mismatch(self):
        G = cyclic_group(3)
        with pytest.raises(DimensionMismatch):
            apply(G.elements[1], normalize([1.0, 0.0]))

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_norm_preserved(self, d):
        rng = np.random.default_rng(d)
        x = normalize(rng.standard_normal(d))
        for g in cyclic_group(d):
            # permuting reorders the sum of squares, so allow one ulp
            assert np.linalg.norm(apply(g, x).values) == pytest.approx(1.0, abs=1e-15)


class TestOrbit:
    def test_trivial_group(self):
        orb = orbit(cyclic_group(1), normalize([2.0]))
        assert len(orb.members) == 1
        np.testing.assert_allclose(orb.members[0].values, [1.0])

    def test_cyclic_d2(self):
        orb = orbit(cyclic_group(2), normalize([1.0, 0.0]))
        members = {tuple(m.values) for m in orb.members}
        assert members == {(1.0, 0.0), (0.0, 1.0)}

    def test_cyclic_d3_one_hot(self):
        orb = orbit(cyclic_group(3), normalize([1.0, 0.0, 0.0]))
        members = {tuple(m.values) for m in orb.members}
        assert len(members) == 3

    def test_orbit_invariant_under_group(self):
        G = cyclic_group(4)
        x = normalize(np.random.default_rng(0).standard_normal(4))
        base = sorted(tuple(m.values) for m in orbit(G, x).members)
        for g in G:
            shifted = sorted(tuple(m.values) for m in orbit(G, apply(g, x)).members)
            assert shifted == base


class TestGroupAxioms:
    @pytest.mark.parametrize("d", [1, 2, 4, 16, 64])
    def test_cyclic_groups_pass(self, d):
        G = cyclic_group(d)
        assert G.identity_index == 0
        table = {g.tobytes() for g in G}
        # closure: every composition g∘h, h applied first, is the permutation h[g]
        assert all(h[g].tobytes() in table for g in G for h in G)
        for g in G:
            inv = np.empty_like(g)
            inv[g] = np.arange(d)
            assert inv.tobytes() in table


_ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("round_trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS)
class TestRestoredArraysStayReadOnly:
    def test_signal(self, round_trip):
        x = normalize([3.0, 4.0, 12.0])
        restored = round_trip(x)
        assert np.array_equal(restored.values, x.values)
        assert not restored.values.flags.writeable

    def test_group(self, round_trip):
        G = cyclic_group(5)
        restored = round_trip(G)
        assert np.array_equal(restored.elements, G.elements)
        assert restored.identity_index == G.identity_index
        assert not restored.elements.flags.writeable

    def test_restored_signal_is_checked_again(self, round_trip):
        # restored through the constructor, a signal off the unit sphere fails
        x = normalize([1.0, 1.0])
        object.__setattr__(x, "values", np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgument):
            round_trip(x)


@pytest.mark.parametrize("round_trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS)
class TestCallerArrayStaysWriteable:
    def test_signal(self, round_trip):
        a = np.array([1.0, 0.0])
        x = Signal(a)
        assert a.flags.writeable and not x.values.flags.writeable
        a[:] = [0.0, 1.0]  # the caller reuses its buffer
        assert np.array_equal(x.values, [1.0, 0.0])
        restored = round_trip(x)
        assert np.array_equal(restored.values, x.values)
        assert not restored.values.flags.writeable

    def test_group(self, round_trip):
        a = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.intp)
        G = FiniteGroup(a)
        assert a.flags.writeable and not G.elements.flags.writeable
        a[:] = 0
        assert np.array_equal(G.elements, cyclic_group(3).elements[[0, 2, 1]])
        restored = round_trip(G)
        assert np.array_equal(restored.elements, G.elements)
        assert not restored.elements.flags.writeable
