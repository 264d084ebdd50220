"""Domain types: subset enumeration, sample validation, random streams."""

import re

import numpy as np
import pytest

from unicube import RandomStream, Sample, enumerate_subsets, mask_members, uniform_sample
from unicube.core import MAX_DIMENSION, mask_cardinality, mask_label, subset_count


class TestEnumerateSubsets:
    def test_p2_full_family(self):
        assert enumerate_subsets(2, 2) == [0b01, 0b10, 0b11]

    def test_p6_h2_count(self):
        masks = enumerate_subsets(6, 2)
        assert len(masks) == 6 + 15 == 21
        assert len(masks) == subset_count(6, 2)

    def test_p3_singletons(self):
        assert enumerate_subsets(3, 1) == [0b001, 0b010, 0b100]

    def test_full_family_size_and_distinct(self):
        for p in range(1, 7):
            masks = enumerate_subsets(p, p)
            assert len(masks) == 2 ** p - 1
            assert len(set(masks)) == len(masks)

    def test_order_by_cardinality_then_value(self):
        masks = enumerate_subsets(5, 5)
        keys = [(mask_cardinality(m), m) for m in masks]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("p,h", [(3, 0), (3, 4), (0, 1), (25, 1)])
    def test_invalid_arguments(self, p, h):
        with pytest.raises(ValueError):
            enumerate_subsets(p, h)

    @pytest.mark.parametrize("p,h,message", [
        (3, 0, "max cardinality must be in [1, 3], got 0"),
        (3, 4, "max cardinality must be in [1, 3], got 4"),
        (0, 1, "dimension must be in [1, 20], got 0"),
        (25, 1, "dimension must be in [1, 20], got 25"),
    ])
    def test_list_and_count_share_one_rule(self, p, h, message):
        for family in (enumerate_subsets, subset_count):
            with pytest.raises(ValueError, match=re.escape(message)):
                family(p, h)


class TestMaskHelpers:
    def test_members_and_cardinality(self):
        assert mask_members(0b1011) == (0, 1, 3)
        assert mask_cardinality(0b1011) == 3
        assert mask_members(0) == ()

    def test_label_is_one_based(self):
        assert mask_label(0b101) == "{1,3}"


class TestSample:
    def test_shape_and_bounds(self):
        s = Sample([[0.1, 0.9], [0.0, 1.0]])
        assert (s.n, s.p) == (2, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Sample([[0.5, 1.5]])
        with pytest.raises(ValueError):
            Sample([[-0.1]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Sample([[0.5, float("nan")]])

    def test_rejects_empty_and_high_dimension(self):
        with pytest.raises(ValueError):
            Sample(np.empty((0, 2)))
        with pytest.raises(ValueError):
            Sample(np.full((1, MAX_DIMENSION + 1), 0.5))

    def test_immutable(self):
        s = Sample([[0.5]])
        with pytest.raises((ValueError, AttributeError)):
            s.data[0, 0] = 0.2


class TestRandomStream:
    def test_same_stream_identical_output(self):
        a = uniform_sample(RandomStream(123, 5), 20, 3)
        b = uniform_sample(RandomStream(123, 5), 20, 3)
        assert np.array_equal(a.data, b.data)

    def test_distinct_stream_ids_differ(self):
        a = RandomStream(123, 1).generator().random(10_000)
        b = RandomStream(123, 2).generator().random(10_000)
        assert not np.array_equal(a, b)

    def test_children_distinct_and_reproducible(self):
        root = RandomStream(9)
        ids = {root.child(k).stream_id for k in range(1000)}
        assert len(ids) == 1000
        assert root.child(17) == root.child(17)

    def test_child_rejects_negative(self):
        with pytest.raises(ValueError):
            RandomStream(1).child(-1)


class TestUniformSample:
    def test_mean_within_clt_band(self):
        n = 100_000
        s = uniform_sample(RandomStream(2024), n, 1)
        bound = 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)
        assert abs(s.data.mean() - 0.5) < bound

    def test_columns_uncorrelated(self):
        n = 100_000
        s = uniform_sample(RandomStream(2025), n, 2)
        r = np.corrcoef(s.data[:, 0], s.data[:, 1])[0, 1]
        assert abs(r) < 3.0 / np.sqrt(n)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            uniform_sample(RandomStream(1), 0, 2)
        with pytest.raises(ValueError):
            uniform_sample(RandomStream(1), 5, 0)
