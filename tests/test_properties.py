"""Property tests of the cache round trip and of the Monte Carlo p-value."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unicube import NullReference, load_reference, phat, save_reference

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
sorted_vectors = hnp.arrays(np.float64, st.integers(1, 40), elements=finite).map(np.sort)


def reference(vec):
    return NullReference(n=5, p=1, h=1, R=len(vec), seed=0, norms={1: vec})


@settings(max_examples=200, deadline=None)
@given(sorted_vectors)
@example(np.array([-5e-324, -0.0, 0.0, 5e-324, 2.2250738585072009e-308]))
@example(np.array([-1.7976931348623157e308, -0.0, 1.7976931348623157e308]))
def test_reference_round_trip_is_bit_exact(vec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ref.txt")
        save_reference(reference(vec), path)
        loaded = load_reference(path).norms[1]
    assert loaded.view(np.uint64).tolist() == vec.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(sorted_vectors, finite, finite)
def test_phat_does_not_increase_with_observed(vec, x, y):
    ref = reference(vec)
    lo, hi = min(x, y), max(x, y)
    assert phat(ref, 1, hi) <= phat(ref, 1, lo)
