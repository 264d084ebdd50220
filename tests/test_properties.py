"""Property tests of the cache round trip, of the Monte Carlo p-value, of the
bitwise invariances of the tents kernel and of the decision rules on blocks."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unicube import NullReference, enumerate_subsets, load_reference, save_reference
from unicube.brownian import AsymptoticNormTable, asymptotic_cdf
from unicube.inference import _decide, _table_pvalues, load_table, phat, save_table
from unicube.tents import _norms_for_masks

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


edges = [-1e308, -1.7976931348623157e308, -5e-324, -0.0, 0.0, 5e-324,
         2.2250738585072009e-308, 1e308, 1.7976931348623157e308]
# Finite floats, with a share of edge values so that blocks often hold ties.
edgy = st.one_of(finite, st.sampled_from(edges))


def _save_load_save(save, load, value):
    """What loading the saved ``value`` gives, and the bytes before and after
    saving that again."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
        save(value, first)
        loaded = load(first)
        save(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return loaded, a.read(), b.read()


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.just(3), st.integers(1, 30)), elements=edgy))
@example(np.stack([np.array(edges)] * 3))
@example(np.array([[-0.0, 0.0, 0.0, -0.0], [5e-324] * 4, [1e308, 1e308, -1e308, 0.0]]))
def test_cache_round_trip_is_bit_exact_and_byte_stable(block):
    block = np.sort(block, axis=1)
    ref = NullReference(n=5, p=2, h=2, R=block.shape[1], seed=0,
                        norms=dict(zip(enumerate_subsets(2, 2), block)))
    loaded, first, second = _save_load_save(save_reference, load_reference, ref)
    assert first == second
    for mask, vec in ref.norms.items():
        assert loaded.norms[mask].view(np.uint64).tolist() == vec.view(np.uint64).tolist()
    table = AsymptoticNormTable(k=2, draws=block[0], nu_max=8, seed=3)
    loaded, first, second = _save_load_save(save_table, load_table, table)
    assert first == second
    assert loaded.draws.view(np.uint64).tolist() == block[0].view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.just(3), st.integers(1, 30)), elements=edgy))
@example(np.stack([np.array(edges)] * 3))
def test_sidecar_load_is_bit_identical_to_text_load(block):
    """The binary values of a cache file, which an earlier unicube kept in a
    sidecar, load to the bits that the decimal text of its earlier layout
    (``%.17g``) gave."""
    block = np.sort(block, axis=1)
    ref = NullReference(n=5, p=2, h=2, R=block.shape[1], seed=0,
                        norms=dict(zip(enumerate_subsets(2, 2), block)))
    loaded, _, _ = _save_load_save(save_reference, load_reference, ref)
    for mask, vec in ref.norms.items():
        text = np.array([float("%.17g" % value) for value in vec.tolist()])
        assert loaded.norms[mask].view(np.uint64).tolist() == text.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(sorted_vectors, finite, finite)
def test_phat_does_not_increase_with_observed(vec, x, y):
    ref = reference(vec)
    lo, hi = min(x, y), max(x, y)
    at_hi, at_lo = phat(ref, [1], np.array([[hi], [lo]]))[:, 0]
    assert at_hi <= at_lo


def _blocks(vectors, data):
    """A block of statistics, one column per vector: values drawn from the
    vectors themselves (ties), from beyond both ends of each, and anywhere."""
    values = np.concatenate(vectors).tolist()
    element = st.one_of(st.sampled_from(values),
                        st.sampled_from([min(values) - 1.0, max(values) + 1.0, -np.inf, np.inf]),
                        finite)
    rows = data.draw(st.integers(1, 8))
    return np.array(data.draw(st.lists(st.lists(element, min_size=len(vectors),
                                                max_size=len(vectors)),
                                       min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.just(3), st.integers(1, 40)), elements=finite),
       st.data())
def test_phat_on_an_array_equals_scalar_calls(vectors, data):
    # Each entry of a block of several rows and subsets has the bits of a
    # one-value block and of the integer formula (#greater + 1) / (R + 1).
    vectors = np.sort(vectors, axis=1)
    masks = enumerate_subsets(2, 2)
    ref = NullReference(n=5, p=2, h=2, R=vectors.shape[1], seed=0,
                        norms=dict(zip(masks, vectors)))
    observed = _blocks(vectors, data)
    batched = phat(ref, masks, observed.copy())
    single = np.array([[phat(ref, [mask], np.array([[x]]))[0, 0] for mask, x in zip(masks, row)]
                       for row in observed.tolist()])
    counted = np.array([[(ref.R - int(np.searchsorted(vec, x, side="right")) + 1) / (ref.R + 1)
                         for vec, x in zip(vectors, row)] for row in observed.tolist()])
    assert batched.dtype == np.float64
    assert batched.view(np.uint64).tolist() == single.view(np.uint64).tolist()
    assert batched.view(np.uint64).tolist() == counted.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(sorted_vectors, sorted_vectors, st.data())
def test_table_pvalues_equal_the_floored_scalar_cdf(draws1, draws2, data):
    # Columns of cardinality 1 and 2 read tables of different sizes M; each
    # entry has the bits of max(1 - cdf(x), 1/(M+1)) at one statistic.
    tables = {k: AsymptoticNormTable(k=k, draws=draws, nu_max=3, seed=0)
              for k, draws in ((1, draws1), (2, draws2))}
    masks = enumerate_subsets(2, 2)
    observed = _blocks([draws1, draws1, draws2], data)
    batched = _table_pvalues(tables, masks, observed.copy())
    scalar = np.array([[max(1.0 - asymptotic_cdf(tables[mask.bit_count()], float(x)),
                            1.0 / (tables[mask.bit_count()].draws.shape[0] + 1))
                        for mask, x in zip(masks, row)] for row in observed.tolist()])
    assert batched.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()


# Up to 40 rows, so that some batches span more than one pair tile.
batches = st.tuples(st.integers(1, 5), st.integers(1, 40), st.integers(1, 4)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))


def bits(values):
    return values.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(batches, st.randoms(use_true_random=False))
def test_kernel_bitwise_invariant_under_row_permutations(batch, rnd):
    masks = enumerate_subsets(batch.shape[2], batch.shape[2])
    shuffled = np.stack([item[rnd.sample(range(len(item)), len(item))] for item in batch])
    assert bits(_norms_for_masks(shuffled, masks)) == bits(_norms_for_masks(batch, masks))


@settings(max_examples=60, deadline=None)
@given(batches, st.data())
def test_kernel_bitwise_invariant_under_batch_splits(batch, data):
    masks = enumerate_subsets(batch.shape[2], batch.shape[2])
    whole = _norms_for_masks(batch, masks)
    cut = data.draw(st.integers(0, len(batch)))
    parts = [part for part in (batch[:cut], batch[cut:]) if len(part)]
    split = np.concatenate([_norms_for_masks(part, masks) for part in parts])
    assert bits(split) == bits(whole)
    singles = [_norms_for_masks(item[None], masks)[0] for item in batch]
    assert bits(np.array(singles)) == bits(whole)


# Blocks of Monte Carlo p-values j / (R + 1), j = 1..R+1, plus 0, which no
# calibration gives (both floor their p-values above 0) but which ``_decide``
# maps to an infinite s term: families share many values.
pvalue_blocks = st.tuples(st.integers(1, 999), st.integers(1, 8), st.integers(1, 70)).flatmap(
    lambda shape: hnp.arrays(np.int64, shape[1:], elements=st.integers(0, shape[0] + 1))
    .map(lambda j: j / (shape[0] + 1)))


@settings(max_examples=200, deadline=None)
@given(pvalue_blocks, st.sampled_from(["m", "s"]),
       st.one_of(st.sampled_from([0.001, 0.05, 0.5]), st.floats(1e-6, 1.0 - 1e-6)))
def test_decide_on_a_block_equals_each_row(block, mode, alpha):
    aggregates, threshold, rejects = _decide(mode, block, alpha)
    assert aggregates.shape == rejects.shape == (block.shape[0],)
    for row, aggregate, reject in zip(block, aggregates, rejects):
        one = _decide(mode, row[None], alpha)
        assert bits(one[0]) == bits(np.array([aggregate]))
        assert bits(np.array([one[1]])) == bits(np.array([threshold]))
        assert one[2].tolist() == [reject]
