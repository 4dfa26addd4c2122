"""The stable-order contract: ``stable_order``, ``unique_first`` and
``sort_rows`` give exactly NumPy's stable argsort, ``np.unique`` and
``np.lexsort`` results, on the packed branch and on the fallback, and
``first_occurrence`` numbers keys as a scalar dict does.

Array sizes are drawn on both sides of ``PACKED_SORT_MIN``; the values of
a large array come from a generator seeded by the draw, so they vary as
much as a small array's do."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from striptok.mesh_io import PACKED_SORT_MIN, first_occurrence, sort_rows, stable_order, unique_first

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SIZES = st.one_of(st.integers(0, 40), st.integers(PACKED_SORT_MIN, PACKED_SORT_MIN + 600))


@st.composite
def int_arrays(draw, lo: int, hi: int, shape=SIZES, values=None):
    """An int64 array of the drawn shape; entries in ``[lo, hi]``, or from
    ``values`` when given, with ``lo`` and ``hi`` each placed once when
    there is room."""
    shape = draw(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if values is None:
        out = rng.integers(lo, hi, shape, dtype=np.int64, endpoint=True)
    else:
        out = rng.choice(np.array(values, dtype=np.int64), shape)
    flat = out.reshape(-1)
    if len(flat) >= 2:
        flat[rng.choice(len(flat), 2, replace=False)] = lo, hi
    return out


def pack_limit(n: int) -> int:
    """The largest key that packs with ``n`` indices: ``max << b | (n - 1)``
    fits in int64, ``b`` the bits of ``n - 1``."""
    return (1 << (63 - (n - 1).bit_length())) - 1


def assert_stable_order(keys: np.ndarray) -> None:
    order, ordered = stable_order(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    np.testing.assert_array_equal(order, expected)
    np.testing.assert_array_equal(ordered, keys[expected])


class TestStableOrder:
    def test_empty(self):
        assert_stable_order(np.zeros(0, dtype=np.int64))

    @given(st.integers(INT64_MIN, INT64_MAX))
    def test_one_key(self, key):
        assert_stable_order(np.array([key], dtype=np.int64))

    @given(int_arrays(0, 3))
    def test_heavy_ties(self, keys):
        assert_stable_order(keys)

    @given(int_arrays(0, 2**40))
    def test_wide_keys(self, keys):
        assert_stable_order(keys)

    @given(st.one_of(int_arrays(-5, 5), int_arrays(INT64_MIN, INT64_MAX)))
    def test_negative_keys(self, keys):
        assert_stable_order(keys)

    @given(int_arrays(0, 2**31 - 1))
    def test_int32_keys(self, keys):
        # narrower keys take the fallback: shifting them would overflow
        assert_stable_order(keys.astype(np.int32))

    @given(st.integers(PACKED_SORT_MIN, 4 * PACKED_SORT_MIN), st.booleans(), st.data())
    @example(n=PACKED_SORT_MIN, over=False, data=None)
    @example(n=PACKED_SORT_MIN, over=True, data=None)
    @example(n=PACKED_SORT_MIN + 1, over=True, data=None)
    @settings(max_examples=50)
    def test_max_at_and_above_the_packing_limit(self, n, over, data):
        # at the limit the keys pack; one above, they take the fallback
        top = pack_limit(n) + over
        if data is None:
            keys = np.full(n, top, dtype=np.int64)
        else:
            keys = data.draw(int_arrays(0, top, st.just(n), values=[0, 1, top - 1, top]))
        assert_stable_order(keys)


class TestUniqueFirst:
    @given(st.one_of(int_arrays(0, 5), int_arrays(-3, 3), int_arrays(INT64_MIN, INT64_MAX)))
    def test_equals_numpy_unique(self, keys):
        values, first, inverse = unique_first(keys)
        expected = np.unique(keys, return_index=True, return_inverse=True)
        for got, want in zip((values, first, inverse), expected):
            np.testing.assert_array_equal(got, want.reshape(-1))


def numbered_by_dict(keys: np.ndarray) -> tuple[list[int], list[int]]:
    """The first-occurrence numbering, one key at a time: each new key
    takes the next id, and its index is recorded."""
    ids: dict[int, int] = {}
    first = []
    for i, key in enumerate(keys.tolist()):
        if key not in ids:
            ids[key] = len(first)
            first.append(i)
    return [ids[key] for key in keys.tolist()], first


def assert_first_occurrence(keys: np.ndarray) -> None:
    ids, first = first_occurrence(keys)
    want_ids, want_first = numbered_by_dict(keys)
    assert ids.dtype == np.int64 and first.dtype == np.int64
    assert ids.tolist() == want_ids
    assert first.tolist() == want_first


class TestFirstOccurrence:
    def test_empty(self):
        assert_first_occurrence(np.zeros(0, dtype=np.int64))

    @given(st.integers(INT64_MIN, INT64_MAX))
    def test_one_key(self, key):
        assert_first_occurrence(np.array([key], dtype=np.int64))

    @given(SIZES, st.integers(INT64_MIN, INT64_MAX))
    def test_all_keys_equal(self, n, key):
        assert_first_occurrence(np.full(n, key, dtype=np.int64))

    @given(SIZES, st.integers(0, 2**32 - 1))
    def test_all_keys_distinct(self, n, seed):
        rng = np.random.default_rng(seed)
        assert_first_occurrence(rng.choice(2**40, n, replace=False).astype(np.int64))

    @given(int_arrays(0, 3))
    def test_heavy_ties(self, keys):
        assert_first_occurrence(keys)

    @given(int_arrays(0, 2**20))
    def test_packed_keys(self, keys):
        assert_first_occurrence(keys)

    @given(st.one_of(int_arrays(-5, 5), int_arrays(INT64_MIN, INT64_MAX), int_arrays(0, INT64_MAX)))
    def test_keys_that_take_the_fallback(self, keys):
        # negative keys, and keys too wide to shift past an index
        assert_first_occurrence(keys)

    @given(int_arrays(0, 7))
    def test_int32_keys(self, keys):
        assert_first_occurrence(keys.astype(np.int32))


ROW_SHAPES = st.tuples(SIZES, st.integers(1, 4))


def assert_sort_rows(rows: np.ndarray) -> None:
    order, heads = sort_rows(rows)
    expected = np.lexsort(rows.T[::-1])
    ordered = rows[expected]
    np.testing.assert_array_equal(order, expected)
    assert len(heads) == len(rows) and heads[:1].all()
    np.testing.assert_array_equal(heads[1:], (ordered[1:] != ordered[:-1]).any(axis=1))


class TestSortRows:
    @given(st.one_of(int_arrays(-1, 4, ROW_SHAPES), int_arrays(-1, 2**15, ROW_SHAPES)))
    def test_rows_with_pads(self, rows):
        assert_sort_rows(rows)

    @given(st.one_of(int_arrays(INT64_MIN, INT64_MAX, ROW_SHAPES), int_arrays(-1, 2**40, ROW_SHAPES)))
    def test_rows_too_wide_to_pack(self, rows):
        assert_sort_rows(rows)

    @given(int_arrays(-1, 2**31 - 1, ROW_SHAPES))
    def test_int32_rows(self, rows):
        assert_sort_rows(rows.astype(np.int32))

    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_spans_at_and_above_63_bits(self, d, over, data):
        # d columns pack while d times the bits of max - min is at most 63
        bits = 63 // d + over
        lo = -(1 << (bits - 1))
        hi = lo + (1 << bits) - 1
        shape = st.tuples(SIZES, st.just(d))
        rows = data.draw(int_arrays(lo, hi, shape, values=[lo, lo + 1, 0, hi]))
        assume(rows.size >= 2)
        assert_sort_rows(rows)
