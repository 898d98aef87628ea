"""Integer bit tricks: bit_length64, sorted_member_mask, sorted_unique,
bucket_indices.

The HBS bucket map must be exact for *any* representable key: float64
``log2`` loses exactness near power-of-two boundaries once offsets
outgrow the 53-bit mantissa, which is why :func:`bucket_indices` uses
integer bit-length arithmetic.  These tests pin the scalar/vectorized
equivalence far past that boundary (keys up to ``2**40`` and beyond).
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.primitives.bitops import (
    bit_length64,
    sorted_member_mask,
    sorted_unique,
)
from repro.structures.hbs import bucket_index, bucket_indices


def _boundary_values(limit: int) -> np.ndarray:
    """0, 1 and every 2**k - 1, 2**k, 2**k + 1 up to ``limit``."""
    values = {0, 1}
    power = 2
    while power <= limit:
        values.update((power - 1, power, power + 1))
        power *= 2
    return np.array(sorted(v for v in values if v <= limit), dtype=np.int64)


class TestBitLength64:
    def test_matches_python_bit_length_on_boundaries(self):
        values = _boundary_values(2**62)
        got = bit_length64(values)
        expected = [int(v).bit_length() for v in values.tolist()]
        assert got.tolist() == expected

    def test_matches_python_bit_length_randomized(self):
        rng = np.random.default_rng(42)
        exponents = rng.integers(0, 63, size=2000)
        values = (
            rng.integers(0, 2**62, size=2000) >> (62 - exponents)
        ).astype(np.int64)
        got = bit_length64(values)
        expected = [int(v).bit_length() for v in values.tolist()]
        assert got.tolist() == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bit_length64(np.array([3, -1], dtype=np.int64))

    def test_empty(self):
        assert bit_length64(np.zeros(0, dtype=np.int64)).size == 0


class TestSortedMemberMask:
    def test_matches_isin_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = rng.integers(0, 200, size=rng.integers(0, 60))
            targets = np.unique(rng.integers(0, 200, size=rng.integers(0, 40)))
            got = sorted_member_mask(values, targets)
            expected = np.isin(values, targets)
            assert np.array_equal(got, expected)

    def test_empty_targets(self):
        values = np.array([1, 2, 3], dtype=np.int64)
        mask = sorted_member_mask(values, np.zeros(0, dtype=np.int64))
        assert not mask.any() and mask.size == 3

    def test_empty_values(self):
        mask = sorted_member_mask(
            np.zeros(0, dtype=np.int64), np.array([1], dtype=np.int64)
        )
        assert mask.size == 0


class TestSortedUnique:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(0, 10_000),
        dtype=st.sampled_from([np.int32, np.int64]),
        # Small spans force heavy duplication; the largest spreads out.
        span=st.sampled_from([1, 2, 16, 1_000, 2**31 - 1]),
        rows=st.sampled_from([0, 1, 2, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_np_unique(self, size, dtype, span, rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-span, span, size=size).astype(dtype)
        if rows:
            values = values[: size - size % rows].reshape(rows, -1)
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.int32, np.int64]),
            shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
        )
    )
    def test_matches_np_unique_full_range(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_returns_a_new_array(self, size):
        values = np.arange(size, dtype=np.int64)
        got = sorted_unique(values)
        got[...] = -1
        assert values.tolist() == list(range(size))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            sorted_unique(np.array([1.0, 1.0]))


def _plain_unique_calls(tree: ast.Module) -> list[int]:
    """Lines of ``np.unique(...)`` calls without ``return_counts=``."""
    numpy_names: set[str] = set()
    unique_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "numpy"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            unique_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "unique"
            )
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        is_unique = (
            isinstance(fn, ast.Attribute)
            and fn.attr == "unique"
            and isinstance(fn.value, ast.Name)
            and fn.value.id in numpy_names
        ) or (isinstance(fn, ast.Name) and fn.id in unique_names)
        if is_unique and not any(
            kw.arg == "return_counts" for kw in node.keywords
        ):
            lines.append(node.lineno)
    return lines


def test_no_plain_np_unique_in_src():
    """Plain ``np.unique`` hashes on NumPy >= 2.3; use ``sorted_unique``."""
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _plain_unique_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_plain_unique_guard_fires():
    tree = ast.parse(
        "import numpy as xp\n"
        "from numpy import unique\n"
        "xp.unique(a)\n"
        "unique(b)\n"
        "xp.unique(c, return_counts=True)\n"
    )
    assert _plain_unique_calls(tree) == [3, 4]


class TestBucketIndicesEquivalence:
    @pytest.mark.parametrize("base", [0, 1, 7, 1000])
    def test_matches_scalar_small_offsets(self, base):
        keys = np.arange(base, base + 600, dtype=np.int64)
        got = bucket_indices(keys, base)
        expected = [bucket_index(int(k), base) for k in keys.tolist()]
        assert got.tolist() == expected

    def test_matches_scalar_up_to_2_pow_40(self):
        base = 5
        offsets = _boundary_values(2**40)
        keys = offsets + base
        got = bucket_indices(keys, base)
        expected = [bucket_index(int(k), base) for k in keys.tolist()]
        assert got.tolist() == expected

    def test_matches_scalar_randomized_large(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**40, size=3000).astype(np.int64)
        got = bucket_indices(keys, 0)
        expected = [bucket_index(int(k), 0) for k in keys.tolist()]
        assert got.tolist() == expected

    def test_rejects_key_below_base(self):
        with pytest.raises(ValueError):
            bucket_indices(np.array([3], dtype=np.int64), 4)
