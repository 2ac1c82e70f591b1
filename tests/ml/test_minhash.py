"""Tests for MinHash signatures."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.minhash import (_BLOCK, _MAX_HASH, _MERSENNE_PRIME, MinHasher,
                              MinHashSignature, _stable_hash)


def reference_mins(hasher, hashes):
    """The hash family over Python's unbounded integers, one value at a time."""
    rng = random.Random(hasher.seed)
    params = [(rng.randrange(1, _MERSENNE_PRIME), rng.randrange(0, _MERSENNE_PRIME))
              for _ in range(hasher.num_perm)]
    return tuple(
        min([((a * h + b) % _MERSENNE_PRIME) & _MAX_HASH for h in hashes],
            default=_MAX_HASH)
        for a, b in params
    )


def reference_signature(hasher, values):
    return reference_mins(hasher, {_stable_hash(str(v)) for v in values})


class TestNumpyKernelEqualsLoop:
    """The numpy kernel computes the exact family the Python loop does."""

    @given(st.sets(st.text(min_size=0, max_size=8), max_size=3 * _BLOCK + 5),
           st.sampled_from([1, 7, 64, 128]), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_signature_equals_loop(self, values, num_perm, seed):
        hasher = MinHasher(num_perm=num_perm, seed=seed)
        signature = hasher.signature(values)
        assert signature.values == reference_signature(hasher, values)
        assert signature.set_size == len(values)
        assert all(type(v) is int for v in signature.values)

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 2])
    def test_block_boundaries(self, size):
        hasher = MinHasher(num_perm=128)
        values = [f"v{i}" for i in range(size)]
        assert hasher.signature(values).values == reference_signature(hasher, values)

    @pytest.mark.parametrize("hashes", [[0], [1], [1 << 31], [_MAX_HASH],
                                        [0, 1, 1 << 31, _MAX_HASH]])
    def test_boundary_hashes(self, hashes):
        for seed in range(5):
            hasher = MinHasher(num_perm=128, seed=seed)
            mins = hasher._min_permuted(np.array(hashes, dtype=np.uint64))
            assert tuple(mins.tolist()) == reference_mins(hasher, hashes)

    @pytest.mark.parametrize("a, b", [
        (1, _MERSENNE_PRIME - 1),
        (_MERSENNE_PRIME - 1, _MERSENNE_PRIME - 1),
        (_MERSENNE_PRIME - 1, 0),
        ((1 << 61) - 2, 1 << 60),
    ])
    def test_sums_folding_to_the_prime(self, a, b):
        """A sum that folds to p or just above it still reduces mod p."""
        hasher = MinHasher(num_perm=1)
        hasher._a_hi = np.array([[a >> 32]], dtype=np.uint64)
        hasher._a_lo = np.array([[a & _MAX_HASH]], dtype=np.uint64)
        hasher._b = np.array([[b]], dtype=np.uint64)
        for h in (0, 1, 2, 3, 1 << 31, _MAX_HASH):
            expected = ((a * h + b) % _MERSENNE_PRIME) & _MAX_HASH
            assert hasher._min_permuted(np.array([h], dtype=np.uint64)).tolist() == [expected]

    def test_incremental_values_are_python_ints(self):
        hasher = MinHasher(num_perm=16)
        incremental = hasher.incremental()
        incremental.update_many(["a", "b"])
        assert all(type(v) is int for v in incremental.signature().values)
        assert all(type(v) is int for v in hasher.incremental().signature().values)


class TestMinHasher:
    def test_deterministic(self):
        left = MinHasher(num_perm=64, seed=5).signature(["a", "b", "c"])
        right = MinHasher(num_perm=64, seed=5).signature(["a", "b", "c"])
        assert left.values == right.values

    def test_order_independent(self):
        hasher = MinHasher(num_perm=64)
        assert hasher.signature(["a", "b"]).values == hasher.signature(["b", "a"]).values

    def test_stringification(self):
        hasher = MinHasher(num_perm=64)
        assert hasher.signature([1, 2]).values == hasher.signature(["1", "2"]).values

    def test_empty_set(self):
        signature = MinHasher(num_perm=32).signature([])
        assert signature.set_size == 0
        assert len(signature) == 32

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            MinHasher(num_perm=0)

    def test_compatible(self):
        hasher = MinHasher(num_perm=16)
        assert hasher.compatible(hasher.signature(["x"]))
        assert not hasher.compatible(MinHasher(num_perm=32).signature(["x"]))


class TestJaccardEstimation:
    def test_identical_sets(self):
        hasher = MinHasher(num_perm=128)
        signature = hasher.signature(range(100))
        assert signature.jaccard(signature) == 1.0

    def test_disjoint_sets(self):
        hasher = MinHasher(num_perm=128)
        left = hasher.signature(f"a{i}" for i in range(100))
        right = hasher.signature(f"b{i}" for i in range(100))
        assert left.jaccard(right) < 0.1

    def test_estimate_near_truth(self):
        hasher = MinHasher(num_perm=256)
        left = hasher.signature(range(200))
        right = hasher.signature(range(100, 300))
        truth = 100 / 300
        assert abs(left.jaccard(right) - truth) < 0.12

    def test_mismatched_lengths_rejected(self):
        left = MinHasher(num_perm=16).signature(["a"])
        right = MinHasher(num_perm=32).signature(["a"])
        with pytest.raises(ValueError):
            left.jaccard(right)

    def test_seed_changes_signature(self):
        left = MinHasher(num_perm=64, seed=1).signature(["a", "b"])
        right = MinHasher(num_perm=64, seed=2).signature(["a", "b"])
        assert left.values != right.values
