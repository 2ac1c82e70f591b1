"""Tests for the banding LSH index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.lsh import LSHIndex, choose_banding
from repro.ml.minhash import MinHasher

HASHER = MinHasher(num_perm=128)


@pytest.fixture
def hasher():
    return MinHasher(num_perm=128)


class TestChooseBanding:
    def test_divides_num_perm(self):
        bands, rows = choose_banding(128, 0.5)
        assert bands * rows == 128

    def test_threshold_monotonicity(self):
        # higher thresholds need more rows per band (more selective)
        _, rows_low = choose_banding(128, 0.2)
        _, rows_high = choose_banding(128, 0.9)
        assert rows_high >= rows_low

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            choose_banding(128, 1.5)


class TestLSHIndex:
    def test_similar_sets_collide(self, hasher):
        index = LSHIndex(num_perm=128, threshold=0.4)
        index.add("base", hasher.signature(range(100)))
        query = hasher.signature(range(5, 105))
        assert "base" in index.candidates(query)

    def test_dissimilar_sets_rarely_collide(self, hasher):
        index = LSHIndex(num_perm=128, threshold=0.5)
        for i in range(20):
            index.add(f"set{i}", hasher.signature(f"{i}-{j}" for j in range(50)))
        query = hasher.signature(f"q-{j}" for j in range(50))
        assert len(index.candidates(query)) <= 2

    def test_query_filters_by_similarity(self, hasher):
        index = LSHIndex(num_perm=128, threshold=0.3)
        index.add("near", hasher.signature(range(100)))
        index.add("far", hasher.signature(range(1000, 1100)))
        hits = index.query(hasher.signature(range(10, 110)), min_similarity=0.5)
        assert [key for key, _ in hits] == ["near"]

    def test_query_exclude(self, hasher):
        index = LSHIndex(num_perm=128, threshold=0.3)
        signature = hasher.signature(range(50))
        index.add("self", signature)
        assert index.query(signature, exclude="self") == []

    def test_remove(self, hasher):
        index = LSHIndex(num_perm=128, threshold=0.3)
        signature = hasher.signature(range(50))
        index.add("x", signature)
        index.remove("x")
        assert "x" not in index
        assert index.candidates(signature) == set()
        index.remove("x")  # idempotent

    def test_reinsert_replaces(self, hasher):
        index = LSHIndex(num_perm=128, threshold=0.3)
        index.add("x", hasher.signature(range(50)))
        index.add("x", hasher.signature(range(500, 550)))
        assert len(index) == 1
        assert index.signature_of("x").jaccard(hasher.signature(range(500, 550))) == 1.0

    def test_wrong_signature_length_rejected(self, hasher):
        index = LSHIndex(num_perm=64)
        with pytest.raises(ValueError):
            index.add("x", hasher.signature(range(10)))

    def test_probe_count_grows_sublinearly(self, hasher):
        """The Aurum claim in miniature: probes << all-pairs comparisons."""
        index = LSHIndex(num_perm=128, threshold=0.6)
        n = 60
        for i in range(n):
            index.add(f"set{i}", hasher.signature(f"{i}-{j}" for j in range(40)))
        index.probe_count = 0
        for i in range(n):
            index.candidates(index.signature_of(f"set{i}"))
        # disjoint sets: probing its own bucket finds ~itself, not all n
        assert index.probe_count < n * n / 4


def jaccard_query(index, signature, floor, exclude=None):
    """``query`` as a loop over the candidates with ``MinHashSignature.jaccard``."""
    hits = [(key, signature.jaccard(index.signature_of(key)))
            for key in index.candidates(signature) if key != exclude]
    return sorted((hit for hit in hits if hit[1] >= floor),
                  key=lambda hit: (-hit[1], str(hit[0])))


# small value domains, so that sets overlap, collide in bands and repeat
VALUE_SETS = st.sets(st.integers(0, 30), max_size=24)


@given(steps=st.lists(st.tuples(st.integers(0, 7), st.none() | VALUE_SETS), max_size=30),
       queries=st.lists(VALUE_SETS, max_size=3),
       threshold=st.sampled_from([0.3, 0.5, 0.8]))
@settings(max_examples=100, deadline=None)
def test_query_scores_equal_pairwise_jaccard(steps, queries, threshold):
    """Array-scored queries return exactly the hits, floats and order of a
    loop over ``jaccard``, after adds, removes and re-adds (``None``
    removes a key), with and without ``exclude``, at ``min_similarity``
    0.0 and at the index threshold; each probes the same candidates."""
    index = LSHIndex(num_perm=128, threshold=threshold)
    for key, values in steps:
        if values is None:
            index.remove(f"k{key}")
        else:
            index.add(f"k{key}", HASHER.signature(values))
    probes = [(HASHER.signature(values), None) for values in queries]
    probes += [(index.signature_of(key), key) for key in index.keys()]
    for signature, key in probes:
        for exclude in {None, key}:
            for floor in (0.0, threshold):
                before = index.probe_count
                hits = index.query(signature, min_similarity=floor, exclude=exclude)
                assert index.probe_count - before == len(index.candidates(signature))
                assert hits == jaccard_query(index, signature, floor, exclude)
            assert index.query(signature, exclude=exclude) == jaccard_query(
                index, signature, threshold, exclude)
