"""Tests for the banding LSH index."""

import gc
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.lsh import LSHIndex, choose_banding
from repro.ml.minhash import MinHasher, MinHashSignature

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


class TupleBucketLSH:
    """The reference index: tuple band keys, one set of keys per bucket,
    and a ``jaccard`` call per candidate."""

    def __init__(self, num_perm, threshold):
        self.threshold = threshold
        self.bands, self.rows = choose_banding(num_perm, threshold)
        self.tables = [defaultdict(set) for _ in range(self.bands)]
        self.signatures = {}
        self.probe_count = 0

    def band_keys(self, signature):
        for band in range(self.bands):
            yield band, tuple(signature.values[band * self.rows:(band + 1) * self.rows])

    def add(self, key, signature):
        self.remove(key)
        self.signatures[key] = signature
        for band, band_key in self.band_keys(signature):
            self.tables[band][band_key].add(key)

    def remove(self, key):
        signature = self.signatures.pop(key, None)
        if signature is None:
            return
        for band, band_key in self.band_keys(signature):
            bucket = self.tables[band][band_key]
            bucket.discard(key)
            if not bucket:
                del self.tables[band][band_key]

    def candidates(self, signature):
        found = set()
        for band, band_key in self.band_keys(signature):
            found |= self.tables[band].get(band_key, set())
        self.probe_count += len(found)
        return found

    def query(self, signature, min_similarity=None, exclude=None):
        floor = self.threshold if min_similarity is None else min_similarity
        hits = [(key, signature.jaccard(self.signatures[key]))
                for key in self.candidates(signature) if key != exclude]
        return sorted((hit for hit in hits if hit[1] >= floor),
                      key=lambda hit: (-hit[1], str(hit[0])))


# three base sets and small edits of them: equal signatures share every
# bucket, near-equal ones most, so buckets hold one, two and many keys
BASES = [frozenset(range(0, 20)), frozenset(range(10, 30)), frozenset(range(40, 48))]
NEAR_SETS = st.builds(lambda base, edit: BASES[base] ^ edit, st.integers(0, len(BASES) - 1),
                      st.frozensets(st.integers(0, 50), max_size=2))
KEYS = [f"k{i}" for i in range(6)]
LSH_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(KEYS), NEAR_SETS),
    st.tuples(st.just("remove"), st.sampled_from(KEYS)),
    st.tuples(st.just("query"), NEAR_SETS, st.sampled_from([None] + KEYS),
              st.sampled_from([None, 0.0, 0.5, 0.9, 1.0]))), max_size=40)


@given(steps=LSH_STEPS, threshold=st.sampled_from([0.3, 0.5, 0.8]))
@settings(max_examples=200, deadline=None)
def test_index_answers_as_tuple_buckets_do(steps, threshold):
    """Through adds, re-adds, removes and queries (with and without
    ``exclude`` and ``min_similarity``), the slot index answers exactly as
    the tuple-bucket reference: equal query lists, candidate sets and
    probe counts, keys in the same order; a bucket is a slot while it
    holds one key, and a removed key's slot is reused."""
    index = LSHIndex(num_perm=128, threshold=threshold)
    reference = TupleBucketLSH(num_perm=128, threshold=threshold)
    most = 0
    for step in steps:
        if step[0] == "add":
            signature = HASHER.signature(step[2])
            index.add(step[1], signature)
            reference.add(step[1], signature)
        elif step[0] == "remove":
            index.remove(step[1])
            reference.remove(step[1])
        else:
            signature = HASHER.signature(step[1])
            before, reference_before = index.probe_count, reference.probe_count
            assert index.query(signature, step[3], step[2]) == reference.query(
                signature, step[3], step[2])
            assert index.candidates(signature) == reference.candidates(signature)
            assert (index.probe_count - before
                    == reference.probe_count - reference_before)
        most = max(most, len(index))
        assert index.keys() == list(reference.signatures)
        for key in KEYS:
            assert (key in index) == (key in reference.signatures)
        for key, signature in reference.signatures.items():
            assert index.signature_of(key) is signature
            before = index.probe_count
            assert index.query(signature, exclude=key) == reference.query(signature, exclude=key)
            assert index.probe_count - before == len(reference.candidates(signature))
        for table in index._tables:
            assert all(type(bucket) is int or len(bucket) > 1 for bucket in table.values())
    assert len(index._keys) == most


def test_keys_in_their_own_buckets_add_no_container():
    """A key alone in every bucket adds no garbage-collected container: its
    values are a matrix row and each bucket holds a slot number.  One set
    per bucket would add ``n * bands`` of them."""
    index = LSHIndex(num_perm=128, threshold=0.5)
    n = 200
    keys = [f"k{i}" for i in range(n)]
    signatures = [MinHashSignature(tuple(range(i * 128, (i + 1) * 128))) for i in range(n)]
    gc.collect()
    before = len(gc.get_objects())
    for key, signature in zip(keys, signatures):
        index.add(key, signature)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < n * index.bands / 100, grown
    assert all(len(table) == n for table in index._tables)
