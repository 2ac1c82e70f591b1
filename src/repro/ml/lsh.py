"""Locality-sensitive hashing over MinHash signatures.

Aurum "indexes these signatures using locality-sensitive hashing (LSH)" and
thereby replaces the O(n²) all-pairs comparison with approximately linear
probing (Sec. 6.2.1) — the claim our ``bench_claim_aurum_scaling`` benchmark
measures.  The index uses the standard banding scheme: a signature of length
``bands * rows`` is cut into bands; two signatures collide when any band
hashes identically, giving the familiar S-curve collision probability
``1 - (1 - s^rows)^bands`` for Jaccard similarity ``s``.

Beside each signature the index keeps its values as one ``uint32`` row
(MinHash values are below ``2^32``), so a query scores all of its
candidates with one array comparison instead of a Python loop per pair.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.ml.minhash import MinHashSignature


def choose_banding(num_perm: int, threshold: float) -> Tuple[int, int]:
    """Pick (bands, rows) whose S-curve threshold approximates *threshold*.

    The S-curve's inflection point sits near ``(1/bands) ** (1/rows)``; we
    scan divisors of ``num_perm`` and keep the closest.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    best: Optional[Tuple[int, int]] = None
    best_gap = math.inf
    for rows in range(1, num_perm + 1):
        if num_perm % rows:
            continue
        bands = num_perm // rows
        inflection = (1.0 / bands) ** (1.0 / rows)
        gap = abs(inflection - threshold)
        if gap < best_gap:
            best_gap = gap
            best = (bands, rows)
    assert best is not None
    return best


class LSHIndex:
    """A banding LSH index mapping MinHash signatures to item keys.

    ``probe_count`` tracks how many candidate inspections each query cost,
    which the Aurum scaling benchmark compares against the quadratic
    all-pairs baseline.  A query's estimate for a candidate is its share
    of equal signature values, ``matches / num_perm``: the float
    :meth:`MinHashSignature.jaccard` returns, computed over the stored
    ``uint32`` rows (about 0.6 KB per key).
    """

    def __init__(self, num_perm: int = 128, threshold: float = 0.5):
        self.num_perm = num_perm
        self.threshold = threshold
        self.bands, self.rows = choose_banding(num_perm, threshold)
        self._tables: List[Dict[Tuple[int, ...], Set[Hashable]]] = [
            defaultdict(set) for _ in range(self.bands)
        ]
        self._signatures: Dict[Hashable, MinHashSignature] = {}
        self._rows: Dict[Hashable, np.ndarray] = {}  # each signature as uint32
        self.probe_count = 0

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._signatures

    def _band_keys(self, signature: MinHashSignature) -> Iterable[Tuple[int, Tuple[int, ...]]]:
        for band in range(self.bands):
            start = band * self.rows
            yield band, tuple(signature.values[start : start + self.rows])

    def add(self, key: Hashable, signature: MinHashSignature) -> None:
        """Insert *key* with its signature (re-inserting replaces)."""
        if len(signature) != self.num_perm:
            raise ValueError(
                f"signature length {len(signature)} != index num_perm {self.num_perm}"
            )
        if key in self._signatures:
            self.remove(key)
        self._signatures[key] = signature
        self._rows[key] = np.array(signature.values, dtype=np.uint32)
        for band, band_key in self._band_keys(signature):
            self._tables[band][band_key].add(key)

    def remove(self, key: Hashable) -> None:
        """Remove *key* if present (supports Aurum's incremental updates)."""
        signature = self._signatures.pop(key, None)
        if signature is None:
            return
        del self._rows[key]
        for band, band_key in self._band_keys(signature):
            bucket = self._tables[band].get(band_key)
            if bucket:
                bucket.discard(key)
                if not bucket:
                    del self._tables[band][band_key]

    def candidates(self, signature: MinHashSignature) -> Set[Hashable]:
        """Keys colliding with *signature* in at least one band."""
        if len(signature) != self.num_perm:
            raise ValueError(
                f"query signature length {len(signature)} != index num_perm "
                f"{self.num_perm}"
            )
        found: Set[Hashable] = set()
        for band, band_key in self._band_keys(signature):
            found |= self._tables[band].get(band_key, set())
        self.probe_count += len(found)
        return found

    def query(
        self,
        signature: MinHashSignature,
        min_similarity: Optional[float] = None,
        exclude: Hashable = None,
    ) -> List[Tuple[Hashable, float]]:
        """Candidates with estimated Jaccard >= *min_similarity*, best first."""
        floor = self.threshold if min_similarity is None else min_similarity
        keys = [key for key in self.candidates(signature) if key != exclude]
        if not keys:
            return []
        rows = np.stack([self._rows[key] for key in keys])
        matches = np.count_nonzero(
            rows == np.array(signature.values, dtype=np.uint32), axis=1)
        hits = []
        for key, count in zip(keys, matches.tolist()):
            estimate = count / self.num_perm  # int / int, as jaccard divides
            if estimate >= floor:
                hits.append((key, estimate))
        hits.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return hits

    def signature_of(self, key: Hashable) -> MinHashSignature:
        return self._signatures[key]

    def keys(self) -> List[Hashable]:
        return list(self._signatures)
