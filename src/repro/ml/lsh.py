"""Locality-sensitive hashing over MinHash signatures.

Aurum "indexes these signatures using locality-sensitive hashing (LSH)" and
thereby replaces the O(n²) all-pairs comparison with approximately linear
probing (Sec. 6.2.1) — the claim our ``bench_claim_aurum_scaling`` benchmark
measures.  The index uses the standard banding scheme: a signature of length
``bands * rows`` is cut into bands; two signatures collide when any band
hashes identically, giving the familiar S-curve collision probability
``1 - (1 - s^rows)^bands`` for Jaccard similarity ``s``.

An indexed key costs no Python container of its own.  Its signature
values are one row of a single ``uint32`` matrix (MinHash values are
below ``2^32``), addressed by a *slot* that a removed key frees for the
next one.  A band's bucket key is that band's bytes, and a bucket
holding one key stores just its slot (an ``int``), turning into a set of
slots only while a second key shares it.  A query gathers its candidate
slots and scores them all with one array comparison.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set, Tuple, Union

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
    ``uint32`` rows (about 0.5 KB per key).  Hits are ranked by estimate,
    then by ``str(key)``, which is kept from :meth:`add`.
    """

    def __init__(self, num_perm: int = 128, threshold: float = 0.5):
        self.num_perm = num_perm
        self.threshold = threshold
        self.bands, self.rows = choose_banding(num_perm, threshold)
        # per band: band bytes -> the slot of its one key, or a set of slots
        self._tables: List[Dict[bytes, Union[int, Set[int]]]] = [
            {} for _ in range(self.bands)]
        self._band = np.dtype((np.void, 4 * self.rows))  # a band of a row, as bytes
        self._matrix = np.empty((0, num_perm), dtype=np.uint32)  # slot -> values
        self._slots: Dict[Hashable, int] = {}
        # slot -> its key, str(key) and signature; None in a free slot
        self._keys: List[Hashable] = []
        self._names: List[Optional[str]] = []
        self._signatures: List[Optional[MinHashSignature]] = []
        self._free: List[int] = []
        self.probe_count = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

    def _row(self, signature: MinHashSignature, what: str) -> np.ndarray:
        if len(signature) != self.num_perm:
            raise ValueError(
                f"{what} length {len(signature)} != index num_perm {self.num_perm}")
        return np.fromiter(signature.values, dtype=np.uint32, count=self.num_perm)

    def add(self, key: Hashable, signature: MinHashSignature) -> None:
        """Insert *key* with its signature (re-inserting replaces)."""
        row = self._row(signature, "signature")
        if key in self._slots:
            self.remove(key)
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
            self._names[slot] = str(key)
            self._signatures[slot] = signature
        else:
            slot = len(self._keys)
            if slot == len(self._matrix):
                grown = np.empty((max(64, 2 * slot), self.num_perm), dtype=np.uint32)
                grown[:slot] = self._matrix
                self._matrix = grown
            self._keys.append(key)
            self._names.append(str(key))
            self._signatures.append(signature)
        self._matrix[slot] = row
        self._slots[key] = slot
        for table, band_key in zip(self._tables, row.view(self._band).tolist()):
            bucket = table.get(band_key)
            if bucket is None:
                table[band_key] = slot
            elif type(bucket) is int:
                table[band_key] = {bucket, slot}
            else:
                bucket.add(slot)

    def remove(self, key: Hashable) -> None:
        """Remove *key* if present (supports Aurum's incremental updates)."""
        slot = self._slots.pop(key, None)
        if slot is None:
            return
        for table, band_key in zip(self._tables,
                                   self._matrix[slot].view(self._band).tolist()):
            bucket = table[band_key]
            if type(bucket) is int:
                del table[band_key]
            else:
                bucket.discard(slot)
                if len(bucket) == 1:
                    table[band_key] = bucket.pop()
        self._keys[slot] = self._names[slot] = self._signatures[slot] = None
        self._free.append(slot)

    def _probe(self, row: np.ndarray) -> Set[int]:
        """Slots colliding with *row* in at least one band (counted as probes)."""
        found: Set[int] = set()
        for table, band_key in zip(self._tables, row.view(self._band).tolist()):
            bucket = table.get(band_key)
            if bucket is None:
                continue
            if type(bucket) is int:
                found.add(bucket)
            else:
                found |= bucket
        self.probe_count += len(found)
        return found

    def candidates(self, signature: MinHashSignature) -> Set[Hashable]:
        """Keys colliding with *signature* in at least one band."""
        keys = self._keys
        return {keys[slot] for slot in self._probe(self._row(signature, "query signature"))}

    def query(
        self,
        signature: MinHashSignature,
        min_similarity: Optional[float] = None,
        exclude: Hashable = None,
    ) -> List[Tuple[Hashable, float]]:
        """Candidates with estimated Jaccard >= *min_similarity*, best first."""
        floor = self.threshold if min_similarity is None else min_similarity
        row = self._row(signature, "query signature")
        found = self._probe(row)
        found.discard(self._slots.get(exclude))
        if not found:
            return []
        slots = np.fromiter(found, dtype=np.intp, count=len(found))
        # int / int, as jaccard divides: float64 division of exact integers
        estimates = np.count_nonzero(self._matrix[slots] == row, axis=1) / self.num_perm
        over = estimates >= floor
        names = self._names
        hits = sorted(zip(slots[over].tolist(), estimates[over].tolist()),
                      key=lambda hit: (-hit[1], names[hit[0]]))
        keys = self._keys
        return [(keys[slot], estimate) for slot, estimate in hits]

    def signature_of(self, key: Hashable) -> MinHashSignature:
        return self._signatures[self._slots[key]]

    def keys(self) -> List[Hashable]:
        return list(self._slots)
