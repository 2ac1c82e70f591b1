"""MinHash sketches for Jaccard estimation.

Aurum profiles every column with "a representation of data values (i.e.,
MinHash)" and D3L / Juneau / Brackenbury et al. all estimate Jaccard
similarity with MinHash (Table 3).  The implementation uses the classic
universal-hash family ``h_i(x) = ((a_i * x + b_i) mod p) & (2^32 - 1)``
with the Mersenne prime ``p = 2^61 - 1``, seeded deterministically so
signatures are reproducible across processes.

The family is evaluated in numpy ``uint64`` with exact integer
arithmetic, so a signature is the same as Python's unbounded integers
give.  Each ``a_i`` (below ``2^61``) is split into a high part below
``2^29`` and a low part below ``2^32``; a 32-bit hash times either part
fits in 64 bits, and ``2^61 ≡ 1 (mod p)`` folds the high product and the
sum back below ``p``.  Hashes go through the kernel in blocks of
``_BLOCK``, which bounds its temporaries to ``num_perm × _BLOCK`` words.
Batch signatures and :class:`IncrementalMinHash` share that one kernel.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1
_BLOCK = 128  # hashes per kernel step

_P = np.uint64(_MERSENNE_PRIME)
_LOW29 = np.uint64((1 << 29) - 1)
_LOW32 = np.uint64(_MAX_HASH)
_S29, _S32, _S61 = np.uint64(29), np.uint64(32), np.uint64(61)


def _stable_hash(token: str) -> int:
    """Deterministic 32-bit hash of a token (process-independent)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & _MAX_HASH


@dataclass(frozen=True)
class MinHashSignature:
    """An immutable MinHash signature of a value set."""

    values: Tuple[int, ...]
    set_size: int = 0

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimate the Jaccard similarity of the underlying sets."""
        if len(self.values) != len(other.values):
            raise ValueError("signatures have different lengths")
        if not self.values:
            return 0.0
        matches = sum(1 for a, b in zip(self.values, other.values) if a == b)
        return matches / len(self.values)

    def __len__(self) -> int:
        return len(self.values)


class MinHasher:
    """Factory producing fixed-length MinHash signatures.

    Parameters
    ----------
    num_perm:
        Number of hash permutations (signature length).  128 matches the
        datasketch default used by the Aurum and D3L implementations.
    seed:
        Seed for the hash family; two hashers with equal seeds produce
        comparable signatures.
    """

    def __init__(self, num_perm: int = 128, seed: int = 1):
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        self.num_perm = num_perm
        self.seed = seed
        rng = random.Random(seed)
        a, b = zip(*[
            (rng.randrange(1, _MERSENNE_PRIME), rng.randrange(0, _MERSENNE_PRIME))
            for _ in range(num_perm)
        ])
        # column vectors, so one kernel step broadcasts against a row of hashes
        a = np.array(a, dtype=np.uint64)[:, None]
        self._a_hi = a >> _S32
        self._a_lo = a & _LOW32
        self._b = np.array(b, dtype=np.uint64)[:, None]

    def _min_permuted(self, hashes: np.ndarray) -> np.ndarray:
        """Per-permutation minimum of ``((a*h + b) mod p) & (2^32 - 1)``.

        *hashes* is a non-empty ``uint64`` array of 32-bit hashes.  Every
        intermediate stays below ``2^63``: ``a_hi*h < 2^61``,
        ``a_lo*h < 2^64`` and each folded term is below ``2^61 + 2^32``.
        """
        mins = None
        for start in range(0, len(hashes), _BLOCK):
            h = hashes[start:start + _BLOCK]
            high = self._a_hi * h  # a*h == high * 2^32 + low
            low = self._a_lo * h
            # high * 2^32 == (high >> 29) * 2^61 + (high & LOW29) * 2^32, and
            # low == (low >> 61) * 2^61 + (low & p); each 2^61 counts as 1
            total = (((high & _LOW29) << _S32) + (high >> _S29)
                     + (low & _P) + (low >> _S61) + self._b)
            total = (total & _P) + (total >> _S61)
            total[total >= _P] -= _P
            block_mins = (total & _LOW32).min(axis=1)
            mins = block_mins if mins is None else np.minimum(mins, block_mins)
        return mins

    def signature(self, values: Iterable) -> MinHashSignature:
        """Compute the signature of an iterable of values (stringified)."""
        hashes = {_stable_hash(str(v)) for v in values}
        if not hashes:
            return MinHashSignature(tuple([_MAX_HASH] * self.num_perm), 0)
        mins = self._min_permuted(np.fromiter(hashes, dtype=np.uint64, count=len(hashes)))
        return MinHashSignature(tuple(mins.tolist()), len(hashes))

    def compatible(self, signature: MinHashSignature) -> bool:
        """Whether *signature* was produced with this hasher's geometry."""
        return len(signature) == self.num_perm

    def incremental(self) -> "IncrementalMinHash":
        """An updatable sketch sharing this hasher's hash family."""
        return IncrementalMinHash(self)


class IncrementalMinHash:
    """A MinHash sketch updatable one value at a time (streaming setting).

    Feeding the same value set yields *exactly* the signature
    :meth:`MinHasher.signature` computes, because each value goes through
    the same kernel and is folded in with ``np.minimum`` — so
    stream-maintained sketches are directly comparable with batch-indexed
    ones (tested as an invariant).

    Memory is **bounded** regardless of stream length: besides the
    fixed-size signature minima, only a KMV (k-minimum-values) set of at
    most ``kmv_size`` hashes is retained, which doubles as the distinct-
    count estimator — exact below ``kmv_size`` distinct values, the
    standard ``(k-1) / kth_min`` estimate beyond.
    """

    def __init__(self, hasher: MinHasher, kmv_size: int = 256):
        self._hasher = hasher
        self._mins = np.full(hasher.num_perm, _MAX_HASH, dtype=np.uint64)
        self._seen = 0
        self._empty = True
        self._kmv_size = kmv_size
        self._kmv: set = set()       # the kmv_size smallest unique hashes
        self._kmv_max = -1           # current largest retained hash

    def update(self, value) -> None:
        """Fold one value into the sketch (duplicates only cost CPU)."""
        h = _stable_hash(str(value))
        self._seen += 1
        self._empty = False
        # KMV maintenance: keep the kmv_size smallest distinct hashes
        if h not in self._kmv and (len(self._kmv) < self._kmv_size or h < self._kmv_max):
            self._kmv.add(h)
            if len(self._kmv) > self._kmv_size:
                self._kmv.discard(max(self._kmv))
            self._kmv_max = max(self._kmv)
        permuted = self._hasher._min_permuted(np.array([h], dtype=np.uint64))
        np.minimum(self._mins, permuted, out=self._mins)

    def update_many(self, values: Iterable) -> None:
        for value in values:
            self.update(value)

    @property
    def values_seen(self) -> int:
        return self._seen

    @property
    def distinct_count(self) -> int:
        """Distinct values seen: exact below kmv_size, estimated beyond."""
        if len(self._kmv) < self._kmv_size:
            return len(self._kmv)
        kth = max(self._kmv)
        if kth == 0:
            return len(self._kmv)
        return int((self._kmv_size - 1) * (_MAX_HASH + 1) / kth)

    @property
    def state_items(self) -> int:
        """Retained items — constant-bounded regardless of stream length."""
        return len(self._mins) + len(self._kmv)

    def signature(self) -> MinHashSignature:
        """The current immutable signature snapshot."""
        if self._empty:
            return MinHashSignature(tuple([_MAX_HASH] * self._hasher.num_perm), 0)
        return MinHashSignature(tuple(self._mins.tolist()), self.distinct_count)
