"""LSH band index over minhash signatures: the near-duplicate cache tier.

A signature of ``P`` permutations is split into ``B`` bands of ``P/B``
rows; two signatures land in the same bucket of some band with
probability ``1 - (1 - s^rows)^B`` for true similarity ``s`` — the
classic S-curve.  With the defaults (128 permutations, 32 bands of 4
rows) a 0.7-similar pair — where junk-code variants of one sample live —
is found with probability > 0.999 while a 0.25-similar pair (where
distinct samples top out) rarely collides, so a query touches a handful
of candidates regardless of index size.

The index is a *cache tier*, so it carries cache obligations:

* **Bounded.**  ``max_entries`` with least-recently-used eviction; a
  query hit refreshes the matched entry's recency (it is serving
  traffic), eviction removes the entry from every band bucket.
* **Thread-safe.**  One lock serializes mutation and lookup; the engine
  calls it from HTTP handler / replica threads concurrently.
* **Honest about estimates.**  A bucket collision is only a candidate:
  the query computes the estimated Jaccard against each candidate's
  stored signature and applies the threshold, so the false-similar rate
  is bounded by the minhash estimation error, not by LSH banding luck.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.exceptions import SimilarityError
from repro.similarity.fingerprint import (
    DEFAULT_WL_ITERATIONS,
    CfgFingerprint,
)
from repro.similarity.minhash import (
    DEFAULT_MINHASH_SEED,
    DEFAULT_NUM_PERMUTATIONS,
    MinHasher,
    estimated_jaccard,
)

#: Default similarity threshold.  Calibrated on the synthetic corpus
#: (all nine families, three samples each, junk knobs up to +0.35):
#: junk-code variants of one sample estimate >= ~0.57 (most >= 0.7),
#: distinct samples (even same-family) <= ~0.38, so 0.5 sits
#: mid-corridor with >= 0.07 margin on each side — and the minhash
#: seeds are fixed, so those measurements are bit-reproducible, not
#: per-run noise (sigma ~= 0.045 at 128 permutations applies only
#: across corpus regeneration).
DEFAULT_SIMILARITY_THRESHOLD = 0.5

#: Default band count (with 128 permutations: 32 bands x 4 rows).
DEFAULT_NUM_BANDS = 32

#: Default bound on the number of indexed fingerprints.
DEFAULT_INDEX_SIZE = 4096


@dataclasses.dataclass
class SimilarityMatch:
    """A query hit: the matched entry and the similarity estimate."""

    key: str
    payload: Any
    similarity: float


class _Entry:
    __slots__ = ("signature", "payload", "band_keys")

    def __init__(self, signature: npt.NDArray[np.uint64], payload: Any,
                 band_keys: List[bytes]) -> None:
        self.signature = signature
        self.payload = payload
        self.band_keys = band_keys


class SimilarityIndex:
    """Bounded, thread-safe LSH index over CFG fingerprints.

    Parameters
    ----------
    threshold:
        Minimum estimated Jaccard for :meth:`query` to report a match.
    iterations:
        WL rounds expected of inserted fingerprints (checked, so one
        index never mixes incomparable fingerprints).
    num_permutations, num_bands, seed:
        Minhash/banding geometry; ``num_bands`` must divide
        ``num_permutations``.
    max_entries:
        LRU bound on indexed fingerprints (must be >= 1).
    """

    def __init__(
        self,
        threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
        iterations: int = DEFAULT_WL_ITERATIONS,
        num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
        num_bands: int = DEFAULT_NUM_BANDS,
        max_entries: int = DEFAULT_INDEX_SIZE,
        seed: int = DEFAULT_MINHASH_SEED,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise SimilarityError(
                f"similarity threshold must be in (0, 1], got {threshold}"
            )
        if num_bands < 1 or num_permutations % num_bands != 0:
            raise SimilarityError(
                f"num_bands ({num_bands}) must divide num_permutations "
                f"({num_permutations})"
            )
        if max_entries < 1:
            raise SimilarityError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.threshold = threshold
        self.iterations = iterations
        self.num_bands = num_bands
        self.rows_per_band = num_permutations // num_bands
        self.max_entries = max_entries
        self._hasher = MinHasher(num_permutations=num_permutations, seed=seed)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._buckets: List[Dict[bytes, Set[str]]] = [
            {} for _ in range(num_bands)
        ]
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- signatures ----------------------------------------------------

    def signature(self, fingerprint: CfgFingerprint) -> npt.NDArray[np.uint64]:
        """Sign a fingerprint with this index's hasher configuration."""
        if fingerprint.iterations != self.iterations:
            raise SimilarityError(
                f"index expects {self.iterations}-iteration fingerprints, "
                f"got {fingerprint.iterations}"
            )
        return self._hasher.signature(fingerprint)

    def _band_keys(self, signature: npt.NDArray[np.uint64]) -> List[bytes]:
        rows = self.rows_per_band
        return [
            signature[band * rows:(band + 1) * rows].tobytes()
            for band in range(self.num_bands)
        ]

    # -- mutation ------------------------------------------------------

    def insert(self, key: str, signature: npt.NDArray[np.uint64],
               payload: Any) -> None:
        """Index ``signature`` under ``key``; replaces an existing key."""
        band_keys = self._band_keys(signature)
        with self._lock:
            if key in self._entries:
                self._remove_locked(key)
            entry = _Entry(signature, payload, band_keys)
            self._entries[key] = entry
            for band, band_key in enumerate(band_keys):
                self._buckets[band].setdefault(band_key, set()).add(key)
            while len(self._entries) > self.max_entries:
                evicted, _ = next(iter(self._entries.items()))
                self._remove_locked(evicted)
                self._evictions += 1

    def _remove_locked(self, key: str) -> None:
        entry = self._entries.pop(key)  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock
        for band, band_key in enumerate(entry.band_keys):
            bucket = self._buckets[band].get(band_key)
            if bucket is None:
                continue
            bucket.discard(key)
            if not bucket:
                del self._buckets[band][band_key]

    # -- lookup --------------------------------------------------------

    def query(
        self, signature: npt.NDArray[np.uint64]
    ) -> Optional[SimilarityMatch]:
        """Best indexed entry whose estimated Jaccard clears the threshold.

        Returns ``None`` on a miss.  A hit refreshes the matched entry's
        LRU recency: an entry that keeps absorbing variant traffic is
        exactly the one worth keeping indexed.
        """
        band_keys = self._band_keys(signature)
        with self._lock:
            candidates: Set[str] = set()
            for band, band_key in enumerate(band_keys):
                candidates.update(
                    self._buckets[band].get(band_key, ())
                )
            best: Optional[Tuple[float, str]] = None
            for key in candidates:
                similarity = estimated_jaccard(
                    signature, self._entries[key].signature
                )
                if similarity < self.threshold:
                    continue
                if best is None or similarity > best[0]:
                    best = (similarity, key)
            if best is None:
                self._misses += 1
                return None
            similarity, key = best
            entry = self._entries[key]
            self._entries.move_to_end(key)
            self._hits += 1
            return SimilarityMatch(
                key=key, payload=entry.payload, similarity=similarity
            )

    # -- observability -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bound": self.max_entries,
                "threshold": self.threshold,
                "iterations": self.iterations,
                "num_bands": self.num_bands,
                "rows_per_band": self.rows_per_band,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
