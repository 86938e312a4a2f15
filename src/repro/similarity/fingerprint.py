"""Topology-aware CFG fingerprints: WL relabeling over quantized ACFGs.

The serve path's exact prediction cache keys on sha256-of-text, so a
repacked or junk-padded variant of a known sample — the dominant case in
real malware traffic — always misses.  Following "Topology-Aware Hashing
for Effective Control Flow Graph Similarity Analysis" (PAPERS.md), this
module computes a fingerprint that *survives* such mutations:

1. **Attribute quantization.**  Each vertex's Table I attribute vector
   (non-negative instruction/structure counts) is bucketed on a coarse
   log scale, so inserting a few junk instructions usually leaves the
   bucket tuple — and therefore the vertex's seed label — unchanged.
2. **Weisfeiler-Lehman relabeling, two streams.**  For ``iterations``
   rounds, every vertex's label is rehashed together with the sorted
   multisets of its out- and in-neighbour labels (the CFG is directed;
   direction is part of the topology).  Round ``k`` labels encode the
   vertex's radius-``k`` neighbourhood.  Two label streams run in
   parallel: an *attributed* stream seeded from the quantized buckets,
   and a *pure-structure* stream seeded from a constant.  Junk insertion
   perturbs attributes but barely touches the edges, so the structure
   stream gives variants a high similarity floor, while distinct
   programs (different topology) diverge in both streams.
3. **Multiset feature map.**  The fingerprint is the multiset of labels
   from *all* rounds ``0..iterations`` of both streams, tagged by round
   and stream, with the structure stream double-weighted.  The Jaccard
   similarity of two fingerprints' multisets is then a
   structure-dominant, normalized WL subtree kernel.  Calibrated on the
   synthetic corpus (all nine families): junk-code variants of one
   sample score >= ~0.64 exact (>= ~0.57 minhash-estimated), distinct
   samples (even same-family) score <= ~0.34 exact (<= ~0.38
   estimated).

Labels are 64-bit integers driven by the splitmix64 finalizer over pure
integer arithmetic — no process-salted ``hash()``, no global RNG — so
the same ACFG produces the same fingerprint in every process, forever.
Neighbour multisets are combined as *sums* of mixed labels (addition is
commutative), so relabeling or reordering the vertices of a graph
yields an identical fingerprint.  The whole relabeling runs as numpy
array operations over the ACFG's edge list, so a round costs O(n + E):
fingerprinting must stay far cheaper than the forward pass it lets the
serving tier skip.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from typing import Tuple

import numpy as np
import numpy.typing as npt

from repro.exceptions import SimilarityError
from repro.features.acfg import ACFG

#: Default WL relabeling rounds.  Round k sees a radius-k neighbourhood;
#: three rounds separate the nine synthetic families while junk-code
#: variants of one sample stay well above any sane threshold.
DEFAULT_WL_ITERATIONS = 3

#: Odd 64-bit constant (golden-ratio mix) used to spread multiset
#: occurrence indices across the hash space without re-hashing.
_OCCURRENCE_MIX = np.uint64(0x9E3779B97F4A7C15)

#: Multiplicity of the pure-structure label stream relative to the
#: attributed stream.  Structure survives junk-code mutation; weighting
#: it 2:1 keeps variants of one sample above ~0.7 Jaccard while distinct
#: topologies stay below ~0.25.
_STRUCTURE_WEIGHT = 2

#: splitmix64 finalizer constants (Steele et al.; public domain).
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL_2 = np.uint64(0x94D049BB133111EB)

#: Odd multipliers separating the three roles a label plays in one
#: relabeling step (the vertex's own label, an out-neighbour, an
#: in-neighbour) — without them ``a -> b`` and ``b -> a`` would hash
#: identically.
_ROLE_OWN = np.uint64(0xA24BAED4963EE407)
_ROLE_OUT = np.uint64(0x9FB21C651E98DF25)
_ROLE_IN = np.uint64(0xD6E8FEB86659FD93)

#: Stream domain-separation constants (arbitrary, fixed forever).
_DOMAIN_ATTRIBUTED = np.uint64(0x57_4C)    # "WL"
_DOMAIN_STRUCTURE = np.uint64(0x53_54)     # "ST"


def _mix64(values: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """Vectorized splitmix64 finalizer: a bijective 64-bit scrambler.

    All arithmetic wraps modulo 2**64 (numpy unsigned semantics), so the
    result is identical in every process and on every platform.  The
    Jaccard comparison only ever observes label *equality*, and a
    bijection preserves it exactly, so this cheap mixer is
    interchangeable with a cryptographic hash for similarity purposes —
    only multiset-sum combination below relies on its output spreading.
    """
    z = values + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MUL_1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL_2
    return np.asarray(z ^ (z >> np.uint64(31)), dtype=np.uint64)


def quantize_attributes(
    attributes: npt.NDArray[np.float64],
) -> npt.NDArray[np.int64]:
    """Per-vertex log8 buckets of the (non-negative count) attributes.

    ``bucket = floor(log8(1 + value))`` maps 0-6 -> 0, 7-62 -> 1,
    63-510 -> 2, ...: small absolute perturbations (a junk opaque
    predicate adds three instructions to one block) usually stay inside
    the bucket, while order-of-magnitude differences — what actually
    distinguishes families — cross it.  Finer buckets (log2) flip under
    junk insertion and WL amplifies every flip through its whole
    radius-k neighbourhood, collapsing variant similarity.
    """
    counts = np.maximum(np.asarray(attributes, dtype=np.float64), 0.0)
    return np.asarray(np.floor(np.log2(1.0 + counts) / 3.0), dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class CfgFingerprint:
    """The WL label multiset of one ACFG, plus its provenance.

    ``labels`` is the canonical sorted ``(element, count)`` view of the
    multiset, where each element is a 64-bit hash of ``(round, label)``.
    Two fingerprints are comparable only when they used the same number
    of ``iterations``.
    """

    labels: Tuple[Tuple[int, int], ...]
    num_vertices: int
    iterations: int

    @property
    def size(self) -> int:
        """Total multiset cardinality (both streams, structure weighted)."""
        return sum(count for _, count in self.labels)

    def expanded_elements(self) -> npt.NDArray[np.uint64]:
        """The multiset expanded to distinct 64-bit elements.

        Occurrence ``i`` of a label becomes ``label ^ (i * MIX)``, so
        multiplicities participate in Jaccard/minhash comparisons (the
        standard multiset-to-set expansion).
        """
        if not self.labels:
            return np.empty(0, dtype=np.uint64)
        num_labels = len(self.labels)
        elements = np.fromiter(
            (element for element, _ in self.labels),
            dtype=np.uint64, count=num_labels,
        )
        counts = np.fromiter(
            (count for _, count in self.labels),
            dtype=np.int64, count=num_labels,
        )
        repeated = np.repeat(elements, counts)
        # Per-group occurrence index: global position minus the group's
        # starting offset (the vectorized form of enumerate-per-label).
        ends = np.cumsum(counts)
        offsets = np.repeat(ends - counts, counts).astype(np.uint64)
        occurrences = np.arange(ends[-1], dtype=np.uint64) - offsets
        return np.asarray(
            repeated ^ (occurrences * _OCCURRENCE_MIX), dtype=np.uint64
        )

    def digest(self) -> str:
        """sha256 over the canonical serialization (reproducibility tests)."""
        hasher = hashlib.sha256()
        hasher.update(self.iterations.to_bytes(4, "big"))
        for element, count in self.labels:
            hasher.update(element.to_bytes(8, "big"))
            hasher.update(count.to_bytes(8, "big"))
        return hasher.hexdigest()

    def jaccard(self, other: "CfgFingerprint") -> float:
        """Exact multiset Jaccard (intersection / union of counts)."""
        if self.iterations != other.iterations:
            raise SimilarityError(
                f"cannot compare fingerprints with {self.iterations} vs "
                f"{other.iterations} WL iterations"
            )
        mine = dict(self.labels)
        theirs = dict(other.labels)
        intersection = sum(
            min(count, theirs[element])
            for element, count in mine.items()
            if element in theirs
        )
        union = self.size + other.size - intersection
        return intersection / union if union else 1.0


def fingerprint_acfg(
    acfg: ACFG, iterations: int = DEFAULT_WL_ITERATIONS
) -> CfgFingerprint:
    """Compute the topology-aware fingerprint of one ACFG.

    Deterministic, vertex-order invariant, and independent of the
    attribute *scaling* (it must run on raw extracted counts, before
    ``AttributeScaler.transform``).
    """
    if iterations < 0:
        raise SimilarityError(
            f"fingerprint iterations must be >= 0, got {iterations}"
        )
    n = acfg.num_vertices
    sources, destinations = acfg.edges

    # Attributed-stream seeds: each vertex's bucket tuple, columns
    # distinguished by per-column tags (channel 3's bucket must not be
    # confused with channel 7's), combined as a sum of mixed values so
    # one matrix-wide _mix64 covers all channels at once.
    buckets = quantize_attributes(acfg.attributes).astype(np.uint64)
    if buckets.ndim == 2 and buckets.shape[1]:
        column_tags = (
            np.arange(1, buckets.shape[1] + 1, dtype=np.uint64)
            * _SPLITMIX_GAMMA
        )
        attr_seeds = _mix64(
            _mix64(buckets ^ column_tags[np.newaxis, :]).sum(axis=1)
        )
    else:
        attr_seeds = np.zeros(n, dtype=np.uint64)
    struct_seed = _mix64(np.zeros(1, dtype=np.uint64))[0]

    # Both streams run stacked as one (2, n) array: row 0 attributed,
    # row 1 pure-structure.  This is the serving tier's hot path — the
    # whole relabeling must stay far cheaper than one forward pass.
    labels = np.stack(
        [attr_seeds, np.full(n, struct_seed, dtype=np.uint64)]
    )
    domains = np.array(
        [_DOMAIN_ATTRIBUTED, _DOMAIN_STRUCTURE], dtype=np.uint64
    )
    collected = []
    for round_index in range(iterations + 1):
        if round_index:
            # One WL round, fully vectorized.  A neighbour multiset
            # enters as the *sum* of its mixed labels: addition is
            # commutative, so vertex order cannot influence the result,
            # and two different multisets colliding on their sum is a
            # ~2**-64 event.
            # The sums are scatter-adds over the edge list, wrapping
            # modulo 2**64 exactly as the dense uint64 product did.
            mixed = _mix64(labels)
            out_sum = np.zeros_like(mixed)
            in_sum = np.zeros_like(mixed)
            for stream in range(2):  # 1-D ufunc.at is numpy's fast path
                np.add.at(out_sum[stream], sources, mixed[stream, destinations])
                np.add.at(in_sum[stream], destinations, mixed[stream, sources])
            labels = _mix64(
                mixed * _ROLE_OWN + out_sum * _ROLE_OUT + in_sum * _ROLE_IN
            )
        # Tag by (stream, round) so identical labels from different
        # rounds stay distinct multiset elements.
        round_tags = _mix64(
            np.full(2, round_index, dtype=np.uint64)
            * _SPLITMIX_GAMMA ^ domains
        )
        collected.append(_mix64(labels ^ round_tags[:, np.newaxis]))

    multiset: Counter[int] = Counter()
    stacked = np.stack(collected)
    for stream_index, weight in ((0, 1), (1, _STRUCTURE_WEIGHT)):
        elements, counts = np.unique(
            stacked[:, stream_index, :], return_counts=True
        )
        for element, count in zip(elements.tolist(), counts.tolist()):
            multiset[element] += count * weight

    return CfgFingerprint(
        labels=tuple(sorted(multiset.items())),
        num_vertices=n,
        iterations=iterations,
    )
