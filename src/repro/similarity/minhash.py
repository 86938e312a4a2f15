"""Fixed-seed minhash signatures over WL fingerprint multisets.

Exact multiset Jaccard between two fingerprints is O(labels); comparing
a new sample against *every* cached fingerprint is O(cache).  Minhash
compresses each fingerprint to a fixed-width signature whose
component-wise agreement rate is an unbiased estimate of the Jaccard
similarity — and, banded, feeds the LSH index (:mod:`repro.similarity
.lsh`) that makes candidate lookup O(1) in the cache size.

Determinism contract: the permutation parameters are drawn once from a
``default_rng`` seeded with an explicit constant (no global RNG), so
every process that builds a :class:`MinHasher` with the same
``num_permutations``/``seed`` produces bit-identical signatures for the
same fingerprint.  This is what lets fleet replicas, respawned workers,
and offline dedup runs share one fingerprint vocabulary.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.exceptions import SimilarityError
from repro.similarity.fingerprint import CfgFingerprint

#: Signature width.  128 permutations give a standard error of about
#: ``sqrt(s(1-s)/128)`` — under 0.05 at the thresholds that matter.
DEFAULT_NUM_PERMUTATIONS = 128

#: Fixed seed for the permutation parameters.  Changing it changes every
#: signature, so it is a format constant, not a knob.
DEFAULT_MINHASH_SEED = 0x7A51

#: Modulus for the universal hash family: the Mersenne prime 2^31 - 1.
#: Parameters and reduced elements stay below 2^31, so ``a * x + b``
#: fits comfortably in uint64 arithmetic with no overflow.
_PRIME = np.uint64(2**31 - 1)

#: Elements hashed per step of :meth:`MinHasher.signature`: a
#: (permutations x 256) uint64 block and its scratch stay cache-resident.
_CHUNK = 256


def _mod_mersenne(
    values: npt.NDArray[np.uint64], scratch: npt.NDArray[np.uint64]
) -> npt.NDArray[np.uint64]:
    """Reduce ``values`` modulo ``2**31 - 1`` in place, without division.

    Folding the high bits onto the low bits (``(x & p) + (x >> 31)``)
    preserves the residue; two folds bring any uint64 under ``2p``, and
    ``min(x, x - p)`` subtracts ``p`` once where needed (below ``p`` the
    difference wraps to a huge uint64).  Bit-identical to ``%``, which
    divides.  ``scratch`` is a same-shape buffer it may overwrite.
    """
    for _ in range(2):
        np.right_shift(values, np.uint64(31), out=scratch)
        values &= _PRIME
        values += scratch
    np.subtract(values, _PRIME, out=scratch)
    np.minimum(values, scratch, out=values)
    return values


class MinHasher:
    """Maps fingerprints to fixed-width minhash signatures.

    Parameters
    ----------
    num_permutations:
        Signature width (estimation accuracy vs memory/time).
    seed:
        Seed for the hash-family parameters.  Two hashers agree on
        signatures iff they share ``num_permutations`` and ``seed``.
    """

    def __init__(
        self,
        num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
        seed: int = DEFAULT_MINHASH_SEED,
    ) -> None:
        if num_permutations < 1:
            raise SimilarityError(
                f"num_permutations must be >= 1, got {num_permutations}"
            )
        self.num_permutations = num_permutations
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        # Column vectors: one row of the hashed block per permutation.
        shape = (num_permutations, 1)
        self._a = rng.integers(1, int(_PRIME), size=shape, dtype=np.uint64)
        self._b = rng.integers(0, int(_PRIME), size=shape, dtype=np.uint64)

    def signature(self, fingerprint: CfgFingerprint) -> npt.NDArray[np.uint64]:
        """The minhash signature of ``fingerprint`` (uint64, fixed width).

        ``sig[i] = min over elements x of (a_i * x + b_i) mod p`` — the
        classic universal-hash approximation of a random permutation's
        minimum.
        """
        elements = fingerprint.expanded_elements()
        if elements.size == 0:
            raise SimilarityError("cannot sign an empty fingerprint")
        _mod_mersenne(elements, np.empty_like(elements))
        width = min(elements.size, _CHUNK)
        hashed = np.empty((self.num_permutations, width), dtype=np.uint64)
        scratch = np.empty_like(hashed)
        signature = np.full(self.num_permutations, _PRIME, dtype=np.uint64)
        for start in range(0, elements.size, _CHUNK):
            chunk = elements[np.newaxis, start:start + _CHUNK]
            block = hashed[:, :chunk.shape[1]]
            np.multiply(self._a, chunk, out=block)
            block += self._b
            _mod_mersenne(block, scratch[:, :chunk.shape[1]])
            np.minimum(signature, block.min(axis=1), out=signature)
        return signature


def estimated_jaccard(
    signature_a: npt.NDArray[np.uint64], signature_b: npt.NDArray[np.uint64]
) -> float:
    """Unbiased Jaccard estimate: the signature agreement rate.

    Both signatures must come from the same :class:`MinHasher`
    configuration; widths are checked, parameters are the caller's
    contract.
    """
    if signature_a.shape != signature_b.shape:
        raise SimilarityError(
            f"signature widths differ: {signature_a.shape} vs "
            f"{signature_b.shape}"
        )
    return float(np.mean(signature_a == signature_b))
