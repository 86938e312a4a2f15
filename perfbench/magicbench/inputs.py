"""Seeded inputs for every workload.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical listings in the same order, a different seed gives
different ones.  The program under test only ever sees the generated
text.

A stream is built in two steps.  :func:`stream_for` draws a list of
*specs* (which family, which sample index, which obfuscation knobs,
which malformation) and a request sequence over them; :func:`materialize`
then turns one spec into listing text.  Specs are small and picklable,
so materialization can run in worker processes.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.datasets.mskcfg import (
    MSKCFG_FAMILIES,
    MSKCFG_FAMILY_COUNTS,
    MSKCFG_PROFILES,
    family_sample_counts,
    generate_mskcfg_sample,
)
from repro.datasets.synthetic_asm import ObfuscationKnobs

#: Offset between a workload seed and the corpus seed handed to the
#: generator, so workload listings never coincide with the served
#: model's own training corpus (which uses :data:`FIXTURE_SEED`).
STREAM_SEED_OFFSET = 100_000

#: Seed of the served model's training corpus (a fixed fixture, not an
#: input: the model is part of the system under test).
FIXTURE_SEED = 7

#: Extra junk-code probability per variant step.  Steps are coarse
#: because junk insertion draws one number per site: two close
#: probabilities select the same sites and give identical text.
JUNK_STEP = 0.1
VARIANT_STEPS = 3

MALFORMED_MODES = ("truncated", "garbled")

#: Characters a garbled listing loses: every hex digit and the colon, so
#: no line keeps an address or a label and the listing parses to nothing.
_GARBLE_SOURCE = "0123456789abcdefABCDEF:"
_GARBLE_TARGETS = "~#%&!|"


@dataclasses.dataclass(frozen=True)
class ListingSpec:
    """Coordinates of one distinct listing.

    ``kind`` is ``"base"`` (a plain corpus sample), ``"variant"`` (the
    same sample re-obfuscated with ``junk_step`` more junk-code steps)
    or ``"malformed"`` (a base listing cut short or garbled; ``mode``
    says which).
    """

    kind: str
    family: str
    index: int
    seed: int
    junk_step: int = 0
    mode: str = ""

    @property
    def name(self) -> str:
        suffix = {"base": "", "variant": f"-v{self.junk_step}",
                  "malformed": f"-{self.mode}"}[self.kind]
        return f"{self.family}_{self.index:05d}{suffix}"


@dataclasses.dataclass(frozen=True)
class Request:
    """One position of a request stream: which listing, and why."""

    listing: int  # index into Stream.specs
    role: str     # "fresh" | "repeat" | "variant" | "malformed"


@dataclasses.dataclass
class Stream:
    workload: str
    seed: int
    specs: List[ListingSpec]
    requests: List[Request]

    def role_shares(self) -> Dict[str, float]:
        counts = Counter(request.role for request in self.requests)
        total = len(self.requests)
        return {role: counts.get(role, 0) / total
                for role in ("repeat", "variant", "fresh", "malformed")}


def materialize(spec: ListingSpec) -> str:
    """Listing text for ``spec`` (deterministic)."""
    knobs = None
    if spec.kind == "variant":
        profile = MSKCFG_PROFILES[spec.family]
        knobs = ObfuscationKnobs(junk_probability=min(
            0.95, profile.junk_probability + JUNK_STEP * spec.junk_step
        ))
    _, text, _ = generate_mskcfg_sample(
        spec.family, spec.index, seed=spec.seed, knobs=knobs
    )
    if spec.kind == "malformed":
        text = malform(text, spec.mode, spec.name)
    return text


def malform(text: str, mode: str, name: str) -> str:
    """A listing the front end must reject with a ``parse`` failure.

    ``truncated`` keeps a header comment naming the sample, the first
    label line and the first few bytes of the next line, cutting it
    inside its address (a transfer that died in the header).
    ``garbled`` keeps the length and line structure but maps every hex
    digit and colon to junk symbols (a mis-decoded file).  Neither
    leaves an addressable instruction, and both stay distinct per
    sample.
    """
    if mode == "truncated":
        lines = text.splitlines()
        return f"; Input file: {name}.exe\n{lines[0]}\n{lines[1][:9]}"
    if mode == "garbled":
        shift = sum(map(ord, name)) % len(_GARBLE_TARGETS)
        targets = _GARBLE_TARGETS[shift:] + _GARBLE_TARGETS[:shift]
        table = str.maketrans({
            char: targets[position % len(targets)]
            for position, char in enumerate(_GARBLE_SOURCE)
        })
        return text.translate(table)
    raise ValueError(f"unknown malformation {mode!r}")


def family_schedule() -> Iterator[str]:
    """Families in a fixed order with the Figure 7 proportions.

    Smooth weighted round-robin: every prefix of the sequence is as close
    to the corpus proportions as whole counts allow.  The order is the
    same for every seed, so the family mix (and with it most of the
    listing-size mix) does not vary between seeds; the listings do.
    """
    total = sum(MSKCFG_FAMILY_COUNTS.values())
    credit = dict.fromkeys(MSKCFG_FAMILIES, 0)
    while True:
        for family in MSKCFG_FAMILIES:
            credit[family] += MSKCFG_FAMILY_COUNTS[family]
        family = max(MSKCFG_FAMILIES, key=credit.__getitem__)
        credit[family] -= total
        yield family


class _SpecTable:
    """Distinct specs in first-seen order, deduplicated by value."""

    def __init__(self) -> None:
        self.specs: List[ListingSpec] = []
        self._positions: Dict[ListingSpec, int] = {}

    def add(self, spec: ListingSpec) -> Tuple[int, bool]:
        position = self._positions.get(spec)
        if position is not None:
            return position, False
        self._positions[spec] = len(self.specs)
        self.specs.append(spec)
        return len(self.specs) - 1, True


def unique_stream(seed: int, count: int, malformed_share: float = 0.02) -> Stream:
    """``serve-unique``: ``count`` distinct listings, each sent once.

    Families follow :func:`family_schedule`; about ``malformed_share``
    of the listings are truncated or garbled copies of a fresh sample.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    corpus_seed = STREAM_SEED_OFFSET + seed
    families = family_schedule()
    next_index = Counter()
    table = _SpecTable()
    requests: List[Request] = []
    for family in itertools.islice(families, count):
        index = next_index[family]
        next_index[family] += 1
        if rng.random() < malformed_share:
            mode = MALFORMED_MODES[int(rng.integers(len(MALFORMED_MODES)))]
            spec = ListingSpec("malformed", family, index, corpus_seed, mode=mode)
            role = "malformed"
        else:
            spec = ListingSpec("base", family, index, corpus_seed)
            role = "fresh"
        position, _ = table.add(spec)
        requests.append(Request(position, role))
    return Stream("serve-unique", seed, table.specs, requests)


#: serve-resubmit request mix (shares of the stream).
RESUBMIT_MIX = (("repeat", 0.72), ("variant", 0.16), ("fresh", 0.09),
                ("malformed", 0.03))

#: Zipf exponent of listing popularity: a few listings are resubmitted
#: often, most rarely.
POPULARITY_EXPONENT = 1.1


def resubmit_stream(seed: int, count: int) -> Stream:
    """``serve-resubmit``: a skewed mix over a growing set of listings.

    * ``repeat`` resends an earlier well-formed listing (base or
      variant), chosen by Zipf popularity;
    * ``variant`` sends a re-obfuscated variant of an earlier base
      (possibly one already sent, which then hits the exact tier);
    * ``fresh`` sends a new base listing;
    * ``malformed`` sends a truncated or garbled copy of an earlier base.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    corpus_seed = STREAM_SEED_OFFSET + seed
    families = family_schedule()
    roles = [role for role, _ in RESUBMIT_MIX]
    shares = np.array([share for _, share in RESUBMIT_MIX])
    next_index = Counter()
    table = _SpecTable()
    requests: List[Request] = []
    sent: List[int] = []    # well-formed listings sent so far
    bases: List[int] = []   # base listings sent so far
    popularity: Dict[int, float] = {}

    def pick(pool: Sequence[int]) -> int:
        p = np.array([popularity[listing] for listing in pool])
        return pool[int(rng.choice(len(pool), p=p / p.sum()))]

    def remember(listing: int, created: bool) -> None:
        if created:
            sent.append(listing)
            popularity[listing] = _zipf(rng)

    for position in range(count):
        role = "fresh" if position == 0 else roles[int(rng.choice(4, p=shares))]
        if role == "repeat":
            listing = pick(sent)
        elif role == "variant":
            base = table.specs[pick(bases)]
            listing, created = table.add(dataclasses.replace(
                base, kind="variant",
                junk_step=int(rng.integers(1, VARIANT_STEPS + 1))))
            remember(listing, created)
        elif role == "malformed":
            base = table.specs[pick(bases)]
            mode = MALFORMED_MODES[int(rng.integers(len(MALFORMED_MODES)))]
            listing, _ = table.add(dataclasses.replace(
                base, kind="malformed", mode=mode))
        else:
            family = next(families)
            listing, created = table.add(ListingSpec(
                "base", family, next_index[family], corpus_seed))
            next_index[family] += 1
            remember(listing, created)
            bases.append(listing)
        requests.append(Request(listing, role))
    return Stream("serve-resubmit", seed, table.specs, requests)


def _zipf(rng: np.random.Generator) -> float:
    """A popularity weight: rank drawn uniformly, weight by Zipf's law."""
    return 1.0 / float(rng.integers(1, 200)) ** POPULARITY_EXPONENT


def corpus_specs(seed: int, total: int) -> List[ListingSpec]:
    """Specs of an MSKCFG-synthetic training corpus (Figure 7 shape).

    Same samples, same order as ``generate_mskcfg_listings(total, seed)``.
    """
    counts = family_sample_counts(total)
    return [ListingSpec("base", family, index, seed)
            for family in MSKCFG_FAMILIES
            for index in range(counts[family])]


def label_of(spec: ListingSpec) -> int:
    return MSKCFG_FAMILIES.index(spec.family)


def stream_for(workload: str, seed: int, count: int) -> Stream:
    if workload == "serve-unique":
        return unique_stream(seed, count)
    if workload == "serve-resubmit":
        return resubmit_stream(seed, count)
    raise ValueError(f"no request stream for workload {workload!r}")


def describe_shape(stream: Stream, texts: Sequence[str],
                   vertices: Sequence[int]) -> Dict[str, object]:
    """Input shape: listing lines, vertex counts and the role mix."""
    lines = [text.count("\n") + 1 for text in texts]
    shape: Dict[str, object] = {
        "requests": len(stream.requests),
        "distinct_listings": len(stream.specs),
        "listing_lines_p50": float(np.median(lines)),
        "listing_lines_max": int(max(lines)),
        "vertices_p50": float(np.median(vertices)) if vertices else 0.0,
        "vertices_max": int(max(vertices)) if vertices else 0,
    }
    shape.update({f"share_{role}": round(share, 4)
                  for role, share in stream.role_shares().items()})
    return shape
