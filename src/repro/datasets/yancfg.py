"""Synthetic YANCFG corpus (Section V-A, Figure 8).

The real YANCFG dataset contains 16,351 *pre-extracted* CFGs (no raw
code) across 12 malware families plus Benign, labelled by majority vote
over five AV scanners — a noisy process.  The paper observes:

* overall scores are lower than on MSKCFG,
* small families (Ldpinch, Lmir, Sdbot, Rbot) score markedly worse,
  with Rbot/Sdbot and Ldpinch/Lmir confusions (all four are classic
  IRC-bot / password-stealer lineages with shared codebases).

We reproduce those generating mechanisms directly:

* samples are delivered as CFGs (the dataset API exposes graphs, not
  listings — the asm is discarded after extraction, mirroring how YANCFG
  was distributed),
* profile pairs Rbot<->Sdbot and Ldpinch<->Lmir are *near-duplicates*
  with small parameter deltas,
* a fraction of the labels inside each confusable pair are swapped,
  simulating AV majority-vote noise.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cfg.builder import build_cfg_from_text
from repro.datasets.loader import MalwareDataset
from repro.datasets.synthetic_asm import FamilyProfile, ProgramGenerator
from repro.exceptions import DatasetError
from repro.features.acfg import ACFG

#: Families and approximate sample counts (Figure 8 shape).
YANCFG_FAMILY_COUNTS: Dict[str, int] = {
    "Bagle": 100,
    "Benign": 1800,
    "Bifrose": 1300,
    "Hupigon": 5300,
    "Koobface": 300,
    "Ldpinch": 160,
    "Lmir": 180,
    "Rbot": 2200,
    "Sdbot": 700,
    "Swizzor": 1300,
    "Vundo": 1500,
    "Zbot": 700,
    "Zlob": 800,
}

YANCFG_FAMILIES: List[str] = list(YANCFG_FAMILY_COUNTS)

#: Pairs of families whose labels the AV vote confuses, with swap rates.
LABEL_NOISE_PAIRS: List[Tuple[str, str, float]] = [
    ("Rbot", "Sdbot", 0.10),
    ("Ldpinch", "Lmir", 0.08),
]

_BASE_BOT = dict(
    num_functions=(5, 9),
    blocks_per_function=(5, 11),
    block_length=(3, 9),
    loop_probability=0.30,
    branch_probability=0.35,
    call_probability=0.20,
    dispatch_probability=0.25,
    dispatch_fanout=(4, 7),
    weight_mov=2.5, weight_arith=1.8, weight_stack=1.2,
    weight_compare=2.0, weight_string=0.3,
    numeric_constant_rate=0.45,
)

_BASE_STEALER = dict(
    num_functions=(3, 5),
    blocks_per_function=(3, 6),
    block_length=(4, 10),
    loop_probability=0.15,
    branch_probability=0.40,
    call_probability=0.30,
    weight_mov=3.5, weight_arith=1.0, weight_stack=1.5,
    weight_compare=1.2, weight_string=1.2,
    numeric_constant_rate=0.5,
)

YANCFG_PROFILES: Dict[str, FamilyProfile] = {
    "Bagle": FamilyProfile(
        name="Bagle",
        num_functions=(3, 5), blocks_per_function=(3, 6), block_length=(6, 12),
        loop_probability=0.10, branch_probability=0.25, call_probability=0.35,
        data_blocks=(2, 4),
        weight_mov=2.0, weight_arith=0.8, weight_stack=2.0,
        weight_compare=0.8, weight_string=2.5, numeric_constant_rate=0.3,
    ),
    "Benign": FamilyProfile(
        name="Benign",
        num_functions=(10, 18), blocks_per_function=(4, 10), block_length=(4, 12),
        loop_probability=0.20, branch_probability=0.50, call_probability=0.40,
        weight_mov=4.0, weight_arith=1.5, weight_stack=2.5,
        weight_compare=1.5, weight_string=0.2, numeric_constant_rate=0.35,
    ),
    "Bifrose": FamilyProfile(
        name="Bifrose",
        num_functions=(5, 8), blocks_per_function=(6, 12), block_length=(3, 8),
        loop_probability=0.35, branch_probability=0.30, call_probability=0.15,
        dispatch_probability=0.15, weight_mov=2.0, weight_arith=2.8,
        weight_stack=1.0, weight_compare=1.5, weight_string=0.2,
        numeric_constant_rate=0.6,
    ),
    "Hupigon": FamilyProfile(
        name="Hupigon",
        num_functions=(7, 12), blocks_per_function=(5, 10), block_length=(4, 10),
        loop_probability=0.22, branch_probability=0.45, call_probability=0.30,
        junk_probability=0.15, weight_mov=3.0, weight_arith=2.0,
        weight_stack=1.5, weight_compare=1.5, weight_string=0.3,
        numeric_constant_rate=0.5,
    ),
    "Koobface": FamilyProfile(
        name="Koobface",
        num_functions=(4, 6), blocks_per_function=(3, 7), block_length=(5, 14),
        loop_probability=0.12, branch_probability=0.25, call_probability=0.45,
        weight_mov=3.0, weight_arith=0.8, weight_stack=3.0,
        weight_compare=0.8, weight_string=1.8, numeric_constant_rate=0.25,
    ),
    "Ldpinch": FamilyProfile(name="Ldpinch", **_BASE_STEALER),
    "Lmir": FamilyProfile(
        name="Lmir",
        **{**_BASE_STEALER, "call_probability": 0.18,
           "loop_probability": 0.28, "weight_string": 0.6,
           "weight_arith": 2.0, "weight_stack": 0.8,
           "block_length": (3, 7), "numeric_constant_rate": 0.65},
    ),
    "Rbot": FamilyProfile(name="Rbot", **_BASE_BOT),
    "Sdbot": FamilyProfile(
        name="Sdbot",
        **{**_BASE_BOT, "dispatch_probability": 0.15,
           "loop_probability": 0.24, "weight_arith": 2.4,
           "junk_probability": 0.10, "numeric_constant_rate": 0.55},
    ),
    "Swizzor": FamilyProfile(
        name="Swizzor",
        num_functions=(2, 4), blocks_per_function=(8, 16), block_length=(2, 6),
        loop_probability=0.55, branch_probability=0.20, call_probability=0.05,
        junk_probability=0.50, weight_mov=1.5, weight_arith=4.5,
        weight_stack=0.5, weight_compare=1.0, weight_string=0.1,
        numeric_constant_rate=0.8,
    ),
    "Vundo": FamilyProfile(
        name="Vundo",
        num_functions=(2, 5), blocks_per_function=(3, 7), block_length=(5, 14),
        loop_probability=0.45, branch_probability=0.25, call_probability=0.08,
        weight_mov=1.5, weight_arith=4.5, weight_stack=0.8,
        weight_compare=1.0, weight_string=0.1, numeric_constant_rate=0.75,
    ),
    "Zbot": FamilyProfile(
        name="Zbot",
        num_functions=(6, 9), blocks_per_function=(4, 9), block_length=(3, 7),
        loop_probability=0.25, branch_probability=0.40, call_probability=0.25,
        dispatch_probability=0.30, dispatch_fanout=(5, 9),
        data_blocks=(1, 3), weight_mov=3.5, weight_arith=2.2,
        weight_stack=1.2, weight_compare=2.5, weight_string=0.4,
        numeric_constant_rate=0.75,
    ),
    "Zlob": FamilyProfile(
        name="Zlob",
        num_functions=(4, 7), blocks_per_function=(3, 6), block_length=(6, 14),
        loop_probability=0.15, branch_probability=0.30, call_probability=0.20,
        data_blocks=(1, 2), weight_mov=4.0, weight_arith=1.2,
        weight_stack=1.0, weight_compare=0.8, weight_string=1.4,
        numeric_constant_rate=0.45,
    ),
}


def family_sample_counts(total: int, minimum_per_family: int = 4) -> Dict[str, int]:
    """Scale the Figure 8 proportions down to ``total`` samples."""
    real_total = sum(YANCFG_FAMILY_COUNTS.values())
    return {
        name: max(minimum_per_family, round(total * real / real_total))
        for name, real in YANCFG_FAMILY_COUNTS.items()
    }


def _apply_label_noise(
    dataset_labels: List[int], families: List[str], rng: np.random.Generator
) -> List[int]:
    """Swap labels inside each confusable pair at the configured rate."""
    index_of = {name: i for i, name in enumerate(families)}
    noisy = list(dataset_labels)
    for family_a, family_b, rate in LABEL_NOISE_PAIRS:
        a, b = index_of[family_a], index_of[family_b]
        for position, label in enumerate(noisy):
            if label in (a, b) and rng.random() < rate:
                noisy[position] = b if label == a else a
    return noisy


def generate_yancfg_dataset(
    total: int = 300,
    seed: int = 0,
    minimum_per_family: int = 4,
    label_noise: bool = True,
) -> MalwareDataset:
    """Generate the synthetic YANCFG corpus of pre-extracted ACFGs."""
    if total < len(YANCFG_FAMILIES):
        raise DatasetError(
            f"total={total} too small for {len(YANCFG_FAMILIES)} families"
        )
    counts = family_sample_counts(total, minimum_per_family)
    acfgs_raw: List[ACFG] = []
    labels: List[int] = []
    for label, family in enumerate(YANCFG_FAMILIES):
        profile = YANCFG_PROFILES[family]
        for index in range(counts[family]):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, 7000 + label, index])
            )
            listing = ProgramGenerator(profile, rng).generate_listing()
            cfg = build_cfg_from_text(listing, name=f"{family}_{index:05d}")
            acfgs_raw.append(ACFG.from_cfg(cfg))
            labels.append(label)

    if label_noise:
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 99991]))
        labels = _apply_label_noise(labels, YANCFG_FAMILIES, noise_rng)

    acfgs = [acfg.replace(label=label) for acfg, label in zip(acfgs_raw, labels)]
    return MalwareDataset(
        acfgs=acfgs, family_names=list(YANCFG_FAMILIES), name="YANCFG-synthetic"
    )
