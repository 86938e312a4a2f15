"""Shared fault-injected extraction scenario (acceptance criterion).

Used both in-process (uninterrupted reference run) and by the SIGKILL
subprocess driver, so every run — interrupted or not — is built from the
exact same samples, fault plan, and pipeline settings:

* >= 50 deterministic synthetic MSKCFG listings;
* one hanging sample (killed by the 3s per-sample timeout);
* one hard-crashing sample (worker dies via ``os._exit``);
* one oversize sample (a 150-block chain against a 100-vertex guard).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.datasets import generate_mskcfg_listings
from repro.features.pipeline import AcfgPipeline
from repro.testing.faults import FaultPlan

HANG_INDEX = 10
CRASH_INDEX = 20
OVERSIZE_INDEX = 30
#: Above the largest clean synthetic graph (~300 vertices), below the
#: injected oversize sample.
MAX_VERTICES = 400
TIMEOUT_SECONDS = 3.0
N_JOBS = 2


def chain_listing(num_blocks: int, base: int = 0x500000) -> str:
    """A listing whose CFG is a chain of exactly ``num_blocks`` blocks."""
    lines = []
    addr = base
    for i in range(num_blocks - 1):
        target = addr + 2
        lines.append(f".text:{addr:08X} cmp eax, 0x{i % 7:x}")
        lines.append(f".text:{addr + 1:08X} jz loc_{target:X}")
        lines.append(f"loc_{target:X}:")
        addr += 2
    lines.append(f".text:{addr:08X} retn")
    return "\n".join(lines)


def build_samples() -> List[Tuple[str, str, int]]:
    samples = list(generate_mskcfg_listings(total=55, seed=5))
    assert len(samples) >= 50
    samples[OVERSIZE_INDEX] = (
        "oversize_sample", chain_listing(MAX_VERTICES + 100), 0
    )
    return samples


def build_pipeline(
    journal_path: Optional[str] = None, resume: bool = False
) -> AcfgPipeline:
    return AcfgPipeline(
        max_workers=N_JOBS,
        timeout=TIMEOUT_SECONDS,
        max_vertices=MAX_VERTICES,
        journal_path=journal_path,
        resume=resume,
        fault_plan=FaultPlan.build(
            hang_on=[HANG_INDEX],
            crash_on=[CRASH_INDEX],
            hang_seconds=120.0,
        ),
    )


def main() -> None:
    """Subprocess driver: journaled scenario run (SIGKILL target)."""
    import sys

    journal_path = sys.argv[1]
    resume = len(sys.argv) > 2 and sys.argv[2] == "--resume"
    report = build_pipeline(journal_path, resume).extract_from_texts(
        build_samples()
    )
    print(f"succeeded={report.num_succeeded} failed={report.num_failed}")


if __name__ == "__main__":
    main()
