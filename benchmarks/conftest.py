"""Shared fixtures for the benchmark harness.

The paper-scale campaigns (full fault-space scans of the four Figure 2
variants) take minutes; their summaries are cached in one journal file
under ``benchmarks/.cache`` keyed by program content, so repeated
benchmark runs only pay the cost once.  Reports regenerated from the results are
written to ``benchmarks/output/`` as plain-text artifacts.
"""

from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSummary,
    ExperimentJournal,
    JournalCache,
    record_golden,
    run_full_scan,
)
from repro.programs import bin_sem2, hi, sync2

CACHE_DIR = Path(__file__).parent / ".cache"
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def campaign_cache() -> JournalCache:
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    with ExperimentJournal(CACHE_DIR / "summaries.sqlite") as journal:
        yield JournalCache(journal)


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


def _scan_summary(cache: JournalCache, program) -> CampaignSummary:
    return cache.get_or_run(
        program, lambda: run_full_scan(record_golden(program)))


@pytest.fixture(scope="session")
def fig2_summaries(campaign_cache) -> dict:
    """Full-scan summaries of the four Figure 2 variants (paper scale)."""
    return {
        "bin_sem2": _scan_summary(campaign_cache, bin_sem2.baseline()),
        "bin_sem2-sumdmr": _scan_summary(campaign_cache,
                                         bin_sem2.hardened()),
        "sync2": _scan_summary(campaign_cache, sync2.baseline()),
        "sync2-sumdmr": _scan_summary(campaign_cache, sync2.hardened()),
    }


@pytest.fixture(scope="session")
def hi_summaries(campaign_cache) -> dict:
    """Full-scan summaries of the Section IV variants."""
    return {
        "hi": _scan_summary(campaign_cache, hi.baseline()),
        "hi-dft4": _scan_summary(campaign_cache, hi.dft_variant(4)),
        "hi-dftprime4": _scan_summary(campaign_cache,
                                      hi.dft_prime_variant(4)),
        "hi-mem2": _scan_summary(campaign_cache,
                                 hi.memory_diluted_variant(2)),
    }


@pytest.fixture(scope="session")
def hi_golden():
    return record_golden(hi.baseline())
