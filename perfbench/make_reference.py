"""Write ``perfbench/reference.json``: the results every workload must match.

Usage, from the repository root::

    python3 perfbench/make_reference.py

Each workload target (at both sizes) is scanned serially on the
``Machine`` interpreter oracle with convergence early-exit off
(``ExecutorConfig(engine="interp", use_convergence=False)``), so a
benchmark run on the default path — JIT, convergence, process pool or
fabric — is checked against the slowest, most literal execution of the
same fault space.  Regenerate only when a program or the fault model
deliberately changes; the file pins what "correct" means for the
benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ORACLE = {"engine": "interp", "use_convergence": False}


def main() -> int:
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from _bench_json import provenance
    from workloads import (
        CODES,
        REFERENCE_PATH,
        SIZES,
        WORKLOADS,
        Spans,
        reference_entry,
        setup_pass,
    )

    from repro.campaign import ExecutorConfig, run_full_scan

    campaigns = {}
    for name, workload in WORKLOADS.items():
        for size in SIZES:
            for item in setup_pass(workload.targets(size), Spans(), False):
                start = time.perf_counter()
                result = run_full_scan(item.golden, partition=item.partition,
                                       domain=item.target.domain,
                                       config=ExecutorConfig(**ORACLE))
                key = f"{name}/{size}/{item.target.name}"
                campaigns[key] = reference_entry(result)
                print(f"{key}: F={result.weighted_failure_count()} "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
    REFERENCE_PATH.write_text(json.dumps({
        "generated_by": "python3 perfbench/make_reference.py",
        "oracle": {"runner": "run_full_scan (serial)", **ORACLE},
        "provenance": provenance(),
        "outcome_codes": {code: outcome.value
                          for outcome, code in CODES.items()},
        "campaigns": campaigns,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
