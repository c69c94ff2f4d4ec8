"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan-hardened --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics ``BENCHMARK.json`` names,
``--trace 1`` its per-layer metrics (see ``perfbench/README.md``).
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every run is also appended, never overwritten, to
``perfbench/results/trajectory.jsonl`` as a record keyed by git SHA.
The exit status is 0 only when every result matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRAJECTORY = HERE / "results" / "trajectory.jsonl"
WORK = HERE / ".work"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help="quick: small programs for the harness's own "
                        "smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def src_sha256() -> str:
    """Digest of the package sources, identifying trees without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def append_record(record: dict) -> None:
    TRAJECTORY.parent.mkdir(exist_ok=True)
    with TRAJECTORY.open("a") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"error: {ROOT} holds no repro sources to benchmark",
              file=sys.stderr)
        return 2
    # Keep git (run by the provenance helper) from searching above the
    # checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path[1:1] = [str(SRC), str(ROOT / "benchmarks")]
    import numpy
    from _bench_json import provenance
    from workloads import WORKLOADS, measure

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        measured = measure(args.workload, size=args.size, seed=args.seed,
                           seconds=args.seconds, traced=bool(args.trace),
                           workdir=workdir)
    finally:
        shutil.rmtree(workdir)
    values = dict(measured.metrics)
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: harness computed no value for {missing}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = measured.failed == 0
    result = {"correct": correct, "attempted": measured.attempted,
              "failed": measured.failed, "metrics": metrics}

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{len(measured.rep_seconds)} rep(s) in {args.seconds:g} s: "
          f"{', '.join(f'{s:.3f}' for s in measured.rep_seconds)} s "
          f"wall-clock, at machine speed "
          f"{', '.join(f'{f:.3f}' for f in measured.speed_factors)}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:16.6f} {metric['unit']}")
    print(f"  failed_frac {measured.failed / measured.attempted:.6f} "
          f"({measured.failed} of {measured.attempted} planned units)")
    append_record({
        **provenance(),
        "src_sha256": src_sha256(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rep_seconds": measured.rep_seconds,
        "speed_factors": measured.speed_factors,
        **result,
    })
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
