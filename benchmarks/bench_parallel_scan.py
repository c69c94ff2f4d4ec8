"""Campaign-engine wall-clock: parallel scaling and convergence A/B.

Two experiments over def/use-pruned full scans of the Figure 2
benchmarks, with a human-readable report in
``output/parallel_scan.txt`` and a machine-readable perf trajectory in
repo-root ``BENCH_parallel_scan.json`` (uploaded by CI as an artifact):

* **Parallel scaling** — the largest baseline variant executed
  serially and with the slot-sharded multiprocessing engine over a
  range of worker counts.
* **Convergence A/B** — the SUM+DMR-hardened variant scanned with the
  convergence early-exit system (checkpoint-digest ladder, masked
  probes, criticality pre-skip) enabled and disabled.  The enabled
  scan must be faster *and* bit-for-bit identical: same
  ``CampaignResult``, same exported CSV bytes — speed must never buy
  back exactness.  Timed on the interpreter (≥1.5× quick, ≥2× full
  scale) and on the default ``auto`` engine (best of 3, ≥1.0×, with
  at most 3 ladder probes per executed experiment).

Scale knobs (environment):

``REPRO_BENCH_PARALLEL_SCALE=full``
    Paper-scale sync2 (items=10) instead of the quick default (items=4).
``REPRO_BENCH_PARALLEL_JOBS``
    Comma-separated worker counts (default: ``1,2,4`` plus the CPU count
    when larger).

The ≥2× parallel-speedup assertion at 4 workers only applies on
machines with at least 4 usable CPUs — a container pinned to one core
cannot exhibit multi-core scaling, but still exercises (and verifies)
the engine.  Worker counts above the usable CPUs are marked
``oversubscribed: true`` in the JSON so trajectory consumers skip
them instead of reading scheduler contention as a scaling regression.  The ≥2× convergence-speedup assertion has no such caveat:
it is a single-process property of the executor.
"""

import json
import os
import time

from _bench_json import write_bench_json

from repro.campaign import (
    ExecutorConfig,
    export_class_results_csv,
    record_golden,
    run_full_scan,
)
from repro.programs import sync2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _worker_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_PARALLEL_JOBS")
    if raw:
        return [int(part) for part in raw.split(",") if part.strip()]
    counts = [1, 2, 4]
    cpus = _usable_cpus()
    if cpus > 4:
        counts.append(cpus)
    return counts


def _full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_PARALLEL_SCALE") == "full"


def _merge_bench_json(section: str, payload: dict) -> None:
    """Update one section of BENCH_parallel_scan.json, keeping the other."""
    from _bench_json import REPO_ROOT
    path = REPO_ROOT / "BENCH_parallel_scan.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    write_bench_json("parallel_scan", data)


def test_parallel_scan_scaling(output_dir):
    program = sync2.baseline() if _full_scale() else sync2.baseline(4)
    golden = record_golden(program)
    partition = golden.partition()

    start = time.perf_counter()
    serial = run_full_scan(golden, partition=partition)
    t_serial = time.perf_counter() - start

    cpus = _usable_cpus()
    rows = [("serial", 1, t_serial, 1.0, False)]
    speedups = {}
    for jobs in _worker_counts():
        # A worker count above the usable CPUs cannot scale — it only
        # measures scheduler contention.  Still run it once (the
        # bit-identity assertion is engine coverage either way) but
        # mark the record so the JSON trajectory and the CI A/B job
        # don't read a pinned-to-one-core container as a regression.
        oversubscribed = jobs > cpus
        start = time.perf_counter()
        parallel = run_full_scan(golden, partition=partition, jobs=jobs)
        t_parallel = time.perf_counter() - start
        assert list(parallel.class_outcomes.items()) \
            == list(serial.class_outcomes.items()), jobs
        assert parallel.weighted_counts() == serial.weighted_counts(), jobs
        if not oversubscribed:
            speedups[jobs] = t_serial / t_parallel
        rows.append((f"jobs={jobs}", jobs, t_parallel,
                     t_serial / t_parallel, oversubscribed))

    experiments = partition.experiment_count
    lines = [
        f"parallel full scan of {program.name} "
        f"({'paper' if _full_scale() else 'quick'} scale)",
        f"Δt={golden.cycles} cycles, Δm={program.ram_size} bytes, "
        f"{len(partition.live_classes())} live classes, "
        f"{experiments} experiments",
        f"usable CPUs: {cpus}",
        "",
        f"{'engine':10s} {'workers':>7s} {'wall-clock':>11s} "
        f"{'speedup':>8s}",
        "-" * 40,
    ]
    for label, jobs, elapsed, speedup, oversubscribed in rows:
        suffix = "  (oversubscribed)" if oversubscribed else ""
        lines.append(f"{label:10s} {jobs:7d} {elapsed:10.3f}s "
                     f"{speedup:7.2f}x{suffix}")
    report = "\n".join(lines) + "\n"
    (output_dir / "parallel_scan.txt").write_text(report)
    print()
    print(report)

    _merge_bench_json("scaling", {
        "program": program.name,
        "golden_cycles": golden.cycles,
        "experiments": experiments,
        "usable_cpus": cpus,
        "serial_seconds": round(t_serial, 3),
        "runs": [
            {"workers": jobs, "wall_clock_seconds": round(elapsed, 3),
             "speedup": round(speedup, 2),
             "oversubscribed": oversubscribed}
            for _, jobs, elapsed, speedup, oversubscribed in rows
        ],
    })

    if cpus >= 4 and 4 in speedups:
        assert speedups[4] >= 2.0, (
            f"expected >= 2x speedup at 4 workers on a {cpus}-CPU "
            f"machine, measured {speedups[4]:.2f}x")


#: Ladder probes per executed (not slice-skipped) experiment allowed on
#: the default engine; dense exact-cycle probing spent ~7.3.
MAX_PROBES_PER_EXPERIMENT = 3.0


def _best_of(runs: int, *scans):
    """Time each ``scan()`` ``runs`` times; return ``(result, best
    seconds)`` per scan.  Rounds interleave the scans, so drift in the
    host's speed over the measurement hits every side alike."""
    results = [None] * len(scans)
    best = [float("inf")] * len(scans)
    for _ in range(runs):
        for index, scan in enumerate(scans):
            start = time.perf_counter()
            results[index] = scan()
            best[index] = min(best[index], time.perf_counter() - start)
    return list(zip(results, best))


def test_convergence_ab(output_dir, tmp_path):
    """Convergence on/off: faster, bit-for-bit identical.

    The interpreter A/B isolates the convergence subsystem; its floor
    was calibrated against interpreter-speed tail cycles.  The default
    engine (``auto``, the compiled tier here) retires tail cycles ~15×
    cheaper, so the early exit pays only because its probes stop at
    superblock boundaries and start at a gap sized to the remaining
    tail (measured 1.1–1.4× at quick scale — see EXPERIMENTS.md).  It
    gets two gates: a deterministic one on the probe count (at most
    :data:`MAX_PROBES_PER_EXPERIMENT` per executed experiment) and a
    best-of-3 timing floor of 1.0×, i.e. the early exit must never make
    the default path slower.  Exactness is asserted for every engine.
    """
    program = sync2.hardened() if _full_scale() else sync2.hardened(2)
    golden = record_golden(program)
    partition = golden.partition()

    start = time.perf_counter()
    on = run_full_scan(golden, partition=partition,
                       config=ExecutorConfig(use_convergence=True,
                                             engine="interp"))
    t_on = time.perf_counter() - start
    start = time.perf_counter()
    off = run_full_scan(golden, partition=partition,
                        config=ExecutorConfig(use_convergence=False,
                                              engine="interp"))
    t_off = time.perf_counter() - start

    start = time.perf_counter()
    on_jit = run_full_scan(golden, partition=partition,
                           config=ExecutorConfig(use_convergence=True,
                                                 engine="compiled"))
    t_on_jit = time.perf_counter() - start
    start = time.perf_counter()
    off_jit = run_full_scan(golden, partition=partition,
                            config=ExecutorConfig(use_convergence=False,
                                                  engine="compiled"))
    t_off_jit = time.perf_counter() - start
    assert on_jit == on and off_jit == off, \
        "compiled engine changed campaign outcomes"

    auto_engine = ExecutorConfig().build(golden, partition=partition) \
        .engine.name
    (on_auto, t_on_auto), (off_auto, t_off_auto) = _best_of(
        3,
        lambda: run_full_scan(golden, partition=partition,
                              config=ExecutorConfig()),
        lambda: run_full_scan(golden, partition=partition,
                              config=ExecutorConfig(use_convergence=False)))
    assert on_auto == on and off_auto == off, \
        "auto engine changed campaign outcomes"

    # Exactness first: the optimized scan must be indistinguishable.
    assert on == off, "convergence early-exit changed campaign outcomes"
    on_csv, off_csv = tmp_path / "on.csv", tmp_path / "off.csv"
    export_class_results_csv(on, on_csv)
    export_class_results_csv(off, off_csv)
    assert on_csv.read_bytes() == off_csv.read_bytes(), \
        "convergence early-exit changed exported CSV bytes"

    experiments = partition.experiment_count
    conv = on.execution.convergence_hits
    skips = on.execution.slice_hits
    speedup = t_off / t_on
    hit_rate = (conv + skips) / experiments
    auto_speedup = t_off_auto / t_on_auto
    probes = on_auto.execution.convergence_checks
    probes_per_experiment = probes / (experiments - skips)

    lines = [
        f"convergence A/B on {program.name} "
        f"({'paper' if _full_scale() else 'quick'} scale)",
        f"Δt={golden.cycles} cycles, {experiments} experiments",
        f"  convergence on : {t_on:8.3f}s "
        f"({experiments / t_on:8.0f} experiments/s)",
        f"  convergence off: {t_off:8.3f}s "
        f"({experiments / t_off:8.0f} experiments/s)",
        f"  speedup: {speedup:.2f}x",
        f"  ladder hits: {conv} ({conv / experiments:.1%}), "
        f"criticality pre-skips: {skips} ({skips / experiments:.1%})",
        f"  combined hit rate: {hit_rate:.1%}",
        f"  compiled engine  : on {t_on_jit:.3f}s / off {t_off_jit:.3f}s "
        f"({t_off_jit / t_on_jit:.2f}x)",
        f"  auto engine ({auto_engine}), best of 3: on {t_on_auto:.3f}s / "
        f"off {t_off_auto:.3f}s ({auto_speedup:.2f}x); "
        f"{probes} probes, {probes_per_experiment:.2f} per executed "
        f"experiment",
    ]
    report = "\n".join(lines) + "\n"
    with (output_dir / "parallel_scan.txt").open("a") as fh:
        fh.write("\n" + report)
    print()
    print(report)

    _merge_bench_json("convergence_ab", {
        "program": program.name,
        "golden_cycles": golden.cycles,
        "experiments": experiments,
        "wall_clock_on_seconds": round(t_on, 3),
        "wall_clock_off_seconds": round(t_off, 3),
        "experiments_per_second_on": round(experiments / t_on, 1),
        "experiments_per_second_off": round(experiments / t_off, 1),
        "speedup": round(speedup, 2),
        "convergence_hits": conv,
        "slice_hits": skips,
        "hit_rate": round(hit_rate, 4),
        "compiled_wall_clock_on_seconds": round(t_on_jit, 3),
        "compiled_wall_clock_off_seconds": round(t_off_jit, 3),
        "compiled_speedup": round(t_off_jit / t_on_jit, 2),
        "auto_engine": auto_engine,
        "auto_wall_clock_on_seconds": round(t_on_auto, 3),
        "auto_wall_clock_off_seconds": round(t_off_auto, 3),
        "auto_speedup": round(auto_speedup, 2),
        "auto_convergence_checks": probes,
        "auto_probes_per_executed_experiment":
            round(probes_per_experiment, 3),
    })

    assert probes_per_experiment <= MAX_PROBES_PER_EXPERIMENT, (
        f"the default engine spent {probes_per_experiment:.2f} ladder "
        f"probes per executed experiment (gate: "
        f"{MAX_PROBES_PER_EXPERIMENT})")
    assert auto_speedup >= 1.0, (
        f"the convergence early-exit slowed the default engine down: "
        f"best-of-3 on/off {auto_speedup:.2f}x")

    # Floor: full scale has a long post-injection tail and comfortably
    # clears 2x; quick scale (Δt ~ 2k cycles) hovers around 1.8-2.3x
    # depending on host load, so its floor is set where only a genuine
    # convergence regression (ratio ~ 1.0) can land.
    floor = 2.0 if _full_scale() else 1.5
    assert speedup >= floor, (
        f"expected the convergence early-exit to cut the scan at least "
        f"{floor}x, measured {speedup:.2f}x")
