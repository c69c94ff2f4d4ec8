"""The benchmark's workloads, their set-up, reps and correctness gates.

Every workload is an exhaustive, deterministic full scan at the
package's default configuration (``ExecutorConfig()``: engine ``auto``,
convergence early-exit on), driven through the public API only.  Its
result is checked class by class against ``reference.json``, which
``make_reference.py`` writes from serial scans on the ``Machine``
interpreter oracle with convergence off.  Because the scans are
exhaustive, the seed changes no input; it only permutes the order in
which ``sweep-guarded`` scans its variants.

A *rep* is one complete campaign as a user would run it; a run repeats
reps until its measuring time is used up and reports medians.  The
end-to-end times are scaled to the reference machine speed by a probe
that runs beside the reps (see ``probe.py``).
"""

from __future__ import annotations

import base64
import gc
import json
import random
import shutil
import tempfile
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from layers import ProgressClock, Spans, median, percentile, wrapped
from probe import SpeedProbe

from repro.campaign import (
    ExecutorConfig,
    ExperimentExecutor,
    ExperimentJournal,
    Outcome,
    record_golden,
    run_distributed_scan,
    run_full_scan,
)
from repro.engine.compiled import compile_program
from repro.engine.plan import plan_tiers
from repro.faultspace import backward_slice, build_section_map, get_domain
from repro.metrics import comparison_report, export_comparison_csv
from repro.programs import guarded, sync2

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SIZES = ("full", "quick")

#: Set-up is short next to a campaign, so a run repeats it in bursts —
#: one before the first rep and one after every rep, so the samples span
#: the run as the reps do — and reports the median scaled pass.  A burst runs
#: until both minimums are met, or up to its maximum pass count.
SETUP_BURST_PASSES = 3
SETUP_BURST_SECONDS = 0.3
SETUP_BURST_MAX_PASSES = 20

#: Process-pool and fabric widths; the reference box has 2 CPUs.
JOBS = 2
WORKERS = 2

#: Loop count of the swept ``guarded`` family per size.
SWEEP_ITERATIONS = {"full": 60, "quick": 3}

#: Every per-layer metric a traced run can report.  A layer a workload
#: does not exercise reports 0 (no pool, journal or fabric work done).
LAYER_METRICS = (
    "programs.build_s", "golden.record_s", "golden.ladder_checkpoints",
    "partition.build_s", "partition.classes", "partition.reduction",
    "slice.build_s", "sections.build_s", "plan.s", "plan.batched_fraction",
    "engine.compile_s",
    "execute.s", "execute.experiments", "execute.exp_us_p50",
    "execute.exp_us_p99", "execute.convergence_hits", "execute.slice_hits",
    "execute.convergence_checks", "execute.early_exit_ratio",
    "pool.s", "pool.first_result_s", "pool.efficiency", "pool.shard_retries",
    "journal.cold_s", "journal.disk_cold_s", "journal.write_overhead_s",
    "journal.bytes",
    "compose.warm_s", "compose.hit_ratio", "compare.report_s",
    "dist.s", "dist.first_result_s", "dist.unit_balance",
    "dist.rejected_frames",
    "trace.overhead_frac", "campaign.wall_s", "machine.speed",
)


@dataclass(frozen=True)
class Target:
    """One program a workload scans, in one fault domain."""

    name: str
    build: Callable
    domain: str


@dataclass
class Prepared:
    """A target after set-up: golden run, partition and tier plan."""

    target: Target
    golden: object
    partition: object
    batched_fraction: float = 0.0

    @property
    def w(self) -> int:
        return self.partition.fault_space.size

    @property
    def classes(self) -> int:
        return len(self.partition.live_classes())


@dataclass
class Rep:
    """One campaign: its time, the work it resolved and what failed."""

    seconds: float
    coords: int
    units: int
    failed: int
    layers: dict = field(default_factory=dict)


# -- reference results --------------------------------------------------------

#: One letter per outcome, in ``Outcome`` declaration order.
CODES = {outcome: chr(ord("a") + index)
         for index, outcome in enumerate(Outcome)}


def encode_classes(result) -> list:
    """``[axis, first_slot, codes]`` per class, in key order."""
    return [[key[0], key[1], "".join(CODES[o] for o in outcomes)]
            for key, outcomes in sorted(result.class_outcomes.items())]


def weighted_counts(result) -> dict:
    return {outcome.value: count for outcome, count
            in sorted(result.weighted_counts().items(),
                      key=lambda item: item[0].value) if count}


def reference_entry(result) -> dict:
    """The pinned record of a complete, trusted full-scan result."""
    classes = encode_classes(result)
    packed = zlib.compress(json.dumps(classes).encode(), 9)
    return {
        "domain": result.domain.name,
        "w": result.fault_space_size,
        "classes": len(classes),
        "experiments": result.experiments_conducted,
        "weighted_counts": weighted_counts(result),
        "F": result.weighted_failure_count(),
        "class_outcomes_zlib_b64": base64.b64encode(packed).decode(),
    }


class Reference:
    """Pinned per-class outcomes, weighted counts and F per target."""

    def __init__(self, path: Path = REFERENCE_PATH):
        data = json.loads(path.read_text())
        if data["outcome_codes"] != {code: outcome.value
                                     for outcome, code in CODES.items()}:
            raise ValueError(f"{path}: outcome codes do not match Outcome")
        self.entries = data["campaigns"]
        self._classes: dict[str, dict] = {}

    def classes(self, key: str) -> dict:
        if key not in self._classes:
            packed = base64.b64decode(
                self.entries[key]["class_outcomes_zlib_b64"])
            self._classes[key] = {
                (axis, slot): codes for axis, slot, codes
                in json.loads(zlib.decompress(packed))}
        return self._classes[key]

    def failed_units(self, key: str, result) -> int:
        """Classes of ``result`` that are missing, extra or differ from
        the reference; every class when the weighted totals disagree."""
        expected = self.classes(key)
        if result is None:
            return len(expected)
        got = {tuple(k): "".join(CODES[o] for o in outcomes)
               for k, outcomes in result.class_outcomes.items()}
        failed = sum(1 for k, codes in expected.items()
                     if got.get(k) != codes)
        failed += sum(1 for k in got if k not in expected)
        entry = self.entries[key]
        totals_ok = (result.fault_space_size == entry["w"]
                     and weighted_counts(result) == entry["weighted_counts"]
                     and result.weighted_failure_count() == entry["F"])
        if failed == 0 and not totals_ok:
            failed = len(expected)
        return failed


# -- set-up ---------------------------------------------------------------------

def setup_pass(targets, spans: Spans, traced: bool) -> list[Prepared]:
    """Build, record and partition every target once, timing each layer.

    The traced pass also times the set-up layers the campaign would
    otherwise build lazily — slice, section map, tier plan and JIT
    codegen — as standalone calls on the same inputs.
    """
    prepared = []
    for target in targets:
        domain = get_domain(target.domain)
        program = spans.call("programs.build_s", target.build)
        golden = spans.call("golden.record_s", record_golden, program)
        partition = spans.call("partition.build_s",
                               domain.build_partition, golden)
        item = Prepared(target, golden, partition)
        if traced:
            spans.call("slice.build_s", backward_slice, golden)
            spans.call("sections.build_s", build_section_map, golden,
                       domain)
            plan = spans.call("plan.s", plan_tiers, golden, domain,
                              partition=partition)
            item.batched_fraction = plan.batched_fraction
            spans.call("engine.compile_s", compile_program, program)
        prepared.append(item)
    return prepared


SETUP_LAYERS = ("programs.build_s", "golden.record_s", "partition.build_s")


def timed_setup(targets, traced: bool, passes: list[Spans]):
    """One set-up pass from a collected heap, appended to ``passes``."""
    gc.collect()
    spans = Spans()
    prepared = setup_pass(targets, spans, traced)
    passes.append(spans)
    return prepared


def setup_burst(targets, traced: bool, passes: list[Spans]):
    """One burst of set-up passes (see ``SETUP_BURST_*``); returns the
    targets the last pass prepared."""
    start = time.perf_counter()
    count = 0
    while (count < SETUP_BURST_PASSES
           or (time.perf_counter() - start < SETUP_BURST_SECONDS
               and count < SETUP_BURST_MAX_PASSES)):
        prepared = timed_setup(targets, traced, passes)
        count += 1
    return prepared


def setup_medians(bursts: list[list[Spans]], factors: list[float]) -> dict:
    """Per-layer medians over the passes of all bursts; ``setup_s`` is
    the median of the passes' build + golden + partition totals, each
    scaled by its burst's speed factor."""
    passes = [spans for burst in bursts for spans in burst]
    names = set().union(*(spans.durations for spans in passes))
    layers = {name: median(spans.total(name) for spans in passes)
              for name in names}
    layers["setup_s"] = median(
        factor * sum(spans.total(name) for name in SETUP_LAYERS)
        for burst, factor in zip(bursts, factors) for spans in burst)
    return layers


def setup_counts(prepared) -> dict:
    """Deterministic set-up layer counts over all targets."""
    w = sum(item.w for item in prepared)
    experiments = sum(len(interval.experiments()) for item in prepared
                      for interval in item.partition.live_classes())
    ladders = sum(len(item.golden.checkpoints.digests)
                  if item.golden.checkpoints else 0 for item in prepared)
    return {
        "golden.ladder_checkpoints": ladders,
        "partition.classes": sum(item.classes for item in prepared),
        "partition.reduction": w / experiments if experiments else 0.0,
        "plan.batched_fraction": median(item.batched_fraction
                                        for item in prepared),
    }


# -- the execute layer, traced around ExperimentExecutor.run ----------------

@contextmanager
def executor_trace(spans: Spans, executors: list):
    """Time every ``ExperimentExecutor.run`` call in this process and
    collect every executor ``ExecutorConfig.build`` creates."""
    with wrapped(ExperimentExecutor, "run",
                 lambda seconds, _: spans.add("execute", seconds)), \
            wrapped(ExecutorConfig, "build",
                    lambda _, executor: executors.append(executor)):
        yield


def execute_layers(spans: Spans, executors: list) -> dict:
    runs = spans.durations.get("execute", [])
    hits = sum(executor.convergence_hits for executor in executors)
    skips = sum(executor.slice_hits for executor in executors)
    return {
        "execute.s": sum(runs),
        "execute.experiments": len(runs),
        "execute.exp_us_p50": percentile(runs, 50) * 1e6,
        "execute.exp_us_p99": percentile(runs, 99) * 1e6,
        "execute.convergence_hits": hits,
        "execute.slice_hits": skips,
        "execute.convergence_checks": sum(executor.convergence_checks
                                          for executor in executors),
        "execute.early_exit_ratio": (hits + skips) / len(runs)
        if runs else 0.0,
    }


def traced_serial_scan(item: Prepared) -> dict:
    """Execute-layer numbers from one traced serial scan of ``item``."""
    spans, executors = Spans(), []
    with executor_trace(spans, executors):
        run_full_scan(item.golden, partition=item.partition,
                      domain=item.target.domain)
    return execute_layers(spans, executors)


# -- workloads ----------------------------------------------------------------

class Run:
    """What a workload's reps share: set-up, reference and scratch."""

    def __init__(self, workload: "Workload", size: str, seed: int,
                 prepared: list[Prepared], reference: Reference,
                 workdir: Path):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.prepared = prepared
        self.reference = reference
        self.workdir = workdir

    def key(self, item: Prepared) -> str:
        return f"{self.workload.name}/{self.size}/{item.target.name}"

    def failed(self, item: Prepared, result) -> int:
        return self.reference.failed_units(self.key(item), result)


class Workload:
    name = ""

    def targets(self, size: str) -> list[Target]:
        raise NotImplementedError

    def rep(self, run: Run, traced: bool) -> Rep:
        raise NotImplementedError

    def traced_extra(self, run: Run) -> dict:
        """Layer numbers measured once per traced run, before its reps."""
        return {}

    def traced_pair_extra(self, run: Run) -> dict:
        """Layer numbers measured once per traced pair of reps."""
        return {}

    def derive(self, layers: dict) -> dict:
        """Layer numbers derived from the medians of the others."""
        return {}


class ScanHardened(Workload):
    """Serial memory-domain full scan of SUM+DMR ``sync2``."""

    name = "scan-hardened"

    def targets(self, size):
        items = 2 if size == "full" else 1
        return [Target("sync2-sumdmr", partial(sync2.hardened, items),
                       "memory")]

    def rep(self, run, traced):
        (item,) = run.prepared
        spans, executors = Spans(), []
        trace = executor_trace(spans, executors) if traced else nullcontext()
        with trace:
            start = time.perf_counter()
            result = run_full_scan(item.golden, partition=item.partition,
                                   domain=item.target.domain)
            seconds = time.perf_counter() - start
        layers = execute_layers(spans, executors) if traced else {}
        return Rep(seconds, item.w, item.classes, run.failed(item, result),
                   layers)


class ScanRegisterPool(Workload):
    """Register-domain full scan of paper-scale ``sync2`` on the pool."""

    name = "scan-register-pool"

    def targets(self, size):
        items = sync2.DEFAULT_ITEMS if size == "full" else 2
        return [Target("sync2", partial(sync2.baseline, items), "register")]

    def rep(self, run, traced):
        (item,) = run.prepared
        clock = ProgressClock() if traced else None
        start = time.perf_counter()
        result = run_full_scan(item.golden, partition=item.partition,
                               domain=item.target.domain, jobs=JOBS,
                               progress=clock)
        seconds = time.perf_counter() - start
        layers = {}
        if traced:
            layers = {"pool.s": seconds,
                      "pool.first_result_s": clock.first_result_s,
                      "pool.shard_retries": result.execution.shard_retries}
        return Rep(seconds, item.w, item.classes, run.failed(item, result),
                   layers)

    def traced_extra(self, run):
        # Pool workers are separate processes the benchmark cannot wrap,
        # so the execute layer comes from one serial scan of the target.
        return traced_serial_scan(run.prepared[0])

    def derive(self, layers):
        pool_s = layers.get("pool.s", 0.0)
        return {"pool.efficiency": layers["execute.s"] / (JOBS * pool_s)
                if pool_s else 0.0}


class SweepGuarded(Workload):
    """Journaled cold + warm sweep of the four ``guarded`` variants, each
    followed by the comparison report and its CSV, as ``repro compare``
    runs it twice against one journal.

    The timed reps journal into an in-memory SQLite database: the same
    schema, inserts, section store and composition as a file, without
    the per-commit fsyncs.  On the reference VM those fsyncs made a
    file-journaled sweep's time drift by a quarter from minute to
    minute, more than any bound allows, so the traced run prices the
    on-disk journal separately (``journal.disk_cold_s``,
    ``journal.write_overhead_s``, ``journal.bytes``).
    """

    name = "sweep-guarded"

    def targets(self, size):
        iterations = SWEEP_ITERATIONS[size]
        builders = {
            "guarded": guarded.baseline,
            "guarded-sum": guarded.sum_variant,
            "guarded-sumdmr": guarded.sumdmr_variant,
            "guarded-tmr": guarded.tmr_variant,
        }
        return [Target(name, partial(builders[name], iterations), "memory")
                for name in guarded.VARIANT_NAMES]

    def _sweep(self, run, journal, resume):
        order = list(run.prepared)
        random.Random(run.seed).shuffle(order)
        start = time.perf_counter()
        results = {item.target.name: run_full_scan(
            item.golden, partition=item.partition,
            domain=item.target.domain, journal=journal, resume=resume)
            for item in order}
        return results, time.perf_counter() - start

    @staticmethod
    def _report(results, path: Path) -> float:
        start = time.perf_counter()
        baseline_name, *variants = guarded.VARIANT_NAMES
        reports = [comparison_report(name, results[baseline_name],
                                     results[name]) for name in variants]
        export_comparison_csv(reports, path)
        return time.perf_counter() - start

    def rep(self, run, traced):
        scratch = Path(tempfile.mkdtemp(dir=run.workdir))
        spans, executors = Spans(), []
        try:
            with ExperimentJournal(":memory:") as journal:
                trace = (executor_trace(spans, executors) if traced
                         else nullcontext())
                with trace:
                    cold, cold_s = self._sweep(run, journal, resume=True)
                cold_report_s = self._report(cold, scratch / "cold.csv")
                # resume=False drops each campaign's own rows, so every
                # warm class has to come from the section store.
                warm, warm_s = self._sweep(run, journal, resume=False)
                warm_report_s = self._report(warm, scratch / "warm.csv")
            csv_same = ((scratch / "cold.csv").read_bytes()
                        == (scratch / "warm.csv").read_bytes())
        finally:
            shutil.rmtree(scratch)
        failed = sum(run.failed(item, cold[item.target.name])
                     + run.failed(item, warm[item.target.name])
                     for item in run.prepared)
        failed += 0 if csv_same else 1
        layers = {}
        if traced:
            experiments = sum(result.experiments_conducted
                              for result in warm.values())
            composed = sum(result.execution.composed_hits
                           for result in warm.values())
            layers = {
                "journal.cold_s": cold_s,
                "compose.warm_s": warm_s,
                "compose.hit_ratio": composed / experiments
                if experiments else 0.0,
                "compare.report_s": cold_report_s + warm_report_s,
                **execute_layers(spans, executors),
            }
        units = 2 * sum(item.classes for item in run.prepared) + 1
        return Rep(cold_s + cold_report_s + warm_s + warm_report_s,
                   2 * sum(item.w for item in run.prepared), units, failed,
                   layers)

    def traced_pair_extra(self, run):
        # The same cold sweep into a journal file and into no journal at
        # all, traced alike, prices the journal's writes as users pay
        # them.
        scratch = Path(tempfile.mkdtemp(dir=run.workdir))
        try:
            with executor_trace(Spans(), []):
                _, disk_s = self._sweep(run, scratch / "sweep.sqlite",
                                        resume=True)
                _, plain_s = self._sweep(run, None, resume=True)
            journal_bytes = sum(path.stat().st_size
                                for path in scratch.glob("sweep.sqlite*"))
        finally:
            shutil.rmtree(scratch)
        return {"journal.disk_cold_s": disk_s,
                "journal.plain_cold_s": plain_s,
                "journal.bytes": journal_bytes}

    def derive(self, layers):
        return {"journal.write_overhead_s":
                layers["journal.disk_cold_s"] - layers["journal.plain_cold_s"]}


class Fabric2W(Workload):
    """Distributed memory-domain full scan of ``sync2`` on 2 workers."""

    name = "fabric-2w"

    def targets(self, size):
        items = sync2.DEFAULT_ITEMS if size == "full" else 2
        return [Target("sync2", partial(sync2.baseline, items), "memory")]

    def rep(self, run, traced):
        (item,) = run.prepared
        clock = ProgressClock() if traced else None
        start = time.perf_counter()
        result = run_distributed_scan(item.golden, workers=WORKERS,
                                      domain=item.target.domain,
                                      progress=clock)
        seconds = time.perf_counter() - start
        layers = {}
        if traced and result is not None:
            units = [count for _, count in result.execution.workers]
            units += [0] * (WORKERS - len(units))
            layers = {
                "dist.s": seconds,
                "dist.first_result_s": clock.first_result_s,
                "dist.unit_balance": max(units) / max(min(units), 1),
                "dist.rejected_frames": result.execution.integrity_rejected,
            }
        return Rep(seconds, item.w, item.classes, run.failed(item, result),
                   layers)

    def traced_extra(self, run):
        # Fabric workers are separate processes; see ScanRegisterPool.
        return traced_serial_scan(run.prepared[0])


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (ScanHardened(), ScanRegisterPool(), SweepGuarded(),
                     Fabric2W())
}


# -- one measured run ---------------------------------------------------------

@dataclass
class Measured:
    attempted: int
    failed: int
    metrics: dict
    #: Wall-clock seconds of each rep the metrics summarize.
    rep_seconds: list
    #: The machine's speed during each of those reps, relative to the
    #: reference speed (see ``probe.SpeedProbe.factor``).
    speed_factors: list


def measure(name: str, *, size: str, seed: int, seconds: float,
            traced: bool, workdir: Path) -> Measured:
    """Set up ``name`` and repeat its reps for ``seconds``.

    Untraced, reps run back to back and the end-to-end metrics are their
    medians, each rep's time scaled to the reference speed by the probe
    samples taken during it.  Traced, reps run in untraced/traced pairs
    (alternating which goes first) and the per-layer metrics are the
    traced reps' medians, unscaled; the pair's untraced half prices the
    tracing.
    """
    workload = WORKLOADS[name]
    targets = workload.targets(size)
    # Burst i and window i follow rep (pair) i; the first burst, run
    # before any rep, joins the first.  A set-up burst is too short to
    # probe alone, so it is scaled by the factor of the window that
    # spans its rep and itself.
    bursts: list[list[Spans]] = [[]]
    windows: list[tuple[float, float]] = []
    reps: list[Rep] = []
    traced_reps: list[Rep] = []
    extras: list[dict] = []
    with SpeedProbe(workdir / "probe.log") as probe:
        prepared = setup_burst(targets, traced, bursts[0])
        run = Run(workload, size, seed, prepared, Reference(), workdir)
        start = time.perf_counter()
        once = workload.traced_extra(run) if traced else {}
        while not reps or time.perf_counter() - start < seconds:
            gc.collect()
            rep_start = time.perf_counter()
            if not traced:
                reps.append(workload.rep(run, False))
            else:
                pair = [False, True] if len(reps) % 2 == 0 else [True, False]
                for with_trace in pair:
                    (traced_reps if with_trace else reps).append(
                        workload.rep(run, with_trace))
                extras.append(workload.traced_pair_extra(run))
            setup_burst(targets, traced, bursts[-1])
            windows.append((rep_start, time.perf_counter()))
            bursts.append([])
    factors = [probe.factor(*window) for window in windows]
    setup_layers = setup_medians(bursts, factors)
    every = reps + traced_reps
    attempted = sum(rep.units for rep in every)
    failed = sum(rep.failed for rep in every)
    campaign_s = median(rep.seconds for rep in reps)
    if not traced:
        scaled = [rep.seconds * factor for rep, factor in zip(reps, factors)]
        metrics = {
            "setup_s": setup_layers["setup_s"],
            "campaign_s": median(scaled),
            "coords_per_s": median(rep.coords / seconds
                                   for rep, seconds in zip(reps, scaled)),
        }
        return Measured(attempted, failed, metrics,
                        [rep.seconds for rep in reps], factors)
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    layers.update({k: v for k, v in setup_layers.items()
                   if k in LAYER_METRICS})
    layers.update(setup_counts(prepared))
    layers.update(once)
    for source in ([rep.layers for rep in traced_reps], extras):
        for key in set().union(*source):
            layers[key] = median(entry[key] for entry in source
                                 if key in entry)
    layers.update(workload.derive(layers))
    layers["trace.overhead_frac"] = (
        median(rep.seconds for rep in traced_reps) / campaign_s - 1.0)
    layers["campaign.wall_s"] = campaign_s
    layers["machine.speed"] = median(factors)
    metrics = {key: layers[key] for key in LAYER_METRICS}
    return Measured(attempted, failed, metrics,
                    [rep.seconds for rep in traced_reps], factors)
