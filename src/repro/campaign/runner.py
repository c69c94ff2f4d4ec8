"""Campaign runners: one lifecycle for every campaign style and backend.

Three campaign styles are provided, each generic over a
:class:`~repro.faultspace.domain.FaultDomain` (memory by default,
``domain="register"`` for the Section VI-B register fault model):

* :func:`run_full_scan` — the def/use-pruned full fault-space scan: one
  experiment per live equivalence class and bit, dead classes accounted
  as known "No Effect".  Exact and feasible (Section III-C).
* :func:`run_brute_force` — one real experiment per raw fault-space
  coordinate.  Exponentially more work; exists as ground truth for tests
  proving that pruning does not change any result.
* :func:`run_sampling` — a sampled campaign with a pluggable sampler
  (raw-uniform, live-only, or the deliberately biased class sampler for
  Pitfall 2 demonstrations).

Every campaign runs one lifecycle, :class:`Campaign`: open the journal
(clearing it when ``resume=False``); load and validate the journaled
units; compose further units from the cross-campaign section store;
execute the rest on a backend; journal and store each result as it
arrives; assemble the result in canonical order; mark the campaign
complete only if no unit is missing, then close.  A *style* only
enumerates keyed work units (row count, cost, coordinates) and
assembles its result type; a *backend* only executes units and returns
keyed rows.  Results are bit-for-bit identical on every backend:

===========  ========================================  ======  ====  ======
style        work unit (journal key)                   inline  pool  fabric
===========  ========================================  ======  ====  ======
full scan    live class ``(axis, first_slot)``         yes     yes   yes
brute force  injection slot                            yes     yes   no
sampling     experiment ``(axis, first_slot, bit)``    yes     yes   no
===========  ========================================  ======  ====  ======

*inline* (``jobs=None`` or ``1``) runs same-slot stretches of units
through one executor — the caller's ``executor=`` or one built from
``config`` — journaling and reporting progress per unit.  The process
*pool* (``jobs=0`` for one worker per CPU, or more than one; see
:mod:`repro.campaign.parallel`) adds deadlines, retries and
heartbeats.  The lease *fabric* (:func:`~repro.campaign.dist
.run_distributed_scan`) shares the lifecycle's prologue and assembly.

``journal=`` (an :class:`~repro.campaign.journal.ExperimentJournal` or
a path) appends completed units durably, and a rerun against the same
journal *resumes*, returning a result bit-for-bit identical to an
uninterrupted one.  Resumed units are validated first: a class must
hold exactly bits ``0 … n−1`` of its domain experiment count, a
brute-force slot one row per raw coordinate.  A unit a salvaged
journal truncated fails the rule and is discarded, counted in
``execution.discarded_results``, logged as a ``salvage-prune`` event
and re-executed.  ``result.execution`` reports how the campaign ran.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from ..faultspace.defuse import LIVE
from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from ..faultspace.sampling import (
    BiasedClassSampler,
    LiveOnlySampler,
    Sample,
    UniformSampler,
)
from .compose import build_composer
from .experiment import ExecutorConfig, ExperimentExecutor, ExperimentRecord
from .golden import GoldenRun
from .journal import ExecutionReport, invalid_classes, open_campaign
from .outcomes import Outcome
from .parallel import (
    COUNTERS,
    RetryPolicy,
    class_cost,
    execute_units,
    resolve_jobs,
    run_pool,
    shard_by_cost,
)

ProgressCallback = Callable[[int, int], None]


def campaign_params(golden: GoldenRun, config: ExecutorConfig,
                    executor: ExperimentExecutor | None = None) -> dict:
    """The executor settings in the journal campaign key.

    Only settings that can change an outcome belong here, so a changed
    timeout policy opens a fresh campaign instead of mixing incompatible
    classifications.  The convergence early-exit, the engine and the
    transport tuning cannot change any outcome and are deliberately
    absent: a campaign journaled under one of them — or under any
    backend — resumes cleanly under another.  A caller's ``executor``
    is keyed by its own settings.
    """
    if executor is not None:
        return {"timeout_cycles": executor.timeout_cycles,
                "early_stop": executor.early_stop}
    return {"timeout_cycles": config.timeout_cycles(golden.cycles),
            "early_stop": config.early_stop}


@dataclass
class CampaignResult:
    """Outcome of a def/use-pruned full fault-space scan, in any domain.

    ``class_outcomes`` maps each live class key ``(axis, first_slot)``
    — byte address or register number, depending on the domain — to the
    per-bit outcomes of its representative experiments (8 for memory
    classes, 32 for register classes).

    ``execution`` (excluded from equality) reports completeness: for a
    degraded campaign — shards abandoned after exhausting their retry
    budget — the missing classes are absent from ``class_outcomes`` and
    listed in ``execution.missing``; the weighted counts then cover only
    the completed part of the fault space.
    """

    golden: GoldenRun
    partition: object
    class_outcomes: dict[tuple[int, int], tuple[Outcome, ...]]
    records: list[ExperimentRecord] = field(default_factory=list)
    domain: FaultDomain = MEMORY
    execution: ExecutionReport | None = field(default=None, compare=False,
                                              repr=False)

    @property
    def fault_space(self):
        """The raw fault space the scan covered."""
        return self.partition.fault_space

    @property
    def fault_space_size(self) -> int:
        """w — Δt · Δm for memory, Δt · 15 · 32 for registers."""
        return self.partition.fault_space.size

    @property
    def experiments_conducted(self) -> int:
        # Derived from the stored outcome tuples rather than hardcoding
        # the domain's bit width, so 8-bit memory classes and 32-bit
        # register classes both report correct totals.
        return sum(len(outcomes)
                   for outcomes in self.class_outcomes.values())

    def outcome_of(self, coordinate) -> Outcome:
        """The outcome of any raw coordinate, resolved via its class."""
        interval = self.partition.locate(coordinate)
        if interval.kind != LIVE:
            return Outcome.NO_EFFECT
        key = self.domain.class_key(interval)
        index = self.domain.experiment_index(interval, coordinate)
        return self.class_outcomes[key][index]

    def weighted_counts(self) -> Counter:
        """Outcome counts expanded to the raw fault space (Pitfall 1 safe).

        Each live experiment result is weighted by its class's data
        lifetime; dead classes contribute their full weight as
        "No Effect".  Counts sum to the fault-space size ``w`` for a
        complete campaign; a degraded campaign (``execution.missing``
        non-empty) covers correspondingly less.
        """
        counts: Counter = Counter()
        for interval in self.partition.live_classes():
            key = self.domain.class_key(interval)
            if key not in self.class_outcomes:
                continue  # degraded: shard abandoned, class missing
            weights = self.domain.experiment_slot_weights(interval)
            for outcome, weight in zip(self.class_outcomes[key], weights):
                counts[outcome] += interval.length * weight
        counts[Outcome.NO_EFFECT] += self.partition.known_no_effect_weight
        return counts

    def raw_counts(self) -> Counter:
        """Unweighted per-experiment counts — the Pitfall 1 numbers.

        Exposed so the pitfall can be demonstrated and measured; do not
        use these for coverage or comparison.
        """
        counts: Counter = Counter()
        for outcomes in self.class_outcomes.values():
            counts.update(outcomes)
        return counts

    def weighted_failure_count(self) -> int:
        """Absolute failure count F, weighted to the raw fault space."""
        return sum(count for outcome, count in self.weighted_counts()
                   .items() if outcome.is_failure)

    def weighted_coverage(self) -> float:
        """Fault coverage c = 1 - F/w (per-program figure; see metrics)."""
        return 1.0 - self.weighted_failure_count() / self.fault_space_size

    def weighted_counts_by_section(self, section_map) -> dict:
        """Per-section Pitfall-1-weighted counts (see sections.py).

        Splits every live class's weight across the sections its
        interval overlaps and attributes each section's residual weight
        as NO_EFFECT; :func:`~repro.faultspace.sections
        .aggregate_section_counts` folds the result back into exactly
        :meth:`weighted_counts`.  Only defined for complete campaigns —
        a degraded campaign's missing classes would silently surface as
        NO_EFFECT residual, so they raise instead.
        """
        from ..faultspace.sections import section_weighted_counts

        live = self.partition.live_classes()
        missing = [iv for iv in live
                   if self.domain.class_key(iv) not in self.class_outcomes]
        if missing:
            raise ValueError(
                f"cannot split weighted counts by section: {len(missing)} "
                f"live classes missing from a degraded campaign")
        return section_weighted_counts(
            section_map, live, self.class_outcomes,
            domain=self.domain, space=self.partition.fault_space)

    def class_records(self) -> list[tuple[object, tuple[Outcome, ...]]]:
        """Live classes paired with their per-bit outcomes."""
        out = []
        for interval in self.partition.live_classes():
            key = self.domain.class_key(interval)
            if key in self.class_outcomes:
                out.append((interval, self.class_outcomes[key]))
        return out


@dataclass
class BruteForceResult:
    """Ground-truth scan: one real experiment per raw coordinate."""

    golden: GoldenRun
    outcomes: dict
    domain: FaultDomain = MEMORY
    execution: ExecutionReport | None = field(default=None, compare=False,
                                              repr=False)

    def counts(self) -> Counter:
        return Counter(self.outcomes.values())

    @property
    def fault_space_size(self) -> int:
        return self.domain.fault_space(self.golden).size


@dataclass
class SamplingResult:
    """Outcome of a sampled campaign.

    ``samples`` pairs every drawn sample with its outcome.  Samples that
    fell into the same live class share one conducted experiment;
    samples in dead classes are "No Effect" without any experiment —
    but *all* samples count in the estimate (Pitfall 2).

    ``population`` is the size of the space the samples were drawn from:
    ``w`` for raw-uniform sampling, ``w′ = live weight`` for live-only
    sampling.  Extrapolation (Pitfall 3, Corollary 2) must scale counts
    by ``population / n_samples``.
    """

    golden: GoldenRun
    partition: object
    samples: list[tuple[Sample, Outcome]]
    population: int
    experiments_conducted: int
    sampler: str
    domain: FaultDomain = MEMORY
    execution: ExecutionReport | None = field(default=None, compare=False,
                                              repr=False)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def counts(self) -> Counter:
        return Counter(outcome for _, outcome in self.samples)

    def failure_count(self) -> int:
        return sum(1 for _, outcome in self.samples if outcome.is_failure)


#: Sampler names accepted by :func:`run_sampling`.
SAMPLERS = ("uniform", "live-only", "biased-class")


# -- styles: keyed work units -------------------------------------------------
#
# Worker-side expansions of one work item into its fault coordinates.
# Module-level functions, so the process pool can pickle them.


def _class_experiments(executor, interval):
    return interval.experiments()


def _slot_experiments(executor, slot):
    domain = executor.domain
    return list(domain.slot_coordinates(
        domain.fault_space(executor.golden), slot))


def _one_experiment(executor, coordinate):
    return [coordinate]


def _columns(rows) -> tuple:
    """Journal ``(bit, outcome, end_cycle, trap)`` rows as results."""
    return tuple(zip(*rows))[1:]


class _Style:
    """What a campaign style contributes to the lifecycle.

    ``items`` maps every unit key, in canonical (ascending-slot) order,
    to the picklable work item ``expand(executor, item)`` turns into
    fault coordinates.  A unit's *results* are three parallel tuples —
    outcomes, end cycles and traps, one entry per coordinate; its
    *rows* are what the result assembles from.  ``load`` returns the
    journaled units plus the keys failing validation.
    """

    #: Journal campaign kind.
    kind = ""
    #: Whether the style composes from and feeds the section store.
    composes = True
    #: Journal campaign key entries beyond the executor settings.
    params: dict = {}

    def __init__(self, golden: GoldenRun, domain: FaultDomain,
                 items: dict):
        self.golden = golden
        self.domain = domain
        self.items = items

    def slot(self, key) -> int:
        return self.items[key].slot

    def rows(self, key, results):
        return results

    def cost(self, key) -> int:
        """Estimated post-injection cycles (shard balance and deadline)."""
        return max(1, self.golden.cycles - self.slot(key) + 1)


class FullScan(_Style):
    """One unit per live class; its rows are its results."""

    kind = "full-scan"
    expand = staticmethod(_class_experiments)

    def __init__(self, golden, domain, partition, keep_records=False):
        self.partition = partition
        self.keep_records = keep_records
        super().__init__(golden, domain, {
            domain.class_key(interval): interval
            for interval in partition.live_classes()})

    def size(self, key) -> int:
        return self.domain.experiment_count(self.items[key])

    def slot(self, key) -> int:
        return self.items[key].injection_slot

    def cost(self, key) -> int:
        return class_cost(self.items[key], self.golden.cycles,
                          bits=self.domain.bits)

    def load(self, handle):
        journaled = handle.completed_classes()
        # Classes the partition does not know cannot be trusted either.
        bad = invalid_classes(journaled, {
            key: self.size(key) for key in journaled if key in self.items
        }) + [key for key in journaled if key not in self.items]
        return {key: _columns(rows) for key, rows in journaled.items()
                if key not in bad}, bad

    def discard(self, handle, keys) -> None:
        handle.discard_classes(keys)

    def compose(self, composer, key):
        # Only whole classes compose: a partial one re-executes whole,
        # preserving the class-atomic crash-tolerance unit.
        rows = composer.compose(self.slot(key), key[0],
                                range(self.size(key)))
        return None if rows is None else _columns(rows)

    def record(self, handle, units: dict) -> None:
        handle.record_classes([
            (key[0], key[1], [(bit, outcome.value, end_cycle, trap)
                              for bit, (outcome, end_cycle, trap)
                              in enumerate(zip(*rows))])
            for key, rows in units.items()])

    def store(self, composer, key, results) -> None:
        composer.store(self.slot(key), key[0], [
            (bit, *row) for bit, row in enumerate(zip(*results))])

    def assemble(self, rows, report) -> CampaignResult:
        class_outcomes: dict[tuple[int, int], tuple[Outcome, ...]] = {}
        records: list[ExperimentRecord] = []
        for key, interval in self.items.items():
            if key not in rows:
                continue
            outcomes, end_cycles, traps = rows[key]
            class_outcomes[key] = outcomes
            if self.keep_records:
                records.extend(map(ExperimentRecord, interval.experiments(),
                                   outcomes, end_cycles, traps))
        return CampaignResult(golden=self.golden, partition=self.partition,
                              class_outcomes=class_outcomes, records=records,
                              domain=self.domain, execution=report)


class BruteForce(_Style):
    """One unit per injection slot; rows are ``(axis, bit, outcome)``."""

    # Brute force validates the pruning against ground truth; composing
    # it from pruned-campaign results would make that circular.
    kind = "brute-force"
    composes = False
    expand = staticmethod(_slot_experiments)

    def __init__(self, golden, domain):
        self.space = domain.fault_space(golden)
        super().__init__(golden, domain, {
            slot: slot for slot in range(1, golden.cycles + 1)})

    def _coordinates(self, slot) -> list:
        return list(self.domain.slot_coordinates(self.space, slot))

    def size(self, slot) -> int:
        return len(self._coordinates(slot))

    def slot(self, slot) -> int:
        return slot

    def load(self, handle):
        journaled = handle.completed_slots()
        return journaled, [slot for slot, rows in journaled.items()
                           if slot in self.items
                           and len(rows) != self.size(slot)]

    def discard(self, handle, slots) -> None:
        handle.discard_slots(slots)

    def rows(self, slot, results) -> list:
        return [(self.domain.coordinate_axis(coord), coord.bit, outcome)
                for coord, outcome in zip(self._coordinates(slot),
                                          results[0])]

    def record(self, handle, units: dict) -> None:
        for slot, rows in units.items():
            handle.record_slot(slot, [(axis, bit, outcome.value)
                                      for axis, bit, outcome in rows])

    def assemble(self, rows, report) -> BruteForceResult:
        outcomes: dict = {}
        for slot in self.items:
            for axis, bit, outcome in rows.get(slot, ()):
                outcomes[self.domain.coordinate(slot, axis, bit)] = outcome
        return BruteForceResult(golden=self.golden, outcomes=outcomes,
                                domain=self.domain, execution=report)


class Sampling(_Style):
    """One unit per distinct (class, bit) experiment the draw needs.

    Samples are drawn deterministically from the seed up front; samples
    in the same live class and bit share one experiment, samples in dead
    classes need none.  A unit's rows are its outcome; assembly replays
    the outcomes over the drawn samples in their original order.
    """

    kind = "sampling"
    expand = staticmethod(_one_experiment)

    def __init__(self, golden, domain, partition, n_samples, seed,
                 sampler):
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.partition = partition
        self.sampler = sampler
        self.params = {"seed": seed, "sampler": sampler,
                       "n_samples": n_samples}
        space = domain.fault_space(golden)
        if sampler == "uniform":
            instance = UniformSampler(space, seed=seed, domain=domain)
            self.drawn = instance.draw_classified(n_samples, partition)
        elif sampler == "live-only":
            instance = LiveOnlySampler(partition, seed=seed, domain=domain)
            self.drawn = instance.draw_classified(n_samples)
        elif sampler == "biased-class":
            instance = BiasedClassSampler(partition, seed=seed,
                                          domain=domain)
            self.drawn = instance.draw_classified(n_samples)
        else:
            raise ValueError(
                f"unknown sampler {sampler!r}; pick from {SAMPLERS}")
        #: What the estimate extrapolates against: w′ for live-only
        #: sampling, else w — the biased sampler has no meaningful
        #: population, so w shows how wrong its extrapolation is.
        self.population = (instance.population if sampler == "live-only"
                           else space.size)
        #: Post-draw RNG position, journaled so a resume can verify it
        #: re-drew exactly the journaled sample sequence.
        self.rng_state = instance.rng_state()
        #: Each drawn sample's unit key; ``None`` for dead-class samples.
        self.sample_keys: list = []
        items: dict = {}
        for sample in self.drawn:
            key = None
            if sample.class_kind == LIVE:
                interval = partition.locate(sample.coordinate)
                key = domain.class_key(interval) + (
                    domain.experiment_index(interval, sample.coordinate),)
                if key not in items:
                    items[key] = domain.experiment_coordinate(interval,
                                                              key[2])
            self.sample_keys.append(key)
        super().__init__(golden, domain, dict(sorted(
            items.items(), key=lambda kv: (
                kv[1].slot, domain.coordinate_axis(kv[1]), kv[1].bit))))

    def size(self, key) -> int:
        return 1

    def load(self, handle):
        # The RNG position proves the re-drawn sequence is the journaled
        # one before any journaled outcome is reused.  One outcome per
        # unit leaves nothing to truncate.
        handle.verify_sampler_state(len(self.drawn), self.rng_state)
        return handle.completed_experiments(), []

    def compose(self, composer, key):
        rows = composer.compose(self.slot(key), key[0], [key[2]])
        return None if rows is None else rows[0][1]

    def rows(self, key, results) -> Outcome:
        return results[0][0]

    def record(self, handle, units: dict) -> None:
        handle.record_experiments([
            (key[0], key[1], key[2], outcome.value)
            for key, outcome in units.items()])

    def store(self, composer, key, results) -> None:
        composer.store(self.slot(key), key[0],
                       [(key[2], *(column[0] for column in results))])

    def assemble(self, rows, report) -> SamplingResult:
        # A degraded campaign omits the samples of missing experiments.
        samples = [(sample, Outcome.NO_EFFECT if key is None else rows[key])
                   for sample, key in zip(self.drawn, self.sample_keys)
                   if key is None or key in rows]
        return SamplingResult(
            golden=self.golden, partition=self.partition, samples=samples,
            population=self.population,
            experiments_conducted=sum(key in rows for key in self.items),
            sampler=self.sampler, domain=self.domain, execution=report)


# -- the lifecycle ------------------------------------------------------------


class Campaign:
    """One campaign's lifecycle over a style, whatever the backend.

    :meth:`open` opens, validates and composes, leaving :attr:`rows`
    holding the trusted (resumed or composed) units and :attr:`todo`
    the unit keys still to execute, in canonical order.  A backend
    feeds each result to :meth:`accept` (or :meth:`time_out`) and its
    counter deltas to :meth:`count`; :meth:`finish` assembles the
    result and :meth:`close` releases the journal.
    """

    def __init__(self, style: _Style, params: dict, *, journal=None,
                 resume: bool = True,
                 progress: ProgressCallback | None = None):
        self.style = style
        self.params = params
        self.journal = journal
        self.resume = resume
        self.progress = progress
        self.report = ExecutionReport(total_units=len(style.items))
        self.handle = None
        self.composer = None
        self.rows: dict = {}
        self.todo: list = []

    def open(self) -> None:
        style, report = self.style, self.report
        handle = self.handle = open_campaign(
            self.journal, style.golden, style.domain, style.kind,
            dict(self.params, **style.params))
        completed: dict = {}
        if handle is not None:
            if not self.resume:
                handle.clear()
            completed, bad = style.load(handle)
            if bad:
                style.discard(handle, bad)
                for key in bad:
                    completed.pop(key, None)
                report.discarded_results += len(bad)
                handle.record_event(
                    "salvage-prune", at=time.time(),
                    detail=f"{len(bad)} resumed units failed validation "
                           f"and were discarded")
            if style.composes:
                # Section fingerprints use the executor settings alone,
                # so every style shares one store.  Composed units join
                # the resumed ones, all in one journal transaction.
                composer = self.composer = build_composer(
                    handle, style.golden, style.domain, self.params)
                composed = {}
                for key in style.items:
                    if key not in completed:
                        rows = style.compose(composer, key)
                        if rows is not None:
                            composed[key] = rows
                style.record(handle, composed)
                report.composed_hits += sum(map(style.size, composed))
                completed.update(composed)
        self.rows = {key: completed[key] for key in style.items
                     if key in completed}
        self.todo = [key for key in style.items if key not in self.rows]
        report.resumed = len(self.rows)

    def accept(self, key, results, *, synthesized: bool = False) -> None:
        """Journal and store one executed unit, then report progress."""
        style = self.style
        rows = self.rows[key] = style.rows(key, results)
        if self.handle is not None:
            style.record(self.handle, {key: rows})
            if self.composer is not None and not synthesized:
                # Wall-clock-synthesized timeouts are scheduling
                # artifacts of this run; only simulator-produced
                # results enter the cross-campaign store.
                style.store(self.composer, key, results)
        self.report.executed += 1
        self.tick()

    def time_out(self, key) -> None:
        """Accept a unit whose shard hit its wall-clock deadline."""
        size = self.style.size(key)
        self.report.synthesized_timeouts += size
        self.accept(key, ((Outcome.TIMEOUT,) * size,
                          (self.params["timeout_cycles"],) * size,
                          ("",) * size), synthesized=True)

    def count(self, deltas) -> None:
        for name, delta in zip(COUNTERS, deltas):
            setattr(self.report, name, getattr(self.report, name) + delta)

    def tick(self) -> None:
        """Report progress (also re-invoked unchanged as a heartbeat)."""
        if self.progress is not None:
            self.progress(len(self.rows), self.report.total_units)

    def finish(self):
        self.report.missing = tuple(key for key in self.style.items
                                    if key not in self.rows)
        if self.handle is not None and self.report.complete:
            self.handle.mark_complete()
        return self.style.assemble(self.rows, self.report)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()


def _run(style: _Style, *, executor, config, jobs, journal, resume,
         progress, policy, partition=None):
    """Run one campaign of ``style`` on the backend ``jobs`` selects."""
    jobs = resolve_jobs(jobs)
    if executor is not None:
        if config is not None:
            raise ValueError(
                "pass either executor= or config=, not both; the config "
                "exists to build an executor when none is given")
        if jobs not in (None, 1):
            raise ValueError(
                "an explicit executor cannot be shared across worker "
                "processes; drop the executor argument or run with "
                "jobs=None")
    # The config crosses the process boundary; pin its domain to the
    # campaign's so every pool worker rebuilds the right injector.
    config = replace(config or ExecutorConfig(), domain=style.domain.name)
    campaign = Campaign(style, campaign_params(style.golden, config,
                                               executor),
                        journal=journal, resume=resume, progress=progress)
    try:
        campaign.open()
        todo = campaign.todo
        shards = shard_by_cost(todo, [style.cost(key) for key in todo],
                               jobs or 1)
        if len(shards) > 1:
            run_pool(campaign, shards, config, policy or RetryPolicy())
        elif todo:
            # The inline backend: one executor, in this process.
            if executor is None:
                executor = config.build(style.golden, partition=partition)
            for results, deltas in execute_units(
                    executor, style.expand,
                    [(key, style.items[key]) for key in todo]):
                campaign.count(deltas)
                for key, unit in results:
                    campaign.accept(key, unit)
        return campaign.finish()
    finally:
        campaign.close()


def run_full_scan(golden: GoldenRun, *,
                  partition=None,
                  executor: ExperimentExecutor | None = None,
                  config: ExecutorConfig | None = None,
                  keep_records: bool = False,
                  progress: ProgressCallback | None = None,
                  jobs: int | None = None,
                  domain: FaultDomain | str = MEMORY,
                  journal=None,
                  resume: bool = True,
                  policy=None) -> CampaignResult:
    """Def/use-pruned full fault-space scan (exact, no sampling error).

    ``jobs`` selects the backend: ``None`` (default) or ``1`` runs
    inline in this process, ``0`` uses one worker process per CPU, any
    larger count that many workers.  ``domain`` selects the fault model
    (``"memory"`` or ``"register"``).  Results are identical for every
    backend.

    ``config`` is an :class:`~.experiment.ExecutorConfig` applied on
    every backend (e.g. to disable the convergence early-exit);
    ``executor`` injects a prebuilt executor for the inline backend
    only and excludes ``config``.  ``progress`` is called with ``(done,
    total)`` live classes as each executed class is journaled.

    ``journal`` enables durable per-class result journaling and resume
    (see the module docstring); ``policy`` is a
    :class:`~repro.campaign.parallel.RetryPolicy` for the process
    pool's timeout/retry behaviour (ignored inline).
    """
    domain = get_domain(domain)
    if partition is None:
        partition = domain.build_partition(golden)
    return _run(FullScan(golden, domain, partition, keep_records),
                executor=executor, config=config, jobs=jobs,
                journal=journal, resume=resume, progress=progress,
                policy=policy, partition=partition)


def run_brute_force(golden: GoldenRun, *,
                    executor: ExperimentExecutor | None = None,
                    config: ExecutorConfig | None = None,
                    progress: ProgressCallback | None = None,
                    jobs: int | None = None,
                    domain: FaultDomain | str = MEMORY,
                    journal=None,
                    resume: bool = True,
                    policy=None) -> BruteForceResult:
    """Run one experiment for *every* fault-space coordinate.

    Only feasible for tiny programs; used by tests and examples to prove
    that def/use pruning plus weighting reproduces these numbers exactly.
    ``jobs``, ``domain``, ``config``, ``journal`` and ``resume`` behave
    as in :func:`run_full_scan`; ``progress`` counts injection slots.
    The journal's atomic unit is one injection slot.
    """
    return _run(BruteForce(golden, get_domain(domain)), executor=executor,
                config=config, jobs=jobs, journal=journal, resume=resume,
                progress=progress, policy=policy)


def run_sampling(golden: GoldenRun, n_samples: int, *, seed: int = 0,
                 sampler: str = "uniform",
                 partition=None,
                 executor: ExperimentExecutor | None = None,
                 config: ExecutorConfig | None = None,
                 progress: ProgressCallback | None = None,
                 jobs: int | None = None,
                 domain: FaultDomain | str = MEMORY,
                 journal=None,
                 resume: bool = True,
                 policy=None) -> SamplingResult:
    """Run a sampled campaign with def/use-pruned experiment sharing.

    ``progress`` is called as each distinct (class, bit) experiment key
    the drawn samples require is resolved, with ``(done, total)`` over
    those keys.  ``jobs``, ``domain``, ``config``, ``journal`` and
    ``resume`` behave as in :func:`run_full_scan`.  The journal
    additionally records the sampler's RNG position: resuming with a
    different seed, sampler or sample count raises
    :class:`~repro.campaign.journal.JournalMismatchError`.
    """
    domain = get_domain(domain)
    if partition is None:
        partition = domain.build_partition(golden)
    return _run(Sampling(golden, domain, partition, n_samples, seed,
                         sampler),
                executor=executor, config=config, jobs=jobs,
                journal=journal, resume=resume, progress=progress,
                policy=policy, partition=partition)
