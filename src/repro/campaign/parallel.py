"""Execution backends: the shared unit executor and the process pool.

A campaign (:class:`~.runner.Campaign`) hands its remaining work units
to a backend; a backend only executes them and returns keyed rows.
This module holds what every backend shares — :func:`execute_units`,
which expands units into fault coordinates, runs same-slot stretches
through one ``run_many`` call and measures the executor's diagnostic
counters — and the process-pool backend, :func:`run_pool`.  The inline
backend (``jobs=None`` or ``1``) calls :func:`execute_units` directly
in the current process; the lease fabric (:mod:`repro.campaign.dist`)
ships units to remote workers instead.

Two design rules keep the pool exactly as exact as the inline backend:

* **One executor per worker.**  :class:`~.experiment.ExperimentExecutor`
  is documented as not thread-safe; every worker process builds its own
  from a pickled :class:`~.experiment.ExecutorConfig` in the pool
  initializer.  The golden run — including its checkpoint-digest ladder
  for the convergence early-exit — crosses the process boundary exactly
  once per worker, via the initializer args, never per shard or per
  experiment; each worker expands the ladder into its digest → cycle
  lookup table locally.
* **Contiguous slot shards.**  The executor's snapshot fast-forward
  (:meth:`ExperimentExecutor._state_at`) only pays off when experiments
  arrive in ascending injection-slot order.  Work is therefore split into
  *contiguous slot ranges*: worker *k* fast-forwards its pristine machine
  once to the start of its range and then advances monotonically, instead
  of rewinding on every interleaved experiment that round-robin dispatch
  would cause.

Shards are balanced by estimated cost, not unit count: an experiment
injected at slot *t* replays roughly ``Δt − t + 1`` post-injection cycles,
so early-slot units are far more expensive than late ones (see
:func:`class_cost`).

Results are accepted by the campaign in completion order and assembled
in canonical (serial) order afterwards, which makes ``class_outcomes``
dictionaries, record lists, sample sequences and all derived counts
bit-for-bit identical to the inline backend regardless of worker count
or OS scheduling.

Robustness (campaigns are long; machines are not reliable):

* **Wall-clock shard deadlines.**  Each shard gets a deadline derived
  from its estimated cycle cost (or :attr:`RetryPolicy.shard_timeout`).
  A shard that exceeds it — a wedged worker, a pathological injection
  the simulator's own cycle budget cannot catch — is killed and its
  experiments are *classified* :data:`~.outcomes.Outcome.TIMEOUT`
  instead of stalling the whole pool.
* **Retry with backoff.**  If a worker process dies (OOM killer,
  segfault, ``kill -9``), the pool is rebuilt and the unfinished shards
  are resubmitted with exponential backoff, up to
  :attr:`RetryPolicy.max_retries` attempts per shard.
* **Graceful degradation.**  Shards that exhaust their retry budget are
  abandoned; the campaign returns a partial result whose
  ``result.execution`` report lists the missing work, rather than
  raising away everything that did complete.
* **Heartbeat progress.**  During long waits the existing ``progress``
  callback is re-invoked with unchanged counts at
  :attr:`RetryPolicy.heartbeat` intervals, so callers can tell a slow
  campaign from a dead one.

Failure injection into the pool itself — needed to test the above
deterministically — reads the same :class:`~.dist.chaos.ChaosPlan` the
fabric uses, from ``REPRO_CHAOS_PLAN``: its ``kill_shards`` and
``hang_shards`` name ``(shard, attempt)`` pairs whose worker dies
(after :attr:`~.dist.chaos.ChaosPlan.delay_seconds`) or sleeps
:attr:`~.dist.chaos.ChaosPlan.hang_seconds`.  The plan is loaded by the
pool initializer, so these events only ever fire inside pool worker
processes.

Pickling constraints (fork *and* spawn start methods are supported):
everything crossing the process boundary must be picklable.  That is
``GoldenRun`` (thus ``Program``, ``Instruction``, ``MemoryTrace``),
``ExecutorConfig`` (which names its fault domain; workers resolve the
singleton), the work items of every style (intervals, slots,
coordinates), the style's module-level expansion function and
``Outcome`` — all plain dataclasses, enums or functions.  Executors and
``Machine`` instances never cross the boundary; they are rebuilt per
worker.
"""

from __future__ import annotations

import concurrent.futures as cfutures
import dataclasses
import itertools
import multiprocessing
import os
import random
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from .experiment import ExecutorConfig, ExperimentExecutor
from .golden import GoldenRun


def resolve_jobs(jobs: int | None) -> int | None:
    """Normalize a ``jobs`` parameter.

    ``None`` means "inline in this process" and is returned unchanged;
    ``0`` means "one worker per CPU"; any positive value is taken
    literally (``1`` also runs inline).
    """
    if jobs is None:
        return None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Timeout, retry and heartbeat policy for the process pool.

    The default shard deadline is *derived from the golden run*: a shard
    estimated at ``c`` post-injection cycles is allowed
    ``c / cycles_per_second`` wall-clock seconds (floored at
    :attr:`min_shard_timeout` so tiny test programs are never starved).
    ``shard_timeout`` overrides the derivation with a fixed number of
    seconds — campaign results must *not* depend on the policy, only on
    whether work finished at all, which is why expired shards are
    classified as timeouts rather than re-executed.
    """

    #: Resubmissions allowed per shard after its worker process died.
    max_retries: int = 2
    #: Initial delay before resubmitting after a pool break, seconds.
    backoff: float = 0.25
    #: Multiplier applied to the delay after each successive break.
    backoff_factor: float = 2.0
    #: Random jitter fraction added to each retry delay (a delay of
    #: ``d`` sleeps ``d * (1 + U[0, backoff_jitter])``), so campaigns
    #: sharing a machine do not resubmit in lockstep after a common
    #: cause (OOM sweep, suspend/resume) broke all their pools at once.
    backoff_jitter: float = 0.25
    #: Fixed per-shard wall-clock deadline in seconds; ``None`` derives
    #: it from the shard's estimated cycle cost.
    shard_timeout: float | None = None
    #: Simulated cycles per wall-clock second assumed by the derivation.
    cycles_per_second: float = 50_000.0
    #: Floor for derived deadlines, seconds.
    min_shard_timeout: float = 5.0
    #: How often the dispatcher wakes to check deadlines, seconds.
    poll_interval: float = 0.05
    #: Interval between heartbeat re-emissions of ``progress``, seconds.
    heartbeat: float = 5.0

    def deadline_for(self, cost_cycles: int) -> float:
        """Wall-clock seconds granted to a shard of ``cost_cycles``."""
        if self.shard_timeout is not None:
            return self.shard_timeout
        return max(self.min_shard_timeout,
                   cost_cycles / self.cycles_per_second)


# -- load balancing -----------------------------------------------------------


def class_cost(interval, total_cycles: int, bits: int = 8) -> int:
    """Estimated post-injection cycle cost of one live class.

    Each of the class's ``bits`` experiments (the domain's per-class
    width: 8 for memory bytes, 32 for registers) resumes at the
    representative injection slot and replays up to the remaining
    runtime, so the dominant term is ``bits × (Δt − slot + 1)``.  The
    interval length is added on top for the snapshot fast-forward that
    walks the pristine machine across the class's slot span.  Balancing
    shards by this estimate instead of class count keeps workers evenly
    loaded even though early-slot classes are many times more expensive
    than late-slot ones.
    """
    remaining = total_cycles - interval.injection_slot + 1
    return bits * max(1, remaining) + interval.length


def shard_by_cost(items: Sequence, costs: Sequence[int],
                  jobs: int) -> list[list]:
    """Split ``items`` into at most ``jobs`` contiguous cost-balanced runs.

    ``items`` must already be in execution order (ascending injection
    slot); contiguity is what preserves the per-worker snapshot
    fast-forward.  The *k*-th cut is placed where the cumulative cost
    first reaches ``k/jobs`` of the total.
    """
    items = list(items)
    if not items:
        return []
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [items]
    total = sum(costs)
    if total <= 0:
        total = len(items)
        costs = [1] * len(items)
    shards: list[list] = []
    current: list = []
    acc = 0
    for item, cost in zip(items, costs):
        current.append(item)
        acc += cost
        if len(shards) < jobs - 1 and acc * jobs >= (len(shards) + 1) * total:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


#: Estimated total post-injection cycles below which a campaign counts
#: as *small*: per-lease protocol round-trips and idle re-poll waits
#: dominate the simulated work (ROADMAP's 0.18× single-worker dist
#: overhead), so shard planning collapses the lease granularity
#: instead of optimizing for rebalance-after-node-loss.
SMALL_CAMPAIGN_CYCLES = 1_000_000


def tune_shard_count(total_cost_cycles: int, requested: int,
                     workers: int | None = None) -> int:
    """Lease-granularity heuristic for small campaigns.

    Fine shards only pay off when there is enough work to rebalance
    after a worker is lost; on a campaign whose estimated cost is below
    :data:`SMALL_CAMPAIGN_CYCLES` they just multiply lease round-trips.
    Collapsing to one shard per expected worker removes those
    round-trips, and — because no extra pending shards exist to hand
    out — the lease board never needs to down-tune its re-poll wait
    below the default heartbeat interval for waiting workers.

    ``workers`` is the expected worker count (``None`` means unknown,
    e.g. a hand-started ``repro coordinator``: the requested shard
    count is kept untouched).  Deterministic, so a coordinator restart
    with the same arguments re-derives the same plan and journaled
    per-shard lease state stays valid.
    """
    if workers is None or total_cost_cycles >= SMALL_CAMPAIGN_CYCLES:
        return requested
    return max(1, min(requested, workers))


# -- the shared unit executor -------------------------------------------------

#: Executor diagnostic counters every backend reports as per-run deltas
#: (the executor, and so its counters, outlives the units it runs).
COUNTERS = ("convergence_hits", "slice_hits", "scalar_tail_experiments")


def execute_units(executor: ExperimentExecutor, expand, units):
    """Execute keyed work units; yield each same-slot group's results.

    ``units`` holds ``(key, item)`` pairs in ascending slot order and
    ``expand(executor, item)`` turns an item into its fault coordinates.
    Consecutive units sharing an injection slot go to the executor in
    one ``run_many`` call, so a batch engine can fuse them into lockstep
    lanes (a scalar executor just iterates).  Each yielded group is
    ``([(key, (outcomes, end_cycles, traps)), ...], deltas)`` — three
    parallel tuples per unit, compact to pickle and to keep — with
    ``deltas`` the group's :data:`COUNTERS` increments.  Being a
    generator, the caller journals one group before the next executes.
    """
    group: list = []
    for key, item in units:
        coords = expand(executor, item)
        if group and coords[0].slot != group[0][1][0].slot:
            yield run_group(executor, group)
            group = []
        group.append((key, coords))
    if group:
        yield run_group(executor, group)


def run_group(executor: ExperimentExecutor, group: list):
    """Run ``(key, coordinates)`` units in one ``run_many`` call; return
    ``(results, deltas)`` as :func:`execute_units` yields them."""
    before = [getattr(executor, name) for name in COUNTERS]
    records = iter(executor.run_many(
        [coord for _, coords in group for coord in coords]))
    results = []
    for key, coords in group:
        unit = list(itertools.islice(records, len(coords)))
        results.append((key, (
            tuple(record.outcome for record in unit),
            tuple(record.end_cycle for record in unit),
            tuple(record.trap for record in unit))))
    return results, [getattr(executor, name) - base
                     for name, base in zip(COUNTERS, before)]


# -- pool worker side ---------------------------------------------------------

#: Per-worker executor and chaos plan, set up once by :func:`_init_worker`.
#: Module-level because pool workers can only share state through globals.
_WORKER_EXECUTOR: ExperimentExecutor | None = None
_WORKER_CHAOS = None


def _init_worker(golden: GoldenRun, config: ExecutorConfig) -> None:
    """Pool initializer: build this worker's private executor and read
    the chaos plan its environment carries, if any."""
    global _WORKER_EXECUTOR, _WORKER_CHAOS
    # Imported here: the dist package imports this module.
    from .dist.chaos import plan_from_env

    _WORKER_CHAOS = plan_from_env()
    _WORKER_EXECUTOR = config.build(golden)


def _run_shard(task):
    """Run one shard of work units in a pool worker.

    Returns every unit's results plus the shard's summed counter deltas.
    The chaos plan's ``(shard, attempt)`` keys let a test kill or wedge
    a shard on its first attempt and let it succeed on retry.
    """
    index, attempt, (expand, units) = task
    plan = _WORKER_CHAOS
    if plan is not None:
        if (index, attempt) in plan.kill_shards:
            time.sleep(plan.delay_seconds)
            os._exit(13)  # a SIGKILLed / OOM-killed worker
        if (index, attempt) in plan.hang_shards:
            time.sleep(plan.hang_seconds)  # a wedged one
    results: list = []
    totals = [0] * len(COUNTERS)
    for group, deltas in execute_units(_WORKER_EXECUTOR, expand, units):
        results.extend(group)
        totals = [total + delta for total, delta in zip(totals, deltas)]
    return results, totals


# -- the process-pool backend -------------------------------------------------


def run_pool(campaign, shards: list[list], config: ExecutorConfig,
             policy: RetryPolicy) -> None:
    """Execute ``shards`` of the campaign's unit keys on a worker pool.

    Results go to :meth:`~.runner.Campaign.accept` in completion order.
    Shards whose wall-clock deadline (their summed unit cost through the
    policy) expires are killed and their units accepted as synthesized
    timeouts.  Shards interrupted by a worker death are retried with
    backoff; after :attr:`RetryPolicy.max_retries` extra attempts they
    are dropped and counted in ``report.failed_shards`` — the campaign
    then reports their units as missing.
    """
    style, report = campaign.style, campaign.report
    costs = {index: sum(style.cost(key) for key in shard)
             for index, shard in enumerate(shards)}
    pending = {index: (style.expand, [(key, style.items[key])
                                      for key in shard])
               for index, shard in enumerate(shards)}
    attempts = {index: 0 for index in pending}
    backoff = policy.backoff
    ctx = multiprocessing.get_context()
    while pending:
        executor = cfutures.ProcessPoolExecutor(
            max_workers=len(pending), mp_context=ctx,
            initializer=_init_worker, initargs=(style.golden, config))
        futures = {
            executor.submit(_run_shard, (index, attempts[index], payload)):
                index
            for index, payload in sorted(pending.items())}
        started: dict[int, float] = {}
        timed_out: list[int] = []
        broke = False
        last_beat = time.monotonic()
        try:
            while futures:
                done, _ = cfutures.wait(
                    list(futures), timeout=policy.poll_interval,
                    return_when=cfutures.FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    results, deltas = future.result()  # raises if dead
                    del pending[index]
                    started.pop(index, None)
                    campaign.count(deltas)
                    for key, unit in results:
                        campaign.accept(key, unit)
                now = time.monotonic()
                for future, index in futures.items():
                    if index not in started and future.running():
                        started[index] = now
                timed_out = [
                    index for index in started
                    if now - started[index]
                    >= policy.deadline_for(costs[index])]
                if timed_out:
                    break
                if now - last_beat >= policy.heartbeat:
                    campaign.tick()
                    last_beat = now
        except BrokenProcessPool:
            broke = True
        finally:
            if timed_out or broke:
                # Non-daemonic pool workers would survive shutdown()
                # and block interpreter exit; a wedged or orphaned
                # worker must be killed outright.
                procs = getattr(executor, "_processes", None) or {}
                for proc in list(procs.values()):
                    proc.kill()
            executor.shutdown(wait=True, cancel_futures=True)
        for index in timed_out:
            _, units = pending.pop(index)
            report.timed_out_shards += 1
            for key, _ in units:
                campaign.time_out(key)
        if broke:
            # Blame cannot be attributed: the executor fails every
            # in-flight future once the pool breaks.  All unfinished
            # shards are charged an attempt; innocent ones have
            # max_retries of headroom.
            retried = []
            for index in list(pending):
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    report.failed_shards += 1
                    del pending[index]
                else:
                    retried.append(index)
            if retried:
                report.shard_retries += len(retried)
                time.sleep(backoff
                           * (1.0 + policy.backoff_jitter * random.random()))
                backoff *= policy.backoff_factor
