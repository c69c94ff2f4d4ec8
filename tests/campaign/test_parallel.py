"""Parallel campaign engine: sharding, pickling, serial equivalence.

The contract under test is strict: the parallel engine must produce
results *bit-for-bit identical* to the serial runner — same
``class_outcomes`` (including iteration order), same weighted and raw
counts, same sample sequences — regardless of worker count.
"""

import os
import pickle

import pytest

from repro.campaign import (
    ExecutorConfig,
    record_golden,
    resolve_jobs,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign.parallel import class_cost, shard_by_cost
from repro.faultspace.defuse import ByteInterval, LIVE
from repro.programs import all_programs, bin_sem2, hi, micro

JOB_COUNTS = (1, 2, 4)

#: Execution-report counters every backend must agree on.  ``execution``
#: is excluded from result equality, so drift here would go unseen.
BOOKKEEPING = ("executed", "resumed", "composed_hits", "convergence_hits",
               "slice_hits", "total_units")


def assert_same_bookkeeping(parallel, serial):
    for name in BOOKKEEPING:
        assert getattr(parallel.execution, name) \
            == getattr(serial.execution, name), name


@pytest.fixture(scope="module")
def memcopy_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def hardened_golden():
    """A hardened benchmark (bin_sem2 + SUM+DMR) at reduced scale."""
    return record_golden(bin_sem2.hardened(1))


@pytest.fixture(scope="module")
def memcopy_serial(memcopy_golden):
    return run_full_scan(memcopy_golden, keep_records=True)


@pytest.fixture(scope="module")
def hardened_serial(hardened_golden):
    return run_full_scan(hardened_golden)


class TestJobsResolution:
    def test_none_means_serial(self):
        assert resolve_jobs(None) is None

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)

    def test_runner_rejects_executor_with_jobs(self, memcopy_golden):
        from repro.campaign import ExperimentExecutor

        with pytest.raises(ValueError, match="executor"):
            run_full_scan(memcopy_golden, jobs=2,
                          executor=ExperimentExecutor(memcopy_golden))


class TestSharding:
    def _interval(self, addr, first, last):
        return ByteInterval(addr=addr, first_slot=first, last_slot=last,
                            kind=LIVE)

    def test_shards_are_contiguous_and_complete(self):
        items = list(range(17))
        shards = shard_by_cost(items, [1] * len(items), 4)
        assert sum(shards, []) == items  # order + completeness
        assert 1 <= len(shards) <= 4

    def test_cost_balancing_beats_count_balancing(self):
        # Front-loaded costs (early injection slots are expensive): a
        # count-balanced split would put half the cost in shard 0.
        costs = [100, 100, 1, 1, 1, 1, 1, 1]
        shards = shard_by_cost(list(range(8)), costs, 2)
        assert shards[0] == [0, 1]
        assert shards[1] == [2, 3, 4, 5, 6, 7]

    def test_more_jobs_than_items(self):
        shards = shard_by_cost([1, 2], [5, 5], 8)
        assert shards == [[1], [2]]

    def test_empty_items(self):
        assert shard_by_cost([], [], 4) == []

    def test_class_cost_prefers_early_slots(self):
        total = 1000
        early = self._interval(0, 1, 10)
        late = self._interval(0, 900, 990)
        assert class_cost(early, total) > class_cost(late, total)

    def test_class_cost_includes_fast_forward_span(self):
        total = 100
        short = self._interval(0, 90, 91)
        long = self._interval(1, 2, 91)  # same injection slot, longer span
        assert class_cost(long, total) \
            == class_cost(short, total) + long.length - short.length


class TestPicklability:
    """The fork/spawn boundary: everything shipped to workers pickles."""

    def test_program_roundtrip(self, memcopy_golden):
        program = memcopy_golden.program
        clone = pickle.loads(pickle.dumps(program))
        assert clone.rom == program.rom
        assert clone.data == program.data
        assert clone.ram_size == program.ram_size

    def test_golden_run_roundtrip_is_executable(self, memcopy_golden):
        clone = pickle.loads(pickle.dumps(memcopy_golden))
        assert clone.output == memcopy_golden.output
        assert clone.cycles == memcopy_golden.cycles
        # A rebuilt executor over the clone reproduces serial outcomes.
        executor = ExecutorConfig().build(clone)
        live = clone.partition().live_classes()
        coord = live[0].experiments()[0]
        original = ExecutorConfig().build(memcopy_golden).run(coord)
        assert executor.run(coord).outcome == original.outcome

    def test_executor_config_roundtrip(self):
        config = ExecutorConfig(timeout_factor=2.5, timeout_slack=64,
                                use_snapshots=False, early_stop=False)
        assert pickle.loads(pickle.dumps(config)) == config


class TestFullScanEquivalence:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("fixture", ["memcopy", "hardened"])
    def test_identical_to_serial(self, jobs, fixture, request):
        golden = request.getfixturevalue(f"{fixture}_golden")
        serial = request.getfixturevalue(f"{fixture}_serial")
        parallel = run_full_scan(golden, jobs=jobs)
        assert list(parallel.class_outcomes.items()) \
            == list(serial.class_outcomes.items())
        assert parallel.weighted_counts() == serial.weighted_counts()
        assert parallel.raw_counts() == serial.raw_counts()
        assert_same_bookkeeping(parallel, serial)

    def test_records_identical_to_serial(self, memcopy_golden,
                                         memcopy_serial):
        parallel = run_full_scan(memcopy_golden, jobs=2, keep_records=True)
        assert parallel.records == memcopy_serial.records

    def test_progress_reaches_total(self, memcopy_golden):
        seen = []
        run_full_scan(memcopy_golden, jobs=2,
                      progress=lambda done, total: seen.append((done,
                                                                total)))
        assert seen[-1][0] == seen[-1][1] > 0
        assert [done for done, _ in seen] \
            == sorted(done for done, _ in seen)


class TestBruteForceEquivalence:
    def test_identical_to_serial_on_tiny_program(self):
        golden = record_golden(hi.baseline())
        serial = run_brute_force(golden)
        for jobs in JOB_COUNTS:
            parallel = run_brute_force(golden, jobs=jobs)
            assert list(parallel.outcomes.items()) \
                == list(serial.outcomes.items())
            assert parallel.counts() == serial.counts()
            assert_same_bookkeeping(parallel, serial)


class TestSamplingEquivalence:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("sampler",
                             ["uniform", "live-only", "biased-class"])
    def test_identical_to_serial(self, memcopy_golden, jobs, sampler):
        serial = run_sampling(memcopy_golden, 150, seed=7, sampler=sampler)
        parallel = run_sampling(memcopy_golden, 150, seed=7,
                                sampler=sampler, jobs=jobs)
        assert parallel.samples == serial.samples
        assert parallel.experiments_conducted \
            == serial.experiments_conducted
        assert parallel.population == serial.population
        assert parallel.counts() == serial.counts()
        assert_same_bookkeeping(parallel, serial)

    def test_progress_counts_distinct_experiments(self, memcopy_golden):
        serial_seen, parallel_seen = [], []
        run_sampling(memcopy_golden, 100, seed=1,
                     progress=lambda d, t: serial_seen.append((d, t)))
        run_sampling(memcopy_golden, 100, seed=1, jobs=2,
                     progress=lambda d, t: parallel_seen.append((d, t)))
        assert serial_seen[-1][0] == serial_seen[-1][1] > 0
        assert parallel_seen[-1] == serial_seen[-1]


@pytest.mark.skipif(not os.environ.get("REPRO_FULL_EQUIVALENCE"),
                    reason="full-registry sweep is paper scale; set "
                           "REPRO_FULL_EQUIVALENCE=1 to run")
def test_every_registered_program_matches_serial_at_four_jobs():
    for name, thunk in sorted(all_programs().items()):
        golden = record_golden(thunk())
        serial = run_full_scan(golden)
        parallel = run_full_scan(golden, jobs=4)
        assert list(parallel.class_outcomes.items()) \
            == list(serial.class_outcomes.items()), name
        assert parallel.weighted_counts() == serial.weighted_counts(), name
