"""Differential crash/kill-and-resume tests.

The journal contract is that a resumed campaign produces a result
*bit-for-bit identical* to an uninterrupted one — same outcome dicts,
same record lists, same sample sequences, same CSV export.  These tests
interrupt campaigns at every layer the real world does:

* mid-campaign ``KeyboardInterrupt``-style aborts in the serial runner
  (simulated by a progress callback that raises),
* worker processes killed outright (via a chaos plan's ``kill_shards``,
  which makes a worker ``os._exit`` mid-shard like the OOM killer would),
* wedged workers that never return (classified as wall-clock timeouts),

and then assert the resumed result equals the uninterrupted baseline,
for both fault domains and across serial and parallel (jobs ∈ {1, 2, 4})
engines.
"""

import pytest

from repro.campaign import (
    ExperimentJournal,
    Outcome,
    RetryPolicy,
    export_class_results_csv,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign.dist.chaos import PLAN_ENV, ChaosPlan
from repro.programs import hi, micro

JOBS = [1, 2, 4]


class Interrupt(Exception):
    """Stands in for the user's ^C / the scheduler's SIGKILL."""


def interrupt_after(n: int):
    """A progress callback that dies once ``n`` units completed."""

    def callback(done: int, total: int) -> None:
        if done >= n:
            raise Interrupt

    return callback


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def register_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


@pytest.fixture(scope="module")
def register_baseline(register_golden):
    return run_full_scan(register_golden, keep_records=True,
                         domain="register")


def _golden_and_baseline(domain, memory_golden, memory_baseline,
                         register_golden, register_baseline):
    if domain == "memory":
        return memory_golden, memory_baseline
    return register_golden, register_baseline


class TestFullScanResume:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    @pytest.mark.parametrize("jobs", [None] + JOBS)
    def test_interrupted_scan_resumes_bit_for_bit(
            self, domain, jobs, tmp_path, memory_golden, memory_baseline,
            register_golden, register_baseline):
        """Kill a serial journaled scan after 3 classes; finish it with
        every engine; the merged result must equal the uninterrupted one."""
        golden, baseline = _golden_and_baseline(
            domain, memory_golden, memory_baseline, register_golden,
            register_baseline)
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(golden, domain=domain, journal=journal,
                          keep_records=True, progress=interrupt_after(3))
        resumed = run_full_scan(golden, domain=domain, journal=journal,
                                keep_records=True, jobs=jobs)
        assert resumed == baseline
        assert resumed.execution.resumed == 3
        assert resumed.execution.executed \
            == resumed.execution.total_units - 3
        assert resumed.execution.complete

    def test_resumed_csv_export_is_byte_identical(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal,
                          progress=interrupt_after(4))
        resumed = run_full_scan(memory_golden, journal=journal, jobs=2)
        baseline_csv = tmp_path / "baseline.csv"
        resumed_csv = tmp_path / "resumed.csv"
        export_class_results_csv(memory_baseline, baseline_csv)
        export_class_results_csv(resumed, resumed_csv)
        assert resumed_csv.read_bytes() == baseline_csv.read_bytes()

    def test_complete_campaign_resumes_without_executing(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(memory_golden, journal=journal)
        again = run_full_scan(memory_golden, journal=journal,
                              keep_records=True)
        assert again == memory_baseline
        assert again.execution.executed == 0
        assert again.execution.resumed == again.execution.total_units

    def test_resume_false_discards_the_journal(self, tmp_path,
                                               memory_golden):
        """resume=False drops the campaign's own rows, but the shared
        section store survives the clear, so the rerun composes its
        results instead of re-executing them (bit-for-bit equal)."""
        journal = tmp_path / "journal.sqlite"
        baseline = run_full_scan(memory_golden, journal=journal)
        fresh = run_full_scan(memory_golden, journal=journal,
                              resume=False)
        assert fresh == baseline
        assert fresh.execution.executed == 0
        assert fresh.execution.composed_hits > 0
        assert fresh.execution.resumed == fresh.execution.total_units

    def test_fresh_journal_file_executes_everything(self, tmp_path,
                                                    memory_golden):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(memory_golden, journal=journal)
        cold = run_full_scan(memory_golden,
                             journal=tmp_path / "other.sqlite")
        assert cold.execution.resumed == 0
        assert cold.execution.composed_hits == 0
        assert cold.execution.executed == cold.execution.total_units

    def test_journal_survives_cross_engine_resume(
            self, tmp_path, memory_golden, memory_baseline):
        """A campaign journaled by the parallel engine finishes serially
        (and vice versa) — the journal key is engine-independent."""
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal, jobs=2,
                          progress=interrupt_after(2))
        resumed = run_full_scan(memory_golden, journal=journal,
                                keep_records=True)
        assert resumed == memory_baseline
        assert resumed.execution.resumed >= 2


class TestBruteForceResume:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_interrupted_brute_force_resumes_bit_for_bit(
            self, domain, jobs, tmp_path, register_golden):
        golden = register_golden  # Δt=8: brute force stays tiny
        baseline = run_brute_force(golden, domain=domain)
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_brute_force(golden, domain=domain, journal=journal,
                            progress=interrupt_after(4))
        resumed = run_brute_force(golden, domain=domain, journal=journal,
                                  jobs=jobs)
        assert resumed == baseline
        assert resumed.execution.resumed == 4
        assert resumed.execution.complete


class TestSamplingResume:
    @pytest.mark.parametrize("jobs", [None] + JOBS)
    def test_interrupted_sampling_resumes_bit_for_bit(
            self, jobs, tmp_path, memory_golden):
        baseline = run_sampling(memory_golden, 40, seed=7)
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_sampling(memory_golden, 40, seed=7, journal=journal,
                         progress=interrupt_after(5))
        resumed = run_sampling(memory_golden, 40, seed=7,
                               journal=journal, jobs=jobs)
        assert resumed == baseline
        assert resumed.samples == baseline.samples
        assert resumed.experiments_conducted \
            == baseline.experiments_conducted
        assert resumed.execution.resumed == 5

    def test_register_sampling_resumes(self, tmp_path, register_golden):
        baseline = run_sampling(register_golden, 30, seed=3,
                                domain="register")
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_sampling(register_golden, 30, seed=3, domain="register",
                         journal=journal, progress=interrupt_after(1))
        resumed = run_sampling(register_golden, 30, seed=3,
                               domain="register", journal=journal, jobs=2)
        assert resumed == baseline
        assert resumed.samples == baseline.samples


class TestWorkerDeath:
    """Simulated worker kills via the chaos plan's ``kill_shards``."""

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_dead_worker_is_retried_to_an_identical_result(
            self, domain, monkeypatch, memory_golden, memory_baseline,
            register_golden, register_baseline):
        golden, baseline = _golden_and_baseline(
            domain, memory_golden, memory_baseline, register_golden,
            register_baseline)
        monkeypatch.setenv(PLAN_ENV, ChaosPlan(
            kill_shards=((0, 0),), delay_seconds=0.2).to_json())
        result = run_full_scan(golden, domain=domain, jobs=2,
                               keep_records=True,
                               policy=RetryPolicy(backoff=0.05))
        assert result == baseline
        assert result.execution.shard_retries >= 1
        assert result.execution.complete

    def test_exhausted_retries_degrade_to_partial_result(
            self, monkeypatch, memory_golden, memory_baseline):
        monkeypatch.setenv(PLAN_ENV, ChaosPlan(
            kill_shards=((0, 0), (0, 1)), delay_seconds=0.2).to_json())
        result = run_full_scan(memory_golden, jobs=2,
                               policy=RetryPolicy(max_retries=1,
                                                  backoff=0.05))
        execution = result.execution
        assert not execution.complete
        assert execution.failed_shards == 1
        assert execution.missing
        assert 0.0 < execution.completeness < 1.0
        # The surviving shard's classes are still present and correct.
        for key, outcomes in result.class_outcomes.items():
            assert outcomes == memory_baseline.class_outcomes[key]
        # Weighted counts cover only the completed part of the space.
        assert sum(result.weighted_counts().values()) \
            < result.fault_space_size

    def test_degraded_campaign_resumes_to_completion(
            self, monkeypatch, tmp_path, memory_golden, memory_baseline):
        """Journal + worker death + exhausted retries, then a clean rerun:
        the rerun resumes the survivors and equals the uninterrupted run."""
        journal = tmp_path / "journal.sqlite"
        monkeypatch.setenv(PLAN_ENV, ChaosPlan(
            kill_shards=((0, 0), (0, 1)), delay_seconds=0.2).to_json())
        partial = run_full_scan(memory_golden, jobs=2, journal=journal,
                                policy=RetryPolicy(max_retries=1,
                                                   backoff=0.05))
        assert not partial.execution.complete
        monkeypatch.delenv(PLAN_ENV)
        resumed = run_full_scan(memory_golden, jobs=2, journal=journal,
                                keep_records=True)
        assert resumed == memory_baseline
        assert resumed.execution.complete
        assert resumed.execution.resumed \
            == partial.execution.total_units - len(partial.execution.missing)

    def test_sampling_survives_worker_death(self, monkeypatch,
                                            memory_golden):
        baseline = run_sampling(memory_golden, 40, seed=7)
        monkeypatch.setenv(PLAN_ENV, ChaosPlan(
            kill_shards=((0, 0),), delay_seconds=0.2).to_json())
        result = run_sampling(memory_golden, 40, seed=7, jobs=2,
                              policy=RetryPolicy(backoff=0.05))
        assert result == baseline
        assert result.execution.shard_retries >= 1


class TestHungWorker:
    def test_hung_shard_is_classified_timeout_not_a_stall(
            self, monkeypatch, memory_golden):
        """A worker that never returns must not hang the campaign: its
        shard's experiments come back as Outcome.TIMEOUT."""
        monkeypatch.setenv(PLAN_ENV,
                           ChaosPlan(hang_shards=((0, 0),)).to_json())
        result = run_full_scan(
            memory_golden, jobs=2,
            policy=RetryPolicy(shard_timeout=1.0, poll_interval=0.05))
        execution = result.execution
        assert execution.timed_out_shards == 1
        assert execution.synthesized_timeouts > 0
        assert execution.complete  # timeouts are results, not gaps
        assert any(outcome is Outcome.TIMEOUT
                   for outcomes in result.class_outcomes.values()
                   for outcome in outcomes)
        # Every class still has a full outcome tuple.
        assert len(result.class_outcomes) == execution.total_units

    def test_journaled_timeouts_are_not_rerun(self, monkeypatch,
                                              tmp_path, memory_golden):
        journal = tmp_path / "journal.sqlite"
        monkeypatch.setenv(PLAN_ENV,
                           ChaosPlan(hang_shards=((0, 0),)).to_json())
        first = run_full_scan(
            memory_golden, jobs=2, journal=journal,
            policy=RetryPolicy(shard_timeout=1.0, poll_interval=0.05))
        monkeypatch.delenv(PLAN_ENV)
        second = run_full_scan(memory_golden, jobs=2, journal=journal)
        assert second.execution.executed == 0
        assert second.class_outcomes == first.class_outcomes


class TestSigintMidClass:
    """^C in the middle of a class — between two of its per-bit
    experiments — must leave the journal with whole classes only."""

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_interrupt_between_bits_leaves_no_torn_class(
            self, domain, tmp_path, memory_golden, memory_baseline,
            register_golden, register_baseline):
        import sqlite3

        from repro.campaign import ExecutorConfig
        from repro.faultspace.domain import get_domain

        golden, baseline = _golden_and_baseline(
            domain, memory_golden, memory_baseline, register_golden,
            register_baseline)
        dom = get_domain(domain)
        journal = tmp_path / "journal.sqlite"
        executor = ExecutorConfig(domain=domain).build(golden)
        real_run = executor.run
        calls = 0
        # Die three experiments into the third class: the journal must
        # then hold classes 1 and 2 in full and nothing of class 3.
        limit = 2 * dom.bits + 3

        def run_then_sigint(coordinate):
            nonlocal calls
            calls += 1
            if calls > limit:
                raise KeyboardInterrupt
            return real_run(coordinate)

        executor.run = run_then_sigint
        with pytest.raises(KeyboardInterrupt):
            run_full_scan(golden, domain=domain, executor=executor,
                          journal=journal)
        with sqlite3.connect(journal) as conn:
            counts = conn.execute(
                "SELECT COUNT(*) FROM class_results "
                "GROUP BY campaign_id, axis, first_slot").fetchall()
        assert len(counts) == 2  # the torn third class was not journaled
        assert all(count == (dom.bits,) for count in counts)
        resumed = run_full_scan(golden, domain=domain, journal=journal,
                                keep_records=True)
        assert resumed == baseline
        assert resumed.records == baseline.records
        assert resumed.execution.resumed == 2
        assert resumed.execution.complete


class TestHeartbeat:
    def test_progress_heartbeats_while_a_shard_runs_long(
            self, monkeypatch, memory_golden):
        """During an idle wait the progress callback is re-invoked with
        unchanged counts, so a UI can prove the campaign is alive."""
        calls = []
        monkeypatch.setenv(PLAN_ENV, ChaosPlan(
            hang_shards=((0, 0),)).to_json())
        run_full_scan(
            memory_golden, jobs=2, progress=lambda d, t: calls.append(d),
            policy=RetryPolicy(shard_timeout=1.0, poll_interval=0.05,
                               heartbeat=0.1))
        # More progress invocations than work units -> heartbeats fired.
        assert len(calls) > len(set(calls))
