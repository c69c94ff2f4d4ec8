"""Self-hosting chaos: the fabric under its own fault injector.

The distributed fabric's contract is that transport faults can delay a
campaign but never skew it.  These tests turn the repository's fault
injector on the fabric itself: a seeded :class:`ChaosPlan` drops,
duplicates, corrupts and delays result frames through the deterministic
proxy, and every surviving campaign must match the serial ground truth
bit for bit — with the degradation (if any) exactly reflected in the
completeness report.  The nastier layers ride on top: a worker whose
frames arrive corrupted (CRC-detectable), a byzantine worker that lies
with a valid CRC (only cross-check sampling can catch it), and a
poisoned class key that kills every worker that touches it (hunted down
by shard bisection).
"""

import warnings

import pytest

from repro.campaign import RetryPolicy, record_golden, run_full_scan
from repro.campaign.dist import (
    DistCoordinator,
    SupervisionPolicy,
    WorkerChaos,
    result_digest,
)
from repro.campaign.dist.chaos import (
    PLAN_ENV,
    ChaosInterrupt,
    ChaosPlan,
    plan_from_env,
    plan_from_spec,
)
from repro.campaign.dist.coordinator import serve_in_thread
from repro.programs import micro

from .test_dist import POLICY, _server_socket, _start_worker, run_dist

#: Chaos soaks retry far past the default budget: the injector *wants*
#: to burn attempts, and the invariant under test is correctness, not
#: retry frugality.
SOAK_POLICY = RetryPolicy(heartbeat=0.3, poll_interval=0.02, backoff=0.05,
                          max_retries=12)

#: Rates for the differential soak: every event class that cannot lie
#: (drops, dups, CRC-detectable corruption, delays) fires often enough
#: that a few dozen result frames see several of each.
SOAK_RATES = dict(drop_rate=0.12, dup_rate=0.15, corrupt_rate=0.08,
                  delay_rate=0.10, delay_seconds=0.005)

#: Supervision tuned for soaks: chaos charges failures constantly, so
#: the breaker threshold is parked high — quarantine behaviour has its
#: own tests below.
SOAK_SUPERVISION = SupervisionPolicy(failure_threshold=100.0,
                                     crosscheck_patience=30.0)


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


@pytest.fixture(scope="module")
def register_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True,
                         domain="register")


def assert_soak_invariant(result, baseline):
    """The chaos-soak acceptance bar, shared by every scenario.

    Every class the campaign *did* complete matches the serial ground
    truth exactly; every planned class is either present or accounted
    for in ``execution.missing``; and a complete campaign is
    bit-for-bit identical to the clean run.
    """
    base = baseline.class_outcomes
    for key, outcomes in result.class_outcomes.items():
        assert outcomes == base[key], f"class {key} diverged under chaos"
    present = set(result.class_outcomes)
    missing = {tuple(key) for key in result.execution.missing}
    assert present | missing == set(base)
    assert not (present & missing)
    if result.execution.complete:
        assert result == baseline
        assert result.records == baseline.records
    else:
        assert missing
        assert 0.0 < result.execution.completeness < 1.0


class TestChaosPlanUnits:
    def test_json_round_trip_is_exact(self):
        plan = ChaosPlan(seed=42, drop_rate=0.1, dup_rate=0.2,
                         corrupt_rate=0.05, lie_rate=0.3,
                         liars=("w1",), die_on_keys=((3, 7),),
                         stop_coordinator_after=9)
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos plan field"):
            ChaosPlan.from_dict({"seed": 1, "explode_rate": 1.0})

    def test_inactive_plan(self):
        assert not ChaosPlan(seed=5).active
        assert ChaosPlan(seed=5, drop_rate=0.01).active
        assert ChaosPlan(die_on_keys=((0, 1),)).active
        assert ChaosPlan(die_after_results=0).active

    def test_counter_dict_maps_to_plan_fields(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = plan_from_spec({"die_after_results": 2,
                                   "duplicate_results": 3})
        assert plan.die_after_results == 2
        assert plan.duplicate_results == 3
        assert plan.active

    def test_plan_and_none_pass_through(self):
        plan = ChaosPlan(seed=1, drop_rate=0.5)
        assert plan_from_spec(plan) is plan
        assert plan_from_spec(None) is None
        assert plan_from_spec({}) is None
        with pytest.raises(TypeError, match="dict or ChaosPlan"):
            plan_from_spec("drop everything")

    def test_plan_env_round_trips(self):
        plan = ChaosPlan(seed=3, drop_rate=0.5,
                         kill_shards=((0, 1),), hang_shards=((2, 0),))
        assert plan_from_env({PLAN_ENV: plan.to_json()}) == plan
        assert plan_from_env({}) is None


class TestChaosDeterminism:
    def test_events_are_pure_in_seed_worker_index(self):
        plan = ChaosPlan(seed=11, drop_rate=0.3, dup_rate=0.3,
                         corrupt_rate=0.3, delay_rate=0.3)
        first = WorkerChaos(plan, "w0")
        second = WorkerChaos(plan, "w0")
        schedule = [first.events_for(i) for i in range(200)]
        assert schedule == [second.events_for(i) for i in range(200)]
        # ...and the schedule is not degenerate: something fires.
        assert any(schedule)

    def test_distinct_seeds_and_workers_decorrelate(self):
        base = ChaosPlan(seed=11, drop_rate=0.5, dup_rate=0.5)
        w0 = [WorkerChaos(base, "w0").events_for(i) for i in range(200)]
        other_worker = [WorkerChaos(base, "w1").events_for(i)
                        for i in range(200)]
        other_seed = [
            WorkerChaos(ChaosPlan(seed=12, drop_rate=0.5, dup_rate=0.5),
                        "w0").events_for(i) for i in range(200)]
        assert w0 != other_worker
        assert w0 != other_seed

    def test_at_most_one_tamper_and_one_fatal_event(self):
        plan = ChaosPlan(seed=2, corrupt_rate=1.0, lie_rate=1.0,
                         drop_rate=1.0, kill_rate=1.0)
        events = WorkerChaos(plan, "w0").events_for(0)
        assert "corrupt" in events and "lie" not in events
        assert "drop" in events and "kill" not in events

    def test_liars_gate_the_lie_event(self):
        plan = ChaosPlan(seed=2, lie_rate=1.0, liars=("evil",))
        assert "lie" in WorkerChaos(plan, "evil").events_for(0)
        assert "lie" not in WorkerChaos(plan, "honest").events_for(0)

    def test_tampered_changes_payload_and_digest(self):
        chaos = WorkerChaos(ChaosPlan(seed=1), "w0")
        message = {"type": "result", "key": [0, 1],
                   "rows": [[0, "none", 10, ""], [1, "sdc", 12, ""]]}
        tampered = chaos.tampered(message, 0)
        assert tampered["rows"] != message["rows"]
        assert tampered == chaos.tampered(message, 0)  # deterministic
        assert result_digest((0, 1), tampered["rows"]) \
            != result_digest((0, 1), message["rows"])

    def test_die_on_keys_raises_connection_error(self):
        chaos = WorkerChaos(ChaosPlan(die_on_keys=((4, 2),)), "w0")
        chaos.before_class((0, 1))  # unpoisoned: no-op
        with pytest.raises(ChaosInterrupt):
            chaos.before_class((4, 2))
        assert chaos.fired["die_on_key"] == 1
        assert isinstance(ChaosInterrupt("x"), ConnectionError)


class TestChaosSoak:
    """The issue's acceptance invariant, over fixed seeds and domains."""

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_memory_soak_matches_serial(self, seed, memory_golden,
                                        memory_baseline):
        plan = ChaosPlan(seed=seed, **SOAK_RATES)
        result, _, spawned = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=SOAK_POLICY, crosscheck=0.25,
            supervision=SOAK_SUPERVISION)
        assert not any(errors for _, _, errors in spawned)
        assert_soak_invariant(result, memory_baseline)
        assert result.execution.complete

    def test_register_soak_matches_serial(self, memory_golden,
                                          register_baseline):
        plan = ChaosPlan(seed=7, **SOAK_RATES)
        result, _, _ = run_dist(
            memory_golden, workers=2, domain="register",
            worker_chaos=[plan, plan], policy=SOAK_POLICY,
            crosscheck=0.25, supervision=SOAK_SUPERVISION)
        assert_soak_invariant(result, register_baseline)
        assert result.execution.complete

    def test_chaos_telemetry_records_what_fired(self, memory_golden,
                                                memory_baseline):
        plan = ChaosPlan(seed=7, **SOAK_RATES)
        _, _, spawned = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=SOAK_POLICY, supervision=SOAK_SUPERVISION)
        fired = {}
        for worker, _, _ in spawned:
            for name, count in worker._chaos.fired.items():
                fired[name] = fired.get(name, 0) + count
        assert fired, "a soak that injected nothing proves nothing"

    def test_coordinator_crash_scheduled_by_the_plan(
            self, tmp_path, memory_golden, memory_baseline):
        """``stop_coordinator_after`` is the coordinator-side chaos
        event: the plan, not an ad-hoc test hook, schedules the crash,
        and a restart on the same journal completes bit-for-bit."""
        journal = tmp_path / "chaos.sqlite"
        sock = _server_socket()
        port = sock.getsockname()[1]
        first = DistCoordinator(
            memory_golden, sock=sock, shards=4, policy=POLICY,
            journal=journal, chaos=ChaosPlan(stop_coordinator_after=4))
        thread = serve_in_thread(first)
        _, worker_thread, errors = _start_worker(port, "w0")
        assert thread.join_result(60) is None  # the scheduled crash
        assert first.stopped
        import socket as socket_mod
        sock2 = socket_mod.create_server(("127.0.0.1", port))
        second = DistCoordinator(memory_golden, sock=sock2, shards=4,
                                 policy=POLICY, journal=journal,
                                 keep_records=True)
        result = serve_in_thread(second).join_result(60)
        worker_thread.join(10)
        assert not errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 4


class TestIntegrity:
    def test_corrupting_worker_is_caught_by_crc(self, memory_golden,
                                                memory_baseline):
        """Every frame from one worker is tampered after digesting (a
        broken NIC, in effect): the CRC check refuses them all, the
        supervisor quarantines the worker, the honest peer finishes."""
        corrupt = ChaosPlan(seed=3, corrupt_rate=1.0)
        result, coordinator, _ = run_dist(
            memory_golden, workers=2, worker_chaos=[corrupt, None],
            policy=SOAK_POLICY,
            supervision=SupervisionPolicy(quarantine_seconds=0.2,
                                          max_quarantine_seconds=1.0))
        execution = result.execution
        assert execution.integrity_rejected > 0
        assert "w0" in execution.quarantined_workers
        assert_soak_invariant(result, memory_baseline)
        assert execution.complete
        # Not one corrupted frame was merged: the corrupter earned no
        # attribution at all.
        assert all(name != "w0" for name, _ in execution.workers)

    def test_byzantine_worker_is_outvoted_and_contained(
            self, tmp_path, memory_golden, memory_baseline):
        """The hardest case in the issue: a worker that lies *with a
        valid CRC*.  Cross-check sampling re-executes its keys on a
        second worker, the mismatch re-queues the key for a third
        independent execution, the vote convicts the liar, its entire
        unverified history is discarded and re-executed — and the
        campaign still converges to the exact serial counts."""
        from repro.campaign.journal import ExperimentJournal

        journal = tmp_path / "byzantine.sqlite"
        lie = ChaosPlan(seed=5, lie_rate=1.0, liars=("w0",))
        result, coordinator, _ = run_dist(
            memory_golden, workers=3, worker_chaos=[lie, lie, lie],
            policy=SOAK_POLICY, crosscheck=1.0, journal=journal,
            supervision=SupervisionPolicy(quarantine_seconds=0.2,
                                          exclusion_seconds=0.5,
                                          crosscheck_patience=30.0),
            worker_kw={"max_reconnects": 20})
        execution = result.execution
        assert execution.crosschecked > 0
        assert execution.crosscheck_mismatches > 0
        assert "w0" in execution.quarantined_workers
        state = coordinator.supervisor.state("w0")
        assert state.permanent, "a convicted liar must never rejoin"
        assert execution.discarded_results > 0
        assert_soak_invariant(result, memory_baseline)
        assert execution.complete
        # The journal's event log names the conviction.
        with ExperimentJournal(journal) as log:
            (entry,) = log.fabric_report()
        kinds = {event["kind"] for event in entry["events"]}
        assert "byzantine" in kinds
        assert "crosscheck-mismatch" in kinds

    def test_crosscheck_without_liars_confirms_everything(
            self, memory_golden, memory_baseline):
        result, _, _ = run_dist(
            memory_golden, workers=2, policy=POLICY, crosscheck=1.0,
            supervision=SupervisionPolicy(crosscheck_patience=30.0))
        execution = result.execution
        assert execution.crosschecked == execution.total_units
        assert execution.crosscheck_mismatches == 0
        assert execution.discarded_results == 0
        assert result == memory_baseline
        assert result.records == memory_baseline.records


class TestPoisonShard:
    def test_poison_key_is_bisected_down_and_isolated(
            self, tmp_path, memory_golden, memory_baseline):
        """One class key kills every worker that tries to execute it
        (a wild pointer in a simulator build, say).  The lease board
        bisects the dying shard until the key stands alone, declares it
        poisonous, and the campaign degrades by exactly that key."""
        from repro.campaign.journal import ExperimentJournal

        journal = tmp_path / "poison.sqlite"
        keys = sorted(memory_baseline.class_outcomes)
        poison = keys[len(keys) // 2]
        plan = ChaosPlan(die_on_keys=(poison,))
        # One big shard puts keys *behind* the poisoned one, so the
        # hunt must actually bisect to isolate it.
        result, _, _ = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            journal=journal, shards=1,
            policy=RetryPolicy(heartbeat=0.3, poll_interval=0.02,
                               backoff=0.05, max_retries=20),
            supervision=SupervisionPolicy(failure_threshold=100.0))
        execution = result.execution
        assert tuple(poison) in {tuple(k) for k in execution.poison_keys}
        assert execution.poison_splits >= 1
        assert not execution.complete
        missing = {tuple(k) for k in execution.missing}
        assert tuple(poison) in missing
        # Everything *except* the poisoned key completed, exactly.
        assert set(result.class_outcomes) == set(keys) - missing
        assert_soak_invariant(result, memory_baseline)
        with ExperimentJournal(journal) as log:
            (entry,) = log.fabric_report()
        kinds = {event["kind"] for event in entry["events"]}
        assert "poison-key" in kinds
