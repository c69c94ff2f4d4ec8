"""Convergence early-exit: exactness, compatibility, and the ladder.

The whole optimization is only admissible because it is outcome-
invariant: with ``use_convergence`` on or off, every campaign —
pruned scan, brute force, sampling; serial or parallel; fresh or
resumed from a killed journal — must produce *identical* results and
byte-identical CSV exports.  The tests here enforce that contract on
small programs where the off-side ground truth is cheap; the
benchmarks check it again at figure scale.
"""

import dataclasses

import pytest

from repro.campaign import (
    ExecutorConfig,
    Outcome,
    export_class_results_csv,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign.experiment import ExperimentExecutor
from repro.campaign.golden import MAX_CHECKPOINTS
from repro.engine.compiled import CompiledMachine
from repro.isa import Machine, assemble
from repro.programs import hi, micro, sync2

ON = ExecutorConfig(use_convergence=True)
OFF = ExecutorConfig(use_convergence=False)

FACTORIES = {
    "counter": lambda: micro.counter(3),
    "memcopy": lambda: micro.memcopy(4),
    "hi": hi.baseline,
}


@pytest.fixture(scope="module", params=sorted(FACTORIES))
def golden(request):
    return record_golden(FACTORIES[request.param]())


class TestOutcomeInvariance:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_full_scan_equal_results_and_csv(self, golden, domain,
                                             tmp_path):
        on = run_full_scan(golden, domain=domain, config=ON,
                           keep_records=True)
        off = run_full_scan(golden, domain=domain, config=OFF,
                            keep_records=True)
        assert on == off
        on_csv, off_csv = tmp_path / "on.csv", tmp_path / "off.csv"
        export_class_results_csv(on, on_csv)
        export_class_results_csv(off, off_csv)
        assert on_csv.read_bytes() == off_csv.read_bytes()
        # The off side must never touch the convergence machinery.
        assert off.execution.convergence_hits == 0
        assert off.execution.slice_hits == 0

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_brute_force_equal(self, golden, domain):
        on = run_brute_force(golden, domain=domain, config=ON)
        off = run_brute_force(golden, domain=domain, config=OFF)
        assert on == off

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_sampling_equal(self, golden, domain):
        on = run_sampling(golden, 60, seed=7, domain=domain, config=ON)
        off = run_sampling(golden, 60, seed=7, domain=domain,
                           config=OFF)
        assert on == off

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_engine_equal(self, golden, jobs):
        serial_off = run_full_scan(golden, config=OFF)
        parallel_on = run_full_scan(golden, config=ON, jobs=jobs)
        assert parallel_on == serial_off

    def test_the_early_exits_actually_fire(self):
        """Guard against silently disabled machinery.  The pruned scan
        only visits live-class representatives, so ladder hits show up
        there; the criticality pre-skip pays off on the coordinates a
        brute-force campaign injects blindly."""
        golden = record_golden(hi.baseline())
        scan = run_full_scan(golden, domain="register", config=ON)
        assert scan.execution.convergence_hits > 0
        brute = run_brute_force(golden, domain="register", config=ON)
        assert brute.execution.slice_hits > 0


def scan_on_off(golden, domain, **config):
    """Full scans with convergence on and off, records kept."""
    return [run_full_scan(golden, domain=domain, keep_records=True,
                          config=ExecutorConfig(use_convergence=conv,
                                                **config))
            for conv in (True, False)]


def assert_same_scan(on, off, tmp_path):
    """Equal results (records included) and byte-identical CSVs."""
    assert on == off
    on_csv, off_csv = tmp_path / "on.csv", tmp_path / "off.csv"
    export_class_results_csv(on, on_csv)
    export_class_results_csv(off, off_csv)
    assert on_csv.read_bytes() == off_csv.read_bytes()


@pytest.fixture(scope="module")
def hardened():
    """SUM+DMR sync2: 1,130 cycles, long enough for the compiled tier's
    first probe gap to reach its cap and for probes to stop at block
    boundaries rather than on exact cycles."""
    return record_golden(sync2.hardened(1))


@pytest.fixture(scope="module")
def hardened_off(hardened):
    """Convergence-off reference scans of :func:`hardened`, per domain.

    Run on the compiled engine; the engine-equivalence suite holds it
    bit-identical to the interpreter.
    """
    cache = {}

    def scan(domain):
        if domain not in cache:
            cache[domain] = run_full_scan(
                hardened, domain=domain, keep_records=True,
                config=ExecutorConfig(use_convergence=False,
                                      engine="compiled"))
        return cache[domain]
    return scan


class TestProbeScheduleExactness:
    """On/off equality where the compiled-tier probe schedule runs.

    Records are kept, so every experiment's end cycle and trap are
    compared, not only its outcome.
    """

    @pytest.fixture
    def boundary_stops(self, monkeypatch):
        """Count probe advances that stopped short of their target."""
        stops = {"calls": 0, "short": 0}
        advance = CompiledMachine.run_to_boundary

        def spy(machine, target, limit=None):
            advance(machine, target, limit)
            stops["calls"] += 1
            stops["short"] += machine.cycle != target
        monkeypatch.setattr(CompiledMachine, "run_to_boundary", spy)
        return stops

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_full_scan_equal(self, hardened, hardened_off, domain,
                             engine, boundary_stops, tmp_path):
        on = run_full_scan(hardened, domain=domain, keep_records=True,
                           config=ExecutorConfig(engine=engine))
        assert_same_scan(on, hardened_off(domain), tmp_path)
        assert on.execution.convergence_hits > 0
        if engine == "compiled":
            assert boundary_stops["short"] > 0
        else:
            # The interpreter keeps its dense, exact-cycle schedule.
            assert boundary_stops["calls"] == 0

    def test_stuck_at_scan_equal(self, boundary_stops, tmp_path):
        """An armed latch pins probes to exact cycles until the
        releasing store; after it the boundary schedule takes over.
        (Baseline sync2: a hardened stuck-at scan takes ~10 s.)"""
        golden = record_golden(sync2.baseline(1))
        on, off = scan_on_off(golden, "stuck", engine="compiled")
        assert_same_scan(on, off, tmp_path)
        assert on.execution.convergence_hits > 0
        assert boundary_stops["short"] > 0

    def test_probes_never_overrun_the_cycle_budget(self, tmp_path):
        """A probe may run one whole block past its target, but never
        past the timeout budget: here the budget ends inside a 22-cycle
        loop body that register faults on the counter keep spinning."""
        body = "\n".join("        addi r1, r1, 1" for _ in range(20))
        program = assemble(f"""\
        .text
start:  li   r3, 6
loop:
{body}
        addi r3, r3, -1
        bnez r3, loop
        halt
""", name="longblock", ram_size=4)
        golden = record_golden(program)
        on, off = scan_on_off(golden, "register", engine="compiled",
                              timeout_factor=1.0, timeout_slack=10)
        assert_same_scan(on, off, tmp_path)
        assert any(record.outcome is Outcome.TIMEOUT
                   for record in on.records)


class TestJournalCompatibility:
    def test_convergence_flag_does_not_fork_the_journal_key(
            self, tmp_path):
        """A campaign journaled with convergence off finishes with it on
        (and vice versa): the flag is outcome-invariant, so it is not
        part of the campaign identity and resume crosses it freely."""
        golden = record_golden(micro.memcopy(4))
        baseline = run_full_scan(golden, config=OFF)

        class Interrupt(Exception):
            pass

        def die_after(n):
            def callback(done, total):
                if done >= n:
                    raise Interrupt
            return callback

        for first, second in [(OFF, ON), (ON, OFF)]:
            journal = tmp_path / f"{id(first)}.sqlite"
            with pytest.raises(Interrupt):
                run_full_scan(golden, config=first, journal=journal,
                              progress=die_after(3))
            resumed = run_full_scan(golden, config=second,
                                    journal=journal)
            assert resumed == baseline
            assert resumed.execution.resumed == 3


class TestOldGoldenCompatibility:
    """Golden runs unpickled from pre-ladder versions default both the
    ladder and the pc trace to ``None``; the executor must degrade to
    plain execution, not crash."""

    def test_missing_checkpoints_degrade_gracefully(self):
        golden = record_golden(micro.counter(3))
        stripped = dataclasses.replace(golden, checkpoints=None)
        on = run_full_scan(stripped, config=ON)
        off = run_full_scan(golden, config=OFF)
        # The goldens differ by construction (one has no ladder), so
        # compare the campaign payloads rather than whole results.
        assert on.class_outcomes == off.class_outcomes
        assert on.weighted_counts() == off.weighted_counts()

    def test_missing_pc_trace_degrades_gracefully(self):
        golden = record_golden(micro.counter(3))
        stripped = dataclasses.replace(golden, pc_trace=None,
                                       checkpoints=None)
        on = run_full_scan(stripped, config=ON)
        off = run_full_scan(golden, config=OFF)
        assert on.class_outcomes == off.class_outcomes
        assert on.weighted_counts() == off.weighted_counts()


class TestCheckpointLadder:
    def test_explicit_stride_is_honoured(self):
        golden = record_golden(micro.counter(5), checkpoint_stride=7)
        ladder = golden.checkpoints
        assert ladder.stride == 7
        # The halted state is never a rung (nothing can converge onto
        # it usefully), so only strictly-interior multiples count.
        assert len(ladder.digests) == (golden.cycles - 1) // 7

    def test_stride_zero_disables_the_ladder(self):
        golden = record_golden(micro.counter(3), checkpoint_stride=0)
        assert golden.checkpoints is None
        result = run_full_scan(golden, config=ON)
        # No ladder: zero convergence hits, but outcomes still exact.
        assert result.execution.convergence_hits == 0
        reference = run_full_scan(record_golden(micro.counter(3)),
                                  config=OFF)
        assert result.class_outcomes == reference.class_outcomes
        assert result.weighted_counts() == reference.weighted_counts()

    def test_auto_stride_is_dense_for_short_runs(self):
        golden = record_golden(micro.counter(3))
        assert golden.checkpoints.stride == 1
        assert len(golden.checkpoints.digests) == golden.cycles - 1

    def test_auto_stride_decimates_past_the_cap(self):
        """A run longer than MAX_CHECKPOINTS cycles doubles the stride
        and thins the rungs already taken; every surviving rung still
        matches a replayed golden state digest."""
        iterations = MAX_CHECKPOINTS // 5 + 200
        source = f"""\
        .data
v:      .word 0
        .text
start:  li   r3, {iterations}
loop:   lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        addi r3, r3, -1
        bnez r3, loop
        halt
"""
        program = assemble(source, name="longloop", ram_size=4)
        golden = record_golden(program)
        ladder = golden.checkpoints
        assert golden.cycles > MAX_CHECKPOINTS
        assert ladder.stride == 2
        assert len(ladder.digests) <= MAX_CHECKPOINTS
        # Spot-check rungs against a fresh replay.
        for index in (0, len(ladder.digests) // 2,
                      len(ladder.digests) - 1):
            cycle = (index + 1) * ladder.stride
            machine = Machine(program)
            machine.run_to_cycle(cycle)
            assert machine.state_digest() == ladder.digests[index], index

    def test_lookup_is_injective(self):
        golden = record_golden(micro.memcopy(4))
        ladder = golden.checkpoints
        assert len(ladder.lookup()) == len(ladder.digests)


class TestMaskedProbe:
    def test_unobservable_probe_agrees_with_criticality(self):
        """The masked-probe helper is exactly a criticality query one
        cycle past convergence — spot-check it against the slice."""
        from repro.faultspace import backward_slice, get_domain
        golden = record_golden(hi.baseline())
        domain = get_domain("memory")
        executor = ExperimentExecutor(golden, domain=domain)
        crit = backward_slice(golden)
        space = domain.fault_space(golden)
        for slot in (1, golden.cycles // 2):
            for coordinate in domain.slot_coordinates(space, slot):
                expected = not domain.cell_critical(
                    crit, domain.coordinate(
                        slot + 1, domain.coordinate_axis(coordinate),
                        coordinate.bit))
                assert executor._cell_unobservable_after(
                    coordinate, slot) == expected
