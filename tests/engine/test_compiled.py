"""Differential tests: the template-JIT engine vs the interpreter oracle.

Every test here runs the same program (often with a fault injected)
on a plain :class:`~repro.isa.cpu.Machine` and on a
:class:`~repro.engine.compiled.CompiledMachine` and asserts *bit
identity* — registers, RAM, pc, cycle, serial output, detection log,
trap type/message/location, and the state digest the convergence
early-exit keys on.  The interpreter is deliberately simple; the JIT
is only allowed to be faster, never different.
"""

import itertools
import random

import pytest

from repro.engine import (
    BATCH,
    COMPILED,
    ENGINES,
    INTERP,
    get_engine,
)
from repro.engine.compiled import CompiledMachine, compile_program
from repro.isa import CPUException, Machine, assemble
from repro.programs import all_programs, micro


def final_state(machine):
    """Everything an experiment's classification can observe."""
    return {
        "pc": machine.pc,
        "cycle": machine.cycle,
        "halted": machine.halted,
        "diverged": machine.diverged,
        "regs": list(machine.regs),
        "ram": bytes(machine.ram),
        "serial": bytes(machine.serial),
        "detections": list(machine.detections),
        "digest": machine.state_digest(),
    }


def run_pair(program, limit, *, oracle=None, mutate=None):
    """Run interpreter and JIT side by side; return both observations.

    ``mutate(machine)`` applies the same fault to both machines before
    the run.  Trap identity (type, message, pc, cycle) is part of the
    observation.
    """
    results = []
    for cls in (Machine, CompiledMachine):
        machine = cls(program, oracle=oracle)
        if mutate is not None:
            mutate(machine)
        trap = None
        try:
            machine.run(limit)
        except CPUException as exc:
            trap = (type(exc).__name__, str(exc), exc.pc, exc.cycle)
        state = final_state(machine)
        state["trap"] = trap
        results.append(state)
    return results


def assert_identical(program, limit, *, oracle=None, mutate=None):
    interp, jit = run_pair(program, limit, oracle=oracle, mutate=mutate)
    assert interp == jit


PROGRAMS = all_programs()


class TestGoldenRuns:
    """Fault-free runs of every registry program are bit-identical."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_full_run(self, name):
        assert_identical(PROGRAMS[name](), 10_000_000)

    @pytest.mark.parametrize("name", ["hi", "bin_sem2", "checksum"])
    def test_budget_edges(self, name):
        """Partial budgets, including mid-block stops, agree exactly."""
        program = PROGRAMS[name]()
        reference = Machine(program)
        reference.run(10_000_000)
        total = reference.cycle
        limits = {0, 1, 2, 3, total - 1, total, total + 1,
                  total // 2, total // 3, total // 7}
        for limit in sorted(x for x in limits if x >= 0):
            assert_identical(program, limit)

    def test_resume_from_partial_budget(self):
        """run() in small slices lands on mid-block pcs constantly."""
        program = PROGRAMS["bin_sem2"]()
        interp, jit = Machine(program), CompiledMachine(program)
        step = 7
        while not interp.halted:
            interp.run(interp.cycle + step)
            jit.run(jit.cycle + step)
            assert final_state(interp) == final_state(jit)
            step = (step * 3) % 11 + 1
        assert jit.halted


class TestInjectedRuns:
    """Random fault injections classify identically on both engines."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_memory_faults(self, name):
        program = PROGRAMS[name]()
        golden = Machine(program)
        golden.run(10_000_000)
        total, serial = golden.cycle, bytes(golden.serial)
        rng = random.Random(f"mem:{name}")
        for _ in range(40):
            slot = rng.randrange(1, total + 1)
            addr = rng.randrange(program.ram_size)
            bit = rng.randrange(8)

            def mutate(machine, slot=slot, addr=addr, bit=bit):
                machine.run_to_cycle(slot - 1)
                if not machine.halted:
                    machine.flip_bit(addr, bit)

            assert_identical(program, 4 * total + 100,
                             oracle=serial, mutate=mutate)

    @pytest.mark.parametrize("name", ["hi", "sync2", "memcopy"])
    def test_register_faults(self, name):
        program = PROGRAMS[name]()
        golden = Machine(program)
        golden.run(10_000_000)
        total, serial = golden.cycle, bytes(golden.serial)
        rng = random.Random(f"reg:{name}")
        for _ in range(40):
            slot = rng.randrange(1, total + 1)
            reg = rng.randrange(1, 16)
            bit = rng.randrange(32)

            def mutate(machine, slot=slot, reg=reg, bit=bit):
                machine.run_to_cycle(slot - 1)
                if not machine.halted:
                    machine.flip_register_bit(reg, bit)

            assert_identical(program, 4 * total + 100,
                             oracle=serial, mutate=mutate)


class TestTrapIdentity:
    """Each trap class carries the interpreter's exact diagnostics."""

    def trap_of(self, source, *, ram_size=16):
        program = assemble(source, name="trap", ram_size=ram_size)
        interp, jit = run_pair(program, 1000)
        assert interp == jit
        assert interp["trap"] is not None
        return interp["trap"]

    def test_unaligned_load(self):
        name, message, _, _ = self.trap_of("""
            li r1, 2
            lw r2, 0(r1)
            halt
        """)
        assert name == "AlignmentFault"
        assert "unaligned 4-byte load" in message

    def test_out_of_bounds_store(self):
        name, message, _, _ = self.trap_of("""
            li r1, 64
            sw r1, 0(r1)
            halt
        """)
        assert name == "MemoryFault"
        assert "outside RAM" in message

    def test_negative_address(self):
        name, _, _, _ = self.trap_of("""
            li r1, 4
            sub r1, r0, r1
            lw r2, 0(r1)
            halt
        """)
        # -4 is 4-aligned, so this is a bounds fault, not alignment.
        assert name == "MemoryFault"

    def test_division_by_zero(self):
        name, message, _, _ = self.trap_of("""
            li r1, 7
            divu r2, r1, r0
            halt
        """)
        assert name == "ArithmeticTrap"
        assert "division by zero" in message

    def test_illegal_pc_via_jalr(self):
        name, message, _, _ = self.trap_of("""
            li r1, 4000
            jalr r2, 0(r1)
        """)
        assert name == "IllegalPC"
        assert "outside ROM" in message

    def test_trap_leaves_identical_machine_state(self):
        """pc/cycle after the trap (halted, un-incremented) agree."""
        program = assemble("""
            li r1, 3
            lh r2, 0(r1)
            halt
        """, name="trap-state", ram_size=8)
        interp, jit = run_pair(program, 1000)
        assert interp["trap"] == jit["trap"]
        assert interp["pc"] == jit["pc"]
        assert interp["cycle"] == jit["cycle"]
        assert interp["halted"] and jit["halted"]


class TestSnapshotInterop:
    """Snapshots are engine-independent: cross-restore round-trips."""

    def test_interp_snapshot_into_jit(self):
        program = PROGRAMS["bin_sem2"]()
        interp = Machine(program)
        interp.run(50)
        state = interp.snapshot()
        jit = CompiledMachine(program)
        jit.restore(state)
        assert final_state(jit) == final_state(interp)
        interp.run(10_000_000)
        jit.run(10_000_000)
        assert final_state(interp) == final_state(jit)

    def test_jit_snapshot_into_interp(self):
        program = PROGRAMS["checksum"]()
        jit = CompiledMachine(program)
        jit.run(33)
        interp = Machine(program)
        interp.restore(jit.snapshot())
        interp.run(10_000_000)
        jit.run(10_000_000)
        assert final_state(interp) == final_state(jit)

    def test_restore_rebuilds_ram_views(self):
        """restore() swaps the RAM buffer; the JIT's views must follow."""
        program = PROGRAMS["memcopy"]()
        jit = CompiledMachine(program)
        jit.run(10)
        state = jit.snapshot()
        jit.run(10_000_000)
        jit.restore(state)
        jit.flip_bit(0, 0)
        ref = Machine(program)
        ref.restore(state)
        ref.flip_bit(0, 0)
        jit.run(10_000_000)
        ref.run(10_000_000)
        assert final_state(jit) == final_state(ref)

    def test_reset_rebuilds_ram_views(self):
        program = PROGRAMS["hi"]()
        jit = CompiledMachine(program)
        jit.run(10_000_000)
        jit.reset()
        ref = Machine(program)
        jit.run(10_000_000)
        ref.run(10_000_000)
        assert final_state(jit) == final_state(ref)


class TestOracleDivergence:
    def test_divergent_output_stops_both_engines(self):
        program = PROGRAMS["hi"]()
        golden = Machine(program)
        golden.run(10_000)
        serial = bytes(golden.serial)
        assert serial  # hi must print something

        def mutate(machine):
            # Corrupt the byte the first OUT will read.
            machine.flip_register_bit(1, 0) \
                if machine.regs[1] else machine.flip_bit(0, 0)

        interp, jit = run_pair(program, 10_000, oracle=serial,
                               mutate=mutate)
        assert interp == jit

    def test_tracing_falls_back_to_interpreter(self):
        """A tracer disables the JIT path but not correctness."""
        from repro.isa import MemoryTrace

        program = PROGRAMS["memcopy"]()
        interp = Machine(program, tracer=MemoryTrace())
        jit = CompiledMachine(program, tracer=MemoryTrace())
        interp.run(10_000_000)
        jit.run(10_000_000)
        assert final_state(interp) == final_state(jit)
        assert interp.tracer.events == jit.tracer.events


class TestRunToBoundary:
    """The convergence probes' block-boundary advance.

    After every stop the machine must equal an interpreter run to the
    same cycle; where it stops is the only freedom it has.
    """

    def walk(self, program, gaps, *, slack=None):
        """Advance by ``gaps`` (cycled) to the end; yield each stop as
        ``(start, target, limit, machine)`` after checking it against
        the interpreter."""
        jit, ref = CompiledMachine(program), Machine(program)
        gaps = itertools.cycle(gaps)
        while not jit.halted:
            start = jit.cycle
            target = start + next(gaps)
            limit = None if slack is None else target + slack
            jit.run_to_boundary(target, limit)
            assert jit.cycle > start or jit.halted  # progress
            ref.run_to_cycle(jit.cycle)
            if jit.halted:
                ref.run_to_cycle(10_000_000)
            assert final_state(jit) == final_state(ref)
            yield start, target, limit, jit

    @pytest.mark.parametrize("name", ["bin_sem2", "checksum", "sync2"])
    def test_stops_at_leaders_at_or_before_target(self, name):
        program = PROGRAMS[name]()
        leaders = compile_program(program).leaders
        early = 0
        for _, target, _, jit in self.walk(program, (1, 5, 16, 64, 3)):
            if jit.halted:
                break
            assert jit.cycle == target or (
                jit.pc in leaders and jit.cycle < target)
            early += jit.cycle < target
        assert early  # whole blocks, not exact cycles, were the rule

    @pytest.mark.parametrize("name", ["bin_sem2", "sync2"])
    def test_limit_lets_one_block_overrun(self, name):
        """With room past the target, a block too long for the gap runs
        whole: the stop is still a leader, one block past the start."""
        program = PROGRAMS[name]()
        code = compile_program(program)
        leaders = code.leaders
        overruns = 0
        pc = program.entry
        for start, target, limit, jit in self.walk(program, (1, 2),
                                                   slack=1000):
            if jit.halted:
                break
            assert jit.pc in leaders or jit.cycle == target
            if jit.cycle > target:
                assert pc in leaders
                assert jit.cycle == start + code.tails[pc] <= limit
                overruns += 1
            pc = jit.pc
        assert overruns

    def test_halt_divergence_and_traps_match_run_to_cycle(self):
        """Run to the end by boundary stops: the post-state (and trap)
        is the interpreter's, also when an overrunning block ends it."""
        hi = PROGRAMS["hi"]()
        golden = Machine(hi)
        golden.run(10_000)
        wrong = bytes([golden.serial[0] ^ 1]) + bytes(golden.serial[1:])
        cases = [(hi, None), (PROGRAMS["sync2"](), None), (hi, wrong)]
        for source in ("li r1, 2\nlw r2, 0(r1)\nhalt",
                       "li r1, 7\ndivu r2, r1, r0\nhalt",
                       "li r1, 4000\njalr r2, 0(r1)"):
            cases.append((assemble(source, name="trap", ram_size=16), None))

        def observe(machine, advance):
            trap = None
            try:
                while not machine.halted:
                    advance(machine)
            except CPUException as exc:
                trap = (type(exc).__name__, str(exc), exc.pc, exc.cycle)
            return trap, final_state(machine)

        for program, oracle in cases:
            reference = observe(Machine(program, oracle=oracle),
                                lambda m: m.run_to_cycle(10_000))
            assert reference[1]["halted"]
            for gap, limit in ((1, 10_000), (3, None), (10_000, None)):
                assert observe(
                    CompiledMachine(program, oracle=oracle),
                    lambda m: m.run_to_boundary(m.cycle + gap, limit),
                ) == reference, (program.name, gap)

    def test_armed_stuck_at_latch_takes_the_exact_path(self):
        """Generated stores bypass the latch's release hook, so an armed
        latch hands the call to :meth:`run_to_cycle` (which steps the
        interpreter until the releasing store)."""
        program = PROGRAMS["sync2"]()
        jit, ref = CompiledMachine(program), Machine(program)
        for machine in (jit, ref):
            machine.run_to_cycle(10)
            machine.stuck_at(0, 0, 1)
        exact = []

        def run_to_cycle(target):
            exact.append(target)
            CompiledMachine.run_to_cycle(jit, target)
        jit.run_to_cycle = run_to_cycle
        jit.run_to_boundary(200, 10_000)
        ref.run_to_cycle(200)
        assert exact == [200]
        assert final_state(jit) == final_state(ref)


class TestEngineRegistry:
    def test_get_engine_by_name(self):
        assert get_engine("interp") is INTERP
        assert get_engine("compiled") is COMPILED
        assert get_engine("batch") is BATCH

    def test_default_is_compiled(self):
        assert get_engine(None) is COMPILED

    def test_instance_passthrough(self):
        assert get_engine(INTERP) is INTERP

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("turbo")

    def test_registry_names_match(self):
        for name, engine in ENGINES.items():
            assert engine.name == name

    def test_create_machine_types(self):
        program = micro.counter(1)
        assert type(INTERP.create_machine(program)) is Machine
        assert isinstance(COMPILED.create_machine(program),
                          CompiledMachine)
        assert BATCH.batch and not COMPILED.batch

    def test_compile_program_covers_rom(self):
        code = compile_program(PROGRAMS["sync2"]())
        if code is not None:  # None only on big-endian hosts
            assert 0 in code.leaders
            assert "def _jit(M, limit):" in code.source
