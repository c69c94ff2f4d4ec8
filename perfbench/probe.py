"""A machine-speed probe that runs beside the benchmark's reps.

The benchmark's host shares its cores with other tenants: how fast the
same code runs drifts by up to a third from minute to minute, on both
CPUs at once (see ``README.md``).  So while a run measures, this script
runs in a process of its own and times a fixed pure-Python kernel every
``PERIOD_S`` seconds, about 4% of one CPU.  A rep's wall time times
``REFERENCE_KERNEL_S`` over the mean kernel time during that rep is the
time the rep would have taken at the reference speed.  The kernel uses
nothing from ``repro``, so no change to the package can move it.

Each sample is timed on the probe's own CPU clock, so time it waits
for a CPU the package's workers hold does not count as slowness.
"""

from __future__ import annotations

import bisect
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Mean CPU seconds of one ``kernel()`` call at the reference speed: the
#: median over 134 reps (25 runs of all four workloads) of the mean
#: kernel time during the rep, on the 2-CPU VM of ``README.md``.
REFERENCE_KERNEL_S = 0.00214

#: Seconds from one sample's start to the next one's.
PERIOD_S = 0.05

_PROGRAM = [(i % 5, i % 16, (i * 7) % 16, (i * 13) % 97) for i in range(64)]


def kernel(steps: int = 8_000) -> int:
    """A small register-machine interpreter: dispatch on a tuple, word
    arithmetic, and list, dict and bytearray traffic, as in the
    package's own execution engines."""
    regs = [0] * 16
    ram = bytearray(128)
    seen = {}
    pc = acc = 0
    for _ in range(steps):
        op, a, b, c = _PROGRAM[pc]
        if op == 0:
            regs[a] = (regs[b] + c) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = (regs[b] ^ (regs[a] << 1)) & 0xFFFFFFFF
        elif op == 2:
            ram[c] = regs[a] & 0xFF
            seen[c] = pc
        elif op == 3:
            regs[b] = ram[c] + seen.get(c, a)
        else:
            acc += regs[a] & 0xFF
        pc = (pc + 1) & 63
    return acc


def sample_until_stdin_closes() -> None:
    """Print ``<perf_counter at start> <CPU seconds>`` per kernel call,
    one call per ``PERIOD_S``, until standard input reaches EOF (which
    it also does if the benchmark dies)."""
    while True:
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        print(f"{start:.6f} {cpu:.7f}", flush=True)
        wait = PERIOD_S - (time.perf_counter() - start)
        if select.select([sys.stdin], [], [], max(wait, 0.0))[0]:
            return


class SpeedProbe:
    """Runs this script beside a block of code, its samples going to the
    file ``log``; afterwards, ``factor(start, end)`` scales a time
    measured between the two ``time.perf_counter()`` readings to the
    reference speed: below 1 while the machine ran slower.

    ``time.perf_counter`` reads ``CLOCK_MONOTONIC``, which every process
    on the machine shares, so the probe's timestamps and the reps' can
    be compared.
    """

    def __init__(self, log: Path):
        self._log = log

    def __enter__(self):
        with self._log.open("w") as out:
            self._proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve())],
                stdin=subprocess.PIPE, stdout=out)
        return self

    def __exit__(self, *exc_info):
        self._proc.communicate()  # closes its stdin, then waits
        samples = [line.split() for line in self._log.read_text().splitlines()]
        self._starts = [float(start) for start, _ in samples]
        self._cpu = [float(cpu) for _, cpu in samples]
        if exc_info[0] is None and (self._proc.returncode or not samples):
            raise RuntimeError(f"speed probe exited {self._proc.returncode} "
                               f"after {len(samples)} samples")

    def factor(self, start: float, end: float) -> float:
        """The scale for ``[start, end]``; for the whole block if no
        sample started in between."""
        window = self._cpu[bisect.bisect_left(self._starts, start):
                           bisect.bisect_left(self._starts, end)]
        return REFERENCE_KERNEL_S / statistics.fmean(window or self._cpu)


if __name__ == "__main__":
    sample_until_stdin_closes()
