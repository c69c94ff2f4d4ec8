"""Journal crash-tolerance smoke: interrupt, kill, resume, verify.

Not a paper figure — this exercises the durable experiment journal the
way a real long campaign would hit it: a scan is interrupted partway
(and, separately, a worker process is killed mid-shard), then resumed
from the journal.  The resumed result must be bit-for-bit identical to
an uninterrupted run, and the resume must re-execute only the missing
work units.

Also reports the resume-time saving to ``output/journal_resume.txt``:
the fraction of experiments replayed from the journal is the fraction
of campaign wall-clock a crash no longer costs.
"""

import os
import time

from repro.campaign import RetryPolicy, record_golden, run_full_scan
from repro.campaign.dist.chaos import PLAN_ENV, ChaosPlan
from repro.programs import hi, sync2


def _program():
    if os.environ.get("REPRO_BENCH_JOURNAL_SCALE") == "full":
        return sync2.baseline(items=4)
    return hi.baseline()


class _Interrupt(Exception):
    pass


def test_interrupted_scan_resumes_bit_for_bit(tmp_path, output_dir):
    golden = record_golden(_program())
    baseline = run_full_scan(golden, keep_records=True)
    total = baseline.execution.total_units
    journal = tmp_path / "journal.sqlite"
    kill_after = max(1, total // 2)

    def bomb(done, _total):
        if done >= kill_after:
            raise _Interrupt

    start = time.perf_counter()
    try:
        run_full_scan(golden, journal=journal, keep_records=True,
                      progress=bomb)
        raise AssertionError("interrupt never fired")
    except _Interrupt:
        pass
    first_leg = time.perf_counter() - start

    start = time.perf_counter()
    resumed = run_full_scan(golden, journal=journal, keep_records=True)
    second_leg = time.perf_counter() - start

    assert resumed == baseline
    assert resumed.execution.resumed >= kill_after
    assert resumed.execution.executed \
        == total - resumed.execution.resumed

    lines = [
        "journal crash-tolerance smoke",
        "=============================",
        f"work units              {total}",
        f"interrupted after       {kill_after}",
        f"resumed from journal    {resumed.execution.resumed}",
        f"re-executed             {resumed.execution.executed}",
        f"first leg (crashed)     {first_leg:.3f} s",
        f"resume leg              {second_leg:.3f} s",
    ]
    (output_dir / "journal_resume.txt").write_text("\n".join(lines) + "\n")


def test_killed_worker_is_retried_and_result_unchanged(tmp_path):
    """SIGKILL a shard worker mid-campaign; retry must restore exactness."""
    golden = record_golden(_program())
    baseline = run_full_scan(golden, keep_records=True)
    os.environ[PLAN_ENV] = ChaosPlan(kill_shards=((0, 0),),
                                     delay_seconds=0.2).to_json()
    try:
        survived = run_full_scan(
            golden, jobs=2, keep_records=True,
            journal=tmp_path / "chaos.sqlite",
            policy=RetryPolicy(backoff=0.05))
    finally:
        del os.environ[PLAN_ENV]
    assert survived == baseline
    assert survived.execution.shard_retries >= 1
    assert survived.execution.complete
