"""Torn-write recovery: corrupt journals salvage instead of dying.

A power cut mid-checkpoint, a truncated ``scp``, a bad sector — any of
them can leave the campaign journal failing SQLite's ``quick_check``.
The contract under test: opening such a file raises a loud
:class:`JournalCorruptError` by default, ``salvage=True`` rebuilds a
fresh journal from every row that is still readable (moving the
original aside as forensic evidence), and every resuming layer —
serial, pool, distributed — validates recovered classes against the
domain's expected experiment weights instead of trusting them blindly,
so a half-lost class is re-executed, never merged.
"""

import sqlite3

import pytest

from repro.campaign import record_golden, run_brute_force, run_full_scan
from repro.campaign.journal import (
    SALVAGE_TABLES,
    ExperimentJournal,
    JournalCorruptError,
    SalvageReport,
    invalid_classes,
    salvage_journal,
)
from repro.programs import hi, micro

from .test_dist import run_dist


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


def journal_with_campaign(tmp_path, golden):
    """A closed on-disk journal holding one complete campaign."""
    path = tmp_path / "campaign.sqlite"
    run_full_scan(golden, journal=path)
    return path


def corrupt_pages(path, *, start=4096, length=8192):
    """Zero out interior pages, the shape real torn writes take."""
    size = path.stat().st_size
    assert size > start + length, "journal too small for this corruption"
    with open(path, "r+b") as handle:
        handle.seek(start)
        handle.write(b"\x00" * length)


class TestSalvageTablesInSync:
    def test_salvage_covers_every_schema_table(self, tmp_path):
        """Every table the schema creates must be salvageable — a table
        added to ``_SCHEMA`` without a ``SALVAGE_TABLES`` entry would be
        silently dropped by recovery."""
        with ExperimentJournal(tmp_path / "probe.sqlite") as journal:
            schema_tables = {
                name for (name,) in journal._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name NOT LIKE 'sqlite_%'")}
            columns = {
                table: [row[1] for row in journal._conn.execute(
                    f"PRAGMA table_info({table})")]
                for table in schema_tables}
        salvaged = {table for table, _ in SALVAGE_TABLES}
        assert salvaged == schema_tables
        for table, cols in SALVAGE_TABLES:
            assert set(cols) == set(columns[table]), table


class TestCorruptJournal:
    def test_default_open_raises_loudly(self, tmp_path, memory_golden):
        path = journal_with_campaign(tmp_path, memory_golden)
        corrupt_pages(path)
        with pytest.raises(JournalCorruptError, match="salvage"):
            ExperimentJournal(path)
        # The refusal is non-destructive: the evidence stays in place.
        assert path.exists()
        assert not path.with_suffix(".sqlite.corrupt").exists()

    def test_salvage_open_recovers_and_archives(self, tmp_path,
                                                memory_golden):
        path = journal_with_campaign(tmp_path, memory_golden)
        corrupt_pages(path)
        with ExperimentJournal(path, salvage=True) as journal:
            report = journal.salvage_report
            assert isinstance(report, SalvageReport)
            assert report.recovered.get("campaigns", 0) >= 1
            assert report.total_rows > 0
        # The corrupt original was moved aside, not destroyed.
        corrupt = path.parent / (path.name + ".corrupt")
        assert corrupt.exists()
        assert report.source == str(corrupt)
        # The rebuilt file is a healthy journal from here on.
        with ExperimentJournal(path) as journal:
            assert journal.salvage_report is None

    def test_healthy_journal_ignores_salvage_flag(self, tmp_path,
                                                  memory_golden):
        path = journal_with_campaign(tmp_path, memory_golden)
        with ExperimentJournal(path, salvage=True) as journal:
            assert journal.salvage_report is None
        assert not (path.parent / (path.name + ".corrupt")).exists()

    def test_unreadable_garbage_still_raises(self, tmp_path):
        path = tmp_path / "noise.sqlite"
        path.write_bytes(b"this was never a database" * 100)
        with pytest.raises(JournalCorruptError):
            ExperimentJournal(path)

    def test_salvage_then_resume_reaches_exact_result(
            self, tmp_path, memory_golden, memory_baseline):
        """The end-to-end promise: corrupt → salvage → resume equals a
        clean uninterrupted campaign bit for bit."""
        path = journal_with_campaign(tmp_path, memory_golden)
        corrupt_pages(path)
        salvage_journal(path)
        result = run_full_scan(memory_golden, journal=path,
                               keep_records=True)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete


class TestInvalidClasses:
    EXPECTED = {(0, 1): 3, (2, 5): 2}

    def test_healthy_classes_pass(self):
        completed = {(0, 1): [(0, "none", 1, ""), (1, "sdc", 2, ""),
                              (2, "none", 3, "")],
                     (2, 5): [(0, "none", 1, ""), (1, "none", 1, "")]}
        assert invalid_classes(completed, self.EXPECTED) == []

    def test_truncated_class_is_flagged(self):
        completed = {(0, 1): [(0, "none", 1, ""), (1, "sdc", 2, "")]}
        assert invalid_classes(completed, self.EXPECTED) == [(0, 1)]

    def test_wrong_bit_sequence_is_flagged(self):
        completed = {(2, 5): [(0, "none", 1, ""), (2, "none", 1, "")]}
        assert invalid_classes(completed, self.EXPECTED) == [(2, 5)]

    def test_unknown_keys_are_ignored(self):
        completed = {(9, 9): [(0, "none", 1, "")]}
        assert invalid_classes(completed, self.EXPECTED) == []


def _run_backend(backend, golden, journal):
    if backend == "dist":
        result, _, _ = run_dist(golden, journal=journal)
        return result
    return run_full_scan(golden, journal=journal, keep_records=True,
                         jobs=2 if backend == "pool" else None)


class TestDistPrunesPartialClasses:
    @pytest.mark.parametrize("backend", ["serial", "pool", "dist"])
    def test_partial_resumed_class_is_discarded_and_reexecuted(
            self, backend, tmp_path, memory_golden, memory_baseline):
        """A salvaged journal can hold a class missing its tail rows.
        Every backend must catch it at resume, discard it, and
        re-execute — silently merging it would undercount that class's
        outcomes forever."""
        path = journal_with_campaign(tmp_path, memory_golden)
        # Surgically truncate one journaled class: drop its last bits,
        # exactly what losing the page holding them does.
        conn = sqlite3.connect(path)
        with conn:
            (axis, first_slot) = conn.execute(
                "SELECT axis, first_slot FROM class_results "
                "ORDER BY axis, first_slot LIMIT 1").fetchone()
            conn.execute(
                "DELETE FROM class_results WHERE axis = ? AND "
                "first_slot = ? AND bit > 0", (axis, first_slot))
        conn.close()
        result = _run_backend(backend, memory_golden, path)
        execution = result.execution
        assert execution.discarded_results >= 1
        assert execution.complete
        assert result == memory_baseline
        with ExperimentJournal(path) as journal:
            (entry,) = journal.fabric_report()
        assert any(event["kind"] == "salvage-prune"
                   for event in entry["events"])

    def test_truncated_brute_force_slot_is_discarded_and_reexecuted(
            self, tmp_path):
        """The brute-force unit is one injection slot: a slot that lost
        rows must be re-run, not resumed into a partial ground truth."""
        golden = record_golden(hi.baseline())
        baseline = run_brute_force(golden)
        path = tmp_path / "brute.sqlite"
        run_brute_force(golden, journal=path)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM coordinate_results WHERE slot = 3 "
                         "AND bit > 1")
        conn.close()
        result = run_brute_force(golden, journal=path)
        assert result.execution.discarded_results == 1
        assert result.execution.executed == 1
        assert result.execution.complete
        assert result == baseline
        assert len(result.outcomes) == baseline.fault_space_size
        with ExperimentJournal(path) as journal:
            (entry,) = journal.fabric_report()
        assert any(event["kind"] == "salvage-prune"
                   for event in entry["events"])
