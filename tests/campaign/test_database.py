"""Tests for campaign result persistence and caching."""

import json

import pytest

from repro.campaign import (
    CampaignSummary,
    ExperimentJournal,
    JournalCache,
    Outcome,
    export_class_results_csv,
    import_class_results_csv,
    program_fingerprint,
    record_golden,
    run_full_scan,
)
from repro.programs import hi


@pytest.fixture(scope="module")
def hi_scan():
    return run_full_scan(record_golden(hi.baseline()))


@pytest.fixture(scope="module")
def hi_register_scan():
    return run_full_scan(record_golden(hi.baseline()), domain="register")


class TestCampaignSummary:
    def test_from_result_captures_counts(self, hi_scan):
        summary = CampaignSummary.from_result(hi_scan)
        assert summary.fault_space_size == 128
        assert summary.cycles == 8
        assert summary.weighted() == dict(hi_scan.weighted_counts())
        assert summary.raw() == dict(hi_scan.raw_counts())

    def test_json_roundtrip(self, hi_scan):
        summary = CampaignSummary.from_result(hi_scan)
        assert summary.domain == "memory"
        clone = CampaignSummary.from_json(summary.to_json())
        assert clone == summary

    def test_register_domain_roundtrip(self, hi_register_scan):
        summary = CampaignSummary.from_result(hi_register_scan)
        assert summary.domain == "register"
        clone = CampaignSummary.from_json(summary.to_json())
        assert clone == summary
        assert clone.domain == "register"

    def test_legacy_json_without_domain_loads_as_memory(self, hi_scan):
        """Summaries cached before the domain field existed still load."""
        summary = CampaignSummary.from_result(hi_scan)
        legacy = json.loads(summary.to_json())
        del legacy["domain"]
        clone = CampaignSummary.from_json(json.dumps(legacy))
        assert clone.domain == "memory"
        assert clone == summary


class TestFingerprint:
    def test_same_program_same_fingerprint(self):
        assert program_fingerprint(hi.baseline()) \
            == program_fingerprint(hi.baseline())

    def test_different_variants_differ(self):
        assert program_fingerprint(hi.baseline()) \
            != program_fingerprint(hi.dft_variant(4))

    def test_ram_size_affects_fingerprint(self):
        assert program_fingerprint(hi.baseline()) \
            != program_fingerprint(hi.memory_diluted_variant(2))


def campaign_cache(tmp_path) -> JournalCache:
    """A summary cache over one journal file."""
    return JournalCache(ExperimentJournal(tmp_path / "cache.sqlite"))


class TestCampaignCache:
    def test_get_or_run_runs_once(self, tmp_path, hi_scan):
        cache = campaign_cache(tmp_path)
        calls = []

        def thunk():
            calls.append(1)
            return hi_scan

        first = cache.get_or_run(hi.baseline(), thunk)
        second = cache.get_or_run(hi.baseline(), thunk)
        assert first == second
        assert len(calls) == 1

    def test_changed_program_invalidates_cache(self, tmp_path, hi_scan):
        cache = campaign_cache(tmp_path)
        cache.get_or_run(hi.baseline(), lambda: hi_scan)
        assert cache.load(hi.dft_variant(4)) is None

    def test_corrupt_cache_entry_is_ignored(self, tmp_path, hi_scan):
        cache = campaign_cache(tmp_path)
        cache.get_or_run(hi.baseline(), lambda: hi_scan)
        cache.journal.store_summary(program_fingerprint(hi.baseline()),
                                    "memory", "hi", "{not json")
        assert cache.load(hi.baseline()) is None

    def test_domains_cache_side_by_side(self, tmp_path, hi_scan,
                                        hi_register_scan):
        """One program, two domains: distinct entries, no collisions."""
        cache = campaign_cache(tmp_path)
        cache.get_or_run(hi.baseline(), lambda: hi_scan)
        cache.get_or_run(hi.baseline(), lambda: hi_register_scan,
                         domain="register")
        memory = cache.load(hi.baseline())
        register = cache.load(hi.baseline(), domain="register")
        assert memory.domain == "memory"
        assert register.domain == "register"
        assert memory.fault_space_size != register.fault_space_size


class TestCsvExport:
    def test_roundtrip(self, tmp_path, hi_scan):
        path = tmp_path / "results.csv"
        export_class_results_csv(hi_scan, path)
        rows = import_class_results_csv(path)
        records = hi_scan.class_records()
        assert len(rows) == len(records)
        for row, (interval, outcomes) in zip(rows, records):
            assert row["addr"] == interval.addr
            assert row["length"] == interval.length
            assert row["outcomes"] == outcomes

    def test_register_roundtrip_has_32_bit_columns(self, tmp_path,
                                                   hi_register_scan):
        path = tmp_path / "register-results.csv"
        export_class_results_csv(hi_register_scan, path)
        rows = import_class_results_csv(path)
        records = hi_register_scan.class_records()
        assert len(rows) == len(records)
        for row, (interval, outcomes) in zip(rows, records):
            assert row["addr"] == interval.reg
            assert len(row["outcomes"]) == 32
            assert row["outcomes"] == outcomes

    def test_reexport_is_byte_identical(self, tmp_path, hi_scan,
                                        hi_register_scan):
        """import → export must reproduce the file byte for byte, for
        both the 8-bit memory and 32-bit register column layouts."""
        from repro.campaign import export_class_rows_csv

        for name, scan in (("mem", hi_scan), ("reg", hi_register_scan)):
            original = tmp_path / f"{name}.csv"
            copy = tmp_path / f"{name}-copy.csv"
            export_class_results_csv(scan, original)
            export_class_rows_csv(import_class_results_csv(original), copy)
            assert copy.read_bytes() == original.read_bytes()

    def test_import_orders_bit_columns_numerically(self, tmp_path):
        """bit10 must sort after bit2 — a lexicographic sort would
        silently permute register outcomes."""
        path = tmp_path / "shuffled.csv"
        bits = 12
        header = ["addr", "first_slot", "last_slot", "length"] + [
            f"bit{b}" for b in reversed(range(bits))]
        values = ["5", "1", "4", "4"] + ["sdc"] * (bits - 1) + [
            "no-effect"]  # no-effect lands in the bit0 column
        path.write_text(",".join(header) + "\r\n"
                        + ",".join(values) + "\r\n")
        rows = import_class_results_csv(path)
        assert rows[0]["outcomes"][0] == Outcome.NO_EFFECT
        assert all(o == Outcome.SDC for o in rows[0]["outcomes"][1:])

    def test_import_tolerates_whitespace_in_numbers(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0\r\n"
                        " 3 , 1 , 2 , 2 ,no-effect\r\n")
        rows = import_class_results_csv(path)
        assert rows[0] == {"addr": 3, "first_slot": 1, "last_slot": 2,
                           "length": 2,
                           "outcomes": (Outcome.NO_EFFECT,)}

    def test_import_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("addr,first_slot,bit0\r\n1,2,sdc\r\n")
        with pytest.raises(ValueError, match="missing column"):
            import_class_results_csv(path)

    def test_import_rejects_gappy_bit_columns(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0,bit2\r\n"
                        "1,1,1,1,sdc,sdc\r\n")
        with pytest.raises(ValueError, match="not contiguous"):
            import_class_results_csv(path)

    def test_import_reports_malformed_rows_with_line_numbers(
            self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0\r\n"
                        "1,1,1,1,no-effect\r\n"
                        "2,1,1,one,sdc\r\n")
        with pytest.raises(ValueError, match="line 3"):
            import_class_results_csv(path)

    def test_import_rejects_unknown_outcome_values(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0\r\n"
                        "1,1,1,1,exploded\r\n")
        with pytest.raises(ValueError, match="line 2"):
            import_class_results_csv(path)
