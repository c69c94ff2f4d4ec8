"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "P(k faults)" in out

    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "hi" in out
        assert "bin_sem2" in out
        assert "sync2-sumdmr" in out

    def test_scan_hi(self, capsys):
        main(["scan", "hi"])
        out = capsys.readouterr().out
        assert "62.50%" in out
        assert "F: 48" in out

    def test_scan_parallel_matches_serial(self, capsys):
        main(["scan", "hi"])
        serial = capsys.readouterr().out
        main(["scan", "hi", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_scan_emits_progress_eta(self, capsys):
        main(["scan", "hi"])
        err = capsys.readouterr().err
        assert "ETA" in err and "classes:" in err

    def test_scan_sampling_mode(self, capsys):
        main(["scan", "counter", "--samples", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert "sampled 50 faults" in captured.out
        assert "estimated failure count" in captured.out
        assert "experiments:" in captured.err

    def test_scan_register_domain(self, capsys):
        main(["scan", "hi", "--domain", "register"])
        out = capsys.readouterr().out
        assert "[register domain]" in out
        assert "register faults" in out
        assert "weighted coverage" in out
        assert "failure count F" in out

    def test_scan_register_parallel_matches_serial(self, capsys):
        main(["scan", "hi", "--domain", "register"])
        serial = capsys.readouterr().out
        main(["scan", "hi", "--domain", "register", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_scan_register_sampling_mode(self, capsys):
        main(["scan", "hi", "--domain", "register", "--samples", "60",
              "--seed", "2"])
        out = capsys.readouterr().out
        assert "[register domain]" in out
        assert "sampled 60 faults" in out
        assert "estimated failure count" in out

    def test_scan_defaults_to_memory_domain(self, capsys):
        main(["scan", "hi"])
        out = capsys.readouterr().out
        assert "[memory domain]" in out

    def test_scan_rejects_unknown_domain(self):
        with pytest.raises(SystemExit):
            main(["scan", "hi", "--domain", "cache"])

    def test_list_sizes_shows_every_registered_domain(self, capsys):
        from repro.faultspace import DOMAINS

        main(["list", "--sizes"])
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            for name in DOMAINS:
                assert f"w_{name}=" in line, (name, line)

    def test_list_sizes_match_domain_fault_spaces(self, capsys):
        from repro.campaign import record_golden
        from repro.faultspace import DOMAINS
        from repro.programs import hi

        main(["list", "--sizes"])
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("hi "))
        golden = record_golden(hi.baseline())
        for name, domain in DOMAINS.items():
            expected = domain.fault_space(golden).size
            assert f"w_{name}={expected}" in line

    def test_render_hi(self, capsys):
        main(["render", "hi"])
        out = capsys.readouterr().out
        assert "W##R" in out
        assert "memory w=" in out and "register w=" in out

    def test_fig3(self, capsys):
        main(["fig3"])
        out = capsys.readouterr().out
        assert "62.5%" in out and "75.0%" in out

    def test_unknown_program_exits_with_hint(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["scan", "nonsense"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliJournal:
    """The scan --journal / resume surface."""

    def test_scan_with_journal_then_resume_skips_work(self, capsys,
                                                      tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        first = capsys.readouterr().out
        main(["scan", "hi", "--journal", journal])
        second = capsys.readouterr().out
        assert "resumed from journal" in second
        assert "0 executed" in second
        # The campaign numbers themselves are identical either way.
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_scan_fresh_composes_from_section_store(self, capsys,
                                                    tmp_path):
        """--fresh discards the campaign's journal rows, but the shared
        section store survives, so the rerun composes instead of
        re-executing (and says so)."""
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        capsys.readouterr()
        main(["scan", "hi", "--journal", journal, "--fresh"])
        out = capsys.readouterr().out
        assert "composed from section store" in out

    def test_resume_lists_campaigns(self, capsys, tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        main(["scan", "hi", "--journal", journal, "--domain", "register",
              "--samples", "40"])
        capsys.readouterr()
        main(["resume", "--journal", journal])
        out = capsys.readouterr().out
        assert "2 campaign(s)" in out
        assert "full-scan" in out and "sampling" in out
        assert "[memory domain]" in out and "[register domain]" in out

    def test_resume_with_program_continues_the_campaign(self, capsys,
                                                        tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        baseline = capsys.readouterr().out
        main(["resume", "hi", "--journal", journal])
        out = capsys.readouterr().out
        assert "resumed from journal" in out
        assert baseline.splitlines()[-2:] == out.splitlines()[-2:]

    def test_resume_lists_empty_journal(self, capsys, tmp_path):
        journal = str(tmp_path / "empty.sqlite")
        main(["resume", "--journal", journal])
        out = capsys.readouterr().out
        assert "no campaigns" in out

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit):
            main(["resume", "hi"])

    def test_robustness_flags_are_accepted(self, capsys):
        main(["scan", "hi", "--jobs", "2", "--shard-timeout", "30",
              "--max-retries", "1"])
        out = capsys.readouterr().out
        assert "weighted coverage" in out


class TestCliCompare:
    """The `compare` incremental sweep and `journal` maintenance."""

    ARGS = ["compare", "hi", "hi-dft4", "hi-mem2"]

    def test_compare_prints_the_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "variant" in out and "ratio" in out
        assert "baseline" in out
        assert "hi-dft4" in out and "hi-mem2" in out

    def test_compare_warm_sweep_is_identical(self, capsys, tmp_path):
        journal = str(tmp_path / "j.sqlite")
        cold_csv = tmp_path / "cold.csv"
        warm_csv = tmp_path / "warm.csv"
        assert main(self.ARGS + ["--journal", journal,
                                 "--csv", str(cold_csv)]) == 0
        cold = capsys.readouterr().out
        assert main(self.ARGS + ["--journal", journal,
                                 "--csv", str(warm_csv)]) == 0
        warm = capsys.readouterr().out
        assert warm_csv.read_bytes() == cold_csv.read_bytes()
        # The comparison tables agree line for line.
        table = [line for line in cold.splitlines()
                 if line.startswith(("variant", "hi"))]
        assert table and all(line in warm for line in table)

    def test_compare_caches_summaries_in_the_journal(self, tmp_path):
        from repro.campaign import ExperimentJournal, JournalCache
        from repro.programs import hi

        journal = str(tmp_path / "j.sqlite")
        assert main(["compare", "hi", "hi-dft4",
                     "--journal", journal]) == 0
        with ExperimentJournal(journal) as handle:
            cached = JournalCache(handle).load(hi.baseline())
        assert cached is not None
        assert cached.program_name == "hi"

    def test_compare_rejects_sampling(self):
        with pytest.raises(SystemExit, match="--samples"):
            main(["compare", "hi", "hi-dft4", "--samples", "10"])

    def test_compare_rejects_duplicates(self):
        with pytest.raises(SystemExit, match="duplicate"):
            main(["compare", "hi", "hi"])

    def test_compare_unknown_variant_exits_with_hint(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["compare", "hi", "nonsense"])

    def test_guarded_family_is_registered(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("guarded", "guarded-sum", "guarded-sumdmr",
                     "guarded-tmr"):
            assert name in out

    def test_journal_lists_campaigns_and_sections(self, capsys,
                                                  tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        capsys.readouterr()
        assert main(["journal", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "1 campaign(s)" in out
        assert "section store:" in out
        assert "fingerprint=" in out
        assert "bytes on disk" in out

    def test_journal_gc_reports_freed_sections(self, capsys, tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        capsys.readouterr()
        assert main(["journal", "--journal", journal, "--gc"]) == 0
        out = capsys.readouterr().out
        assert "gc: dropped 0 orphaned section(s)" in out


class TestCliParallelCombos:
    def test_register_sampling_parallel_matches_serial(self, capsys):
        """scan --domain register --samples --jobs, previously untested."""
        main(["scan", "hi", "--domain", "register", "--samples", "60",
              "--seed", "2"])
        serial = capsys.readouterr().out
        main(["scan", "hi", "--domain", "register", "--samples", "60",
              "--seed", "2", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_memory_sampling_parallel_matches_serial(self, capsys):
        main(["scan", "counter", "--samples", "50", "--seed", "1"])
        serial = capsys.readouterr().out
        main(["scan", "counter", "--samples", "50", "--seed", "1",
              "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_register_scan_journal_parallel_resume(self, capsys,
                                                   tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--domain", "register"])
        baseline = capsys.readouterr().out
        main(["scan", "hi", "--domain", "register", "--journal", journal])
        capsys.readouterr()
        main(["scan", "hi", "--domain", "register", "--journal", journal,
              "--jobs", "2"])
        resumed = capsys.readouterr().out
        assert "resumed from journal" in resumed
        assert baseline.splitlines()[-2:] == resumed.splitlines()[-2:]


class TestCliDist:
    """`scan --dist`, the worker command, and incomplete exit codes."""

    def test_scan_dist_matches_serial_histogram(self, capsys):
        assert main(["scan", "hi"]) == 0
        serial = capsys.readouterr().out
        assert main(["scan", "hi", "--dist", "2"]) == 0
        dist = capsys.readouterr().out
        # With only 2 work units a fast worker may drain both shards
        # before the second one connects, so 1 or 2 workers can appear.
        assert re.search(r"distributed across [12] worker\(s\)", dist)

        def histogram(text):
            skip = ("execution:", "  complete:", "  INCOMPLETE",
                    "  distributed across", "  worker retries")
            return [line for line in text.splitlines()
                    if not line.startswith(skip)]

        assert histogram(dist) == histogram(serial)

    def test_scan_dist_refuses_jobs(self):
        with pytest.raises(SystemExit, match="--dist"):
            main(["scan", "hi", "--dist", "2", "--jobs", "2"])

    def test_worker_connect_must_be_host_port(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["worker", "--connect", "nonsense"])

    def test_incomplete_scan_exits_nonzero(self, monkeypatch, capsys):
        """A campaign that lost shards for good must not exit 0 — CI
        pipelines gate on the exit code, not on parsing the report."""
        from repro.campaign.dist.chaos import PLAN_ENV, ChaosPlan

        monkeypatch.setenv(PLAN_ENV, ChaosPlan(
            kill_shards=((0, 0),), delay_seconds=0.2).to_json())
        status = main(["scan", "memcopy", "--jobs", "2",
                       "--max-retries", "0"])
        out = capsys.readouterr().out
        assert status == 3
        assert "INCOMPLETE" in out
