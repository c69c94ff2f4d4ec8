"""Tests for text report rendering."""

import pytest

from repro.analysis import (
    completeness_report,
    failure_attribution,
    fig2_report,
    fig3_report,
    format_table,
    outcome_histogram,
    table1_report,
    verdict_report,
)
from repro.analysis.figures import Fig2Series
from repro.campaign import CampaignSummary, record_golden, run_full_scan
from repro.campaign.journal import ExecutionReport
from repro.programs import hi


@pytest.fixture(scope="module")
def hi_scan():
    return run_full_scan(record_golden(hi.baseline()))


@pytest.fixture(scope="module")
def dft_scan():
    return run_full_scan(record_golden(hi.dft_variant(4)))


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        assert format_table(["x"], [], title="T").startswith("T\n")


class TestReports:
    def test_table1_report_mentions_poisson_params(self):
        text = table1_report()
        assert "P(k faults)" in text
        assert "2^20" in text

    def test_fig2_report_contains_variants(self, hi_scan, dft_scan):
        series = [Fig2Series.from_summary(CampaignSummary.from_result(s))
                  for s in (hi_scan, dft_scan)]
        text = fig2_report(series)
        assert "hi" in text and "hi-dft4" in text

    def test_fig3_report(self, hi_scan, dft_scan):
        summaries = {
            "hi": CampaignSummary.from_result(hi_scan),
            "hi-dft4": CampaignSummary.from_result(dft_scan),
        }
        text = fig3_report(summaries)
        assert "62.5%" in text and "75.0%" in text

    def test_verdict_report_flags_delusion(self, hi_scan, dft_scan):
        text = verdict_report(CampaignSummary.from_result(hi_scan),
                              CampaignSummary.from_result(dft_scan),
                              "hi")
        assert "r = 1.000" in text
        assert "misleading here" in text

    def test_outcome_histogram_shares_sum_to_one(self, hi_scan):
        text = outcome_histogram(hi_scan)
        assert "sdc" in text
        assert "no-effect" in text

    def test_failure_attribution_names_msg(self, hi_scan):
        attribution = failure_attribution(hi_scan)
        assert attribution
        assert attribution[0][0] == "msg"
        assert attribution[0][1] == 48

    def test_completeness_report_prices_convergence_hits(self):
        text = completeness_report(ExecutionReport(
            total_units=4, executed=4, convergence_hits=96,
            convergence_checks=128))
        assert "convergence early-exits: 96 experiment(s) in 128 " \
            "probe(s)" in text
        # Probes that never hit are shown too: they are pure cost.
        text = completeness_report(ExecutionReport(
            total_units=2, executed=2, convergence_checks=16))
        assert "0 experiment(s) in 16 probe(s)" in text
