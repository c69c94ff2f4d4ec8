"""Persistence for campaign results.

Stores campaign summaries and per-class results as JSON/CSV.  The cache
keyed by program content lets the benchmark harness regenerate every
figure without re-running campaigns that have not changed — the same
role FAIL*'s experiment database plays in the original toolchain.

Summaries are cached in the experiment journal (schema v2 ``summaries``
table): :class:`JournalCache` offers a ``load``/``store``/``get_or_run``
surface on top of an open
:class:`~repro.campaign.journal.ExperimentJournal`, so the summaries
live in the same SQLite file as the campaigns and section results they
came from.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..isa.assembler import Program
from .outcomes import Outcome
from .runner import CampaignResult


@dataclass(frozen=True)
class CampaignSummary:
    """Everything the metrics layer needs from a full-scan campaign.

    ``domain`` names the fault model the campaign scanned (``"memory"``
    or ``"register"``); summaries serialized before the field existed
    load as memory-domain summaries.
    """

    program_name: str
    cycles: int
    ram_bytes: int
    fault_space_size: int
    experiments: int
    weighted_counts: dict[str, int]
    raw_counts: dict[str, int]
    known_no_effect_weight: int
    domain: str = "memory"

    @classmethod
    def from_result(cls, result: CampaignResult) -> "CampaignSummary":
        golden = result.golden
        return cls(
            program_name=golden.program.name,
            cycles=golden.cycles,
            ram_bytes=golden.program.ram_size,
            fault_space_size=result.fault_space_size,
            experiments=result.experiments_conducted,
            weighted_counts={o.value: n for o, n in
                             result.weighted_counts().items()},
            raw_counts={o.value: n for o, n in result.raw_counts().items()},
            known_no_effect_weight=result.partition.known_no_effect_weight,
            domain=result.domain.name,
        )

    def weighted(self) -> dict[Outcome, int]:
        return {Outcome(k): v for k, v in self.weighted_counts.items()}

    def raw(self) -> dict[Outcome, int]:
        return {Outcome(k): v for k, v in self.raw_counts.items()}

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSummary":
        data = json.loads(text)
        # Summaries written before the domain field existed are all
        # memory-domain scans.
        data.setdefault("domain", "memory")
        return cls(**data)


def program_fingerprint(program: Program) -> str:
    """Content hash identifying a program variant for caching."""
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    digest.update(str(program.ram_size).encode())
    digest.update(program.source.encode())
    digest.update(program.data)
    for instr in program.rom:
        digest.update(
            f"{instr.op}|{instr.rd}|{instr.rs1}|{instr.rs2}|{instr.imm}"
            .encode())
    return digest.hexdigest()[:24]


class JournalCache:
    """Campaign-summary cache backed by the experiment journal.

    ``get_or_run`` is the main entry point: it returns the cached
    summary when the program (source, data, ROM, RAM size) is unchanged,
    and otherwise invokes the supplied campaign thunk and stores its
    summary.  Summaries live in the journal's ``summaries`` table
    (schema v2), keyed by program fingerprint and fault domain, so one
    SQLite file carries the campaigns, the cross-campaign section store
    *and* the summary cache the figure/benchmark harnesses read.
    """

    def __init__(self, journal):
        self.journal = journal  # an open ExperimentJournal

    def load(self, program: Program,
             domain: str = "memory") -> CampaignSummary | None:
        text = self.journal.load_summary(program_fingerprint(program),
                                         domain)
        if text is None:
            return None
        try:
            return CampaignSummary.from_json(text)
        except (json.JSONDecodeError, TypeError):
            return None  # stale or corrupt summary row; recompute

    def store(self, program: Program, summary: CampaignSummary) -> None:
        self.journal.store_summary(
            program_fingerprint(program), summary.domain,
            summary.program_name, summary.to_json())

    def get_or_run(self, program: Program, thunk,
                   domain: str = "memory") -> CampaignSummary:
        """Return the cached summary or run ``thunk() -> CampaignResult``."""
        cached = self.load(program, domain)
        if cached is not None:
            return cached
        summary = CampaignSummary.from_result(thunk())
        self.store(program, summary)
        return summary


def export_class_results_csv(result: CampaignResult,
                             path: str | Path) -> None:
    """Write per-class experiment results to a CSV file.

    Columns: spatial axis index (byte address or register number),
    interval bounds, lifetime weight, and the domain's per-bit outcomes
    (8 columns for memory, 32 for registers).
    """
    domain = result.domain
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["addr", "first_slot", "last_slot", "length"]
                        + [f"bit{b}" for b in range(domain.bits)])
        for interval, outcomes in result.class_records():
            writer.writerow(
                [domain.axis_of(interval), interval.first_slot,
                 interval.last_slot, interval.length]
                + [o.value for o in outcomes])


def import_class_results_csv(path: str | Path) -> list[dict]:
    """Read back a CSV produced by :func:`export_class_results_csv`.

    Robust against files that went through a spreadsheet or another CSV
    tool: bit columns are matched strictly (``bit<N>``) and ordered by
    their *numeric* index — a lexicographic sort would put ``bit10``
    before ``bit2`` and silently permute 32-bit register outcomes — and
    the integer fields tolerate surrounding whitespace.  A missing
    header, a non-contiguous bit-column set or a malformed value raises
    :class:`ValueError` instead of producing a silently wrong import.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        missing = [name for name in ("addr", "first_slot", "last_slot",
                                     "length") if name not in fields]
        if missing:
            raise ValueError(
                f"{path}: not a class-results CSV; missing column(s) "
                f"{', '.join(missing)}")
        bit_columns = sorted(
            (name for name in fields
             if name.startswith("bit") and name[3:].isdigit()),
            key=lambda name: int(name[3:]))
        if not bit_columns:
            raise ValueError(f"{path}: no bit<N> outcome columns")
        indices = [int(name[3:]) for name in bit_columns]
        if indices != list(range(len(indices))):
            raise ValueError(
                f"{path}: bit columns are not contiguous from bit0 "
                f"(got {', '.join(bit_columns)})")
        for line, row in enumerate(reader, start=2):
            try:
                rows.append({
                    "addr": int(row["addr"].strip()),
                    "first_slot": int(row["first_slot"].strip()),
                    "last_slot": int(row["last_slot"].strip()),
                    "length": int(row["length"].strip()),
                    "outcomes": tuple(Outcome(row[name].strip())
                                      for name in bit_columns),
                })
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: malformed row at line {line}: {exc}") \
                    from exc
    return rows


def export_class_rows_csv(rows: list[dict], path: str | Path) -> None:
    """Write rows in :func:`import_class_results_csv` form back to CSV.

    The inverse of the importer: re-exporting an imported file produces
    a byte-identical copy, which is what makes the CSV a faithful
    interchange format (and what the round-trip tests assert).
    """
    if not rows:
        raise ValueError("no rows to export")
    bits = len(rows[0]["outcomes"])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["addr", "first_slot", "last_slot", "length"]
                        + [f"bit{b}" for b in range(bits)])
        for row in rows:
            if len(row["outcomes"]) != bits:
                raise ValueError(
                    "rows mix outcome widths; cannot export one CSV")
            writer.writerow(
                [row["addr"], row["first_slot"], row["last_slot"],
                 row["length"]] + [o.value for o in row["outcomes"]])
