"""Durable experiment journal: crash-tolerant, resumable campaigns.

The paper's methodology only pays off when the full def/use-pruned fault
space is swept for every program variant — campaigns of that size die to
``KeyboardInterrupt``s, OOM-killed workers and machine reboots, and an
in-memory accumulator throws away every completed experiment when they
do.  Production FI tools solve this with a durable result store (FAIL*'s
experiment database; "Towards a Fault-Injection Benchmarking Suite"
argues comparable campaigns need replayable stores rather than ad-hoc
accumulation).  This module is that store.

:class:`ExperimentJournal` wraps one SQLite database (stdlib
``sqlite3``; no external dependency) holding any number of *campaigns*,
each keyed by::

    (program fingerprint, fault domain, campaign kind, parameters)

so re-running the same campaign against the same binary resumes instead
of restarting, while any change to the program, the domain, the sampler
seed or the executor's timeout policy opens a fresh campaign.  Three
result granularities match the three campaign styles:

* ``class_results`` — one row per (class, bit) representative experiment
  of a full scan, including ``end_cycle`` and ``trap`` so resumed runs
  reconstruct :class:`~.experiment.ExperimentRecord` lists bit-for-bit;
  sampled campaigns reuse the same table for their distinct-experiment
  cache.
* ``coordinate_results`` — one row per raw coordinate of a brute-force
  scan, journaled atomically per injection slot.
* ``sampler_state`` — the sampler's post-draw RNG position, so a resume
  can *prove* the re-drawn sample sequence is the one the journal's
  experiments belong to (a changed seed or sample count raises
  :class:`JournalMismatchError` instead of silently mixing campaigns).

Writes are transactional at the unit the campaign treats as atomic (one
class, one slot, one shard): a crash between units loses at most the
unit in flight, and a resumed campaign re-runs exactly the units the
journal does not contain.  The contract — enforced by the differential
tests in ``tests/campaign/test_resume.py`` — is that a resumed campaign
produces a result *bit-for-bit identical* to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .outcomes import Outcome

#: Current schema version.  Version 2 added the cross-campaign section
#: store (``sections``/``section_results``/``campaign_sections``) and
#: the ``summaries`` table; version 3 added the ``fabric_events`` log
#: (supervision / integrity incidents of the distributed fabric).  All
#: changes are purely additive, so older journals migrate in place on
#: open.  Journals written by a *newer* build than this one are
#: rejected instead of silently misread.
SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    domain      TEXT NOT NULL,
    kind        TEXT NOT NULL,
    params      TEXT NOT NULL,
    cycles      INTEGER NOT NULL,
    status      TEXT NOT NULL DEFAULT 'running',
    UNIQUE (fingerprint, domain, kind, params)
);
CREATE TABLE IF NOT EXISTS class_results (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    axis        INTEGER NOT NULL,
    first_slot  INTEGER NOT NULL,
    bit         INTEGER NOT NULL,
    outcome     TEXT NOT NULL,
    end_cycle   INTEGER NOT NULL DEFAULT 0,
    trap        TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign_id, axis, first_slot, bit)
);
CREATE TABLE IF NOT EXISTS coordinate_results (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    slot        INTEGER NOT NULL,
    axis        INTEGER NOT NULL,
    bit         INTEGER NOT NULL,
    outcome     TEXT NOT NULL,
    PRIMARY KEY (campaign_id, slot, axis, bit)
);
CREATE TABLE IF NOT EXISTS sampler_state (
    campaign_id INTEGER PRIMARY KEY REFERENCES campaigns(id),
    draws       INTEGER NOT NULL,
    rng_state   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    shard       INTEGER NOT NULL,
    keys        TEXT NOT NULL,
    worker      TEXT NOT NULL DEFAULT '',
    attempts    INTEGER NOT NULL DEFAULT 0,
    status      TEXT NOT NULL DEFAULT 'pending',
    PRIMARY KEY (campaign_id, shard)
);
CREATE TABLE IF NOT EXISTS sections (
    id          INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL UNIQUE,
    program     TEXT NOT NULL,
    domain      TEXT NOT NULL,
    first_slot  INTEGER NOT NULL,
    last_slot   INTEGER NOT NULL,
    detail      TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS section_results (
    section_id INTEGER NOT NULL REFERENCES sections(id),
    slot       INTEGER NOT NULL,
    axis       INTEGER NOT NULL,
    bit        INTEGER NOT NULL,
    outcome    TEXT NOT NULL,
    end_cycle  INTEGER NOT NULL DEFAULT 0,
    trap       TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (section_id, slot, axis, bit)
);
CREATE TABLE IF NOT EXISTS campaign_sections (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    section_id  INTEGER NOT NULL REFERENCES sections(id),
    PRIMARY KEY (campaign_id, section_id)
);
CREATE TABLE IF NOT EXISTS summaries (
    fingerprint TEXT NOT NULL,
    domain      TEXT NOT NULL,
    name        TEXT NOT NULL DEFAULT '',
    summary     TEXT NOT NULL,
    PRIMARY KEY (fingerprint, domain)
);
CREATE TABLE IF NOT EXISTS fabric_events (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    at          REAL NOT NULL,
    worker      TEXT NOT NULL DEFAULT '',
    kind        TEXT NOT NULL,
    detail      TEXT NOT NULL DEFAULT ''
);
"""

#: ``(table, columns)`` pairs :func:`salvage_journal` tries to recover,
#: in dependency order.  Kept in sync with ``_SCHEMA`` by
#: ``tests/campaign/test_salvage.py``.
SALVAGE_TABLES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("meta", ("key", "value")),
    ("campaigns", ("id", "fingerprint", "domain", "kind", "params",
                   "cycles", "status")),
    ("class_results", ("campaign_id", "axis", "first_slot", "bit",
                       "outcome", "end_cycle", "trap")),
    ("coordinate_results", ("campaign_id", "slot", "axis", "bit",
                            "outcome")),
    ("sampler_state", ("campaign_id", "draws", "rng_state")),
    ("leases", ("campaign_id", "shard", "keys", "worker", "attempts",
                "status")),
    ("sections", ("id", "fingerprint", "program", "domain", "first_slot",
                  "last_slot", "detail")),
    ("section_results", ("section_id", "slot", "axis", "bit", "outcome",
                         "end_cycle", "trap")),
    ("campaign_sections", ("campaign_id", "section_id")),
    ("summaries", ("fingerprint", "domain", "name", "summary")),
    ("fabric_events", ("id", "campaign_id", "at", "worker", "kind",
                       "detail")),
)


class JournalError(RuntimeError):
    """The journal file is unusable (wrong schema version, corrupt)."""


class JournalCorruptError(JournalError):
    """The journal file is physically corrupt (failed ``quick_check``).

    Distinct from a version mismatch: corruption is what
    :func:`salvage_journal` can partially recover from, a too-new
    schema is not.
    """


class JournalMismatchError(JournalError):
    """A resume does not match the journaled campaign.

    Raised when the golden run's cycle count or the sampler's re-drawn
    RNG position disagrees with what the journal recorded — continuing
    would mix experiments from two different campaigns into one result.
    """


def canonical_params(params: Mapping) -> str:
    """Deterministic JSON encoding of campaign parameters (the key)."""
    return json.dumps(dict(params), sort_keys=True,
                      separators=(",", ":"))


@dataclass
class ExecutionReport:
    """How a campaign actually executed: completeness and robustness.

    Attached to campaign results (``result.execution``) so callers can
    tell an exact, complete sweep from a resumed or degraded one.  The
    field is excluded from result equality — a resumed campaign with the
    *same outcomes* as an uninterrupted one compares equal even though
    it took a different path to them.
    """

    #: Work units the campaign planned (live classes / distinct sampled
    #: experiments / injection slots, depending on the style).
    total_units: int = 0
    #: Units executed fresh in this invocation.
    executed: int = 0
    #: Units loaded from the journal instead of re-executed.
    resumed: int = 0
    #: Experiments classified :data:`Outcome.TIMEOUT` by the wall-clock
    #: shard guard rather than by the simulator's cycle budget.
    synthesized_timeouts: int = 0
    #: Shards whose wall-clock deadline expired (their experiments were
    #: classified as timeouts instead of stalling the pool).
    timed_out_shards: int = 0
    #: Shard re-submissions after a worker process died.
    shard_retries: int = 0
    #: Shards abandoned after exhausting their retry budget.
    failed_shards: int = 0
    #: Class keys (or experiment keys) missing from the result because
    #: their shard was abandoned; empty for a complete campaign.
    missing: tuple = field(default_factory=tuple)
    #: Experiments classified early because the faulty machine's state
    #: digest re-joined the golden checkpoint ladder (the convergence
    #: early-exit).  Purely a performance diagnostic — outcomes are
    #: identical with the optimization off.
    convergence_hits: int = 0
    #: Experiments classified without executing a single post-injection
    #: cycle because the backward slice proved the injected cell
    #: non-critical (the criticality pre-skip).  Like
    #: :attr:`convergence_hits`, a performance diagnostic only.
    slice_hits: int = 0
    #: Experiments a batch executor finished on the scalar tier after
    #: their lane was evicted from a lockstep pack (divergence, traps,
    #: or persistent-fault stores) and could not be re-admitted.  A
    #: pack-efficiency diagnostic: high counts mean the workload is too
    #: branchy for the batch tier.  Always 0 for scalar executors.
    scalar_tail_experiments: int = 0
    #: Experiments whose outcomes were composed from the cross-campaign
    #: section store (another campaign already executed an identical
    #: program section) instead of re-executed.  Composed experiments
    #: are *also* counted in :attr:`resumed` — they enter the campaign
    #: through the same journal-merge path a resume uses.
    composed_hits: int = 0
    #: Per-worker attribution of executed work units, as sorted
    #: ``(worker_name, units)`` pairs.  Populated by the distributed
    #: coordinator (every unit names the worker whose submission was
    #: accounted); empty for single-host campaigns.
    workers: tuple = field(default_factory=tuple)
    #: Result frames rejected before merging: CRC mismatch (payload
    #: corrupted between the worker's executor and the coordinator) or
    #: row-shape/digest disagreement with the domain's expected
    #: experiment weight for the class.  Rejected frames are simply
    #: re-executed — corruption can delay a campaign, never skew it.
    integrity_rejected: int = 0
    #: Classes re-executed on a second worker and byte-compared
    #: (cross-check sampling).
    crosschecked: int = 0
    #: Cross-check comparisons that disagreed (at least one of the two
    #: workers returned wrong bytes).
    crosscheck_mismatches: int = 0
    #: Cross-checks abandoned unverified because no second worker was
    #: ever available to re-execute them.
    crosscheck_unverified: int = 0
    #: Journaled results discarded and re-queued after their worker was
    #: caught corrupting results (its unverified history is not
    #: trustworthy, so it is re-executed by honest workers).
    discarded_results: int = 0
    #: Bisection rounds performed while isolating poisonous shards.
    poison_splits: int = 0
    #: Class keys isolated as poisonous — their execution kills
    #: workers — and excluded from the result (also in :attr:`missing`).
    poison_keys: tuple = field(default_factory=tuple)
    #: Workers quarantined by the supervisor during this run, as sorted
    #: names (circuit-breaker trips and byzantine convictions alike).
    quarantined_workers: tuple = field(default_factory=tuple)

    @property
    def complete(self) -> bool:
        """True when every planned unit produced a result."""
        return not self.missing

    @property
    def completeness(self) -> float:
        """Fraction of planned units present in the result, in [0, 1]."""
        if self.total_units <= 0:
            return 1.0
        return 1.0 - len(self.missing) / self.total_units


class ExperimentJournal:
    """One SQLite journal file holding any number of campaigns.

    The journal is written by the campaign *driver* process only —
    worker processes return results to the parent, which journals them —
    so no cross-process SQLite coordination is needed.  A path-like
    argument opens (creating if necessary) the database at that path;
    ``":memory:"`` works for tests.
    """

    def __init__(self, path: str | Path, *, salvage: bool = False):
        self.path = str(path)
        #: Set when opening salvaged a corrupt file (``salvage=True``).
        self.salvage_report: SalvageReport | None = None
        try:
            self._conn = self._connect()
        except JournalCorruptError:
            if (not salvage or self.path == ":memory:"
                    or not os.path.exists(self.path)):
                raise
            # Torn-write recovery: move the corrupt file aside, rebuild
            # a fresh journal at the same path from every row that is
            # still readable, then open that.  Partially recovered
            # classes are the caller's problem — the campaign layers
            # validate row counts against the domain's expected
            # experiment weights before trusting resumed classes.
            self.salvage_report = salvage_journal(self.path)
            self._conn = self._connect()
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'") \
            .fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
            self._conn.commit()
            return
        try:
            stored = int(row[0])
        except (TypeError, ValueError):
            raise JournalError(
                f"journal {self.path!r} has unreadable schema version "
                f"{row[0]!r}, this build expects {SCHEMA_VERSION}") \
                from None
        if stored > SCHEMA_VERSION:
            raise JournalError(
                f"journal {self.path!r} has schema version {row[0]}, "
                f"this build expects {SCHEMA_VERSION}")
        if stored < SCHEMA_VERSION:
            # Versions 1 → 2 differ only by additive tables, which the
            # executescript above already created; migration is just the
            # version stamp.  Existing rows are untouched — no data loss.
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),))
            self._conn.commit()

    def _connect(self) -> sqlite3.Connection:
        """Open, integrity-check and schema-initialize the database."""
        try:
            conn = sqlite3.connect(self.path)
            conn.execute("PRAGMA busy_timeout = 5000")
            # WAL keeps readers (a second `repro resume --journal` listing
            # progress, a monitoring script) from blocking the campaign's
            # writes, and makes each commit an append instead of a
            # rewrite.  In-memory journals report "memory" here; that is
            # fine — only real files need the concurrency.
            conn.execute("PRAGMA journal_mode = WAL")
            check = conn.execute("PRAGMA quick_check").fetchone()
            if check is not None and check[0] != "ok":
                conn.close()
                raise JournalCorruptError(
                    f"journal {self.path!r} failed SQLite quick_check: "
                    f"{check[0]} — the file is corrupt; open with "
                    f"salvage=True (or `repro journal --salvage`) to "
                    f"recover the readable rows")
            conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            raise JournalCorruptError(
                f"journal {self.path!r} is not a usable SQLite "
                f"database: {exc} — open with salvage=True (or `repro "
                f"journal --salvage`) to recover the readable rows") \
                from exc
        return conn

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaigns ------------------------------------------------------------

    def campaign(self, *, fingerprint: str, domain: str, kind: str,
                 params: Mapping, cycles: int) -> "CampaignJournal":
        """Open (or create) the campaign with this identity key.

        Raises :class:`JournalMismatchError` when a journaled campaign
        with the same key was recorded against a different golden
        runtime — same fingerprint but different Δt means the simulator
        or program changed under the journal.
        """
        encoded = canonical_params(params)
        row = self._conn.execute(
            "SELECT id, cycles FROM campaigns WHERE fingerprint = ? AND "
            "domain = ? AND kind = ? AND params = ?",
            (fingerprint, domain, kind, encoded)).fetchone()
        if row is not None:
            campaign_id, stored_cycles = row
            if stored_cycles != cycles:
                raise JournalMismatchError(
                    f"journaled campaign {kind!r} for {fingerprint} was "
                    f"recorded at Δt={stored_cycles} cycles, but the "
                    f"golden run now spans Δt={cycles}")
            return CampaignJournal(self, campaign_id)
        cursor = self._conn.execute(
            "INSERT INTO campaigns (fingerprint, domain, kind, params, "
            "cycles) VALUES (?, ?, ?, ?, ?)",
            (fingerprint, domain, kind, encoded, cycles))
        self._conn.commit()
        return CampaignJournal(self, cursor.lastrowid)

    def fabric_report(self) -> list[dict]:
        """Per-campaign distributed-fabric state for ``repro fabric``.

        Extends :meth:`campaigns` with each campaign's journaled shard
        leases and supervision/integrity events — the operator's view
        of what the coordinator did and to whom.
        """
        out = []
        for entry in self.campaigns():
            campaign_id = entry["id"]
            entry["leases"] = [
                {"shard": shard, "worker": worker,
                 "attempts": attempts, "status": status}
                for shard, worker, attempts, status in self._conn.execute(
                    "SELECT shard, worker, attempts, status FROM leases "
                    "WHERE campaign_id = ? ORDER BY shard",
                    (campaign_id,))]
            entry["events"] = [
                {"at": at, "worker": worker, "kind": kind,
                 "detail": detail}
                for at, worker, kind, detail in self._conn.execute(
                    "SELECT at, worker, kind, detail FROM fabric_events "
                    "WHERE campaign_id = ? ORDER BY id",
                    (campaign_id,))]
            out.append(entry)
        return out

    def campaigns(self) -> list[dict]:
        """All journaled campaigns with their progress counts."""
        out = []
        for row in self._conn.execute(
                "SELECT id, fingerprint, domain, kind, params, cycles, "
                "status FROM campaigns ORDER BY id"):
            campaign_id = row[0]
            classes = self._conn.execute(
                "SELECT COUNT(*) FROM class_results WHERE campaign_id "
                "= ?", (campaign_id,)).fetchone()[0]
            coords = self._conn.execute(
                "SELECT COUNT(*) FROM coordinate_results WHERE "
                "campaign_id = ?", (campaign_id,)).fetchone()[0]
            out.append({
                "id": campaign_id,
                "fingerprint": row[1],
                "domain": row[2],
                "kind": row[3],
                "params": json.loads(row[4]),
                "cycles": row[5],
                "status": row[6],
                "journaled_experiments": classes + coords,
            })
        return out

    # -- cross-campaign section store -----------------------------------------

    def section(self, *, fingerprint: str, program: str, domain: str,
                first_slot: int, last_slot: int,
                detail: str = "{}") -> int:
        """Intern one section by fingerprint, returning its row id.

        Sections are shared across campaigns (that is the point); the
        fingerprint is the identity, everything else is bookkeeping for
        ``repro journal`` listings.
        """
        row = self._conn.execute(
            "SELECT id FROM sections WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        if row is not None:
            return row[0]
        cursor = self._conn.execute(
            "INSERT INTO sections (fingerprint, program, domain, "
            "first_slot, last_slot, detail) VALUES (?, ?, ?, ?, ?, ?)",
            (fingerprint, program, domain, first_slot, last_slot, detail))
        self._conn.commit()
        return cursor.lastrowid

    def merge_section_rows(
            self, section_id: int,
            rows: Iterable[tuple[int, int, int, str, int, str]]) -> None:
        """Merge experiment rows into a section, first-wins.

        ``rows`` holds ``(slot, axis, bit, outcome_value, end_cycle,
        trap)``.  INSERT OR IGNORE gives the same first-wins semantics
        the dist fabric uses for at-least-once deliveries: experiments
        are deterministic, so a duplicate necessarily carries identical
        values and dropping it is sound.
        """
        with self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO section_results (section_id, "
                "slot, axis, bit, outcome, end_cycle, trap) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(section_id, slot, axis, bit, outcome, end_cycle, trap)
                 for slot, axis, bit, outcome, end_cycle, trap in rows])

    def section_rows(self, section_id: int) \
            -> dict[tuple[int, int, int], tuple[Outcome, int, str]]:
        """Stored rows of one section: ``(slot, axis, bit)`` → result."""
        return {
            (slot, axis, bit): (Outcome(outcome), end_cycle, trap)
            for slot, axis, bit, outcome, end_cycle, trap in
            self._conn.execute(
                "SELECT slot, axis, bit, outcome, end_cycle, trap "
                "FROM section_results WHERE section_id = ?",
                (section_id,))
        }

    def sections(self) -> list[dict]:
        """All stored sections with their result and reference counts."""
        out = []
        for row in self._conn.execute(
                "SELECT id, fingerprint, program, domain, first_slot, "
                "last_slot, detail FROM sections ORDER BY id"):
            section_id = row[0]
            results = self._conn.execute(
                "SELECT COUNT(*) FROM section_results WHERE "
                "section_id = ?", (section_id,)).fetchone()[0]
            referenced = self._conn.execute(
                "SELECT COUNT(*) FROM campaign_sections WHERE "
                "section_id = ?", (section_id,)).fetchone()[0]
            out.append({
                "id": section_id,
                "fingerprint": row[1],
                "program": row[2],
                "domain": row[3],
                "first_slot": row[4],
                "last_slot": row[5],
                "detail": json.loads(row[6] or "{}"),
                "stored_results": results,
                "campaigns": referenced,
            })
        return out

    def gc_sections(self) -> int:
        """Drop sections no campaign references; returns sections freed."""
        orphans = [row[0] for row in self._conn.execute(
            "SELECT id FROM sections WHERE id NOT IN "
            "(SELECT section_id FROM campaign_sections)")]
        with self._conn:
            for section_id in orphans:
                self._conn.execute(
                    "DELETE FROM section_results WHERE section_id = ?",
                    (section_id,))
                self._conn.execute(
                    "DELETE FROM sections WHERE id = ?", (section_id,))
        return len(orphans)

    def schema_version(self) -> int:
        """The schema version stamped in this journal file."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'") \
            .fetchone()
        return int(row[0])

    def size_report(self) -> dict:
        """Row counts per table plus the database file size in bytes."""
        tables = ("campaigns", "class_results", "coordinate_results",
                  "sampler_state", "leases", "sections",
                  "section_results", "campaign_sections", "summaries",
                  "fabric_events")
        report = {
            table: self._conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in tables
        }
        try:
            report["file_bytes"] = Path(self.path).stat().st_size
        except OSError:
            report["file_bytes"] = 0
        return report

    # -- campaign summaries (JournalCache) -------------------------------------

    def store_summary(self, fingerprint: str, domain: str, name: str,
                      summary: str) -> None:
        """Store one campaign summary (JSON text) keyed by identity."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO summaries (fingerprint, domain, "
                "name, summary) VALUES (?, ?, ?, ?)",
                (fingerprint, domain, name, summary))

    def load_summary(self, fingerprint: str, domain: str) -> str | None:
        """The stored summary JSON for this identity, or None."""
        row = self._conn.execute(
            "SELECT summary FROM summaries WHERE fingerprint = ? AND "
            "domain = ?", (fingerprint, domain)).fetchone()
        return None if row is None else row[0]


class CampaignJournal:
    """Handle bound to one campaign inside an :class:`ExperimentJournal`."""

    def __init__(self, journal: ExperimentJournal, campaign_id: int):
        self.journal = journal
        self.campaign_id = campaign_id
        self._conn = journal._conn
        #: Set by :func:`open_campaign` when it constructed the journal
        #: from a path: the handle then owns the connection and
        #: :meth:`close` must be called so the WAL checkpoints into the
        #: main file when the campaign finishes (a never-closed
        #: connection leaves every result in the ``-wal`` sidecar).
        self.owned_journal: ExperimentJournal | None = None

    def close(self) -> None:
        """Release the journal connection if this handle owns it.

        A no-op for handles over caller-provided journals; safe to call
        more than once.
        """
        if self.owned_journal is not None:
            self.owned_journal.close()
            self.owned_journal = None

    # -- status ---------------------------------------------------------------

    @property
    def status(self) -> str:
        return self._conn.execute(
            "SELECT status FROM campaigns WHERE id = ?",
            (self.campaign_id,)).fetchone()[0]

    def mark_complete(self) -> None:
        self._conn.execute(
            "UPDATE campaigns SET status = 'complete' WHERE id = ?",
            (self.campaign_id,))
        self._conn.commit()

    def clear(self) -> None:
        """Discard every journaled result of this campaign (fresh start).

        The campaign's *links* into the section store are dropped, but
        the shared section rows themselves survive — they belong to
        every campaign whose program contains an identical section, and
        re-running this campaign fresh will re-derive (and compose
        from) them.
        """
        with self._conn:
            for table in ("class_results", "coordinate_results",
                          "sampler_state", "leases", "campaign_sections",
                          "fabric_events"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE campaign_id = ?",
                    (self.campaign_id,))
            self._conn.execute(
                "UPDATE campaigns SET status = 'running' WHERE id = ?",
                (self.campaign_id,))

    def link_section(self, section_id: int) -> None:
        """Mark this campaign as referencing a stored section."""
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO campaign_sections (campaign_id, "
                "section_id) VALUES (?, ?)",
                (self.campaign_id, section_id))

    # -- full-scan classes ----------------------------------------------------

    def record_class(self, axis: int, first_slot: int,
                     rows: Iterable[tuple[int, str, int, str]]) -> None:
        """Journal one live class atomically.

        ``rows`` holds ``(bit, outcome_value, end_cycle, trap)`` for each
        of the class's representative experiments.  The transaction is
        the crash-tolerance unit: a class is journaled entirely or not
        at all, so resumes never see half a class.
        """
        self.record_classes([(axis, first_slot, rows)])

    def record_classes(
            self,
            classes: Iterable[tuple[int, int, Iterable]]) -> None:
        """Journal many live classes in one transaction.

        ``classes`` holds ``(axis, first_slot, rows)`` triples in
        :meth:`record_class` form.  Used when composing from the
        section store, where dozens of classes arrive at once and
        per-class transactions would pay one fsync each; atomicity per
        class still holds because the whole batch commits together.
        """
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO class_results (campaign_id, "
                "axis, first_slot, bit, outcome, end_cycle, trap) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(self.campaign_id, axis, first_slot, bit, outcome,
                  end_cycle, trap)
                 for axis, first_slot, rows in classes
                 for bit, outcome, end_cycle, trap in rows])

    def completed_classes(self) \
            -> dict[tuple[int, int], list[tuple[int, Outcome, int, str]]]:
        """Journaled classes: ``(axis, first_slot)`` → per-bit rows."""
        out: dict[tuple[int, int], list] = {}
        for axis, first_slot, bit, outcome, end_cycle, trap in \
                self._conn.execute(
                    "SELECT axis, first_slot, bit, outcome, end_cycle, "
                    "trap FROM class_results WHERE campaign_id = ? "
                    "ORDER BY axis, first_slot, bit",
                    (self.campaign_id,)):
            out.setdefault((axis, first_slot), []).append(
                (bit, Outcome(outcome), end_cycle, trap))
        return out

    def merge_class(self, axis: int, first_slot: int,
                    rows: Iterable[tuple[int, str, int, str]]) -> bool:
        """Journal one class idempotently; False when already journaled.

        The distributed coordinator's at-least-once delivery funnel: a
        result submission that arrives twice — a worker whose lease
        expired but whose TCP stream survived, a retransmit after a
        reconnect — merges into the journal exactly once, and the
        return value lets the caller keep its accounting exactly-once
        too.  Experiments are deterministic, so a duplicate submission
        necessarily carries the same rows; the first one wins.
        """
        row = self._conn.execute(
            "SELECT 1 FROM class_results WHERE campaign_id = ? AND "
            "axis = ? AND first_slot = ? LIMIT 1",
            (self.campaign_id, axis, first_slot)).fetchone()
        if row is not None:
            return False
        self.record_class(axis, first_slot, rows)
        return True

    def discard_classes(self,
                        keys: Iterable[tuple[int, int]]) -> int:
        """Delete journaled classes so they can be re-executed.

        The byzantine-recovery path: when cross-check verification
        catches a worker returning wrong bytes, every class it
        delivered that was never independently verified is discarded
        here and re-queued — first-wins merging means a poisoned first
        copy can only be displaced by deleting it.  Also used to drop
        partially salvaged classes whose row count disagrees with the
        domain's expected experiment weight.  Returns rows deleted.
        """
        keys = list(keys)
        if not keys:
            return 0
        with self._conn:
            before = self._conn.total_changes
            self._conn.executemany(
                "DELETE FROM class_results WHERE campaign_id = ? AND "
                "axis = ? AND first_slot = ?",
                [(self.campaign_id, axis, first_slot)
                 for axis, first_slot in keys])
            return self._conn.total_changes - before

    # -- fabric event log -----------------------------------------------------

    def record_event(self, kind: str, *, worker: str = "",
                     detail: str = "", at: float = 0.0) -> None:
        """Append one supervision/integrity incident to the fabric log.

        Kinds in use: ``quarantine``, ``probation``, ``crc-reject``,
        ``shape-reject``, ``crosscheck-mismatch``, ``crosscheck-stale``,
        ``byzantine``, ``discard``, ``poison-split``, ``poison-key``,
        ``salvage-prune``.  The log is diagnostic — campaign results
        never depend on it — but it is what ``repro fabric`` renders
        and what the chaos-soak telemetry uploads.
        """
        with self._conn:
            self._conn.execute(
                "INSERT INTO fabric_events (campaign_id, at, worker, "
                "kind, detail) VALUES (?, ?, ?, ?, ?)",
                (self.campaign_id, at, worker, kind, detail))

    def events(self) -> list[dict]:
        """Journaled fabric events of this campaign, oldest first."""
        return [
            {"at": at, "worker": worker, "kind": kind, "detail": detail}
            for at, worker, kind, detail in self._conn.execute(
                "SELECT at, worker, kind, detail FROM fabric_events "
                "WHERE campaign_id = ? ORDER BY id",
                (self.campaign_id,))
        ]

    # -- work leases ----------------------------------------------------------

    def record_lease(self, shard: int, keys: str, *, attempts: int,
                     status: str, worker: str = "") -> None:
        """Durably record one shard lease's retry state.

        ``keys`` is the canonical JSON encoding of the shard's planned
        class keys; a restarted coordinator uses it to detect that the
        shard plan changed (different ``--shards``) and discard stale
        attempt counts instead of mis-applying them.
        """
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO leases (campaign_id, shard, "
                "keys, worker, attempts, status) VALUES (?, ?, ?, ?, "
                "?, ?)",
                (self.campaign_id, shard, keys, worker, attempts,
                 status))

    def lease_states(self) -> dict[int, dict]:
        """Journaled lease state per shard index."""
        return {
            shard: {"keys": keys, "worker": worker,
                    "attempts": attempts, "status": status}
            for shard, keys, worker, attempts, status in
            self._conn.execute(
                "SELECT shard, keys, worker, attempts, status FROM "
                "leases WHERE campaign_id = ?", (self.campaign_id,))
        }

    # -- sampled experiments --------------------------------------------------

    def record_experiments(self, rows: Iterable[tuple[int, int, int,
                                                      str]]) -> None:
        """Journal distinct sampled experiments ``(axis, first_slot,
        bit, outcome_value)`` in one transaction."""
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO class_results (campaign_id, "
                "axis, first_slot, bit, outcome) VALUES (?, ?, ?, ?, ?)",
                [(self.campaign_id, axis, first_slot, bit, outcome)
                 for axis, first_slot, bit, outcome in rows])

    def completed_experiments(self) \
            -> dict[tuple[int, int, int], Outcome]:
        """Journaled sampled experiments keyed ``(axis, first_slot, bit)``."""
        return {
            (axis, first_slot, bit): Outcome(outcome)
            for axis, first_slot, bit, outcome in self._conn.execute(
                "SELECT axis, first_slot, bit, outcome FROM "
                "class_results WHERE campaign_id = ?",
                (self.campaign_id,))
        }

    # -- brute-force slots ----------------------------------------------------

    def record_slot(self, slot: int,
                    rows: Iterable[tuple[int, int, str]]) -> None:
        """Journal one injection slot of a brute-force scan atomically.

        ``rows`` holds ``(axis, bit, outcome_value)`` for every raw
        coordinate of the slot.
        """
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO coordinate_results (campaign_id, "
                "slot, axis, bit, outcome) VALUES (?, ?, ?, ?, ?)",
                [(self.campaign_id, slot, axis, bit, outcome)
                 for axis, bit, outcome in rows])

    def discard_slots(self, slots: Iterable[int]) -> None:
        """Delete journaled slots (salvage-truncated) for re-execution."""
        with self._conn:
            self._conn.executemany(
                "DELETE FROM coordinate_results WHERE campaign_id = ? "
                "AND slot = ?",
                [(self.campaign_id, slot) for slot in slots])

    def completed_slots(self) -> dict[int, list[tuple[int, int, Outcome]]]:
        """Journaled slots: slot → ``(axis, bit, outcome)`` in scan order."""
        out: dict[int, list] = {}
        for slot, axis, bit, outcome in self._conn.execute(
                "SELECT slot, axis, bit, outcome FROM coordinate_results "
                "WHERE campaign_id = ? ORDER BY slot, axis, bit",
                (self.campaign_id,)):
            out.setdefault(slot, []).append((axis, bit, Outcome(outcome)))
        return out

    # -- sampler RNG position -------------------------------------------------

    def record_sampler_state(self, draws: int, rng_state: str) -> None:
        """Journal the sampler's post-draw RNG position."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO sampler_state (campaign_id, "
                "draws, rng_state) VALUES (?, ?, ?)",
                (self.campaign_id, draws, rng_state))

    def sampler_state(self) -> tuple[int, str] | None:
        """The journaled ``(draws, rng_state)``, or None if unrecorded."""
        row = self._conn.execute(
            "SELECT draws, rng_state FROM sampler_state WHERE "
            "campaign_id = ?", (self.campaign_id,)).fetchone()
        return None if row is None else (row[0], row[1])

    def verify_sampler_state(self, draws: int, rng_state: str) -> None:
        """Check (or record) the sampler RNG position for exact resume.

        On first run the position is journaled; on resume the re-drawn
        position must match bit-for-bit, otherwise the journal belongs
        to a different sample sequence and resuming would corrupt the
        result.
        """
        stored = self.sampler_state()
        if stored is None:
            self.record_sampler_state(draws, rng_state)
            return
        if stored != (draws, rng_state):
            raise JournalMismatchError(
                f"sampler RNG position after {draws} draws does not "
                f"match the journaled campaign (journal recorded "
                f"{stored[0]} draws); the seed, sampler or sample count "
                f"changed — use resume=False to restart")


@dataclass(frozen=True)
class SalvageReport:
    """What :func:`salvage_journal` pulled out of a corrupt file."""

    #: Where the corrupt original was moved (``<path>.corrupt``).
    source: str
    #: Rows recovered per table.
    recovered: dict = field(default_factory=dict)
    #: Tables whose read hit corruption (recovery stopped mid-table,
    #: so their counts are lower bounds on what the file once held).
    truncated: tuple = ()

    @property
    def total_rows(self) -> int:
        return sum(self.recovered.values())


def salvage_journal(path: str | Path) -> SalvageReport:
    """Rebuild a corrupt journal in place from its readable rows.

    Torn-write recovery: a journal that fails ``quick_check`` (a crash
    mid-checkpoint, a truncated copy, disk corruption) is moved aside
    to ``<path>.corrupt`` and a fresh journal is rebuilt at ``path``
    by reading each known table row-by-row until the first unreadable
    page.  SQLite's transactionality means every recovered row was
    durably committed; what is *lost* is any row on a damaged page —
    which can truncate a class mid-way, so resuming layers must
    validate class row counts (:func:`invalid_classes`) instead of
    trusting recovered classes blindly.
    """
    path = str(path)
    corrupt = path + ".corrupt"
    os.replace(path, corrupt)
    for suffix in ("-wal", "-shm"):
        try:
            os.replace(path + suffix, corrupt + suffix)
        except OSError:
            pass
    recovered: dict[str, int] = {}
    truncated: list[str] = []
    fresh = ExperimentJournal(path)
    try:
        source = sqlite3.connect(corrupt)
        try:
            for table, columns in SALVAGE_TABLES:
                if table == "meta":
                    continue  # the fresh journal's version stamp wins
                rows, clean = _read_rows(source, table, columns)
                if not clean:
                    truncated.append(table)
                if rows:
                    cols = ", ".join(columns)
                    marks = ", ".join("?" * len(columns))
                    with fresh._conn:
                        fresh._conn.executemany(
                            f"INSERT OR IGNORE INTO {table} ({cols}) "
                            f"VALUES ({marks})", rows)
                recovered[table] = len(rows)
        finally:
            source.close()
    finally:
        fresh.close()
    return SalvageReport(source=corrupt, recovered=recovered,
                         truncated=tuple(truncated))


def _read_rows(conn: sqlite3.Connection, table: str,
               columns: tuple[str, ...]) -> tuple[list, bool]:
    """Read as many rows as the damaged file yields; False if it broke."""
    rows: list = []
    try:
        cursor = conn.execute(
            f"SELECT {', '.join(columns)} FROM {table}")
    except sqlite3.DatabaseError:
        return rows, False
    while True:
        try:
            row = cursor.fetchone()
        except sqlite3.DatabaseError:
            return rows, False
        if row is None:
            return rows, True
        rows.append(row)


def invalid_classes(completed: Mapping, expected: Mapping) -> list:
    """Keys whose journaled rows disagree with the expected bit count.

    ``completed`` maps class keys to per-bit row lists
    (:meth:`CampaignJournal.completed_classes` form); ``expected`` maps
    keys to the domain's experiment count for that class.  A healthy
    journal never contains a partial class (classes commit atomically),
    but a *salvaged* one can — page loss truncates committed
    transactions — and the distributed merge path must also never
    trust a worker's row count.  Any key listed here must be discarded
    and re-executed, not merged.
    """
    bad = []
    for key, rows in completed.items():
        count = expected.get(key)
        if count is None:
            continue
        if len(rows) != count \
                or [row[0] for row in rows] != list(range(count)):
            bad.append(key)
    return bad


def open_campaign(journal, golden, domain, kind: str,
                  params: Mapping) -> CampaignJournal | None:
    """Resolve a ``journal=`` argument into a campaign handle.

    Accepts ``None`` (journaling disabled), an :class:`ExperimentJournal`
    or a path.  The campaign key combines the program's content
    fingerprint, the fault domain, the campaign kind and its parameters.
    """
    if journal is None:
        return None
    # Imported lazily: database.py imports the runner module, which
    # imports this one.
    from .database import program_fingerprint

    owned = None
    if not isinstance(journal, ExperimentJournal):
        journal = owned = ExperimentJournal(journal)
    handle = journal.campaign(
        fingerprint=program_fingerprint(golden.program),
        domain=domain.name, kind=kind, params=params,
        cycles=golden.cycles)
    handle.owned_journal = owned
    return handle
