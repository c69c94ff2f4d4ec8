"""Composing campaign results from the cross-campaign section store.

:class:`SectionComposer` is the bridge between one campaign run and the
journal's section store (schema v2).  On construction it fingerprints
the golden run's sections (:mod:`repro.faultspace.sections`), interns
them in the journal and links them to the campaign; during the run it
answers two questions:

* *compose*: does the store already hold results — written by **any**
  previous campaign, typically a different program variant or an
  earlier sweep — for every requested experiment of one (slot, axis)?
  If so, the rows are returned without executing anything and the
  campaign lifecycle merges them exactly as it merges resumed journal
  rows.
* *store*: freshly executed experiments are written back first-wins
  (INSERT OR IGNORE), so concurrent or repeated campaigns agree with
  the dist fabric's at-least-once merge discipline.

Soundness rests on the section fingerprint (see
``faultspace/sections.py``): equal fingerprints imply identical entry
state, identical reachable code, identical absolute cycle window and
identical executor budget, so every (slot, axis, bit) experiment in
the window has identical outcome, end cycle and trap.  Two deliberate
exclusions keep the store trustworthy:

* **Synthesized timeouts never enter the store.**  The process pool's
  wall-clock shard guard classifies abandoned experiments as TIMEOUT —
  a policy artifact of one run's scheduling, not a property of the
  program.  Campaigns only store results the simulator actually
  produced.
* **Brute-force scans neither read nor write the store.**  They exist
  to validate the def/use pruning against ground truth; composing
  their coordinates from pruned-campaign results would make that
  validation circular.
"""

from __future__ import annotations

import json

from ..faultspace.sections import build_section_map
from .journal import CampaignJournal


class SectionComposer:
    """Section-store view of one campaign: compose hits, store misses."""

    def __init__(self, handle: CampaignJournal, golden, domain,
                 params: dict | None):
        self.journal = handle.journal
        self.map = build_section_map(golden, domain, params)
        self._ids: dict[int, int] = {}
        for section in self.map:
            detail = json.dumps({
                "slots": section.slots,
                "blocks": len(section.leaders),
                "escape": section.escape,
            }, sort_keys=True)
            section_id = self.journal.section(
                fingerprint=section.fingerprint,
                program=golden.program.name, domain=domain.name,
                first_slot=section.first_slot,
                last_slot=section.last_slot, detail=detail)
            self._ids[section.index] = section_id
            handle.link_section(section_id)
        self._rows: dict[int, dict] = {}

    # -- store access ---------------------------------------------------------

    def _section_rows(self, index: int) -> dict:
        """Stored rows of one section, loaded lazily once per run."""
        cached = self._rows.get(index)
        if cached is None:
            cached = self.journal.section_rows(self._ids[index])
            self._rows[index] = cached
        return cached

    def compose(self, slot: int, axis: int, bits):
        """Stored ``(bit, outcome, end_cycle, trap)`` rows, or ``None``.

        Returns rows only when *every* bit in ``bits`` is stored, so a
        partially stored class re-executes whole.
        """
        stored = self._section_rows(self.map.owner(slot).index)
        rows = []
        for bit in bits:
            hit = stored.get((slot, axis, bit))
            if hit is None:
                return None
            rows.append((bit, *hit))
        return rows

    def store(self, slot: int, axis: int, rows) -> None:
        """Write freshly executed ``(bit, outcome, end_cycle, trap)``
        rows of one (slot, axis) into the section store."""
        section_id = self._ids[self.map.owner(slot).index]
        self.journal.merge_section_rows(section_id, [
            (slot, axis, bit, outcome.value, end_cycle, trap)
            for bit, outcome, end_cycle, trap in rows])


def build_composer(handle, golden, domain, params):
    """A :class:`SectionComposer` when journaled, else ``None``.

    Composition is inseparable from journaling: without a journal there
    is no store to compose from, and the returned ``None`` makes every
    call site degrade to exactly the pre-section behaviour.
    """
    if handle is None:
        return None
    return SectionComposer(handle, golden, domain, params)
