"""Campaign coordinator: owns the journal, leases shards to workers.

One coordinator process runs the distributed campaign.  It records the
golden run, plans the same contiguous cost-balanced shards the
in-process pool would (:func:`~repro.campaign.parallel.shard_by_cost`
over the *full* live-class list, so shard indices are stable across
coordinator restarts), and serves a TCP endpoint where workers pull
:class:`~.leases.ShardLease` grants and stream per-class results back.

**Why the result is bit-for-bit identical to a serial run.**  Every
experiment is a deterministic function of the golden run and its fault
coordinate; workers prove they compute the same function by rebuilding
the program from shipped source and matching both the content
fingerprint and the golden cycle count before they may execute.  A class
result therefore has exactly one possible value no matter which worker
produces it, or how many times.  Delivery is at-least-once (lease
expiry, reconnects and retransmits can all duplicate submissions);
accounting is exactly-once because every submission funnels through
:meth:`~repro.campaign.journal.CampaignJournal.merge_class`, which
accepts only the first copy.  Assembly then walks the live classes in
canonical (serial) iteration order, reading the journal — the same
merge the resume path performs — so ``class_outcomes``, record lists
and every derived count are independent of worker count, scheduling,
chaos and restarts.

**Failure handling** is delegated to the :class:`~.leases.LeaseBoard`:
expired or orphaned leases are re-queued with exponential backoff and a
retry budget; shards that exhaust it degrade into
``ExecutionReport.missing`` instead of hanging the campaign.  The
coordinator itself is restartable: results and lease retry state are
journaled as they arrive, so a new coordinator pointed at the same
journal resumes with only in-flight work lost.

**Supervision and integrity** sit on top of the lease board:

* A :class:`~.supervision.WorkerSupervisor` scores every lease expiry,
  disconnect and integrity rejection; workers that keep failing are
  quarantined (no leases, no accepted results) and re-admitted through
  probation.  Quarantines are journaled as fabric events.
* Every ``result`` frame's CRC is re-derived from the decoded payload
  and its rows are validated against the domain's expected experiment
  count *before* any accounting — a corrupted frame costs the sender
  failure score but never touches the journal.
* ``crosscheck`` samples a deterministic fraction of class keys for
  re-execution on a *second* worker (verify leases: negative lease id,
  ``shard == -1``).  A digest mismatch discards the journaled row and
  re-queues the key as a tiebreak shard excluded from both disputants;
  the third, independent result outvotes the liar, which is quarantined
  permanently and has every unverified delivery discarded and re-queued.
* A shard whose execution keeps *killing* distinct workers is bisected
  (:meth:`~.leases.LeaseBoard.split_shard`) until the poisonous key is
  isolated and reported instead of burning the whole shard's budget.

The section-store write of freshly executed classes is deferred to
assembly time, after all discards have settled, so a byzantine row can
never poison the cross-campaign section store.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Callable

from ...faultspace.domain import FaultDomain, MEMORY, get_domain
from ..database import program_fingerprint
from ..experiment import ExecutorConfig
from ..golden import GoldenRun
from ..journal import ExecutionReport, ExperimentJournal
from ..outcomes import Outcome
from ..parallel import RetryPolicy, shard_by_cost, tune_shard_count
from ..runner import Campaign, FullScan, campaign_params
from .chaos import PLAN_ENV, ChaosPlan, plan_from_spec
from .leases import FAILED, LEASED, LeaseBoard
from .protocol import (PROTOCOL_VERSION, ProtocolError, read_frame,
                       result_digest, write_frame)
from .supervision import QUARANTINED, SupervisionPolicy, WorkerSupervisor

ProgressCallback = Callable[[int, int], None]

#: Default shard count: finer than one-per-worker so a lost node's work
#: re-distributes across the survivors instead of doubling one of them.
DEFAULT_SHARDS = 8

#: Valid outcome strings a result row may carry.
_OUTCOME_VALUES = frozenset(outcome.value for outcome in Outcome)

#: Keys per verify (cross-check) lease: small batches keep the second
#: worker's turnaround short so disputes surface quickly.
VERIFY_BATCH = 8


def _canonical_keys(keys) -> str:
    """Deterministic JSON identity of a shard's planned key list."""
    return json.dumps([list(key) for key in keys],
                      separators=(",", ":"))


class DistCoordinator:
    """Serve one full-scan campaign to TCP workers.

    ``shards`` fixes the lease granularity (finer shards rebalance
    better after node loss; coarser ones amortize more snapshot
    fast-forwarding).  ``expected_workers`` is an optional planning
    hint: when set and the campaign's estimated cycle cost is small
    (:data:`~repro.campaign.parallel.SMALL_CAMPAIGN_CYCLES`), the
    granularity collapses to one shard per worker so lease round-trips
    stop dominating tiny scans.  ``journal`` is where results and lease state
    persist — pass a real path to make the coordinator restartable;
    ``None`` journals to a private in-memory database, which still
    provides the idempotent-merge funnel but not crash tolerance.

    ``stop_after_results`` is a test hook: the coordinator abruptly
    drops every connection and returns ``None`` after accepting that
    many fresh class results, simulating a coordinator crash mid-flight
    (the journal keeps everything accepted so far).  A ``chaos`` plan
    whose :attr:`~.chaos.ChaosPlan.stop_coordinator_after` is set maps
    onto the same hook, so one seeded schedule drives both sides of the
    fabric.

    ``crosscheck`` is the fraction of class keys (deterministically
    selected per key) whose first delivery is re-executed on a second
    worker and byte-compared; ``supervision`` tunes the worker circuit
    breaker (:class:`~.supervision.SupervisionPolicy`).
    """

    def __init__(self, golden: GoldenRun, *,
                 domain: FaultDomain | str = MEMORY,
                 executor_config: ExecutorConfig | None = None,
                 policy: RetryPolicy | None = None,
                 shards: int = DEFAULT_SHARDS,
                 expected_workers: int | None = None,
                 journal=None, resume: bool = True,
                 keep_records: bool = False,
                 progress: ProgressCallback | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 sock: socket.socket | None = None,
                 stop_after_results: int | None = None,
                 supervision: SupervisionPolicy | None = None,
                 crosscheck: float = 0.0,
                 chaos: ChaosPlan | None = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0.0 <= crosscheck <= 1.0:
            raise ValueError(
                f"crosscheck must be in [0, 1], got {crosscheck}")
        self.golden = golden
        self.domain = get_domain(domain)
        config = executor_config or ExecutorConfig()
        self.config = dataclasses.replace(config, domain=self.domain.name)
        self.policy = policy or RetryPolicy()
        if config.lease_timeout is not None:
            self.policy = dataclasses.replace(
                self.policy, shard_timeout=config.lease_timeout)
        self.shards = shards
        self.expected_workers = expected_workers
        self.journal = journal
        self.resume = resume
        self.keep_records = keep_records
        self.progress = progress
        self.host = host
        self.port = port
        self._sock = sock
        self.chaos = chaos
        if stop_after_results is None and chaos is not None:
            stop_after_results = chaos.stop_coordinator_after
        self.stop_after_results = stop_after_results
        self.supervisor = WorkerSupervisor(
            policy=supervision or SupervisionPolicy())
        self.crosscheck = crosscheck
        #: ``(host, port)`` actually bound, set once serving.
        self.address: tuple[str, int] | None = None
        self.stopped = False
        self.report = ExecutionReport()
        self._worker_units: Counter = Counter()
        self._accepted = 0
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._conn_tasks: set = set()
        self._last_seen: dict[str, float] = {}
        self._lease_cache: dict[int, tuple] = {}
        # Cross-check state: keys awaiting a second, independent
        # execution; verify leases in flight; open disputes.
        self._check_pending: dict[tuple, tuple[str, int]] = {}
        self._check_inflight: dict[int, tuple[str, tuple]] = {}
        self._inflight_keys: set = set()
        self._tiebreaks: dict[tuple, dict] = {}
        #: Per worker: merged-but-not-yet-verified keys (what a
        #: byzantine conviction discards).
        self._delivered: dict[str, set] = {}
        self._next_verify_id = 0
        self._drain_deadline: float | None = None

    # -- identity shipped to workers -------------------------------------------

    def _campaign_message(self) -> dict:
        program = self.golden.program
        return {
            "type": "campaign",
            "version": PROTOCOL_VERSION,
            "program": {
                "name": program.name,
                "source": program.source,
                "ram_size": program.ram_size,
            },
            "fingerprint": program_fingerprint(program),
            "cycles": self.golden.cycles,
            "config": dataclasses.asdict(self.config),
        }

    # -- lifecycle --------------------------------------------------------------

    def run(self):
        """Serve until the campaign finishes; return its result.

        Returns the same :class:`~repro.campaign.runner.CampaignResult`
        a serial run would, or ``None`` when the ``stop_after_results``
        crash hook fired.
        """
        return asyncio.run(self._main())

    async def _main(self):
        golden, domain = self.golden, self.domain
        # The journal connection must be created in the serving thread
        # (sqlite3 objects are thread-affine) — hence here, not __init__.
        owned = None
        journal = self.journal
        if journal is None:
            journal = owned = ExperimentJournal(":memory:")
        # The shared lifecycle's prologue opens (and, without resume,
        # clears) the journal, validates resumed classes — a salvaged
        # journal can hold partial ones — and composes store-known
        # classes, which are then never leased to any worker.  The same
        # campaign key as the inline and pool backends lets one journal
        # resume under any of them.
        campaign = Campaign(
            FullScan(golden, domain, domain.build_partition(golden),
                     self.keep_records),
            campaign_params(golden, self.config), journal=journal,
            resume=self.resume)
        try:
            campaign.open()
            return await self._serve(campaign)
        finally:
            # Close whichever journal this coordinator opened itself —
            # the in-memory fallback or a path-opened file (closing
            # checkpoints the WAL into the main file, so the journal on
            # disk is whole, copyable and salvage-friendly afterwards).
            campaign.close()
            if owned is not None:
                owned.close()

    async def _serve(self, campaign: Campaign):
        self.campaign = campaign
        self.handle = campaign.handle
        self.report = campaign.report
        style = campaign.style
        completed = campaign.rows
        key_costs = {key: style.cost(key) for key in style.items}
        # Plan over the FULL live list: indices and key lists are then a
        # pure function of the campaign, stable across restarts, and the
        # journaled per-shard retry state stays meaningful.  Small
        # campaigns collapse the lease granularity to one shard per
        # expected worker first (also a pure function of the arguments,
        # so restarts with the same worker count re-derive it).
        parts = tune_shard_count(sum(key_costs.values()), self.shards,
                                 self.expected_workers)
        planned = shard_by_cost(list(key_costs), list(key_costs.values()),
                                parts)
        board = LeaseBoard(policy=self.policy, key_costs=key_costs)
        journaled_leases = self.handle.lease_states()
        for index, keys in enumerate(planned):
            board.add_shard(index, keys,
                            [key for key in keys if key not in completed])
            stored = journaled_leases.get(index)
            if stored is not None and stored["keys"] == _canonical_keys(keys):
                # Same plan as the journaled run: carry the retry budget
                # across the restart.  A different --shards (different
                # key list) invalidates the stored state instead.
                board.restore(index, attempts=stored["attempts"],
                              status=stored["status"])
        self.board = board
        #: Classes trusted before any worker connected (resumed or
        #: composed) — assembly must not re-store these.
        self._initial_completed = frozenset(completed)
        self._done_total = len(style.items)
        self._done_count = self.report.resumed
        self._done = asyncio.Event()
        self._journal_leases()
        self._maybe_finish()

        if self._sock is not None:
            server = await asyncio.start_server(self._handle_worker,
                                                sock=self._sock)
        else:
            server = await asyncio.start_server(self._handle_worker,
                                                host=self.host,
                                                port=self.port)
        self.address = server.sockets[0].getsockname()[:2]
        watchdog = asyncio.create_task(self._watchdog())
        try:
            await self._done.wait()
        finally:
            watchdog.cancel()
            if not self.stopped:
                # Orderly end: tell every connected worker before the
                # transports close, so they exit instead of reconnecting.
                for writer in list(self._writers.values()):
                    try:
                        write_frame(writer, {"type": "done"})
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
            server.close()
            await server.wait_closed()
            # Give sessions a moment to finish their own done/drain
            # handshakes first — closing a transport under a worker
            # that has not read its done frame yet risks a reset that
            # discards it.  Then close whatever is left.
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=2.0)
            for writer in list(self._writers.values()):
                writer.close()
            # Let tasks stuck on now-closed transports return before the
            # loop shuts down (else asyncio logs their cancellation).
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=2.0)
        if self.stopped:
            return None
        return self._assemble()

    async def _watchdog(self):
        while True:
            await asyncio.sleep(self.policy.poll_interval)
            now = time.monotonic()
            # Capture holders before expiry clears the leases — the
            # supervisor charges the worker, not the shard.
            overdue = [shard.lease.worker for shard in self.board.shards()
                       if shard.status == LEASED
                       and shard.lease is not None
                       and now >= shard.lease.deadline]
            if self.board.expire(now):
                for worker in overdue:
                    self._charge_failure(worker, now,
                                         reason="lease expired")
                self._check_poison(now)
                self._journal_leases()
            self._drain_crosschecks(now)
            self._maybe_finish()

    # -- per-connection protocol ------------------------------------------------

    async def _handle_worker(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter):
        name = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            conn = writer.get_extra_info("socket")
            if conn is not None:
                # Lease grants and done frames are tiny; don't let
                # Nagle batch them behind the workers' backs.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = await read_frame(reader)
            if hello is None or hello.get("type") != "hello":
                return
            if hello.get("version") != PROTOCOL_VERSION:
                write_frame(writer, {
                    "type": "reject",
                    "reason": f"protocol version {hello.get('version')} != "
                              f"{PROTOCOL_VERSION}"})
                await writer.drain()
                return
            name = str(hello.get("name") or "worker")
            if name in self._writers:
                # Two live connections must not share an identity: lease
                # accounting is per worker name.
                name = f"{name}#{id(writer) & 0xffff:04x}"
            self._writers[name] = writer
            self._last_seen[name] = time.monotonic()
            write_frame(writer, self._campaign_message())
            await writer.drain()
            ready = await read_frame(reader)
            if ready is None or ready.get("type") != "ready":
                # "error" carries the worker's verification diagnostic
                # (stale checkout); nothing to grant either way.
                return
            await self._session(name, reader, writer)
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            if name is not None:
                self._writers.pop(name, None)
                # On the simulated-crash path connections die *without*
                # lease bookkeeping, exactly as a killed process would.
                if not self.stopped:
                    now = time.monotonic()
                    if self.board.release_worker(name, now):
                        self._charge_failure(
                            name, now, reason="disconnected mid-lease")
                        self._check_poison(now)
                        self._journal_leases()
                    self._release_verifies(name)
                    self._maybe_finish()
            writer.close()

    async def _session(self, name: str, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter):
        while not self._done.is_set():
            frame = await read_frame(reader)
            if frame is None:
                return
            kind = frame.get("type")
            now = time.monotonic()
            self._last_seen[name] = now
            self.supervisor.seen(name, now)
            if kind == "request":
                write_frame(writer, self._grant(name, now))
                await writer.drain()
            elif kind == "result":
                self._accept_result(name, frame, now)
            elif kind == "lease_done":
                shard = int(frame["shard"])
                if shard < 0:
                    # A verify lease ran to completion; any key not
                    # answered (dropped frame) becomes grantable again.
                    self._release_verify_lease(int(frame["lease"]))
                else:
                    self.board.finish(shard, int(frame["lease"]), now)
                    self._journal_leases()
                self._maybe_finish()
            elif kind == "heartbeat":
                pass  # liveness only — progress, not heartbeats,
                #       extends lease deadlines
            else:
                raise ProtocolError(f"unexpected {kind!r} from {name!r}")
        # This session saw the campaign finish (often because its own
        # result finished it).  Tell the worker before the connection
        # closes — the serve loop's broadcast cannot reach it once this
        # handler's cleanup has unregistered the writer.
        if not self.stopped:
            write_frame(writer, {"type": "done"})
            await writer.drain()
            # Then read until the worker hangs up.  Closing while its
            # pipelined frames (the next request, a heartbeat) sit
            # unread would reset the connection, and a reset can
            # destroy the done frame before the worker reads it —
            # leaving it reconnecting against a dead port forever.
            try:
                async def _drain():
                    while await read_frame(reader) is not None:
                        pass
                await asyncio.wait_for(_drain(), timeout=2.0)
            except (TimeoutError, asyncio.TimeoutError, ProtocolError,
                    ConnectionError, OSError):
                pass

    # -- work granting ----------------------------------------------------------

    def _grant(self, name: str, now: float) -> dict:
        """The frame answering one worker's ``request``."""
        before = self.supervisor.status(name)
        if not self.supervisor.allowed(name, now):
            return {"type": "wait",
                    "seconds": self.supervisor.retry_after(name, now)}
        if before == QUARANTINED:
            # allowed() just graduated an expired quarantine.
            self.handle.record_event("probation", worker=name,
                                     at=time.time())
        grant = self.board.acquire(name, now)
        if grant is None:
            verify = self._grant_verify(name, now)
            if verify is not None:
                return verify
            if self._check_pending:
                # Regular work is exhausted but cross-checks are
                # unresolved; hold the fleet until they settle (or the
                # watchdog's patience expires).
                return {"type": "wait",
                        "seconds": max(0.05, self.policy.heartbeat / 2)}
            return {"type": "done"}
        if isinstance(grant, float):
            return {"type": "wait", "seconds": grant}
        self._journal_leases()
        return {"type": "lease", "lease": grant.lease_id,
                "shard": grant.shard,
                "keys": [list(key) for key in grant.keys]}

    def _grant_verify(self, name: str, now: float) -> dict | None:
        """A verify lease re-executing other workers' sampled keys."""
        keys = sorted(
            key for key, (worker, _crc) in self._check_pending.items()
            if worker != name and key not in self._inflight_keys)
        if not keys:
            return None
        keys = keys[:VERIFY_BATCH]
        self._next_verify_id -= 1
        lease_id = self._next_verify_id
        self._check_inflight[lease_id] = (name, tuple(keys))
        self._inflight_keys.update(keys)
        return {"type": "lease", "lease": lease_id, "shard": -1,
                "verify": True, "keys": [list(key) for key in keys]}

    def _release_verify_lease(self, lease_id: int) -> None:
        entry = self._check_inflight.pop(lease_id, None)
        if entry is not None:
            self._inflight_keys.difference_update(entry[1])

    def _release_verifies(self, name: str) -> None:
        """A worker left; its in-flight verify keys become grantable."""
        for lease_id, (worker, _keys) in list(self._check_inflight.items()):
            if worker == name:
                self._release_verify_lease(lease_id)

    # -- result acceptance ------------------------------------------------------

    def _accept_result(self, name: str, frame: dict, now: float) -> None:
        if not self.supervisor.allowed(name, now):
            # Rejected outright: a late frame from a quarantined (worst
            # case: convicted-byzantine) worker must never win
            # first-merge on a key the campaign just discarded.
            return
        try:
            axis, first_slot = (int(v) for v in frame["key"])
            rows = [(int(bit), str(outcome), int(end_cycle), str(trap))
                    for bit, outcome, end_cycle, trap in frame["rows"]]
            shard = int(frame["shard"])
        except (KeyError, TypeError, ValueError):
            self._reject(name, None, now, kind="shape-reject",
                         reason="malformed result frame")
            return
        key = (axis, first_slot)
        digest = result_digest(key, rows)
        crc = frame.get("crc")
        if crc is None or int(crc) != digest:
            self._reject(name, key, now, kind="crc-reject",
                         reason="frame CRC disagrees with payload")
            return
        if not self._valid_shape(key, rows):
            self._reject(name, key, now, kind="shape-reject",
                         reason="rows disagree with the domain's "
                                "expected experiment count")
            return
        if shard < 0:
            self._accept_verify(name, key, digest, now)
            self._maybe_finish()
            return
        dispute = self._tiebreaks.get(key)
        if dispute is not None:
            suspects = {worker for worker, _crc in dispute["votes"]}
            if name in suspects and shard != dispute["shard"]:
                return  # stale retransmit from a disputing worker
            self._resolve_tiebreak(name, key, digest, now, dispute)
        self.board.progress(shard, key, now, worker=name)
        if self.handle.merge_class(axis, first_slot, rows):
            # First delivery: count it, and credit the worker.  Late or
            # duplicate copies (expired lease, retransmit) fall through —
            # the journal already holds the identical rows.  The section
            # store is fed at assembly time, after discards settle.
            self.supervisor.record_success(name, now)
            self._delivered.setdefault(name, set()).add(key)
            if dispute is None and self._crosscheck_selected(key):
                self._check_pending[key] = (name, digest)
                self._drain_deadline = None
                self.report.crosschecked += 1
            self.report.executed += 1
            self.report.convergence_hits += int(frame.get("hits", 0))
            self.report.slice_hits += int(frame.get("skips", 0))
            self.report.scalar_tail_experiments += int(
                frame.get("tails", 0))
            self._worker_units[name] += 1
            self._done_count += 1
            self._accepted += 1
            if self.progress is not None:
                self.progress(self._done_count, self._done_total)
            if (self.stop_after_results is not None
                    and self._accepted >= self.stop_after_results):
                self.stopped = True
                self._done.set()
                return
        self._maybe_finish()

    def _accept_verify(self, name: str, key: tuple, digest: int,
                       now: float) -> None:
        """Compare a cross-check re-execution against the first copy."""
        entry = self._check_pending.get(key)
        if entry is None:
            return  # duplicate or post-patience verify delivery
        worker, crc = entry
        if worker == name:
            return  # a worker must never confirm itself
        del self._check_pending[key]
        self._inflight_keys.discard(key)
        if crc == digest:
            self.supervisor.record_success(name, now)
            # Verified: the original delivery survives any later
            # conviction of its worker.
            self._delivered.get(worker, set()).discard(key)
            return
        # Dispute: someone returned wrong bytes, but two samples cannot
        # say who.  Discard the journaled row and re-queue the key for
        # a third, independent execution that outvotes the liar.
        self.report.crosscheck_mismatches += 1
        self.handle.record_event(
            "crosscheck-mismatch", worker=worker, at=time.time(),
            detail=f"{list(key)}: {crc} vs {digest} (verifier {name})")
        if self.handle.discard_classes([key]):
            self.report.discarded_results += 1
            self._done_count -= 1
        self._delivered.get(worker, set()).discard(key)
        policy = self.supervisor.policy
        shard_index = self.board.requeue(
            [key], now=now, excluded=frozenset({worker, name}),
            exclusion_seconds=policy.exclusion_seconds)
        self._tiebreaks[key] = {"shard": shard_index,
                                "votes": [(worker, crc), (name, digest)]}
        self._journal_leases()

    def _resolve_tiebreak(self, name: str, key: tuple, digest: int,
                          now: float, dispute: dict) -> None:
        """A third execution arrived; outvote and convict the liar."""
        self._tiebreaks.pop(key, None)
        votes = dispute["votes"]
        suspects = {worker for worker, _crc in votes}
        if name in suspects:
            # The exclusion window lapsed and a disputant re-delivered:
            # liveness won, attribution lost.  Accept the result but
            # account the key as unverifiable.
            self.report.crosscheck_unverified += 1
            self.handle.record_event(
                "crosscheck-stale", worker=name, at=time.time(),
                detail=f"tiebreak for {list(key)} fell back to a "
                       f"disputant")
            return
        for worker, crc in votes:
            if crc != digest:
                self._convict(worker, now, key=key)

    def _convict(self, name: str, now: float, *, key: tuple) -> None:
        """Permanent quarantine plus rollback of every unverified
        delivery — the byzantine containment path."""
        self.supervisor.quarantine(name, now, permanent=True,
                                   reason="outvoted by cross-check")
        self.handle.record_event(
            "byzantine", worker=name, at=time.time(),
            detail=f"outvoted on {list(key)}; permanently quarantined")
        suspect_keys = sorted(self._delivered.pop(name, set()))
        if not suspect_keys:
            return
        self.handle.discard_classes(suspect_keys)
        self.report.discarded_results += len(suspect_keys)
        self._done_count -= len(suspect_keys)
        for skey in suspect_keys:
            self._check_pending.pop(skey, None)
            self._inflight_keys.discard(skey)
        self.board.requeue(
            suspect_keys, now=now, excluded=frozenset({name}),
            exclusion_seconds=self.supervisor.policy.exclusion_seconds)
        self.handle.record_event(
            "discard", worker=name, at=time.time(),
            detail=f"{len(suspect_keys)} unverified classes re-queued")
        self._journal_leases()

    # -- integrity and supervision helpers --------------------------------------

    def _reject(self, name: str, key, now: float, *, kind: str,
                reason: str) -> None:
        """Refuse one result frame before it touches any accounting."""
        self.report.integrity_rejected += 1
        detail = reason if key is None else f"{list(key)}: {reason}"
        self.handle.record_event(kind, worker=name, detail=detail,
                                 at=time.time())
        # An integrity violation outweighs a dropped connection.
        self._charge_failure(name, now, weight=2.0, reason=reason)

    def _charge_failure(self, name: str, now: float, *,
                        weight: float = 1.0, reason: str = "") -> None:
        if self.supervisor.record_failure(name, now, weight=weight,
                                          reason=reason):
            self.handle.record_event("quarantine", worker=name,
                                     detail=reason, at=time.time())

    def _check_poison(self, now: float) -> None:
        """Bisect shards that keep killing workers; isolate the key."""
        changed = False
        suspects = self.board.poison_suspects(
            self.supervisor.policy.poison_workers)
        for shard in suspects:
            if len(shard.remaining) > 1:
                children = self.board.split_shard(shard.index, now)
                if children:
                    self.report.poison_splits += 1
                    self.handle.record_event(
                        "poison-split", at=time.time(),
                        detail=f"shard {shard.index} "
                               f"({len(shard.failed_workers)} workers "
                               f"lost) bisected into {children}")
                    changed = True
            else:
                for key in self.board.mark_poison(shard.index):
                    self.handle.record_event(
                        "poison-key", at=time.time(),
                        detail=json.dumps(list(key)))
                changed = True
        if changed:
            self._journal_leases()

    def _drain_crosschecks(self, now: float) -> None:
        """Give pending cross-checks a grace period once work is done.

        A pending check whose only eligible verifier never shows up
        (single-worker fleet, everyone else dead) must not hang the
        campaign: after ``crosscheck_patience`` seconds with the board
        finished, unresolved checks degrade to ``crosscheck_unverified``.
        """
        if self._done.is_set() or not self.board.done():
            self._drain_deadline = None
            return
        if not self._check_pending and not self._inflight_keys:
            return
        if self._drain_deadline is None:
            self._drain_deadline = \
                now + self.supervisor.policy.crosscheck_patience
            return
        if now < self._drain_deadline:
            return
        for key in sorted(self._check_pending):
            self.report.crosscheck_unverified += 1
            self.handle.record_event(
                "crosscheck-stale", at=time.time(),
                worker=self._check_pending[key][0],
                detail=f"{list(key)}: no second worker re-executed it")
        self._check_pending.clear()
        self._check_inflight.clear()
        self._inflight_keys.clear()

    def _crosscheck_selected(self, key: tuple) -> bool:
        """Deterministic per-key sampling at the configured fraction."""
        if self.crosscheck <= 0.0:
            return False
        if self.crosscheck >= 1.0:
            return True
        rng = random.Random(f"crosscheck/{key[0]}/{key[1]}")
        return rng.random() < self.crosscheck

    def _valid_shape(self, key: tuple, rows: list) -> bool:
        """Rows must match the domain's expected experiment weights."""
        style = self.campaign.style
        if key not in style.items or len(rows) != style.size(key):
            return False
        for index, row in enumerate(rows):
            if row[0] != index or row[1] not in _OUTCOME_VALUES:
                return False
        return True

    # -- bookkeeping ------------------------------------------------------------

    def _journal_leases(self) -> None:
        """Persist per-shard retry state (only rows that changed)."""
        for shard in self.board.shards():
            worker = shard.lease.worker if shard.lease is not None else ""
            state = (shard.attempts, shard.status, worker)
            if self._lease_cache.get(shard.index) == state:
                continue
            self._lease_cache[shard.index] = state
            self.handle.record_lease(
                shard.index, _canonical_keys(shard.keys),
                attempts=shard.attempts, status=shard.status, worker=worker)

    def _maybe_finish(self) -> None:
        if self._done.is_set() or not self.board.done():
            return
        if self._check_pending or self._inflight_keys:
            return  # the watchdog's patience timer resolves these
        self._done.set()

    def _assemble(self):
        """Merge the journal into a serial-identical CampaignResult."""
        campaign, style = self.campaign, self.campaign.style
        campaign.rows, _ = style.load(self.handle)
        if campaign.composer is not None:
            # Deferred section-store write: only classes that survived
            # CRC checks, cross-check verification and byzantine
            # rollback reach the cross-campaign store.
            for key, rows in campaign.rows.items():
                if key not in self._initial_completed:
                    style.store(campaign.composer, key, rows)
        report = self.report
        report.shard_retries = self.board.retries
        report.failed_shards = self.board.failed_shards
        report.workers = tuple(sorted(self._worker_units.items()))
        report.poison_splits = self.board.splits
        report.poison_keys = tuple(self.board.poison_keys())
        report.quarantined_workers = tuple(
            state["name"] for state in self.supervisor.snapshot()
            if state["offenses"])
        result = campaign.finish()
        if not report.complete:
            # Failed shards are final state worth keeping queryable.
            self._journal_leases()
        return result


# -- one-shot convenience -------------------------------------------------------


def _free_server_socket(host: str) -> socket.socket:
    return socket.create_server((host, 0))


def run_distributed_scan(golden: GoldenRun, *, workers: int = 2,
                         domain: FaultDomain | str = MEMORY,
                         executor_config: ExecutorConfig | None = None,
                         policy: RetryPolicy | None = None,
                         shards: int = DEFAULT_SHARDS,
                         journal=None, resume: bool = True,
                         keep_records: bool = False,
                         progress: ProgressCallback | None = None,
                         host: str = "127.0.0.1",
                         worker_env: dict | None = None,
                         chaos=None, crosscheck: float = 0.0,
                         supervision: SupervisionPolicy | None = None):
    """Run a distributed full scan with locally spawned workers.

    Convenience wrapper for single-machine use (and the CLI's
    ``scan --dist N``): binds an ephemeral port, spawns ``workers``
    subprocesses running ``python -m repro worker``, and serves the
    coordinator in the calling thread.  Real multi-host campaigns start
    ``repro coordinator`` and ``repro worker`` by hand instead.

    ``chaos`` (a :class:`~.chaos.ChaosPlan` or plan dict) is serialized
    into every worker's environment, so the whole fleet runs one seeded
    schedule; its coordinator-side fields apply here.  ``crosscheck``
    and ``supervision`` pass through to :class:`DistCoordinator`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plan = plan_from_spec(chaos)
    sock = _free_server_socket(host)
    port = sock.getsockname()[1]
    coordinator = DistCoordinator(
        golden, domain=domain, executor_config=executor_config,
        policy=policy, shards=shards, expected_workers=workers,
        journal=journal, resume=resume,
        keep_records=keep_records, progress=progress, sock=sock,
        chaos=plan, crosscheck=crosscheck, supervision=supervision)
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if plan is not None and plan.active:
        env[PLAN_ENV] = plan.to_json()
    if worker_env:
        env.update(worker_env)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{host}:{port}", "--name", f"worker-{index}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for index in range(workers)]
    try:
        return coordinator.run()
    finally:
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def serve_in_thread(coordinator: DistCoordinator) -> "CoordinatorThread":
    """Run a coordinator on a background thread (used by tests)."""
    thread = CoordinatorThread(coordinator)
    thread.start()
    return thread


class CoordinatorThread(threading.Thread):
    """Thread wrapper capturing the coordinator's result or exception."""

    def __init__(self, coordinator: DistCoordinator):
        super().__init__(daemon=True)
        self.coordinator = coordinator
        self.result = None
        self.error: BaseException | None = None

    def run(self) -> None:  # noqa: D102 - Thread API
        try:
            self.result = self.coordinator.run()
        except BaseException as exc:  # captured for the joining test
            self.error = exc

    def join_result(self, timeout: float | None = None):
        self.join(timeout)
        if self.is_alive():
            raise TimeoutError("coordinator thread did not finish")
        if self.error is not None:
            raise self.error
        return self.result


__all__ = [
    "DEFAULT_SHARDS",
    "CoordinatorThread",
    "DistCoordinator",
    "run_distributed_scan",
    "serve_in_thread",
    "FAILED",
]
