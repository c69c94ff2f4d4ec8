"""Campaign worker: pulls leases, executes experiments, streams results.

A worker is a plain blocking-socket client.  On connect it introduces
itself, receives the campaign spec, and **re-derives everything
locally**: the program is re-assembled from the shipped source, its
content fingerprint and the re-recorded golden run's cycle count must
match the coordinator's, and the def/use partition is rebuilt from the
local golden run.  A worker running a stale checkout — an assembler
that emits different code, a CPU whose timing changed — fails one of
those checks and is refused work (:class:`WorkerRejected`), so it can
never pollute the campaign with results computed under a different
machine model.

While holding a lease the worker executes each class's experiments in
ascending slot order (preserving the executor's snapshot fast-forward)
and streams one ``result`` frame per class, so the coordinator journals
progress continuously and a worker lost mid-shard forfeits only the
class in flight.  A daemon heartbeat thread shares the socket under a
send lock.  Every connection failure is survivable: the worker
reconnects with jittered exponential backoff and simply asks for work
again — the coordinator's lease board and idempotent journal make the
retried deliveries harmless.

Every result frame carries a :func:`~.protocol.result_digest` CRC over
its key and rows, computed *before* the frame is handed to the
transport, so the coordinator can detect any corruption between this
worker's executor and its own journal.

Chaos injection is delegated to :mod:`repro.campaign.dist.chaos`: a
:class:`~.chaos.ChaosPlan` (the ``chaos=`` argument or the
``REPRO_CHAOS_PLAN`` env var) wraps each session's stream in a
:class:`~.chaos.ChaosFrameStream` proxy.  Chaos state is cumulative
across reconnects — the schedule is a pure function of
``(seed, worker name, result index)``, unaffected by the failures it
injects.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time

from ...faultspace.domain import get_domain
from ...isa.assembler import assemble
from ..database import program_fingerprint
from ..experiment import ExecutorConfig
from ..golden import record_golden
from ..parallel import run_group
from .chaos import WorkerChaos, plan_from_env, plan_from_spec
from .protocol import (PROTOCOL_VERSION, FrameStream, ProtocolError,
                       result_digest)


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker (or verification failed).

    Permanent: reconnecting cannot help — the worker's checkout
    disagrees with the coordinator's campaign, or the protocol versions
    diverge — so the run loop raises instead of retrying.
    """


class DistWorker:
    """One worker process's client loop.

    ``max_reconnects`` bounds *consecutive* failed connection attempts
    (``None`` retries forever — the right default for a fleet waiting
    out a coordinator restart); any successful session resets the
    count.
    """

    def __init__(self, host: str, port: int, *, name: str | None = None,
                 reconnect_delay: float = 0.2,
                 max_reconnect_delay: float = 5.0,
                 max_reconnects: int | None = None,
                 connect_timeout: float = 5.0,
                 heartbeat_interval: float = 2.0,
                 chaos=None):
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.reconnect_delay = reconnect_delay
        self.max_reconnect_delay = max_reconnect_delay
        self.max_reconnects = max_reconnects
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        plan = plan_from_spec(chaos) if chaos is not None \
            else plan_from_env()
        self._chaos = WorkerChaos(plan, self.name) \
            if plan is not None and plan.active else None
        self._rng = random.Random(self.name)
        self._finished = False
        #: Classes executed locally (not counting duplicates).
        self.executed = 0
        #: Verified campaign state, cached by fingerprint so reconnects
        #: skip the golden re-run and partition rebuild.
        self._campaigns: dict[str, tuple] = {}
        self._send_lock = threading.Lock()

    # -- main loop --------------------------------------------------------------

    def run(self) -> int:
        """Serve until the coordinator says the campaign is done.

        Returns the number of classes this worker executed.  Raises
        :class:`WorkerRejected` on permanent refusal.
        """
        failures = 0
        while not self._finished:
            try:
                self._session()
                failures = 0
            except WorkerRejected:
                raise
            except (ConnectionError, ProtocolError, OSError):
                if self._finished:
                    break
                failures += 1
                if (self.max_reconnects is not None
                        and failures > self.max_reconnects):
                    raise
                self._backoff(failures)
        return self.executed

    def _backoff(self, failures: int) -> None:
        delay = min(self.max_reconnect_delay,
                    self.reconnect_delay * (2.0 ** (failures - 1)))
        # Full jitter: a fleet of workers orphaned by the same
        # coordinator crash must not reconnect in lockstep.
        time.sleep(delay * (0.5 + 0.5 * self._rng.random()))

    # -- one connection ---------------------------------------------------------

    def _session(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        sock.settimeout(None)
        # Result frames are small and latency-bound; Nagle-delaying
        # them stalls the per-class submit loop for nothing.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = FrameStream(sock)
        if self._chaos is not None:
            stream = self._chaos.wrap(stream)
        stop_heartbeat = threading.Event()
        try:
            self._send(stream, {"type": "hello",
                                "version": PROTOCOL_VERSION,
                                "name": self.name})
            frame = stream.read(timeout=self.connect_timeout)
            if frame is None:
                raise ConnectionError("coordinator closed during handshake")
            if frame.get("type") == "reject":
                raise WorkerRejected(str(frame.get("reason", "rejected")))
            if frame.get("type") != "campaign":
                raise ProtocolError(
                    f"expected campaign spec, got {frame.get('type')!r}")
            executor, intervals, domain = self._verify(stream, frame)
            self._send(stream, {"type": "ready"})
            beat = threading.Thread(
                target=self._heartbeat, args=(stream, stop_heartbeat),
                daemon=True)
            beat.start()
            try:
                self._work(stream, executor, intervals, domain)
            except (ConnectionError, OSError):
                # The campaign can finish while our next request is
                # mid-send: the send fails, but the coordinator's done
                # frame may already sit in the receive buffer.  Check
                # it before treating this as a lost connection.
                if not self._poll_done(stream):
                    raise
        finally:
            stop_heartbeat.set()
            sock.close()

    def _send(self, stream: FrameStream, message: dict) -> None:
        with self._send_lock:
            stream.send(message)

    def _poll_done(self, stream: FrameStream) -> bool:
        """Drain already-received frames, looking for ``done``."""
        try:
            while True:
                frame = stream.poll()
                if frame is None:
                    return False
                if frame.get("type") == "done":
                    self._finished = True
                    return True
        except (ConnectionError, ProtocolError, OSError):
            return False

    def _heartbeat(self, stream: FrameStream,
                   stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                self._send(stream, {"type": "heartbeat"})
            except (ConnectionError, OSError):
                return  # main loop notices the dead socket itself

    # -- campaign verification --------------------------------------------------

    def _verify(self, stream: FrameStream, spec: dict):
        """Rebuild the campaign locally; refuse to run if it differs."""
        fingerprint = str(spec["fingerprint"])
        cached = self._campaigns.get(fingerprint)
        if cached is not None and cached[3] == spec["config"]:
            return cached[:3]
        try:
            program = assemble(spec["program"]["source"],
                               name=spec["program"]["name"],
                               ram_size=spec["program"]["ram_size"])
            local = program_fingerprint(program)
            if local != fingerprint:
                raise WorkerRejected(
                    f"program fingerprint mismatch: coordinator sent "
                    f"{fingerprint}, this checkout assembles {local} — "
                    f"worker is running different code; update it")
            golden = record_golden(program)
            if golden.cycles != spec["cycles"]:
                raise WorkerRejected(
                    f"golden run mismatch: coordinator recorded "
                    f"Δt={spec['cycles']} cycles, this checkout runs "
                    f"Δt={golden.cycles} — simulator semantics differ; "
                    f"update the worker")
        except WorkerRejected as exc:
            # Ship the diagnostic before giving up, so the operator sees
            # the stale worker from the coordinator's logs too.
            try:
                self._send(stream, {"type": "error", "reason": str(exc)})
            except (ConnectionError, OSError):
                pass
            raise
        config = ExecutorConfig(**spec["config"])
        if config.heartbeat_interval is not None:
            # The coordinator ships the fleet's heartbeat cadence with
            # the campaign, so one knob tunes every worker.
            self.heartbeat_interval = config.heartbeat_interval
        domain = get_domain(config.domain)
        executor = config.build(golden)
        partition = domain.build_partition(golden)
        intervals = {domain.class_key(interval): interval
                     for interval in partition.live_classes()}
        self._campaigns[fingerprint] = (executor, intervals, domain,
                                        spec["config"])
        return executor, intervals, domain

    # -- lease execution --------------------------------------------------------

    def _work(self, stream: FrameStream, executor, intervals,
              domain) -> None:
        while True:
            self._send(stream, {"type": "request"})
            frame = stream.read(timeout=None)
            if frame is None:
                raise ConnectionError("coordinator closed the connection")
            kind = frame.get("type")
            if kind == "done":
                self._finished = True
                return
            if kind == "wait":
                time.sleep(min(float(frame["seconds"]), 1.0))
                continue
            if kind != "lease":
                raise ProtocolError(f"expected lease, got {kind!r}")
            if self._run_lease(stream, frame, executor, intervals, domain):
                return  # saw "done" mid-lease

    def _run_lease(self, stream: FrameStream, lease: dict, executor,
                   intervals, domain) -> bool:
        lease_id = int(lease["lease"])
        shard = int(lease["shard"])
        for raw_key in lease["keys"]:
            key = tuple(int(v) for v in raw_key)
            interval = intervals.get(key)
            if interval is None:
                raise WorkerRejected(
                    f"lease names class {key} this worker's partition "
                    f"does not contain — def/use analysis differs; "
                    f"update the worker")
            # A coordinator that finished (another worker re-submitted
            # our expired lease) tells us mid-lease; check cheaply
            # between classes.
            with self._send_lock:
                polled = stream.poll()
            if polled is not None and polled.get("type") == "done":
                self._finished = True
                return True
            if self._chaos is not None:
                self._chaos.before_class(key)
            [(_, results)], (hits, skips, tails) = run_group(
                executor, [(key, interval.experiments())])
            self.executed += 1
            rows = [[bit, outcome.value, end_cycle, trap]
                    for bit, (outcome, end_cycle, trap)
                    in enumerate(zip(*results))]
            message = {
                "type": "result", "lease": lease_id, "shard": shard,
                "key": list(key), "rows": rows,
                "crc": result_digest(key, rows),
                "hits": hits, "skips": skips, "tails": tails,
            }
            self._send(stream, message)
        self._send(stream, {"type": "lease_done", "lease": lease_id,
                            "shard": shard})
        return False
