"""Deterministic fault injection into the campaign fabric itself.

The paper's comparisons rest on absolute failure counts being exact; a
fabric that silently drops, duplicates or corrupts a result frame
invalidates them more subtly than any sampling bias.  This module turns
the fault injector on its own transport: a :class:`ChaosPlan` is a
seeded, serializable schedule of frame drops, duplications, byte
corruptions, delays, worker kills and hangs, applied through a proxy
wrapper around the frame protocol (:class:`ChaosFrameStream`) so that
every chaos run is **exactly reproducible** from ``(seed, params)``.

Determinism contract: whether chaos fires on a worker's *n*-th result
frame is a pure function of ``(plan.seed, worker_name, n)`` — never of
wall-clock time, scheduling or socket buffering.  Counters are
cumulative across reconnects, so the schedule is unaffected by how the
failures it injects reshuffle the work.

Event taxonomy (all independent per result frame):

=============  ===============================================================
``drop``       close the connection right after sending (in-flight loss)
``dup``        send the frame twice (at-least-once delivery stress)
``corrupt``    tamper the result rows but keep the *stale* CRC — models
               payload corruption in transit; caught by the coordinator's
               frame CRC check
``lie``        tamper the rows and recompute the CRC — models a byzantine
               or silently-miscomputing worker; only cross-check sampling
               can catch it
``delay``      sleep before sending (reordering / lease-expiry stress)
``kill``       ``os._exit(13)`` — only sane for subprocess workers
``hang``       sleep a long time mid-lease (wedged worker)
=============  ===============================================================

``lie`` additionally honors :attr:`ChaosPlan.liars`: when non-empty,
only the named workers ever lie, which is how the byzantine-detection
tests plant exactly one corrupted worker in an otherwise honest fleet.
The counter fields (``die_after_results``, ``drop_after_results``,
``duplicate_results``) fire once at fixed result indices through the
same proxy.

The same plan also drives the process pool
(:mod:`repro.campaign.parallel`): ``kill_shards`` and ``hang_shards``
name ``(shard, attempt)`` pairs whose pool worker dies or wedges.  A
plan reaches subprocesses — fabric workers and pool workers alike — as
JSON in ``REPRO_CHAOS_PLAN``, or in-process via the ``chaos=``
constructor argument.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time

from ..outcomes import Outcome
from .protocol import FrameStream, result_digest

#: Environment variable carrying a full serialized :class:`ChaosPlan`.
PLAN_ENV = "REPRO_CHAOS_PLAN"


class ChaosInterrupt(ConnectionError):
    """A chaos event severed this worker's connection (simulated death).

    Subclasses :class:`ConnectionError` so the worker's run loop treats
    it exactly like a real network failure: back off, reconnect, ask
    for work again.
    """


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """One seeded, serializable chaos schedule.

    Rates are per-result-frame probabilities in ``[0, 1]``, drawn from a
    private deterministic stream per ``(seed, worker, frame index)``.
    The plan is frozen and JSON-serializable (:meth:`to_json` /
    :meth:`from_json`) so a chaos run can be named, shipped to
    subprocess workers via :data:`PLAN_ENV`, and replayed bit-for-bit.
    """

    seed: int = 0
    #: Close the connection right after sending a result frame.
    drop_rate: float = 0.0
    #: Send a result frame twice.
    dup_rate: float = 0.0
    #: Tamper rows, keep the stale CRC (CRC-detectable corruption).
    corrupt_rate: float = 0.0
    #: Tamper rows *and* recompute the CRC (byzantine; cross-check only).
    lie_rate: float = 0.0
    #: Sleep :attr:`delay_seconds` before sending.
    delay_rate: float = 0.0
    delay_seconds: float = 0.02
    #: ``os._exit(13)`` instead of sending (subprocess workers only).
    kill_rate: float = 0.0
    #: Sleep :attr:`hang_seconds` after sending (wedged worker).
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    #: Process-pool ``(shard, attempt)`` pairs whose worker sleeps
    #: :attr:`delay_seconds`, then ``os._exit(13)`` (a SIGKILLed one).
    kill_shards: tuple[tuple[int, int], ...] = ()
    #: Process-pool ``(shard, attempt)`` pairs whose worker sleeps
    #: :attr:`hang_seconds` before running the shard (a wedged one).
    hang_shards: tuple[tuple[int, int], ...] = ()
    #: Workers allowed to ``lie``; empty means every worker may.
    liars: tuple[str, ...] = ()
    #: Class keys whose execution kills the worker (poison-shard tests).
    die_on_keys: tuple[tuple[int, int], ...] = ()
    #: Counters (cumulative across reconnects, firing once).
    die_after_results: int | None = None
    drop_after_results: int | None = None
    duplicate_results: int = 0
    #: Coordinator-side schedule: simulate a coordinator crash after
    #: accepting this many fresh results (maps to ``stop_after_results``).
    stop_coordinator_after: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "liars", tuple(self.liars))
        for name in ("die_on_keys", "kill_shards", "hang_shards"):
            object.__setattr__(self, name, tuple(
                tuple(int(v) for v in pair) for pair in getattr(self, name)))

    @property
    def active(self) -> bool:
        """True when any worker-side event can ever fire."""
        return bool(
            self.drop_rate or self.dup_rate or self.corrupt_rate
            or self.lie_rate or self.delay_rate or self.kill_rate
            or self.hang_rate or self.die_on_keys
            or self.kill_shards or self.hang_shards
            or self.die_after_results is not None
            or self.drop_after_results is not None
            or self.duplicate_results)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["liars"] = list(self.liars)
        for name in ("die_on_keys", "kill_shards", "hang_shards"):
            out[name] = [list(pair) for pair in getattr(self, name)]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown chaos plan field(s): {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))


def plan_from_spec(spec) -> ChaosPlan | None:
    """Normalize a ``chaos=`` argument into a :class:`ChaosPlan`.

    Accepts ``None``, a plan, or a plan-shaped dict (empty means none).
    """
    if spec is None or isinstance(spec, ChaosPlan):
        return spec
    if not isinstance(spec, dict):
        raise TypeError(f"chaos spec must be a dict or ChaosPlan, "
                        f"got {type(spec).__name__}")
    return ChaosPlan.from_dict(spec) if spec else None


def plan_from_env(environ=None) -> ChaosPlan | None:
    """The chaos plan a subprocess inherits from ``REPRO_CHAOS_PLAN``."""
    environ = os.environ if environ is None else environ
    text = environ.get(PLAN_ENV)
    return ChaosPlan.from_json(text) if text else None


#: Fixed draw order — part of the reproducibility contract: adding a new
#: event type must append here, never reorder.
_EVENTS = ("corrupt", "lie", "dup", "drop", "delay", "kill", "hang")


class WorkerChaos:
    """One worker's deterministic chaos state (cumulative across sessions).

    The object outlives individual connections — reconnects triggered by
    the chaos it injects must not reset the schedule — so the worker
    owns one instance and wraps each session's :class:`FrameStream`
    through :meth:`wrap`.
    """

    def __init__(self, plan: ChaosPlan, worker: str):
        self.plan = plan
        self.worker = worker
        #: Result frames sent so far, over the whole worker lifetime.
        self.results_sent = 0
        #: Telemetry: event name → times fired.
        self.fired: dict[str, int] = {}

    def wrap(self, stream: FrameStream) -> "ChaosFrameStream":
        return ChaosFrameStream(stream, self)

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.plan.seed}/{self.worker}/{index}")

    def events_for(self, index: int) -> tuple[str, ...]:
        """Chaos events for this worker's ``index``-th result frame.

        Pure in ``(seed, worker, index)``; at most one payload-tampering
        event (``corrupt`` beats ``lie``) and at most one
        connection-ending event fire per frame.
        """
        plan = self.plan
        rng = self._rng(index)
        hit = []
        for name in _EVENTS:
            draw = rng.random()
            rate = getattr(plan, f"{name}_rate")
            if name == "lie" and plan.liars \
                    and self.worker not in plan.liars:
                continue
            if rate and draw < rate:
                hit.append(name)
        if "corrupt" in hit and "lie" in hit:
            hit.remove("lie")
        if "drop" in hit and "kill" in hit:
            hit.remove("kill")
        return tuple(hit)

    def tampered(self, message: dict, index: int) -> dict:
        """A deterministically corrupted copy of a result message.

        Flips one row's outcome to a different (valid) class and bumps
        its end cycle — the kind of wrong-but-well-formed payload a
        miscomputing worker would produce, which shape validation alone
        cannot reject.
        """
        rows = [list(row) for row in message["rows"]]
        if rows:
            victim = rows[index % len(rows)]
            outcomes = [o.value for o in Outcome]
            current = outcomes.index(str(victim[1])) \
                if str(victim[1]) in outcomes else 0
            victim[1] = outcomes[(current + 1) % len(outcomes)]
            victim[2] = int(victim[2]) + 1
        out = dict(message)
        out["rows"] = rows
        return out

    def before_class(self, key: tuple[int, int]) -> None:
        """Kill the worker before executing a poisoned class key."""
        if tuple(key) in self.plan.die_on_keys:
            self.fired["die_on_key"] = self.fired.get("die_on_key", 0) + 1
            raise ChaosInterrupt(f"chaos: worker died executing {key}")

    def _count(self, name: str) -> None:
        self.fired[name] = self.fired.get(name, 0) + 1


class ChaosFrameStream:
    """Proxy over :class:`FrameStream` applying the plan to result frames.

    Non-result frames (hello, request, heartbeat, lease_done) pass
    through untouched — the schedule is defined over *result* frames so
    it stays aligned with the counter fields and with what actually
    threatens result integrity.
    """

    def __init__(self, stream: FrameStream, chaos: WorkerChaos):
        self._stream = stream
        self._chaos = chaos

    # Delegated surface (the worker uses exactly these four).

    def close(self) -> None:
        self._stream.close()

    def read(self, timeout: float | None = None):
        return self._stream.read(timeout)

    def poll(self):
        return self._stream.poll()

    def send(self, message: dict) -> None:
        if message.get("type") != "result":
            self._stream.send(message)
            return
        chaos, plan = self._chaos, self._chaos.plan
        index = chaos.results_sent
        if plan.die_after_results is not None \
                and index == plan.die_after_results:
            chaos._count("die")
            os._exit(13)
        events = chaos.events_for(index)
        if "kill" in events:
            chaos._count("kill")
            os._exit(13)
        out = message
        if "corrupt" in events:
            # Stale CRC: the payload changed after digesting, exactly
            # what in-flight corruption looks like to the coordinator.
            chaos._count("corrupt")
            out = chaos.tampered(message, index)
        elif "lie" in events:
            # Fresh CRC over wrong rows: indistinguishable from honest
            # work without cross-check sampling.
            chaos._count("lie")
            out = chaos.tampered(message, index)
            out["crc"] = result_digest(out["key"], out["rows"])
        if "delay" in events:
            chaos._count("delay")
            time.sleep(plan.delay_seconds)
        self._stream.send(out)
        chaos.results_sent += 1
        if "dup" in events or chaos.results_sent <= plan.duplicate_results:
            chaos._count("dup")
            self._stream.send(out)
        if "drop" in events \
                or chaos.results_sent == plan.drop_after_results:
            chaos._count("drop")
            self._stream.close()
            raise ChaosInterrupt("chaos: dropped connection")
        if "hang" in events:
            chaos._count("hang")
            time.sleep(plan.hang_seconds)


__all__ = [
    "PLAN_ENV",
    "ChaosFrameStream",
    "ChaosInterrupt",
    "ChaosPlan",
    "WorkerChaos",
    "plan_from_env",
    "plan_from_spec",
]
