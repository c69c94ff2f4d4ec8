"""Distributed campaign fabric tests: equality, leases, chaos.

The contract mirrors the journal's: a distributed scan — any worker
count, any interleaving, any amount of node loss short of exhausting the
retry budget — produces a result *bit-for-bit identical* to the serial
runner.  These tests drive the real TCP stack (coordinator on a thread,
workers on threads or subprocesses over loopback) and inject the
failures multi-host campaigns actually see: killed workers, dropped and
duplicated deliveries, a coordinator restart mid-campaign, and shards
lost for good.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    RetryPolicy,
    export_class_results_csv,
    record_golden,
    run_full_scan,
)
from repro.campaign.dist import (
    DistCoordinator,
    DistWorker,
    FrameStream,
    LeaseBoard,
    PROTOCOL_VERSION,
    ProtocolError,
    WorkerRejected,
    decode_frame,
    encode_frame,
)
from repro.campaign.dist.chaos import PLAN_ENV, ChaosPlan
from repro.campaign.dist.coordinator import serve_in_thread
from repro.programs import hi, micro, sync2

#: Snappy failure detection for loopback tests.
POLICY = RetryPolicy(heartbeat=0.3, poll_interval=0.02, backoff=0.05)


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def register_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


@pytest.fixture(scope="module")
def register_baseline(register_golden):
    return run_full_scan(register_golden, keep_records=True,
                         domain="register")


def _server_socket():
    return socket.create_server(("127.0.0.1", 0))


def _start_worker(port: int, name: str, chaos=None, **kw):
    """Run a DistWorker on a daemon thread, capturing its exception."""
    kw.setdefault("reconnect_delay", 0.05)
    kw.setdefault("max_reconnect_delay", 0.3)
    worker = DistWorker("127.0.0.1", port, name=name, chaos=chaos, **kw)
    errors: list = []

    def target():
        try:
            worker.run()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return worker, thread, errors


def run_dist(golden, *, workers=2, worker_chaos=None, worker_kw=None,
             domain="memory", policy=POLICY, **coordinator_kw):
    """One distributed scan over loopback; returns its CampaignResult."""
    sock = _server_socket()
    port = sock.getsockname()[1]
    coordinator_kw.setdefault("shards", 4)
    coordinator_kw.setdefault("keep_records", True)
    coordinator = DistCoordinator(golden, sock=sock, domain=domain,
                                  policy=policy, **coordinator_kw)
    thread = serve_in_thread(coordinator)
    chaos_by_worker = worker_chaos or [None] * workers
    spawned = [_start_worker(port, f"w{index}", chaos=chaos,
                             **(worker_kw or {}))
               for index, chaos in enumerate(chaos_by_worker)]
    result = thread.join_result(120)
    for _, worker_thread, _ in spawned:
        worker_thread.join(10)
    return result, coordinator, spawned


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"type": "result", "rows": [[0, "sdc", 12, ""]]}
        assert decode_frame(encode_frame(message)[4:]) == message

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")

    def test_untyped_message_rejected(self):
        with pytest.raises(ProtocolError, match="typed"):
            decode_frame(json.dumps([1, 2, 3]).encode())
        with pytest.raises(ProtocolError, match="typed"):
            decode_frame(json.dumps({"no_type": 1}).encode())

    def test_stream_read_and_partial_poll(self):
        left, right = socket.socketpair()
        try:
            a, b = FrameStream(left), FrameStream(right)
            a.send({"type": "hello", "n": 1})
            a.send({"type": "hello", "n": 2})
            assert b.read(timeout=1.0)["n"] == 1
            assert b.poll()["n"] == 2
            assert b.poll() is None  # nothing buffered, does not block
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none_mid_frame_is_error(self):
        left, right = socket.socketpair()
        stream = FrameStream(right)
        left.close()
        assert stream.read(timeout=1.0) is None
        left2, right2 = socket.socketpair()
        stream2 = FrameStream(right2)
        left2.sendall(encode_frame({"type": "x"})[:5])  # truncated
        left2.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            stream2.read(timeout=1.0)
        right2.close()

    def test_absurd_length_rejected(self):
        left, right = socket.socketpair()
        stream = FrameStream(right)
        left.sendall((1 << 30).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="limit"):
            stream.read(timeout=1.0)
        left.close()
        right.close()


class TestLeaseBoard:
    def _board(self, *, max_retries=2, shards=2):
        board = LeaseBoard(
            policy=RetryPolicy(max_retries=max_retries, backoff=0.1,
                               shard_timeout=10.0),
            key_costs={(0, 1): 100, (0, 2): 100, (1, 1): 100, (1, 2): 100})
        keys = [[(0, 1), (0, 2)], [(1, 1), (1, 2)]]
        for index in range(shards):
            board.add_shard(index, keys[index], list(keys[index]))
        return board

    def test_grants_then_waits_then_done(self):
        board = self._board()
        lease_a = board.acquire("a", now=0.0)
        lease_b = board.acquire("b", now=0.0)
        assert lease_a.shard == 0 and lease_b.shard == 1
        # Everything leased: a third worker is told to wait.
        assert isinstance(board.acquire("c", now=0.0), float)
        for key in [(0, 1), (0, 2), (1, 1), (1, 2)]:
            board.progress(0 if key[0] == 0 else 1, key, now=1.0)
        assert board.done()
        assert board.acquire("c", now=2.0) is None

    def test_progress_deduplicates(self):
        board = self._board()
        board.acquire("a", now=0.0)
        assert board.progress(0, (0, 1), now=1.0) is True
        assert board.progress(0, (0, 1), now=1.0) is False

    def test_progress_extends_the_deadline(self):
        board = self._board()
        lease = board.acquire("a", now=0.0)
        before = lease.deadline
        board.progress(0, (0, 1), now=5.0)
        assert board.shards()[0].lease.deadline > before

    def test_expiry_requeues_with_backoff_then_fails(self):
        board = self._board(max_retries=1, shards=1)
        board.acquire("a", now=0.0)
        assert board.expire(now=100.0) == [0]
        assert board.retries == 1
        # Embargoed: immediately re-acquiring yields a wait, not a grant.
        assert isinstance(board.acquire("b", now=100.0), float)
        lease = board.acquire("b", now=101.0)
        assert lease.shard == 0
        board.expire(now=300.0)
        assert board.failed_shards == 1
        assert board.failed_keys() == [(0, 1), (0, 2)]
        # Permanently lost work is terminal state, not a hang.
        assert board.done()
        assert board.acquire("c", now=301.0) is None

    def test_disconnect_releases_only_that_workers_leases(self):
        board = self._board()
        board.acquire("a", now=0.0)
        board.acquire("b", now=0.0)
        assert board.release_worker("a", now=1.0) == [0]
        assert board.shards()[1].lease.worker == "b"

    def test_late_result_after_expiry_still_counts(self):
        board = self._board()
        board.acquire("a", now=0.0)
        board.expire(now=100.0)
        assert board.progress(0, (0, 1), now=101.0) is True
        lease = board.acquire("b", now=102.0)
        assert lease.keys == ((0, 2),)  # only the unfinished key

    def test_lease_done_with_remaining_keys_is_a_failed_attempt(self):
        board = self._board()
        lease = board.acquire("a", now=0.0)
        board.progress(0, (0, 1), now=1.0)
        board.finish(0, lease.lease_id, now=2.0)
        assert board.retries == 1  # (0, 2) was never submitted


class TestDistEquality:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_memory_scan_is_bit_for_bit_serial(
            self, workers, memory_golden, memory_baseline):
        result, coordinator, _ = run_dist(memory_golden, workers=workers)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete
        assert sum(units for _, units in result.execution.workers) \
            == result.execution.executed

    def test_register_scan_is_bit_for_bit_serial(
            self, register_golden, register_baseline):
        result, _, _ = run_dist(register_golden, domain="register")
        assert result == register_baseline
        assert result.records == register_baseline.records

    def test_csv_export_is_byte_identical(self, tmp_path, memory_golden,
                                          memory_baseline):
        result, _, _ = run_dist(memory_golden)
        dist_csv, serial_csv = tmp_path / "d.csv", tmp_path / "s.csv"
        export_class_results_csv(result, dist_csv)
        export_class_results_csv(memory_baseline, serial_csv)
        assert dist_csv.read_bytes() == serial_csv.read_bytes()


class TestDistChaos:
    def test_killed_worker_is_survived(self, memory_golden,
                                       memory_baseline):
        """One worker's socket vanishes mid-shard (exactly what SIGKILL
        looks like from the coordinator) and never comes back; the
        survivor absorbs the re-leased work."""
        result, _, spawned = run_dist(
            memory_golden,
            worker_chaos=[ChaosPlan(drop_after_results=2), None],
            worker_kw={"max_reconnects": 0})
        # The chaos worker died for good...
        assert any(errors for _, _, errors in spawned)
        # ...and the campaign still matches the serial ground truth.
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete

    def test_dropped_connection_reconnects_and_finishes(
            self, memory_golden, memory_baseline):
        """A worker that loses its TCP connection mid-lease reconnects
        and keeps working; nothing is lost, nothing double-counted."""
        result, _, spawned = run_dist(
            memory_golden, workers=1,
            worker_chaos=[ChaosPlan(drop_after_results=3)])
        assert not any(errors for _, _, errors in spawned)
        assert result == memory_baseline
        assert result.execution.executed == result.execution.total_units

    def test_duplicate_deliveries_account_exactly_once(
            self, memory_golden, memory_baseline):
        result, _, _ = run_dist(
            memory_golden,
            worker_chaos=[ChaosPlan(duplicate_results=5), None])
        assert result == memory_baseline
        assert result.execution.executed == result.execution.total_units
        assert sum(units for _, units in result.execution.workers) \
            == result.execution.total_units

    def test_coordinator_restart_resumes_from_the_journal(
            self, tmp_path, memory_golden, memory_baseline):
        """Crash the coordinator after 4 accepted results; a new one on
        the same port + journal finishes while the worker reconnects."""
        journal = tmp_path / "dist.sqlite"
        sock = _server_socket()
        port = sock.getsockname()[1]
        first = DistCoordinator(memory_golden, sock=sock, shards=4,
                                policy=POLICY, journal=journal,
                                stop_after_results=4)
        thread = serve_in_thread(first)
        _, worker_thread, errors = _start_worker(port, "w0")
        assert thread.join_result(60) is None
        assert first.stopped
        # The worker is now reconnect-looping against a dead port.
        sock2 = socket.create_server(("127.0.0.1", port))
        second = DistCoordinator(memory_golden, sock=sock2, shards=4,
                                 policy=POLICY, journal=journal,
                                 keep_records=True)
        result = serve_in_thread(second).join_result(60)
        worker_thread.join(10)
        assert not errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 4
        assert result.execution.executed \
            == result.execution.total_units - 4

    def test_lost_forever_shard_degrades_not_hangs(self, memory_golden,
                                                   memory_baseline):
        """With a zero retry budget, a shard whose only attempt dies is
        abandoned: the campaign returns a partial result listing the
        missing classes instead of waiting forever."""
        result, _, _ = run_dist(
            memory_golden,
            worker_chaos=[ChaosPlan(drop_after_results=1), None],
            worker_kw={"max_reconnects": 0},
            policy=RetryPolicy(heartbeat=0.3, poll_interval=0.02,
                               backoff=0.05, max_retries=0))
        execution = result.execution
        assert not execution.complete
        assert execution.failed_shards >= 1
        assert execution.missing
        assert 0.0 < execution.completeness < 1.0
        # Everything that was completed matches the ground truth.
        for key, outcomes in result.class_outcomes.items():
            assert outcomes == memory_baseline.class_outcomes[key]

    def test_stale_worker_is_rejected_not_polluting(
            self, monkeypatch, memory_golden, memory_baseline):
        """A worker whose checkout assembles a different binary must be
        refused; a correct worker still completes the campaign."""
        import repro.campaign.dist.worker as worker_mod

        sock = _server_socket()
        port = sock.getsockname()[1]
        coordinator = DistCoordinator(memory_golden, sock=sock, shards=4,
                                      policy=POLICY, keep_records=True)
        thread = serve_in_thread(coordinator)
        real = worker_mod.program_fingerprint
        monkeypatch.setattr(worker_mod, "program_fingerprint",
                            lambda program: "0" * 24)
        stale = DistWorker("127.0.0.1", port, name="stale")
        with pytest.raises(WorkerRejected, match="fingerprint mismatch"):
            stale.run()
        monkeypatch.setattr(worker_mod, "program_fingerprint", real)
        _, worker_thread, errors = _start_worker(port, "fresh")
        result = thread.join_result(60)
        worker_thread.join(10)
        assert not errors
        assert result == memory_baseline
        assert result.execution.workers == (("fresh",
                                             result.execution.executed),)

    def test_protocol_version_mismatch_is_rejected(self, memory_golden):
        sock = _server_socket()
        port = sock.getsockname()[1]
        coordinator = DistCoordinator(memory_golden, sock=sock,
                                      policy=POLICY, stop_after_results=1)
        thread = serve_in_thread(coordinator)
        time.sleep(0.05)
        client = socket.create_connection(("127.0.0.1", port), timeout=5)
        stream = FrameStream(client)
        stream.send({"type": "hello", "version": PROTOCOL_VERSION + 1,
                     "name": "old"})
        reply = stream.read(timeout=5.0)
        assert reply["type"] == "reject"
        assert "version" in reply["reason"]
        client.close()
        # Drain the coordinator so the thread does not linger.  The
        # stop_after_results hook severs the worker, so cap reconnects.
        _, worker_thread, _ = _start_worker(port, "w0", max_reconnects=0)
        thread.join_result(60)
        worker_thread.join(10)


class TestDistJournalInterop:
    def test_dist_journal_resumes_serially(self, tmp_path, memory_golden,
                                           memory_baseline):
        """The fabric journals under the same campaign key as the serial
        and pool engines: a journaled dist scan re-runs as a no-op."""
        journal = tmp_path / "j.sqlite"
        run_dist(memory_golden, journal=journal)
        again = run_full_scan(memory_golden, journal=journal,
                              keep_records=True)
        assert again == memory_baseline
        assert again.execution.executed == 0

    def test_serial_journal_resumes_distributed(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "j.sqlite"

        class Interrupt(Exception):
            pass

        def interrupt(done, total):
            if done >= 3:
                raise Interrupt

        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal,
                          progress=interrupt)
        result, _, _ = run_dist(memory_golden, journal=journal)
        assert result == memory_baseline
        assert result.execution.resumed == 3


def _spawn_worker_proc(port: int, name: str, chaos=None):
    """Start ``python -m repro worker`` as a real subprocess."""
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if chaos:
        env[PLAN_ENV] = chaos.to_json()
    else:
        env.pop(PLAN_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{port}", "--name", name],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestDistSubprocess:
    """Real worker *processes* — node loss means a PID actually dying."""

    def test_worker_process_death_mid_shard(self, memory_golden,
                                            memory_baseline):
        """One subprocess worker os._exit()s mid-shard (the observable
        equivalent of SIGKILL); the survivor finishes the campaign."""
        sock = _server_socket()
        port = sock.getsockname()[1]
        progressed = threading.Event()

        def progress(done, total):
            if done >= 1:
                progressed.set()

        coordinator = DistCoordinator(memory_golden, sock=sock, shards=4,
                                      policy=POLICY, keep_records=True,
                                      progress=progress)
        thread = serve_in_thread(coordinator)
        doomed = _spawn_worker_proc(port, "doomed",
                                    chaos=ChaosPlan(die_after_results=2))
        survivor = None
        try:
            # Let the doomed worker land its first result before the
            # survivor joins, so it reliably reaches its 2nd (fatal) one
            # even when interpreter startup is slow under load.
            assert progressed.wait(60), "doomed worker never made progress"
            survivor = _spawn_worker_proc(port, "survivor")
            result = thread.join_result(120)
        finally:
            for proc in (doomed, survivor):
                if proc is None:
                    continue
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert doomed.returncode == 13  # it really died
        assert survivor.returncode == 0
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete

    def test_sigkilled_worker_process(self, memory_golden,
                                      memory_baseline):
        """Deliver an actual SIGKILL once the worker has made progress;
        a replacement worker absorbs the re-leased remainder."""
        sock = _server_socket()
        port = sock.getsockname()[1]
        progressed = threading.Event()

        def progress(done, total):
            if done >= 2:
                progressed.set()

        coordinator = DistCoordinator(memory_golden, sock=sock, shards=4,
                                      policy=POLICY, keep_records=True,
                                      progress=progress)
        thread = serve_in_thread(coordinator)
        victim = _spawn_worker_proc(port, "victim")
        replacement = None
        try:
            assert progressed.wait(60), "victim never made progress"
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=10)
            replacement = _spawn_worker_proc(port, "replacement")
            result = thread.join_result(120)
        finally:
            for proc in (victim, replacement):
                if proc is None:
                    continue
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert victim.returncode == -signal.SIGKILL
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete


class TestAcceptanceSync2:
    """The issue's acceptance bar: distributed == serial, bit for bit,
    on the paper's sync2 pair, both domains, with a node killed."""

    @pytest.fixture(scope="class")
    def goldens(self):
        return {"plain": record_golden(sync2.baseline(1)),
                "hardened": record_golden(sync2.hardened(1))}

    @pytest.mark.parametrize("variant", ["plain", "hardened"])
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_dist_equals_serial_with_node_loss(self, goldens, variant,
                                               domain, tmp_path):
        golden = goldens[variant]
        serial = run_full_scan(golden, domain=domain, keep_records=True)
        result, _, spawned = run_dist(
            golden, domain=domain,
            worker_chaos=[ChaosPlan(drop_after_results=2), None],
            worker_kw={"max_reconnects": 0})
        assert any(errors for _, _, errors in spawned)  # a node died
        assert result == serial
        assert result.records == serial.records
        assert result.execution.complete
        dist_csv, serial_csv = tmp_path / "d.csv", tmp_path / "s.csv"
        export_class_results_csv(result, dist_csv)
        export_class_results_csv(serial, serial_csv)
        assert dist_csv.read_bytes() == serial_csv.read_bytes()

    def test_hardened_restart_and_node_loss_together(self, goldens,
                                                     tmp_path):
        """Worst day in the cluster: a worker dies for good AND the
        coordinator restarts mid-campaign; still bit-for-bit serial."""
        golden = goldens["hardened"]
        serial = run_full_scan(golden, keep_records=True)
        journal = tmp_path / "dist.sqlite"
        sock = _server_socket()
        port = sock.getsockname()[1]
        first = DistCoordinator(golden, sock=sock, shards=4,
                                policy=POLICY, journal=journal,
                                stop_after_results=3)
        thread = serve_in_thread(first)
        _, doomed_thread, doomed_errors = _start_worker(
            port, "doomed", chaos=ChaosPlan(drop_after_results=2),
            max_reconnects=0)
        _, steady_thread, steady_errors = _start_worker(port, "steady")
        assert thread.join_result(120) is None  # simulated crash
        sock2 = socket.create_server(("127.0.0.1", port))
        second = DistCoordinator(golden, sock=sock2, shards=4,
                                 policy=POLICY, journal=journal,
                                 keep_records=True)
        result = serve_in_thread(second).join_result(120)
        doomed_thread.join(10)
        steady_thread.join(10)
        assert not steady_errors
        assert result == serial
        assert result.records == serial.records
        assert result.execution.complete
        # stop_after_results fires on the 3rd accepted result, but a
        # second worker's in-flight submission may land before the stop
        # tears the connections down.
        assert 3 <= result.execution.resumed <= 4
        assert result.execution.executed \
            == result.execution.total_units - result.execution.resumed
