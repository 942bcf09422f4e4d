"""End-to-end HTTP API tests: submit, poll, results, cache replay."""

import json
import threading

import pytest

from repro.obs.ledger import RunLedger
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobQueue, JobState
from repro.service.server import ServiceHTTPServer, serve_in_thread


@pytest.fixture()
def service(tmp_path):
    """A live server on an ephemeral port, with its queue and client."""
    queue = JobQueue(
        cache_dir=str(tmp_path / "cache"),
        ledger_path=str(tmp_path / "service_ledger.sqlite"),
        jobs=1,
    )
    server, _thread = serve_in_thread(queue)
    client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=30.0)
    yield client, queue, tmp_path
    server.shutdown()
    server.server_close()
    queue.shutdown(wait=True, timeout=10.0)


@pytest.fixture()
def parked_service(tmp_path):
    """A live server whose queue worker never starts (jobs stay queued)."""
    queue = JobQueue(cache_dir=str(tmp_path / "cache"))
    server = ServiceHTTPServer(("127.0.0.1", 0), queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=30.0)
    yield client
    server.shutdown()
    server.server_close()


# Large enough that a cold 2-point sweep takes visibly longer than a
# cache replay (the e2e test asserts cold wall > warm wall).
SPEC = {"kernels": ["convert", "fft"], "records": 256}


class TestEndToEnd:
    def test_submit_poll_results_and_cache_replay(self, service):
        """The acceptance path: cold sweep over HTTP, then an identical
        resubmission that replays from the run cache — faster, with
        ledger cache-hit rows, and a byte-identical payload."""
        client, _queue, tmp_path = service
        assert client.health()["status"] == "ok"

        accepted = client.submit(SPEC)
        assert accepted["state"] == JobState.QUEUED
        assert accepted["status_url"].endswith(accepted["job_id"])

        cold = client.wait(accepted["job_id"], timeout=180.0)
        assert cold["state"] == JobState.DONE
        assert cold["progress"]["completed"] == cold["points_total"] == 2
        assert cold["cache"] == {"miss": 2}
        cold_wall = cold["duration_seconds"]
        cold_bytes = client.results_bytes(accepted["job_id"])
        doc = json.loads(cold_bytes.decode("utf-8"))
        assert doc["num_points"] == 2
        assert {row["kernel"] for row in doc["rows"]} == {"convert", "fft"}

        # identical spec again: served from the run cache
        again = client.submit(SPEC)
        assert again["job_id"] != accepted["job_id"]
        assert again["spec_fingerprint"] == accepted["spec_fingerprint"]
        warm = client.wait(again["job_id"], timeout=180.0)
        assert warm["state"] == JobState.DONE
        assert warm["cache"] == {"hit": 2}
        warm_wall = warm["duration_seconds"]
        assert cold_wall > warm_wall

        # the ledger recorded the replays durably
        ledger = RunLedger(str(tmp_path / "service_ledger.sqlite"))
        counts = ledger.cache_counts()
        assert counts.get("hit") == 2 and counts.get("miss") == 2

        # byte-identical payloads: the service contract
        warm_bytes = client.results_bytes(again["job_id"])
        assert warm_bytes == cold_bytes

    def test_n_concurrent_clients_share_one_cold_run(self, service):
        client, _queue, tmp_path = service
        n_clients = 4
        payloads, errors = [], []
        lock = threading.Lock()

        def one_client():
            try:
                own = ServiceClient(client.base_url, timeout=30.0)
                accepted = own.submit(SPEC)
                final = own.wait(accepted["job_id"], timeout=180.0)
                assert final["state"] == JobState.DONE
                body = own.results_bytes(accepted["job_id"])
                with lock:
                    payloads.append(body)
            except Exception as exc:  # surfaced below, not swallowed
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=one_client)
                   for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(payloads) == n_clients
        assert all(p == payloads[0] for p in payloads)

        counts = RunLedger(
            str(tmp_path / "service_ledger.sqlite")
        ).cache_counts()
        assert counts.get("miss") == 2
        assert counts.get("hit") == (n_clients - 1) * 2


class TestErrorsAndControl:
    def test_unknown_paths_and_jobs_are_404(self, service):
        client, _, _ = service
        for path in ("/nope", "/jobs/deadbeef", "/jobs/deadbeef/results"):
            with pytest.raises(ServiceError) as exc_info:
                client._json("GET", path)
            assert exc_info.value.status == 404

    def test_bad_specs_are_400_with_reason(self, service):
        client, _, _ = service
        for spec, reason in (
            ({"kernels": ["not-a-kernel"]}, "unknown kernel"),
            ({"kernels": ["convert"], "typo": 1}, "['typo']"),
            ({"kernels": ["convert"], "engine_core": "array"},
             "unknown spec field(s) ['engine_core']"),
            ({"configs": ["S"]}, "requires a 'kernels'"),
        ):
            with pytest.raises(ServiceError) as exc_info:
                client.submit(spec)
            assert exc_info.value.status == 400
            assert "bad sweep spec" in exc_info.value.message
            assert reason in exc_info.value.message

    def test_results_before_done_is_409(self, parked_service):
        accepted = parked_service.submit({"kernels": ["convert"]})
        status = parked_service.status(accepted["job_id"])
        assert status["state"] == JobState.QUEUED
        with pytest.raises(ServiceError) as exc_info:
            parked_service.results(accepted["job_id"])
        assert exc_info.value.status == 409

    def test_delete_cancels_a_queued_job(self, parked_service):
        accepted = parked_service.submit({"kernels": ["convert"]})
        reply = parked_service.cancel(accepted["job_id"])
        assert reply["cancelled"] is True
        assert reply["state"] == JobState.CANCELLED
        # still 409 (never DONE), and a repeat cancel reports False
        with pytest.raises(ServiceError) as exc_info:
            parked_service.results(accepted["job_id"])
        assert exc_info.value.status == 409
        assert parked_service.cancel(accepted["job_id"])["cancelled"] is False

    def test_healthz_counts_jobs_by_state(self, parked_service):
        parked_service.submit({"kernels": ["convert"]})
        doc = parked_service.health()
        assert doc["status"] == "ok"
        assert doc["jobs"] == {"queued": 1}
        assert doc["uptime_seconds"] >= 0

    def test_jobs_listing(self, parked_service):
        a = parked_service.submit({"kernels": ["convert"]})["job_id"]
        b = parked_service.submit({"kernels": ["fft"]})["job_id"]
        listed = parked_service.jobs()["jobs"]
        assert [j["job_id"] for j in listed] == [a, b]
        assert all(j["state"] == JobState.QUEUED for j in listed)


class TestSubmitCLI:
    def test_repro_submit_prints_payload_and_exits_zero(
        self, service, capsys
    ):
        from repro.service.cli import submit_main

        client, _, _ = service
        rc = submit_main([
            "convert", "--url", client.base_url, "--records", "8",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["num_points"] == 1
        assert payload["rows"][0]["kernel"] == "convert"
        assert "done in" in captured.err

    def test_repro_submit_no_wait_prints_job_id(self, service, capsys):
        from repro.service.cli import submit_main

        client, queue, _ = service
        rc = submit_main([
            "convert", "--url", client.base_url, "--records", "8",
            "--no-wait",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        job_id = captured.out.strip()
        assert queue.get(job_id) is not None

    def test_repro_submit_unreachable_is_exit_2(self, capsys):
        from repro.service.cli import submit_main

        # nothing listens on this port (bind-and-close grabs a free one)
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = submit_main(["convert", "--url", f"http://127.0.0.1:{port}"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err
