"""End-to-end HTTP tests: real sockets, real threads, real payloads.

Includes the PR's acceptance differential: on 10 fuzz seeds, answers
computed through the concurrent HTTP path must be **bit-identical** to
answers computed sequentially on a private engine — the serialized
(canonical) row lists are compared as exact JSON values.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
from contextlib import contextmanager

import pytest

from repro.fuzz import DEFAULT_CONFIG, random_scenario
from repro.fuzz.render import RenderError, render_query
from repro.parser import parse_mapping, parse_program
from repro.relational import Fact, Instance
from repro.serve import QueryService, ReproServer, ServiceConfig
from repro.serve.http import ServeHandler
from repro.serve.protocol import serialize_rows
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


@contextmanager
def serving(mapping, instance, config: ServiceConfig | None = None,
            handler: type[ServeHandler] = ServeHandler):
    """Boot a real server on an ephemeral port; yield (host, port)."""
    service = QueryService(mapping, instance, config or ServiceConfig())
    server = ReproServer(("127.0.0.1", 0), service)
    server.RequestHandlerClass = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[0], server.server_address[1], service
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        service.close()


def post(host, port, path, obj, connection=None):
    conn = connection or http.client.HTTPConnection(host, port, timeout=30)
    conn.request("POST", path, body=json.dumps(obj),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = json.loads(response.read())
    if connection is None:
        conn.close()
    return response.status, body, response


def get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request("GET", path)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return response.status, raw


def request(host, port, method, path, body=None):
    """Send one ``method`` request; returns the status."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    response.read()
    conn.close()
    return response.status


@pytest.fixture(scope="module")
def small_server():
    mapping = parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )
    instance = Instance(
        [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")]
    )
    with serving(mapping, instance) as (host, port, service):
        yield host, port, service


class TestRoutes:
    def test_healthz(self, small_server):
        host, port, _service = small_server
        status, raw = get(host, port, "/healthz")
        assert status == 200
        health = json.loads(raw)
        assert health["status"] == "ok"
        assert health["exchange"]["source_facts"] == 3

    def test_metrics_prometheus_text(self, small_server):
        host, port, _service = small_server
        status, raw = get(host, port, "/metrics")
        assert status == 200
        assert b"exchange_clusters_total" in raw

    def test_query_round_trip(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/query", {"query": "q(x) :- P(x, y)."}
        )
        assert status == 200
        assert body["rows"] == [["'a'"], ["'d'"]]
        assert body["mode"] == "certain"
        assert body["degraded"] is False

    def test_deadline_degrades_over_http_not_500(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/query",
            {"query": "q(x) :- P(x, y).", "deadline": 1e-9},
        )
        assert status == 200
        assert body["degraded"] is True
        assert ["'a'"] in body["unknown_candidates"]

    def test_keep_alive_reuses_connection(self, small_server):
        host, port, _service = small_server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(3):
                status, body, _ = post(
                    host, port, "/query",
                    {"query": "q(x) :- P(x, y)."}, connection=conn,
                )
                assert status == 200
        finally:
            conn.close()

    def test_bad_json_is_400(self, small_server):
        host, port, _service = small_server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/query", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_unparsable_query_is_400(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(host, port, "/query", {"query": "oops("})
        assert status == 400
        assert "unparsable" in body["error"]

    def test_unknown_path_is_404(self, small_server):
        host, port, _service = small_server
        status, _, _ = post(host, port, "/nope", {})
        assert status == 404
        assert get(host, port, "/nope")[0] == 404

    @pytest.mark.parametrize(
        "path,headers",
        [
            ("/nope", {}),
            ("/query", {"Content-Length": "9999999999"}),
        ],
    )
    def test_unread_body_closes_the_connection(
        self, small_server, path, headers
    ):
        """A POST answered without reading its body closes the
        connection: kept alive, the body would be parsed as the next
        request."""
        host, port, _service = small_server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", path, body=b'{"query": "x"}',
                         headers={"Content-Type": "application/json",
                                  **headers})
            response = conn.getresponse()
            response.read()
            assert response.status in (400, 404)
            assert response.getheader("Connection") == "close"
            status, body, _ = post(
                host, port, "/query", {"query": "q(x) :- P(x, y)."},
                connection=conn,
            )
            assert status == 200
            assert body["rows"] == [["'a'"], ["'d'"]]
        finally:
            conn.close()

    def test_admission_overflow_is_429_with_retry_after(self):
        mapping = parse_mapping(
            "SOURCE R/1. TARGET P/1. R(x) -> P(x)."
        )
        config = ServiceConfig(
            max_inflight=1, max_queue=0, queue_timeout=0.2
        )
        with serving(mapping, Instance([f("R", "a")]), config) as (
            host, port, service,
        ):
            service.admission._acquire()  # saturate the only slot
            try:
                status, body, response = post(
                    host, port, "/query", {"query": "q(x) :- P(x)."}
                )
                assert status == 429
                assert response.getheader("Retry-After") is not None
                assert body["retry_after"] > 0
            finally:
                service.admission._release()
            status, body, _ = post(
                host, port, "/query", {"query": "q(x) :- P(x)."}
            )
            assert status == 200
            assert body["rows"] == [["'a'"]]

    def test_update_then_query_over_http(self, small_server):
        """The single-writer seam end-to-end: a query issued after an
        update acknowledges must see the post-delta answers."""
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/update", {"updates": "+R('w', 'w')."}
        )
        assert status == 200
        assert body["applied"] == 1
        status, body, _ = post(
            host, port, "/query", {"query": "q(x) :- P(x, y)."}
        )
        assert status == 200
        assert ["'w'"] in body["rows"]
        # Clean up for the other module-scoped tests.
        post(host, port, "/update", {"updates": "-R('w', 'w')."})

    def test_update_of_target_relation_is_400(self, small_server):
        host, port, _service = small_server
        status, body, _ = post(
            host, port, "/update", {"updates": "+P('a', 'b')."}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "updates",
        [
            "+R('z').",  # wrong arity
            "-R('a', 'b', 'c').",  # wrong arity, retracted
            "+R('x', 'y').\n\n+P('a', 'b').",  # second step non-source
            "+R('x', 'y').\n\n+R('z').",  # second step wrong arity
        ],
    )
    def test_bad_update_is_400_and_changes_nothing(
        self, small_server, updates
    ):
        """Every step is checked before the first one applies."""
        host, port, service = small_server
        before = set(service.engine.instance)
        status, body, _ = post(host, port, "/update", {"updates": updates})
        assert status == 400, body
        assert set(service.engine.instance) == before
        status, body, _ = post(
            host, port, "/query", {"query": "q(x) :- P(x, y)."}
        )
        assert body["rows"] == [["'a'"], ["'d'"]]


class _RecordingWriter:
    """A handler's ``wfile`` that records every write before passing it on."""

    def __init__(self, inner, writes: list[bytes]):
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _RecordingHandler(ServeHandler):
    writes: list[bytes] = []

    def setup(self) -> None:
        super().setup()
        self.wfile = _RecordingWriter(self.wfile, self.writes)


class _BytesSocket:
    """Just enough of a socket for :class:`http.client.HTTPResponse`."""

    def __init__(self, data: bytes):
        self._file = io.BytesIO(data)

    def makefile(self, mode):
        return self._file


class TestOneWriteResponses:
    """Every response leaves the handler in one write: a head written
    apart from its body stalls keep-alive clients on Nagle's algorithm
    and delayed ACKs (~40 ms a request)."""

    @pytest.fixture(scope="class")
    def recording_server(self):
        mapping = parse_mapping("SOURCE R/1. TARGET P/1. R(x) -> P(x).")
        config = ServiceConfig(max_inflight=1, max_queue=0, queue_timeout=0.2)
        with serving(
            mapping, Instance([f("R", "a")]), config, _RecordingHandler
        ) as server:
            yield server

    def _one_write(self, send) -> tuple[http.client.HTTPResponse, bytes]:
        """Run ``send`` (one complete request) and parse the single chunk
        the handler wrote as a whole HTTP/1.1 response."""
        writes = _RecordingHandler.writes
        writes.clear()
        send()
        assert len(writes) == 1, [len(chunk) for chunk in writes]
        response = http.client.HTTPResponse(_BytesSocket(writes[0]))
        response.begin()
        body = response.read()
        assert response.version == 11
        assert int(response.getheader("Content-Length")) == len(body)
        return response, body

    def test_query_200(self, recording_server):
        host, port, _service = recording_server
        response, body = self._one_write(
            lambda: post(host, port, "/query", {"query": "q(x) :- P(x)."})
        )
        assert response.status == 200
        assert ["'a'"] in json.loads(body)["rows"]

    def test_update_200(self, recording_server):
        host, port, _service = recording_server
        response, _body = self._one_write(
            lambda: post(host, port, "/update", {"updates": "+R('b')."})
        )
        assert response.status == 200

    def test_bad_body_400(self, recording_server):
        host, port, _service = recording_server
        response, body = self._one_write(
            lambda: post(host, port, "/query", {"query": "oops("})
        )
        assert response.status == 400
        assert "unparsable" in json.loads(body)["error"]

    def test_unknown_path_404_get_and_post(self, recording_server):
        host, port, _service = recording_server
        response, _ = self._one_write(lambda: get(host, port, "/nope"))
        assert response.status == 404
        response, _ = self._one_write(lambda: post(host, port, "/nope", {}))
        assert response.status == 404
        assert response.getheader("Connection") == "close"

    def test_saturated_admission_429(self, recording_server):
        host, port, service = recording_server
        service.admission._acquire()  # saturate the only slot
        try:
            response, body = self._one_write(
                lambda: post(host, port, "/query", {"query": "q(x) :- P(x)."})
            )
        finally:
            service.admission._release()
        assert response.status == 429
        assert response.getheader("Retry-After") is not None
        assert json.loads(body)["retry_after"] > 0

    def test_internal_error_500(self, recording_server, monkeypatch):
        host, port, service = recording_server

        def broken(request):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "query", broken)
        response, body = self._one_write(
            lambda: post(host, port, "/query", {"query": "q(x) :- P(x)."})
        )
        assert response.status == 500
        assert json.loads(body)["error"] == "RuntimeError: boom"

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_other_methods_405_with_allow(self, recording_server, method):
        host, port, _service = recording_server
        response, body = self._one_write(
            lambda: request(host, port, method, "/query", b'{"query": "x"}')
        )
        assert response.status == 405
        assert response.getheader("Allow") == "GET, POST"
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Connection") == "close"
        assert method in json.loads(body)["error"]

    def test_head_405_has_no_body(self, recording_server):
        host, port, _service = recording_server
        writes = _RecordingHandler.writes
        writes.clear()
        status = request(host, port, "HEAD", "/healthz")
        assert status == 405
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 405 ")
        assert writes[0].endswith(b"\r\n\r\n")
        assert b"Allow: GET, POST\r\n" in writes[0]

    def test_unrecognized_method_is_json(self, recording_server):
        """The base class's own errors leave as JSON in one write too."""
        host, port, _service = recording_server
        response, body = self._one_write(
            lambda: request(host, port, "BREW", "/query")
        )
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert "BREW" in json.loads(body)["error"]

    def test_healthz_and_metrics(self, recording_server):
        host, port, _service = recording_server
        response, body = self._one_write(lambda: get(host, port, "/healthz"))
        assert response.status == 200
        assert json.loads(body)["status"] == "ok"
        response, body = self._one_write(lambda: get(host, port, "/metrics"))
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert b"serve_requests_total" in body


DIFFERENTIAL_SEEDS = 10


def _renderable_scenarios():
    """The first ``DIFFERENTIAL_SEEDS`` fuzz scenarios whose query has a
    text rendering (the wire protocol ships query *text*)."""
    scenarios = []
    seed = 0
    while len(scenarios) < DIFFERENTIAL_SEEDS and seed < 200:
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        try:
            text = render_query(scenario.query)
        except RenderError:
            seed += 1
            continue
        scenarios.append((seed, scenario, text))
        seed += 1
    assert len(scenarios) == DIFFERENTIAL_SEEDS
    return scenarios


class TestConcurrentDifferential:
    def test_concurrent_answers_bit_identical_to_sequential(self):
        """Acceptance: on 10 fuzz seeds, every concurrently-served
        answer equals the sequentially-computed one, bit for bit."""
        for seed, scenario, query_text in _renderable_scenarios():
            # Sequential reference on a private engine.
            with SegmentaryEngine(
                scenario.mapping, scenario.instance.copy()
            ) as engine:
                query = parse_program(query_text)
                expected = {
                    mode: serialize_rows(
                        engine.answer_with_stats(query, mode=mode)[0]
                    )
                    for mode in ("certain", "possible")
                }
            with serving(
                scenario.mapping, scenario.instance.copy()
            ) as (host, port, _service):
                results: list = []
                errors: list[BaseException] = []
                barrier = threading.Barrier(6)

                def client(index: int) -> None:
                    try:
                        mode = ("certain", "possible")[index % 2]
                        barrier.wait()
                        for _ in range(3):
                            status, body, _ = post(
                                host, port, "/query",
                                {"query": query_text, "mode": mode},
                            )
                            assert status == 200, body
                            assert body["degraded"] is False
                            results.append((mode, body["rows"]))
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
                assert len(results) == 18
                for mode, rows in results:
                    assert rows == expected[mode], (
                        f"seed {seed} diverged under concurrency ({mode})"
                    )
