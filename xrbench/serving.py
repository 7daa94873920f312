"""The served workloads: a ``repro serve`` process and a load generator.

The server runs in its own process, started exactly as a user starts it
(``python -m repro serve --scenario M9``), or through ``launcher.py`` for
a traced run.  This process is the only client: two threads, each with
one keep-alive connection.  Every request is checked: reads against the
recorded answer digests, updates for both steps applied.  Updates
retract one suspect source fact and re-insert it in the same request, so
the net change is zero and every read must keep the recorded answer.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import BENCH_DIR, process_peak_rss_mb, program_env, workload_rng

#: The served scenario and the queries the clients send.
SCENARIO = "M9"
READ_QUERIES = ("ep2", "xr2")

#: Reads cycle through this pattern.  A warm xr2 takes about half as long
#: as a warm ep2, so with reads split evenly the median read sits on the
#: step between the two; two ep2 per xr2 puts it inside the ep2 cluster.
READ_PATTERN = ("ep2", "ep2", "xr2")

#: Every UPDATE_EVERY-th request is an /update.
UPDATE_EVERY = 10

#: Open-loop arrival rate (requests per second).  On a shared 2-core box
#: the server kept up at 7/s while the host was quiet, but when the host
#: slowed down, reads queued behind the cold reads that follow each
#: update, and the median read latency rose by more than half.  At 5/s it
#: stays clear of that.
OPEN_LOOP_RATE = 5.0

#: Seconds a server may take to become healthy before the run fails.
START_TIMEOUT = 120.0


@dataclass
class Sample:
    """One request as the client saw it."""

    op: str
    kind: str  # "read" or "update"
    due: float | None
    sent: float
    done: float
    status: int
    ok: bool
    late: float | None = None  # open loop: send time past due, if not backlogged

    @property
    def latency(self) -> float:
        """Open loop: from when the request was due; closed: from send."""
        return self.done - (self.due if self.due is not None else self.sent)

    @property
    def service_time(self) -> float:
        return self.done - self.sent


@dataclass
class PhaseLog:
    samples: list[Sample] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    seconds: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, sample: Sample, problem: str | None) -> None:
        with self.lock:
            self.samples.append(sample)
            if problem is not None and len(self.mismatches) < 20:
                self.mismatches.append(problem)


class Server:
    """One server process; ``stop`` ends it and waits for it."""

    def __init__(self, root: Path, workdir: Path, traced: bool, label: str) -> None:
        self.workdir = workdir
        self.spans_path = workdir / f"{label}-spans.json"
        self.stdout_path = workdir / f"{label}-stdout.txt"
        self.stderr_path = workdir / f"{label}-stderr.txt"
        serve_args = ["serve", "--scenario", SCENARIO, "--port", "0", "--jobs", "1"]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "launcher.py"),
                       "--spans-out", str(self.spans_path), *serve_args]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        started = time.perf_counter()
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                command, cwd=root, env=program_env(root), stdout=out, stderr=err
            )
        try:
            self.port = self._wait_for_port(started)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _failure(self, what: str) -> RuntimeError:
        return RuntimeError(f"server {what}: {self.stderr_path.read_text(errors='replace')[-2000:]}")

    def _wait_for_port(self, started: float) -> int:
        pattern = re.compile(r"serving on http://[^:]+:(\d+)")
        while time.perf_counter() - started < START_TIMEOUT:
            match = pattern.search(self.stdout_path.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise self._failure(f"exited with {self.process.returncode}")
            time.sleep(0.005)
        raise self._failure("never reported its port")

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < START_TIMEOUT:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if self.process.poll() is not None:
                raise self._failure(f"exited with {self.process.returncode}")
            time.sleep(0.005)
        raise self._failure("never became healthy")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        """SIGTERM, then wait; a server that will not stop is killed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode

    def spans(self) -> list[dict]:
        with open(self.spans_path, encoding="utf-8") as handle:
            return json.load(handle)


class Traffic:
    """The request sequence of one run.

    Requests repeat in cycles: each cycle updates every suspect once, with
    ``UPDATE_EVERY - 1`` reads before each update, following
    :data:`READ_PATTERN`.  Runs send whole cycles, so every run does the same
    multiset of work; the workload seed picks where in the cycle a run
    starts, which changes the order of the work, not its amount.
    """

    def __init__(self, expected: dict, seed: int, holdout: bool) -> None:
        from repro.genomics.queries import query_text_by_name

        self.expected = expected
        self.suspects = expected["suspects"]
        self.cycle = UPDATE_EVERY * len(self.suspects)
        self.offset = workload_rng(seed, holdout, "traffic").randrange(self.cycle)
        self.texts = {name: query_text_by_name(name) for name in READ_QUERIES}

    def request(self, index: int) -> tuple[str, str, dict]:
        """(kind, path, body) of request ``index`` of the run."""
        position = (self.offset + index) % self.cycle
        if position % UPDATE_EVERY == UPDATE_EVERY - 1:
            fact = self.suspects[position // UPDATE_EVERY]
            return "update", "/update", {"updates": f"-{fact}.\n\n+{fact}.\n"}
        reads_before = position - position // UPDATE_EVERY
        name = READ_PATTERN[reads_before % len(READ_PATTERN)]
        return "read", "/query", {"query": self.texts[name], "mode": "certain"}

    def check(self, kind: str, status: int, payload: bytes) -> str | None:
        """None when the response is the expected one, else the problem."""
        from common import digest_rows

        if status != 200:
            return f"{kind} returned HTTP {status}: {payload[:200]!r}"
        reply = json.loads(payload)
        if kind == "update":
            steps = reply.get("steps", [])
            if reply.get("applied") != 2 or any(step["noop"] for step in steps):
                return f"update not applied as two effective steps: {reply}"
            return None
        name = reply.get("name")
        if reply.get("degraded"):
            return f"{name} degraded"
        if digest_rows(reply["rows"]) != self.expected["answers"].get(name):
            return f"{name}: answer rows differ from the recorded ones"
        return None


def _post(connection, path: str, body: dict, request_id: str) -> tuple[int, bytes]:
    encoded = json.dumps(body).encode()
    connection.request(
        "POST", path, encoded,
        {"Content-Type": "application/json", "X-Bench-Id": request_id},
    )
    response = connection.getresponse()
    return response.status, response.read()


def _send(connection, traffic: Traffic, index: int, op: str, due, log: PhaseLog, late) -> None:
    kind, path, body = traffic.request(index)
    sent = time.perf_counter()
    try:
        status, payload = _post(connection, path, body, op)
        problem = traffic.check(kind, status, payload)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, problem = 0, f"{kind} failed: {type(exc).__name__}: {exc}"
    done = time.perf_counter()
    log.add(Sample(op, kind, due, sent, done, status, problem is None, late), problem)


def warm_up(port: int, traffic: Traffic) -> list[str]:
    """Send each read query once, untimed, so the cache starts warm."""
    problems = []
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for name in READ_QUERIES:
            body = {"query": traffic.texts[name], "mode": "certain"}
            status, payload = _post(connection, "/query", body, f"warm-{name}")
            problem = traffic.check("read", status, payload)
            if problem:
                problems.append(problem)
    finally:
        connection.close()
    return problems


def open_loop(port: int, traffic: Traffic, seconds: float, phase: str, first: int = 0) -> PhaseLog:
    """Send the whole cycles closest to ``seconds`` at :data:`OPEN_LOOP_RATE`
    on a fixed schedule; a request waits for a free connection when both
    are busy, and its latency counts from when it was due."""
    cycles = max(1, round(seconds * OPEN_LOOP_RATE / traffic.cycle))
    log = PhaseLog()
    start = time.perf_counter() + 0.05

    def send_on_time(connection, index: int) -> None:
        due = start + index / OPEN_LOOP_RATE
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late = time.perf_counter() - due if wait > 0 else None
        _send(connection, traffic, first + index, f"{phase}-{index}", due, log, late)

    _from_two_connections(port, range(cycles * traffic.cycle), send_on_time)
    log.seconds = time.perf_counter() - start
    return log


def closed_loop(port: int, traffic: Traffic, seconds: float, phase: str, first: int = 0) -> PhaseLog:
    """Each connection sends its next request when the previous one is
    answered.  Whole cycles are sent while the next one is expected to end
    within ``seconds`` (at least one)."""
    log = PhaseLog()
    start = time.perf_counter()

    def send_now(connection, index: int) -> None:
        _send(connection, traffic, index, f"{phase}-{index}", None, log, None)

    cycle_seconds = 0.0
    sent = 0
    while sent == 0 or time.perf_counter() - start + cycle_seconds <= seconds:
        cycle_start = time.perf_counter()
        _from_two_connections(port, range(first + sent, first + sent + traffic.cycle), send_now)
        sent += traffic.cycle
        cycle_seconds = time.perf_counter() - cycle_start
    log.seconds = time.perf_counter() - start
    return log


def _from_two_connections(port: int, indices: range, send) -> None:
    """Two threads, each with one keep-alive connection, call
    ``send(connection, index)`` for the next unclaimed index until none
    are left."""
    pending = iter(indices)
    take = threading.Lock()

    def sender() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with take:
                    index = next(pending, None)
                if index is None:
                    return
                send(connection, index)
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


def new_workdir(root: Path) -> Path:
    """A private scratch directory inside the checkout (git-ignored)."""
    workdir = root / ".xrbench-runs" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    return workdir
