"""End-to-end benchmark of the XR-Certain stack.

    python3 xrbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--holdout] [--out FILE]

Run from the root of a checkout.  ``--seconds`` is the length of the
whole measurement, the timed set-ups included.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` measures the per-layer metrics: it
runs half the time untraced and half traced (wrappers from
``layers.py``), reports the tracing overhead, and checks that the layers'
self times plus the unattributed remainder add up to the traced
end-to-end time.

Every timed operation is checked against ``expected.json``; any mismatch
makes the run exit 1.  The last line of standard output is the summary
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full result (provenance, tail percentiles, trace attribution),
which ``--out`` also appends to a JSON-lines file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import subprocess
import sys
import time

import layers
import serving
from common import (
    BENCH_DIR,
    ProgramMissing,
    load_expected,
    median,
    program_env,
    provenance,
    self_peak_rss_mb,
    summarize,
    use_program,
)

IN_PROCESS = "exchange-L20"
SERVED = "serve-rw-M9"
WORKLOADS = (IN_PROCESS, SERVED)

#: End-to-end metrics (every workload reports all of them).  The tail
#: latency is measured and recorded in the full result, but it is not one
#: of these: its run-to-run spread on serve-rw-M9 is wider than the
#: largest bound a metric may have (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
}

#: Per-layer metrics: name -> (unit, span name, what to aggregate).
#: "dur"/"self" are per-operation sums of span duration / self time,
#: "count:KEY" per-operation sums of a count read from return values.
SPAN_METRICS = {
    "chase.chase_s": ("s", "chase.chase", "dur"),
    "chase.groundings_s": ("s", "chase.groundings", "dur"),
    "chase.violations_s": ("s", "chase.violations", "dur"),
    "chase.chased_facts": ("count", None, "count:chased_facts"),
    "chase.groundings": ("count", None, "count:groundings"),
    "chase.violations": ("count", None, "count:violations"),
    "chase.plan_sqlite": ("count", None, "count:plan_sqlite"),
    "exchange.index_s": ("s", "exchange.index", "self"),
    "envelope.analyze_s": ("s", "envelope.analyze", "dur"),
    "envelope.clusters": ("count", None, "count:clusters"),
    "reduction.rewrite_s": ("s", "reduction.rewrite", "dur"),
    "queries.ground_s": ("s", "queries.ground", "dur"),
    "queries.candidates": ("count", None, "count:candidates"),
    "segmentary.group_s": ("s", "segmentary.group", "self"),
    "program.build_s": ("s", "program.build", "dur"),
    "asp.encode_s": ("s", "asp.encode", "dur"),
    "asp.search_s": ("s", "asp.search", "self"),
    "asp.families": ("count", None, "count:families"),
    "asp.conflicts": ("count", None, "count:conflicts"),
    "asp.decisions": ("count", None, "count:decisions"),
    "runtime.solve_s": ("s", "runtime.solve", "self"),
    "incremental.apply_s": ("s", "incremental.apply", "dur"),
    "incremental.delta_chase_s": ("s", "incremental.delta_chase", "dur"),
    "serve.handler_ms": ("ms", "serve.handler", "dur"),
    "serve.admission_wait_ms": ("ms", "serve.admission_wait", "dur"),
    "serve.lock_wait_ms": ("ms", "serve.lock_wait", "dur"),
}
OTHER_LAYER_METRICS = {
    "runtime.cache_hit_ratio": "fraction",
    "runtime.memo_hit_ratio": "fraction",
    "serve.transport_ms": "ms",
    "serve.update_ms": "ms",
    "serve.rejected_frac": "fraction",
    "loadgen.late_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seconds a set-up may take before the run fails.
SETUP_TIMEOUT = 60.0

#: Share of a served run spent in the open-loop phase (rest: closed loop).
OPEN_SHARE = 0.7

#: Largest tolerated |layer self times + unattributed - end to end|.
ATTRIBUTION_TOLERANCE_S = 1e-6


class Result:
    """Everything one run measured; ``summary`` is the contract line."""

    def __init__(self, workload: str, trace: bool, prov: dict) -> None:
        self.workload, self.trace, self.provenance = workload, trace, prov
        self.metrics: dict[str, dict] = {}
        self.tails: dict[str, dict] = {}
        self.details: dict = {}
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def absorb(self, attempted: int, failed: int, mismatches: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.mismatches.extend(mismatches[: 20 - len(self.mismatches)])

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def full(self) -> dict:
        return {
            "xrbench": 1,
            "workload": self.workload,
            "trace": int(self.trace),
            "provenance": self.provenance,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / max(1, self.attempted),
            "mismatches": self.mismatches,
            "metrics": self.metrics,
            "tails": self.tails,
            "details": self.details,
        }

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def latency_metrics(result: Result, latencies_s: list[float], label: str) -> None:
    stats = summarize([value * 1000.0 for value in latencies_s])
    result.metric("p50_ms", stats["p50"], "ms")
    result.tails["tail_ms"] = {
        "operation": label,
        "value": stats["tail"],
        "percentile": stats["tail_percentile"],
        "samples": stats["samples"],
        "beyond": stats["tail_beyond"],
        "meets_ten_beyond_rule": stats["tail_meets_rule"],
    }


# ------------------------------------------------------------ in-process


def time_setups(root, workload: str, seed: int, holdout: bool) -> list[float]:
    """Spawn-to-ready seconds of fresh-interpreter set-ups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "workloads.py"), "--setup", workload,
             "--seed", str(seed), *(["--holdout"] if holdout else [])],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE, text=True,
        )
        line = ""
        try:
            if select.select([child.stdout], [], [], SETUP_TIMEOUT)[0]:
                line = child.stdout.readline()
            ready = time.perf_counter()
            code = child.wait(timeout=SETUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if not line.startswith("ready") or code != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {code})")
        samples.append(ready - started)
    return samples


def run_in_process_ops(arguments, seconds, expected, recorder=None):
    """Generate the workload's inputs in this process and run its loop.

    Only the inputs: a set-up exchange left in the heap would slow the
    timed exchanges down.
    """
    import workloads

    workload, seed, holdout = arguments.workload, arguments.seed, arguments.holdout
    instance = workloads.generate_instance(workloads.SCENARIOS[workload], seed, holdout)
    return workloads.run_exchanges(workloads.reduced_genome_mapping(), instance,
                                   seconds, expected[workload], recorder)


def in_process(root, arguments, result: Result, expected: dict) -> None:
    """Set-ups first, then exchanges for the rest of ``--seconds``."""
    workload, seconds = arguments.workload, arguments.seconds
    if not arguments.trace:
        started = time.perf_counter()
        setups = time_setups(root, workload, arguments.seed, arguments.holdout)
        remaining = seconds - (time.perf_counter() - started)
        log = run_in_process_ops(arguments, remaining, expected)
        result.absorb(log.attempted, log.failed, log.mismatches)
        result.metric("setup_s", median(setups), "s")
        result.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
        latency_metrics(result, log.latencies, "exchange")
        result.metric("ops_per_s", len(log.latencies) / log.busy_seconds, "1/s")
        result.details["setup_samples_s"] = setups
        return

    plain = run_in_process_ops(arguments, seconds / 2, expected)
    result.absorb(plain.attempted, plain.failed, plain.mismatches)
    recorder = layers.SpanRecorder()
    installation = layers.install(recorder)
    try:
        traced = run_in_process_ops(arguments, seconds / 2, expected, recorder)
    finally:
        layers.uninstall(installation)
    result.absorb(traced.attempted, traced.failed, traced.mismatches)
    layer_metrics(result, recorder.spans, "exchange", plain.latencies, traced.latencies)


# ------------------------------------------------------------ served


def served(root, arguments, result: Result, expected: dict) -> None:
    traffic = serving.Traffic(expected["serve"], arguments.seed, arguments.holdout)
    workdir = serving.new_workdir(root)
    try:
        if arguments.trace:
            served_traced(root, workdir, arguments, result, traffic)
        else:
            served_plain(root, workdir, arguments, result, traffic)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _absorb_phase(result: Result, log) -> None:
    failed = sum(1 for sample in log.samples if not sample.ok)
    result.absorb(len(log.samples), failed, log.mismatches)


def _warm(server, traffic, result: Result) -> None:
    try:
        problems = serving.warm_up(server.port, traffic)
    except BaseException:
        server.stop()
        raise
    result.absorb(len(serving.READ_QUERIES), len(problems), problems)


def _reads(log) -> list[float]:
    """Latencies of the reads that succeeded; of all reads if none did, so
    a failing run still reports (and exits 1 on its mismatches)."""
    reads = [sample for sample in log.samples if sample.kind == "read"]
    return [sample.latency for sample in reads if sample.ok] or [
        sample.latency for sample in reads
    ]


def served_plain(root, workdir, arguments, result, traffic) -> None:
    """Set-up timed over fresh servers; then the open-loop phase (whole
    cycles, about ``OPEN_SHARE`` of the run) and the closed-loop phase
    (whole cycles in the time left) on the last one."""
    started = time.perf_counter()
    setups = []
    for attempt in range(SETUP_REPEATS):
        server = serving.Server(root, workdir, False, f"server-{attempt}")
        setups.append(server.setup_seconds)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    _warm(server, traffic, result)
    try:
        opened = serving.open_loop(server.port, traffic, arguments.seconds * OPEN_SHARE,
                                   "open")
        remaining = arguments.seconds - (time.perf_counter() - started)
        closed = serving.closed_loop(server.port, traffic, remaining, "closed",
                                     first=len(opened.samples))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for log in (opened, closed):
        _absorb_phase(result, log)
    result.metric("setup_s", median(setups), "s")
    result.metric("peak_rss_mb", rss, "MB")
    latency_metrics(result, _reads(opened), "/query from due time")
    completed = sum(1 for sample in closed.samples if sample.ok)
    result.metric("ops_per_s", completed / closed.seconds, "1/s")
    result.details.update(
        setup_samples_s=setups,
        open_loop=_phase_details(opened),
        closed_loop={"requests": len(closed.samples), "seconds": closed.seconds},
    )


def _phase_details(log) -> dict:
    """Open-loop facts a reader needs to trust the latencies: whether the
    generator kept its schedule, how many requests found both
    connections busy, and the /update latencies beside the reads."""
    lates = [sample.late * 1000.0 for sample in log.samples if sample.late is not None]
    by_kind = {}
    for kind in ("read", "update"):
        values = [s.latency * 1000.0 for s in log.samples if s.ok and s.kind == kind]
        if values:
            by_kind[kind] = summarize(values)
    return {
        "rate_per_s": serving.OPEN_LOOP_RATE,
        "update_every": serving.UPDATE_EVERY,
        "requests": len(log.samples),
        "backlogged": sum(1 for sample in log.samples if sample.late is None),
        "late_ms_p50": median(lates) if lates else None,
        "latency_ms": by_kind,
    }


def served_traced(root, workdir, arguments, result, traffic) -> None:
    """Open loop against a plain server, then against a traced one; the
    traced server's spans are joined to the client's requests by id."""
    logs, servers = {}, {}
    for label, traced in (("plain", False), ("traced", True)):
        server = servers[label] = serving.Server(root, workdir, traced, label)
        _warm(server, traffic, result)
        try:
            logs[label] = serving.open_loop(server.port, traffic, arguments.seconds / 2,
                                            label)
        finally:
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"{label} server exited with {code}")
        _absorb_phase(result, logs[label])
    recorder = layers.SpanRecorder()
    recorder.extend([layers.span_from_dict(item) for item in servers["traced"].spans()])
    handler = {span.op: span.duration for span in recorder.spans
               if span.name == "serve.handler"}
    samples = logs["traced"].samples
    joined = [sample for sample in samples if sample.op in handler]
    for sample in joined:
        recorder.add_external(sample.op, "request", sample.service_time, handler[sample.op])
    layer_metrics(result, recorder.spans, "request", _reads(logs["plain"]),
                  _reads(logs["traced"]))
    transport = [(sample.service_time - handler[sample.op]) * 1000.0 for sample in joined]
    updates = [sample.latency * 1000.0 for sample in samples
               if sample.ok and sample.kind == "update"]
    lates = [sample.late * 1000.0 for log in logs.values() for sample in log.samples
             if sample.late is not None]
    result.metric("serve.transport_ms", median(transport) if transport else 0.0, "ms")
    result.metric("serve.update_ms", median(updates) if updates else 0.0, "ms")
    result.metric("serve.rejected_frac",
                  sum(1 for s in samples if s.status == 429) / max(1, len(samples)),
                  "fraction")
    result.metric("loadgen.late_ms", median(lates) if lates else 0.0, "ms")


# ------------------------------------------------------------ per-layer


def layer_metrics(result: Result, spans, kind: str, plain: list[float],
                  traced: list[float]) -> None:
    """Per-layer metrics from the traced spans, plus the trace checks.

    Each metric is the median, over the operations of ``kind`` that
    touched the layer, of the layer's per-operation total.  A layer that
    only works during set-up (the chase, when the timed operations are
    served requests) is reported from the set-up instead.
    """
    unexercised = []
    for name, (unit, span_name, what) in SPAN_METRICS.items():
        values = []
        for source_kind in (kind, layers.SETUP):
            if what.startswith("count:"):
                values = layers.per_op_count(spans, source_kind, what[len("count:"):])
            else:
                attr = "duration" if what == "dur" else "self_time"
                values = layers.per_op(spans, source_kind, span_name, attr)
            if values:
                break
        scale = 1000.0 if unit == "ms" else 1.0
        if not values:
            unexercised.append(name)
        result.metric(name, median(values) * scale if values else 0.0, unit)
    for name, key in (("runtime.cache_hit_ratio", "cache"), ("runtime.memo_hit_ratio", "memo")):
        hits = sum(layers.per_op_count(spans, kind, f"{key}_hits"))
        misses = sum(layers.per_op_count(spans, kind, f"{key}_misses"))
        result.metric(name, hits / (hits + misses) if hits + misses else 0.0, "fraction")
    for name, unit in OTHER_LAYER_METRICS.items():
        if name not in result.metrics:
            result.metric(name, 0.0, unit)
    attributed = layers.attribution(spans, kind)
    if abs(attributed["sum_error_s"]) > ATTRIBUTION_TOLERANCE_S:
        raise RuntimeError(f"layer self times do not add up: {attributed}")
    total = attributed["end_to_end_s"]
    result.metric("trace.unattributed_frac",
                  attributed["unattributed_s"] / total if total else 0.0, "fraction")
    result.metric("trace.overhead_frac", median(traced) / median(plain) - 1.0, "fraction")
    result.details.update(attribution=attributed, unexercised_layers=unexercised,
                          untraced_ops=len(plain), traced_ops=len(traced))


# ------------------------------------------------------------ main


def parse_arguments(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the XR-Certain stack.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="draw inputs from the held-out seed family, to re-check "
                             "a claim on seeds not used while making it")
    parser.add_argument("--out", help="append the full result to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    try:
        root = use_program()
    except ProgramMissing as exc:
        print(f"xrbench: {exc}", file=sys.stderr)
        return 2
    expected = load_expected()
    result = Result(arguments.workload, bool(arguments.trace),
                    provenance(root, arguments.seed, arguments.holdout))
    if arguments.workload == IN_PROCESS:
        in_process(root, arguments, result, expected)
    else:
        served(root, arguments, result, expected)
    if arguments.trace:
        leftover = layers.installed_wrappers()
        if leftover:
            raise RuntimeError(f"trace wrappers left installed: {leftover}")
    full = result.full()
    if arguments.out:
        with open(arguments.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(full) + "\n")
    print(json.dumps(full))
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
