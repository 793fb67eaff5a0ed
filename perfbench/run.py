"""perfbench: the end-to-end benchmark of the Gallery reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45

One run builds a seeded corpus into a 4-shard file-backed store (``sqlite``
metadata, ``fs`` blobs) under ``.perfbench/``, starts the workload's
replicas as child processes, and drives them over TCP through
``repro.service.connect()`` from closed-loop caller threads, each on its
own connection (``CALLERS``).  Every reply is checked against the seed-derived
answer.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it measures the same load in alternating untraced and traced
slices, half of ``--seconds`` each, and reports the per-layer metrics and
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload with tracing off and on and prints every table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import platform
import shutil
import sqlite3
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("read-hot", "query-scan", "lifecycle", "lifecycle-local")
#: closed-loop caller threads, each with its own connection.  Workloads
#: with one replica have one caller: with two on one replica, the read batcher's load
#: estimate flips between batches of one and batches of two, and holds its
#: window open for the second request in the latter, so runs landed in
#: either regime (read-hot p50 0.8 or 3.2 ms).  lifecycle's two callers
#: each have their own replica.
CALLERS = {"read-hot": 1, "query-scan": 1, "lifecycle": 2, "lifecycle-local": 1}
#: replica processes; caller *i* talks to replica ``i % count``
REPLICAS = {"lifecycle": 2}
#: replica start-to-ready is repeated this many times per run; the median
#: is reported as part of ``setup_s``
STARTS = 5
#: lifecycle rounds before timing
WARM_ROUNDS = 80
#: the end-to-end phase is timed in this many equal slices, and throughput
#: and the p50s are medians over them, so a slow stretch of the host that
#: covers fewer than half the slices does not move them
MEASURE_SLICES = 10
#: a traced run alternates this many untraced and traced slices, so both
#: kinds see the same store states
TRACE_SLICES = 4

#: (name, unit) of the end-to-end metrics, reported with tracing off
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("point_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("server_rss_mb", "MiB"),
)
#: (name, unit) of the per-layer metrics, reported by the traced run
PER_LAYER = (
    ("client.self_ms", "ms"),
    ("client.attempts_per_call", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.response_kb", "KiB"),
    ("tcp.transit_ms", "ms"),
    ("tcp.busy_ms", "ms"),
    ("batching.wait_ms", "ms"),
    ("batching.batch_size", "count"),
    ("batching.coalesce_ratio", "ratio"),
    ("server.self_ms", "ms"),
    ("server.window_ms", "ms"),
    ("registry.query_self_ms", "ms"),
    ("registry.examined_per_result", "ratio"),
    ("registry.busy_ms", "ms"),
    ("cache.doc_hit_rate", "ratio"),
    ("cache.doc_invalidations", "count"),
    ("cache.busy_ms", "ms"),
    ("sharding.scatter_ms", "ms"),
    ("sharding.shards_per_call", "count"),
    ("sharding.busy_ms", "ms"),
    ("metadata_store.read_ms", "ms"),
    ("metadata_store.busy_ms", "ms"),
    ("metadata_store.calls_per_op", "count"),
    ("tracing.overhead_pct", "%"),
    ("server.dedup_ms", "ms"),
    ("registry.write_self_ms", "ms"),
    ("dal.save_instance_ms", "ms"),
    ("dal.load_blob_payload_ms", "ms"),
    ("metadata_store.write_ms", "ms"),
    ("metadata_store.writes_per_mutation", "count"),
    ("blob.put_ms", "ms"),
    ("blob.bytes_written_per_user_byte", "ratio"),
    ("blob.verifications_per_fetch", "count"),
    ("tcp.sendfile_share", "ratio"),
)
#: per-layer figures printed in the table only: they check the
#: cross-process merge and the tracing overhead
TABLE_ONLY = (
    ("tcp.matched_share", "ratio"),
    ("tracing.untraced_p50_ms", "ms"),
    ("tracing.traced_p50_ms", "ms"),
)


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100), interpolated between closest ranks."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def blob_bytes(data_dir: Path) -> int:
    root = data_dir / "blobs"
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Run:
    """One workload's set-up, measured phases and teardown."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: float) -> None:
        from corpus import CORPORA

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.corpus = CORPORA[workload](seed, scale)
        self.data_dir = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
        self.ctx = multiprocessing.get_context("spawn")
        self.replicas = None
        self.clients: list = []
        self.lifecycle = None

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> dict[str, float]:
        from corpus import SLICES, build
        from replica import Replicas
        from tracing import clock

        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.mkdir(parents=True)
        timings = build(self.ctx, str(SRC), str(self.data_dir), self.workload,
                        self.seed, self.scale, self.corpus)
        count = REPLICAS.get(self.workload, 1)
        starts = []
        for attempt in range(STARTS):
            t0 = clock()
            self.replicas = Replicas(self.ctx, str(SRC), str(self.data_dir), count)
            self._connect()
            starts.append(clock() - t0)
            if attempt < STARTS - 1:
                self._disconnect()
                self.replicas.stop()
        timings["start_s"] = starts
        build_s = (timings["models_s"] + SLICES * statistics.median(timings["slices_s"])
                   + timings["serving_s"] + timings["sync_s"])
        timings["setup_s"] = build_s + statistics.median(starts)
        return timings

    def _connect(self) -> None:
        from repro.service import connect

        urls = self.replicas.urls()
        self.clients = [connect(urls[i % len(urls)]) for i in range(CALLERS[self.workload])]
        for client in self.clients:
            client.fleet_status()  # ready: the replica answers over TCP

    def _disconnect(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def warm_up(self) -> None:
        """Fill caches and connections before timing; nothing is recorded."""
        from workloads import Lifecycle, run_read_callers

        if self.workload.startswith("lifecycle"):
            self.lifecycle = Lifecycle(self.corpus, self.seed)
            # past the 64 rounds that fill the 64 MiB blob cache with 1 MiB
            # candidates, so timing starts with the cache evicting
            self.lifecycle.run(self.clients, "warm", rounds=WARM_ROUNDS)
            return
        if self.workload == "read-hot":
            # touch every key once: with random calls alone, slice throughput
            # still rose by about a quarter over the first 20 s of a run
            sweep = [[{"field": "city", "operator": "equal", "value": c}]
                     for c in self.corpus.cities]
            self.clients[0].model_query_many(sweep)
            with self.clients[0].pipeline() as pipe:
                handles = [pipe.call("servingFor", scope=c) for c in self.corpus.cities]
                handles += [pipe.latest_instance(base) for base in self.corpus.latest]
                for spec in self.corpus.instances:
                    handles += [pipe.get_model_instance(spec.instance_id),
                                pipe.metrics_of(spec.instance_id)]
            for handle in handles:
                handle.result()
        run_read_callers(self.workload, self.clients, self.corpus, self.seed, "warm", steps=20)

    def phase(self, name: str, seconds: float):
        """Drive the workload for *seconds*; returns (recorder, elapsed)."""
        from tracing import clock
        from workloads import run_read_callers

        t0 = clock()
        if self.lifecycle is not None:
            rec = self.lifecycle.run(self.clients, name, seconds=seconds)
        else:
            rec = run_read_callers(self.workload, self.clients, self.corpus, self.seed,
                                   name, seconds=seconds)
        return rec, clock() - t0

    def close(self) -> None:
        try:
            self._disconnect()
            if self.replicas is not None:
                self.replicas.stop()
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            os.sync()  # leave no writeback behind for the next run

    # -- the two kinds of run ------------------------------------------------------

    def end_to_end(self, timings: dict) -> tuple[dict, "object"]:
        """Measure ``MEASURE_SLICES`` equal slices.

        Throughput and the p50s are medians over the slices; the tails,
        printed but not reported, span the whole run.
        """
        from workloads import Recorder

        rec = Recorder()
        per_slice: dict[str, list[float]] = {}
        for index in range(MEASURE_SLICES):
            part, elapsed = self.phase(f"measure{index}", self.seconds / MEASURE_SLICES)
            rec.merge(part)
            figures = {"throughput_ops_s": part.calls / elapsed}
            for name, values in part.class_ms.items():
                figures[f"{name}_p50_ms"] = statistics.median(values)
            for name, value in figures.items():
                per_slice.setdefault(name, []).append(value)
        metrics = {name: statistics.median(values) for name, values in per_slice.items()}
        metrics["slices"] = per_slice["throughput_ops_s"]
        for name, values in rec.class_ms.items():
            metrics[f"{name}_p95_ms"] = percentile(values, 95)
            metrics[f"{name}_p99_ms"] = percentile(values, 99)
        metrics["setup_s"] = timings["setup_s"]
        metrics["server_rss_mb"] = sum(self.replicas.command("rss"))
        return metrics, rec

    def traced(self) -> tuple[dict, "object"]:
        from tracing import Tracer, export, layer_report
        from workloads import Recorder

        tracer = Tracer()
        plain, rec = Recorder(), Recorder()
        plain_s = traced_s = 0.0
        written = 0
        for index in range(TRACE_SLICES):
            part, elapsed = self.phase(f"untraced{index}", self.seconds / (2 * TRACE_SLICES))
            plain.merge(part)
            plain_s += elapsed
            self.replicas.command("trace")
            tracer.install_client()
            disk_before = blob_bytes(self.data_dir)
            try:
                part, elapsed = self.phase(f"traced{index}", self.seconds / (2 * TRACE_SLICES))
            finally:
                tracer.uninstall()
                self.replicas.command("pause")
            written += blob_bytes(self.data_dir) - disk_before
            rec.merge(part)
            traced_s += elapsed
        processes = [export(tracer, "generator")] + self.replicas.command("dump")
        report = layer_report(processes, rec.calls, rec.mutations)
        report["blob.bytes_written_per_user_byte"] = (
            written / rec.uploaded_bytes if rec.uploaded_bytes else 0.0
        )
        report["tracing.overhead_pct"] = 100.0 * (
            (plain.calls / plain_s) / (rec.calls / traced_s) - 1.0
        )
        report["tracing.untraced_p50_ms"] = statistics.median(plain.all_ms)
        report["tracing.traced_p50_ms"] = statistics.median(rec.all_ms)
        return report, rec


def environment(run: Run) -> dict:
    from corpus import BLOB_CACHE_BYTES, DOCUMENT_CACHE_ENTRIES, SHARDS

    from repro.service.batching import BatchConfig
    from repro.service.tcp import sendfile_available
    from repro.store.sharding import shard_file

    modes = set()
    for shard in range(SHARDS):
        with contextlib.closing(sqlite3.connect(shard_file(str(run.data_dir / "shards"), shard))) as db:
            modes.add(db.execute("PRAGMA journal_mode").fetchone()[0])
    journal = ",".join(sorted(modes))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "shards": SHARDS,
        "callers": CALLERS[run.workload],
        "batch_config": BatchConfig().to_dict(),
        "sendfile_available": sendfile_available(),
        "flush_policy": f"blob put fsyncs file and directory; sqlite journal_mode={journal},"
                        " synchronous=NORMAL",
        "corpus_instances": len(run.corpus.instances),
        "document_cache_entries": DOCUMENT_CACHE_ENTRIES,
        "corpus_blob_bytes": run.corpus.blob_total(),
        "blob_cache_bytes": BLOB_CACHE_BYTES,
    }


def class_table(rec, metrics: dict) -> list[str]:
    """p50 (median over slices) and tails (whole run) of every latency class."""
    from workloads import CLASSES

    lines = []
    for name in CLASSES:
        values = rec.class_ms.get(name)
        if not values:
            lines.append(f"  {name + '_p50_ms':22s} absent (not exercised by this workload)")
            continue
        tails = [f"{name}_p{q}_ms {metrics[f'{name}_p{q}_ms']:9.3f} ms"
                 for q in (95, 99) if len(values) * (100 - q) >= 1000]
        lines.append(f"  {name + '_p50_ms':22s} {metrics[name + '_p50_ms']:10.3f} ms   "
                     + "   ".join(tails) + f"   n={len(values)}")
    return lines


def report_checks(rec) -> list[str]:
    from workloads import KNOWN_DEFECTS

    lines = [f"  {'check':18s} {'attempted':>9s} {'failed':>7s} {'known':>6s}"]
    for name in sorted(rec.checks):
        attempted, failed, known = rec.checks[name]
        lines.append(f"  {name:18s} {attempted:9d} {failed:7d} {known:6d}")
    for name, why in KNOWN_DEFECTS.items():
        if rec.checks.get(name, [0, 0, 0])[2]:
            lines.append(f"  KNOWN DEFECT {name}: {why}")
    for example in rec.examples:
        lines.append(f"  WRONG {example}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    run = Run(workload, seed, seconds, scale)
    try:
        timings = run.setup()
        print(f"[{workload}] env {json.dumps(environment(run), sort_keys=True)}")
        print(f"[{workload}] setup models {timings['models_s']:.2f}s slices "
              + " ".join(f"{s:.2f}" for s in timings["slices_s"])
              + f"s serving {timings['serving_s']:.2f}s sync {timings['sync_s']:.2f}s starts "
              + " ".join(f"{s:.2f}" for s in timings["start_s"]) + "s")
        run.warm_up()
        if trace:
            metrics, rec = run.traced()
            names = PER_LAYER
        else:
            metrics, rec = run.end_to_end(timings)
            names = END_TO_END
    finally:
        run.close()
    lines = [f"[{workload}] {'traced' if trace else 'end-to-end'} seed={seed} seconds={seconds}"
             f" attempted={rec.calls} failed={rec.failed}"
             f" failed_share={rec.failed / max(rec.calls, 1):.4f}"]
    if trace:
        for layer_metric, unit in PER_LAYER + TABLE_ONLY:
            lines.append(f"  {layer_metric:36s} {metrics[layer_metric]:12.4f} {unit}")
        from tracing import LAYERS

        lines.append(f"  {'layer':16s} {'calls/op':>9s} {'busy ms/op':>11s} {'failures':>9s}")
        for layer in LAYERS:
            lines.append(f"  {layer:16s} {metrics[layer + '.calls_per_op']:9.3f}"
                         f" {metrics[layer + '.busy_ms']:11.4f} {metrics[layer + '.failures']:9d}")
    else:
        for name, unit in END_TO_END:
            if name in metrics:
                lines.append(f"  {name:22s} {metrics[name]:10.3f} {unit}")
        lines.append("  slice throughput " + " ".join(f"{v:.1f}" for v in metrics["slices"])
                     + " 1/s")
        lines.extend(class_table(rec, metrics))
    lines.extend(report_checks(rec))
    print("\n".join(lines))
    unexpected = rec.failed - rec.known
    return {
        "correct": unexpected == 0,
        "attempted": rec.calls,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the read corpora (self-tests use 0.02)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        return _run(args)
    finally:
        # spawn starts a resource-tracker process; stop it before exiting
        tracker = getattr(multiprocessing.resource_tracker, "_resource_tracker", None)
        if tracker is not None and hasattr(tracker, "_stop"):
            tracker._stop()


def _run(args: argparse.Namespace) -> int:
    if args.workload == "all":
        summary = {}
        for workload in WORKLOADS:
            summary[workload] = {
                "end_to_end": run_one(workload, args.seed, args.seconds, False, args.scale),
                "traced": run_one(workload, args.seed, args.seconds, True, args.scale),
            }
        print(json.dumps(summary))
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
