"""Span tracing the benchmark installs around repro's layers at run time.

Nothing under ``src/`` is changed: :class:`Tracer` replaces public
functions of each layer (and the few event-loop entry points that have no
public equivalent) with wrappers that record a span, and restores them on
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends.

Every timestamp comes from ``time.monotonic`` (``CLOCK_MONOTONIC`` on
Linux), one clock for every process on the host, so client spans in the
generator and server windows in a replica can be merged by
``(client_id, request_id)``.

A span's parent is the span open in the same ``contextvars`` context when
it started; the sharded store's scatter pool is patched to carry that
context into its worker threads, so per-shard spans are children of the
sharded call even though they run on other threads.  A layer's self time
is its spans' durations minus the part of each interval its child spans
cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

clock = time.monotonic

#: layer names in report order
LAYERS = (
    "client",
    "wire",
    "tcp",
    "batching",
    "server",
    "registry",
    "cache",
    "dal",
    "sharding",
    "metadata_store",
    "blob",
)

#: metadata-store methods that write
WRITE_PREFIXES = ("insert", "replace", "assign", "dedup_claim", "dedup_complete",
                  "dedup_release", "dedup_trim", "dead_letter", "delete")


class Window:
    """One request's stay in a replica: worker pickup to reply handed back."""

    __slots__ = ("key", "t0", "t1", "offered", "batched")

    def __init__(self, t0: float) -> None:
        self.key: tuple[str, int] | None = None
        self.t0 = t0
        self.t1: float | None = None
        self.offered: float | None = None
        self.batched = False


class Tracer:
    """Spans and per-request records of one process, kept in memory."""

    def __init__(self) -> None:
        #: (span_id, parent_id, layer, name, t0, t1, failed)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._patches: list[tuple[Any, str, Any]] = []
        self.local = threading.local()
        #: client side: (key, t0, t1, response_bytes) per transport round trip
        self.roundtrips: list[tuple] = []
        #: server side
        self.windows: list[Window] = []
        self.dispatched: list[tuple] = []  # (key, t_exec)
        self.batch_sizes: list[int] = []
        self.queries: list[tuple[int, int]] = []  # (examined, results)
        self.payloads: list[tuple[int, bool]] = []  # (bytes, file region?)

    # -- recording ------------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable, /, *args: Any, **kwargs: Any):
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        t0 = clock()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            t1 = clock()
            self._current.reset(token)
            self.spans.append((span_id, parent, layer, name, t0, t1, failed))

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        span = self.span

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            return span(layer, name, fn, *args, **kwargs)

        return traced

    def replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, layer: str, name: str | None = None) -> None:
        original = getattr(owner, attr)
        self.replace(owner, attr, self.wrap(layer, name or attr, original))

    def patch_public(self, cls: type, layer: str, skip: tuple[str, ...] = ()) -> None:
        """Wrap every public plain method *cls* has (own or inherited)."""
        for attr in dir(cls):
            if attr.startswith("_") or attr in skip:
                continue
            static = inspect.getattr_static(cls, attr)
            if not inspect.isfunction(static) or inspect.isgeneratorfunction(static):
                continue
            self._patches.append((cls, attr, cls.__dict__.get(attr, _INHERITED)))
            setattr(cls, attr, self.wrap(layer, attr, static))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- installation -----------------------------------------------------------

    def install_client(self) -> None:
        """Generator side: client, wire and tcp spans."""
        from repro.service import client, endpoints, tcp, wire

        tracer = self
        self.patch(client.GalleryClient, "call", "client")
        self.patch(endpoints.FailoverTransport, "__call__", "client", "route")
        for fn in ("decode_response", "decode_request", "decode_blob"):
            self.patch(wire, fn, "wire")
        encode_request = wire.encode_request

        def traced_encode(request, *args, **kwargs):
            tracer.local.key = (request.client_id, request.request_id)
            return tracer.span("wire", "encode_request", encode_request,
                               request, *args, **kwargs)

        self.replace(wire, "encode_request", traced_encode)
        roundtrip = tcp.PipelinedTcpTransport.__call__

        def traced_roundtrip(transport, data):
            key = getattr(tracer.local, "key", None)
            t0 = clock()
            raw = tracer.span("tcp", "roundtrip", roundtrip, transport, data)
            tracer.roundtrips.append((key, t0, clock(), len(raw)))
            return raw

        self.replace(tcp.PipelinedTcpTransport, "__call__", traced_roundtrip)

    def install_server(self) -> None:
        """Replica side: every layer from the event loop down to the disk."""
        from repro.core.registry import Gallery
        from repro.service import batching, server, tcp, wire
        from repro.store import blob, cache, dal, metadata_store, sharding

        tracer = self
        local = self.local
        core = tcp._EventLoopCore
        for attr in ("_readable", "_drain_completed", "_flush"):
            self.patch(core, attr, "tcp", attr.strip("_"))
        process = core._process

        def traced_process(loop, conn, frame):
            window = Window(clock())
            local.window = window
            try:
                return tracer.span("tcp", "worker", process, loop, conn, frame)
            finally:
                local.window = None
                if not window.batched:
                    window.t1 = clock()
                tracer.windows.append(window)

        self.replace(core, "_process", traced_process)

        decode_request = wire.decode_request

        def traced_decode(data):
            request = tracer.span("wire", "decode_request", decode_request, data)
            window = getattr(local, "window", None)
            if window is not None and window.key is None:
                window.key = (request.client_id, request.request_id)
            return request

        self.replace(wire, "decode_request", traced_decode)
        for fn in ("encode_response", "encode_response_stream"):
            self.patch(wire, fn, "wire")

        offer = batching.ReadBatcher.offer

        def traced_offer(batcher, frame, deliver):
            window = getattr(local, "window", None)

            def delivered(encoded):
                if window is not None:
                    window.t1 = clock()
                deliver(encoded)

            if window is not None:
                window.offered = clock()
            taken = tracer.span("batching", "offer", offer, batcher, frame, delivered)
            if taken and window is not None:
                window.batched = True
            return taken

        self.replace(batching.ReadBatcher, "offer", traced_offer)
        execute = batching.ReadBatcher._execute_batch

        def traced_execute(batcher, batch):
            now = clock()
            for waiter in batch:
                request = waiter.request
                tracer.dispatched.append(((request.client_id, request.request_id), now))
            tracer.batch_sizes.append(len(batch))
            return tracer.span("batching", "execute", execute, batcher, batch)

        self.replace(batching.ReadBatcher, "_execute_batch", traced_execute)

        self.patch(server.GalleryService, "handle_frame_stream", "server")
        self.patch(server.GalleryService, "dispatch", "server")
        for attr in ("claim", "complete", "release"):
            self.patch(server.DurableRequestDedupCache, attr, "server", f"dedup.{attr}")

        self.patch_public(Gallery, "registry", skip=("model_query", "load_instance_blob_payload"))
        model_query = Gallery.model_query

        def traced_query(registry, *args, **kwargs):
            local.examined = 0
            result = tracer.span("registry", "model_query", model_query,
                                 registry, *args, **kwargs)
            tracer.queries.append((local.examined, len(result)))
            return result

        self.replace(Gallery, "model_query", traced_query)
        payload = Gallery.load_instance_blob_payload

        def traced_payload(registry, instance_id):
            result = tracer.span("registry", "load_instance_blob_payload",
                                 payload, registry, instance_id)
            region = getattr(result, "is_file_region", False)
            tracer.payloads.append((result.length if region else len(result), region))
            return result

        self.replace(Gallery, "load_instance_blob_payload", traced_payload)

        document_get = cache.DocumentCache.get

        def traced_document_get(documents, instance_id):
            local.examined = getattr(local, "examined", 0) + 1
            return tracer.span("cache", "document.get", document_get, documents, instance_id)

        self.replace(cache.DocumentCache, "get", traced_document_get)
        for attr in ("put", "invalidate_instance", "invalidate_model"):
            self.patch(cache.DocumentCache, attr, "cache", f"document.{attr}")
        for attr in ("get", "put", "invalidate"):
            self.patch(cache.LRUBlobCache, attr, "cache", f"blob.{attr}")

        self.patch_public(dal.DataAccessLayer, "dal")
        self.patch_public(sharding.ShardedMetadataStore, "sharding")
        pool = sharding.ShardedMetadataStore._pool
        self.replace(
            sharding.ShardedMetadataStore,
            "_pool",
            lambda store: _ContextPool(pool(store)),
        )
        self.patch_public(metadata_store.SQLiteMetadataStore, "metadata_store")
        self.patch_public(blob.FilesystemBlobStore, "blob")


_INHERITED = object()  # marks a patched attribute that *cls* only inherited


class _ContextPool:
    """Runs every task in a copy of the submitting thread's context."""

    def __init__(self, pool) -> None:
        self._pool = pool

    def submit(self, fn, *args, **kwargs):
        return self._pool.submit(contextvars.copy_context().run, fn, *args, **kwargs)

    def map(self, fn, *iterables):
        futures = [self.submit(fn, *args) for args in zip(*iterables)]
        return (future.result() for future in futures)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[int, float]:
    """span_id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _layer, _name, t0, t1, _failed in spans:
        if parent:
            children[parent].append((t0, t1))
    out: dict[int, float] = {}
    for sid, _parent, _layer, _name, t0, t1, _failed in spans:
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_report(processes: list[dict[str, Any]], wire_calls: int,
                 mutations: int) -> dict[str, Any]:
    """Per-layer figures from every process's recorded trace.

    *processes* are :func:`export` dicts; *wire_calls* is the number of
    calls the generator completed while tracing, the denominator of every
    per-call figure, and *mutations* how many of them were writes.
    """
    calls = max(wire_calls, 1)
    layer = {name: {"entries": 0, "self_s": 0.0, "failures": 0} for name in LAYERS}
    by_name: dict[tuple[str, str], list[float]] = defaultdict(list)  # entries only
    every: dict[tuple[str, str], list[float]] = defaultdict(list)
    self_by_name: dict[tuple[str, str], float] = defaultdict(float)
    shard_entries = 0
    shard_children = 0
    for proc in processes:
        spans = proc["spans"]
        own = self_times(spans)
        layer_of = {sid: lay for sid, _p, lay, *_rest in spans}
        for sid, parent, lay, name, t0, t1, failed in spans:
            row = layer[lay]
            if (lay, name) != ("tcp", "roundtrip"):  # its self time is the transit below
                row["self_s"] += own[sid]
            row["failures"] += failed
            self_by_name[(lay, name)] += own[sid]
            every[(lay, name)].append(t1 - t0)
            if layer_of.get(parent) != lay:
                row["entries"] += 1
                by_name[(lay, name)].append(t1 - t0)
                if lay == "metadata_store" and layer_of.get(parent) == "sharding":
                    shard_children += 1
                if lay == "sharding":
                    shard_entries += 1

    def mean_ms(values: list[float]) -> float:
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def entries(lay: str, predicate: Callable[[str], bool] = lambda _n: True) -> list[float]:
        return [d for (l, n), ds in by_name.items() if l == lay and predicate(n) for d in ds]

    out: dict[str, Any] = {}
    for name, row in layer.items():
        out[f"{name}.calls_per_op"] = row["entries"] / calls
        out[f"{name}.busy_ms"] = 1000.0 * row["self_s"] / calls
        out[f"{name}.failures"] = row["failures"]

    client = next(p for p in processes if p["role"] == "generator")
    servers = [p for p in processes if p["role"] == "replica"]
    trips = client["roundtrips"]
    out["client.self_ms"] = out["client.busy_ms"]
    out["client.attempts_per_call"] = len(trips) / calls
    for kind in ("encode", "decode"):
        spent = sum(s for (l, n), s in self_by_name.items() if l == "wire" and n.startswith(kind))
        out[f"wire.{kind}_ms"] = 1000.0 * spent / calls
    out["wire.response_kb"] = (sum(t[3] for t in trips) / len(trips) / 1024.0) if trips else 0.0

    windows: dict[tuple, Any] = {}
    dispatched: dict[tuple, float] = {}
    for proc in servers:
        for key, t0, t1, offered, batched in proc["windows"]:
            windows[key] = (t0, t1, offered, batched)
        for key, t_exec in proc["dispatched"]:
            dispatched[key] = t_exec
    transit = []
    for key, t0, t1, _size in trips:
        window = windows.get(key)
        if window is not None:
            transit.append((t1 - t0) - (window[1] - window[0]))
    out["tcp.transit_ms"] = mean_ms(transit)
    out["tcp.busy_ms"] += 1000.0 * sum(transit) / calls
    out["tcp.matched_share"] = len(transit) / len(trips) if trips else 0.0
    waits = [dispatched[k] - w[2] for k, w in windows.items() if w[3] and k in dispatched]
    out["batching.wait_ms"] = mean_ms(waits)
    sizes = [s for proc in servers for s in proc["batch_sizes"]]
    out["batching.batch_size"] = sum(sizes) / len(sizes) if sizes else 0.0
    batched = sum(p["counters"]["batched_requests"] for p in servers)
    coalesced = sum(p["counters"]["coalesced"] for p in servers)
    out["batching.coalesce_ratio"] = coalesced / batched if batched else 0.0
    server_windows = [w[1] - w[0] for w in windows.values()]
    out["server.window_ms"] = mean_ms(server_windows)
    out["server.self_ms"] = out["server.busy_ms"]
    dedup = every[("server", "dedup.claim")] + every[("server", "dedup.complete")]
    out["server.dedup_ms"] = 1000.0 * sum(dedup) / mutations if mutations else 0.0

    queries = [q for p in servers for q in p["queries"]]
    query_self = sum(s for (l, n), s in self_by_name.items() if l == "registry" and n == "model_query")
    out["registry.query_self_ms"] = 1000.0 * query_self / len(queries) if queries else 0.0
    examined = sum(q[0] for q in queries)
    results = sum(q[1] for q in queries)
    out["registry.examined_per_result"] = examined / results if results else 0.0
    writes = ("upload_model", "insert_metrics", "enable_instance", "disable_instance", "assign_serving")
    write_self = sum(s for (l, n), s in self_by_name.items() if l == "registry" and n in writes)
    write_calls = sum(len(ds) for (l, n), ds in by_name.items() if l == "registry" and n in writes)
    out["registry.write_self_ms"] = 1000.0 * write_self / write_calls if write_calls else 0.0

    hits = sum(p["counters"]["doc_hits"] for p in servers)
    misses = sum(p["counters"]["doc_misses"] for p in servers)
    out["cache.doc_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.doc_invalidations"] = sum(p["counters"]["doc_invalidations"] for p in servers)

    out["dal.save_instance_ms"] = mean_ms(entries("dal", lambda n: n == "save_instance"))
    out["dal.load_blob_payload_ms"] = mean_ms(entries("dal", lambda n: n == "load_blob_payload"))

    out["sharding.scatter_ms"] = mean_ms(entries("sharding"))
    out["sharding.shards_per_call"] = shard_children / shard_entries if shard_entries else 0.0

    def is_write(n: str) -> bool:
        return n.startswith(WRITE_PREFIXES)

    reads = entries("metadata_store", lambda n: not is_write(n))
    store_writes = entries("metadata_store", is_write)
    out["metadata_store.read_ms"] = mean_ms(reads)
    out["metadata_store.write_ms"] = mean_ms(store_writes)
    out["metadata_store.writes_per_mutation"] = len(store_writes) / mutations if mutations else 0.0

    out["blob.put_ms"] = mean_ms(entries("blob", lambda n: n == "put"))
    payloads = [(size, region and p["sendfile"]) for p in servers for size, region in p["payloads"]]
    verifications = sum(p["counters"]["digest_verifications"] for p in servers)
    out["blob.verifications_per_fetch"] = verifications / len(payloads) if payloads else 0.0
    served = sum(size for size, _region in payloads)
    regions = sum(size for size, region in payloads if region)
    out["tcp.sendfile_share"] = regions / served if served else 0.0
    return out


def export(tracer: Tracer, role: str, **extra: Any) -> dict[str, Any]:
    """The picklable record of one process's trace."""
    return {
        "role": role,
        "spans": tracer.spans,
        "roundtrips": tracer.roundtrips,
        "windows": [
            (w.key, w.t0, w.t1, w.offered, w.batched)
            for w in tracer.windows
            if w.key is not None and w.t1 is not None
        ],
        "dispatched": tracer.dispatched,
        "batch_sizes": tracer.batch_sizes,
        "queries": tracer.queries,
        "payloads": tracer.payloads,
        **extra,
    }
