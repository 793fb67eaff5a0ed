"""A Gallery replica in a child process, driven over a control pipe.

The replica serves ``GalleryService`` with its default ``BatchConfig`` on
the event-loop ``GalleryTcpServer`` over the shared file-backed store.  The
pipe carries only control commands; every Gallery call arrives over TCP.

Commands: ``"trace"`` installs the tracer (the same one again after a
pause), ``"pause"`` removes it and keeps what it recorded, ``"dump"`` sends
the record back and drops it, ``"rss"`` sends peak resident memory in MiB,
``"stop"`` shuts down and exits.
"""

from __future__ import annotations

import resource
import sys


def _counters(service, gallery) -> dict[str, int]:
    batching = service.read_batcher.stats_snapshot()
    documents = gallery.document_cache_stats()
    return {
        "batched_requests": batching["batched_requests"],
        "coalesced": batching["coalesced"],
        "doc_hits": documents["hits"],
        "doc_misses": documents["misses"],
        "doc_invalidations": documents["invalidations"],
        "digest_verifications": gallery.dal.blobs.stats.digest_verifications,
    }


def replica_main(conn, src: str, data_dir: str) -> None:
    sys.path.insert(0, src)
    from corpus import open_gallery
    from tracing import Tracer, export

    from repro.service.server import GalleryService
    from repro.service.tcp import GalleryTcpServer, sendfile_available

    gallery = open_gallery(data_dir)
    service = GalleryService(gallery)
    server = GalleryTcpServer(service).start()
    tracer: Tracer | None = None
    before: dict[str, int] = {}
    counted: dict[str, int] = {}
    try:
        conn.send(server.address)
        while True:
            command = conn.recv()
            if command == "stop":
                break
            if command == "trace":
                tracer = tracer or Tracer()
                before = _counters(service, gallery)
                tracer.install_server()
                conn.send("ok")
            elif command == "pause":
                assert tracer is not None, "pause before trace"
                tracer.uninstall()
                after = _counters(service, gallery)
                for key, value in after.items():
                    counted[key] = counted.get(key, 0) + value - before[key]
                conn.send("ok")
            elif command == "dump":
                assert tracer is not None, "dump before trace"
                conn.send(export(tracer, "replica", counters=counted,
                                 sendfile=sendfile_available()))
                tracer, counted = None, {}
            elif command == "rss":
                conn.send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            else:
                raise ValueError(f"unknown replica command {command!r}")
    finally:
        server.stop()
        service.read_batcher.close()
        gallery.dal.metadata.close()
        conn.close()


class Replicas:
    """Start, command and stop the replica child processes of one run."""

    def __init__(self, ctx, src: str, data_dir: str, count: int) -> None:
        self._procs = []
        self._pipes = []
        self.addresses: list[tuple[str, int]] = []
        try:
            for _ in range(count):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=replica_main, args=(child, src, data_dir), daemon=True
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._pipes.append(parent)
            for pipe in self._pipes:
                self.addresses.append(tuple(self._recv(pipe, 120.0)))
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _recv(pipe, timeout: float):
        if not pipe.poll(timeout):
            raise RuntimeError(f"replica did not answer within {timeout}s")
        return pipe.recv()

    def urls(self) -> list[str]:
        return [f"gallery://{host}:{port}" for host, port in self.addresses]

    def command(self, command: str, timeout: float = 120.0) -> list:
        for pipe in self._pipes:
            pipe.send(command)
        return [self._recv(pipe, timeout) for pipe in self._pipes]

    def stop(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send("stop")
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for pipe in self._pipes:
            pipe.close()
        failed = [p.exitcode for p in self._procs if p.exitcode not in (0, None)]
        self._procs, self._pipes = [], []
        if failed:
            raise RuntimeError(f"replica exited with {failed}")
