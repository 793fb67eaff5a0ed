"""Seeded corpora for the three workloads, and the processes that load them.

Everything here is a pure function of ``(workload, seed, scale)``: the
generator process derives the expected answers (the oracle) from the same
spec the builder processes load, so no answer is ever read back from the
system under test.

Corpora are loaded through the registry's public API (``create_model``,
``upload_model``, ``insert_metrics``, ``assign_serving``) in-process, by
``BUILDERS`` spawned processes that each own a disjoint set of models.  The
load runs in ``SLICES`` equal slices so set-up time can be reported as a
median (see ``run.py``).
"""

from __future__ import annotations

import os
import random
import time
import uuid
from dataclasses import dataclass, field

PROJECT = "perfbench"
SHARDS = 4
BUILDERS = 2
SLICES = 10

#: Capacities of the program's own caches the corpus sizes are chosen
#: against (``repro.store.cache.DocumentCache`` and ``LRUBlobCache``
#: defaults as ``build_gallery`` wires them).
DOCUMENT_CACHE_ENTRIES = 8192
BLOB_CACHE_BYTES = 64 * 1024 * 1024

READ_BLOB_BYTES = 4 * 1024
LIFECYCLE_BLOB_BYTES = 1024 * 1024


@dataclass(frozen=True)
class InstanceSpec:
    instance_id: str
    base: str
    city: str
    mape: float
    bias: float
    blob_seed: int
    blob_bytes: int

    def blob(self) -> bytes:
        return random.Random(self.blob_seed).randbytes(self.blob_bytes)


@dataclass(frozen=True)
class ModelSpec:
    base: str
    family: str
    cities: tuple[str, ...]


@dataclass
class Corpus:
    workload: str
    models: list[ModelSpec]
    #: upload order; every model's instances are loaded by one builder in
    #: this order, so the last one listed is its ``latestInstance``
    instances: list[InstanceSpec]
    #: scope -> instance_id assigned at load time
    serving: dict[str, str]
    by_city: dict[str, list[InstanceSpec]] = field(default_factory=dict)
    by_id: dict[str, InstanceSpec] = field(default_factory=dict)
    latest: dict[str, str] = field(default_factory=dict)
    cities: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for spec in self.instances:
            self.by_city.setdefault(spec.city, []).append(spec)
            self.by_id[spec.instance_id] = spec
            self.latest[spec.base] = spec.instance_id
        self.cities = sorted(self.by_city)

    def blob_total(self) -> int:
        return sum(spec.blob_bytes for spec in self.instances)

    def builder_models(self, builder: int) -> set[str]:
        return {m.base for i, m in enumerate(self.models) if i % BUILDERS == builder}


def seeded_id(rng: random.Random) -> str:
    return str(uuid.UUID(int=rng.getrandbits(128), version=4))


def _read_corpus(
    workload: str,
    rng: random.Random,
    cities: int,
    per_city: int,
    cities_per_model: int,
    models_per_city: int,
) -> Corpus:
    names = [f"{workload}-city-{c:03d}" for c in range(cities)]
    models: list[ModelSpec] = []
    bases_of: dict[str, list[str]] = {}
    for start in range(0, cities, cities_per_model):
        group = tuple(names[start : start + cities_per_model])
        for _ in range(models_per_city):
            base = f"{workload}-model-{len(models):03d}"
            models.append(ModelSpec(base, f"{base}-family", group))
            for city in group:
                bases_of.setdefault(city, []).append(base)
    instances = [
        InstanceSpec(
            instance_id=seeded_id(rng),
            base=bases_of[city][i % len(bases_of[city])],
            city=city,
            mape=rng.random(),
            bias=rng.random(),
            blob_seed=rng.getrandbits(64),
            blob_bytes=READ_BLOB_BYTES,
        )
        for city in names
        for i in range(per_city)
    ]
    return Corpus(workload, models, instances, serving={})


def read_hot(seed: int, scale: float = 1.0) -> Corpus:
    """400 cities x 10 instances = 4,000 documents: half the DocumentCache."""
    rng = random.Random(f"read-hot/{seed}")
    cities = max(4, round(400 * scale))
    corpus = _read_corpus("rh", rng, cities, 10, cities_per_model=4, models_per_city=1)
    for city in corpus.cities:
        corpus.serving[city] = rng.choice(corpus.by_city[city]).instance_id
    return corpus


def query_scan(seed: int, scale: float = 1.0) -> Corpus:
    """50 cities x 240 instances = 12,000 documents: 1.46x the DocumentCache."""
    rng = random.Random(f"query-scan/{seed}")
    cities = max(2, round(50 * scale))
    per_city = max(8, round(240 * scale))
    return _read_corpus("qs", rng, cities, per_city, cities_per_model=1, models_per_city=2)


def lifecycle(seed: int, scale: float = 1.0) -> Corpus:
    """Eight scopes per caller, each one family with one serving base instance.

    The run itself uploads a fresh 1 MiB candidate per round; the corpus is
    only the starting state.  *scale* does not shrink it.
    """
    del scale
    rng = random.Random(f"lifecycle/{seed}")
    models: list[ModelSpec] = []
    instances: list[InstanceSpec] = []
    serving: dict[str, str] = {}
    for caller in range(2):
        for k in range(8):
            scope = f"lc-scope-{caller}{k}"
            base = f"{scope}-model"
            models.append(ModelSpec(base, f"{scope}-family", (scope,)))
            spec = InstanceSpec(
                instance_id=seeded_id(rng),
                base=base,
                city=scope,
                mape=rng.random(),
                bias=rng.random(),
                blob_seed=rng.getrandbits(64),
                blob_bytes=LIFECYCLE_BLOB_BYTES,
            )
            instances.append(spec)
            serving[scope] = spec.instance_id
    return Corpus("lc", models, instances, serving)


CORPORA = {"read-hot": read_hot, "query-scan": query_scan, "lifecycle": lifecycle,
           "lifecycle-local": lifecycle}


def open_gallery(data_dir: str, shard_count: int | None = None):
    from repro import build_gallery

    return build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=data_dir,
        shard_count=shard_count,
    )


def create_models(data_dir: str, corpus: Corpus) -> None:
    """Create the sharded store and every model of *corpus* (generator side)."""
    gallery = open_gallery(data_dir, shard_count=SHARDS)
    try:
        for model in corpus.models:
            gallery.create_model(
                PROJECT,
                model.base,
                metadata={"city": model.cities[0]} if len(model.cities) == 1 else None,
                family=model.family,
            )
    finally:
        gallery.dal.metadata.close()


def register(gallery, spec: InstanceSpec) -> None:
    gallery.upload_model(
        PROJECT,
        spec.base,
        blob=spec.blob(),
        metadata={"city": spec.city},
        instance_id=spec.instance_id,
    )
    gallery.insert_metrics(spec.instance_id, {"mape": spec.mape, "bias": spec.bias})


def builder_main(conn, src: str, data_dir: str, workload: str, seed: int,
                 scale: float, builder: int) -> None:
    """Spawned builder: load this builder's share one slice per command."""
    import sys

    sys.path.insert(0, src)
    corpus = CORPORA[workload](seed, scale)
    mine = corpus.builder_models(builder)
    todo = [spec for spec in corpus.instances if spec.base in mine]
    gallery = open_gallery(data_dir)
    try:
        conn.send("ready")
        while True:
            command = conn.recv()
            if command == "stop":
                break
            if command == "serving":
                for scope, instance_id in sorted(corpus.serving.items()):
                    if corpus.by_id[instance_id].base in mine:
                        gallery.assign_serving(scope, instance_id, reason="corpus")
                conn.send("done")
                continue
            index = int(command)
            lo = len(todo) * index // SLICES
            hi = len(todo) * (index + 1) // SLICES
            for spec in todo[lo:hi]:
                register(gallery, spec)
            conn.send("done")
    finally:
        gallery.dal.metadata.close()
        conn.close()


def build(ctx, src: str, data_dir: str, workload: str, seed: int, scale: float,
          corpus: Corpus) -> dict[str, float]:
    """Load *corpus* into *data_dir*; returns the set-up timings in seconds."""
    started = time.monotonic()
    create_models(data_dir, corpus)
    models_s = time.monotonic() - started
    pipes, procs = [], []
    try:
        for builder in range(BUILDERS):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=builder_main,
                args=(child, src, data_dir, workload, seed, scale, builder),
                daemon=True,
            )
            proc.start()
            child.close()
            pipes.append(parent)
            procs.append(proc)
        for pipe in pipes:
            _expect(pipe, "ready")
        slices = []
        for index in range(SLICES):
            t0 = time.monotonic()
            for pipe in pipes:
                pipe.send(str(index))
            for pipe in pipes:
                _expect(pipe, "done")
            slices.append(time.monotonic() - t0)
        t0 = time.monotonic()
        for pipe in pipes:
            pipe.send("serving")
        for pipe in pipes:
            _expect(pipe, "done")
        serving_s = time.monotonic() - t0
        for pipe in pipes:
            pipe.send("stop")
    finally:
        for pipe in pipes:
            pipe.close()  # a builder still waiting for a command exits on EOF
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()
    failed = [proc.exitcode for proc in procs if proc.exitcode != 0]
    if failed:
        raise RuntimeError(f"corpus builder exited with {failed}")
    t0 = time.monotonic()
    os.sync()  # the load's writeback is part of its cost, not of the measurement
    sync_s = time.monotonic() - t0
    return {"models_s": models_s, "slices_s": slices, "serving_s": serving_s, "sync_s": sync_s}


def _expect(pipe, message: str, timeout: float = 300.0) -> None:
    if not pipe.poll(timeout):
        raise RuntimeError(f"builder did not answer {message!r} in {timeout}s")
    got = pipe.recv()
    if got != message:
        raise RuntimeError(f"builder answered {got!r}, expected {message!r}")
