"""Caller loops for the three workloads, and the oracle that checks them.

Every caller is a closed loop: it waits for each reply before its next
step.  Each reply is checked against the answer derived from the seed
(``corpus.py`` plus the lifecycle state the callers themselves drive).  A
wrong answer or an error counts as a failed call; it never aborts the run
and is never retried.
"""

from __future__ import annotations

import hashlib
import queue
import random
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from corpus import LIFECYCLE_BLOB_BYTES, Corpus, InstanceSpec
from tracing import clock

MUTATING = frozenset(
    {"uploadModel", "insertModelInstanceMetrics", "enableInstance",
     "disableInstance", "assignServing"}
)
#: latency class of each wire method (``register`` is upload + metrics)
CLASS_OF = {
    "servingFor": "point",
    "getModelInstance": "point",
    "metricsOf": "point",
    "latestInstance": "point",
    "modelQuery": "query",
    "enableInstance": "control",
    "disableInstance": "control",
    "assignServing": "control",
}
CLASSES = ("point", "query", "register", "control", "fetch")

#: verdict of a check whose failure is a documented defect of the program
KNOWN = "known"
#: checks allowed to fail with KNOWN, and why
KNOWN_DEFECTS = {
    "gate_after_switch": "a peer replica's DocumentCache keeps serving a disabled "
    "instance for enabled == true (cross-replica staleness, ROADMAP item 1)",
}


@dataclass
class Recorder:
    """One caller thread's measurements for one phase."""

    calls: int = 0
    failed: int = 0
    known: int = 0
    mutations: int = 0
    uploaded_bytes: int = 0
    all_ms: list[float] = field(default_factory=list)
    class_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    checks: dict[str, list[int]] = field(default_factory=lambda: defaultdict(lambda: [0, 0, 0]))
    examples: list[str] = field(default_factory=list)

    def call(self, method: str, fn: Callable, *args: Any, **kwargs: Any):
        """Time one wire call; returns ``(result, error, seconds)``."""
        t0 = clock()
        try:
            result, error = fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result, error = None, exc
        elapsed = clock() - t0
        self.calls += 1
        self.mutations += method in MUTATING
        self.all_ms.append(1000.0 * elapsed)
        if method in CLASS_OF:
            self.class_ms[CLASS_OF[method]].append(1000.0 * elapsed)
        return result, error, elapsed

    def judge(self, check: str, error: BaseException | None,
              verdict: Callable[[], str | None]) -> None:
        """Count one checked call; *verdict* runs only when the call returned."""
        row = self.checks[check]
        row[0] += 1
        reason = f"{type(error).__name__}: {error}" if error is not None else verdict()
        if reason is None:
            return
        row[1] += 1
        self.failed += 1
        if reason == KNOWN and check in KNOWN_DEFECTS:
            row[2] += 1
            self.known += 1
        elif len(self.examples) < 5:
            self.examples.append(f"{check}: {reason}")

    def merge(self, other: "Recorder") -> None:
        self.calls += other.calls
        self.failed += other.failed
        self.known += other.known
        self.mutations += other.mutations
        self.uploaded_bytes += other.uploaded_bytes
        self.all_ms.extend(other.all_ms)
        for name, values in other.class_ms.items():
            self.class_ms[name].extend(values)
        for name, row in other.checks.items():
            mine = self.checks[name]
            for i, value in enumerate(row):
                mine[i] += value
        self.examples.extend(other.examples[: max(0, 5 - len(self.examples))])


# ---------------------------------------------------------------------------
# Oracle: each returns None when the answer is right, else why it is wrong
# ---------------------------------------------------------------------------


def check_instance_id(result: dict, expected_id: str) -> str | None:
    got = result.get("instance_id")
    return None if got == expected_id else f"instance {got!r}, expected {expected_id!r}"


def check_instance(result: dict, spec: InstanceSpec) -> str | None:
    got = (result.get("instance_id"), result.get("base_version_id"),
           (result.get("metadata") or {}).get("city"))
    want = (spec.instance_id, spec.base, spec.city)
    return None if got == want else f"instance {got!r}, expected {want!r}"


def check_metrics(result: list, spec: InstanceSpec) -> str | None:
    got = sorted((m.get("name"), m.get("value")) for m in result)
    want = sorted([("bias", spec.bias), ("mape", spec.mape)])
    return None if got == want else f"metrics {got!r}, expected {want!r}"


def check_ids(result: list, expected: set[str]) -> str | None:
    got = [r.get("instance_id") for r in result]
    if len(got) == len(expected) and set(got) == expected:
        return None
    return f"{len(got)} ids, expected {len(expected)}; extra {sorted(set(got) - expected)[:3]}" \
        f" missing {sorted(expected - set(got))[:3]}"


def check_blob(data: bytes, size: int, digest: str) -> str | None:
    if len(data) != size:
        return f"blob of {len(data)} bytes, expected {size}"
    got = hashlib.sha256(data).hexdigest()
    return None if got == digest else f"blob sha256 {got[:12]}, expected {digest[:12]}"


def check_gate(result: list, expected: set[str], disabled: set[str],
               cross_replica: bool) -> str | None:
    """The enabled members of a family, as the checking replica sees them.

    When the checking replica is not the one that disabled, extra ids that
    are all instances this scope disabled are the known cross-replica
    staleness defect.  Anything else, and any stale answer from the replica
    that made the change, is a wrong answer.
    """
    verdict = check_ids(result, expected)
    if verdict is None:
        return None
    got = {r.get("instance_id") for r in result}
    if cross_replica and expected <= got and got - expected <= disabled:
        return KNOWN
    return verdict


# ---------------------------------------------------------------------------
# read-hot and query-scan
# ---------------------------------------------------------------------------

READ_HOT_MIX = (
    ("servingFor", 30),
    ("getModelInstance", 25),
    ("metricsOf", 15),
    ("latestInstance", 10),
    ("modelQuery", 20),
)


def metric_query(city: str, below: float) -> list[dict[str, Any]]:
    return [
        {"field": "city", "operator": "equal", "value": city},
        {"field": "metricName", "operator": "equal", "value": "mape"},
        {"field": "metricValue", "operator": "smaller_than", "value": below},
    ]


def query_step(client, corpus: Corpus, rng: random.Random, rec: Recorder,
               low: float, high: float) -> None:
    city = rng.choice(corpus.cities)
    below = rng.uniform(low, high)
    expected = {s.instance_id for s in corpus.by_city[city] if s.mape < below}
    result, error, _ = rec.call("modelQuery", client.model_query, metric_query(city, below))
    rec.judge("query_ids", error, lambda: check_ids(result, expected))


def read_hot_step(client, corpus: Corpus, rng: random.Random, rec: Recorder) -> None:
    method = rng.choices([m for m, _ in READ_HOT_MIX], [w for _, w in READ_HOT_MIX])[0]
    if method == "modelQuery":
        query_step(client, corpus, rng, rec, 0.2, 0.8)
        return
    city = rng.choice(corpus.cities)
    spec = rng.choice(corpus.by_city[city])
    if method == "servingFor":
        result, error, _ = rec.call(method, client.serving_for, city)
        rec.judge("serving", error, lambda: check_instance_id(result, corpus.serving[city]))
    elif method == "getModelInstance":
        result, error, _ = rec.call(method, client.get_model_instance, spec.instance_id)
        rec.judge("instance", error, lambda: check_instance(result, spec))
    elif method == "metricsOf":
        result, error, _ = rec.call(method, client.metrics_of, spec.instance_id)
        rec.judge("metrics", error, lambda: check_metrics(result, spec))
    else:
        result, error, _ = rec.call(method, client.latest_instance, spec.base)
        rec.judge("latest", error, lambda: check_instance_id(result, corpus.latest[spec.base]))


def query_scan_step(client, corpus: Corpus, rng: random.Random, rec: Recorder) -> None:
    query_step(client, corpus, rng, rec, 0.2, 0.3)


READ_STEPS = {"read-hot": read_hot_step, "query-scan": query_scan_step}


def run_read_callers(workload: str, clients: list, corpus: Corpus, seed: int,
                     phase: str, seconds: float | None = None,
                     steps: int | None = None) -> Recorder:
    """Run one caller thread per client until *seconds* pass or *steps* are done."""
    step = READ_STEPS[workload]
    deadline = None if seconds is None else clock() + seconds
    recorders = [Recorder() for _ in clients]

    def caller(index: int) -> None:
        rng = random.Random(f"{workload}/{seed}/{phase}/{index}")
        rec = recorders[index]
        done = 0
        while (deadline is None or clock() < deadline) and (steps is None or done < steps):
            step(clients[index], corpus, rng, rec)
            done += 1

    _run_threads(caller, len(clients))
    total = Recorder()
    for rec in recorders:
        total.merge(rec)
    return total


def _run_threads(target: Callable[[int], None], count: int) -> None:
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,), name=f"caller-{i}") for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

DISABLE_EVERY = 3  # rounds of one scope between disables of its previous candidate
#: rounds of one scope that share a slot (the ``city`` its candidates carry).
#: The gate query's candidates are one slot, so the work of a round does not
#: grow with the number of rounds the run has made.  A multiple of
#: DISABLE_EVERY, so every disable hits a candidate of the current slot.
SLOT_ROUNDS = 2 * DISABLE_EVERY


@dataclass
class Scope:
    name: str
    base: str
    serving: str
    slot: str = ""
    #: this slot's candidates, by review state
    enabled: set[str] = field(default_factory=set)
    disabled: set[str] = field(default_factory=set)
    #: rounds made, counted from the scope's position among its caller's
    #: scopes, so that the slots and disables of those scopes are staggered
    #: and every stretch of rounds does about the same work
    rounds: int = 0


@dataclass
class Handoff:
    scope: str
    slot: str
    family: str
    instance_id: str
    size: int
    digest: str
    enabled: frozenset[str]
    disabled: frozenset[str]


class Lifecycle:
    """Lifecycle state shared by the callers across phases.

    Caller *i* owns scopes ``lc-scope-i*``.  In ``lifecycle`` each caller
    has its own replica and hands every switch to the other, which checks
    it on the replica that did not make the change.  ``lifecycle-local``
    has one caller on one replica, which checks its own switches.

    Every ``SLOT_ROUNDS`` rounds of a scope start a new slot: candidates
    carry ``city == <scope>.<slot number>``, and the gate query asks for
    the enabled members of the current slot only.
    """

    def __init__(self, corpus: Corpus, seed: int) -> None:
        self.scopes: list[list[Scope]] = [[], []]
        for model in corpus.models:
            scope = model.cities[0]
            owner = int(scope[len("lc-scope-")])
            first = corpus.serving[scope]
            position = len(self.scopes[owner])
            self.scopes[owner].append(Scope(scope, model.base, first, rounds=position))
        self.families = {m.cities[0]: m.family for m in corpus.models}
        self.rngs = [random.Random(f"lifecycle/{seed}/caller/{i}") for i in range(2)]

    def run(self, clients: list, phase: str, seconds: float | None = None,
            rounds: int | None = None) -> Recorder:
        """Run rounds until *seconds* pass or *rounds* are done.

        With two clients the callers go in lockstep: each switches one of
        its scopes, then checks the other's switch.  With one client it
        switches the two callers' scopes in turn and checks each itself.
        """
        deadline = None if seconds is None else clock() + seconds

        def more(done: int) -> bool:
            return (deadline is None or clock() < deadline) and (rounds is None or done < rounds)

        if len(clients) == 1:
            rec = Recorder()
            done = 0
            while more(done):
                self._verify(clients[0], rec, self._switch(done % 2, clients[0], rec),
                             cross_replica=False)
                done += 1
            return rec
        inboxes: list[queue.Queue] = [queue.Queue(), queue.Queue()]
        recorders = [Recorder(), Recorder()]
        state = {"go": True, "done": 0}

        def decide() -> None:
            state["go"] = more(state["done"])
            state["done"] += 1

        barrier = threading.Barrier(2, action=decide)

        def caller(index: int) -> None:
            client, rec = clients[index], recorders[index]
            while True:
                barrier.wait(timeout=120)
                if not state["go"]:
                    return
                inboxes[1 - index].put(self._switch(index, client, rec))
                self._verify(client, rec, inboxes[index].get(timeout=120),
                             cross_replica=True)

        _run_threads(caller, 2)
        total = Recorder()
        for rec in recorders:
            total.merge(rec)
        return total

    def _switch(self, index: int, client, rec: Recorder) -> Handoff:
        """Register a candidate, pass the gate, and point the scope at it."""
        rng = self.rngs[index]
        scopes = self.scopes[index]
        scope = scopes[sum(s.rounds for s in scopes) % len(scopes)]
        if scope.rounds % SLOT_ROUNDS == 0 or not scope.slot:
            scope.slot = f"{scope.name}.{scope.rounds // SLOT_ROUNDS}"
            scope.enabled, scope.disabled = set(), set()
        scope.rounds += 1
        candidate = None
        blob = rng.randbytes(LIFECYCLE_BLOB_BYTES)
        digest = hashlib.sha256(blob).hexdigest()
        mape, bias = rng.random(), rng.random()

        result, error, upload_s = rec.call(
            "uploadModel", client.upload_model, "perfbench", scope.base, blob,
            metadata={"city": scope.slot}, enabled=False,
        )
        rec.judge("upload", error, lambda: (
            None if result.get("instance_id") and not result.get("enabled")
            else f"upload returned {result!r}"))
        if error is None:
            candidate = result["instance_id"]
        rec.uploaded_bytes += len(blob)
        result, error, metrics_s = rec.call(
            "insertModelInstanceMetrics", client.insert_model_instance_metrics,
            candidate, {"mape": mape, "bias": bias},
        )
        rec.judge("metrics_insert", error, lambda: check_metrics(
            result, InstanceSpec(candidate, scope.base, scope.slot, mape, bias, 0, 0)))
        rec.class_ms["register"].append(1000.0 * (upload_s + metrics_s))

        result, error, _ = rec.call("enableInstance", client.enable_instance, candidate)
        rec.judge("enable", error, lambda: (None if result.get("enabled") else "still disabled"))
        scope.enabled.add(candidate)
        result, error, _ = rec.call("assignServing", client.assign_serving,
                                    scope.name, candidate, reason="perfbench switch")
        rec.judge("assign", error, lambda: check_instance_id(result, candidate))
        previous, scope.serving = scope.serving, candidate
        if scope.rounds % DISABLE_EVERY == 0 and previous in scope.enabled:
            result, error, _ = rec.call("disableInstance", client.disable_instance, previous)
            rec.judge("disable", error, lambda: (
                None if result.get("enabled") is False else "still enabled"))
            scope.enabled.discard(previous)
            scope.disabled.add(previous)
        return Handoff(scope.name, scope.slot, self.families[scope.name], candidate,
                       len(blob), digest,
                       frozenset(scope.enabled), frozenset(scope.disabled))

    @staticmethod
    def _verify(client, rec: Recorder, handoff: Handoff, cross_replica: bool) -> None:
        """The peer's view of a switch: serving row, review gate, blob."""
        result, error, _ = rec.call("servingFor", client.serving_for, handoff.scope)
        rec.judge("serving_after_switch", error, lambda: check_instance_id(result, handoff.instance_id))
        constraints = [
            {"field": "city", "operator": "equal", "value": handoff.slot},
            {"field": "family", "operator": "equal", "value": handoff.family},
            {"field": "enabled", "operator": "equal", "value": True},
        ]
        result, error, _ = rec.call("modelQuery", client.model_query, constraints)
        rec.judge("gate_after_switch", error, lambda: check_gate(
            result, set(handoff.enabled), set(handoff.disabled), cross_replica))
        t0 = clock()
        data, error, _ = rec.call("loadModelBlob", client.load_model_blob, handoff.instance_id)
        verdict = None if error else check_blob(data, handoff.size, handoff.digest)
        rec.class_ms["fetch"].append(1000.0 * (clock() - t0))
        rec.judge("blob_after_switch", error, lambda: verdict)
