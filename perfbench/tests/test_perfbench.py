"""Self-tests of the benchmark: tiny runs, the oracle, and the failure exit.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from corpus import lifecycle, read_hot  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN,
    Lifecycle,
    Recorder,
    check_blob,
    check_gate,
    check_ids,
    read_hot_step,
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload: str, trace: str) -> None:
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = dict(run.PER_LAYER if trace == "1" else run.END_TO_END)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == expected
    if trace == "1" or workload in {w["name"] for w in spec["workloads"]}:
        assert emitted == expected
    else:
        # a workload BENCHMARK.json does not list omits the latency classes
        # it does not exercise (query-scan makes no point calls)
        assert emitted.items() <= expected.items()
        assert {"setup_s", "throughput_ops_s", "server_rss_mb"} <= set(emitted)


class _WrongClient:
    """A client that answers every read-hot call with a wrong result."""

    def serving_for(self, city: str) -> dict:
        return {"instance_id": "not-the-serving-instance"}

    get_model_instance = latest_instance = serving_for

    def metrics_of(self, instance_id: str) -> list:
        return [{"name": "mape", "value": -1.0}]

    def model_query(self, constraints: list) -> list:
        return [{"instance_id": "not-a-match"}]


def test_oracle_flags_an_injected_wrong_answer() -> None:
    corpus = read_hot(seed=5, scale=0.02)
    rec = Recorder()
    rng = random.Random(0)
    for _ in range(50):
        read_hot_step(_WrongClient(), corpus, rng, rec)
    assert rec.calls == 50
    assert rec.failed == 50 and rec.known == 0
    assert {"serving", "instance", "metrics", "latest", "query_ids"} <= set(rec.checks)
    assert all(failed == attempted for attempted, failed, _known in rec.checks.values())


def test_oracle_checks() -> None:
    rows = [{"instance_id": "a"}, {"instance_id": "b"}]
    assert check_ids(rows, {"a", "b"}) is None
    assert check_ids(rows, {"a"}) is not None
    assert check_ids(rows[:1], {"a", "b"}) is not None
    # a disabled instance still listed by a peer is the documented staleness defect ...
    assert check_gate(rows, {"a"}, disabled={"b"}, cross_replica=True) == KNOWN
    # ... but not on the replica that disabled it, and a missing or unknown
    # one is a plain wrong answer
    assert check_gate(rows, {"a"}, disabled={"b"}, cross_replica=False) not in (None, KNOWN)
    assert check_gate(rows[:1], {"a", "b"}, disabled=set(), cross_replica=True) not in (None, KNOWN)
    assert check_gate(rows, {"a"}, disabled=set(), cross_replica=True) not in (None, KNOWN)
    data = bytes(range(256))
    digest = hashlib.sha256(data).hexdigest()
    assert check_blob(data, 256, digest) is None
    assert check_blob(b"\x01" + data[1:], 256, digest) is not None
    assert check_blob(data[:-1], 256, digest) is not None


class _StaleGallery:
    """An in-memory stand-in whose gate query keeps listing disabled instances."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self.instances: dict[str, dict] = {}
        self.serving: dict[str, str] = {}

    def upload_model(self, project, base, blob, metadata, enabled):
        instance_id = f"i{next(self._ids)}"
        self.instances[instance_id] = {"city": metadata["city"], "blob": blob,
                                       "ever_enabled": enabled}
        return {"instance_id": instance_id, "enabled": enabled}

    def insert_model_instance_metrics(self, instance_id, metrics):
        return [{"name": name, "value": value} for name, value in metrics.items()]

    def enable_instance(self, instance_id):
        self.instances[instance_id]["ever_enabled"] = True
        return {"enabled": True}

    def disable_instance(self, instance_id):
        return {"enabled": False}

    def assign_serving(self, scope, instance_id, reason):
        self.serving[scope] = instance_id
        return {"instance_id": instance_id}

    def serving_for(self, scope):
        return {"instance_id": self.serving[scope]}

    def model_query(self, constraints):
        city = constraints[0]["value"]
        return [{"instance_id": i} for i, doc in self.instances.items()
                if doc["city"] == city and doc["ever_enabled"]]

    def load_model_blob(self, instance_id):
        return self.instances[instance_id]["blob"]


@pytest.mark.parametrize("callers", [1, 2])
def test_stale_gate_is_known_only_across_replicas(callers: int) -> None:
    stale = _StaleGallery()
    # three rounds of each of the 16 scopes: the third disables a candidate
    rec = Lifecycle(lifecycle(seed=5), seed=5).run([stale] * callers, "t", rounds=48 // callers)
    attempted, failed, known = rec.checks["gate_after_switch"]
    assert attempted == 48 and failed > 0
    # the same stale answer is the documented defect when a peer replica
    # gives it, and a wrong answer when the replica that disabled does
    assert known == (failed if callers == 2 else 0)
    assert rec.failed == failed


def test_a_directory_without_sources_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "read-hot", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
