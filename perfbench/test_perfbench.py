"""Tests of the layered benchmark itself, on tiny stacks (64 pages of 64 B).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from recorder import Recorder, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _smoke(workload, tmp_path, trace, **kw):
    return workloads.run(workload, seed=3, seconds=1.0, trace=trace,
                         sizes=workloads.SMOKE, workdir=str(tmp_path),
                         setups=1, **kw)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        workloads.LAYER_METRICS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload, tmp_path):
    result = _smoke(workload, tmp_path, trace=False)
    assert result.correct, result.problems
    assert result.failed == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == \
        expected
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_emits_every_layer_metric(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = _smoke(workload, tmp_path, trace=True, spans_path=str(spans))
    assert result.correct, result.problems
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == \
        expected
    layers = {name: value for name, (value, _) in result.metrics.items()}
    # Every request's tree holds its server span, so the self times along
    # the blocking path split the request's wall time between the layers.
    assert layers["trace.linked_frac"] == 1.0
    assert layers["core.requests_per_op"] == 1.0
    assert layers["core.virtual_ms_per_request"] > 0
    if workload == "batch-write":
        assert layers["core.journal_writes_per_op"] > 0
        assert layers["shuffle.frames_sealed"] > 0
    else:
        assert layers["core.journal_ms"] == 0.0
        assert layers["core.virtual_ms_per_request"] == pytest.approx(
            layers["core.eq8_predicted_ms"], rel=1e-9)
    if workload == "cluster-rw":
        assert layers["cluster.repl_records_per_op"] == 1.0
        assert layers["cluster.failovers"] == 0.0
    lines = spans.read_text().splitlines()
    assert lines and {"id", "parent", "request", "name"} <= set(
        json.loads(lines[0]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_shadow_reply_fails_the_run(workload, tmp_path):
    result = _smoke(workload, tmp_path, trace=False, corrupt_at=5)
    assert not result.correct
    assert any("shadow" in problem for problem in result.problems)


def test_broken_client_link_fails_the_traced_run(tmp_path, monkeypatch):
    def wrap_client_without_registration(self, client, ops):
        for method in ops:
            self.wrap(client, method, "client.op")

    monkeypatch.setattr(Recorder, "wrap_client",
                        wrap_client_without_registration)
    result = _smoke("serve-read", tmp_path, trace=True)
    assert not result.correct
    assert result.metrics["trace.linked_frac"][0] == 0.0
    assert any("linked" in problem for problem in result.problems)


def test_timings_scale_with_host_speed(tmp_path, monkeypatch):
    # A host at half the reference speed: the probe takes twice as long, so
    # every gated timing reads half its raw value.
    monkeypatch.setattr(workloads, "probe_seconds",
                        lambda: 2 * workloads.REFERENCE_PROBE_S)
    result = _smoke("serve-read", tmp_path, trace=False)
    assert result.correct, result.problems
    line = next(line for line in result.report if line.startswith("p50_ms"))
    raw_p50 = float(line.split("(raw ")[1].split()[0])
    assert result.metrics["p50_ms"][0] == pytest.approx(raw_p50 / 2,
                                                        rel=1e-3)
    assert "host_speed 0.500 to 0.500" in "\n".join(result.report)


def test_self_time_subtracts_children():
    spans = [[1, 0, 1, "client.op", 0.0, 10.0, 0],
             [2, 1, 1, "service.serve", 2.0, 8.0, 0],
             [3, 2, 1, "core.op", 3.0, 7.0, 0],
             [4, 3, 1, "crypto.open", 3.5, 4.5, 0],
             [5, 3, 1, "crypto.seal", 5.0, 6.0, 0]]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0}


def test_unwrap_restores_instances():
    class Store:
        def read(self, location):
            return location

    store = Store()
    rec = Recorder()
    rec.wrap(store, "read", "storage.read", lambda a: 1)
    assert store.read(7) == 7 and rec.spans[0][3] == "storage.read"
    rec.unwrap_all()
    assert "read" not in vars(store)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
