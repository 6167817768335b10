"""Tests of the benchmark itself: output contract, determinism, trace invariants.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs at the ``tiny`` size (a few seconds) in a child process,
exactly as the benchmark command is invoked.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, repeat: int = 0):
    """One tiny benchmark run: (final JSON, {line tag: payload}).

    ``repeat`` only distinguishes cached runs, to run the same case twice.
    """
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        if line.startswith("# info ") or line.startswith("# env "):
            tag, payload = line[2:].split(" ", 1)
            tagged[tag] = json.loads(payload)
    return json.loads(lines[-1]), tagged


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, tagged = run(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], float)
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0.0, metric["name"]
    env = tagged["env"]
    assert env["seed"] == 0 and env["workload"] == workload
    assert env["pinned"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_workload_and_answers(workload):
    _, first = run(workload, 0, 0)
    _, again = run(workload, 0, 0, repeat=1)
    assert first["info"]["signature"] == again["info"]["signature"]
    assert first["info"]["answer_digest"] == again["info"]["answer_digest"]


def test_another_seed_gives_another_serve_trace():
    _, first = run("serve_hot", 0, 0)
    _, other = run("serve_hot", 1, 0)
    assert first["info"]["signature"] != other["info"]["signature"]


def test_train_digests_cover_data_graph_and_answers():
    _, tagged = run("train", 0, 0)
    info = tagged["info"]
    for key in ("dataset_digest", "graph_digest", "answer_digest"):
        assert len(info[key]) == 64


# --------------------------------------------------------------------- #
# trace invariants
# --------------------------------------------------------------------- #
class _Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def call(self, depth):
        if self.inner is not None:
            for _ in range(depth):
                self.inner.call(0)
        return depth


def _check(tracer: Tracer) -> None:
    assert tracer.invariant_violations() == []
    selves = tracer.self_times()
    for span in tracer.spans:
        assert 0.0 <= selves[span.sid] <= span.duration
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_wrapped_calls_nest_and_self_time_is_bounded():
    inner = _Layer()
    outer = _Layer(inner)
    tracer = Tracer()
    with tracer.installed(lambda t: (t.wrap(_Layer, "call", "layer.call"))):
        outer.call(3)
    assert "call" not in vars(outer) and _Layer.call.__name__ == "call"
    assert [span.name for span in tracer.spans] == ["layer.call"] * 4
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 0]
    _check(tracer)
    assert tracer.total("layer") == pytest.approx(tracer.spans[0].duration)


def test_instance_wrap_is_removed_afterwards():
    layer = _Layer()
    tracer = Tracer()
    with tracer.installed(lambda t: t.wrap(layer, "call", "one.call")):
        layer.call(0)
        _Layer().call(0)
    assert len(tracer.spans) == 1 and "call" not in vars(layer)


def test_first_only_records_one_span_per_receiver():
    first, second = _Layer(), _Layer()
    tracer = Tracer()
    with tracer.installed(lambda t: t.wrap(_Layer, "call", "x.call",
                                           first_only=True)):
        for layer in (first, first, second, first):
            layer.call(0)
    assert len(tracer.spans) == 2


def test_call_hook_without_span_sees_every_call_of_an_inherited_method():
    class Child(_Layer):
        pass

    calls = []
    tracer = Tracer()

    def keep(args, answer, seconds):
        calls.append((args[1:], answer, seconds))

    with tracer.installed(lambda t: t.wrap(Child, "call", None, on_call=keep)):
        Child().call(2)
        Child().call(5)
    assert tracer.spans == []
    assert [(args, answer) for args, answer, _ in calls] == [((2,), 2), ((5,), 5)]
    assert all(seconds >= 0.0 for *_, seconds in calls)
    assert "call" not in vars(Child)


def test_a_span_escaping_its_parent_is_reported():
    tracer = Tracer(clock=iter([0.0, 1.0, 3.0, 2.0]).__next__)
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.invariant_violations()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_satisfy_the_invariants(workload):
    run(workload, 0, 1)
    path = ROOT / ".perfbench" / f"spans-{workload}-0.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    tracer = Tracer()
    from tracer import Span

    tracer.spans = [Span(**row) for row in rows if "sid" in row]
    assert tracer.spans
    _check(tracer)
