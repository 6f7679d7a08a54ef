"""Fast checks of the benchmark itself: names, failure counting, self time,
host-speed normalisation.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import calibrate
import catalog
import run
import tracing
import workloads
from repro.core.api import OpResult
from repro.simcloud.clock import SimClock
from repro.simcloud.pricing import CostMeter

ROOT = Path(__file__).resolve().parents[2]


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().split("\n")
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.GATED
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER
    ]


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary, result = _bench("--workload", "burst_rpc", "--seed", "3",
                             "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["attempted"] == 2400
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = {line.split()[0] for line in summary[1:]}
    assert {m.name for m in catalog.END_TO_END} <= printed
    # percentiles name themselves and their sample counts
    assert any(line.split()[0] == "call_p99_us" and "calls; raw"
               in line for line in summary[1:])
    assert any(line.split()[0] == "virt_p99_ms" and "p86.6 of 75 calls" in line
               for line in summary[1:])

    summary, result = _bench("--workload", "burst_rpc", "--seed", "3",
                             "--seconds", "1", "--trace", "1")
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


class _FakeServer:
    """Stores bytes in a dict; ``corrupt`` maps a GET number to the
    bytes that GET returns instead."""

    def __init__(self, corrupt):
        self.data, self.corrupt, self.gets = {}, corrupt, 0

    def _done(self, ctx, **fields):
        ctx.wait(0.001)
        return OpResult(ok=True, latency=0.001, **fields)

    def put_object(self, key, data, *, ctx):
        self.data[key] = data
        return self._done(ctx, op="put", key=key)

    def get_object(self, key, *, ctx):
        self.gets += 1
        value = self.corrupt.get(self.gets, self.data[key])
        return self._done(ctx, op="get", key=key, value=value, tier="tier1")

    def delete_object(self, key, *, ctx):
        del self.data[key]
        return self._done(ctx, op="delete", key=key)


def test_wrong_get_is_counted_in_failed_frac():
    v0, v1 = b"a" * 8, b"b" * 8
    ops = [("get", "k", None), ("put", "k", v1), ("get", "k", None),
           ("get", "k", None), ("delete", "k", None)]
    server = _FakeServer(corrupt={2: v0, 3: b"garbage"})
    load = [("k", v0), ("kept", v0)]
    server.data.update(load)
    stack = workloads.Stack(server, SimClock(), [], CostMeter())
    inputs = workloads.Inputs(load=load, ops=ops)
    phase = workloads.ReadHot().drive(stack, inputs)
    assert phase.model.failures == {"stale-read": 1, "wrong-bytes": 1}
    metrics, _ = run.end_to_end(phase, [(1.0, 1.0)])
    assert metrics["failed_frac"] == 2 / 5


def test_self_time_on_a_synthetic_span_tree():
    # thread 0: A [0,100] > B [10,40], C [50,90]
    # thread 1: D [30,80] (work for A's request, recorded under B) > E [35,45]
    spans = {
        "start": [0, 10, 50, 30, 35],
        "end": [100, 40, 90, 80, 45],
        "parent": [-1, 0, 0, 1, 3],
        "thread": [0, 0, 0, 1, 1],
        "req": [1, 1, 1, 1, 1],
        "name": [0, 0, 0, 0, 0],
    }
    selfs = tracing.self_times(spans)
    assert selfs == [20, 20, 10, 40, 10]
    assert sum(selfs) == 100  # the wall time of the request, counted once


def test_recorder_links_nested_calls():
    rec = tracing.Recorder()
    inner = rec.wrap(lambda x: x + 1, "layer.inner")
    outer = rec.wrap(lambda x: inner(x) * 2, "layer.outer")
    rec.start()
    assert outer(1) == 4 and outer(2) == 6
    rec.stop()
    spans = rec.flat()
    names = [rec.names[i] for i in spans["name"]]
    assert names == ["layer.outer", "layer.inner", "layer.outer", "layer.inner"]
    assert spans["parent"] == [-1, 0, -1, 2]
    assert spans["req"][0] == spans["req"][1] != spans["req"][2]


def test_windows_are_scaled_by_the_rounds_around_them():
    ref = calibrate.REF_NS
    # the host halves its speed after nine windows
    rounds = [ref] * 9 + [2 * ref] * 9
    assert calibrate.speed_factors(rounds) == [1.0] * 9 + [0.5] * 9
    # one outlying round does not move its window's factor
    assert calibrate.speed_factors([ref] * 4 + [9 * ref] + [ref] * 4)[4] == 1.0
    windows = calibrate.Windows()
    windows.wall, windows.rounds = [10**9] * 18, rounds
    assert windows.normalised_s() == 9 * 1.0 + 9 * 0.5
