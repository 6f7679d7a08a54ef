"""Wall-clock benchmark of the Tiera data path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --describe

``--trace 0`` builds the workload three times (``setup_s`` is the median),
runs the timed phase on the last build and prints the end-to-end
metrics.  Wall-time metrics are normalised to a reference host speed by
calibration rounds interleaved with the work (:mod:`calibrate`); the
raw figures are printed beside them.  ``--trace 1`` runs the timed phase untraced, then again on a
fresh build with spans recorded around every public layer function
(:mod:`tracing`), and prints the per-layer metrics, the tracer's
overhead, and whether the two runs' modelled figures agree.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Spans of a traced run are written to ``.perfbench_out/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: virtual-time / outcome metrics a traced run must reproduce exactly
SEEDED = ("virt_ops_per_s", "virt_p50_ms", "virt_p99_ms", "cost_usd_month",
          "bytes_stored_per_user_byte", "failed_frac", "fsck_findings")

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402
from calibrate import Windows  # noqa: E402


def percentile(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """p99, or below 1,000 samples the highest percentile that still
    has at least ten samples beyond it."""
    if count >= 1000:
        return 99.0
    return max(0.0, math.floor(1000.0 * (1 - 10.0 / count)) / 10.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, inputs, repeats: int):
    """Build ``repeats`` times; keep the last stack, return each build's
    normalised and raw seconds."""
    times: List[Tuple[float, float]] = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            stack.close()
            stack = None
        gc.collect()
        windows = Windows()
        stack = workload.build(seed, inputs, windows)
        windows.split()
        times.append((windows.normalised_s(), sum(windows.wall) / 1e9))
    gc.collect()
    return stack, times


def end_to_end(phase, setup_times: List[Tuple[float, float]]
               ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics of one timed phase, plus notes on samples.

    Wall-time figures are normalised (see :mod:`calibrate`): each
    window's time, and each call's, is scaled by the window's speed
    factor.  ``ops_per_s`` and ``cpu_us_per_op`` are over the whole
    phase, the call percentiles over all calls.  Modelled figures are
    over the whole phase too.
    """
    win = phase.windows
    factors = win.factors()
    cpu_ns = sum(c * f for c, f in zip(win.cpu, win.cpu_factors()))
    calls: List[float] = []
    for i, (start, end) in enumerate(zip([0] + win.marks, win.marks)):
        calls.extend(ns * factors[i] for ns in phase.call_ns[start:end])
    calls.sort()
    tail = tail_percentile(len(calls))
    virt = sorted(phase.virt)
    vtail = tail_percentile(len(virt))
    model = phase.model
    setups = [norm for norm, _ in setup_times]
    metrics = {
        "ops_per_s": phase.ops / win.normalised_s(),
        "cpu_us_per_op": cpu_ns / phase.ops / 1e3,
        "call_p50_us": percentile(calls, 50) / 1e3,
        "call_p99_us": percentile(calls, tail) / 1e3,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "virt_ops_per_s": phase.ops / phase.virt_span,
        "virt_p50_ms": percentile(virt, 50) * 1e3,
        "virt_p99_ms": percentile(virt, vtail) * 1e3,
        "cost_usd_month": phase.cost_usd_month,
        "bytes_stored_per_user_byte": phase.bytes_stored / model.user_bytes(),
        "failed_frac": model.failed / phase.ops,
        "fsck_findings": phase.fsck_findings,
    }
    raw_calls = sorted(phase.call_ns)
    speed = statistics.median(factors)
    notes = {
        "ops_per_s": f"{len(win.wall)} windows; raw {phase.ops / phase.wall_s:.6g}"
                     f", host speed factor {speed:.4g}",
        "cpu_us_per_op": f"raw {phase.cpu_s / phase.ops * 1e6:.6g}",
        "call_p50_us": f"p50 of {len(calls)} calls; raw "
                      f"{percentile(raw_calls, 50) / 1e3:.6g}",
        "call_p99_us": f"p{tail:g} of {len(calls)} calls; raw "
                      f"{percentile(raw_calls, tail) / 1e3:.6g}",
        "setup_s": f"median of {len(setups)} set-ups; raw "
                   f"{statistics.median(raw for _, raw in setup_times):.6g}"
                   if setup_times else "",
        "virt_p50_ms": f"p50 of {len(virt)} calls",
        "virt_p99_ms": f"p{vtail:g} of {len(virt)} calls",
        "failed_frac": f"{model.failed} of {phase.ops} ops: "
                       f"{dict(sorted(model.failures.items())) or 'none'}",
    }
    return metrics, notes


def layer_metrics(rec, phase, overhead: float, inputs):
    """Per-layer metrics of a traced phase, and the per-layer table
    (layer -> self us/op, share of the phase's wall, spans/op)."""
    from tracing import layer_of, self_times

    spans = rec.flat()
    selfs = self_times(spans)
    names = rec.names
    ops = phase.ops
    wall_ns = phase.wall_s * 1e9
    name_col, parent, start, end, thread = (
        spans["name"], spans["parent"], spans["start"], spans["end"], spans["thread"]
    )
    load_thread = rec.load_buffer_number()
    layer_self: Dict[str, float] = {}
    layer_calls: Dict[str, int] = {}
    count: Dict[str, int] = {}
    total: Dict[str, float] = {}
    covered = 0
    evictions = slow_reads = 0
    heat_ns = 0
    for i, name_id in enumerate(name_col):
        name = names[name_id]
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0) + selfs[i]
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + end[i] - start[i]
        p = parent[i]
        parent_name = names[name_col[p]] if p >= 0 else ""
        if p < 0 and thread[i] == load_thread:
            covered += end[i] - start[i]
        elif name == "instance.TieraInstance.remove_from_tier":
            if parent_name == "instance.TieraInstance.write_to_tier":
                evictions += 1
        elif name.startswith("tiers.Tier.get@") and not name.endswith("@tier1"):
            grand = parent[p] if p >= 0 else -1
            if (parent_name == "instance.TieraInstance.read_raw"
                    and not (grand >= 0 and names[name_col[grand]].startswith("placement."))):
                slow_reads += 1
        if name.startswith("obs.HeatTracker.") and not parent_name.startswith("obs.HeatTracker."):
            heat_ns += end[i] - start[i]

    def n(*suffixes: str) -> int:
        return sum(c for name, c in count.items() if name.endswith(suffixes))

    def mean_us(suffix: str) -> float:
        calls = n(suffix)
        spent = sum(t for name, t in total.items() if name.endswith(suffix))
        return spent / calls / 1e3 if calls else 0.0

    def self_us(layer: str) -> float:
        return layer_self.get(layer, 0) / ops / 1e3

    sums = rec.sums
    cycles = n(".PlacementEngine.run_cycle")
    acquires = n(".Resource.acquire")
    user_bytes = sum(len(data) for verb, _, data in inputs.ops if data is not None)
    gets = sum(1 for verb, _, _ in inputs.ops if verb == "get")
    metrics = {
        "server.self_us_per_op": self_us("server"),
        "sharding.self_us_per_op": self_us("sharding"),
        "sharding.owner_calls_per_op": n(".ConsistentHashRing.owner") / ops,
        "rpc.self_us_per_op": self_us("rpc"),
        "rpc.wire_bytes_per_op": sums.get("rpc.wire_bytes", 0.0) / ops,
        "rpc.frames_per_op": n(".write_frame", ".read_frame") / ops,
        "control.self_us_per_op": self_us("control"),
        "control.dispatch_per_op": n(".ControlLayer.dispatch_action") / ops,
        "control.threshold_evals_per_op": n(".ControlLayer.evaluate_thresholds") / ops,
        "responses.self_us_per_op": self_us("responses"),
        "instance.self_us_per_op": self_us("instance"),
        "instance.overwrite_prep_us": mean_us(".TieraInstance.prepare_overwrite"),
        "instance.delete_us": mean_us(".TieraInstance.delete_object"),
        "instance.persist_meta_per_op": n(".TieraInstance.persist_meta") / ops,
        "instance.meta_scanned_per_op": sums.get("instance.meta_scanned", 0.0) / ops,
        "kvstore.puts_per_op": sum(
            c for name, c in count.items()
            if name.startswith("kvstore.") and name.endswith(".put")) / ops,
        "kvstore.bytes_per_user_byte": (
            sums.get("kvstore.put_bytes", 0.0) / user_bytes if user_bytes else 0.0
        ),
        "kvstore.self_us_per_op": self_us("kvstore"),
        "placement.cycles": cycles,
        "placement.us_per_cycle": mean_us(".PlacementEngine.run_cycle"),
        "placement.moves_per_cycle": (
            sums.get("placement.moves", 0.0) / cycles if cycles else 0.0
        ),
        "tiers.self_us_per_op": self_us("tiers"),
        "tiers.fast_hit_ratio": (gets - slow_reads) / gets if gets else 0.0,
        "tiers.evictions_per_op": evictions / ops,
        "services.self_us_per_op": self_us("services"),
        "services.virt_busy_ms_per_op": sums.get("resources.busy_s", 0.0) / ops * 1e3,
        "resources.acquire_us": mean_us(".Resource.acquire"),
        "resources.acquires_per_op": acquires / ops,
        "resources.virt_wait_ms": (
            sums.get("resources.wait_s", 0.0) / acquires * 1e3 if acquires else 0.0
        ),
        "clock.self_us_per_op": self_us("clock"),
        "obs.self_us_per_op": self_us("obs"),
        "obs.metric_updates_per_op": n(".Counter.inc", ".Gauge.set", ".Histogram.observe") / ops,
        "obs.heat_us_per_op": heat_ns / ops / 1e3,
        "trace.overhead": overhead,
        "trace.coverage": covered / wall_ns,
    }
    table = {
        layer: (spent / ops / 1e3, spent / wall_ns, layer_calls[layer] / ops)
        for layer, spent in sorted(layer_self.items(), key=lambda kv: -kv[1])
    }
    outside = wall_ns - sum(layer_self.values())
    table["(outside spans)"] = (outside / ops / 1e3, outside / wall_ns, 0.0)
    return metrics, table


def _unexpected(name: str, phase) -> List[str]:
    known = catalog.KNOWN_DEFECTS.get(name, {})
    problems = [f"unexpected failure kind {kind!r} x{times}"
                for kind, times in sorted(phase.model.failures.items())
                if kind not in known]
    if phase.fsck_findings and not known:
        problems.append(f"fsck reported {phase.fsck_findings} findings")
    return problems


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _run_plain(name: str, workload, seed: int, inputs) -> Tuple[dict, object, list]:
    """Untraced: set up SETUP_REPEATS times, time the last build."""
    stack, setup_times = _setup(workload, seed, inputs, SETUP_REPEATS)
    try:
        phase = workload.drive(stack, inputs)
    finally:
        stack.close()
    metrics, notes = end_to_end(phase, setup_times)
    for metric in catalog.END_TO_END:
        print(f"  {metric.name:28} {_fmt(metrics[metric.name]):>14} "
              f"{metric.unit:10} {notes.get(metric.name, '')}")
    result = {m.name: {"value": metrics[m.name], "unit": m.unit}
              for m in catalog.GATED}
    return result, phase, _unexpected(name, phase)


def _run_traced(name: str, workload, seed: int, inputs) -> Tuple[dict, object, list]:
    """An untraced phase, then a traced one on a fresh build."""
    import tracing

    stack, _ = _setup(workload, seed, inputs, 1)
    try:
        plain = workload.drive(stack, inputs)
    finally:
        stack.close()
    del stack
    plain_metrics, _ = end_to_end(plain, [])
    rec = tracing.Recorder()
    saved = tracing.install(rec)
    try:
        stack, _ = _setup(workload, seed, inputs, 1)
        try:
            tracing.count_wire_bytes(stack.facade, rec)
            phase = workload.drive(stack, inputs, recorder=rec)
        finally:
            stack.close()
    finally:
        tracing.uninstall(saved)
    traced_metrics, _ = end_to_end(phase, [])
    problems = [
        f"traced run changed {key}: {plain_metrics[key]!r} -> {traced_metrics[key]!r}"
        for key in SEEDED if plain_metrics[key] != traced_metrics[key]
    ]
    overhead = plain_metrics["ops_per_s"] / traced_metrics["ops_per_s"]
    metrics, table = layer_metrics(rec, phase, overhead, inputs)
    out_path = ROOT / ".perfbench_out" / f"spans-{name}"
    rec.write(str(out_path))
    print(f"  untraced {plain_metrics['ops_per_s']:.1f} ops/s, traced "
          f"{traced_metrics['ops_per_s']:.1f} ops/s; {rec.span_count()} spans "
          f"-> {out_path}.bin")
    print(f"  {'layer':16} {'self us/op':>11} {'share':>7} {'spans/op':>9}")
    for layer, (us, share, per_op) in table.items():
        print(f"  {layer:16} {us:11.2f} {share:7.1%} {per_op:9.2f}")
    for metric in catalog.PER_LAYER:
        print(f"  {metric.name:32} {_fmt(metrics[metric.name]):>14} {metric.unit}")
    result = {m.name: {"value": metrics[m.name], "unit": m.unit}
              for m in catalog.PER_LAYER}
    return result, phase, problems + _unexpected(name, phase)


def run_one(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Run one workload; print the summary and return the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.generate(seed, seconds)
    print(f"workload {name}  seed {seed}  seconds {seconds}  "
          f"ops {len(inputs.ops)}  trace {int(trace)}")
    runner = _run_traced if trace else _run_plain
    metrics, phase, problems = runner(name, workload, seed, inputs)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not problems,
        "attempted": phase.ops,
        "failed": phase.model.failed,
        "metrics": metrics,
    }


def describe() -> None:
    print("Workloads")
    for name, spec in catalog.WORKLOADS.items():
        print(f"  {name}")
        for key, value in spec.items():
            print(f"    {key:9} {value}")
    print("End-to-end metrics (bound = allowed relative worsening)")
    for m in catalog.END_TO_END:
        bound = f"bound {m.bound:g}" if m.bound is not None else "not gated"
        print(f"  {m.name:28} {m.unit:10} {m.better:6} {bound:10}  {m.what}")
    print("Per-layer metrics: what each should move / where it should not")
    for m in catalog.PER_LAYER:
        steady = f"; steady on {m.steady}" if m.steady else ""
        print(f"  {m.name:32} {m.unit:6} -> {m.moves}{steady}")
    print("Known defects the baseline shows (counted in `failed`)")
    for name, defects in catalog.KNOWN_DEFECTS.items():
        for kind, text in defects.items():
            print(f"  {name} {kind}: {text}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, a comma list, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = (list(catalog.WORKLOADS) if args.workload == "all"
             else (args.workload or "").split(","))
    unknown = [n for n in names if n not in catalog.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from "
                     f"{', '.join(catalog.WORKLOADS)} or all")
    if len(names) > 1:
        return _run_many(names, args)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_one(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _run_many(names: List[str], args) -> int:
    """One process per workload (peak RSS is per process); the last line
    merges their results, metrics named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
