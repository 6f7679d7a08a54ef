"""Heat telemetry: hot-set recall, bounded memory, observer overhead.

The heat tracker's promise is threefold: it identifies the workload's
hot set (so promote-on-hot policies act on the right keys), it does so
with O(k) sketch state regardless of keyspace size, and — per the
Figure 18 observer-effect rule — enabling it costs the simulated
timeline nothing.

This experiment drives a MemcachedEBS instance with a zipfian YCSB-style
stream whose hot set *shifts* every phase (popularity ranks rotate
through the keyspace), then measures per phase:

* **recall** — the fraction of the phase's truly hottest keys present in
  the tracker's hot set at phase end (gate: mean ≥ 90 %);
* **memory** — sketch entries never exceed top-k and the per-object
  table never exceeds its cap, against a keyspace far larger than both;
* **overhead** — the identical op stream replayed with the tracker
  disabled must land on the same virtual timeline (gate: < 5 % virtual
  throughput delta; the observer-effect rule makes the measured delta
  exactly zero).

Standalone use::

    python benchmarks/bench_heat_telemetry.py           # full table
    python benchmarks/bench_heat_telemetry.py --smoke   # JSON gates only

Smoke output contains only virtual-timeline figures, so same-seed runs
print byte-identical JSON (the CI heat-telemetry job diffs two runs).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.bench.report import format_table
from repro.core.server import TieraServer
from repro.core.templates import memcached_ebs_instance
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.ycsb import record_payload

SEED = 2014
RECORDS = 400            # keyspace — an order of magnitude over TOP_K
PHASES = 3
OPS_PER_PHASE = 800
SHIFT = 131              # rank rotation per phase (hot set moves wholesale)
THETA = 1.2              # zipfian skew (Figure 12's steeper setting)
HOT_TRUE = 5             # the per-phase ground-truth hot set size
TOP_K = 32               # Space-Saving sketch capacity
HOT_MIN = 4              # guaranteed count before a key counts as hot
MAX_OBJECTS = 128        # per-object table cap (< keyspace, proves LRU)
RECORD_SIZE = 512
RECALL_GATE = 0.90
OVERHEAD_GATE = 0.05


def key_name(index: int) -> str:
    return f"user{index:06d}"


def run_stream(enable_heat: bool):
    """Drive the shifting-hot-set stream; returns (phases, summary, ctx).

    The op stream is a pure function of SEED, so the enabled and
    disabled runs execute byte-identical request sequences.
    """
    cluster = Cluster(seed=SEED)
    registry = TierRegistry(cluster)
    instance = memcached_ebs_instance(registry, mem="64M", ebs="256M")
    server = TieraServer(instance)
    tracker = None
    if enable_heat:
        server.configure(
            "heat", top_k=TOP_K, hot_min=HOT_MIN, max_objects=MAX_OBJECTS,
            sample_interval=5.0,
        ).raise_for_error()
        tracker = server.obs.heat
    keys = ZipfianKeys(RECORDS, theta=THETA, seed=SEED + 1)
    mix = random.Random(SEED + 2)
    ctx = RequestContext(cluster.clock)
    written = set()
    phases = []
    for phase in range(PHASES):
        true_counts = {}
        for _ in range(OPS_PER_PHASE):
            rank = min(keys.next_rank(), RECORDS - 1)
            index = (rank + phase * SHIFT) % RECORDS
            key = key_name(index)
            true_counts[index] = true_counts.get(index, 0) + 1
            if mix.random() < 0.5 and key in written:
                server.get_object(key, ctx=ctx).raise_for_error()
            else:
                payload = record_payload(index, 0, RECORD_SIZE)
                server.put_object(key, payload, ctx=ctx).raise_for_error()
                written.add(key)
        cluster.clock.run_until(ctx.time)
        true_hot = [
            key_name(index)
            for index, _ in sorted(
                true_counts.items(), key=lambda item: (-item[1], item[0])
            )[:HOT_TRUE]
        ]
        detected = set(tracker.hot_keys()) if tracker is not None else set()
        hit = sum(1 for key in true_hot if key in detected)
        phases.append({
            "phase": phase,
            "true_hot": true_hot,
            "detected": hit,
            "recall": round(hit / len(true_hot), 4),
            "distinct_keys": len(true_counts),
        })
    summary = (
        server.invoke("heat", "summary").state if tracker is not None
        else None
    )
    return phases, summary, ctx


def run_gates():
    """Both runs plus the three gate verdicts, all virtual-deterministic."""
    phases, summary, ctx_on = run_stream(enable_heat=True)
    _, _, ctx_off = run_stream(enable_heat=False)
    mean_recall = round(
        sum(p["recall"] for p in phases) / len(phases), 4
    )
    on_t, off_t = ctx_on.time, ctx_off.time
    overhead = round(abs(on_t - off_t) / off_t, 6) if off_t else 0.0
    report = {
        "seed": SEED,
        "records": RECORDS,
        "phases": phases,
        "mean_recall": mean_recall,
        "recall_gate": RECALL_GATE,
        "sketch_entries": summary["sketch_entries"],
        "top_k": TOP_K,
        "tracked_objects": summary["tracked_objects"],
        "max_objects": MAX_OBJECTS,
        "hot_keys": summary["hot_keys"],
        "skew": summary["skew"],
        "churn": summary["churn"],
        "virtual_seconds_enabled": round(on_t, 6),
        "virtual_seconds_disabled": round(off_t, 6),
        "virtual_overhead": overhead,
        "overhead_gate": OVERHEAD_GATE,
    }
    ok = (
        mean_recall >= RECALL_GATE
        and summary["sketch_entries"] <= TOP_K
        and summary["tracked_objects"] <= MAX_OBJECTS
        and overhead < OVERHEAD_GATE
        # the observer-effect rule: tracking never moves virtual time
        and on_t == off_t
    )
    return ok, report


def run_table():
    ok, report = run_gates()
    rows = [
        [
            p["phase"],
            p["distinct_keys"],
            ", ".join(k[-3:] for k in p["true_hot"]),
            p["detected"],
            f"{p['recall']:.0%}",
        ]
        for p in report["phases"]
    ]
    table = format_table(
        "Heat telemetry: shifting-hot-set zipfian, Space-Saving hot set",
        ["phase", "distinct", "true hot (suffixes)", "found", "recall"],
        rows,
        note=(
            f"mean recall {report['mean_recall']:.0%} "
            f"(gate {report['recall_gate']:.0%}); "
            f"sketch {report['sketch_entries']}/{report['top_k']} entries "
            f"over a {report['records']}-key space; "
            f"tracked {report['tracked_objects']}/{report['max_objects']} "
            f"objects;\nvirtual overhead "
            f"{report['virtual_overhead']:.4%} with the tracker enabled "
            f"(gate < {report['overhead_gate']:.0%})."
        ),
    )
    return ok, report, table


def test_heat_telemetry(benchmark, emit):
    out = {}

    def experiment():
        out["ok"], out["report"], out["table"] = run_table()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit("heat_telemetry", out["table"])
    report = out["report"]
    assert report["mean_recall"] >= RECALL_GATE, report["phases"]
    assert report["sketch_entries"] <= TOP_K
    assert report["tracked_objects"] <= MAX_OBJECTS
    assert report["virtual_overhead"] < OVERHEAD_GATE
    assert (
        report["virtual_seconds_enabled"] == report["virtual_seconds_disabled"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hot-set recall and overhead of the heat tracker."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="print the deterministic gate report as JSON; exit 1 on a "
             "failed gate",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        ok, report = run_gates()
        print(json.dumps(report, indent=2, sort_keys=True))
        if not ok:
            print("FAIL: heat telemetry gate", file=sys.stderr)
            return 1
        return 0
    ok, report, table = run_table()
    print(table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
