"""What the benchmark measures, and why: the single source of its names.

``BENCHMARK.json`` has a fixed schema (names, units, bounds and a
one-line reason per workload).  The rest a later performance change
needs to cite lives here: each workload's set-up, each per-layer
metric's predicted effect, and the defects the baseline is known to
show.  ``python3 perfbench/run.py --describe`` prints it all.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    what: str
    #: allowed relative worsening; None = printed but not gated (may be 0)
    bound: Optional[float] = None


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end metric(s) and workload(s) it should move
    moves: str
    #: workloads on which it is predicted not to change
    steady: str = ""


# Wall-time metrics are normalised to the reference host speed of
# calibrate.REF_NS (see calibrate.py); the raw figures are printed beside
# them.  cpu_us_per_op and call_p99_us are printed but not gated: the
# first says what ops_per_s says, and the second is set by the
# memory-bound namespace scans (churn_dedup) and rare long pauses
# (burst_rpc: 10 calls beyond p98.6), which move with the host's memory
# traffic rather than with the calibration rounds, so neither raw nor
# normalised it repeats within the 0.25 bound.
END_TO_END: List[Metric] = [
    Metric("ops_per_s", "ops/s", "higher",
           "operations per (normalised) wall second of the timed phase, "
           "including timer and background work run by the driver's clock "
           "advance; each ~50-100 ms window normalised by its speed "
           "factor", 0.25),
    Metric("cpu_us_per_op", "us", "lower",
           "process CPU time (process_time) per operation, normalised by "
           "the rounds' CPU time"),
    Metric("call_p50_us", "us", "lower",
           "median (normalised) wall time of one facade call (one op; one "
           "32-op batch on burst_rpc), over all calls", 0.25),
    Metric("call_p99_us", "us", "lower",
           "p99 (normalised) wall time of one facade call, over all calls; "
           "below 1,000 calls (burst_rpc: 750) the highest percentile with "
           ">= 10 calls beyond it"),
    Metric("setup_s", "s", "lower",
           "build + load (+ cache warm-up) wall time, normalised, median "
           "of 3 set-ups", 0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "peak resident memory of the run (ru_maxrss), including ~18 MiB "
           "of calibration tables that are the same on every commit", 0.10),
    Metric("virt_ops_per_s", "ops/s", "higher",
           "modelled throughput: ops per virtual second", 0.10),
    Metric("virt_p50_ms", "ms", "lower",
           "median modelled client latency (OpResult / BatchResult)", 0.10),
    Metric("virt_p99_ms", "ms", "lower",
           "p99 modelled client latency", 0.10),
    Metric("cost_usd_month", "USD/month", "lower",
           "monthly_cost() over instances + metered request charges", 0.05),
    Metric("bytes_stored_per_user_byte", "ratio", "lower",
           "bytes held across all tiers / live bytes in the reference model",
           0.05),
    Metric("failed_frac", "ratio", "lower",
           "(not-ok envelopes + raises + GETs whose bytes differ from the "
           "reference model) / ops attempted; reported as `failed` in the "
           "result line"),
    Metric("fsck_findings", "count", "lower",
           "findings of repro.core.durability.fsck after the timed phase, "
           "summed over instances"),
]

#: end-to-end metrics that go into the result line (and BENCHMARK.json)
GATED = [m for m in END_TO_END if m.bound is not None]

PER_LAYER: List[LayerMetric] = [
    LayerMetric("server.self_us_per_op", "us", "lower",
                "ops_per_s, call_p50_us on read_hot"),
    LayerMetric("sharding.self_us_per_op", "us", "lower",
                "ops_per_s on burst_rpc", "read_hot, churn_dedup"),
    LayerMetric("sharding.owner_calls_per_op", "count", "lower",
                "ops_per_s on burst_rpc", "read_hot, churn_dedup"),
    LayerMetric("rpc.self_us_per_op", "us", "lower",
                "ops_per_s, call_p50_us on burst_rpc", "read_hot, churn_dedup"),
    LayerMetric("rpc.wire_bytes_per_op", "B", "lower",
                "ops_per_s, call_p50_us on burst_rpc", "read_hot, churn_dedup"),
    LayerMetric("rpc.frames_per_op", "count", "lower",
                "ops_per_s, call_p50_us on burst_rpc", "read_hot, churn_dedup"),
    LayerMetric("control.self_us_per_op", "us", "lower",
                "ops_per_s on read_hot, churn_dedup"),
    LayerMetric("control.dispatch_per_op", "count", "lower",
                "ops_per_s on read_hot, churn_dedup"),
    LayerMetric("control.threshold_evals_per_op", "count", "lower",
                "ops_per_s on read_hot, churn_dedup"),
    LayerMetric("responses.self_us_per_op", "us", "lower",
                "ops_per_s on read_hot, churn_dedup"),
    LayerMetric("instance.self_us_per_op", "us", "lower",
                "ops_per_s, call_p99_us on churn_dedup (most), read_hot (tail)"),
    LayerMetric("instance.overwrite_prep_us", "us", "lower",
                "call_p99_us on churn_dedup, read_hot"),
    LayerMetric("instance.delete_us", "us", "lower",
                "ops_per_s, call_p99_us on churn_dedup"),
    LayerMetric("instance.persist_meta_per_op", "count", "lower",
                "cpu_us_per_op on churn_dedup"),
    LayerMetric("instance.meta_scanned_per_op", "count", "lower",
                "ops_per_s on read_hot (placement scans)"),
    LayerMetric("kvstore.puts_per_op", "count", "lower",
                "cpu_us_per_op on churn_dedup", "burst_rpc (little)"),
    LayerMetric("kvstore.bytes_per_user_byte", "ratio", "lower",
                "cpu_us_per_op on churn_dedup", "burst_rpc (little)"),
    LayerMetric("kvstore.self_us_per_op", "us", "lower",
                "cpu_us_per_op on churn_dedup", "burst_rpc (little)"),
    LayerMetric("placement.cycles", "count", "lower",
                "ops_per_s on read_hot", "churn_dedup, burst_rpc"),
    LayerMetric("placement.us_per_cycle", "us", "lower",
                "ops_per_s on read_hot", "churn_dedup, burst_rpc"),
    LayerMetric("placement.moves_per_cycle", "count", "lower",
                "virt_p99_ms, cost_usd_month on read_hot",
                "churn_dedup, burst_rpc"),
    LayerMetric("tiers.self_us_per_op", "us", "lower",
                "ops_per_s on churn_dedup, read_hot"),
    LayerMetric("tiers.fast_hit_ratio", "ratio", "higher",
                "virt_p50_ms, cost_usd_month on churn_dedup, read_hot"),
    LayerMetric("tiers.evictions_per_op", "count", "lower",
                "virt_p50_ms, cost_usd_month on churn_dedup, read_hot"),
    LayerMetric("services.self_us_per_op", "us", "lower",
                "ops_per_s on all"),
    LayerMetric("services.virt_busy_ms_per_op", "ms", "lower",
                "virt_* on all"),
    LayerMetric("resources.acquire_us", "us", "lower",
                "ops_per_s on burst_rpc", "read_hot, churn_dedup (little)"),
    LayerMetric("resources.acquires_per_op", "count", "lower",
                "virt_* on all"),
    LayerMetric("resources.virt_wait_ms", "ms", "lower",
                "virt_p99_ms on burst_rpc; fixed under any pure speed-up",
                "read_hot, churn_dedup (little)"),
    LayerMetric("clock.self_us_per_op", "us", "lower",
                "ops_per_s on read_hot", "burst_rpc (clock never advances)"),
    LayerMetric("obs.self_us_per_op", "us", "lower",
                "ops_per_s, call_p50_us on read_hot (heat on)"),
    LayerMetric("obs.metric_updates_per_op", "count", "lower",
                "ops_per_s, call_p50_us on read_hot"),
    LayerMetric("obs.heat_us_per_op", "us", "lower",
                "ops_per_s, call_p50_us on read_hot",
                "churn_dedup, burst_rpc (stays ~0: heat off)"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "untraced / traced ops_per_s: cost of this tracer"),
    LayerMetric("trace.coverage", "ratio", "higher",
                "share of the traced timed phase's wall inside spans"),
]

WORKLOADS: Dict[str, Dict[str, str]] = {
    "read_hot": {
        "why": "cache hits, so fixed per-op costs (instrumentation, envelope, "
               "rule dispatch) dominate; the only workload with heat tracking "
               "and placement cycles on",
        "facade": "TieraServer (direct)",
        "template": "memcached_ebs_instance(mem=100M, ebs=100M), write-through "
                    "Memcached+EBS (paper 4.1.1)",
        "records": "10,000 x 4 KiB, all fit in Memcached",
        "features": "configure('heat', top_k=64, hot_min=2); "
                    "configure('placement', objective='balanced', interval=1.0), "
                    "after the load",
        "traffic": "4 virtual closed-loop clients, YCSB zipfian theta=0.99 "
                   "(scrambled), 95% get / 5% update",
        "ops": "5,000 x --seconds",
        "seed": "--seed draws keys, mix and payloads (random.Random(seed)); "
                "Cluster(seed=seed) draws modelled latencies",
    },
    "churn_dedup": {
        "why": "write-heavy namespace larger than the cache: metadata table, "
               "dedup aliasing, persist_meta->kvstore and eviction; heat and "
               "placement off",
        "facade": "TieraServer (direct)",
        "template": "dedup_instance(mem=16M): storeOnce into S3, Memcached "
                    "cache with DROP eviction, promote on miss (Fig 12)",
        "records": "20,000 x 4 KiB; Memcached holds ~20%; set-up GETs a "
                   "seeded half of the keys so the cache is full and evicting",
        "features": "none (heat and placement off)",
        "traffic": "4 virtual closed-loop clients, uniform over live keys; "
                   "35% overwrite, 20% insert-new, 20% delete, 25% get; 30% "
                   "of written payloads from a pool of 256 contents",
        "ops": "1,300 x --seconds",
        "seed": "as read_hot",
    },
    "burst_rpc": {
        "why": "the only workload through RPC framing/JSON and ring routing, "
               "and the one where simcloud.resources backlog scheduling "
               "dominates",
        "facade": "TieraClient -> TieraRpcServer(pool_size=1) over loopback "
                  "-> ShardedTieraServer",
        "template": "4 shards of memcached_ebs_instance(mem=16M, ebs=64M)",
        "records": "4,000 x 1 KiB preloaded by put_many in chunks of 128 "
                   "(the router's admission limit)",
        "features": "none",
        "traffic": "one client thread, 32-op execute_batch calls, 50% put over "
                   "existing keys / 50% get, uniform; the SimClock is never "
                   "advanced, so the backlog grows through the run",
        "ops": "2,400 x --seconds (24,000 at 10 s); per-op cost grows with "
               "the backlog, so the op count is part of the definition",
        "seed": "as read_hot",
    },
}

#: Failure kinds the baseline is known to produce, per workload.  They
#: are counted in ``failed`` / ``failed_frac``; any other kind makes the
#: run report ``correct: false``.
KNOWN_DEFECTS: Dict[str, Dict[str, str]] = {
    "churn_dedup": {
        "stale-read":
            "dedup_instance: overwriting an object whose bytes are cached in "
            "Memcached writes the new bytes to S3 only, and the next GET "
            "serves the old bytes from tier1 (memcached_s3_instance does not "
            "do this).  Reproduce: put_object('k', v1); get_object('k') "
            "twice; put_object('k', v2); get_object('k') returns v1.",
        "put-CAPACITY_EXCEEDED":
            "dedup_instance: when a cached canonical object with aliases is "
            "overwritten, TieraInstance._handoff_to_heir copies its bytes to "
            "the heir with Tier.put, which does not make room, so a full "
            "Memcached tier refuses the copy and the PUT fails.  Reproduce "
            "with dedup_instance(mem='8K') and 4 KiB values: put a=x, b=x "
            "(b aliases a); get a; put c=y; get c (tier1 full); put a=z "
            "returns CAPACITY_EXCEEDED.",
        "delete-CAPACITY_EXCEEDED":
            "as put-CAPACITY_EXCEEDED, through delete_object's heir handoff.",
        "get-NO_SUCH_OBJECT-other-key":
            "dedup_instance: overwriting a key with content another key "
            "already holds makes it an alias (alias_object) but leaves its "
            "old bytes and locations in place; deleting it then orphans "
            "those bytes in Memcached, and once the orphan is the LRU victim "
            "every promotion that needs room fails with 'no object <orphan>'. "
            "Reproduce with dedup_instance(mem='4K') and 4 KiB values: put "
            "a=x, b=y; get b; put b=x; delete b; put c=z; get c fails "
            "NO_SUCH_OBJECT naming 'b'.",
        "get-NO_CAPACITY":
            "same root cause: overwriting that alias again detaches it "
            "(_detach_alias clears its locations) without deleting the old "
            "bytes, so Memcached keeps an unrecorded copy; _make_room will "
            "not drop a victim whose metadata lists one location, so once it "
            "is the LRU victim every promotion that needs room fails.  "
            "Reproduce with dedup_instance(mem='4K'): put a=x, b=y; get b; "
            "put b=x; put b=z; put c=w; get c fails NO_CAPACITY.",
    },
}
