"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's prototype is operated:

* ``validate <spec-file>`` — parse and compile an instance
  specification, report its tiers and rules (the compile check the
  prototype lacked).
* ``serve <spec-file> [--port P] [--arg name=value ...]`` — compile the
  spec against a wall-clock simulated cloud and serve it over the RPC
  protocol, like the prototype's Thrift server on an EC2 instance.
* ``cost <spec-file>`` — price the specified configuration per month.
* ``stats --port P [--host H] [--format json|prometheus|summary]`` —
  query a running server's observability snapshot over RPC (the STATS
  verb): metric registry, audit-log tail, health summary.
* ``chaos [--scenario S] [--seed N] [--baseline] ...`` — run one
  deterministic fault-injection scenario against a canned deployment
  and print the JSON report.  Same seed ⇒ byte-identical output: the
  CI chaos job diffs two runs of this command.
* ``fsck --port P [--repair]`` — run the metadata/tier cross-check
  scrub on a running server over RPC; ``--repair`` fixes findings.
* ``snapshot --port P --out FILE`` / ``restore --port P FILE`` —
  barman-style full backup and restore of a running instance's state.
* ``backup <snapshot|restore|prune|verify|list> --port P ...`` — the
  backup lifecycle against a server started with ``--backup-root``:
  incremental snapshots, point-in-time restore (``--to-seq`` /
  ``--to-time``), retention pruning, and recovery verification.
* ``heat --port P [--enable] [--format text|json]`` — the workload
  heat tracker's snapshot over RPC: hot-key bars from the Space-Saving
  sketch, per-tier occupancy gauges, and the occupancy timeline.
  ``--enable`` turns the tracker on first through ``configure("heat")``
  (``--top-k``, ``--hot-min``, ``--window``, ``--sample-interval``,
  ``--max-objects`` configure it); a refused option prints
  ``error [BAD_CONFIG]: …`` and exits 1.
* ``placement <status|plan|run> --port P [--enable] [--objective O]
  [--interval N] [--format text|json]`` — the adaptive placement
  engine over RPC: engine status, the scored promote/demote/pre-warm
  plan without moving data, or one executed cycle.  ``--enable``
  configures it on first through the management API.
* ``crashsweep [--deployment D] [--seed N] ...`` — offline: crash a
  scripted workload at every registered crash point, reopen, verify
  recovery invariants, print the JSON report (byte-identical across
  same-seed runs; the CI crash-matrix job diffs two runs).
* ``profile [--scenario S] [--cprofile] [--format text|json]`` — run a
  telemetry scenario under the scoped profiler and print the combined
  wall-clock / virtual-time breakdown; with ``--port`` it fetches a
  running server's live profile over RPC instead.
* ``bench [--name S ...] [--out DIR]`` — run the telemetry scenarios
  and write one ``BENCH_<name>.json`` record each.
* ``benchdiff --current DIR [--baseline DIR] [--tolerance F]`` —
  compare fresh records against the committed baselines; exits nonzero
  on a throughput regression beyond the tolerance (the CI
  perf-telemetry job's gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.core.server import TieraServer
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.spec import SpecSyntaxError, compile_spec, parse
from repro.tiers.registry import TierRegistry


def _parse_args_option(pairs: List[str]) -> Dict[str, object]:
    """--arg t=30 --arg cap=40960 → {"t": 30.0, "cap": 40960.0}."""
    out: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --arg {pair!r}: expected name=value")
        name, _, raw = pair.partition("=")
        try:
            out[name] = float(raw) if "." in raw else int(raw)
        except ValueError:
            out[name] = raw
    return out


def _compile_file(path: str, args: Dict[str, object], wall: bool = False):
    with open(path) as handle:
        source = handle.read()
    clock = WallClock() if wall else None
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    instance = compile_spec(source, registry, args=args)
    return cluster, instance


def cmd_validate(options) -> int:
    try:
        spec = parse(open(options.spec).read())
    except SpecSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    print(f"instance {spec.name}")
    if spec.params:
        print("  parameters:", ", ".join(
            f"{p.type_name or ''} {p.name}".strip() for p in spec.params
        ))
    for tier in spec.tiers:
        size = tier.size if tier.size is not None else "unbounded"
        print(f"  tier {tier.tier_name}: {tier.product}, size={size}")
    print(f"  events: {len(spec.events)}")
    if not spec.params:
        # A fully-ground spec can be compile-checked too.
        try:
            _compile_file(options.spec, {})
        except Exception as exc:  # pragma: no cover - message path
            print(f"compile error: {exc}", file=sys.stderr)
            return 1
        print("  compiles cleanly")
    return 0


def cmd_cost(options) -> int:
    args = _parse_args_option(options.arg)
    try:
        _, instance = _compile_file(options.spec, args)
    except (SpecSyntaxError, Exception) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{instance.name}: ${instance.monthly_cost():.2f}/month "
          f"(${instance.cost_per_gb_month():.2f}/GB-month)")
    for tier in instance.tiers:
        cap = tier.capacity if tier.capacity is not None else 0
        marginal = 0.0 if tier.colocated else (
            instance.price_book.monthly_storage_cost(tier.kind, cap)
        )
        print(f"  {tier.name} ({tier.kind}): ${marginal:.2f}")
    return 0


def cmd_serve(options) -> int:
    from repro.rpc import TieraRpcServer

    args = _parse_args_option(options.arg)
    try:
        cluster, instance = _compile_file(options.spec, args, wall=True)
    except (SpecSyntaxError, Exception) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(options, "backup_root", None):
        instance.enable_backups(options.backup_root)
    server = TieraRpcServer(
        TieraServer(instance), host=options.host, port=options.port
    ).start()
    print(f"{instance.name} serving on {server.host}:{server.port} "
          f"(tiers: {', '.join(instance.tiers.names())})")
    print("press Ctrl-C to stop")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        instance.shutdown()
        cluster.clock.shutdown()
        print("stopped")
    return 0


def cmd_stats(options) -> int:
    from repro.rpc import TieraClient

    try:
        client = TieraClient(options.host, options.port)
    except OSError as exc:
        print(f"cannot connect to {options.host}:{options.port}: {exc}",
              file=sys.stderr)
        return 1
    with client:
        if options.format == "prometheus":
            print(client.stats(format="prometheus"), end="")
            return 0
        snapshot = client.stats()
        if options.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        # summary: the headline numbers a human wants at a glance.
        health = client.health()
        print(f"instance {health['instance']} — status {health['status']} "
              f"at t={health['time']:.1f}s, {health['objects']} objects")
        for tier in health["tiers"]:
            cap = "∞" if tier["capacity"] is None else str(tier["capacity"])
            state = "up" if tier["available"] else "DOWN"
            extra = ""
            if tier.get("breaker") is not None:
                extra = f", breaker {tier['breaker']}"
                if tier.get("pending_repairs"):
                    extra += f", {tier['pending_repairs']} repairs queued"
            print(f"  tier {tier['name']} ({tier['kind']}): "
                  f"{tier['used']}/{cap} bytes, {state}{extra}")
        resilience = health.get("resilience")
        if resilience:
            print(f"  resilience: {resilience['retries']} retries, "
                  f"{resilience['degraded_writes']} degraded writes, "
                  f"{resilience['replays']} repairs replayed "
                  f"({resilience['repair_queue']['pending']} pending)")
        fired = health["rules_fired"]
        if fired:
            print("  rules fired:", ", ".join(
                f"{name}×{count}" for name, count in sorted(fired.items())
            ))
        _print_latency_summary(snapshot)
        slo = snapshot.get("slo") or health.get("slo")
        if slo:
            for objective in slo["objectives"]:
                flag = "ALERTING" if objective["alerting"] else (
                    "ok" if objective["compliant"] else "breaching"
                )
                print(f"  slo {objective['name']}: {flag} "
                      f"(current {objective['current']}, "
                      f"burn {objective['burn_rate']:.2f}x)")
        _print_heat_summary(health.get("heat"))
        _print_backup_summary(health.get("backup"))
        print(f"  background errors: {health['background_errors']} "
              f"(audit: {health['audit_errors']})")
        audit = snapshot.get("audit", {})
        for record in audit.get("tail", [])[-5:]:
            error = f" ERROR {record['error']}" if record.get("error") else ""
            print(f"  [{record['time']:.3f}] {record['category']} "
                  f"{record['name']} ({record['origin']}){error}")
    return 0


def _print_heat_summary(heat: Optional[Dict[str, object]]) -> None:
    """Workload-heat headline lines for the stats summary.

    The output shape is pinned by tests/core/test_cli.py — a ``heat:``
    line and, when the hot set is non-empty, a ``hot keys:`` line.
    """
    if not heat:
        return
    print(f"  heat: {heat['accesses']} accesses "
          f"({heat['read_fraction'] * 100:.0f}% reads), "
          f"{heat['tracked']} objects tracked, "
          f"skew {heat['skew']:.2f}, churn {heat['churn']:.2f}")
    hot = heat.get("hot_keys") or []
    if hot:
        print(f"  hot keys ({len(hot)}): {', '.join(hot)}")


def _print_backup_summary(backup: Optional[Dict[str, object]]) -> None:
    """Backup-chain status lines for the stats summary.

    The output shape is pinned by tests/core/test_cli.py — a ``backup:``
    chain line and a ``last verified restore:`` line.
    """
    if not backup:
        return
    last = backup.get("last_snapshot")
    wal = backup["wal"]
    chain = (f"{backup['snapshots']} snapshots "
             f"({backup['full']} full, {backup['incremental']} incremental)")
    tail = ""
    if last is not None:
        tail = (f", last {last['kind']} #{last['id']} "
                f"at t={last['created_at']:.1f}s")
    print(f"  backup: {chain}, wal {wal['records']} records "
          f"through seq {wal['last_seq']}{tail}")
    verified = backup.get("last_verified_restore")
    if verified is None:
        print("  last verified restore: never")
    else:
        flag = "ok" if verified.get("ok") else "FAILED"
        print(f"  last verified restore: t={verified['time']:.1f}s {flag} "
              f"(snapshot {verified.get('snapshot')}, "
              f"{verified.get('replayed', 0)} wal records replayed)")


def _print_latency_summary(snapshot: Dict[str, object]) -> None:
    """Per-op latency percentiles from the request histogram's samples.

    The output shape is pinned by tests/core/test_cli.py — one line per
    op family: ``latency <op>: p50 X ms, p95 Y ms, p99 Z ms (N ops)``.
    """
    family = snapshot.get("metrics", {}).get("tiera_request_seconds")
    if not family:
        return
    for key in sorted(family.get("samples", {})):
        sample = family["samples"][key]
        if not sample.get("count"):
            continue
        op = dict(
            part.split("=", 1) for part in key.split(",") if "=" in part
        ).get("op", key or "all")
        print(f"  latency {op}: "
              f"p50 {sample['p50'] * 1000:.2f} ms, "
              f"p95 {sample['p95'] * 1000:.2f} ms, "
              f"p99 {sample['p99'] * 1000:.2f} ms "
              f"({sample['count']} ops)")


def cmd_profile(options) -> int:
    from repro.bench.telemetry import profile_scenario, render_profile

    if options.port is not None:
        envelope = _manage(options, "profile", "status", reset=options.reset)
        if envelope is None:
            return 1
        report = envelope.state
    else:
        try:
            report = profile_scenario(
                options.scenario, cprofile=options.cprofile
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if options.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_profile(report))
    return 0


def cmd_bench(options) -> int:
    from repro.bench.telemetry import SCENARIOS, run_scenario, write_record

    names = options.name or sorted(SCENARIOS)
    for name in names:
        try:
            record = run_scenario(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = write_record(record, options.out)
        print(f"{name}: {record['operations']} ops, "
              f"{record['throughput']:.1f} ops/s, "
              f"p95 {record['latency']['p95'] * 1000:.2f} ms, "
              f"wall {record['wall_seconds']:.2f}s -> {path}")
    return 0


def cmd_benchdiff(options) -> int:
    from repro.bench.telemetry import diff_directories

    try:
        ok, lines = diff_directories(
            options.baseline, options.current,
            tolerance=options.tolerance, names=options.name or None,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if not ok:
        print("benchdiff: FAIL", file=sys.stderr)
        return 1
    print("benchdiff: ok")
    return 0


def cmd_chaos(options) -> int:
    from repro.bench.chaos import DEPLOYMENTS, run_chaos
    from repro.simcloud.faults import SCENARIOS

    if options.list:
        for name in sorted(SCENARIOS):
            events = SCENARIOS[name].describe()["events"]
            shapes = ", ".join(e["profile"]["name"] for e in events)
            print(f"{name}: {shapes}")
        print("deployments:", ", ".join(DEPLOYMENTS))
        return 0
    try:
        report = run_chaos(
            scenario=options.scenario,
            deployment=options.deployment,
            seed=options.seed,
            resilient=not options.baseline,
            duration=options.duration,
            clients=options.clients,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _connect(options):
    from repro.rpc import TieraClient

    try:
        return TieraClient(options.host, options.port)
    except OSError as exc:
        print(f"cannot connect to {options.host}:{options.port}: {exc}",
              file=sys.stderr)
        return None


def _manage(options, feature: str, action: str, config=None, **params):
    """Over RPC: ``configure(feature, **config)`` first when ``config``
    is given, then ``invoke(feature, action, **params)``.  Returns the
    envelope, or None after printing why not (no connection, or a
    refusal as ``error [CODE]: message``)."""
    client = _connect(options)
    if client is None:
        return None
    with client:
        envelope = None
        if config is not None:
            envelope = client.configure(feature, **config)
        if envelope is None or envelope.ok:
            envelope = client.invoke(feature, action, **params)
    if not envelope.ok:
        print(f"error [{envelope.error}]: {envelope.error_message}",
              file=sys.stderr)
        return None
    return envelope


def _document(envelope) -> Dict[str, object]:
    """An envelope as one JSON document: its state plus ``enabled``."""
    return {"enabled": envelope.enabled, **envelope.state}


def cmd_fsck(options) -> int:
    envelope = _manage(options, "durability", "fsck", repair=options.repair)
    if envelope is None:
        return 1
    report = envelope.state
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["clean"] else 1


def cmd_snapshot(options) -> int:
    client = _connect(options)
    if client is None:
        return 1
    with client:
        result = client.snapshot(include_volatile=options.include_volatile)
    with open(options.out, "wb") as handle:
        handle.write(result["archive"])
    manifest = result["manifest"]
    print(f"snapshot of {manifest['instance']}: {manifest['objects']} objects, "
          f"{len(result['archive'])} bytes -> {options.out}")
    print(f"  state digest {manifest['state_digest']}")
    return 0


def cmd_restore(options) -> int:
    client = _connect(options)
    if client is None:
        return 1
    with open(options.archive, "rb") as handle:
        blob = handle.read()
    from repro.rpc import RpcError

    with client:
        try:
            result = client.restore(blob)
        except RpcError as exc:
            print(f"restore failed: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result.get("verified") else 1


def cmd_backup(options) -> int:
    action = options.backup_action
    params: Dict[str, object] = {}
    if action == "snapshot":
        params["kind"] = options.kind
        if options.immutable:
            params["immutable"] = True
    elif action == "restore":
        if options.to_seq is not None:
            params["to_seq"] = options.to_seq
        if options.to_time is not None:
            params["to_time"] = options.to_time
        if options.snapshot_id is not None:
            params["snapshot_id"] = options.snapshot_id
    elif action == "prune":
        if options.keep_last is not None:
            params["keep_last"] = options.keep_last
        if options.keep_window is not None:
            params["keep_window"] = options.keep_window
    envelope = _manage(options, "backup", action, **params)
    if envelope is None:
        return 1
    if not envelope.enabled:
        print("backups are not enabled on this server "
              "(serve with --backup-root)", file=sys.stderr)
        return 1
    result = envelope.state
    if action == "list":
        for entry in result["snapshots"]:
            flags = "".join(
                flag for flag, on in (
                    (" immutable", entry.get("immutable")),
                    (" retired", entry.get("retired")),
                ) if on
            )
            parent = (f" parent #{entry['parent']}"
                      if entry.get("parent") is not None else "")
            print(f"#{entry['id']} {entry['kind']}: "
                  f"{entry['objects']} objects, {entry['bytes']} bytes, "
                  f"seq {entry['base_seq']}..{entry['upto_seq']}"
                  f"{parent}{flags}")
        return 0
    payload = result.get(action) or result.get("snapshot") or result
    print(json.dumps(payload, indent=2, sort_keys=True))
    if action == "verify":
        return 0 if payload.get("ok") else 1
    return 0


def cmd_heat(options) -> int:
    from repro.obs.heat import render_report

    config: Dict[str, object] = {}
    if options.top_k is not None:
        config["top_k"] = options.top_k
    if options.hot_min is not None:
        config["hot_min"] = options.hot_min
    if options.window:
        config["windows"] = options.window
    if options.sample_interval is not None:
        config["sample_interval"] = options.sample_interval
    if options.max_objects is not None:
        config["max_objects"] = options.max_objects
    if config and not options.enable:
        print("configuration flags need --enable", file=sys.stderr)
        return 1
    envelope = _manage(
        options, "heat", "summary", config if options.enable else None,
        limit=options.limit,
    )
    if envelope is None:
        return 1
    summary = _document(envelope)
    if options.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_report(summary))
    return 0 if summary.get("enabled") else 1


def cmd_placement(options) -> int:
    config: Dict[str, object] = {}
    if options.objective is not None:
        config["objective"] = options.objective
    if options.interval is not None:
        config["interval"] = options.interval
    if config and not options.enable:
        print("configuration flags need --enable", file=sys.stderr)
        return 1
    envelope = _manage(
        options, "placement", options.placement_action,
        config if options.enable else None,
    )
    if envelope is None:
        return 1
    result = _document(envelope)
    if options.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    elif options.placement_action == "status":
        _print_placement_status(result)
    else:
        _print_placement_plan(result)
    return 0 if result.get("enabled") else 1


def _print_placement_status(status: Dict[str, object]) -> None:
    if not status.get("enabled"):
        print("placement: disabled (repro placement --enable, or "
              'configure("placement", ...))')
        return
    print(f"placement: objective={status['objective']} "
          f"interval={status['interval']}s "
          f"hysteresis={status['hysteresis']}s "
          f"{'running' if status['running'] else 'rule-driven'}")
    print(f"  cycles {status['cycles']}, moves {status['moves']}, "
          f"{status['bytes_moved']} bytes moved")
    last = status.get("last_cycle")
    if last:
        print(f"  last cycle @{last['time']}: {last['applied']}/"
              f"{last['decisions']} decisions applied "
              f"({last['origin']}), {last['skipped']} skipped")


def _print_placement_plan(plan: Dict[str, object]) -> None:
    if not plan.get("enabled"):
        print("placement: disabled")
        return
    print(f"plan @{plan['time']} objective={plan['objective']} "
          f"tiers {' > '.join(plan['tier_order'])}")
    decisions = plan.get("decisions") or []
    if not decisions:
        print("  no moves scored above threshold")
    for d in decisions:
        applied = ""
        if "applied" in d:
            applied = " [applied]" if d["applied"] else " [failed]"
        print(f"  {d['action']:8s} {d['key']:<24s} "
              f"{d['from']} -> {d['to']}  "
              f"heat={d['heat']:.4f} score={d['score']:.3f} "
              f"({d['reason']}){applied}")
    skipped = plan.get("skipped") or []
    if skipped:
        reasons: Dict[str, int] = {}
        for s in skipped:
            reasons[s["reason"]] = reasons.get(s["reason"], 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        print(f"  skipped {len(skipped)} ({summary})")


def cmd_crashsweep(options) -> int:
    from repro.bench.crashsweep import run_crash_sweep

    try:
        report = run_crash_sweep(
            deployment=options.deployment,
            seed=options.seed,
            max_points=options.max_points,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["summary"]["clean"] else 1


def cmd_cluster(options) -> int:
    action = options.cluster_action
    if action in ("failover", "migrate-crash"):
        from repro.bench.failover import run_failover, run_migration_crash

        if action == "failover":
            report = run_failover(
                seed=options.seed,
                records=options.records,
                duration=options.duration,
                clients=options.clients,
            )
            print(json.dumps(report, indent=2, sort_keys=True))
            ok = (
                not report["acked_write_loss"]
                and not report["hints"]["pending"]
                and not report["anti_entropy"]["final_divergent"]
                and report["fsck"]["clean"]
            )
            return 0 if ok else 1
        report = run_migration_crash(seed=options.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["clean"] else 1

    # Live actions go over RPC to a serving shard router.
    if options.port is None:
        print(f"cluster {action} needs --port (a running `repro serve`)",
              file=sys.stderr)
        return 1
    params: Dict[str, object] = {}
    if action == "fsck" and options.repair:
        params["repair"] = True
    if action == "replay" and options.target is not None:
        params["target"] = options.target
    envelope = _manage(options, "cluster", action.replace("-", "_"), **params)
    if envelope is None:
        return 1
    result = _document(envelope)
    print(json.dumps(result, indent=2, sort_keys=True))
    if not result.get("enabled"):
        print("server is not a replicated shard cluster", file=sys.stderr)
        return 1
    if action == "fsck":
        return 0 if result["fsck"]["clean"] else 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tiera middleware (Middleware 2014 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="parse/compile-check a spec")
    validate.add_argument("spec")
    validate.set_defaults(func=cmd_validate)

    cost = commands.add_parser("cost", help="price a specification per month")
    cost.add_argument("spec")
    cost.add_argument("--arg", action="append", default=[])
    cost.set_defaults(func=cmd_cost)

    serve = commands.add_parser("serve", help="serve an instance over RPC")
    serve.add_argument("spec")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--arg", action="append", default=[])
    serve.add_argument(
        "--backup-root", default=None,
        help="attach a backup store (snapshots + archived WAL) at this "
             "directory",
    )
    serve.set_defaults(func=cmd_serve)

    stats = commands.add_parser(
        "stats", help="query a running server's observability snapshot"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True)
    stats.add_argument(
        "--format", choices=("summary", "json", "prometheus"), default="summary"
    )
    stats.set_defaults(func=cmd_stats)

    profile = commands.add_parser(
        "profile",
        help="profile a benchmark scenario (or a running server's window)",
    )
    profile.add_argument(
        "--scenario", default="fig07",
        help="telemetry scenario to profile locally (fig07, fig13, "
             "batch_scaling, heat_telemetry)",
    )
    profile.add_argument(
        "--cprofile", action="store_true",
        help="also capture function-level detail via cProfile",
    )
    profile.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    profile.add_argument("--host", default="127.0.0.1")
    profile.add_argument(
        "--port", type=int, default=None,
        help="query a running server's profile over RPC instead",
    )
    profile.add_argument(
        "--reset", action="store_true",
        help="with --port: clear the server's profile window after reading",
    )
    profile.set_defaults(func=cmd_profile)

    bench = commands.add_parser(
        "bench", help="run telemetry benchmark scenarios, write BENCH_*.json"
    )
    bench.add_argument(
        "--name", action="append", default=[],
        help="scenario to run (repeatable; default: all)",
    )
    bench.add_argument(
        "--out", default="benchmarks/telemetry",
        help="directory for BENCH_<name>.json records",
    )
    bench.set_defaults(func=cmd_bench)

    benchdiff = commands.add_parser(
        "benchdiff",
        help="diff BENCH_*.json records against committed baselines",
    )
    benchdiff.add_argument(
        "--baseline", default="benchmarks/baselines",
        help="directory holding the committed baseline records",
    )
    benchdiff.add_argument(
        "--current", required=True,
        help="directory holding the fresh records to check",
    )
    benchdiff.add_argument(
        "--tolerance", type=float, default=0.15,
        help="relative throughput drop that fails the gate (default 0.15)",
    )
    benchdiff.add_argument(
        "--name", action="append", default=[],
        help="only diff these scenarios (repeatable)",
    )
    benchdiff.set_defaults(func=cmd_benchdiff)

    chaos = commands.add_parser(
        "chaos", help="run a deterministic fault-injection scenario"
    )
    chaos.add_argument("--scenario", default="transient-errors")
    chaos.add_argument("--deployment", default="write-through")
    chaos.add_argument("--seed", type=int, default=2014)
    chaos.add_argument("--duration", type=float, default=120.0)
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument(
        "--baseline", action="store_true",
        help="run without the resilience layer",
    )
    chaos.add_argument(
        "--list", action="store_true",
        help="list known scenarios and deployments",
    )
    chaos.set_defaults(func=cmd_chaos)

    fsck = commands.add_parser(
        "fsck", help="scrub a running server's metadata vs tier contents"
    )
    fsck.add_argument("--host", default="127.0.0.1")
    fsck.add_argument("--port", type=int, required=True)
    fsck.add_argument(
        "--repair", action="store_true", help="fix findings, not just report"
    )
    fsck.set_defaults(func=cmd_fsck)

    snapshot = commands.add_parser(
        "snapshot", help="pull a full snapshot of a running instance"
    )
    snapshot.add_argument("--host", default="127.0.0.1")
    snapshot.add_argument("--port", type=int, required=True)
    snapshot.add_argument("--out", required=True, help="archive file to write")
    snapshot.add_argument(
        "--include-volatile", action="store_true",
        help="also archive volatile (memcached) tier contents",
    )
    snapshot.set_defaults(func=cmd_snapshot)

    restore = commands.add_parser(
        "restore", help="restore a running instance from a snapshot archive"
    )
    restore.add_argument("archive", help="archive file written by snapshot")
    restore.add_argument("--host", default="127.0.0.1")
    restore.add_argument("--port", type=int, required=True)
    restore.set_defaults(func=cmd_restore)

    backup = commands.add_parser(
        "backup", help="backup lifecycle of a running instance"
    )
    backup_actions = backup.add_subparsers(
        dest="backup_action", required=True
    )

    def _backup_common(sub):
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--port", type=int, required=True)
        sub.set_defaults(func=cmd_backup)
        return sub

    bsnap = _backup_common(backup_actions.add_parser(
        "snapshot", help="take a full or incremental snapshot"
    ))
    bsnap.add_argument(
        "--kind", choices=("auto", "full", "incremental"), default="auto"
    )
    bsnap.add_argument(
        "--immutable", action="store_true",
        help="protect this snapshot from retention pruning",
    )
    brestore = _backup_common(backup_actions.add_parser(
        "restore", help="point-in-time restore from the backup store"
    ))
    brestore.add_argument(
        "--to-seq", type=int, default=None,
        help="replay the archived journal up to this sequence number",
    )
    brestore.add_argument(
        "--to-time", type=float, default=None,
        help="restore to the latest archived state at/before this "
             "virtual time",
    )
    brestore.add_argument(
        "--snapshot-id", type=int, default=None,
        help="restore exactly this snapshot (no journal replay)",
    )
    bprune = _backup_common(backup_actions.add_parser(
        "prune", help="apply retention policy to the snapshot catalog"
    ))
    bprune.add_argument(
        "--keep-last", type=int, default=None,
        help="keep the N newest snapshots",
    )
    bprune.add_argument(
        "--keep-window", type=float, default=None,
        help="keep snapshots from the last W virtual seconds",
    )
    _backup_common(backup_actions.add_parser(
        "verify", help="restore the latest chain into a scratch "
                       "instance and check it"
    ))
    _backup_common(backup_actions.add_parser(
        "list", help="list the snapshot catalog"
    ))

    heat = commands.add_parser(
        "heat",
        help="workload heat: hot keys, tier occupancy, access skew",
    )
    heat.add_argument("--host", default="127.0.0.1")
    heat.add_argument("--port", type=int, required=True)
    heat.add_argument(
        "--enable", action="store_true",
        help="turn the tracker on first (it starts disabled)",
    )
    heat.add_argument(
        "--top-k", type=int, default=None,
        help="Space-Saving sketch capacity (hot-set size bound)",
    )
    heat.add_argument(
        "--hot-min", type=int, default=None,
        help="guaranteed count before a key counts as hot",
    )
    heat.add_argument(
        "--window", type=float, action="append", default=[],
        help="EWMA decay window in seconds (repeatable)",
    )
    heat.add_argument(
        "--sample-interval", type=float, default=None,
        help="virtual seconds between occupancy samples",
    )
    heat.add_argument(
        "--max-objects", type=int, default=None,
        help="per-object stat table cap (LRU beyond this)",
    )
    heat.add_argument(
        "--limit", type=int, default=None,
        help="cap the hot list in the snapshot",
    )
    heat.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    heat.set_defaults(func=cmd_heat)

    placement = commands.add_parser(
        "placement",
        help="adaptive placement: inspect the plan, status, or run a cycle",
    )
    placement.add_argument(
        "placement_action", nargs="?", default="status",
        choices=("status", "plan", "run"),
        help="status (engine state), plan (score candidates without "
             "moving), run (execute one cycle now)",
    )
    placement.add_argument("--host", default="127.0.0.1")
    placement.add_argument("--port", type=int, required=True)
    placement.add_argument(
        "--enable", action="store_true",
        help="configure the engine on first (it starts disabled)",
    )
    placement.add_argument(
        "--objective", choices=("balanced", "latency", "cost"), default=None,
        help="cost-vs-latency weighting preset",
    )
    placement.add_argument(
        "--interval", type=float, default=None,
        help="virtual seconds between placement cycles",
    )
    placement.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    placement.set_defaults(func=cmd_placement)

    crashsweep = commands.add_parser(
        "crashsweep",
        help="crash at every boundary of a scripted workload and verify recovery",
    )
    crashsweep.add_argument("--deployment", default="write-through")
    crashsweep.add_argument("--seed", type=int, default=2014)
    crashsweep.add_argument(
        "--max-points", type=int, default=None,
        help="sweep only the first N crash points",
    )
    crashsweep.set_defaults(func=cmd_crashsweep)

    cluster = commands.add_parser(
        "cluster",
        help="replicated shard cluster: offline failover/migration drills "
             "or live status over RPC",
    )
    cluster.add_argument(
        "cluster_action", nargs="?", default="failover",
        choices=("failover", "migrate-crash", "status", "fsck", "replay",
                 "anti-entropy"),
        help="failover/migrate-crash run offline simulations; "
             "status/fsck/replay/anti-entropy talk to a running router",
    )
    cluster.add_argument("--seed", type=int, default=2014)
    cluster.add_argument("--records", type=int, default=24)
    cluster.add_argument("--duration", type=float, default=150.0)
    cluster.add_argument("--clients", type=int, default=3)
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=None,
        help="RPC port of a running shard router (live actions only)",
    )
    cluster.add_argument(
        "--repair", action="store_true",
        help="with fsck: fix findings, not just report",
    )
    cluster.add_argument(
        "--target", default=None,
        help="with replay: drain hints for this shard only",
    )
    cluster.set_defaults(func=cmd_cluster)

    options = parser.parse_args(argv)
    try:
        return options.func(options)
    except BrokenPipeError:
        # Output was piped into e.g. `head`, which closed early — the
        # Unix-normal case, not an error.  Detach stdout so the
        # interpreter's shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
