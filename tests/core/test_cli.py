"""The repro CLI: validate / cost / stats / profile / bench commands
(serve itself is covered via the rpc tests)."""

import json
import re

import pytest

from repro.cli import main

SPEC = """
Tiera Demo() {
    tier1: { name: Memcached, size: 1G };
    tier2: { name: EBS, size: 2G };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"""

PARAMETRIC = """
Tiera Timed(time t) {
    tier1: { name: Memcached, size: 1G };
    event(time=t) : response {
        copy(what: object.location == tier1, to: tier1);
    }
}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "demo.tiera"
    path.write_text(SPEC)
    return str(path)


class TestValidate:
    def test_valid_spec(self, spec_file, capsys):
        assert main(["validate", spec_file]) == 0
        out = capsys.readouterr().out
        assert "instance Demo" in out
        assert "tier tier1: Memcached" in out
        assert "compiles cleanly" in out

    def test_parametric_spec_lists_params(self, tmp_path, capsys):
        path = tmp_path / "p.tiera"
        path.write_text(PARAMETRIC)
        assert main(["validate", str(path)]) == 0
        assert "time t" in capsys.readouterr().out

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tiera"
        path.write_text("Tiera Broken { nope }")
        assert main(["validate", str(path)]) == 1
        assert "syntax error" in capsys.readouterr().err


class TestCost:
    def test_prices_configuration(self, spec_file, capsys):
        assert main(["cost", spec_file]) == 0
        out = capsys.readouterr().out
        assert "$35.20/month" in out  # 1G memcached + 2G EBS
        assert "tier1 (memcached): $35.00" in out

    def test_args_passed_through(self, tmp_path, capsys):
        path = tmp_path / "p.tiera"
        path.write_text(PARAMETRIC)
        assert main(["cost", str(path), "--arg", "t=30"]) == 0
        assert "$35.00/month" in capsys.readouterr().out

    def test_bad_arg_format(self, spec_file):
        with pytest.raises(SystemExit):
            main(["cost", spec_file, "--arg", "nonsense"])


@pytest.fixture
def live_rpc():
    """A served write-through instance for the stats/profile commands."""
    from repro.core.instance import TieraInstance
    from repro.core.events import ActionEvent
    from repro.core.policy import Policy, Rule
    from repro.core.responses import Store
    from repro.core.selectors import InsertObject
    from repro.core.server import TieraServer
    from repro.rpc import TieraClient, TieraRpcServer
    from repro.simcloud.clock import WallClock
    from repro.simcloud.cluster import Cluster
    from repro.tiers.registry import TierRegistry

    clock = WallClock()
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=64 * 1024 * 1024),
        registry.create("EBS", tier_name="tier2", size=64 * 1024 * 1024),
    ]
    instance = TieraInstance(
        name="cli-test",
        tiers=tiers,
        policy=Policy([
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), ("tier1", "tier2"))],
                name="write-through",
            )
        ]),
        clock=clock,
    )
    rpc = TieraRpcServer(TieraServer(instance), port=0).start()
    with TieraClient(rpc.host, rpc.port) as conn:
        for i in range(8):
            conn.put_object(f"k{i}", b"v" * 64).raise_for_error()
            conn.get_object(f"k{i}").raise_for_error()
    yield rpc
    rpc.stop()
    instance.shutdown()
    clock.shutdown()


class TestStatsSummary:
    """Pins the human-facing shape of ``repro stats --format summary``."""

    LATENCY_LINE = re.compile(
        r"^  latency (get|put): "
        r"p50 \d+\.\d{2} ms, p95 \d+\.\d{2} ms, p99 \d+\.\d{2} ms "
        r"\(\d+ ops\)$"
    )

    def test_latency_lines_per_op_family(self, live_rpc, capsys):
        assert main([
            "stats", "--port", str(live_rpc.port), "--format", "summary",
        ]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("  latency ")]
        assert {m.group(1) for m in map(self.LATENCY_LINE.match, lines) if m} \
            == {"get", "put"}
        assert all(self.LATENCY_LINE.match(ln) for ln in lines)

    def test_summary_headline_and_tiers(self, live_rpc, capsys):
        assert main([
            "stats", "--port", str(live_rpc.port), "--format", "summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "instance cli-test — status ok" in out
        assert "tier tier1 (memcached)" in out

    def test_slo_lines_appear_once_installed(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("slo", install_defaults=True).raise_for_error()
        assert main([
            "stats", "--port", str(live_rpc.port), "--format", "summary",
        ]) == 0
        out = capsys.readouterr().out
        slo_lines = [ln for ln in out.splitlines() if ln.startswith("  slo ")]
        assert len(slo_lines) == 4
        assert any("slo get_latency: ok" in ln for ln in slo_lines)

    def test_connection_refused_is_a_clean_error(self, capsys):
        assert main(["stats", "--port", "1", "--format", "summary"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestProfileCommand:
    def test_local_scenario_json(self, capsys):
        assert main([
            "profile", "--scenario", "batch_scaling", "--format", "json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "batch_scaling"
        assert report["coverage"] > 0.5
        assert {"build", "load", "drive"} <= {
            s["name"] for s in report["wall"]["sections"]
        }

    def test_local_scenario_text(self, capsys):
        assert main(["profile", "--scenario", "batch_scaling"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock (per code region)" in out
        assert "drive" in out

    def test_unknown_scenario(self, capsys):
        assert main(["profile", "--scenario", "fig99"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_live_server_profile(self, live_rpc, capsys):
        assert main([
            "profile", "--port", str(live_rpc.port), "--format", "json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["virtual"]["requests"]["put"]["count"] == 8


class TestBenchCommands:
    def test_bench_writes_record(self, tmp_path, capsys):
        out_dir = str(tmp_path / "telemetry")
        assert main([
            "bench", "--name", "batch_scaling", "--out", out_dir,
        ]) == 0
        line = capsys.readouterr().out
        assert "batch_scaling: 400 ops" in line
        record = json.load(open(f"{out_dir}/BENCH_batch_scaling.json"))
        assert record["name"] == "batch_scaling"

    def test_benchdiff_ok_and_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        for d in (baseline, current):
            d.mkdir()
        record = {
            "schema": 1, "name": "demo", "operations": 10,
            "throughput": 100.0,
            "latency": {"p50": 0.001, "p95": 0.002, "p99": 0.003},
            "wall_seconds": 1.0,
        }
        (baseline / "BENCH_demo.json").write_text(json.dumps(record))
        (current / "BENCH_demo.json").write_text(json.dumps(record))
        assert main([
            "benchdiff", "--baseline", str(baseline),
            "--current", str(current),
        ]) == 0
        assert "benchdiff: ok" in capsys.readouterr().out

        slower = dict(record, throughput=80.0)  # -20%: past the 15% gate
        (current / "BENCH_demo.json").write_text(json.dumps(slower))
        assert main([
            "benchdiff", "--baseline", str(baseline),
            "--current", str(current),
        ]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "benchdiff: FAIL" in captured.err

    def test_benchdiff_missing_baseline_dir(self, tmp_path, capsys):
        current = tmp_path / "current"
        current.mkdir()
        (current / "BENCH_demo.json").write_text(json.dumps({
            "schema": 1, "name": "demo", "operations": 1,
            "throughput": 1.0, "latency": {}, "wall_seconds": 1.0,
        }))
        assert main([
            "benchdiff", "--baseline", str(tmp_path / "nope"),
            "--current", str(current),
        ]) == 1
        assert "no committed baseline" in capsys.readouterr().out


class TestHeatSummary:
    """Pins the heat lines in ``repro stats --format summary``."""

    HEAT_LINE = re.compile(
        r"^  heat: \d+ accesses \(\d+% reads\), \d+ objects tracked, "
        r"skew \d+\.\d{2}, churn \d+\.\d{2}$"
    )
    HOT_LINE = re.compile(r"^  hot keys \(\d+\): \S.*$")

    def _summary(self, rpc, capsys):
        assert main([
            "stats", "--port", str(rpc.port), "--format", "summary",
        ]) == 0
        return capsys.readouterr().out

    def test_disabled_tracker_prints_no_heat_lines(self, live_rpc, capsys):
        out = self._summary(live_rpc, capsys)
        assert "heat:" not in out
        assert "hot keys" not in out

    def test_heat_line_shape(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("heat", hot_min=2).raise_for_error()
            for _ in range(4):
                conn.get_object("k0")
        out = self._summary(live_rpc, capsys)
        heat_lines = [ln for ln in out.splitlines()
                      if ln.startswith("  heat: ")]
        assert len(heat_lines) == 1
        assert self.HEAT_LINE.match(heat_lines[0]), heat_lines[0]
        hot_lines = [ln for ln in out.splitlines()
                     if ln.startswith("  hot keys ")]
        assert len(hot_lines) == 1
        assert self.HOT_LINE.match(hot_lines[0]), hot_lines[0]
        assert "k0" in hot_lines[0]


class TestHeatCommand:
    def test_disabled_tracker_reports_and_fails(self, live_rpc, capsys):
        assert main(["heat", "--port", str(live_rpc.port)]) == 1
        assert "not enabled" in capsys.readouterr().out

    def test_config_flags_require_enable(self, live_rpc, capsys):
        assert main([
            "heat", "--port", str(live_rpc.port), "--top-k", "8",
        ]) == 1
        assert "--enable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["heat", "--enable", "--top-k", "-1"],
        ["placement", "--enable", "--interval", "-1"],
    ])
    def test_refused_config_is_a_clean_error(self, live_rpc, capsys, argv):
        assert main(argv + ["--port", str(live_rpc.port)]) == 1
        assert "error [BAD_CONFIG]" in capsys.readouterr().err

    def test_enable_and_render_text_report(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        assert main([
            "heat", "--port", str(live_rpc.port), "--enable",
            "--hot-min", "2",
        ]) == 0
        capsys.readouterr()
        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            for _ in range(4):
                conn.get_object("k1")
        assert main(["heat", "--port", str(live_rpc.port)]) == 0
        out = capsys.readouterr().out
        assert "workload heat:" in out
        assert "hot keys (1):" in out
        assert "k1" in out
        assert "tiers:" in out

    def test_json_format_round_trips(self, live_rpc, capsys):
        assert main([
            "heat", "--port", str(live_rpc.port), "--enable",
            "--format", "json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["enabled"] is True
        assert "hot_keys" in summary

    def test_connection_refused_is_a_clean_error(self, capsys):
        assert main(["heat", "--port", "1"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestBackupSummary:
    """Pins the backup-chain lines in ``repro stats --format summary``."""

    BACKUP_LINE = re.compile(
        r"^  backup: \d+ snapshots \(\d+ full, \d+ incremental\), "
        r"wal \d+ records through seq -?\d+"
        r"(, last (full|incremental) #\d+ at t=\d+\.\ds)?$"
    )
    VERIFIED_LINE = re.compile(
        r"^  last verified restore: t=\d+\.\ds (ok|FAILED) "
        r"\(snapshot \d+, \d+ wal records replayed\)$"
    )

    @pytest.fixture
    def backed_rpc(self, live_rpc, tmp_path):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("backup", root=str(tmp_path / "bk"))
        return live_rpc

    def _summary(self, rpc, capsys):
        assert main([
            "stats", "--port", str(rpc.port), "--format", "summary",
        ]) == 0
        return capsys.readouterr().out

    def test_no_backup_store_prints_no_backup_lines(self, live_rpc, capsys):
        out = self._summary(live_rpc, capsys)
        assert "backup:" not in out
        assert "last verified restore" not in out

    def test_chain_line_shape_and_never_verified(self, backed_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(backed_rpc.host, backed_rpc.port) as conn:
            conn.invoke("backup", "snapshot", kind="full")
        out = self._summary(backed_rpc, capsys)
        lines = [ln for ln in out.splitlines() if ln.startswith("  backup: ")]
        assert len(lines) == 1
        assert self.BACKUP_LINE.match(lines[0]), lines[0]
        assert "(1 full, 0 incremental)" in lines[0]
        assert "  last verified restore: never" in out.splitlines()

    def test_verified_restore_line_shape(self, backed_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(backed_rpc.host, backed_rpc.port) as conn:
            conn.invoke("backup", "snapshot", kind="full")
            assert conn.invoke("backup", "verify").state["verify"][
                "ok"] is True
        out = self._summary(backed_rpc, capsys)
        lines = [
            ln for ln in out.splitlines()
            if ln.startswith("  last verified restore: ")
        ]
        assert len(lines) == 1
        assert self.VERIFIED_LINE.match(lines[0]), lines[0]
        assert " ok (" in lines[0]
