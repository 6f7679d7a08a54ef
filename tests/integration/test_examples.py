"""The example scripts run clean end to end (quick ones only)."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [
            sys.executable, "-W", "error::DeprecationWarning",
            os.path.join(EXAMPLES, name),
        ],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "PUT took" in out
        assert "after 31 s" in out
        assert "compress-on-insert" in out
        assert "traced GET served by tier1" in out
        assert "stats snapshot at" in out
        assert "tiera_requests_total{op=get} = 2" in out

    def test_dedup_backup(self):
        out = run_example("dedup_backup.py")
        assert "savings  : 99%" in out
        assert "after decrypt response" in out

    def test_sharded_tiera(self):
        out = run_example("sharded_tiera.py")
        assert "all 300 objects verified readable" in out

    def test_remote_server(self):
        out = run_example("remote_server.py")
        assert "server stopped cleanly" in out

    def test_trace_compare(self):
        out = run_example("trace_compare.py")
        assert "recorded trace: 2000 operations" in out
        assert "pick the tradeoff you want" in out

    @pytest.mark.slow
    def test_failure_recovery(self):
        out = run_example("failure_recovery.py", timeout=300.0)
        assert "monitor: EBS failed" in out
        assert "minute 9" in out
