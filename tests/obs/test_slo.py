"""SLO engine: objectives, burn-rate alerting, surfaces, determinism."""

import pytest

from repro.core.conditions import AttrRef, EvalScope
from repro.core.errors import PolicyError
from repro.core.server import TieraServer
from repro.core.templates import write_through_instance
from repro.obs.hub import Observability
from repro.obs.slo import SloObjective, default_slos
from repro.simcloud.resources import RequestContext


def engine():
    obs = Observability()
    return obs, obs.slo


def latency_slo(**overrides):
    spec = dict(
        name="get_latency", op="get", kind="latency",
        target=0.010, percentile=0.9, window=30.0, short_window=5.0,
    )
    spec.update(overrides)
    return SloObjective(**spec)


def availability_slo(**overrides):
    spec = dict(
        name="get_availability", op="get", kind="availability",
        target=0.99, window=30.0, short_window=5.0,
    )
    spec.update(overrides)
    return SloObjective(**spec)


class TestObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", op="get", kind="throughput", target=1.0)
        with pytest.raises(ValueError):
            availability_slo(target=1.0)
        with pytest.raises(ValueError):
            latency_slo(percentile=1.0)
        with pytest.raises(ValueError):
            latency_slo(window=0.0)
        with pytest.raises(ValueError):
            latency_slo(window=10.0, short_window=20.0)

    def test_budget(self):
        assert availability_slo(target=0.999).budget == pytest.approx(0.001)
        assert latency_slo(percentile=0.9).budget == pytest.approx(0.1)

    def test_violates(self):
        lat = latency_slo(target=0.010)
        assert lat.violates(0.011, True)
        assert not lat.violates(0.009, True)
        assert lat.violates(0.001, False)  # failures always burn budget
        avail = availability_slo()
        assert avail.violates(0.0, False)
        assert not avail.violates(99.0, True)  # slow but successful

    def test_defaults_are_installable_and_unique(self):
        _, slo = engine()
        slo.install(default_slos())
        names = [o.name for o in slo.objectives]
        assert len(names) == len(set(names)) == 4

    def test_duplicate_name_rejected(self):
        _, slo = engine()
        slo.install([latency_slo()])
        with pytest.raises(ValueError):
            slo.install([latency_slo()])


class TestEngine:
    def test_inert_without_objectives(self):
        obs, slo = engine()
        slo.record("get", 5.0, False, at=1.0)
        assert slo.summary(10.0) == {
            "objectives": [], "breaching": [], "alerting": []
        }
        assert obs.metrics.get("tiera_slo_burn_rate") is None

    def test_healthy_traffic_never_alerts(self):
        _, slo = engine()
        slo.install([latency_slo(), availability_slo()])
        for i in range(100):
            slo.record("get", 0.001, True, at=float(i) * 0.1)
        summary = slo.summary(10.0)
        assert summary["alerting"] == []
        assert summary["breaching"] == []
        state = slo.state("get_availability", 10.0)
        assert state["current"] == 1.0
        assert state["compliant"] is True

    def test_op_filter_and_wildcard(self):
        _, slo = engine()
        slo.install([
            availability_slo(),
            availability_slo(name="any_availability", op="*"),
        ])
        slo.record("put", 0.001, False, at=1.0)
        states = {s["name"]: s for s in slo.evaluate(2.0)}
        assert states["get_availability"]["samples"] == 0
        assert states["any_availability"]["samples"] == 1

    def test_failures_drive_availability_alert(self):
        _, slo = engine()
        slo.install([availability_slo()])
        for i in range(50):
            slo.record("get", 0.001, False, at=float(i) * 0.1)
        state = slo.state("get_availability", 5.0)
        assert state["compliant"] is False
        assert state["current"] == 0.0
        assert state["alerting"] is True
        assert state["burn_rate"] > 1.0
        assert state["burn_rate_short"] > 1.0

    def test_slow_requests_drive_latency_alert(self):
        _, slo = engine()
        slo.install([latency_slo(target=0.010, percentile=0.9)])
        for i in range(50):
            slo.record("get", 0.500, True, at=float(i) * 0.1)
        state = slo.state("get_latency", 5.0)
        assert state["compliant"] is False
        assert state["current"] == 0.5
        assert state["alerting"] is True

    def test_long_window_guards_against_blips(self):
        """A short burst inside an otherwise-clean long window must not
        alert: the long-window burn stays under threshold."""
        _, slo = engine()
        slo.install([availability_slo(target=0.9, short_window=1.0)])
        for i in range(100):
            slo.record("get", 0.001, True, at=float(i) * 0.1)
        slo.record("get", 0.001, False, at=10.04)
        slo.record("get", 0.001, False, at=10.05)
        state = slo.state("get_availability", 10.1)
        assert state["burn_rate_short"] > 1.0  # the blip is "now"
        assert state["burn_rate"] < 1.0  # but the window absorbed it
        assert state["alerting"] is False

    def test_samples_age_out_of_the_window(self):
        _, slo = engine()
        slo.install([availability_slo(window=10.0, short_window=1.0)])
        for i in range(10):
            slo.record("get", 0.001, False, at=float(i))
        assert slo.state("get_availability", 5.0)["compliant"] is False
        # 30 virtual seconds later every bad sample has aged out.
        state = slo.state("get_availability", 35.0)
        assert state["samples"] == 0
        assert state["compliant"] is True
        assert state["alerting"] is False

    def test_transitions_and_audit_and_counters(self):
        obs, slo = engine()
        slo.install([availability_slo()])
        for i in range(20):
            slo.record("get", 0.001, False, at=float(i) * 0.1)
        slo.evaluate(2.0)
        slo.evaluate(40.0)  # budget recovered: alert clears
        assert [t["alerting"] for t in slo.transitions] == [True, False]
        assert slo.transitions[0]["name"] == "get_availability"
        records = obs.audit.records(category="slo")
        assert len(records) == 2
        assert records[0].error is not None and "burn" in records[0].error
        assert records[1].error is None
        assert records[0].detail["alerting"] is True
        breaches = obs.metrics.get("tiera_slo_breaches_total")
        assert breaches.value(slo="get_availability") == 1

    def test_metric_families_exported(self):
        obs, slo = engine()
        slo.install([availability_slo()])
        slo.record("get", 0.001, True, at=1.0)
        slo.evaluate(2.0)
        burn = obs.metrics.get("tiera_slo_burn_rate")
        assert burn.value(slo="get_availability", window="long") == 0.0
        assert burn.value(slo="get_availability", window="short") == 0.0
        compliant = obs.metrics.get("tiera_slo_compliant")
        assert compliant.value(slo="get_availability") == 1.0
        alerting = obs.metrics.get("tiera_slo_alerting")
        assert alerting.value(slo="get_availability") == 0.0

    def test_failed_requests_poison_the_latency_percentile(self):
        _, slo = engine()
        slo.install([latency_slo(target=0.010, percentile=0.9)])
        for i in range(20):
            slo.record("get", 0.001, False, at=float(i) * 0.1)
        state = slo.state("get_latency", 2.0)
        # All-failed window: percentile reports worse than any observed
        # latency rather than pretending the tail was fast.
        assert state["current"] > 0.001
        assert state["compliant"] is False

    def test_unknown_name_raises(self):
        _, slo = engine()
        with pytest.raises(KeyError):
            slo.state("nope", 1.0)

    def test_deterministic_state(self):
        def run():
            _, slo = engine()
            slo.install(default_slos())
            for i in range(200):
                ok = (i % 7) != 0
                slo.record("get" if i % 2 else "put", 0.004 * (i % 5),
                           ok, at=float(i) * 0.25)
            return slo.summary(50.0), list(slo.transitions)

        assert run() == run()


class TestServerIntegration:
    @pytest.fixture
    def served(self, registry):
        instance = write_through_instance(registry, mem="64M", ebs="64M")
        server = TieraServer(instance)
        return instance, server

    def _drive(self, instance, server, fail_tier=None):
        ctx = RequestContext(instance.clock)
        for i in range(40):
            server.put_object(f"k{i}", b"x" * 128, ctx=ctx).raise_for_error()
            server.get_object(f"k{i}", ctx=ctx).raise_for_error()
        instance.clock.run_until(ctx.time)
        return ctx

    def test_health_reports_slo_and_degrades_while_alerting(self, served):
        instance, server = served
        instance.obs.slo.install(default_slos())
        self._drive(instance, server)
        health = server.health()
        assert health["status"] == "ok"
        names = {s["name"] for s in health["slo"]["objectives"]}
        assert "get_latency" in names and "put_availability" in names
        assert health["slo"]["alerting"] == []
        # Force an alert: feed synthetic failures at "now".
        now = instance.clock.now()
        for i in range(50):
            instance.obs.slo.record("get", 0.001, False, at=now + i * 0.01)
        health = server.health()
        assert "get_availability" in health["slo"]["alerting"]
        assert health["status"] == "degraded"

    def test_health_without_objectives_has_no_slo_section(self, served):
        _, server = served
        assert "slo" not in server.health()

    def test_condition_primitive_reads_live_state(self, served):
        instance, server = served
        instance.obs.slo.install(default_slos())
        self._drive(instance, server)
        scope = EvalScope(instance=instance)
        assert AttrRef(("slo", "get_availability")).evaluate(scope) is False
        assert AttrRef(
            ("slo", "get_availability", "compliant")
        ).evaluate(scope) is True
        assert AttrRef(
            ("slo", "get_availability", "burning")
        ).evaluate(scope) is False
        assert AttrRef(
            ("slo", "get_availability", "current")
        ).evaluate(scope) == 1.0
        assert AttrRef(
            ("slo", "get_latency", "breaches")
        ).evaluate(scope) == 0

    def test_condition_primitive_errors(self, served):
        instance, _ = served
        scope = EvalScope(instance=instance)
        with pytest.raises(PolicyError):
            AttrRef(("slo",)).evaluate(scope)
        with pytest.raises(PolicyError):
            AttrRef(("slo", "not_installed")).evaluate(scope)
        instance.obs.slo.install([availability_slo()])
        with pytest.raises(PolicyError):
            AttrRef(("slo", "get_availability", "wat")).evaluate(scope)


class TestSpecLanguage:
    def test_event_on_slo_burn_compiles_and_evaluates(self, registry):
        from repro.spec import compile_source

        source = """
        Tiera SloReactive() {
            tier1: { name: Memcached, size: 1M };
            tier2: { name: EBS, size: 1M };
            event(slo.get_latency.burning) : response {
                store(what: object.location == tier2, to: tier1);
            }
        }
        """
        instance = compile_source(source, registry)
        instance.obs.slo.install(default_slos())
        rule = list(instance.policy)[0]
        # The compiled condition reads the live engine through the scope.
        scope = EvalScope(instance=instance)
        assert rule.event.condition.evaluate(scope) is False
        for i in range(50):
            instance.obs.slo.record("get", 5.0, True, at=float(i) * 0.01)
        assert rule.event.condition.evaluate(scope) is True
