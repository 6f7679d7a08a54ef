"""Compiler rejection paths and argument handling."""

import pytest

from repro.core.errors import PolicyError
from repro.spec import compile_spec


def compile_with(registry, body, args=None, tiers=None):
    tiers = tiers if tiers is not None else (
        "tier1: { name: Memcached, size: 1G };\n"
        "tier2: { name: EBS, size: 1G };"
    )
    return compile_spec(
        f"Tiera T() {{ {tiers} {body} }}", registry, args=args
    )


class TestTierValidation:
    def test_unknown_product(self, registry):
        with pytest.raises(PolicyError):
            compile_with(registry, "", tiers="tier1: { name: FloppyDisk, size: 1G };")

    def test_unknown_tier_in_response(self, registry):
        with pytest.raises(PolicyError):
            compile_with(
                registry,
                "event(insert.into) : response {"
                " store(what: insert.object, to: tier9); }",
            )


class TestResponseValidation:
    def test_unknown_response(self, registry):
        with pytest.raises(PolicyError):
            compile_with(
                registry,
                "event(insert.into) : response {"
                " teleport(what: insert.object, to: tier1); }",
            )

    def test_store_requires_what(self, registry):
        with pytest.raises(PolicyError):
            compile_with(
                registry,
                "event(insert.into) : response { store(to: tier1); }",
            )

    def test_grow_requires_percent(self, registry):
        with pytest.raises(PolicyError):
            compile_with(
                registry,
                "event(tier1.filled == 50%) : response { grow(what: tier1); }",
            )

    def test_encrypt_requires_key(self, registry):
        with pytest.raises(PolicyError):
            compile_with(
                registry,
                "event(insert.into) : response {"
                " encrypt(what: insert.object); }",
            )

    def test_assignment_requires_literal(self, registry):
        with pytest.raises(PolicyError):
            compile_with(
                registry,
                "event(insert.into) : response {"
                " insert.object.dirty = tier1.filled; }",
            )


class TestArguments:
    def test_missing_parameter(self, registry):
        with pytest.raises(PolicyError):
            compile_spec(
                "Tiera T(time t) { tier1: { name: S3 };"
                " event(time=t) : response {"
                " retrieve(what: insert.object); } }",
                registry,
            )

    def test_extra_arguments_ignored(self, registry):
        instance = compile_spec(
            "Tiera T() { tier1: { name: S3 }; }",
            registry,
            args={"unused": 1},
        )
        assert instance.name == "T"

    def test_parameter_in_bandwidth_position(self, registry):
        instance = compile_with(
            registry,
            "event(time=t) : response {"
            " copy(what: object.location == tier1, to: tier2, bandwidth: cap); }",
            args={"t": 10, "cap": 1024},
        )
        rule = instance.policy.timer_rules()[0]
        assert rule.responses[0].cap.bytes_per_second == 1024


class TestCompiledShapes:
    def test_rule_names_are_stable(self, registry):
        instance = compile_with(
            registry,
            "event(insert.into) : response {"
            " store(what: insert.object, to: tier1); }",
        )
        assert [r.name for r in instance.policy] == ["T-rule-1"]

    def test_delete_from_tier(self, registry):
        instance = compile_with(
            registry,
            "event(time=t) : response {"
            " delete(what: object.location == tier1, from_tier: tier1); }",
            args={"t": 5},
        )
        rule = instance.policy.timer_rules()[0]
        assert rule.responses[0].tiers == ("tier1",)

    def test_storeonce_compiles(self, registry):
        instance = compile_with(
            registry,
            "event(insert.into) : response {"
            " storeOnce(what: insert.object, to: tier1); }",
        )
        from repro.core.responses import StoreOnce

        rule = instance.policy.action_rules()[0]
        assert isinstance(rule.responses[0], StoreOnce)

    def test_compress_uncompress_compile(self, registry):
        instance = compile_with(
            registry,
            "event(time=t) : response {"
            " compress(what: object.location == tier2); }"
            "event(time=u) : response {"
            " uncompress(what: object.location == tier2); }",
            args={"t": 5, "u": 7},
        )
        assert len(instance.policy.timer_rules()) == 2

    def test_snapshot_compiles_and_runs(self, registry):
        from repro.core.server import TieraServer

        instance = compile_with(
            registry,
            "event(time=t) : response {"
            ' snapshot(what: object.location == tier1, to: tier2,'
            ' label: "daily"); }',
            args={"t": 60},
        )
        server = TieraServer(instance)
        server.put_object("doc", b"day one").raise_for_error()
        registry.cluster.clock.advance(61)
        assert server.get_object("doc@daily").raise_for_error().value == b"day one"

    def test_shrink_compiles(self, registry):
        instance = compile_with(
            registry,
            "event(tier1.filled <= 10%) : response {"
            " shrink(what: tier1, decrement: 50%); }",
        )
        rule = instance.policy.threshold_rules()[0]
        assert rule.responses[0].percent == 50.0
