"""The PUT/GET application interface layer."""

import pytest

from repro.core.errors import NoSuchObjectError
from repro.core.events import ActionEvent
from repro.core.policy import Rule
from repro.core.responses import Compress, SetAttr, Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from tests.core.conftest import build_instance


class TestPutGet:
    def test_roundtrip(self, server):
        server.put_object("k", b"hello").raise_for_error()
        assert server.get_object("k").raise_for_error().value == b"hello"

    def test_put_returns_latency_context(self, server):
        result = server.put_object("k", b"hello").raise_for_error()
        assert result.latency > 0

    def test_default_placement_is_first_tier(self, server):
        server.put_object("k", b"hello").raise_for_error()
        assert server.stat("k").locations == {"tier1"}

    def test_overwrite_bumps_version(self, server):
        server.put_object("k", b"v1").raise_for_error()
        server.put_object("k", b"v2").raise_for_error()
        assert server.get_object("k").raise_for_error().value == b"v2"
        assert server.stat("k").version == 1

    def test_get_missing_raises(self, server):
        with pytest.raises(NoSuchObjectError):
            server.get_object("ghost").raise_for_error()

    def test_get_updates_access_stats(self, server):
        server.put_object("k", b"v").raise_for_error()
        server.get_object("k").raise_for_error()
        server.get_object("k").raise_for_error()
        assert server.stat("k").access_count == 2

    def test_policy_placement_overrides_default(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Store(InsertObject(), "tier2")],
                    name="to-ebs",
                )
            ],
        )
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert server.stat("k").locations == {"tier2"}

    def test_delete(self, server):
        server.put_object("k", b"v").raise_for_error()
        server.delete_object("k").raise_for_error()
        assert not server.contains("k")
        with pytest.raises(NoSuchObjectError):
            server.get_object("k").raise_for_error()

    def test_encrypted_compressed_object_not_inflated(self, registry):
        """GET must not try to unzip ciphertext (regression)."""
        from repro.core.responses import Decrypt, Encrypt

        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [
                        Store(InsertObject(), "tier1"),
                        Compress(InsertObject()),
                        Encrypt(InsertObject(), key="k"),
                    ],
                    name="seal",
                )
            ],
        )
        server = TieraServer(inst)
        payload = b"sensitive " * 300
        server.put_object("k", payload).raise_for_error()
        # ciphertext as stored, no unzip
        sealed = server.get_object("k").raise_for_error().value
        assert sealed != payload
        from repro.core.conditions import EvalScope
        from repro.core.selectors import NamedObjects
        from repro.simcloud.resources import RequestContext

        Decrypt(NamedObjects("k"), key="k").execute(
            EvalScope(instance=inst), RequestContext(inst.clock)
        )
        # decrypt, then auto-inflate
        assert server.get_object("k").raise_for_error().value == payload

    def test_compressed_objects_inflate_on_get(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Store(InsertObject(), "tier1"), Compress(InsertObject())],
                    name="compressing",
                )
            ],
        )
        server = TieraServer(inst)
        payload = b"squeeze me " * 500
        server.put_object("k", payload).raise_for_error()
        assert inst.tiers.get("tier1").used < len(payload)
        assert server.get_object("k").raise_for_error().value == payload


class TestTags:
    def test_tags_at_put_time(self, server):
        server.put_object("k", b"v", tags=["tmp", "page"]).raise_for_error()
        assert server.stat("k").tags == {"tmp", "page"}

    def test_add_remove_tag(self, server):
        server.put_object("k", b"v").raise_for_error()
        server.add_tag("k", "hot")
        assert server.keys_with_tag("hot") == ["k"]
        server.remove_tag("k", "hot")
        assert server.keys_with_tag("hot") == []

    def test_tag_driven_policy(self, registry):
        """§2.1's example: a "tmp" tag routes to cheap volatile storage."""
        from repro.core.conditions import AttrRef, Comparison, Literal

        guard = Comparison(
            "==", AttrRef(("insert", "object", "tags")), Literal("tmp")
        )
        inst = build_instance(
            registry,
            [("tier1", "EBS", 10 ** 7), ("scratch", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert", guard=guard),
                    [Store(InsertObject(), "scratch")],
                    name="tmp-to-scratch",
                )
            ],
        )
        server = TieraServer(inst)
        server.put_object("temp-file", b"x", tags=["tmp"]).raise_for_error()
        server.put_object("real-file", b"x").raise_for_error()
        assert server.stat("temp-file").locations == {"scratch"}
        assert server.stat("real-file").locations == {"tier1"}

    def test_keys_listing(self, server):
        server.put_object("b", b"1").raise_for_error()
        server.put_object("a", b"2").raise_for_error()
        assert server.keys() == ["a", "b"]


class TestSetAttrThroughPolicy:
    def test_figure3_dirty_assignment(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [
                        SetAttr(("insert", "object", "dirty"), True),
                        Store(InsertObject(), "tier1"),
                    ],
                    name="fig3",
                )
            ],
        )
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert server.stat("k").dirty is True
