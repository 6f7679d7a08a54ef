"""Object versioning (the §2.2 future-work extension)."""

import pytest

from repro.core.errors import UnknownTierError
from repro.core.server import TieraServer
from tests.core.conftest import build_instance


@pytest.fixture
def versioned(registry):
    instance = build_instance(
        registry,
        [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
    )
    instance.enable_versioning(max_versions=2)
    return instance, TieraServer(instance)


class TestVersioning:
    def test_overwrite_preserves_old_bytes(self, versioned):
        instance, server = versioned
        server.put_object("doc", b"version zero").raise_for_error()
        server.put_object("doc", b"version one").raise_for_error()
        assert server.get_object("doc").raise_for_error().value == b"version one"
        versions = instance.versions_of("doc")
        assert versions == ["doc@v0"]
        assert server.get_object("doc@v0").raise_for_error().value == b"version zero"
        assert "version" in instance.meta("doc@v0").tags

    def test_versions_trimmed_fifo(self, versioned):
        instance, server = versioned
        for n in range(5):
            server.put_object("doc", f"content {n}".encode()).raise_for_error()
        versions = instance.versions_of("doc")
        assert versions == ["doc@v2", "doc@v3"]  # max_versions=2, oldest gone
        assert server.get_object("doc@v3").raise_for_error().value == b"content 3"

    def test_version_stored_in_slowest_current_tier(self, versioned):
        instance, server = versioned
        server.put_object("doc", b"v0").raise_for_error()
        # Object only in tier1 (default placement): version goes there.
        server.put_object("doc", b"v1").raise_for_error()
        assert instance.meta("doc@v0").locations == {"tier1"}

    def test_explicit_version_tier(self, registry):
        instance = build_instance(
            registry,
            [("fast", "Memcached", 10 ** 6), ("cold", "S3", None)],
        )
        instance.enable_versioning(tier="cold", max_versions=3)
        server = TieraServer(instance)
        server.put_object("doc", b"v0").raise_for_error()
        server.put_object("doc", b"v1").raise_for_error()
        assert instance.meta("doc@v0").locations == {"cold"}

    def test_unknown_tier_rejected(self, two_tier):
        with pytest.raises(UnknownTierError):
            two_tier.enable_versioning(tier="tier9")

    def test_validation(self, two_tier):
        with pytest.raises(ValueError):
            two_tier.enable_versioning(max_versions=0)

    def test_fresh_insert_creates_no_version(self, versioned):
        instance, server = versioned
        server.put_object("doc", b"first").raise_for_error()
        assert instance.versions_of("doc") == []

    def test_disabled_by_default(self, two_tier):
        server = TieraServer(two_tier)
        server.put_object("doc", b"v0").raise_for_error()
        server.put_object("doc", b"v1").raise_for_error()
        assert two_tier.versions_of("doc") == []
