"""Tests for mobile code distribution."""

import pytest

from repro.config.model import Action
from repro.serviceglobe.code import CodeBundle, CodeRepository
from repro.serviceglobe.platform import Platform
from tests.core.conftest import build_landscape


class TestCodeRepository:
    def test_publish_and_fetch(self):
        repository = CodeRepository()
        repository.publish(CodeBundle("FI", version=1, size_mb=80.0))
        bundle, fetched = repository.ensure_deployed("FI", "Blade1", now=5)
        assert fetched
        assert bundle.version == 1
        assert repository.fetch_count("FI") == 1

    def test_cache_hit_on_second_start(self):
        repository = CodeRepository()
        repository.publish(CodeBundle("FI", version=1))
        repository.ensure_deployed("FI", "Blade1")
        __, fetched = repository.ensure_deployed("FI", "Blade1")
        assert not fetched
        assert repository.fetch_count() == 1

    def test_new_version_invalidates_caches(self):
        repository = CodeRepository()
        repository.publish(CodeBundle("FI", version=1))
        repository.ensure_deployed("FI", "Blade1")
        repository.publish(CodeBundle("FI", version=2))
        assert "FI" not in repository.cached_on("Blade1")
        bundle, fetched = repository.ensure_deployed("FI", "Blade1")
        assert fetched and bundle.version == 2

    def test_downgrade_rejected(self):
        repository = CodeRepository()
        repository.publish(CodeBundle("FI", version=2))
        with pytest.raises(ValueError, match="not newer"):
            repository.publish(CodeBundle("FI", version=2))

    def test_unpublished_service_rejected(self):
        with pytest.raises(KeyError, match="no code bundle"):
            CodeRepository().ensure_deployed("GHOST", "Blade1")

    def test_eviction_forces_refetch(self):
        repository = CodeRepository()
        repository.publish(CodeBundle("FI", version=1))
        repository.ensure_deployed("FI", "Blade1")
        repository.evict("Blade1")
        __, fetched = repository.ensure_deployed("FI", "Blade1")
        assert fetched

    def test_transfer_volume(self):
        repository = CodeRepository()
        repository.publish(CodeBundle("FI", version=1, size_mb=100.0))
        repository.ensure_deployed("FI", "Blade1")
        repository.ensure_deployed("FI", "Blade2")
        assert repository.transfer_volume_mb() == pytest.approx(200.0)

    def test_bundle_validation(self):
        with pytest.raises(ValueError):
            CodeBundle("FI", version=0)
        with pytest.raises(ValueError):
            CodeBundle("FI", version=1, size_mb=0.0)

    def test_checksum_auto_generated(self):
        assert CodeBundle("FI", version=1).checksum.startswith("sha-")


class TestPlatformIntegration:
    def test_boot_deploys_code_to_initial_hosts(self):
        platform = Platform(build_landscape())
        assert "APP" in platform.code_repository.cached_on("Weak1")
        assert "DB" in platform.code_repository.cached_on("Big1")

    def test_scale_out_fetches_code_once_per_host(self):
        platform = Platform(build_landscape())
        before = platform.code_repository.fetch_count("APP")
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        platform.execute(Action.SCALE_IN, "APP")
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        # the second start on Weak2 hits the cache
        assert platform.code_repository.fetch_count("APP") == before + 1

    def test_move_deploys_code_to_target(self):
        platform = Platform(build_landscape())
        instance = platform.service("APP").running_instances[0]
        platform.execute(
            Action.MOVE, "APP", instance_id=instance.instance_id,
            target_host="Weak2",
        )
        assert "APP" in platform.code_repository.cached_on("Weak2")

