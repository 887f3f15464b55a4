"""Virtual service IPs: an instance's address is part of its identity.

Section 2: a moved service keeps its service IP; it is unbound from the
old host's NIC and bound to the new one's.  The platform records that
once, as the instance's host, so these tests pin the address itself:
the n-th instance gets the n-th address of the ``10.83`` net, and keeps
it through a move, a compensated move, an orphaning and a resume.
"""

import json

import pytest

from repro.config.model import Action
from repro.serviceglobe.actions import TransientActionFailure
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import VirtualIP
from tests.core.conftest import build_landscape

#: the last sequence number with an address
LAST = 254 * 255 - 1


def allocated(suffix):
    """The address the platform's former IP allocator gave its
    ``suffix``-th allocation (it counted from 1, once per instance)."""
    third, fourth = divmod(suffix, 254)
    return f"10.83.{third}.{fourth + 1}"


@pytest.fixture
def platform():
    return Platform(build_landscape())


def app(platform):
    return platform.service("APP").running_instances[0]


class TestAddress:
    @pytest.mark.parametrize("sequence", [1, 2, 253, 254, 255, 507, 508, LAST])
    def test_nth_address_is_the_allocators(self, sequence):
        assert VirtualIP.nth(sequence).address == allocated(sequence)

    def test_nth_addresses_are_unique(self):
        addresses = {VirtualIP.nth(n) for n in range(1, LAST + 1)}
        assert len(addresses) == LAST
        assert all(ip.address.startswith("10.83.") for ip in addresses)

    def test_the_space_is_exhausted_past_254_times_255(self):
        with pytest.raises(RuntimeError, match="virtual IP space exhausted"):
            VirtualIP.nth(LAST + 1)

    def test_an_exhausted_platform_starts_nothing(self, platform):
        platform._instance_sequence = LAST
        before = len(platform.landscape_state.instance_objs)
        with pytest.raises(RuntimeError, match="virtual IP space exhausted"):
            platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert platform._instance_sequence == LAST
        assert len(platform.landscape_state.instance_objs) == before

    def test_instances_take_addresses_in_start_order(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        instances = platform.landscape_state.instance_objs
        assert [i.virtual_ip for i in instances] == [
            VirtualIP.nth(n) for n in range(1, len(instances) + 1)
        ]


class TestTheAddressFollowsTheInstance:
    def test_a_move(self, platform):
        instance = app(platform)
        ip = instance.virtual_ip
        platform.execute(
            Action.MOVE, "APP", instance_id=instance.instance_id, target_host="Weak2"
        )
        assert (instance.host_name, instance.virtual_ip) == ("Weak2", ip)
        assert platform.host("Weak2").instances == [instance]

    def test_a_compensated_move(self, platform):
        instance = app(platform)
        ip = instance.virtual_ip

        def fail(moving, target):
            raise TransientActionFailure("target start timed out")

        platform.move_fault_hook = fail
        with pytest.raises(TransientActionFailure):
            platform.execute(
                Action.MOVE, "APP", instance_id=instance.instance_id, target_host="Weak2"
            )
        assert (instance.host_name, instance.virtual_ip) == ("Weak1", ip)
        assert platform.host("Weak1").instances == [instance]
        assert platform.host("Weak2").instances == []

    def test_an_orphaned_move(self, platform):
        instance = app(platform)
        ip = instance.virtual_ip

        def source_dies(moving, target):
            platform.host("Weak1").up = False
            raise TransientActionFailure("source host died in flight")

        platform.move_fault_hook = source_dies
        with pytest.raises(TransientActionFailure) as failure:
            platform.execute(
                Action.MOVE, "APP", instance_id=instance.instance_id, target_host="Weak2"
            )
        assert failure.value.instance_lost
        assert platform.drain_orphans() == [instance]
        assert not instance.running
        assert instance.virtual_ip == ip
        assert platform.host("Weak1").instances == platform.host("Weak2").instances == []

    def test_a_resume(self, platform):
        moved = app(platform)
        platform.execute(
            Action.MOVE, "APP", instance_id=moved.instance_id, target_host="Weak2"
        )
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak1")
        before = {
            i.instance_id: (i.virtual_ip, i.host_name) for i in platform.all_instances()
        }
        resumed = Platform(build_landscape())
        resumed.restore_state(json.loads(json.dumps(platform.snapshot_state())))
        assert {
            i.instance_id: (i.virtual_ip, i.host_name) for i in resumed.all_instances()
        } == before
        resumed.execute(Action.SCALE_OUT, "APP", target_host="Strong1")
        platform.execute(Action.SCALE_OUT, "APP", target_host="Strong1")
        assert [i.virtual_ip for i in resumed.all_instances()] == [
            i.virtual_ip for i in platform.all_instances()
        ]


def with_the_former_keys(payload):
    """``payload`` as a platform that still kept an IP binding table and
    a code repository wrote it: two more keys, both copies of placement."""
    older = dict(payload)
    older["fabric_next_suffix"] = payload["instance_sequence"] + 1
    landscape = payload["landscape"]
    deployments = [
        {"service_name": service, "version": 1, "host_name": host, "fetched_at": at}
        for (service, __, __, at), host in zip(landscape["identity"], landscape["host"])
    ]
    caches = {}
    for deployment in deployments:
        caches.setdefault(deployment["host_name"], {})[deployment["service_name"]] = 1
    older["code"] = {"caches": caches, "deployments": deployments}
    return older


class TestAnOlderSnapshot:
    def test_restores_to_the_same_state(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        platform.execute(Action.SCALE_IN, "APP")
        payload = json.loads(json.dumps(platform.snapshot_state()))
        resumed = Platform(build_landscape())
        resumed.restore_state(with_the_former_keys(payload))
        assert resumed.snapshot_state() == payload
