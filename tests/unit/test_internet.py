"""Unit tests for the CIDR hash and Internet domain topology."""

import pytest

from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import CidrHash
from repro.sim.network import Message
from repro.sim.rng import RngRegistry
from repro.topology.internet import DomainNetwork, InternetGroup


class TestCidrHash:
    def test_prefix_locality(self):
        """Addresses sharing a long prefix land in the same box."""
        h = CidrHash(bits=32)
        base = 0x0A000000  # 10.0.0.0
        assert h.box_of(base + 1, 64) == h.box_of(base + 200, 64)
        far = 0xC0000000   # 192.0.0.0
        assert h.box_of(base, 64) != h.box_of(far, 64)

    def test_unit_value_orders_addresses(self):
        h = CidrHash(bits=32)
        assert h.unit_value(0) < h.unit_value(1 << 31)

    def test_wraps_oversized_ids(self):
        h = CidrHash(bits=8)
        assert h.unit_value(256) == h.unit_value(0)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            CidrHash(bits=0)

    def test_balanced_on_uniform_plan(self):
        group = InternetGroup(sites=16, hosts_per_site=8)
        h = CidrHash(bits=32)
        hierarchy = GridBoxHierarchy(len(group), 4)
        assignment = GridAssignment(hierarchy, group.addresses, h)
        occupied = sum(
            1 for b in range(hierarchy.num_boxes)
            if assignment.members_of_box(b)
        )
        assert occupied >= hierarchy.num_boxes // 2

    def test_site_members_share_boxes(self):
        group = InternetGroup(sites=16, hosts_per_site=8)
        h = CidrHash(bits=32)
        hierarchy = GridBoxHierarchy(len(group), 4)
        assignment = GridAssignment(hierarchy, group.addresses, h)
        for site in range(group.sites):
            boxes = {
                assignment.box_of(a)
                for a in group.addresses
                if group.site_of(a) == site
            }
            assert len(boxes) <= 2  # a site's hosts cluster tightly


class TestInternetGroup:
    def test_address_plan(self):
        group = InternetGroup(sites=4, hosts_per_site=3, bits=16)
        assert len(group) == 12
        block = (1 << 16) // 4
        assert group.addresses[3] == block  # second site's base

    def test_site_of(self):
        group = InternetGroup(sites=2, hosts_per_site=2, bits=8)
        a, b, c, d = group.addresses
        assert group.site_of(a) == group.site_of(b) == 0
        assert group.site_of(c) == group.site_of(d) == 1

    def test_same_subnet(self):
        group = InternetGroup(sites=2, hosts_per_site=2, bits=16)
        a, b, __, __ = group.addresses
        assert group.same_subnet(a, b, subnet_bits=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            InternetGroup(sites=0, hosts_per_site=1)
        with pytest.raises(ValueError):
            InternetGroup(sites=2, hosts_per_site=300, bits=8)


class TestDomainNetwork:
    def _group(self):
        return InternetGroup(sites=2, hosts_per_site=4, bits=16)

    def test_relationship_classification(self):
        group = self._group()
        network = DomainNetwork(
            group, lan_loss=0.0, site_loss=0.5, wan_loss=1.0
        )
        same_lan = Message(group.addresses[0], group.addresses[1], "x")
        cross_site = Message(group.addresses[0], group.addresses[4], "x")
        assert network.loss_probability(same_lan) == 0.0
        assert network.loss_probability(cross_site) == 1.0

    def test_wan_counter(self):
        group = self._group()
        network = DomainNetwork(group)
        rngs = RngRegistry(0)
        network.plan_delivery(
            Message(group.addresses[0], group.addresses[4], "x"), rngs
        )
        network.plan_delivery(
            Message(group.addresses[0], group.addresses[1], "x"), rngs
        )
        assert network.wan_messages == 1

    def test_wan_latency_slower(self):
        group = self._group()
        network = DomainNetwork(group, wan_latency=5, lan_loss=0.0,
                                wan_loss=0.0)
        rngs = RngRegistry(0)
        lan = network.plan_delivery(
            Message(group.addresses[0], group.addresses[1], "x",
                    sent_round=0), rngs
        )
        wan = network.plan_delivery(
            Message(group.addresses[0], group.addresses[4], "x",
                    sent_round=0), rngs
        )
        assert lan == 1
        assert wan == 5

    def test_loss_validated(self):
        with pytest.raises(ValueError):
            DomainNetwork(self._group(), wan_loss=1.5)

    @pytest.mark.parametrize(
        "name", ["lan_latency", "site_latency", "wan_latency"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_latency_validated(self, name, value):
        with pytest.raises(ValueError, match=name):
            DomainNetwork(self._group(), **{name: value})
