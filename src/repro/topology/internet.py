"""Internet-like domain topology (paper Section 6.1's CIDR discussion).

Members of an Internet process group are identified by network addresses
whose prefixes reflect location (CIDR allocation).  This module provides:

* :class:`InternetGroup` — synthesizes a realistic address plan: ``sites``
  top-level prefixes, each holding a cluster of hosts with consecutive
  addresses (a site's /16, say).
* :class:`DomainNetwork` — a network model whose loss and latency depend
  on how much address prefix the endpoints share: LAN traffic (same
  subnet) is fast and reliable, intra-site traffic moderate, and WAN
  traffic slow and lossy — the regime where a CIDR-aware grid-box hash
  pays off by confining early protocol phases to sites.
"""

from __future__ import annotations

import numpy as np

from repro.sim.network import Message, Network

__all__ = ["InternetGroup", "DomainNetwork"]


class InternetGroup:
    """A synthetic CIDR address plan: ``sites`` clusters of hosts.

    Addresses are ``bits`` wide; each site occupies one top-level block
    (the address space divided evenly), and its hosts sit at consecutive
    addresses from the block's base — mirroring how an organisation
    numbers hosts inside its allocation.
    """

    def __init__(
        self,
        sites: int,
        hosts_per_site: int,
        bits: int = 32,
        rng: np.random.Generator | None = None,
    ):
        if sites < 1 or hosts_per_site < 1:
            raise ValueError("need at least one site and one host per site")
        block = (1 << bits) // sites
        if hosts_per_site > block:
            raise ValueError("site blocks too small for the host count")
        self.bits = bits
        self.sites = sites
        self.hosts_per_site = hosts_per_site
        self.addresses: list[int] = []
        self._site_of: dict[int, int] = {}
        for site in range(sites):
            base = site * block
            for host in range(hosts_per_site):
                address = base + host
                self.addresses.append(address)
                self._site_of[address] = site

    def site_of(self, address: int) -> int:
        """Which site an address belongs to."""
        return self._site_of[address]

    def same_subnet(self, a: int, b: int, subnet_bits: int = 8) -> bool:
        """Whether two addresses share all but the low ``subnet_bits``."""
        return (a >> subnet_bits) == (b >> subnet_bits)

    def __len__(self) -> int:
        return len(self.addresses)


class DomainNetwork(Network):
    """Loss/latency by address relationship: LAN < intra-site < WAN."""

    def __init__(
        self,
        group: InternetGroup,
        lan_loss: float = 0.005,
        site_loss: float = 0.02,
        wan_loss: float = 0.15,
        lan_latency: int = 1,
        site_latency: int = 1,
        wan_latency: int = 3,
        subnet_bits: int = 8,
        **kwargs,
    ):
        for name, value in (
            ("lan_loss", lan_loss), ("site_loss", site_loss),
            ("wan_loss", wan_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        for name, value in (
            ("lan_latency", lan_latency), ("site_latency", site_latency),
            ("wan_latency", wan_latency),
        ):
            if value < 1:
                raise ValueError(
                    f"{name} must be at least one round, got {value}"
                )
        super().__init__(**kwargs)
        self.group = group
        self.lan_loss = lan_loss
        self.site_loss = site_loss
        self.wan_loss = wan_loss
        self.lan_latency = lan_latency
        self.site_latency = site_latency
        self.wan_latency = wan_latency
        self.subnet_bits = subnet_bits
        #: WAN messages observed (for hash-awareness comparisons).
        self.wan_messages = 0

    def _relationship(self, message: Message) -> str:
        src, dest = message.src, message.dest
        if self.group.site_of(src) != self.group.site_of(dest):
            return "wan"
        if self.group.same_subnet(src, dest, self.subnet_bits):
            return "lan"
        return "site"

    def loss_probability(self, message: Message) -> float:
        relationship = self._relationship(message)
        if relationship == "wan":
            self.wan_messages += 1
            return self.wan_loss
        if relationship == "lan":
            return self.lan_loss
        return self.site_loss

    def latency(self, message: Message, rng) -> int:
        relationship = self._relationship(message)
        if relationship == "wan":
            return self.wan_latency
        if relationship == "lan":
            return self.lan_latency
        return self.site_latency
