"""Mesh network-on-chip model (paper §V-A extension).

The paper does not model NoCs but sketches how: "ports can be added to
the abstract tile model to create a message module in order to model
NoCs". This module provides that extension: a 2D mesh with XY routing;
memory traffic between a core tile and the shared-LLC bank that owns a
line pays per-hop link+router latency in each direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass
class NoCConfig:
    """2D mesh parameters."""

    #: mesh dimensions; if 0, the smallest square holding all nodes is used
    width: int = 0
    height: int = 0
    #: per-hop wire latency (cycles)
    link_latency: int = 1
    #: per-router pipeline latency (cycles)
    router_latency: int = 2
    #: LLC banks, address-interleaved by line and placed like nodes
    llc_banks: int = 4


class MeshNoC:
    """XY-routed mesh: nodes are core tiles 0..N-1 plus LLC banks placed
    at the mesh's far side."""

    def __init__(self, config: NoCConfig, num_cores: int):
        self.config = config
        self.num_cores = num_cores
        total = num_cores + config.llc_banks
        width = config.width
        height = config.height
        if not width or not height:
            width = max(2, math.isqrt(total - 1) + 1)
            height = (total + width - 1) // width
        self.width = width
        self.height = height
        self.hops_total = 0
        self.traversals = 0
        #: event handlers (repro.telemetry.observer), empty when unwatched;
        #: the hierarchy reports each timed traversal to them
        self.observers = ()

    def position(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def bank_of(self, address: int, line_bytes: int = 64) -> int:
        line = address // line_bytes
        return line % self.config.llc_banks

    def bank_node(self, bank: int) -> int:
        """LLC banks occupy the node ids after the cores."""
        return self.num_cores + bank

    def hops(self, src_node: int, dst_node: int) -> int:
        sx, sy = self.position(src_node)
        dx, dy = self.position(dst_node)
        return abs(sx - dx) + abs(sy - dy)

    def latency(self, src_node: int, dst_node: int) -> int:
        """One-way traversal latency (XY routing)."""
        hops = self.hops(src_node, dst_node)
        self.hops_total += hops
        self.traversals += 1
        return hops * self.config.link_latency \
            + (hops + 1) * self.config.router_latency

    @property
    def average_hops(self) -> float:
        return self.hops_total / self.traversals if self.traversals else 0.0
