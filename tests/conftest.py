"""Shared helpers for building small hand-laid networks in tests."""

from wsn_lab import SensorNode, Topology


def make_nodes(positions, energies=None, comm_range=50.0):
    """Nodes at explicit positions; returns (nodes, topology)."""
    if energies is None:
        energies = [1.0] * len(positions)
    nodes = [
        SensorNode(id=i, x=float(x), y=float(y), energy=float(e))
        for i, ((x, y), e) in enumerate(zip(positions, energies))
    ]
    return nodes, Topology(nodes, comm_range)
