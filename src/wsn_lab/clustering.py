"""Cluster formation and the multi-stage hierarchy builder.

Head selection is pluggable: every strategy supplies its own selector while
sharing the same partitioning and stage plumbing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .network import Topology


class NoAliveNodes(Exception):
    """Raised when an operation needs at least one alive node and none exist."""


@dataclass(frozen=True)
class Cluster:
    """A cluster as a value: its members, ascending, and its head once one
    is seated. A stage's clusters can be kept and shared, never edited."""
    member_ids: tuple
    head_id: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "member_ids", tuple(sorted(self.member_ids)))

    def __len__(self):
        return len(self.member_ids)


@dataclass
class ClusterHierarchy:
    """Stages of clusters; stage k+1 is built from the heads of stage k."""
    stages: list                      # list[list[Cluster]]

    @property
    def final_transmitter(self) -> int:
        return self.stages[-1][0].head_id

    def role_map(self) -> dict:
        """node id -> deepest stage led (1-based); absent means plain member."""
        roles = {}
        for k, stage in enumerate(self.stages):
            for c in stage:
                roles[c.head_id] = k + 1
        return roles

    def parent_map(self) -> dict:
        """node id -> the head it transmits to; the final transmitter is absent."""
        parents = {}
        for stage in self.stages:
            for c in stage:
                for m in c.member_ids:
                    if m != c.head_id:
                        parents[m] = c.head_id
        return parents


def form_clusters(participant_ids: list, topology: Topology,
                  target_size: int) -> list:
    """Partition participants into K = ceil(n / target_size) balanced clusters.

    Farthest-point seeding over the static distance matrix (Gonzalez's
    k-center rule: a running nearest-center distance per node makes it
    O(K * n)), greedy distance-ordered assignment capped at ceil(n / K) + 1
    members per cluster, then k-medoids refinement until the medoid set stops
    moving, which pulls the centers into the population mass and keeps stray
    links short. Deterministic: the first seed is the lowest id, and all ties
    break on (distance, node id, cluster index).
    """
    if target_size < 2:
        raise ValueError("target_size must be >= 2")
    ids = sorted(participant_ids)
    n = len(ids)
    if n == 0:
        raise NoAliveNodes("cannot cluster an empty participant set")
    k = min(math.ceil(n / target_size), n)
    if k <= 1:
        return [Cluster(ids)]

    # Everything below works on positions 0..n-1 into the ascending ids, so
    # the first minimum or maximum numpy returns is the lowest id among ties.
    sub = topology.distance[np.ix_(ids, ids)]
    centers = [0]
    nearest = sub[0].copy()     # distance to the nearest center; -inf: taken
    nearest[0] = -np.inf
    while len(centers) < k:
        c = int(np.argmax(nearest))
        centers.append(c)
        np.minimum(nearest, sub[c], out=nearest)
        nearest[c] = -np.inf

    # One slot of slack per cluster lets a node far from everything join its
    # nearest center instead of a leftover slot across the field.
    cap = math.ceil(n / k) + 1

    def assign(to_centers):
        """Capped greedy over all (distance, node, cluster) pairs in order.

        A heap holds each unplaced node's best pair into a cluster that was
        not full when last looked at; a full cluster stays full, so popping
        the heap visits every pair that can still matter in global order."""
        d = sub[:, to_centers]
        heap = list(zip(d.min(axis=1).tolist(), range(n),
                        d.argmin(axis=1).tolist()))
        heapq.heapify(heap)
        labels = [-1] * n
        counts = [0] * k
        while heap:
            _dist, node, ci = heapq.heappop(heap)
            if counts[ci] < cap:
                labels[node] = ci
                counts[ci] += 1
                continue
            # Rows tie-break on cluster index, as the global order does.
            row = d[node]
            for nxt in np.argsort(row, kind="stable").tolist():
                if counts[nxt] < cap:
                    heapq.heappush(heap, (float(row[nxt]), node, nxt))
                    break
        return np.array(labels)

    labels = assign(centers)
    for _ in range(8):
        medoids = []
        for ci in range(k):
            members = np.flatnonzero(labels == ci)
            if members.size == 0:
                medoids.append(centers[ci])
                continue
            # The block is C-ordered, so its column sums add the rows in
            # order: each equals a sequential sum of dist[m, o] over the
            # members o, as the matrix is exactly symmetric.
            sums = sub[members[:, None], members].sum(axis=0)
            medoids.append(int(members[np.argmin(sums)]))
        if medoids == centers:
            break
        centers = medoids
        labels = assign(centers)

    # Top up lone clusters from a roomy neighbor: a one-node cluster pays the
    # full uplink share every round, which skews the drain across the field.
    counts = np.bincount(labels, minlength=k)
    for ci in np.flatnonzero(counts == 1).tolist():
        lone = int(np.flatnonzero(labels == ci)[0])
        donors = counts[labels] >= 3
        if not donors.any():
            continue
        moved = int(np.argmin(np.where(donors, sub[lone], np.inf)))
        counts[labels[moved]] -= 1
        labels[moved] = ci
        counts[ci] += 1

    groups = ([ids[i] for i in np.flatnonzero(labels == ci).tolist()]
              for ci in range(k))
    return [Cluster(members) for members in groups if members]


def select_head_by_energy(cluster: Cluster, nodes: list) -> int:
    """The member with the most residual energy; ties go to the lowest id."""
    return max(cluster.member_ids, key=lambda i: (nodes[i].energy, -i))


def build_hierarchy(stage1: list, topology: Topology,
                    head_selector: Callable[[Cluster], int], *,
                    stage_count: int, stage_target_sizes) -> ClusterHierarchy:
    """Contract the stage-1 clusters through up to stage_count stages.

    Each later stage clusters the previous stage's heads, and the last one
    puts all heads left into one cluster, so exactly one final transmitter
    emerges; a stage that leaves one head ends the hierarchy early. Preset
    head_ids are respected; otherwise head_selector picks one per cluster,
    seated on a new cluster so the supplied ones stay as they were.
    """
    if not stage1:
        raise NoAliveNodes("no stage-1 clusters to build a hierarchy from")

    stages = []
    clusters = stage1
    while True:
        stages.append([c if c.head_id is not None
                       else Cluster(c.member_ids, head_selector(c))
                       for c in clusters])
        heads = sorted(c.head_id for c in stages[-1])
        if len(heads) == 1:
            return ClusterHierarchy(stages)
        k = len(stages)     # 0-based index of the stage built next
        if k + 1 >= stage_count:
            clusters = [Cluster(heads)]
        else:
            sizes = stage_target_sizes
            clusters = form_clusters(heads, topology,
                                     sizes[k] if k < len(sizes) else sizes[-1])
