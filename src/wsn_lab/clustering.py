"""Cluster formation and the multi-stage hierarchy builder.

Head selection is pluggable: every strategy supplies its own selector while
sharing the same partitioning and stage plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .network import Topology


class NoAliveNodes(Exception):
    """Raised when an operation needs at least one alive node and none exist."""


@dataclass
class Cluster:
    id: int
    member_ids: list
    head_id: Optional[int] = None

    def __post_init__(self):
        self.member_ids = sorted(self.member_ids)

    def __len__(self):
        return len(self.member_ids)


@dataclass
class ClusterHierarchy:
    """Stages of clusters; stage k+1 is built from the heads of stage k."""
    stages: list                      # list[list[Cluster]]
    final_transmitter: Optional[int] = None

    def heads(self, stage_index: int) -> list:
        return sorted(c.head_id for c in self.stages[stage_index])

    def participants(self, stage_index: int) -> list:
        out = []
        for c in self.stages[stage_index]:
            out.extend(c.member_ids)
        return sorted(out)

    def stage_sizes(self) -> list:
        return [len(self.participants(k)) for k in range(len(self.stages))]

    def role_of(self, node_id: int) -> int:
        """Highest stage at which the node is a head; 0 for a plain member."""
        role = 0
        for k, stage in enumerate(self.stages):
            for c in stage:
                if c.head_id == node_id:
                    role = k + 1
        return role

    def all_heads(self) -> set:
        out = set()
        for stage in self.stages:
            for c in stage:
                out.add(c.head_id)
        return out

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

    Farthest-point seeding over the static distance matrix, greedy
    distance-ordered assignment capped at ceil(n / K) members per cluster,
    then k-medoids refinement until the medoid set stops moving, which pulls
    the centers into the population mass and keeps stray links short.
    Deterministic: the first seed is the lowest id, and all ties break on
    (distance, node id, cluster index).
    """
    if target_size < 2:
        raise ValueError("target_size must be >= 2")
    ids = sorted(participant_ids)
    n = len(ids)
    if n == 0:
        raise NoAliveNodes("cannot cluster an empty participant set")
    k = min(math.ceil(n / target_size), n)
    if k <= 1:
        return [Cluster(id=0, member_ids=list(ids))]

    dist = topology.distance
    centers = [ids[0]]
    while len(centers) < k:
        best = None
        for cand in ids:
            if cand in centers:
                continue
            d_near = min(dist[cand, c] for c in centers)
            key = (-d_near, cand)
            if best is None or key < best[0]:
                best = (key, cand)
        centers.append(best[1])

    # One slot of slack per cluster lets a node far from everything join its
    # nearest center instead of a leftover slot across the field.
    cap = math.ceil(n / k) + 1

    def assign(to_centers):
        pairs = []
        for node in ids:
            for ci, center in enumerate(to_centers):
                pairs.append((float(dist[node, center]), node, ci))
        pairs.sort()
        assignment = {}
        counts = [0] * k
        for _d, node, ci in pairs:
            if node in assignment or counts[ci] >= cap:
                continue
            assignment[node] = ci
            counts[ci] += 1
        return assignment

    assignment = assign(centers)
    for _ in range(8):
        groups = [[] for _ in range(k)]
        for node in ids:
            groups[assignment[node]].append(node)
        medoids = []
        for ci in range(k):
            members = groups[ci] or [centers[ci]]
            medoids.append(min(
                members,
                key=lambda m: (sum(float(dist[m, o]) for o in members), m)))
        if medoids == centers:
            break
        centers = medoids
        assignment = assign(centers)

    # Top up lone clusters from a roomy neighbor: a one-node cluster pays the
    # full uplink share every round, which skews the drain across the field.
    counts = [0] * k
    for node in ids:
        counts[assignment[node]] += 1
    for ci in range(k):
        if counts[ci] != 1:
            continue
        lone = next(nd for nd in ids if assignment[nd] == ci)
        donors = [u for u in ids
                  if assignment[u] != ci and counts[assignment[u]] >= 3]
        if not donors:
            continue
        moved = min(donors, key=lambda u: (float(dist[lone, u]), u))
        counts[assignment[moved]] -= 1
        assignment[moved] = ci
        counts[ci] += 1

    clusters = [Cluster(id=ci, member_ids=[]) for ci in range(k)]
    for node in ids:
        clusters[assignment[node]].member_ids.append(node)
    out = [Cluster(id=i, member_ids=c.member_ids)
           for i, c in enumerate(clusters) if c.member_ids]
    return out


def select_head_by_energy(cluster: Cluster, nodes: list) -> int:
    """The member with the most residual energy; ties go to the lowest id."""
    return max(cluster.member_ids, key=lambda i: (nodes[i].energy, -i))


def build_hierarchy(nodes: list, topology: Topology,
                    head_selector: Callable[[Cluster], int],
                    *, stage_count: int, stage_target_sizes,
                    stage1_clusters: Optional[list] = None) -> ClusterHierarchy:
    """Contract alive nodes through up to stage_count clustering stages.

    Each stage clusters the previous stage's heads; the last stage collapses
    everything left into a single cluster so exactly one final transmitter
    emerges. Preset head_ids on supplied stage-1 clusters are respected;
    otherwise head_selector picks one per cluster.
    """
    alive_ids = [nd.id for nd in nodes if nd.alive]
    if not alive_ids:
        raise NoAliveNodes("no alive nodes to build a hierarchy from")

    stages = []
    participants = alive_ids
    for stage_num in range(1, stage_count + 1):
        if stage_num == 1 and stage1_clusters is not None:
            clusters = stage1_clusters
        elif stage_num == stage_count or len(participants) == 1:
            clusters = [Cluster(id=0, member_ids=list(participants))]
        else:
            idx = stage_num - 1
            sizes = stage_target_sizes
            target = sizes[idx] if idx < len(sizes) else sizes[-1]
            clusters = form_clusters(participants, topology, target)
        for c in clusters:
            if c.head_id is None:
                c.head_id = head_selector(c)
        stages.append(clusters)
        participants = sorted(c.head_id for c in clusters)
        if len(participants) == 1:
            break

    # Supplied stage-1 clusters can leave several heads standing when
    # stage_count is 1; collapse until a single transmitter remains.
    while len(participants) > 1:
        cluster = Cluster(id=0, member_ids=list(participants))
        cluster.head_id = head_selector(cluster)
        stages.append([cluster])
        participants = [cluster.head_id]

    return ClusterHierarchy(stages=stages, final_transmitter=participants[0])
