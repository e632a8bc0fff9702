"""A frozen copy of the pure-Python `form_clusters` that the numpy version
replaced, kept as an oracle: the two must return identical partitions.
It returns each cluster as a plain ascending list of member ids.

Do not edit this copy to follow later changes to `form_clusters`; it is the
behaviour the golden digests were computed with.
"""

from __future__ import annotations

import math

from wsn_lab.clustering import NoAliveNodes
from wsn_lab.network import Topology


def reference_form_clusters(participant_ids: list, topology: Topology,
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
        return [list(ids)]

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

    clusters = [[] for _ in range(k)]
    for node in ids:
        clusters[assignment[node]].append(node)
    return [members for members in clusters if members]
