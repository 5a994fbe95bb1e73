"""Route selection disciplines: FORP, LBR and MMBCR.

The flooding query-reply cycle is abstracted as an optimal-path search over
the current topology snapshot; the engine separately charges flood energy
and discovery latency. All three protocols share the same tie-breaking:
fewer hops first, then the lexicographically smallest node sequence.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class Route:
    session: int
    nodes: tuple              # ordered node ids, source first
    metric_value: float       # RET (FORP), cost (LBR), bottleneck J (MMBCR)
    discovered_at: float
    torn_down_at: float = None

    @property
    def hops(self):
        return len(self.nodes) - 1

    @property
    def intermediates(self):
        return self.nodes[1:-1]


# --- max-bottleneck (widest path) kernel --------------------------------------

def widest_path(links, s, d):
    """Path maximizing the minimum link width along it, or None if
    disconnected.

    links(u) yields the (neighbour, width) pairs of u's links. Ties broken
    by fewer hops, then by lexicographically smallest node sequence. Returns
    (path, bottleneck).
    """
    if s == d:
        raise ValueError("source equals destination")
    bottleneck = _best_bottleneck(links, s, d)
    if bottleneck is None:
        return None
    # the links at or above the bottleneck carry exactly the optimal paths
    path = _min_hop_lex_path(
        lambda u: [v for v, w in links(u) if w >= bottleneck], s, d)
    assert path is not None
    return path, bottleneck


def _best_bottleneck(links, s, d):
    """Widest s-d bottleneck over the (neighbor, width) pairs links(u)."""
    best = {s: math.inf}
    heap = [(-math.inf, s)]
    done = set()
    while heap:
        _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == d:
            return best[d]
        bu = best[u]
        for v, w in links(u):
            if v in done:
                continue
            cand = min(bu, w)
            if cand > best.get(v, -math.inf):
                best[v] = cand
                heapq.heappush(heap, (-cand, v))
    return None


def _min_hop_lex_path(nbrs, s, d):
    """Lexicographically smallest minimum-hop s-d path over the graph whose
    neighbor lists nbrs(u) returns, or None."""
    hops = {d: 0}
    queue = deque([d])
    # every node nearer to d than s is labelled by the time s is
    while queue and s not in hops:
        u = queue.popleft()
        for v in nbrs(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    if s not in hops:
        return None
    path = [s]
    u = s
    while u != d:
        u = min(v for v in nbrs(u) if hops.get(v, -1) == hops[u] - 1)
        path.append(u)
    return tuple(path)


# --- least additive node-cost kernel (LBR) ------------------------------------

def _least_cost_path(nbrs, cost, s, d):
    """Path minimizing summed intermediate-node cost, then hops, then lex.

    cost[v] is charged for every on-path node except the endpoints. Returns
    (path, total cost) or None.
    """
    # labels from d: (cost of v..d counting intermediates strictly inside, hops)
    label = {d: (0.0, 0)}
    heap = [(0.0, 0, d)]
    done = set()
    while heap:
        cu, hu, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == s:
            # s's label is final, and so is every label below it: those
            # nodes were settled first. The walk below reads no other: with
            # non-negative costs, a neighbour v passes its test only if
            # label[v] < label[u] <= label[s] (no more cost, one hop fewer),
            # and every label still tentative is at least s's. The costs
            # are integer-valued floats, so these sums are exact.
            break
        step = cost[u] if u != d else 0.0
        for v in nbrs[u]:
            if v in done:
                continue
            cand = (cu + step, hu + 1)
            if cand < label.get(v, (math.inf, 0)):
                label[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    if s not in label:
        return None
    path = [s]
    u = s
    while u != d:
        cu, hu = label[u]
        u = min(v for v in nbrs[u]
                if label.get(v) is not None
                and label[v][0] + (cost[v] if v != d else 0.0) == cu
                and label[v][1] + 1 == hu)
        path.append(u)
    return tuple(path), label[s][0]


# --- route selection ----------------------------------------------------------

def select_route(protocol, snap, activity, s, d, session=-1):
    """The route `protocol` discovers from s to d, or None if disconnected.

    FORP is the most stable route: it maximizes the minimum link expiration
    time (RET). MMBCR is power-aware: it maximizes the minimum intermediate
    residual battery, as it was at the start of the tick. LBR balances load:
    it minimizes the summed intermediate activity plus the traffic
    interference of the intermediates' neighborhoods, where activity[v]
    counts the live routes that v forwards for.
    """
    if s == d:
        raise ValueError("source equals destination")
    if not (snap.alive[s] and snap.alive[d]):
        raise ValueError("source or destination is dead")
    nbrs = snap.neighbor_lists
    if protocol == "FORP":
        adj = snap.let_adjacency
        found = widest_path(lambda u: adj[u].items(), s, d)
    elif protocol == "MMBCR":
        # entering v costs v's battery; the endpoints cost nothing, so a
        # direct s-d link has bottleneck +inf
        weight = list(snap.residual)
        weight[s] = weight[d] = math.inf
        found = widest_path(lambda u: [(v, weight[v]) for v in nbrs[u]], s, d)
    elif protocol == "LBR":
        act = np.array(activity, dtype=float)
        cost = (act + snap.in_range @ act).tolist()
        found = _least_cost_path(nbrs, cost, s, d)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if found is None:
        return None
    path, value = found
    return Route(session=session, nodes=path, metric_value=value,
                 discovered_at=snap.time)
