"""Route selection disciplines: FORP, LBR and MMBCR.

The flooding query-reply cycle is abstracted as an optimal-path search over
the current topology snapshot; the engine separately charges flood energy
and discovery latency. All three protocols share the same tie-breaking:
fewer hops first, then the lexicographically smallest node sequence.
"""

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np


@dataclass(slots=True)
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

def widest_path(nbrs, widths, s, d):
    """Path maximizing the minimum link width along it, or None if
    disconnected: Hu's maximum-capacity route.

    nbrs[u] lists u's neighbours in ascending order and widths[u][i] is the
    width of the link from u to nbrs[u][i]. Ties broken by fewer hops, then
    by lexicographically smallest node sequence. Returns (path, bottleneck).
    """
    if s == d:
        raise ValueError("source equals destination")
    n = len(nbrs)
    best = [-math.inf] * n
    best[s] = math.inf
    done = [False] * n
    heap = [(-math.inf, s)]
    while heap:
        _, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == d:
            break
        bu = best[u]
        for v, w in zip(nbrs[u], widths[u]):
            if w > bu:  # the bottleneck through u: min(bu, w)
                w = bu
            if w > best[v] and not done[v]:
                best[v] = w
                heappush(heap, (-w, v))
    else:
        return None
    bottleneck = best[d]
    # the links at or above the bottleneck carry exactly the optimal paths:
    # the fewest-hop ones among them, labelled by hops to d; every node
    # nearer to d than s is labelled by the time s is
    hops = [-1] * n
    hops[d] = 0
    frontier = [d]
    depth = 0
    while frontier and hops[s] < 0:
        depth += 1
        reached = []
        for u in frontier:
            for v, w in zip(nbrs[u], widths[u]):
                if w >= bottleneck and hops[v] < 0:
                    hops[v] = depth
                    reached.append(v)
        frontier = reached
    path = [s]
    u = s
    while u != d:
        step = hops[u] - 1
        u = next(v for v, w in zip(nbrs[u], widths[u])
                 if w >= bottleneck and hops[v] == step)
        path.append(u)
    return tuple(path), bottleneck


# --- least additive node-cost kernel (LBR) ------------------------------------

def _least_cost_path(nbrs, cost, s, d):
    """Path minimizing summed intermediate-node cost, then hops, then lex.

    nbrs[u] lists u's neighbours in ascending order. cost[v] is charged for
    every on-path node except the endpoints. Returns (path, total cost) or
    None.
    """
    # labels from d: (cost of v..d counting intermediates strictly inside,
    # hops); an unreached node's cost is +inf
    n = len(nbrs)
    label = [(math.inf, 0)] * n
    label[d] = (0.0, 0)
    done = [False] * n
    heap = [(0.0, 0, d)]
    while heap:
        cu, hu, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == s:
            # s's label is final, and so is every label below it: those
            # nodes were settled first. The walk below reads no other: with
            # non-negative costs, a neighbour v passes its test only if
            # label[v] < label[u] <= label[s] (no more cost, one hop fewer),
            # and every label still tentative is at least s's. The costs
            # are integer-valued floats, so these sums are exact.
            break
        cand = (cu + cost[u] if u != d else cu, hu + 1)
        for v in nbrs[u]:
            if cand < label[v] and not done[v]:
                label[v] = cand
                heappush(heap, (cand[0], cand[1], v))
    else:
        return None
    path = [s]
    u = s
    while u != d:
        cu, hu = label[u]
        u = next(v for v in nbrs[u]
                 if label[v][0] + (cost[v] if v != d else 0.0) == cu
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
    counts the live routes that v forwards for at the time of the call.
    """
    if s == d:
        raise ValueError("source equals destination")
    if not (snap.alive[s] and snap.alive[d]):
        raise ValueError("source or destination is dead")
    nbrs = snap.neighbor_lists
    if protocol == "FORP":
        found = widest_path(nbrs, snap.let, s, d)
    elif protocol == "MMBCR":
        # entering v costs v's battery; the endpoints cost nothing, so a
        # direct s-d link has bottleneck +inf
        weight = list(snap.residual)
        weight[s] = weight[d] = math.inf
        found = widest_path(nbrs, [[weight[v] for v in row] for row in nbrs],
                            s, d)
    elif protocol == "LBR":
        act = np.array(activity, dtype=float)
        cost = (act + snap.neighbor_sums(act)).tolist()
        found = _least_cost_path(nbrs, cost, s, d)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if found is None:
        return None
    path, value = found
    return Route(session=session, nodes=path, metric_value=value,
                 discovered_at=snap.time)
