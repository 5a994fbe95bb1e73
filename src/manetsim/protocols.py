"""Route selection disciplines: FORP, LBR and MMBCR.

The flooding query-reply cycle is abstracted as an optimal-path search over
the current topology snapshot; the engine separately charges flood energy
and discovery latency. All three selectors share the same tie-breaking:
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
    protocol: str
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

def widest_path(adj, s, d, node_weights=None):
    """Path maximizing the minimum weight along it, or None if disconnected.

    adj maps node -> {neighbor: edge weight}. With node_weights given, the
    bottleneck is taken over intermediate node weights instead (a direct s-d
    edge then has bottleneck +inf), and adj need only map node -> neighbors.
    Ties broken by fewer hops, then by lexicographically smallest node
    sequence. Returns (path, bottleneck).
    """
    if s == d:
        raise ValueError("source equals destination")
    if node_weights is None:
        def links(u):
            return adj[u].items()
    else:
        # entering v costs v's weight; the endpoints cost nothing
        def links(u):
            return [(v, math.inf if v == s or v == d else node_weights[v])
                    for v in adj[u]]
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


# --- protocol selectors -------------------------------------------------------

def _check_endpoints(snap, s, d):
    if s == d:
        raise ValueError("source equals destination")
    if not (snap.alive[s] and snap.alive[d]):
        raise ValueError("source or destination is dead")


def select_forp(snap, s, d, session=-1):
    """Most stable route: maximize the minimum link expiration time (RET)."""
    _check_endpoints(snap, s, d)
    found = widest_path(snap.let_adjacency, s, d)
    if found is None:
        return None
    path, ret = found
    return Route(session=session, nodes=path, protocol="FORP",
                 metric_value=ret, discovered_at=snap.time)


def select_mmbcr(snap, s, d, session=-1):
    """Power-aware route: maximize the minimum intermediate residual battery,
    as it was at the start of the tick."""
    _check_endpoints(snap, s, d)
    found = widest_path(snap.neighbor_lists, s, d, node_weights=snap.residual)
    if found is None:
        return None
    path, bottleneck = found
    return Route(session=session, nodes=path, protocol="MMBCR",
                 metric_value=bottleneck, discovered_at=snap.time)


def select_lbr(snap, activity, s, d, session=-1):
    """Load-balancing route: minimize summed intermediate activity plus the
    traffic interference of the intermediates' neighborhoods. activity[v]
    counts the live routes that v forwards for."""
    _check_endpoints(snap, s, d)
    act = np.array(activity, dtype=float)
    interference = snap.in_range @ act
    cost = (act + interference).tolist()
    found = _least_cost_path(snap.neighbor_lists, cost, s, d)
    if found is None:
        return None
    path, total = found
    return Route(session=session, nodes=path, protocol="LBR",
                 metric_value=float(total), discovered_at=snap.time)


def select_route(protocol, snap, activity, s, d, session=-1):
    if protocol == "FORP":
        return select_forp(snap, s, d, session)
    if protocol == "LBR":
        return select_lbr(snap, activity, s, d, session)
    if protocol == "MMBCR":
        return select_mmbcr(snap, s, d, session)
    raise ValueError(f"unknown protocol {protocol!r}")
