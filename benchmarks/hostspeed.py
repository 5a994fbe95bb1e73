"""How fast the host runs right now, for rescaling measured host seconds.

The speed of a shared host drifts by up to 2x over minutes, far more than a
code change under test moves the benchmark. `reference(nodes)` times a fixed
piece of work shaped like the simulator's own on `nodes` nodes (a distance
matrix, a neighbour dict, a widest-path search, a BFS and small records)
but written here, so that no change to manetsim changes it. Its size
follows the workload's, because array-heavy 200-node work and
interpreter-heavy 50-node work slow down differently. Dividing a measured
time by the reference timed right before and after it cancels most of the
drift. The result is expressed in seconds on a host that runs
`reference(nodes)` in `REFERENCE_S[nodes]`.
"""

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

# About what reference(nodes) takes on the 2.0 GHz Xeon host the benchmark
# was written on, when that host is not contended.
REFERENCE_S = {50: 1.6e-3, 200: 5.4e-3}


@dataclass
class _Record:
    node: int
    t: float
    hops: int


def _work(n):
    rng = np.random.default_rng(3)
    x = rng.random(n) * 1000.0
    y = rng.random(n) * 1000.0
    records = []
    for tick in range(max(1, 150 // n)):
        x += 1.0
        y -= 0.5
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        dist = np.sqrt(dx * dx + dy * dy)
        near = dist <= 250.0
        np.fill_diagonal(near, False)
        adj = {i: {int(j): float(dist[i, j]) for j in np.nonzero(near[i])[0]}
               for i in range(n)}
        best, heap, done = {0: math.inf}, [(-math.inf, 0)], set()
        while heap:
            _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u].items():
                width = min(best[u], w)
                if v not in done and width > best.get(v, -math.inf):
                    best[v] = width
                    heapq.heappush(heap, (-width, v))
        depth, frontier = {0: 0}, deque([0])
        while frontier:
            u = frontier.popleft()
            for v in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    frontier.append(v)
        records.extend(_Record(k % n, tick + 0.01 * k, depth.get(k % n, 0))
                       for k in range(100))
    return sum(r.t * r.hops for r in records)


def reference(nodes):
    """Seconds the fixed work on `nodes` nodes takes now: the faster of two
    tries, so that one interrupt does not count."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _work(nodes)
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds, nodes, ref_before, ref_after):
    """`seconds` of host time rescaled to a host that runs `reference(nodes)`
    in `REFERENCE_S[nodes]`, given the reference timed before and after."""
    return seconds * REFERENCE_S[nodes] / (0.5 * (ref_before + ref_after))
