"""Instantaneous wireless graph built from node positions."""

import math
import threading
from functools import cache, cached_property

import numpy as np


@cache
def link_bound(r):
    """The largest double s with sqrt(s) <= r, for a finite r >= 0.

    IEEE square root is correctly rounded, hence monotone, so for any
    double s, `s <= link_bound(r)` holds exactly when `sqrt(s) <= r`: the
    link rule on squared distances, with no square root taken.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"range must be finite and >= 0, got {r!r}")
    r = float(r)
    s = r * r
    while math.sqrt(s) > r:
        s = math.nextafter(s, -math.inf)
    while math.sqrt(up := math.nextafter(s, math.inf)) <= r:
        s = up
    return s


_scratch = threading.local()


def _scratch_pair(n):
    """Two (n, n) float64 arrays that the calling thread reuses for every
    n-node mask build; only the latest node count's pair is kept."""
    pair = getattr(_scratch, "pair", None)
    if pair is None or len(pair[0]) != n:
        pair = _scratch.pair = (np.empty((n, n)), np.empty((n, n)))
    return pair


class TopologySnapshot:
    """Symmetric in-range graph at one instant.

    Edges are pairs at Euclidean distance <= r (inclusive); dead nodes
    (battery exhausted) carry no edges. Each edge is annotated with its
    predicted link expiration time.

    `residual` holds every node's battery at the start of the tick, as
    Python floats: MMBCR weighs it, and a node with none left is dead for
    the whole tick, however the ledger moves on within it.

    Only positions, residuals and kinematics are captured eagerly. The graph
    is one n x n boolean link mask (`_mask`), built lazily, at most once per
    snapshot, by the readers of the whole graph: the beacon round, route
    discovery and selection. It compares squared distances with
    `link_bound(r)`, so it takes no square root, and it computes them in a
    pair of scratch arrays reused from build to build, so the only n x n
    array it allocates is the mask itself. Degrees are counted straight from
    the mask; the edge list (`_edges`) is cut from it only when neighbour
    lists, neighbour sums or the per-link LETs are read. Most ticks only ask
    about the hops of live routes, which `linked` answers from the positions
    with the rule the mask is built with.
    """

    def __init__(self, nodes, residual, r, t):
        self.n = len(nodes.x)
        if not self.n:
            raise ValueError("snapshot needs at least one node")
        self.time = t
        self.r = r
        self.x = nodes.x.copy()
        self.y = nodes.y.copy()
        self.speed = nodes.speed.copy()
        self.heading = nodes.heading.copy()
        self.residual = list(residual)
        self.alive = np.array(self.residual) > 0.0
        self._let = None

    def _squared(self, a, b, out=(None, None)):
        """dx * dx + dy * dy between nodes a and b, element-wise over
        broadcast indices, into the `out` pair of arrays when given."""
        dx = np.subtract(self.x[a], self.x[b], out=out[0])
        dy = np.subtract(self.y[a], self.y[b], out=out[1])
        dx *= dx
        dy *= dy
        dx += dy
        return dx

    def distance(self, a, b):
        """Distances between nodes a and b, element-wise over broadcast
        index arrays: the one distance formula."""
        d = self._squared(a, b)
        return np.sqrt(d, out=d)

    def linked(self, a, b, out=(None, None)):
        """Whether nodes a and b are linked, element-wise over broadcast
        indices: both alive and at most r apart. The one link rule; `out`
        is as for `_squared`, and the result is a new array."""
        near = self._squared(a, b, out) <= link_bound(self.r)
        near &= self.alive[a]
        near &= self.alive[b]
        return near

    @cached_property
    def _mask(self):
        """The one n x n build: whether each ordered pair is linked, with
        the diagonal cleared."""
        near = self.linked(np.s_[:, None], np.s_[None, :],
                           _scratch_pair(self.n))
        np.fill_diagonal(near, False)
        return near

    @cached_property
    def _edges(self):
        """The linked pairs in row-major order, as row and column id arrays,
        and the (start, end) of each node's run."""
        rows, cols = np.divmod(np.flatnonzero(self._mask), self.n)
        ends = np.cumsum(self.degrees()).tolist()
        return rows, cols, list(zip([0] + ends, ends))

    def _by_node(self, flat):
        """A list over the in-range pairs in row-major order, cut into one
        row per node, parallel to neighbor_lists."""
        return [flat[start:end] for start, end in self._edges[2]]

    @cached_property
    def neighbor_lists(self):
        """Ascending neighbour ids of every node, as lists indexed by node."""
        return self._by_node(self._edges[1].tolist())

    @property
    def let(self):
        """FORP's link widths: let[u][i] is the link expiration time of the
        link from u to neighbor_lists[u][i].

        Computed on the in-range pairs only: the pairwise formula, element
        by element on the gathered ends of each pair, so every link has the
        bits the formula gives over all n x n pairs.
        """
        if self._let is None:
            rows, cols, _ = self._edges
            vx = self.speed * np.cos(self.heading)
            vy = self.speed * np.sin(self.heading)
            a = vx[rows] - vx[cols]
            c = vy[rows] - vy[cols]
            b = self.x[rows] - self.x[cols]
            d = self.y[rows] - self.y[cols]
            k = a * a + c * c
            radicand = np.clip(k * self.r * self.r - (a * d - b * c) ** 2, 0.0, None)
            with np.errstate(divide="ignore", invalid="ignore"):
                let = (-(a * b + c * d) + np.sqrt(radicand)) / k
            let[k == 0.0] = np.inf
            self._let = self._by_node(let.tolist())
        return self._let

    def degrees(self):
        return np.count_nonzero(self._mask, axis=1)

    def neighbor_sums(self, values):
        """Per node, the sum of values[v] over its neighbours v; exact in
        any order when the values are integers."""
        rows, cols, _ = self._edges
        return np.bincount(rows, weights=values[cols], minlength=self.n)


def snapshot(nodes, residual, r, t):
    """Build the topology snapshot of the given node kinematics and residual
    batteries."""
    return TopologySnapshot(nodes, residual, r, t)
