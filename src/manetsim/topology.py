"""Instantaneous wireless graph built from node positions."""

from functools import cached_property

import numpy as np


class TopologySnapshot:
    """Symmetric in-range graph at one instant.

    Edges are pairs at Euclidean distance <= r (inclusive); dead nodes
    (battery exhausted) carry no edges. Each edge is annotated with its
    distance and predicted link expiration time.

    `residual` holds every node's battery at the start of the tick, as
    Python floats: MMBCR weighs it, and a node with none left is dead for
    the whole tick, however the ledger moves on within it.

    Only positions, residuals and kinematics are captured eagerly. The n x n
    matrices (`dist`, `in_range`), the neighbour lists and the per-link
    LETs are built lazily, at most once per snapshot, by the readers of the
    whole graph: the beacon round, route discovery and selection. Most
    ticks only ask about the hops of live routes, which `distance` answers
    from the positions with the same formula and so the same bits as
    `dist`.
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

    def distance(self, a, b):
        """Distances between nodes a and b, element-wise over broadcast
        index arrays: the one distance formula, which `dist` shares."""
        dx = self.x[a] - self.x[b]
        dy = self.y[a] - self.y[b]
        # in place: dx * dx + dy * dy without the temporaries
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    @cached_property
    def dist(self):
        """Pairwise distances, an n x n matrix."""
        ids = np.arange(self.n)
        return self.distance(ids[:, None], ids[None, :])

    @cached_property
    def in_range(self):
        """Boolean n x n adjacency: distance <= r and both ends alive."""
        near = self.dist <= self.r
        near &= self.alive[:, None]
        near &= self.alive[None, :]
        np.fill_diagonal(near, False)
        return near

    @cached_property
    def _edges(self):
        """The in-range pairs in row-major order, as row and column id
        arrays, and the (start, end) of each node's run of them."""
        rows, cols = np.nonzero(self.in_range)
        ends = np.cumsum(np.bincount(rows, minlength=self.n)).tolist()
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
        return self.in_range.sum(axis=1)


def snapshot(nodes, residual, r, t):
    """Build the topology snapshot of the given node kinematics and residual
    batteries."""
    return TopologySnapshot(nodes, residual, r, t)
