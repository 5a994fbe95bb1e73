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
    matrices (`dist`, `in_range`, `let`) and the neighbour structures are
    built lazily, at most once per snapshot, by the readers of the whole
    graph: the beacon round, route discovery and selection. Most ticks only
    ask about the hops of live routes, which `distance` answers from the
    positions with the same formula and so the same bits as `dist`.
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

    @property
    def let(self):
        """Pairwise link expiration times; only in-range entries are meaningful."""
        if self._let is None:
            vx = self.speed * np.cos(self.heading)
            vy = self.speed * np.sin(self.heading)
            a = vx[:, None] - vx[None, :]
            c = vy[:, None] - vy[None, :]
            b = self.x[:, None] - self.x[None, :]
            d = self.y[:, None] - self.y[None, :]
            k = a * a + c * c
            radicand = np.clip(k * self.r * self.r - (a * d - b * c) ** 2, 0.0, None)
            with np.errstate(divide="ignore", invalid="ignore"):
                let = (-(a * b + c * d) + np.sqrt(radicand)) / k
            let[k == 0.0] = np.inf
            self._let = let
        return self._let

    @cached_property
    def neighbor_lists(self):
        """Ascending neighbour ids of every node, as lists indexed by node."""
        rows, cols = np.nonzero(self.in_range)
        ends = np.cumsum(np.bincount(rows, minlength=self.n)).tolist()
        cols = cols.tolist()
        return [cols[start:end] for start, end in zip([0] + ends, ends)]

    @cached_property
    def let_adjacency(self):
        """FORP's graph: node -> {neighbour: LET of the link}."""
        rows, cols = np.nonzero(self.in_range)
        lets = iter(self.let[rows, cols].tolist())
        # zip exhausts each neighbour list before drawing from lets, so every
        # row takes exactly its own LETs, in the same row-major order
        return {i: dict(zip(nbrs, lets))
                for i, nbrs in enumerate(self.neighbor_lists)}

    def degrees(self):
        return self.in_range.sum(axis=1)


def snapshot(nodes, residual, r, t):
    """Build the topology snapshot of the given node kinematics and residual
    batteries."""
    return TopologySnapshot(nodes, residual, r, t)
