"""Instantaneous wireless graph built from node positions."""

import numpy as np


class TopologySnapshot:
    """Symmetric in-range graph at one instant.

    Edges are pairs at Euclidean distance <= r (inclusive); dead nodes
    (battery exhausted) carry no edges. Each edge is annotated with its
    distance and predicted link expiration time. The LET matrix is computed
    lazily because most ticks never look at it.
    """

    def __init__(self, states, r, t):
        if not states:
            raise ValueError("snapshot needs a nonempty state list")
        self.time = t
        self.r = r
        self.n = len(states)
        self.x = np.array([s.pos[0] for s in states])
        self.y = np.array([s.pos[1] for s in states])
        self.alive = np.array([s.battery > 0.0 for s in states])
        # plain lists: cheap to capture, promoted to arrays only if let is used
        self._speed = [s.speed for s in states]
        self._heading = [s.heading for s in states]
        dx = self.x[:, None] - self.x[None, :]
        dy = self.y[:, None] - self.y[None, :]
        self.dist = np.sqrt(dx * dx + dy * dy)
        self.in_range = (self.dist <= r) & self.alive[:, None] & self.alive[None, :]
        np.fill_diagonal(self.in_range, False)
        self._let = None

    @property
    def let(self):
        """Pairwise link expiration times; only in-range entries are meaningful."""
        if self._let is None:
            speed = np.array(self._speed)
            heading = np.array(self._heading)
            vx = speed * np.cos(heading)
            vy = speed * np.sin(heading)
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

    def neighbors(self, i):
        return [int(j) for j in np.nonzero(self.in_range[i])[0]]

    def degrees(self):
        return self.in_range.sum(axis=1)

    def distance(self, i, j):
        return float(self.dist[i, j])


def snapshot(states, r, t):
    """Build the topology snapshot for the given node states."""
    return TopologySnapshot(states, r, t)


def traffic_interference(snap: TopologySnapshot, states, node):
    """Sum of the activities of the node's current neighbors."""
    if not 0 <= node < snap.n:
        raise KeyError(f"unknown node id {node}")
    return sum(states[j].activity for j in np.nonzero(snap.in_range[node])[0])

