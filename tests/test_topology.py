"""Instantaneous wireless graph construction and interference sums."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.config import ScenarioConfig
from manetsim.mobility import init_mobility
from manetsim.topology import snapshot

from test_mobility import link_expiration_time, make_nodes


def random_nodes(rng, n=50, area=1000.0, v_max=20.0):
    positions, speeds, headings = [], [], []
    for _ in range(n):
        positions.append((rng.uniform(0, area), rng.uniform(0, area)))
        speeds.append(rng.uniform(0.01, v_max))
        headings.append(rng.uniform(0, 2 * math.pi))
    return make_nodes(positions, speeds, headings)


def full_snapshot(nodes, dead=()):
    """Snapshot at r = 250 m and t = 0 with 1500 J left on every node but
    the dead ones."""
    residual = [0.0 if i in dead else 1500.0 for i in range(len(nodes.x))]
    return snapshot(nodes, residual, 250.0, 0.0)


def dense_dist(snap):
    """Pairwise distances as an n x n matrix, the one distance formula over
    every pair: the oracle for what the snapshot answers per pair."""
    dx = snap.x[:, None] - snap.x[None, :]
    dy = snap.y[:, None] - snap.y[None, :]
    return np.sqrt(dx * dx + dy * dy)


def dense_in_range(snap):
    """Boolean n x n adjacency: distance <= r, both ends alive, no self
    loops. The oracle for the snapshot's edge list."""
    near = dense_dist(snap) <= snap.r
    near &= snap.alive[:, None] & snap.alive[None, :]
    np.fill_diagonal(near, False)
    return near


def dense_let_matrix(snap):
    """Pairwise link expiration times as an n x n matrix, the formula over
    every pair: the oracle for TopologySnapshot.let, which evaluates it on
    the in-range pairs only. Only in-range entries are meaningful."""
    vx = snap.speed * np.cos(snap.heading)
    vy = snap.speed * np.sin(snap.heading)
    a = vx[:, None] - vx[None, :]
    c = vy[:, None] - vy[None, :]
    b = snap.x[:, None] - snap.x[None, :]
    d = snap.y[:, None] - snap.y[None, :]
    k = a * a + c * c
    radicand = np.clip(k * snap.r * snap.r - (a * d - b * c) ** 2, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        let = (-(a * b + c * d) + np.sqrt(radicand)) / k
    let[k == 0.0] = np.inf
    return let


def traffic_interference(near, activity, node):
    """Sum of the activities of the node's current neighbors in the dense
    adjacency near: the scalar oracle for LBR's `neighbor_sums(act)`."""
    if not 0 <= node < len(near):
        raise KeyError(f"unknown node id {node}")
    return sum(activity[j] for j in np.nonzero(near[node])[0])


class TestSnapshotEdges:
    def test_boundary_distance_inclusive(self):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (0.0, 250.0)]))
        assert dense_in_range(snap)[0, 1]
        assert dense_dist(snap)[0, 1] == pytest.approx(250.0)
        assert snap.neighbor_lists == [[1], [0]]

    def test_boundary_distance_exclusive(self):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (0.0, 250.01)]))
        assert not dense_in_range(snap)[0, 1]
        assert snap.neighbor_lists == [[], []]

    def test_no_self_loops(self):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (10.0, 0.0)]))
        assert not dense_in_range(snap)[0, 0]
        assert 0 not in snap.neighbor_lists[0]

    def test_dead_nodes_carry_no_edges(self):
        nodes = make_nodes([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        snap = full_snapshot(nodes, dead={1})
        assert snap.neighbor_lists[1] == []
        assert snap.neighbor_lists[0] == [2]

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            snapshot(make_nodes([]), [], 250.0, 0.0)

    def test_residuals_are_copied_as_given(self):
        residual = [1.5, 0.0, 2.0]
        snap = snapshot(make_nodes([(0.0, 0.0)] * 3), residual, 250.0, 0.0)
        residual[0] = 0.0
        assert snap.residual == [1.5, 0.0, 2.0]
        assert [type(b) for b in snap.residual] == [float] * 3
        assert snap.alive.tolist() == [True, False, True]

    def test_symmetry_random(self):
        rng = random.Random(8)
        for _ in range(10):
            snap = full_snapshot(random_nodes(rng))
            near, dist = dense_in_range(snap), dense_dist(snap)
            assert (near == near.T).all()
            i, j = np.nonzero(near)
            assert (dist[i, j] <= 250.0).all()
            assert (dist[i, j] == dist[j, i]).all()
            rows, cols, _ = snap._edges
            assert sorted(zip(rows.tolist(), cols.tolist())) == \
                sorted(zip(cols.tolist(), rows.tolist()))
            lets = {(u, v): w for u, row in enumerate(snap.let)
                    for v, w in zip(snap.neighbor_lists[u], row)}
            assert all(lets[u, v] == lets[v, u] for u, v in lets)

    def test_let_matrix_matches_scalar_formula(self):
        rng = random.Random(9)
        nodes = random_nodes(rng)
        snap = full_snapshot(nodes)
        for i in range(snap.n):
            assert len(snap.let[i]) == len(snap.neighbor_lists[i])
            for j, got in zip(snap.neighbor_lists[i], snap.let[i]):
                expected = link_expiration_time(nodes, i, j, 250.0)
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, rel=1e-9)

    def test_mean_degree_matches_density(self):
        # 50 uniform nodes in 1000 m^2 at r=250 average about 10 neighbors
        degrees = []
        for seed in range(20):
            cfg = ScenarioConfig(node_count=50)
            snap = full_snapshot(init_mobility(cfg, random.Random(seed)))
            degrees.append(snap.degrees().mean())
        assert abs(sum(degrees) / len(degrees) - 10.0) <= 3.0

    def test_degree_monotone_in_density(self):
        def mean_degree(n):
            vals = []
            for seed in range(10):
                nodes = init_mobility(ScenarioConfig(node_count=n),
                                      random.Random(seed))
                vals.append(full_snapshot(nodes).degrees().mean())
            return sum(vals) / len(vals)

        assert mean_degree(100) >= mean_degree(50)


class TestSharedNeighbourStructures:
    def random_snapshot(self, rng, same_velocity_pairs=False):
        # some dead nodes, and a few far out so that they are isolated
        nodes = random_nodes(rng, n=rng.randint(2, 40), area=800.0)
        dead = set()
        for i in range(len(nodes.x)):
            if rng.random() < 0.15:
                dead.add(i)
            elif rng.random() < 0.1:
                nodes.x[i], nodes.y[i] = 5000.0 + 1000.0 * i, 5000.0
        if same_velocity_pairs:
            # some nodes take a neighbour's velocity, some stand still:
            # links with no relative motion, whose LET is +inf
            for i in range(1, len(nodes.x)):
                if rng.random() < 0.2:
                    nodes.speed[i] = nodes.speed[i - 1]
                    nodes.heading[i] = nodes.heading[i - 1]
                elif rng.random() < 0.1:
                    nodes.speed[i] = 0.0
        return full_snapshot(nodes, dead)

    def test_neighbor_lists_match_in_range_rows(self):
        rng = random.Random(21)
        for _ in range(50):
            snap = self.random_snapshot(rng)
            assert len(snap.neighbor_lists) == snap.n
            near = dense_in_range(snap)
            for i in range(snap.n):
                expected = np.nonzero(near[i])[0].tolist()
                assert snap.neighbor_lists[i] == expected
                if not snap.alive[i]:
                    assert expected == []

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_edge_lets_equal_the_dense_let_matrix(self, seed):
        rng = random.Random(seed)
        snap = self.random_snapshot(rng, same_velocity_pairs=True)
        dense = dense_let_matrix(snap)
        assert len(snap.let) == snap.n
        for i in range(snap.n):
            assert len(snap.let[i]) == len(snap.neighbor_lists[i])
            for j, let in zip(snap.neighbor_lists[i], snap.let[i]):
                assert type(let) is float
                assert let == dense[i, j]  # the same bits, +inf included

    def test_built_once_per_snapshot(self):
        snap = self.random_snapshot(random.Random(23))
        assert snap.neighbor_lists is snap.neighbor_lists
        assert snap.let is snap.let


class TestLazyMatrices:
    R = 250.0

    def edge_case_snapshot(self, rng):
        """Random nodes, some dead, plus two coincident nodes, a pair at
        exactly r and a pair one ulp beyond it."""
        nodes = random_nodes(rng, n=rng.randint(8, 40), area=800.0)
        # node 4 stays alive: it sits one ulp beyond the r-pair
        dead = {i for i in range(4, len(nodes.x)) if rng.random() < 0.2} - {4}
        x, y = rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)
        nodes.x[0], nodes.y[0] = x, y
        nodes.x[1], nodes.y[1] = x, y
        # a 150-200-250 right triangle: both legs and the hypotenuse are
        # exact in binary
        nodes.x[2], nodes.y[2] = 150.0, 200.0
        nodes.x[3], nodes.y[3] = 0.0, 0.0
        nodes.x[4], nodes.y[4] = np.nextafter(150.0, 1e9), 200.0
        return full_snapshot(nodes, dead)

    def test_distance_equals_dist_exactly(self):
        rng = random.Random(31)
        for _ in range(30):
            snap = self.edge_case_snapshot(rng)
            dist = dense_dist(snap)
            ids = np.arange(snap.n)
            assert (snap.distance(ids[:, None], ids[None, :]) == dist).all()
            a = np.array([rng.randrange(snap.n) for _ in range(60)])
            b = np.array([rng.randrange(snap.n) for _ in range(60)])
            assert (snap.distance(a, b) == dist[a, b]).all()
            assert (snap.distance(a[:, None], b) == dist[a[:, None], b]).all()
            assert dist[0, 1] == 0.0 and 1 in snap.neighbor_lists[0]
            assert dist[2, 3] == self.R and 3 in snap.neighbor_lists[2]
            assert dist[3, 4] > self.R and 4 not in snap.neighbor_lists[3]

    def test_in_range_is_the_hop_rule(self):
        # the rule route maintenance applies to a hop, over every pair
        rng = random.Random(32)
        for _ in range(30):
            snap = self.edge_case_snapshot(rng)
            ids = np.arange(snap.n)
            a, b = ids[:, None], ids[None, :]
            rule = (snap.alive[a] & snap.alive[b]
                    & (snap.distance(a, b) <= snap.r) & (a != b))
            assert (rule == dense_in_range(snap)).all()
            rows, cols, _ = snap._edges
            assert [rows.tolist(), cols.tolist()] == \
                [x.tolist() for x in np.nonzero(rule)]

    def test_matrices_built_once_and_only_when_read(self):
        snap = self.edge_case_snapshot(random.Random(33))
        snap.distance(np.array([0, 2]), np.array([1, 3]))
        assert "_edges" not in vars(snap)
        snap.degrees()
        assert "_edges" in vars(snap)
        assert snap._edges is snap._edges
        assert not hasattr(snap, "dist") and not hasattr(snap, "in_range")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edge_list_equals_the_dense_oracle(self, data):
        # a 50 m grid: pairs at exactly r, coincident nodes, dead nodes
        n = data.draw(st.integers(1, 16))
        coord = st.integers(0, 12).map(lambda k: 50.0 * k)
        points = data.draw(st.lists(st.tuples(coord, coord),
                                    min_size=n, max_size=n))
        dead = data.draw(st.sets(st.integers(0, n - 1)))
        values = np.array(data.draw(st.lists(st.integers(-1000, 1000),
                                             min_size=n, max_size=n)),
                          dtype=np.int64)
        snap = full_snapshot(make_nodes(points), dead)
        near = dense_in_range(snap)
        rows, cols, _ = snap._edges
        assert [rows.tolist(), cols.tolist()] == \
            [x.tolist() for x in np.nonzero(near)]
        assert snap.neighbor_lists == [np.flatnonzero(row).tolist()
                                       for row in near]
        assert snap.degrees().tolist() == near.sum(axis=1).tolist()
        sums = snap.neighbor_sums(values)
        assert sums.tolist() == [float(sum(values[row].tolist()))
                                 for row in near]


class TestTrafficInterference:
    def test_isolated_node(self):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (900.0, 900.0)]))
        assert traffic_interference(dense_in_range(snap), [0, 0], 0) == 0

    def test_direct_sum(self):
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0),
                            (-100.0, 0.0), (900.0, 900.0)])
        snap = full_snapshot(nodes)
        assert traffic_interference(dense_in_range(snap), [0, 2, 0, 3, 0],
                                    0) == 5

    def test_unknown_node_rejected(self):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (10.0, 0.0)]))
        with pytest.raises(KeyError):
            traffic_interference(dense_in_range(snap), [0, 0], 7)

    def test_matches_recount_from_route_table(self):
        # activities derived from a random live-route list, then interference
        # cross-checked against a brute-force recount over that list
        rng = random.Random(13)
        nodes = random_nodes(rng, n=8, area=400.0)
        routes, activity = [], [0] * 8
        for _ in range(6):
            route = rng.sample(range(8), rng.randint(2, 5))
            routes.append(route)
            for m in route[1:-1]:
                activity[m] += 1
        snap = full_snapshot(nodes)
        for node in range(8):
            expected = sum(sum(1 for r in routes if m in r[1:-1])
                           for m in snap.neighbor_lists[node])
            assert traffic_interference(dense_in_range(snap), activity,
                                        node) == expected

