"""Route selection disciplines versus exhaustive path enumeration."""

import heapq
import math
import random
from collections import deque
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.energy import EnergyLedger, PowerModel, charge_route_discovery
from manetsim.protocols import (Route, _least_cost_path, select_route,
                                widest_path)
from manetsim.topology import TopologySnapshot, snapshot

from test_mobility import make_nodes
from test_topology import dense_in_range, traffic_interference


class GraphSnap:
    """Minimal snapshot stand-in: an explicit edge list with optional LETs
    (+inf each by default) and residual batteries (1500 J each by default,
    0 for the dead).

    Its dense mask `near` is the oracle; `_edges` cuts it into runs as
    TopologySnapshot does, and the neighbour lists and neighbour sums
    select_route reads are the engine's own TopologySnapshot code, run on
    that edge list. The LETs are rows parallel to the neighbour lists, the
    form TopologySnapshot.let has.
    """

    _by_node = TopologySnapshot._by_node
    neighbor_lists = TopologySnapshot.neighbor_lists
    neighbor_sums = TopologySnapshot.neighbor_sums

    def __init__(self, n, edges, lets=None, residual=None, time=0.0,
                 dead=()):
        self.n = n
        self.time = time
        self.r = 250.0
        self.edges = list(edges)
        self.lets = lets
        self.residual = [0.0 if i in dead else b for i, b in
                         enumerate(residual or [1500.0] * n)]
        self.alive = np.array(self.residual) > 0.0
        self.near = np.zeros((n, n), dtype=bool)
        width = {}
        for idx, (i, j) in enumerate(edges):
            self.near[i, j] = self.near[j, i] = True
            w = math.inf if lets is None else lets[idx]
            width[i, j] = width[j, i] = w
        self.near &= self.alive[:, None] & self.alive[None, :]
        self.let = [[width[u, v] for v in nbrs]
                    for u, nbrs in enumerate(self.neighbor_lists)]

    @cached_property
    def _edges(self):
        rows, cols = np.nonzero(self.near)
        ends = np.cumsum(np.bincount(rows, minlength=self.n)).tolist()
        return rows, cols, list(zip([0] + ends, ends))


def adjacency(snap):
    """The dense oracle of a snapshot's edge list: a GraphSnap's own mask,
    or dense_in_range of a TopologySnapshot."""
    return snap.near if isinstance(snap, GraphSnap) else dense_in_range(snap)


def edge_let(snap, u, v):
    """The LET of the link u-v, from the snapshot's rows."""
    return snap.let[u][snap.neighbor_lists[u].index(v)]


def all_simple_paths(snap, s, d):
    paths = []

    def extend(path):
        u = path[-1]
        if u == d:
            paths.append(tuple(path))
            return
        for v in snap.neighbor_lists[u]:
            if v not in path:
                path.append(v)
                extend(path)
                path.pop()

    extend([s])
    return paths


def oracle_forp(snap, s, d):
    paths = all_simple_paths(snap, s, d)
    if not paths:
        return None
    scored = [(min(edge_let(snap, u, v) for u, v in zip(p[:-1], p[1:])), p)
              for p in paths]
    best = min(scored, key=lambda sp: (-sp[0], len(sp[1]), sp[1]))
    return best[1], best[0]


def oracle_mmbcr(snap, s, d):
    paths = all_simple_paths(snap, s, d)
    if not paths:
        return None
    scored = [(min((snap.residual[m] for m in p[1:-1]), default=math.inf), p)
              for p in paths]
    best = min(scored, key=lambda sp: (-sp[0], len(sp[1]), sp[1]))
    return best[1], best[0]


def oracle_lbr(snap, activity, s, d):
    paths = all_simple_paths(snap, s, d)
    if not paths:
        return None
    near = adjacency(snap)
    scored = [(sum(activity[m] + traffic_interference(near, activity, m)
                   for m in p[1:-1]), p)
              for p in paths]
    best = min(scored, key=lambda sp: (sp[0], len(sp[1]), sp[1]))
    return best[1], best[0]


def oracle_route(protocol, snap, activity, s, d):
    """The enumeration oracle of `protocol`: (path, metric) or None."""
    if protocol == "LBR":
        return oracle_lbr(snap, activity, s, d)
    oracle = {"FORP": oracle_forp, "MMBCR": oracle_mmbcr}[protocol]
    return oracle(snap, s, d)


def random_instance(rng):
    n = rng.randint(2, 8)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < rng.uniform(0.3, 0.8)]
    # small integer weights on purpose: ties must be broken identically
    lets = [math.inf if rng.random() < 0.1 else float(rng.randint(1, 5))
            for _ in edges]
    snap = GraphSnap(n, edges, lets,
                     residual=[float(rng.randint(1, 5)) for _ in range(n)])
    activity = [rng.randint(0, 3) for _ in range(n)]
    return snap, activity, 0, n - 1


def rows(adj):
    """A {node: {neighbour: width}} graph as widest_path's parallel rows:
    ascending neighbour ids and the widths of their links."""
    nbrs = [sorted(adj[u]) for u in range(len(adj))]
    return nbrs, [[adj[u][v] for v in row] for u, row in enumerate(nbrs)]


class TestWidestPath:
    def test_unique_path(self):
        adj = {0: {1: 5.0}, 1: {0: 5.0, 2: 3.0}, 2: {1: 3.0}}
        assert widest_path(*rows(adj), 0, 2) == ((0, 1, 2), 3.0)

    def test_diamond_prefers_wider_side(self):
        adj = {0: {1: 2.0, 2: 9.0}, 1: {0: 2.0, 3: 9.0},
               2: {0: 9.0, 3: 9.0}, 3: {1: 9.0, 2: 9.0}}
        assert widest_path(*rows(adj), 0, 3) == ((0, 2, 3), 9.0)

    def test_disconnected_returns_none(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        assert widest_path(*rows(adj), 0, 2) is None

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            widest_path([[]], [[]], 0, 0)


class TestSelectForp:
    def test_prefers_higher_bottleneck(self):
        # paths 0-1-3 (LETs 10, 40) and 0-2-3 (LETs 25, 30): RET 10 vs 25
        snap = GraphSnap(4, [(0, 1), (1, 3), (0, 2), (2, 3)],
                         [10.0, 40.0, 25.0, 30.0])
        route = select_route("FORP", snap, None, 0, 3)
        assert route.nodes == (0, 2, 3)
        assert route.metric_value == 25.0

    def test_single_link(self):
        snap = GraphSnap(2, [(0, 1)], [7.0])
        route = select_route("FORP", snap, None, 0, 1)
        assert route.nodes == (0, 1)
        assert route.metric_value == 7.0

    def test_infinite_let_beats_finite(self):
        snap = GraphSnap(4, [(0, 1), (1, 3), (0, 2), (2, 3)],
                         [math.inf, math.inf, 100.0, 100.0])
        route = select_route("FORP", snap, None, 0, 3)
        assert route.nodes == (0, 1, 3)
        assert route.metric_value == math.inf

    def test_disconnected(self):
        snap = GraphSnap(3, [(0, 1)], [5.0])
        assert select_route("FORP", snap, None, 0, 2) is None

    def test_dead_endpoint_rejected(self):
        snap = GraphSnap(2, [(0, 1)], [5.0], dead={1})
        with pytest.raises(ValueError):
            select_route("FORP", snap, None, 0, 1)


class TestSelectMmbcr:
    def test_max_min_battery(self):
        # intermediates {3, 5} J vs {4, 4} J: bottleneck 3 vs 4
        snap = GraphSnap(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
                         residual=[9.0, 3.0, 5.0, 4.0, 4.0, 9.0])
        route = select_route("MMBCR", snap, None, 0, 5)
        assert route.nodes == (0, 3, 4, 5)
        assert route.metric_value == 4.0

    def test_direct_edge_always_wins(self):
        snap = GraphSnap(3, [(0, 2), (0, 1), (1, 2)],
                         residual=[1.0, 1e9, 1.0])
        route = select_route("MMBCR", snap, None, 0, 2)
        assert route.nodes == (0, 2)
        assert route.metric_value == math.inf

    def test_endpoint_batteries_ignored(self):
        snap = GraphSnap(3, [(0, 1), (1, 2)], residual=[0.5, 8.0, 0.5])
        route = select_route("MMBCR", snap, None, 0, 2)
        assert route.metric_value == 8.0


class TestSelectLbr:
    def test_direct_edge_costs_zero(self):
        snap = GraphSnap(3, [(0, 2), (0, 1), (1, 2)])
        route = select_route("LBR", snap, [5, 5, 5], 0, 2)
        assert route.nodes == (0, 2)
        assert route.metric_value == 0.0

    def test_busy_relay_avoided(self):
        # 0-1-4 with busy relay 1 vs 0-2-3-4 with idle relays
        snap = GraphSnap(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        route = select_route("LBR", snap, [0, 6, 1, 0, 0], 0, 4)
        assert route.nodes == (0, 2, 3, 4)
        # cost: node 2 = 1 + 0, node 3 = 0 + interference(act of 2) = 1
        assert route.metric_value == 2.0

    def test_interference_from_off_path_neighbor(self):
        # relays 1 and 2 are both idle, but 2 neighbors a busy node 3
        snap = GraphSnap(5, [(0, 1), (1, 4), (0, 2), (2, 4), (2, 3)])
        route = select_route("LBR", snap, [0, 0, 0, 7, 0], 0, 4)
        assert route.nodes == (0, 1, 4)
        assert route.metric_value == 0.0

    def test_all_idle_reduces_to_min_hops_lex(self):
        snap = GraphSnap(5, [(0, 3), (3, 4), (0, 1), (1, 4), (0, 2), (2, 4)])
        route = select_route("LBR", snap, [0] * 5, 0, 4)
        assert route.nodes == (0, 1, 4)  # two hops, smallest relay id


class TestEnumerationOracles:
    def test_forp_matches_oracle_on_500_graphs(self):
        rng = random.Random(501)
        for _ in range(500):
            snap, _, s, d = random_instance(rng)
            expected = oracle_forp(snap, s, d)
            route = select_route("FORP", snap, None, s, d)
            if expected is None:
                assert route is None
            else:
                assert route.nodes == expected[0]
                assert route.metric_value == expected[1]

    def test_mmbcr_matches_oracle_on_500_graphs(self):
        rng = random.Random(502)
        for _ in range(500):
            snap, _, s, d = random_instance(rng)
            expected = oracle_mmbcr(snap, s, d)
            route = select_route("MMBCR", snap, None, s, d)
            if expected is None:
                assert route is None
            else:
                assert route.nodes == expected[0]
                assert route.metric_value == expected[1]

    def test_lbr_matches_oracle_on_500_graphs(self):
        rng = random.Random(503)
        for _ in range(500):
            snap, activity, s, d = random_instance(rng)
            expected = oracle_lbr(snap, activity, s, d)
            route = select_route("LBR", snap, activity, s, d)
            if expected is None:
                assert route is None
            else:
                assert route.nodes == expected[0]
                assert route.metric_value == expected[1]


def least_cost_path_full(nbrs, cost, s, d):
    """_least_cost_path labelling d's whole component before the walk from
    s: the oracle for its stop once s is settled."""
    label = {d: (0.0, 0)}
    heap = [(0.0, 0, d)]
    done = set()
    while heap:
        cu, hu, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
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


class TestLeastCostEarlyStop:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           area=st.sampled_from([300.0, 600.0, 1000.0]),
           max_activity=st.integers(0, 4))
    def test_same_path_and_total_as_the_full_search(self, seed, n, area,
                                                    max_activity):
        rng = random.Random(seed)
        nodes = make_nodes([(rng.uniform(0, area), rng.uniform(0, area))
                            for _ in range(n)])
        residual = [0.0 if rng.random() < 0.1 else 1500.0 for _ in range(n)]
        snap = snapshot(nodes, residual, 250.0, 0.0)
        activity = [rng.randint(0, max_activity) for _ in range(n)]
        act = np.array(activity, dtype=float)
        cost = (act + dense_in_range(snap) @ act).tolist()  # LBR's weights
        s, d = rng.sample(range(n), 2)
        assert _least_cost_path(snap.neighbor_lists, cost, s, d) == \
            least_cost_path_full(snap.neighbor_lists, cost, s, d)


def best_bottleneck_oracle(links, s, d):
    """Widest s-d bottleneck over the (neighbour, width) pairs links(u),
    with dict and set labels: the oracle for widest_path's bottleneck
    search."""
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


def min_hop_lex_path_oracle(nbrs, s, d):
    """Lexicographically smallest minimum-hop s-d path over the graph whose
    neighbour lists nbrs(u) returns, or None."""
    hops = {d: 0}
    queue = deque([d])
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


def widest_path_oracle(links, s, d):
    """widest_path over the callable graph links(u), from the dict-labelled
    searches: (path, bottleneck) or None."""
    bottleneck = best_bottleneck_oracle(links, s, d)
    if bottleneck is None:
        return None
    # the links at or above the bottleneck carry exactly the optimal paths
    path = min_hop_lex_path_oracle(
        lambda u: [v for v, w in links(u) if w >= bottleneck], s, d)
    return path, bottleneck


def least_cost_path_oracle(nbrs, cost, s, d):
    """_least_cost_path with dict and set labels, stopping once s is
    settled: its oracle on the same early stop."""
    label = {d: (0.0, 0)}
    heap = [(0.0, 0, d)]
    done = set()
    while heap:
        cu, hu, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == s:
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


def small_width(rng):
    # few distinct values, so that ties must be broken identically
    return math.inf if rng.random() < 0.15 else float(rng.randint(1, 4))


def random_graph(rng):
    """A random graph with link widths that are the same both ways, as
    {node: {neighbour: width}}, and two distinct endpoints."""
    n = rng.randint(2, 12)
    p = rng.uniform(0.1, 0.7)
    adj = {u: {} for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u][v] = adj[v][u] = small_width(rng)
    s, d = rng.sample(range(n), 2)
    return adj, s, d


class TestKernelsAgainstDictOracles:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), node_weighted=st.booleans())
    def test_widest_path(self, seed, node_weighted):
        rng = random.Random(seed)
        adj, s, d = random_graph(rng)
        nbrs, widths = rows(adj)
        if node_weighted:
            # MMBCR's form: entering v costs its weight, the endpoints none
            weight = [small_width(rng) for _ in nbrs]
            weight[s] = weight[d] = math.inf
            widths = [[weight[v] for v in row] for row in nbrs]
        expected = widest_path_oracle(lambda u: zip(nbrs[u], widths[u]), s, d)
        assert widest_path(nbrs, widths, s, d) == expected

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_least_cost_path(self, seed):
        rng = random.Random(seed)
        adj, s, d = random_graph(rng)
        nbrs, _ = rows(adj)
        cost = [float(rng.randint(0, 3)) for _ in nbrs]
        assert _least_cost_path(nbrs, cost, s, d) == \
            least_cost_path_oracle(nbrs, cost, s, d)


class TestProperties:
    def test_monotone_transform_keeps_forp_choice(self):
        rng = random.Random(7)
        for _ in range(50):
            snap, _, s, d = random_instance(rng)
            before = select_route("FORP", snap, None, s, d)
            cubed = GraphSnap(snap.n, snap.edges,
                              [w ** 3 for w in snap.lets])
            after = select_route("FORP", cubed, None, s, d)
            if before is None:
                assert after is None
            else:
                assert after.nodes == before.nodes

    def test_monotone_transform_keeps_mmbcr_choice(self):
        rng = random.Random(8)
        for _ in range(50):
            snap, _, s, d = random_instance(rng)
            before = select_route("MMBCR", snap, None, s, d)
            snap.residual = [2.0 * b + 1.0 for b in snap.residual]
            after = select_route("MMBCR", snap, None, s, d)
            if before is None:
                assert after is None
            else:
                assert after.nodes == before.nodes

    def test_lbr_cost_nonnegative_and_zero_iff_idle_path(self):
        rng = random.Random(9)
        for _ in range(100):
            snap, activity, s, d = random_instance(rng)
            route = select_route("LBR", snap, activity, s, d)
            if route is None:
                continue
            assert route.metric_value >= 0.0
            idle = all(activity[m] == 0
                       and traffic_interference(snap.near, activity, m) == 0
                       for m in route.intermediates)
            assert (route.metric_value == 0.0) == idle

    def test_route_type_invariants(self):
        rng = random.Random(10)
        for _ in range(100):
            snap, activity, s, d = random_instance(rng)
            for proto in ("FORP", "LBR", "MMBCR"):
                route = select_route(proto, snap, activity, s, d, session=3)
                if route is None:
                    continue
                assert route.session == 3
                assert route.nodes[0] == s and route.nodes[-1] == d
                assert len(set(route.nodes)) == len(route.nodes)
                assert route.discovered_at == snap.time
                assert route.torn_down_at is None
                assert route.hops == len(route.nodes) - 1
                for u, v in zip(route.nodes[:-1], route.nodes[1:]):
                    assert snap.near[u, v]

    def test_select_route_dispatch(self):
        # one link, LET 5: each protocol scores it with its own metric
        snap = GraphSnap(2, [(0, 1)], [5.0])
        for proto, value in (("FORP", 5.0), ("LBR", 0.0),
                             ("MMBCR", math.inf)):
            route = select_route(proto, snap, [0, 0], 0, 1)
            assert isinstance(route, Route)
            assert (route.nodes, route.metric_value) == ((0, 1), value)
        with pytest.raises(ValueError):
            select_route("DSR", snap, [0, 0], 0, 1)


class TestSharedSnapshotStructures:
    def fresh_snapshot(self, seed, n, area):
        rng = random.Random(seed)
        positions, speeds, headings, residual, activity = [], [], [], [], []
        for _ in range(n):
            positions.append((rng.uniform(0, area), rng.uniform(0, area)))
            speeds.append(rng.uniform(1.0, 20.0))
            headings.append(rng.uniform(0, 2 * math.pi))
            residual.append(rng.uniform(1.0, 9.0))
            activity.append(rng.randint(0, 2))
        nodes = make_nodes(positions, speeds, headings)
        return snapshot(nodes, residual, 250.0, 0.0), activity

    def test_only_forp_builds_the_let_matrix(self):
        for seed in range(5):
            snap, activity = self.fresh_snapshot(seed, 30, 600.0)
            select_route("MMBCR", snap, None, 0, 29)
            select_route("LBR", snap, activity, 0, 29)
            charge_route_discovery(EnergyLedger(30, 1500.0), snap, 0, None,
                                   PowerModel())
            assert snap._let is None
            select_route("FORP", snap, None, 0, 29)
            assert snap._let is not None

    def test_selectors_on_real_snapshots_match_oracles(self):
        for seed in range(20):
            snap, activity = self.fresh_snapshot(seed, 8, 500.0)
            for proto in ("FORP", "MMBCR", "LBR"):
                route = select_route(proto, snap, activity, 0, 7)
                expected = oracle_route(proto, snap, activity, 0, 7)
                if expected is None:
                    assert route is None
                else:
                    assert route.nodes == expected[0]
                    assert route.metric_value == expected[1]
