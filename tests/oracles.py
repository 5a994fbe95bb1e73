"""The scalar reference rules the tests compare the engine against, one
per rule of the model, and the fixtures more than one test module uses.
Where a rule meets a measured floating-point trap (ROADMAP, "Reference:
measured traps"), its docstring names the trap and the test guarding it.
Test modules import from here, never from one another."""

import heapq
import math
import pathlib
from collections import deque
from functools import cached_property

import numpy as np

from manetsim import energy
from manetsim.energy import (CATEGORIES, DeadNodeError, airtime,
                             broadcast_tx_power, tx_power)
from manetsim.engine import write_packets_csv, write_routes_csv
from manetsim.mobility import Nodes
from manetsim.topology import TopologySnapshot, snapshot


def make_nodes(positions, speed=0.0, heading=0.0, waypoints=None):
    """The node state of a test: nodes at the given (x, y) positions, with
    one speed and heading for all or one each, and each waypoint at its
    node's position unless given."""
    n = len(positions)

    def pairs(points):
        return np.array(points, dtype=float).reshape(n, 2).T.copy()

    def column(values):
        return np.broadcast_to(np.asarray(values, dtype=float), n).copy()
    x, y = pairs(positions)
    wx, wy = pairs(positions if waypoints is None else waypoints)
    return Nodes(x, y, column(speed), column(heading), wx, wy)


def velocity(nodes, i):
    """Node i's velocity (vx, vy) from its speed and heading."""
    return (nodes.speed[i] * math.cos(nodes.heading[i]),
            nodes.speed[i] * math.sin(nodes.heading[i]))


def link_expiration_time(nodes, i, j, r):
    """Predicted time until nodes i and j move out of range r: the scalar
    oracle for TopologySnapshot.let.

    Assumes both keep their current velocity. Returns math.inf when the
    relative velocity is zero. The pair must currently be within range.
    """
    b = nodes.x[i] - nodes.x[j]
    d = nodes.y[i] - nodes.y[j]
    if b * b + d * d > r * r * (1.0 + 1e-12):
        raise ValueError(f"nodes {i} and {j} are not neighbors")
    vxi, vyi = velocity(nodes, i)
    vxj, vyj = velocity(nodes, j)
    a = vxi - vxj
    c = vyi - vyj
    k = a * a + c * c
    if k == 0.0:
        return math.inf
    radicand = k * r * r - (a * d - b * c) ** 2
    if radicand < 0.0:
        # cannot happen while dist <= r except for rounding noise
        assert radicand > -1e-9, f"negative radicand {radicand}"
        radicand = 0.0
    return (-(a * b + c * d) + math.sqrt(radicand)) / k


def stepping_let_oracle(nodes, i, j, r, step=1e-3, horizon=4000.0):
    """Advance both nodes at constant velocity in 1 ms steps; return the
    first time their distance exceeds r, or horizon if they stay in range.

    Evaluated in chunks with numpy purely for speed; the check is still a
    plain step-by-step scan.
    """
    vxi, vyi = velocity(nodes, i)
    vxj, vyj = velocity(nodes, j)
    dx0 = nodes.x[i] - nodes.x[j]
    dy0 = nodes.y[i] - nodes.y[j]
    ax, ay = vxi - vxj, vyi - vyj
    chunk = 65_536
    start = 0
    total = int(round(horizon / step))
    while start <= total:
        t = np.arange(start, min(start + chunk, total + 1)) * step
        out = (dx0 + ax * t) ** 2 + (dy0 + ay * t) ** 2 > r * r
        hits = np.nonzero(out)[0]
        if len(hits):
            return float(t[hits[0]])
        start += len(t)
        chunk *= 4
    return horizon


def random_in_range_pair(rng, r):
    """Two nodes within range r of each other, with random velocities."""
    x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
    angle = rng.uniform(0, 2 * math.pi)
    dist = rng.uniform(0, r)
    speed_i, heading_i = rng.uniform(0, 50), rng.uniform(0, 2 * math.pi)
    speed_j, heading_j = rng.uniform(0, 50), rng.uniform(0, 2 * math.pi)
    return make_nodes([(x, y), (x + dist * math.cos(angle),
                                y + dist * math.sin(angle))],
                      speed=[speed_i, speed_j], heading=[heading_i, heading_j])


def draw_leg(x, y, config, rng):
    """A fresh leg for a node at (x, y), on Python floats: its waypoint,
    speed and heading, drawn as the random waypoint model does."""
    w, h = config.area
    wx, wy = rng.uniform(0.0, w), rng.uniform(0.0, h)
    speed = config.v_max - rng.uniform(0.0, config.v_max - config.min_speed)
    heading = math.atan2(wy - y, wx - x) % (2.0 * math.pi)
    return wx, wy, speed, heading


def advance_oracle(nodes, dt, config, rng):
    """The random waypoint step, node by node in id order on Python floats,
    each node walking leg after leg until dt is spent; `advance` must match
    it bit for bit, rng draws included. Trap: `math.hypot` per node, not
    np.hypot (test_matches_the_per_node_loop_over_a_run)."""
    columns = (nodes.x, nodes.y, nodes.speed, nodes.heading, nodes.wx,
               nodes.wy)
    for i in range(len(nodes.x)):
        x, y, speed, heading, wx, wy = (float(a[i]) for a in columns)
        remaining = dt
        while remaining > 0.0:
            dist_wp = math.hypot(wx - x, wy - y)
            step = speed * remaining
            if step < dist_wp:
                frac = step / dist_wp
                x, y = x + (wx - x) * frac, y + (wy - y) * frac
                break
            x, y = wx, wy
            remaining -= dist_wp / speed if speed > 0 else remaining
            wx, wy, speed, heading = draw_leg(x, y, config, rng)
        for a, value in zip(columns, (x, y, speed, heading, wx, wy)):
            a[i] = value


def random_nodes(rng, n=50, area=1000.0, v_max=20.0):
    """n nodes at uniform positions, speeds in (0.01, v_max) and headings."""
    positions, speeds, headings = [], [], []
    for _ in range(n):
        positions.append((rng.uniform(0, area), rng.uniform(0, area)))
        speeds.append(rng.uniform(0.01, v_max))
        headings.append(rng.uniform(0, 2 * math.pi))
    return make_nodes(positions, speeds, headings)


def random_static_nodes(rng, n=50, area=1000.0):
    """n standing nodes at uniform positions in the square."""
    return make_nodes([(rng.uniform(0, area), rng.uniform(0, area))
                       for _ in range(n)])


def full_snapshot(nodes, dead=()):
    """Snapshot at r = 250 m and t = 0 with 1500 J left on every node but
    the dead ones."""
    residual = [0.0 if i in dead else 1500.0 for i in range(len(nodes.x))]
    return snapshot(nodes, residual, 250.0, 0.0)


def dense_dist(snap):
    """Pairwise distances as an n x n matrix, the one distance formula over
    every pair: the oracle for what the snapshot answers per pair. Trap: no
    hypot rounds like it (test_distance_equals_dist_exactly)."""
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
    adjacency near: the scalar oracle for LBR's `neighbor_sums(act)`. Trap:
    an integer sum, exact in any order, unlike float row sums
    (test_edge_list_equals_the_dense_oracle)."""
    if not 0 <= node < len(near):
        raise KeyError(f"unknown node id {node}")
    return sum(activity[j] for j in np.nonzero(near[node])[0])


def rreq_bytes(recorded_hops):
    """Size of an RREQ that has recorded the given hop count: the oracle
    for the sizes charge_route_discovery computes for every node at once."""
    return energy.RREQ_BASE_BYTES + energy.RREQ_HOP_BYTES * recorded_hops


def grand_total(ledger):
    """Energy spent by every node together. Trap: builtin sum compensates
    from Python 3.12, so compare only with approx or another grand_total."""
    return sum(ledger.node_totals())


def ledger_balances(ledger):
    """Whether every node's books balance: its category entries sum to what
    it spent to within 1e-9 of the initial battery, its residual is not
    negative, and a dead node's residual is exactly zero. (initial -
    residual == total holds for any ledger, since total is derived that
    way.)"""
    tol = 1e-9 * ledger.initial_battery
    return all(
        abs(math.fsum(ledger.entries[cat][n] for cat in CATEGORIES)
            - ledger.total(n)) <= tol
        and ledger.residual(n) >= 0.0
        and (ledger.died[n] is None and n not in ledger.newly_dead
             or ledger.residual(n) == 0.0)
        for n in range(ledger.node_count))


def debit(ledger, node, category, joules):
    """The debit rule on one debit, written out on the ledger's state: the
    scalar oracle for debit_all, and the single debit the tests charge
    with."""
    joules = float(joules)  # keep numpy scalars out of the ledger
    if joules < 0.0:
        raise ValueError("negative debit")
    remaining = ledger._residual[node]
    if remaining <= 0.0:
        raise DeadNodeError(f"node {node} is dead")
    if joules >= remaining:
        joules = remaining
        ledger._residual[node] = 0.0
        ledger.newly_dead.append(node)
    else:
        ledger._residual[node] = remaining - joules
    ledger.entries[category][node] += joules


def unicast_exchange_oracle(hop_lengths, nbytes, model):
    """The per-hop scalar loop over tx_power: the oracle for
    unicast_exchange, one 4-tuple per hop in the debit order data_tx, mac,
    data_rx, mac. Trap: pass Python floats, so that tx_power's `d ** 4` is
    Python's, not numpy's (test_fourth_power_is_pythons_not_numpys)."""
    p_rx = energy.RX_POWER
    bitrate = model.bitrate
    t_payload = 8.0 * nbytes / bitrate
    t_rts = 8.0 * energy.RTS_BYTES / bitrate
    t_cts_ack = (8.0 * energy.CTS_BYTES / bitrate
                 + 8.0 * energy.ACK_BYTES / bitrate)
    rx_payload = p_rx * t_payload
    rx_rts = p_rx * t_rts
    rx_cts_ack = p_rx * t_cts_ack
    hops = []
    for d in hop_lengths:
        p_tx = tx_power(d, model)
        hops.append((p_tx * t_payload, p_tx * t_rts + rx_cts_ack,
                     rx_payload, rx_rts + p_tx * t_cts_ack))
    return hops


def charge_broadcast(ledger, sender, neighbor_ids, nbytes, model,
                     category="beacon"):
    """Charge one local broadcast: the sender at full-range power, each live
    neighbor its reception. The per-node oracle for charge_beacon_round."""
    if not ledger.alive(sender):
        raise DeadNodeError(f"broadcast from dead node {sender}")
    t = airtime(nbytes, model)
    debit(ledger, sender, category, broadcast_tx_power(model) * t)
    rx_energy = energy.RX_POWER * t
    for j in neighbor_ids:
        if ledger.alive(j):
            debit(ledger, j, category, rx_energy)


def flood_oracle(snap, alive, source, model):
    """The discovery joules of one RREQ flood from source, per node, from a
    BFS over the dense adjacency and byte counts in Python integers: a node
    alive in the ledger that the flood reaches sends an RREQ of its recorded
    hops and hears the RREQs of its neighbours; every other node pays 0.
    Trap: heard bytes are an integer neighbour sum (TestFloodOracle)."""
    near = dense_in_range(snap)
    depth = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(near[u]).tolist():
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    sent = [rreq_bytes(depth[u]) if u in depth and alive[u] else 0
            for u in range(snap.n)]
    joules = []
    for u in range(snap.n):
        heard = sum(sent[v] for v in np.flatnonzero(near[u]).tolist())
        joules.append(0.0 if not sent[u] else
                      broadcast_tx_power(model) * (8.0 * sent[u] / model.bitrate)
                      + energy.RX_POWER * (8.0 * heard / model.bitrate))
    return joules


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
    """Every simple s-d path over the snapshot's neighbour lists."""
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


def oracle_route(protocol, snap, activity, s, d):
    """The enumeration oracle of `protocol`: (path, metric) or None. Each
    simple s-d path scores FORP's smallest LET, MMBCR's smallest
    intermediate residual (+inf if none) or LBR's sum over intermediates of
    own plus neighbours' activity; the best score (largest, smallest for
    LBR) wins, then fewest hops, then the smallest path."""
    near = adjacency(snap)
    sign, metric = {
        "FORP": (-1, lambda p: min(edge_let(snap, u, v)
                                   for u, v in zip(p[:-1], p[1:]))),
        "MMBCR": (-1, lambda p: min((snap.residual[m] for m in p[1:-1]),
                                    default=math.inf)),
        "LBR": (1, lambda p: sum(activity[m]
                                 + traffic_interference(near, activity, m)
                                 for m in p[1:-1])),
    }[protocol]
    scored = [(metric(p), p) for p in all_simple_paths(snap, s, d)]
    if not scored:
        return None
    value, path = min(scored, key=lambda sp: (sign * sp[0], len(sp[1]), sp[1]))
    return path, value


def random_instance(rng):
    """A random GraphSnap of 2-8 nodes: (snap, activity, 0, n - 1)."""
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


def least_cost_path_full(nbrs, cost, s, d):
    """LBR's least-cost s-d path, by a Dijkstra from d over dict labels that
    labels d's whole component before the walk from s: entering a node
    other than d costs cost[node], ties go to fewer hops, then to the
    smallest next node. The oracle for _least_cost_path, which stops once s
    is settled; it does not share that stop."""
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
    searches: (path, bottleneck) or None. FORP's and MMBCR's rule: the
    largest bottleneck, then fewest hops, then the smallest path."""
    bottleneck = best_bottleneck_oracle(links, s, d)
    if bottleneck is None:
        return None
    # the links at or above the bottleneck carry exactly the optimal paths
    path = min_hop_lex_path_oracle(
        lambda u: [v for v, w in links(u) if w >= bottleneck], s, d)
    return path, bottleneck


def write_run_csvs(result, directory):
    """Write the per-run CSVs of result into directory, made if missing;
    returns the paths of packets.csv, routes.csv and ledger.csv."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    packets, routes, ledger = (directory / name for name in
                               ("packets.csv", "routes.csv", "ledger.csv"))
    write_packets_csv(result, packets)
    write_routes_csv(result, routes)
    result.ledger.write_csv(ledger)
    return packets, routes, ledger
