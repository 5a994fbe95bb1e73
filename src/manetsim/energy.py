"""Per-hop power, packet airtime, and battery accounting."""

import math
from collections import deque

import numpy as np

from .config import write_csv

# The radio's fixed figures; the scenario's radio values (tpc, tx_range,
# bitrate, packet_size) come from the run's ScenarioConfig. Every function
# reads these at call time, so a study varies one with a single assignment.
FIXED_TX_POWER = 1.4        # W, used whenever TPC is off
RX_POWER = 0.967            # W
CIRCUIT_POWER = 1.1182      # W
DISTANCE_COEFF = 7.2e-11    # W / m^4
RTS_BYTES = 20
CTS_BYTES = 14
ACK_BYTES = 14
BEACON_BYTES = 32
RREQ_BASE_BYTES = 64
RREQ_HOP_BYTES = 8
RREP_BYTES = 64


def tx_power(d, config):
    """Transmission power for a hop of length d meters."""
    if not 0.0 <= d <= config.tx_range * (1.0 + 1e-12):
        raise ValueError(f"hop distance {d} outside [0, {config.tx_range}]")
    if not config.tpc:
        return FIXED_TX_POWER
    return CIRCUIT_POWER + DISTANCE_COEFF * d ** 4


def broadcast_tx_power(config):
    # broadcasts target every neighbor, so full-range power even with TPC
    return tx_power(config.tx_range, config)


def airtime(nbytes, config):
    """Seconds on air for a packet of nbytes."""
    if nbytes <= 0:
        raise ValueError(f"packet size must be positive, got {nbytes}")
    return 8.0 * nbytes / config.bitrate


def exchange_airtime(config):
    """Seconds on air of one RTS/CTS/DATA/ACK exchange: a hop's base service
    time."""
    return airtime(config.packet_size + RTS_BYTES + CTS_BYTES + ACK_BYTES,
                   config)


CATEGORIES = ("data_tx", "data_rx", "mac", "beacon", "discovery")
# what energy per packet counts: every category but the beacons, which are
# identical across protocols
METERED_CATEGORIES = ("data_tx", "data_rx", "mac", "discovery")


class DeadNodeError(Exception):
    """A charge was attempted against a node with an exhausted battery."""


class EnergyLedger:
    """Per-node cumulative energy, by category, with battery clamping.

    A debit that would overdraw a node's battery is truncated so the battery
    reaches exactly zero; the node is then dead and rejects further debits.
    `died[i]` is the time node i died, None while it is alive.
    """

    def __init__(self, node_count, initial_battery):
        self.node_count = node_count
        self.initial_battery = initial_battery
        self.entries = {cat: [0.0] * node_count for cat in CATEGORIES}
        self._residual = [initial_battery] * node_count
        self.newly_dead = deque()
        self.died = [None] * node_count

    def alive(self, node):
        return self._residual[node] > 0.0

    def residual(self, node):
        return self._residual[node]

    def residuals(self):
        """A copy of every node's residual battery, as a list of floats."""
        return list(self._residual)

    def alive_mask(self):
        """Boolean array: which nodes still have battery left."""
        return np.array(self._residual) > 0.0

    def debit_all(self, nodes, categories, joules):
        """Apply the debits nodes[i], categories[i], joules[i] in order; the
        three sequences must be equally long.

        A debit of at least its node's remaining battery is truncated to
        what remains, so the battery reaches exactly zero, and the node joins
        newly_dead. A negative debit, or a sequence that ends before the
        others, raises ValueError, a debit against a dead node DeadNodeError;
        the debits before it stay applied.
        """
        residual, entries = self._residual, self.entries
        for node, category, j in zip(nodes, categories, joules, strict=True):
            j = float(j)  # keep numpy scalars out of the ledger
            if j < 0.0:
                raise ValueError("negative debit")
            remaining = residual[node]
            if remaining <= 0.0:
                raise DeadNodeError(f"node {node} is dead")
            if j >= remaining:
                j = remaining
                self.newly_dead.append(node)
            residual[node] = remaining - j
            entries[category][node] += j

    def note_deaths(self, t):
        """Record t as the death time of each node in newly_dead, emptying
        it; True if there was one."""
        any_died = bool(self.newly_dead)
        while self.newly_dead:
            self.died[self.newly_dead.popleft()] = t
        return any_died

    def total(self, node):
        # derived from the residual accumulator, so that
        # initial - residual == total holds exactly; the per-category
        # entries sum to it only up to float accumulation order
        return self.initial_battery - self._residual[node]

    def category_total(self, category):
        return math.fsum(self.entries[category])

    def node_totals(self):
        return [self.total(i) for i in range(self.node_count)]

    def write_csv(self, path):
        write_csv(path, ("node_id", *(f"{cat}_J" for cat in CATEGORIES),
                         "total_J", "residual_J", "died_s"),
                  ((i, *(self.entries[cat][i] for cat in CATEGORIES),
                    self.total(i), self._residual[i], died)
                   for i, died in enumerate(self.died)))


# categories of an exchange's four joules, in unicast_exchange's order
DATA_EXCHANGE = ("data_tx", "mac", "data_rx", "mac")


def exchange_payers(senders, receivers):
    """Who pays each of unicast_exchange's joules, and under which category,
    for the data hops sent by senders[i] to receivers[i]: two parallel lists,
    payer nodes and their DATA_EXCHANGE categories, four entries per hop in
    unicast_exchange's order.
    """
    nodes = []
    for s, r in zip(senders, receivers, strict=True):
        nodes += (s, s, r, r)
    return nodes, list(DATA_EXCHANGE) * len(senders)


def unicast_exchange(hop_lengths, nbytes, config):
    """Joules of one RTS/CTS/payload/ACK exchange over each hop of the given
    lengths, as one flat list of four per hop: (sender payload, sender
    control, receiver payload, receiver control).

    The sender transmits RTS and the payload and receives CTS and ACK; the
    receiver mirrors that. exchange_payers names the node and category of
    each joule; callers apply the debits under their own policy for dead
    nodes.
    """
    t_payload = airtime(nbytes, config)
    t_rts = airtime(RTS_BYTES, config)
    t_cts_ack = airtime(CTS_BYTES, config) + airtime(ACK_BYTES, config)
    p_rx = RX_POWER
    rx_payload, rx_rts, rx_cts_ack = (p_rx * t_payload, p_rx * t_rts,
                                      p_rx * t_cts_ack)
    joules = []
    for d in hop_lengths:
        p_tx = tx_power(d, config)
        joules += (p_tx * t_payload, p_tx * t_rts + rx_cts_ack,
                   rx_payload, rx_rts + p_tx * t_cts_ack)
    return joules


def charge_beacon_round(ledger, snap, config):
    """Charge one beacon from every live node in a single pass.

    Each live node pays one debit: its own full-range transmission plus the
    reception of each live neighbor's beacon.
    """
    t = airtime(BEACON_BYTES, config)
    tx_e = broadcast_tx_power(config) * t
    rx_e = RX_POWER * t
    charges = tx_e + rx_e * snap.degrees()
    alive = np.flatnonzero(ledger.alive_mask())
    ledger.debit_all(alive.tolist(), ("beacon",) * len(alive),
                     charges[alive].tolist())


def flood_depths(snap, source):
    """BFS hop counts from the flood source over the snapshot, as a list
    indexed by node: -1 for a node the flood does not reach."""
    nbrs = snap.neighbor_lists
    depths = [-1] * snap.n
    depths[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for v in nbrs[u]:
                if depths[v] < 0:
                    depths[v] = depth
                    reached.append(v)
        frontier = reached
    return depths


def discovery_latency(hops, config):
    """Flood-out plus RREP-back latency for a freshly found route."""
    if hops < 1:
        raise ValueError("route must have at least one hop")
    return 2.0 * hops * (airtime(RREQ_BASE_BYTES, config)
                         + config.forwarding_overhead)


def charge_route_discovery(ledger, snap, source, route, config):
    """Charge one flood-based discovery, plus, when a route was found, RREP
    unicast hops back along it. Every live node the flood reaches rebroadcasts
    the RREQ, sized by its recorded hop count, and hears each live neighbour's
    rebroadcast; the bytes heard are integer sums, so exact in any order.

    The RREP hops are debited from the source end first: the hop between
    the source and the first relay, then on towards the destination,
    although the reply travels from the destination. The order decides
    which hops a node that runs out during the reply still takes part in,
    and the rounding of each relay's two debits."""
    depths = np.array(flood_depths(snap, source))
    payers = np.flatnonzero((depths >= 0) & ledger.alive_mask())
    sent = np.zeros(snap.n, dtype=np.int64)  # bytes of each payer's RREQ
    sent[payers] = RREQ_BASE_BYTES + RREQ_HOP_BYTES * depths[payers]
    heard = snap.neighbor_sums(sent)[payers]
    # not airtime(), which rejects the 0 bytes an isolated source hears
    charges = (broadcast_tx_power(config) * (8.0 * sent[payers] / config.bitrate)
               + RX_POWER * (8.0 * heard / config.bitrate))
    ledger.debit_all(payers.tolist(), ("discovery",) * len(payers),
                     charges.tolist())
    if route is None:
        return
    # each RREP hop is sent by its head to its tail; a hop with a dead end
    # at its start is skipped
    tails, heads = route.nodes[:-1], route.nodes[1:]
    lengths = snap.distance(list(tails), list(heads)).tolist()
    joules = unicast_exchange(lengths, RREP_BYTES, config)
    for i, (tail, head) in enumerate(zip(tails, heads)):  # source end first
        if not (ledger.alive(head) and ledger.alive(tail)):
            continue
        for node, k in ((head, 4 * i), (tail, 4 * i + 2)):
            try:
                ledger.debit_all((node, node), ("discovery",) * 2,
                                 joules[k:k + 2])
            except DeadNodeError:
                # its first debit exhausted the node, which pays nothing
                # more in this hop; its partner still pays
                pass
