"""Per-hop power, packet airtime, and battery accounting."""

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerModel:
    tpc: bool = False
    fixed_tx_power: float = 1.4        # W, used whenever TPC is off
    rx_power: float = 0.967            # W
    circuit_power: float = 1.1182      # W
    distance_coeff: float = 7.2e-11    # W / m^4
    max_range: float = 250.0           # m
    bitrate: float = 2.0e6             # bits/s
    data_bytes: int = 512
    rts_bytes: int = 20
    cts_bytes: int = 14
    ack_bytes: int = 14
    beacon_bytes: int = 32
    rreq_base_bytes: int = 64
    rreq_hop_bytes: int = 8
    rrep_bytes: int = 64

    @classmethod
    def from_config(cls, config):
        return cls(tpc=config.tpc, max_range=config.tx_range,
                   bitrate=config.bitrate, data_bytes=config.packet_size)


def tx_power(d, model: PowerModel):
    """Transmission power for a hop of length d meters."""
    if not 0.0 <= d <= model.max_range * (1.0 + 1e-12):
        raise ValueError(f"hop distance {d} outside [0, {model.max_range}]")
    if not model.tpc:
        return model.fixed_tx_power
    return model.circuit_power + model.distance_coeff * d ** 4


def broadcast_tx_power(model: PowerModel):
    # broadcasts target every neighbor, so full-range power even with TPC
    return tx_power(model.max_range, model)


def airtime(nbytes, model: PowerModel):
    """Seconds on air for a packet of nbytes."""
    if nbytes <= 0:
        raise ValueError(f"packet size must be positive, got {nbytes}")
    return 8.0 * nbytes / model.bitrate


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
        newly_dead. A negative debit raises ValueError, a debit against a
        dead node DeadNodeError; the debits before it stay applied.
        """
        residual, entries = self._residual, self.entries
        for node, category, j in zip(nodes, categories, joules):
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
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("node_id", *(f"{cat}_J" for cat in CATEGORIES),
                             "total_J", "residual_J", "died_s"))
            for i, died in enumerate(self.died):
                row = [i] + [repr(self.entries[cat][i]) for cat in CATEGORIES]
                row += [repr(self.total(i)), repr(self._residual[i]),
                        "" if died is None else repr(died)]
                writer.writerow(row)


# categories of an exchange's four joules, in unicast_exchange's order
DATA_EXCHANGE = ("data_tx", "mac", "data_rx", "mac")


def exchange_payers(senders, receivers, categories):
    """Who pays each of unicast_exchange's joules, and under which category,
    for the hops sent by senders[i] to receivers[i]: two parallel lists,
    payer nodes and their categories, four entries per hop in
    unicast_exchange's order.
    """
    nodes = []
    for s, r in zip(senders, receivers, strict=True):
        nodes += (s, s, r, r)
    return nodes, list(categories) * len(senders)


def unicast_exchange(hop_lengths, nbytes, model):
    """Joules of one RTS/CTS/payload/ACK exchange over each hop of the given
    lengths, as one flat list of four per hop: (sender payload, sender
    control, receiver payload, receiver control).

    The sender transmits RTS and the payload and receives CTS and ACK; the
    receiver mirrors that. exchange_payers names the node and category of
    each joule; callers apply the debits under their own policy for dead
    nodes.
    """
    t_payload = airtime(nbytes, model)
    t_rts = airtime(model.rts_bytes, model)
    t_cts_ack = airtime(model.cts_bytes, model) + airtime(model.ack_bytes, model)
    p_rx = model.rx_power
    rx_payload, rx_rts, rx_cts_ack = (p_rx * t_payload, p_rx * t_rts,
                                      p_rx * t_cts_ack)
    joules = []
    for d in hop_lengths:
        p_tx = tx_power(d, model)
        joules += (p_tx * t_payload, p_tx * t_rts + rx_cts_ack,
                   rx_payload, rx_rts + p_tx * t_cts_ack)
    return joules


def charge_beacon_round(ledger, snap, model):
    """Charge one beacon from every live node in a single pass.

    Each live node pays one debit: its own full-range transmission plus the
    reception of each live neighbor's beacon.
    """
    t = airtime(model.beacon_bytes, model)
    tx_e = broadcast_tx_power(model) * t
    rx_e = model.rx_power * t
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


def charge_route_discovery(ledger, snap, source, route, model):
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
    sent[payers] = model.rreq_base_bytes + model.rreq_hop_bytes * depths[payers]
    heard = snap.neighbor_sums(sent)[payers]
    # not airtime(), which rejects the 0 bytes an isolated source hears
    charges = (broadcast_tx_power(model) * (8.0 * sent[payers] / model.bitrate)
               + model.rx_power * (8.0 * heard / model.bitrate))
    ledger.debit_all(payers.tolist(), ("discovery",) * len(payers),
                     charges.tolist())
    if route is None:
        return
    # each RREP hop is sent by its head to its tail; a hop with a dead end
    # at its start is skipped
    tails, heads = route.nodes[:-1], route.nodes[1:]
    lengths = snap.distance(list(tails), list(heads)).tolist()
    joules = unicast_exchange(lengths, model.rrep_bytes, model)
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
