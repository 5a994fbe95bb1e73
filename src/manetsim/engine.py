"""Tick-driven simulation loop: mobility, routing, traffic, energy, delay."""

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import mobility as mob
from .config import ConfigError, ScenarioConfig
from .energy import (DATA_EXCHANGE, DeadNodeError, EnergyLedger, PowerModel,
                     airtime, charge_beacon_round, charge_route_discovery,
                     exchange_payers, unicast_exchange)
from .protocols import select_route
from .topology import snapshot

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass
class Session:
    id: int
    source: int
    destination: int
    start: float


@dataclass
class PacketRecord:
    session: int
    seq: int
    created_at: float
    delivered_at: float = None     # None when dropped
    hops_traversed: int = 0
    buffering: float = 0.0         # route-acquisition wait, seconds
    base_service: float = 0.0      # sum of per-hop airtimes
    contention_service: float = 0.0  # sum of per-hop airtime * contention count
    propagation: float = 0.0

    def service(self, kappa):
        return self.base_service + kappa * self.contention_service

    def total_delay(self, kappa):
        return self.buffering + self.service(kappa) + self.propagation

    @property
    def delivered(self):
        return self.delivered_at is not None


@dataclass
class RunResult:
    config: ScenarioConfig
    ledger: EnergyLedger
    packets: list
    routes: list
    sessions: list
    end_time: float = 0.0

    @property
    def first_failure_time(self):
        """When the first node died, None if none did."""
        return min((t for t in self.ledger.died if t is not None),
                   default=None)


def make_sessions(config, rng):
    lo, hi = config.start_window
    sessions = []
    for sid in range(config.session_count):
        s = rng.randrange(config.node_count)
        d = rng.randrange(config.node_count)
        while d == s:
            d = rng.randrange(config.node_count)
        sessions.append(Session(id=sid, source=s, destination=d,
                                start=rng.uniform(lo, hi)))
    return sessions


def tick_count(horizon, tick):
    """Ticks a run to `horizon` seconds executes: tick k happens at
    k * tick, and the run stops before the first k >= 1 at which
    k * tick >= horizon, to within 1 ns."""
    k = max(1, math.ceil((horizon - 1e-9) / tick))
    while k > 1 and (k - 1) * tick >= horizon - 1e-9:
        k -= 1
    while k * tick < horizon - 1e-9:
        k += 1
    return k


def discovery_latency(hops, model, forwarding_overhead):
    """Flood-out plus RREP-back latency for a freshly found route."""
    if hops < 1:
        raise ValueError("route must have at least one hop")
    return 2.0 * hops * (airtime(model.rreq_base_bytes, model) + forwarding_overhead)


@dataclass
class _SessionState:
    session: Session
    route: object = None
    hop_ends: np.ndarray = None      # (2, hops) array: each hop's tail, head
    payer_nodes: list = None         # node and category of each debit of a
    payer_categories: list = None    # packet, as exchange_payers lays them out
    buffer: deque = None             # maxlen buffer_cap: drops the oldest
    next_pkt_time: float = None
    next_retry_time: float = 0.0
    seq: int = 0

    def follow(self, route):
        """Adopt a freshly discovered route and cache what every tick that
        sends over it reads."""
        self.route = route
        tails, heads = route.nodes[:-1], route.nodes[1:]
        self.hop_ends = np.array((tails, heads))
        self.payer_nodes, self.payer_categories = exchange_payers(
            tails, heads, DATA_EXCHANGE)


class Simulation:
    """One isolated run; owns all mutable state."""

    def __init__(self, config, trace=None, trace_out=None):
        config.validate()
        self.config = config
        m = self.model = PowerModel.from_config(config)
        # airtime of one RTS/CTS/DATA/ACK exchange: a hop's base service time
        self._exchange = airtime(m.data_bytes + m.rts_bytes + m.cts_bytes
                                 + m.ack_bytes, m)
        self.trace = trace
        self.trace_out = trace_out
        self.mob_rng = random.Random(f"mobility:{config.seed}")
        traffic_rng = random.Random(f"traffic:{config.seed}")
        self.nodes = mob.init_mobility(config, self.mob_rng)
        self.ticks = tick_count(config.duration, config.tick)
        if trace is not None:
            self._check_trace(trace)
            trace.apply(0, self.nodes)
        self.sessions = [
            _SessionState(s, buffer=deque(maxlen=config.buffer_cap),
                          next_pkt_time=s.start)
            for s in make_sessions(config, traffic_rng)]
        self.ledger = EnergyLedger(config.node_count, config.initial_battery)
        # per node, the live routes it forwards for as an intermediate
        self.activity = [0] * config.node_count
        self.packets = []
        self.routes = []

    def _check_trace(self, trace):
        cfg = self.config
        if trace.node_count != cfg.node_count:
            raise ConfigError(f"{trace.source}: {trace.node_count} nodes, but "
                              f"the run has {cfg.node_count}")
        for k, t in enumerate(trace.times):
            if abs(t - k * cfg.tick) > 1e-9:
                raise ConfigError(f"{trace.source}: tick {k} is at t={t!r}, "
                                  f"not at {k} * tick = {k * cfg.tick!r}")
        # a run until the first death may end before its horizon, so only
        # a fixed-duration run knows at set-up how many ticks it needs
        if not cfg.until_first_failure and len(trace.rows) < self.ticks:
            raise ConfigError(f"{trace.source}: {len(trace.rows)} ticks, but "
                              f"the run needs {self.ticks}")

    def run(self):
        cfg = self.config
        beacon_every = round(cfg.beacon_interval / cfg.tick)
        writer = mob.TraceWriter(self.trace_out) if self.trace_out else None
        end = cfg.duration
        try:
            for k in range(self.ticks):
                t = k * cfg.tick
                if k > 0:
                    if self.trace is not None:
                        if k >= len(self.trace.rows):
                            raise ConfigError(
                                f"{self.trace.source}: trace ends at t={t!r}, "
                                f"before any node died")
                        self.trace.apply(k, self.nodes)
                    else:
                        mob.advance(self.nodes, cfg.tick, cfg, self.mob_rng)
                snap = snapshot(self.nodes, self.ledger.residuals(),
                                cfg.tx_range, t)
                if writer:
                    writer.record(t, self.nodes)
                if k % beacon_every == 0:
                    charge_beacon_round(self.ledger, snap, self.model)
                self._maintain_routes(snap, t)
                self._discover_routes(snap, t)
                self._send_traffic(snap, t)
                if self.ledger.note_deaths(t) and cfg.until_first_failure:
                    end = t
                    break
        finally:
            if writer:
                writer.close()
        return RunResult(config=cfg, ledger=self.ledger, packets=self.packets,
                         routes=self.routes,
                         sessions=[st.session for st in self.sessions],
                         end_time=end)

    # --- per-tick phases ---

    def _teardown(self, st, t):
        st.route.torn_down_at = t
        for node in st.route.intermediates:
            self.activity[node] -= 1
        st.route = None

    def _maintain_routes(self, snap, t):
        live = [st for st in self.sessions if st.route is not None]
        if not live:
            return
        # a hop holds while both ends are alive and within range: the edge
        # list's rule for the pair, answered from the hop ends' positions
        tails, heads = np.concatenate([st.hop_ends for st in live], axis=1)
        holds = snap.alive[tails] & snap.alive[heads]
        holds &= snap.distance(tails, heads) <= snap.r
        if holds.all():
            return
        off = 0
        for st in live:
            end = off + st.route.hops
            if not holds[off:end].all():
                self._teardown(st, t)
            off = end

    def _discover_routes(self, snap, t):
        cfg = self.config
        for st in self.sessions:
            sess = st.session
            if st.route is not None or t < sess.start - 1e-9 or t < st.next_retry_time - 1e-9:
                continue
            if not self.ledger.alive(sess.source):
                continue
            route = None
            if self.ledger.alive(sess.destination):
                route = select_route(cfg.protocol, snap, self.activity,
                                     sess.source, sess.destination, session=sess.id)
            charge_route_discovery(self.ledger, snap, sess.source, route, self.model)
            if route is None:
                st.next_retry_time = t + cfg.discovery_retry_interval
                continue
            st.follow(route)
            self.routes.append(route)
            for node in route.intermediates:
                self.activity[node] += 1

    def _send_traffic(self, snap, t):
        cfg = self.config
        sending = []  # (session state, its (packet, wait) pairs in order)
        for st in self.sessions:
            sess = st.session
            batch = []
            while st.next_pkt_time <= t + 1e-9:
                pkt = PacketRecord(session=sess.id, seq=st.seq,
                                   created_at=st.next_pkt_time)
                st.seq += 1
                self.packets.append(pkt)
                st.next_pkt_time += 1.0 / cfg.cbr_rate
                if (st.route is not None
                        and st.route.discovered_at < pkt.created_at - 1e-9):
                    batch.append((pkt, 0.0))
                else:
                    st.buffer.append(pkt)  # a full buffer drops its oldest
            # a buffer meets a route only in the tick that found the route
            if st.route is not None and st.buffer:
                found = discovery_latency(st.route.hops, self.model,
                                          cfg.forwarding_overhead)
                batch += [(pkt, max(0.0, t - pkt.created_at) + found)
                          for pkt in st.buffer]
                st.buffer.clear()
            if batch:
                sending.append((st, batch))
        if not sending:
            return
        tables = self._tick_send_tables(snap, [st for st, _ in sending])
        for (st, batch), table in zip(sending, tables):
            self._deliver(st, batch, table)

    def _tick_send_tables(self, snap, senders):
        """The send table of each session in senders, in that order, for this
        tick; every packet of a session reuses its table.

        A session's table is (hops, base, contention, propagation, service,
        joules): its route's hop count, the sum of the per-hop exchange
        airtimes, the same weighted by each hop's contention count, the
        propagation time, base + kappa * contention, and the joules of one
        packet's debits in the order of the session's payer lists.

        A hop's contention count is the number of this tick's transmitters,
        other than the hop's own endpoints, within the contention radius of
        either endpoint: the hop length with TPC, the transmission range
        without.
        """
        tails, heads = ends = np.concatenate([st.hop_ends for st in senders],
                                             axis=1)
        is_tx = np.zeros(snap.n, dtype=bool)
        is_tx[tails] = True
        tx = np.flatnonzero(is_tx)
        hop_d = snap.distance(tails, heads)
        # distances from both ends of every hop to every transmitter; a
        # hop's tail is a transmitter at distance 0, and its head is one
        # only if it transmits too: neither counts against the hop
        near = snap.distance(ends[:, :, None], tx) \
            <= (hop_d[:, None] if self.model.tpc else snap.r)
        counts = ((near[0] | near[1]).sum(axis=1) - 1 - is_tx[heads]).tolist()
        lengths = hop_d.tolist()
        joules = unicast_exchange(lengths, self.model.data_bytes, self.model)
        exchange, kappa = self._exchange, self.config.kappa
        tables = []
        off = 0
        for st in senders:
            h = st.route.hops
            end = off + h
            # left to right: numpy's slice sum goes pairwise from 8 terms,
            # and builtin sum() compensates from Python 3.12
            prop = reduce(add, lengths[off:end]) / SPEED_OF_LIGHT
            base = exchange * h
            cont = exchange * float(sum(counts[off:end]))
            tables.append((h, base, cont, prop, base + kappa * cont,
                           joules[4 * off:4 * end]))
            off = end
        return tables

    def _deliver(self, st, batch, table):
        """Send one session's (packet, wait) pairs over its route, in order."""
        hops, base, cont, prop, service, joules = table
        ledger, nodes = self.ledger, st.route.nodes
        for pkt, wait in batch:
            if ledger.newly_dead and not all(map(ledger.alive, nodes)):
                st.buffer.append(pkt)  # mid-tick death; retried after teardown
                continue
            try:
                ledger.debit_all(st.payer_nodes, st.payer_categories, joules)
            except DeadNodeError:
                continue  # forwarder died mid-path; packet lost
            pkt.buffering = wait
            pkt.base_service = base
            pkt.contention_service = cont
            pkt.propagation = prop
            pkt.hops_traversed = hops
            # total_delay's association: (buffering + service) + propagation
            pkt.delivered_at = pkt.created_at + ((wait + service) + prop)


def run(config, trace=None, trace_out=None) -> RunResult:
    """Execute one reproducible simulation run."""
    return Simulation(config, trace=trace, trace_out=trace_out).run()


# --- per-run CSV outputs ------------------------------------------------------

def write_packets_csv(result, path):
    import csv
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("session", "seq", "created_s", "delivered_s", "hops",
                    "buffering_s", "service_s", "propagation_s"))
        kappa = result.config.kappa
        for p in result.packets:
            w.writerow((p.session, p.seq, repr(p.created_at),
                        "" if p.delivered_at is None else repr(p.delivered_at),
                        p.hops_traversed, repr(p.buffering),
                        repr(p.service(kappa)), repr(p.propagation)))


def write_routes_csv(result, path):
    import csv
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("session", "discovered_s", "torn_down_s", "hops",
                    "metric_value", "node_list"))
        for r in result.routes:
            w.writerow((r.session, repr(r.discovered_at),
                        "" if r.torn_down_at is None else repr(r.torn_down_at),
                        r.hops, repr(r.metric_value),
                        " ".join(str(n) for n in r.nodes)))
