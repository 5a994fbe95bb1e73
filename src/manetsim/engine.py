"""Tick-driven simulation loop: mobility, routing, traffic, energy, delay."""

import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from . import mobility as mob
from .config import ConfigError, ScenarioConfig, write_csv
from .energy import (DeadNodeError, EnergyLedger, charge_beacon_round,
                     charge_route_discovery, discovery_latency,
                     exchange_airtime, exchange_payers, unicast_exchange)
from .protocols import select_route
from .topology import snapshot

SPEED_OF_LIGHT = 3.0e8  # m/s


def _run_state(default=None):
    """A field of a session's run state: left out of == and repr."""
    return field(default=default, compare=False, repr=False)


@dataclass
class Session:
    """One CBR session and the state the run keeps for it; equality and
    repr are those of the first four fields."""
    id: int
    source: int
    destination: int
    start: float
    route: object = _run_state()
    hop_ends: np.ndarray = _run_state()   # (2, hops): each hop's tail, head
    payer_nodes: list = _run_state()      # node and category of each debit
    payer_categories: list = _run_state()  # of a packet, as exchange_payers
    buffer: deque = _run_state()          # maxlen buffer_cap: drops the oldest
    next_pkt_time: float = _run_state()
    next_retry_time: float = _run_state(0.0)
    seq: int = _run_state(0)

    def follow(self, route):
        """Adopt a freshly discovered route and cache what every tick that
        sends over it reads."""
        self.route = route
        tails, heads = route.nodes[:-1], route.nodes[1:]
        self.hop_ends = np.array((tails, heads))
        self.payer_nodes, self.payer_categories = exchange_payers(tails, heads)


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
        start = rng.uniform(lo, hi)
        sessions.append(Session(id=sid, source=s, destination=d, start=start,
                                buffer=deque(maxlen=config.buffer_cap),
                                next_pkt_time=start))
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


class Simulation:
    """One isolated run; owns all mutable state."""

    def __init__(self, config, trace=None, trace_out=None):
        config.validate()
        self.config = config
        self.trace = trace
        self.trace_out = trace_out
        self.mob_rng = random.Random(f"mobility:{config.seed}")
        traffic_rng = random.Random(f"traffic:{config.seed}")
        self.nodes = mob.init_mobility(config, self.mob_rng)
        self.ticks = tick_count(config.duration, config.tick)
        if trace is not None:
            self._check_trace(trace)
            trace.apply(0, self.nodes)
        self.sessions = make_sessions(config, traffic_rng)
        self.ledger = EnergyLedger(config.node_count, config.initial_battery)
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
                    charge_beacon_round(self.ledger, snap, cfg)
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
                         routes=self.routes, sessions=self.sessions,
                         end_time=end)

    # --- per-tick phases ---

    def _maintain_routes(self, snap, t):
        live = [st for st in self.sessions if st.route is not None]
        if not live:
            return
        tails, heads = np.concatenate([st.hop_ends for st in live], axis=1)
        holds = snap.linked(tails, heads)
        if holds.all():
            return
        off = 0
        for st in live:
            end = off + st.route.hops
            if not holds[off:end].all():
                st.route.torn_down_at = t
                st.route = None
            off = end

    def _discover_routes(self, snap, t):
        cfg = self.config
        for st in self.sessions:
            if st.route is not None or t < st.start - 1e-9 or t < st.next_retry_time - 1e-9:
                continue
            if not self.ledger.alive(st.source):
                continue
            route = None
            if self.ledger.alive(st.destination):
                # only LBR reads the activity
                activity = self._activity() if cfg.protocol == "LBR" else None
                route = select_route(cfg.protocol, snap, activity,
                                     st.source, st.destination, session=st.id)
            charge_route_discovery(self.ledger, snap, st.source, route, cfg)
            if route is None:
                st.next_retry_time = t + cfg.discovery_retry_interval
                continue
            st.follow(route)
            self.routes.append(route)

    def _activity(self):
        """Per node, the live routes it forwards for as an intermediate."""
        return np.bincount([v for st in self.sessions if st.route is not None
                            for v in st.route.intermediates],
                           minlength=self.config.node_count)

    def _send_traffic(self, snap, t):
        cfg = self.config
        sending = []  # (session, its (packet, wait) pairs in order)
        for st in self.sessions:
            # a route found in an earlier tick carries every packet made in
            # this one; a route found in this tick first takes the buffer
            sends_now = st.route is not None and st.route.discovered_at < t
            batch = []
            while st.next_pkt_time <= t + 1e-9:
                pkt = PacketRecord(session=st.id, seq=st.seq,
                                   created_at=st.next_pkt_time)
                st.seq += 1
                self.packets.append(pkt)
                st.next_pkt_time += 1.0 / cfg.cbr_rate
                if sends_now:
                    batch.append((pkt, 0.0))
                else:
                    st.buffer.append(pkt)  # a full buffer drops its oldest
            if st.route is not None and not sends_now and st.buffer:
                found = discovery_latency(st.route.hops, cfg)
                batch += [(pkt, max(0.0, t - pkt.created_at) + found)
                          for pkt in st.buffer]
                st.buffer.clear()
            if batch:
                sending.append((st, batch))
        if not sending:
            return
        self._deliver(sending,
                      self._tick_send_tables(snap, [st for st, _ in sending]))

    def _tick_send_tables(self, snap, senders):
        """The send table of each session in senders, in that order, for this
        tick; every packet of a session reuses its table.

        A session's table is (base, contention, propagation, joules): the
        sum of its route's per-hop exchange airtimes, the same weighted by
        each hop's contention count, the propagation time, and the joules of
        one packet's debits in the order of the session's payer lists. A
        delivered packet carries the first three, and PacketRecord.total_delay
        turns them into its delay.

        A hop's contention count is the number of this tick's transmitters,
        other than the hop's own endpoints, within the contention radius of
        either endpoint: the hop length with TPC, the transmission range
        without.
        """
        cfg = self.config
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
            <= (hop_d[:, None] if cfg.tpc else snap.r)
        counts = ((near[0] | near[1]).sum(axis=1) - 1 - is_tx[heads]).tolist()
        lengths = hop_d.tolist()
        joules = unicast_exchange(lengths, cfg.packet_size, cfg)
        exchange = exchange_airtime(cfg)
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
            tables.append((base, cont, prop, joules[4 * off:4 * end]))
            off = end
        return tables

    def _deliver(self, sending, tables):
        """Send this tick's traffic: each session's (packet, wait) pairs in
        `sending`, over its route with its send table in `tables`, session
        by session and packet by packet, in order."""
        ledger, kappa = self.ledger, self.config.kappa
        for (st, batch), (base, cont, prop, joules) in zip(sending, tables):
            nodes = st.route.nodes
            for pkt, wait in batch:
                if ledger.newly_dead and not all(map(ledger.alive, nodes)):
                    st.buffer.append(pkt)  # mid-tick death; retried after teardown
                    continue
                try:
                    ledger.debit_all(st.payer_nodes, st.payer_categories,
                                     joules)
                except DeadNodeError:
                    continue  # forwarder died mid-path; packet lost
                pkt.buffering = wait
                pkt.base_service = base
                pkt.contention_service = cont
                pkt.propagation = prop
                pkt.hops_traversed = st.route.hops
                pkt.delivered_at = pkt.created_at + pkt.total_delay(kappa)


def run(config, trace=None, trace_out=None) -> RunResult:
    """Execute one reproducible simulation run."""
    return Simulation(config, trace=trace, trace_out=trace_out).run()


# --- per-run CSV outputs ------------------------------------------------------

def write_packets_csv(result, path):
    kappa = result.config.kappa
    write_csv(path, ("session", "seq", "created_s", "delivered_s", "hops",
                     "buffering_s", "service_s", "propagation_s"),
              ((p.session, p.seq, p.created_at, p.delivered_at,
                p.hops_traversed, p.buffering, p.service(kappa),
                p.propagation) for p in result.packets))


def write_routes_csv(result, path):
    write_csv(path, ("session", "discovered_s", "torn_down_s", "hops",
                     "metric_value", "node_list"),
              ((r.session, r.discovered_at, r.torn_down_at, r.hops,
                r.metric_value, " ".join(str(n) for n in r.nodes))
               for r in result.routes))
