"""Simulation loop: stop conditions, determinism, delay and energy wiring."""

import math
import random
from collections import deque
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manetsim import energy, engine
from manetsim.config import ConfigError, ScenarioConfig, set1_config, set2_config
from manetsim.energy import DATA_EXCHANGE, airtime, unicast_exchange
from manetsim.engine import (PacketRecord, Session, Simulation,
                             discovery_latency, make_sessions, run, tick_count,
                             write_packets_csv)
from manetsim.mobility import Trace
from manetsim.protocols import Route
from manetsim.topology import snapshot

from oracles import (debit, dense_dist, dense_in_range, full_snapshot,
                     grand_total, ledger_balances, make_nodes,
                     unicast_exchange_oracle, write_run_csvs)


def small_config(**overrides):
    base = dict(node_count=20, session_count=5, duration=30.0, seed=7,
                protocol="LBR", v_max=10.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def line_nodes(xs):
    return make_nodes([(x, 0.0) for x in xs])


def send_tables(xs, routes, tpc=False):
    """The engine's send tables for one tick in which each route (a node
    sequence over static nodes at positions xs on a line) sends one packet.
    Returns per route its (base, contention, propagation) service components
    and its per-packet charges."""
    return tick_tables(full_snapshot(line_nodes(xs)), routes, tpc)


def tick_tables(snap, routes, tpc=False):
    """send_tables over any snapshot."""
    sim = Simulation(small_config(tpc=tpc))
    senders = []
    for sid, nodes in enumerate(routes):
        st = Session(id=sid, source=nodes[0], destination=nodes[-1], start=0.0)
        st.follow(Route(session=sid, nodes=tuple(nodes), metric_value=0.0,
                        discovered_at=0.0))
        senders.append(st)
    tables = sim._tick_send_tables(snap, senders)
    assert len(tables) == len(senders)
    service, charges = [], []
    for st, (base, cont, prop, joules) in zip(senders, tables):
        service.append((base, cont, prop))
        charges.append(list(zip(st.payer_nodes, st.payer_categories, joules)))
    return service, charges


def delay(components, kappa=0.5):
    base, cont, prop = components
    return base + kappa * cont + prop


EXCHANGE = airtime(512 + 20 + 14 + 14, ScenarioConfig())


class TestSessions:
    def test_make_sessions_shape(self):
        cfg = ScenarioConfig(session_count=30)
        sessions = make_sessions(cfg, random.Random(1))
        assert len(sessions) == 30
        for s in sessions:
            assert s.source != s.destination
            assert 1.0 <= s.start <= 40.0
        # the engine steps each session by 1 / cbr_rate
        result = run(small_config(cbr_rate=2.0, start_window=(0.0, 5.0)))
        for sess in result.sessions:
            created = [p.created_at for p in result.packets
                       if p.session == sess.id]
            assert created[0] == pytest.approx(sess.start)
            for a, b in zip(created, created[1:]):
                assert b - a == pytest.approx(0.5)
        assert len(result.packets) > 2 * len(result.sessions)

    def test_result_holds_the_engines_session_records(self):
        cfg = small_config(duration=20.0, area=(500.0, 500.0),
                           start_window=(0.0, 5.0))
        sim = Simulation(cfg)
        result = sim.run()
        assert result.sessions is sim.sessions
        for sess in result.sessions:
            assert sess.seq == sum(1 for p in result.packets
                                   if p.session == sess.id)
            assert sess.buffer.maxlen == result.config.buffer_cap
        # run state differs between protocols; the sessions compare equal
        other = run(cfg.replace(protocol="MMBCR"))
        assert [s.seq for s in other.sessions] == \
            [s.seq for s in result.sessions]
        assert any(a.route is not None and b.route is not None
                   and a.route.nodes != b.route.nodes
                   for a, b in zip(result.sessions, other.sessions))
        assert other.sessions == result.sessions

    def test_session_equality_and_repr_ignore_run_state(self):
        a = Session(id=0, source=1, destination=2, start=3.0)
        b = Session(id=0, source=1, destination=2, start=3.0,
                    buffer=deque([PacketRecord(0, 0, 3.0)], maxlen=4),
                    next_pkt_time=3.5, next_retry_time=9.0, seq=1)
        b.follow(Route(session=0, nodes=(1, 4, 2), metric_value=0.0,
                       discovered_at=3.0))
        assert a == b
        assert repr(a) == repr(b) == \
            "Session(id=0, source=1, destination=2, start=3.0)"
        assert a != Session(id=0, source=1, destination=2, start=3.5)

    def test_presets(self):
        s1, s2 = set1_config(), set2_config()
        assert (s1.initial_battery, s1.duration, s1.until_first_failure) == \
            (1500.0, 1000.0, False)
        assert (s2.initial_battery, s2.duration, s2.until_first_failure) == \
            (100.0, 20000.0, True)


class TestStopConditions:
    def test_fixed_horizon(self):
        result = run(small_config(duration=5.0))
        assert result.end_time == 5.0
        assert all(p.created_at <= 5.0 for p in result.packets)

    def test_until_first_failure(self):
        cfg = small_config(initial_battery=0.5, until_first_failure=True,
                           duration=500.0)
        result = run(cfg)
        assert result.first_failure_time is not None
        assert result.end_time == result.first_failure_time
        # the node that died consumed exactly its initial charge
        dead = [n for n in range(cfg.node_count)
                if result.ledger.residual(n) == 0.0]
        assert dead
        assert all(result.ledger.total(n) == cfg.initial_battery for n in dead)

    def test_failure_cap(self):
        cfg = small_config(initial_battery=1e6, until_first_failure=True,
                           duration=3.0)
        result = run(cfg)
        assert result.first_failure_time is None
        assert result.end_time == 3.0
        # without a death, the run is the fixed-duration run tick for tick
        fixed = run(cfg.replace(until_first_failure=False))
        assert [(p.created_at, p.delivered_at) for p in result.packets] == \
            [(p.created_at, p.delivered_at) for p in fixed.packets]
        assert result.ledger.node_totals() == fixed.ledger.node_totals()

    def test_zero_sessions_idle_network(self):
        result = run(small_config(session_count=0, duration=10.0))
        assert result.packets == []
        assert result.routes == []
        ledger = result.ledger
        assert ledger.category_total("beacon") > 0.0
        for cat in ("data_tx", "data_rx", "mac", "discovery"):
            assert ledger.category_total(cat) == 0.0

    def test_invalid_config_rejected_before_any_event(self):
        with pytest.raises(ConfigError):
            run(small_config(node_count=1))

    @pytest.mark.parametrize("horizon, ticks", [
        (0.30000000100000007, 3),  # ceil gives 4: one step down
        (0.9000000010000001, 10),  # ceil gives 9, which falls short: one up
    ])
    def test_tick_count_corrects_the_rounded_ceiling(self, horizon, ticks):
        assert tick_count(horizon, 0.1) == ticks

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e4), st.floats(1e-3, 10.0))
    def test_tick_count_is_the_first_tick_at_the_horizon(self, horizon, tick):
        assume(horizon / tick < 1e5)
        k = 1
        while k * tick < horizon - 1e-9:
            k += 1
        assert tick_count(horizon, tick) == k


class TestDeterminism:
    def test_bit_identical_outputs(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            result = run(small_config())
            paths.append(write_run_csvs(result, tmp_path / tag))
        for left, right in zip(paths[0], paths[1]):
            assert left.read_bytes() == right.read_bytes()

    def test_seed_changes_outcome(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert grand_total(a.ledger) != grand_total(b.ledger)


class TestLazySnapshot:
    def test_only_beacon_and_discovery_ticks_build_the_matrices(
            self, monkeypatch):
        snaps, discovering = [], set()

        def recording_snapshot(*args):
            snaps.append(snapshot(*args))
            return snaps[-1]
        charge = engine.charge_route_discovery

        def recording_charge(ledger, snap, *args):
            discovering.add(id(snap))
            return charge(ledger, snap, *args)
        monkeypatch.setattr(engine, "snapshot", recording_snapshot)
        monkeypatch.setattr(engine, "charge_route_discovery", recording_charge)
        cfg = small_config(duration=20.0)
        result = run(cfg)
        assert sum(p.delivered for p in result.packets) > 0
        beacon_every = round(cfg.beacon_interval / cfg.tick)
        quiet = beacon_only = 0
        for k, snap in enumerate(snaps):
            built = vars(snap)
            if id(snap) in discovering:
                assert "_mask" in built and "_edges" in built
            elif k % beacon_every == 0:
                # degrees come straight from the mask
                assert "_mask" in built and "_edges" not in built
                beacon_only += 1
            else:
                assert "_mask" not in built and "_edges" not in built
                quiet += 1
        assert quiet > len(snaps) // 2
        assert beacon_only > 0

    # multiples of 50 m give exact 250 m hops (150-200-250 triangles and
    # straight lines); a nudge puts a coordinate one ulp further out
    COORD = st.builds(lambda k, nudge: float(np.nextafter(50.0 * k, 1e9))
                      if nudge else 50.0 * k,
                      st.integers(0, 10), st.booleans())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_maintenance_tears_down_exactly_the_broken_routes(self, data):
        n = data.draw(st.integers(3, 10))
        positions = data.draw(st.lists(st.tuples(self.COORD, self.COORD),
                                       min_size=n, max_size=n))
        alive = data.draw(st.lists(st.sampled_from((True,) * 4 + (False,)),
                                   min_size=n, max_size=n))
        routes = data.draw(st.lists(
            st.tuples(st.permutations(range(n)), st.integers(2, n))
            .map(lambda pk: tuple(pk[0][:pk[1]])), min_size=1, max_size=5))
        sim = Simulation(ScenarioConfig(node_count=n,
                                        session_count=len(routes), seed=1))
        for state, nodes in zip(sim.sessions, routes):
            state.follow(Route(session=state.id, nodes=nodes,
                               metric_value=0.0, discovered_at=0.0))
        snap = snapshot(make_nodes(positions),
                        [1.0 if a else 0.0 for a in alive], 250.0, 0.0)
        # the rule before the matrices went lazy, on the dense oracle
        near = dense_in_range(snap)
        broken = [not (snap.alive[list(r)].all()
                       and near[list(r[:-1]), list(r[1:])].all())
                  for r in routes]
        sim._maintain_routes(snap, 1.0)
        assert [state.route is None for state in sim.sessions] == broken


class CheckedSimulation(Simulation):
    """A run that asserts its invariants every tick. Before maintenance, a
    cached live-hop table lists exactly the sessions that hold a route, in
    order, and their hop ends side by side. Before traffic is sent,
    a session that holds both a route and buffered packets found the route
    in this tick, which is when the engine charges the packets the
    discovery's latency. Once traffic is sent, no session buffers more than
    buffer_cap packets and every live route edge is in range."""

    def _maintain_routes(self, snap, t):
        self.check_live_hops()
        super()._maintain_routes(snap, t)

    def check_live_hops(self):
        if self._live_hops is None:
            return  # rebuilt from the sessions before it is read
        cached, ends = self._live_hops
        live = [st for st in self.sessions if st.route is not None]
        assert [st.id for st in cached] == [st.id for st in live], \
            "stale live-hop table"
        if live:
            assert np.array_equal(ends, np.concatenate(
                [st.hop_ends for st in live], axis=1)), "stale live-hop table"

    def _send_traffic(self, snap, t):
        self.check_flush(t)
        super()._send_traffic(snap, t)
        self.check_invariants(snap)

    def check_flush(self, t):
        for st in self.sessions:
            if st.route is not None and st.buffer:
                assert st.route.discovered_at == t, \
                    (f"session {st.id} flushes at t={t!r} over a "
                     f"route found at t={st.route.discovered_at!r}")

    def check_invariants(self, snap):
        for st in self.sessions:
            assert len(st.buffer) <= self.config.buffer_cap, \
                (f"session {st.id} buffers {len(st.buffer)} packets, "
                 f"over buffer_cap {self.config.buffer_cap}")
        live = [st.route for st in self.sessions if st.route is not None]
        near = dense_in_range(snap)
        for r in live:
            for u, v in zip(r.nodes[:-1], r.nodes[1:]):
                assert near[u, v], f"stale route edge {u}-{v}"


class TestInvariantsDuringRun:
    def test_activity_and_route_validity_every_tick(self):
        for proto in ("FORP", "LBR", "MMBCR"):
            CheckedSimulation(small_config(protocol=proto, duration=20.0)).run()
            # fast nodes and early sessions: routes break and are found again
            result = CheckedSimulation(small_config(
                protocol=proto, duration=20.0, v_max=50.0,
                start_window=(0.0, 2.0))).run()
            assert any(r.torn_down_at is not None and r.hops > 1
                       for r in result.routes)

    def test_lbr_is_given_the_activity_of_the_live_routes(self, monkeypatch):
        """Every selection of a run in which routes break and are found
        again gets, per node, the count of the unbroken routes in the routes
        log that it relays for."""
        sim = Simulation(small_config(duration=20.0, v_max=50.0,
                                      start_window=(0.0, 2.0)))
        busy = []
        select = engine.select_route

        def spy(protocol, snap, activity, *args, **kwargs):
            expected = [0] * sim.config.node_count
            for r in sim.routes:
                if r.torn_down_at is None:
                    for node in r.intermediates:
                        expected[node] += 1
            assert list(activity) == expected
            busy.append(sum(expected))
            return select(protocol, snap, activity, *args, **kwargs)
        monkeypatch.setattr(engine, "select_route", spy)
        result = sim.run()
        assert any(r.torn_down_at is not None and r.hops > 1
                   for r in result.routes)
        assert any(busy)  # some selection weighed a busy relay

    def test_only_lbr_counts_the_activity(self, monkeypatch):
        counted = []
        activity = Simulation._activity

        def spy(sim):
            counted.append(sim.config.protocol)
            return activity(sim)
        monkeypatch.setattr(Simulation, "_activity", spy)
        for proto in ("FORP", "MMBCR", "LBR"):
            result = run(small_config(protocol=proto, duration=20.0,
                                      v_max=50.0, start_window=(0.0, 2.0)))
            assert len(result.routes) > len(result.sessions)  # rediscovery
        assert set(counted) == {"LBR"}

    def test_buffer_over_an_older_route_is_caught(self):
        sim = CheckedSimulation(small_config(node_count=4, session_count=1))
        st = sim.sessions[0]
        st.follow(Route(session=0, nodes=(0, 1), metric_value=0.0,
                        discovered_at=0.5))
        st.buffer.append(PacketRecord(session=0, seq=0, created_at=0.4))
        sim.check_flush(0.5)
        with pytest.raises(AssertionError, match="route found at t=0.5"):
            sim.check_flush(0.6)

    def test_overfull_buffer_is_caught(self):
        sim = CheckedSimulation(small_config(node_count=4, session_count=1,
                                             buffer_cap=1))
        snap = full_snapshot(line_nodes([0.0, 100.0, 200.0, 300.0]))
        sim.sessions[0].buffer.append(PacketRecord(session=0, seq=0,
                                                   created_at=0.0))
        sim.check_invariants(snap)
        sim.sessions[0].buffer = deque(sim.sessions[0].buffer)  # no maxlen
        sim.sessions[0].buffer.append(PacketRecord(session=0, seq=1,
                                                   created_at=0.1))
        with pytest.raises(AssertionError, match="over buffer_cap 1"):
            sim.check_invariants(snap)

    def test_stale_live_hop_table_is_caught(self):
        sim = CheckedSimulation(small_config(node_count=4, session_count=2))
        first, second = sim.sessions
        first.follow(Route(session=0, nodes=(0, 1), metric_value=0.0,
                           discovered_at=0.0))
        snap = full_snapshot(line_nodes([0.0, 100.0, 200.0, 300.0]))
        sim._maintain_routes(snap, 0.0)  # builds the table; the route holds
        sim.check_live_hops()
        second.follow(Route(session=1, nodes=(2, 3), metric_value=0.0,
                            discovered_at=0.0))
        with pytest.raises(AssertionError, match="stale live-hop table"):
            sim.check_live_hops()
        sim._live_hops = None
        sim._maintain_routes(snap, 0.1)
        first.route = None
        with pytest.raises(AssertionError, match="stale live-hop table"):
            sim.check_live_hops()

    def test_stale_route_edge_is_caught(self):
        sim = CheckedSimulation(small_config(node_count=4, session_count=1))
        sim.sessions[0].follow(Route(session=0, nodes=(0, 1, 3),
                                     metric_value=0.0, discovered_at=0.0))
        snap = full_snapshot(line_nodes([0.0, 100.0, 200.0, 400.0]))
        with pytest.raises(AssertionError, match="stale route edge 1-3"):
            sim.check_invariants(snap)

    def test_packet_record_consistency(self):
        for overrides in (
                dict(duration=40.0),
                # deaths in the middle of a tick, and packets buffered
                dict(initial_battery=3.0, until_first_failure=True,
                     duration=500.0),
                dict(initial_battery=0.5, start_window=(0.0, 5.0))):
            result = run(small_config(**overrides))
            delivered = [p for p in result.packets if p.delivered]
            assert delivered
            if "initial_battery" in overrides:
                assert result.first_failure_time is not None
                assert any(p.buffering > 0.0 for p in delivered)
            kappa = result.config.kappa
            hops = {}
            for r in result.routes:
                hops.setdefault(r.session, set()).add(r.hops)
            for p in delivered:
                assert p.hops_traversed in hops[p.session]
                assert p.buffering >= 0.0
                assert p.delivered_at >= p.created_at
                assert p.delivered_at == p.created_at + p.total_delay(kappa)

    def test_conservation_at_end_of_run(self):
        # 0.1 J runs two nodes dry within the 20 s
        for battery in (1500.0, 0.1):
            result = run(small_config(duration=20.0, initial_battery=battery))
            assert ledger_balances(result.ledger)
        assert result.first_failure_time is not None


class TestPerTickView:
    """Two sessions discover in one tick. Session 0's only route is 0-2-1;
    session 1 goes from 3 to 4 over relay 2 or relay 5, which are not
    neighbours. Node 5 starts the tick a microjoule poorer than node 2, and
    session 0's flood and reply cost node 2 more than that."""

    POSITIONS = [(50.0, 300.0), (350.0, 300.0), (200.0, 140.0),
                 (0.0, 0.0), (400.0, 0.0), (200.0, -140.0)]

    def discover_two(self, protocol, monkeypatch):
        """The snapshot of the tick, the simulation after it, the live
        residuals each selection ran beside and the activity it was given
        (None for FORP and MMBCR, which do not read it)."""
        sim = Simulation(ScenarioConfig(node_count=6, session_count=2,
                                        protocol=protocol, seed=1))
        for st, (s, d) in zip(sim.sessions, ((0, 1), (3, 4))):
            st.source, st.destination = s, d
            st.start = 0.0
        debit(sim.ledger, 5, "mac", 1e-6)
        live, activity = [], []
        select = engine.select_route

        def spy(protocol, snap, act, *args, **kwargs):
            live.append(sim.ledger.residuals())
            activity.append(None if act is None else list(act))
            return select(protocol, snap, act, *args, **kwargs)
        monkeypatch.setattr(engine, "select_route", spy)
        snap = snapshot(make_nodes(self.POSITIONS), sim.ledger.residuals(),
                        250.0, 0.0)
        sim._discover_routes(snap, 0.0)
        assert sim.sessions[0].route.nodes == (0, 2, 1)
        return snap, sim, live, activity

    @pytest.mark.parametrize("source_dead", [False, True])
    def test_a_source_dead_in_the_ledger_does_not_discover(self, source_dead):
        # the snapshot still sees the source alive: it died in this tick
        sim = Simulation(ScenarioConfig(node_count=6, session_count=1,
                                        protocol="LBR", seed=1))
        st = sim.sessions[0]
        st.source, st.destination = 0, 1
        st.start = 0.0
        snap = snapshot(make_nodes(self.POSITIONS), sim.ledger.residuals(),
                        250.0, 0.0)
        if source_dead:
            debit(sim.ledger, 0, "mac", sim.ledger.residual(0))
        sim._discover_routes(snap, 0.0)
        if source_dead:
            assert st.route is None and sim.routes == []
            assert sim.ledger.category_total("discovery") == 0.0
            assert st.next_retry_time == 0.0
        else:
            assert st.route.nodes == (0, 2, 1)
            assert sim.ledger.category_total("discovery") > 0.0

    def test_mmbcr_weighs_the_residuals_of_the_tick_start(self, monkeypatch):
        snap, sim, live, _ = self.discover_two("MMBCR", monkeypatch)
        assert snap.residual[2] > snap.residual[5]
        # by the second selection the ledger ranks the relays the other way
        assert live[1][2] < live[1][5]
        route = sim.sessions[1].route
        assert route.nodes == (3, 2, 4)
        assert route.metric_value == snap.residual[2]

    def test_lbr_counts_a_route_found_earlier_in_the_tick(self, monkeypatch):
        _, sim, _, activity = self.discover_two("LBR", monkeypatch)
        # relay 2 now forwards for session 0, so relay 5 is cheaper
        assert activity == [[0] * 6, [0, 0, 1, 0, 0, 0]]
        assert sim.sessions[1].route.nodes == (3, 5, 4)


class TestDelayModel:
    def test_discovery_latency_one_hop(self):
        cfg = ScenarioConfig(forwarding_overhead=1.0e-3)
        assert discovery_latency(1, cfg) == pytest.approx(2.512e-3)

    def test_discovery_latency_monotone(self):
        cfg = ScenarioConfig(forwarding_overhead=1.0e-3)
        values = [discovery_latency(h, cfg) for h in range(1, 8)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_discovery_latency_needs_a_hop(self):
        with pytest.raises(ValueError):
            discovery_latency(0, ScenarioConfig())

    def test_one_hop_delay_no_contention(self):
        [components], _ = send_tables([0.0, 100.0], [(0, 1)])
        expected = EXCHANGE + 100.0 / 3.0e8
        assert components == (EXCHANGE, 0.0, 100.0 / 3.0e8)
        assert delay(components) == pytest.approx(expected)
        assert delay(components) == pytest.approx(2.24e-3, rel=1e-2)

    def test_hop_additivity_without_contention(self):
        # airtime and propagation add up hop by hop; contention does not:
        # the route's own first-hop transmitter contends with its second hop
        xs = [0.0, 100.0, 200.0]
        [one], _ = send_tables(xs, [(0, 1)])
        [two], [charges] = send_tables(xs, [(0, 1, 2)])
        assert two[0] == pytest.approx(2 * one[0])
        assert two[2] == pytest.approx(2 * one[2])
        assert two[1] == EXCHANGE * 1
        a, b, c, d, e, f, g, h = unicast_exchange([100.0, 100.0], 512,
                                                  ScenarioConfig())
        assert charges == [(0, "data_tx", a), (0, "mac", b),
                           (1, "data_rx", c), (1, "mac", d),
                           (1, "data_tx", e), (1, "mac", f),
                           (2, "data_rx", g), (2, "mac", h)]

    def test_contention_counts_nearby_transmitters_only(self):
        # route (2, 3) transmits from 150 m: inside the fixed radius (250 m),
        # outside the TPC radius (the 100 m hop length); its receiver at
        # -50 m sends nothing; route (4, 5) transmits from 500 m away
        xs = [0.0, 100.0, -150.0, -50.0, 600.0, 700.0]
        routes = [(0, 1), (2, 3), (4, 5)]
        fixed, _ = send_tables(xs, routes, tpc=False)
        tpc, _ = send_tables(xs, routes, tpc=True)
        assert fixed[0][1] == EXCHANGE * 1
        assert tpc[0][1] == 0.0
        # a hop's own endpoints never count against it
        both_ways, _ = send_tables([0.0, 100.0], [(0, 1), (1, 0)])
        assert [c[1] for c in both_ways] == [0.0, 0.0]

    def test_send_tables_read_the_frame_sizes_at_call_time(self, monkeypatch):
        # a study may set a frame-size constant after building the run
        sim = Simulation(small_config())
        monkeypatch.setattr(energy, "RTS_BYTES", 40)
        st = Session(id=0, source=0, destination=2, start=0.0)
        st.follow(Route(session=0, nodes=(0, 1, 2), metric_value=0.0,
                        discovered_at=0.0))
        snap = full_snapshot(line_nodes([0.0, 100.0, 200.0]))
        [(base, _, _, _)] = sim._tick_send_tables(snap, [st])
        assert base == 2 * airtime(512 + 40 + 14 + 14, ScenarioConfig())

    @pytest.mark.parametrize("tpc", [False, True])
    def test_send_tables_are_exact(self, tpc):
        # walks of 3, 8 and 10 hops with 60-240 m steps in a 1 km square,
        # plus a one-hop route back along the 8-hop walk; compared with ==
        rng = random.Random(14)
        points, routes = [], []
        for hops in (3, 8, 10):
            x, y = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
            routes.append(list(range(len(points), len(points) + hops + 1)))
            for _ in range(hops + 1):
                points.append((x, y))
                angle, step = rng.uniform(0.0, 2 * math.pi), rng.uniform(60.0, 240.0)
                x, y = x + step * math.cos(angle), y + step * math.sin(angle)
        routes.append([routes[1][4], routes[1][3]])
        snap = full_snapshot(make_nodes(points))
        service, charges = tick_tables(snap, routes, tpc)

        cfg = ScenarioConfig(tpc=tpc)
        dist = dense_dist(snap)
        transmitters = {u for nodes in routes for u in nodes[:-1]}
        for nodes, (base, cont, prop), got in zip(routes, service, charges):
            hops = list(zip(nodes[:-1], nodes[1:]))
            hop_d = dist[nodes[:-1], nodes[1:]]
            if len(hops) >= 8:  # numpy's pairwise sum would round differently
                assert reduce(add, hop_d.tolist()) != float(np.sum(hop_d))
            assert prop == reduce(add, hop_d.tolist()) / 3.0e8
            assert base == EXCHANGE * len(hops)
            counts = []
            for u, v in hops:
                radius = dist[u, v] if tpc else 250.0
                counts.append(sum(
                    1 for w in transmitters if w not in (u, v)
                    and (dist[u, w] <= radius or dist[v, w] <= radius)))
            assert cont == EXCHANGE * float(sum(counts))
            expected = []
            for (u, v), d in zip(hops, hop_d.tolist()):
                a, b, c, e = unicast_exchange([d], 512, cfg)
                expected += [(u, "data_tx", a), (u, "mac", b),
                             (v, "data_rx", c), (v, "mac", e)]
            assert got == expected
        assert any(service[i][1] > 0.0 for i in range(4))

    @settings(max_examples=150, deadline=None)
    @given(walks=st.lists(st.lists(st.tuples(st.floats(0.0, 250.0),
                                             st.floats(0.0, 2 * math.pi)),
                                   min_size=1, max_size=12),
                          min_size=1, max_size=4),
           tpc=st.booleans())
    def test_propagation_sums_hop_lengths_left_to_right(self, walks, tpc):
        # routes of 1-12 hops, one walk each from a common start: the
        # propagation of each is the left-to-right sum of its slice of the
        # tick's hop lengths, also from 8 hops on, where numpy's slice sum
        # goes pairwise
        points, routes = [], []
        for steps in walks:
            x = y = 500.0
            routes.append(list(range(len(points), len(points) + len(steps) + 1)))
            points.append((x, y))
            for step, angle in steps:
                x, y = x + step * math.cos(angle), y + step * math.sin(angle)
                points.append((x, y))
        snap = full_snapshot(make_nodes(points))
        tails = [u for nodes in routes for u in nodes[:-1]]
        heads = [v for nodes in routes for v in nodes[1:]]
        hop_d = snap.distance(tails, heads)
        assume(hop_d.max() <= 250.0)  # cos and sin may round a step past it
        service, _ = tick_tables(snap, routes, tpc)
        off = 0
        for nodes, (_, _, prop) in zip(routes, service):
            end = off + len(nodes) - 1
            assert prop == reduce(add, hop_d[off:end].tolist()) / 3.0e8
            off = end

    def test_tpc_strictly_reduces_contention_delay(self):
        xs = [0.0, 100.0, -150.0, -50.0]
        [fixed, _], _ = send_tables(xs, [(0, 1), (2, 3)], tpc=False)
        [tpc, _], _ = send_tables(xs, [(0, 1), (2, 3)], tpc=True)
        assert delay(tpc) < delay(fixed)

    def test_kappa_scales_only_the_contention_term(self):
        pkt = PacketRecord(session=0, seq=0, created_at=0.0, buffering=1e-3,
                           base_service=2e-3, contention_service=4e-3,
                           propagation=1e-6)
        assert pkt.total_delay(0.0) == pytest.approx(1e-3 + 2e-3 + 1e-6)
        assert pkt.total_delay(1.0) - pkt.total_delay(0.5) == \
            pytest.approx(0.5 * 4e-3)


class ExchangeCredits(CheckedSimulation):
    """A checked run that credits each delivered packet's data joules from
    the scalar exchange oracle, per category: one exchange per hop, at the
    hop's length in the tick's snapshot."""

    def __init__(self, config):
        super().__init__(config)
        self.credits = {category: [] for category in DATA_EXCHANGE}

    def _tick_send_tables(self, snap, senders):
        dist, cfg = dense_dist(snap), self.config
        self.exchanges = {}
        for st in senders:
            tails, heads = st.hop_ends
            self.exchanges[st.id] = unicast_exchange_oracle(
                dist[tails, heads].tolist(), cfg.packet_size, cfg)
        return super()._tick_send_tables(snap, senders)

    def _deliver(self, sending, tables):
        waiting = [(st, pkt) for st, batch in sending for pkt, _ in batch
                   if pkt.delivered_at is None]
        super()._deliver(sending, tables)
        for st, pkt in waiting:
            if pkt.delivered_at is not None:
                for hop in self.exchanges[st.id]:
                    for category, joules in zip(DATA_EXCHANGE, hop):
                        self.credits[category].append(joules)


class TestEnergyWiring:
    def test_beacon_energy_identical_across_protocols(self):
        totals = {proto: run(small_config(protocol=proto, duration=10.0))
                  .ledger.category_total("beacon")
                  for proto in ("FORP", "LBR", "MMBCR")}
        assert len(set(totals.values())) == 1

    @pytest.mark.parametrize("radio", [
        {}, {"packet_size": 256, "bitrate": 1e6, "tx_range": 300.0}],
        ids=["defaults", "small-slow-far"])
    def test_data_energy_is_delivered_hops_times_the_exchange(self, radio):
        """With TPC off and no deaths, each data category's total is the
        delivered hops times that category's joules per hop, at the
        scenario's packet size and bitrate."""
        cfg = set1_config(protocol="MMBCR", v_max=20.0, duration=120.0,
                          seed=2, **radio)
        result = run(cfg)
        assert result.first_failure_time is None
        hops = sum(p.hops_traversed for p in result.packets if p.delivered)
        assert hops > 0

        def on_air(nbytes):
            return 8.0 * nbytes / cfg.bitrate
        t_pay, t_rts = on_air(cfg.packet_size), on_air(energy.RTS_BYTES)
        t_cts_ack = on_air(energy.CTS_BYTES) + on_air(energy.ACK_BYTES)
        p_tx, p_rx = energy.FIXED_TX_POWER, energy.RX_POWER
        per_hop = {"data_tx": p_tx * t_pay, "data_rx": p_rx * t_pay,
                   "mac": (p_tx + p_rx) * (t_rts + t_cts_ack)}
        for category, joules in per_hop.items():
            assert result.ledger.category_total(category) == \
                pytest.approx(hops * joules, rel=1e-12, abs=0.0), category

    @pytest.mark.parametrize("protocol", ["FORP", "LBR", "MMBCR"])
    def test_data_energy_with_tpc_is_the_delivered_exchanges(self, protocol):
        """With TPC on and no deaths, each data category's total is the
        sum, over delivered packets, of their exchanges' joules in that
        category at the lengths of their hops."""
        sim = ExchangeCredits(set1_config(protocol=protocol, v_max=20.0,
                                          duration=120.0, seed=2, tpc=True))
        result = sim.run()
        assert result.first_failure_time is None
        assert sim.credits["data_tx"]
        for category, credits in sim.credits.items():
            assert result.ledger.category_total(category) == \
                pytest.approx(math.fsum(credits), rel=1e-12, abs=0.0), category


class TestBufferingAndPartitions:
    def test_partitioned_pair_never_delivers(self):
        cfg = ScenarioConfig(node_count=2, session_count=1, duration=10.0,
                             area=(20000.0, 20000.0), v_max=1.0, seed=5,
                             buffer_cap=8)
        sim = Simulation(cfg)
        d0 = math.hypot(sim.nodes.x[0] - sim.nodes.x[1],
                        sim.nodes.y[0] - sim.nodes.y[1])
        assert d0 > 250.0 + cfg.v_max * 2 * cfg.duration  # stays partitioned
        result = sim.run()
        assert all(not p.delivered for p in result.packets)
        assert result.routes == []
        assert len(sim.sessions[0].buffer) <= cfg.buffer_cap

    def test_buffered_packets_carry_waiting_time(self):
        result = run(small_config(duration=40.0))
        by_session = {}
        for r in result.routes:
            by_session.setdefault(r.session, []).append(r)
        for p in result.packets:
            if not p.delivered or p.session not in by_session:
                continue
            first = min(r.discovered_at for r in by_session[p.session])
            if p.created_at <= first:
                # created before any route existed: must have buffered
                assert p.buffering > 0.0


class TestTraceReplay:
    def test_replay_is_bit_identical(self, tmp_path):
        cfg = small_config(duration=15.0)
        trace_path = tmp_path / "trace.csv"
        first = run(cfg, trace_out=str(trace_path))
        replayed = run(cfg, trace=Trace.load(trace_path))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_packets_csv(first, out_a)
        write_packets_csv(replayed, out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert grand_total(first.ledger) == grand_total(replayed.ledger)

    def test_mobility_stream_shared_across_protocols(self, tmp_path):
        # same seed, different protocol: identical recorded mobility
        traces = []
        for proto in ("FORP", "MMBCR"):
            path = tmp_path / f"{proto}.csv"
            run(small_config(protocol=proto, duration=10.0),
                trace_out=str(path))
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

    def test_short_trace_rejected(self, tmp_path):
        cfg = small_config(duration=5.0)
        trace_path = tmp_path / "trace.csv"
        run(cfg, trace_out=str(trace_path))
        with pytest.raises(ValueError):
            run(cfg.replace(duration=10.0), trace=Trace.load(trace_path))

    def test_tick_mismatch_rejected(self, tmp_path):
        cfg = small_config(duration=2.0)
        trace_path = tmp_path / "trace.csv"
        run(cfg, trace_out=str(trace_path))
        with pytest.raises(ConfigError, match="tick"):
            Simulation(cfg.replace(tick=0.2), trace=Trace.load(trace_path))
        # a trace longer than the run is fine at the same tick
        run(cfg.replace(duration=1.0), trace=Trace.load(trace_path))

    def test_trace_ending_before_the_first_death(self):
        # a run until the first death may end before its horizon, so set-up
        # accepts the trace and the run fails where the trace runs out
        rows = [[(0.0, 0.0, 0.0, 0.0), (100.0, 0.0, 0.0, 0.0)]] * 5
        trace = Trace([k * 0.1 for k in range(5)], rows)
        sim = Simulation(ScenarioConfig(node_count=2, session_count=1,
                                        until_first_failure=True,
                                        duration=10.0, seed=1),
                         trace=trace)
        with pytest.raises(ConfigError, match="trace ends at t=0.5"):
            sim.run()

    def test_node_count_mismatch_rejected(self, tmp_path):
        cfg = small_config(duration=2.0)
        trace_path = tmp_path / "trace.csv"
        run(cfg, trace_out=str(trace_path))
        with pytest.raises(ValueError):
            run(cfg.replace(node_count=10), trace=Trace.load(trace_path))



def relay_budget(packets):
    """Joules with which node 1, the relay of a 2-hop route, pays for
    `packets` 512-byte packets with TPC off, receiving each on hop 0 and
    sending it on hop 1, then dies at its payload debit of the next packet,
    which a further debit to it makes the engine drop."""
    m = ScenarioConfig()
    t_pay, t_rts = airtime(512, m), airtime(20, m)
    t_cts_ack = airtime(14, m) + airtime(14, m)
    receive = 0.967 * t_pay + 0.967 * t_rts + 1.4 * t_cts_ack
    send = 1.4 * t_pay + 1.4 * t_rts + 0.967 * t_cts_ack
    return packets * (receive + send) + receive + 0.5 * 1.4 * t_pay


class TestMidTickDeath:
    def test_forwarder_dies_while_a_session_drains_its_buffer(self):
        # nodes at 0, 200, 400 m: 0 -> 1 -> 2 is the only route, and it
        # exists only from t = 2 s, when node 2 arrives; every packet made
        # until then goes out in that tick
        tick, arrive = 0.1, 20
        rows = [[(0.0, 0.0, 0.0, 0.0), (200.0, 0.0, 0.0, 0.0),
                 (400.0 if k >= arrive else 1000.0, 0.0, 0.0, 0.0)]
                for k in range(40)]
        trace = Trace([k * tick for k in range(40)], rows)
        cfg = ScenarioConfig(node_count=3, session_count=1, tick=tick,
                             area=(2000.0, 2000.0), start_window=(0.0, 0.0),
                             until_first_failure=True, duration=3.9,
                             protocol="LBR", seed=1)
        sim = Simulation(cfg, trace=trace)
        st = sim.sessions[0]
        st.source, st.destination = 0, 2
        budget = relay_budget(2)  # node 1 pays for two, dies in the third
        discover = sim._discover_routes

        def discover_then_drain_forwarder(snap, t):
            discover(snap, t)
            if st.route is not None:
                debit(sim.ledger, 1, "mac", sim.ledger.residual(1) - budget)
        sim._discover_routes = discover_then_drain_forwarder
        result = sim.run()

        [route] = result.routes
        assert route.nodes == (0, 1, 2)
        sent = [p for p in result.packets if p.created_at <= route.discovered_at]
        assert len(sent) == 9                 # one every 0.25 s from t = 0
        assert [p.delivered for p in sent] == [True, True] + [False] * 7
        assert sent[0].buffering > sent[1].buffering > 0.0
        assert result.ledger.residual(1) == 0.0
        assert result.first_failure_time == route.discovered_at
        assert result.end_time == route.discovered_at
        # the third packet was lost; the later ones wait for a new route
        assert [p.seq for p in st.buffer] == [p.seq for p in sent[3:]]

    def test_rebuffered_packet_waits_for_the_next_route(self):
        # nodes 0, 1 and 2 at 0, 200 and 400 m on a line, relays 3 and 4
        # above them: the route 0 -> 1 -> 2 exists from t = 2 s, when node 2
        # arrives, and 0 -> 3 -> 4 -> 2 from t = 2.1 s, when nodes 3 and 4
        # arrive; node 1 pays for one packet and dies within the second
        tick, arrive = 0.1, 20
        rows = [[(0.0, 0.0, 0.0, 0.0), (200.0, 0.0, 0.0, 0.0),
                 (400.0 if k >= arrive else 1000.0, 0.0, 0.0, 0.0),
                 (130.0, 150.0 if k > arrive else 1000.0, 0.0, 0.0),
                 (270.0, 150.0 if k > arrive else 1000.0, 0.0, 0.0)]
                for k in range(30)]
        trace = Trace([k * tick for k in range(30)], rows)
        cfg = ScenarioConfig(node_count=5, session_count=1, tick=tick,
                             area=(2000.0, 2000.0), start_window=(0.0, 0.0),
                             duration=2.5, protocol="LBR", seed=1)
        sim = CheckedSimulation(cfg, trace=trace)
        st = sim.sessions[0]
        st.source, st.destination = 0, 2
        budget = relay_budget(1)
        discover = sim._discover_routes

        def discover_then_drain_relay(snap, t):
            discover(snap, t)
            if st.route is not None and st.route.nodes == (0, 1, 2):
                debit(sim.ledger, 1, "mac", sim.ledger.residual(1) - budget)
        sim._discover_routes = discover_then_drain_relay
        result = sim.run()

        first, second = result.routes
        assert (first.nodes, second.nodes) == ((0, 1, 2), (0, 3, 4, 2))
        assert first.discovered_at == arrive * tick
        assert first.torn_down_at == second.discovered_at == (arrive + 1) * tick
        assert result.ledger.died[1] == first.discovered_at
        sent = [p for p in result.packets if p.created_at <= first.discovered_at]
        assert [p.delivered for p in sent] == [True, False] + [True] * 7
        def latency(hops):
            return discovery_latency(hops, cfg)
        assert sent[0].buffering == (arrive * tick - 0.0) + latency(2)
        # the rebuffered packets wait for the new route's discovery
        for pkt in sent[2:]:
            assert pkt.hops_traversed == 3
            assert pkt.buffering == \
                ((arrive + 1) * tick - pkt.created_at) + latency(3)

    def test_rebuffering_keeps_the_newest_buffer_cap_packets(self):
        # nodes at 0, 200, 400 m: 0 -> 1 -> 2 is found at t = 0, and at 32
        # packets per second every 0.125 s tick sends four fresh packets.
        # At t = 0.5 s node 1 pays for the first, dies in the second, and
        # the last two go back to a buffer that holds one
        tick = 0.125
        rows = [[(0.0, 0.0, 0.0, 0.0), (200.0, 0.0, 0.0, 0.0),
                 (400.0, 0.0, 0.0, 0.0)]] * 10
        trace = Trace([k * tick for k in range(10)], rows)
        cfg = ScenarioConfig(node_count=3, session_count=1, tick=tick,
                             cbr_rate=32.0, buffer_cap=1,
                             area=(2000.0, 2000.0), start_window=(0.0, 0.0),
                             until_first_failure=True, protocol="LBR", seed=1)
        sim = Simulation(cfg, trace=trace)
        st = sim.sessions[0]
        st.source, st.destination = 0, 2
        budget = relay_budget(1)
        discover = sim._discover_routes

        def discover_then_drain_relay(snap, t):
            discover(snap, t)
            if t == 4 * tick:
                debit(sim.ledger, 1, "mac", sim.ledger.residual(1) - budget)
        sim._discover_routes = discover_then_drain_relay
        result = sim.run()

        assert result.end_time == result.ledger.died[1] == 4 * tick
        last = [p for p in result.packets if p.created_at > 3 * tick]
        assert len(last) == 4
        assert [p.delivered for p in last] == [True, False, False, False]
        assert list(st.buffer) == last[-1:]

    def test_no_packet_waits_when_buffer_cap_is_zero(self):
        # small networks on tiny batteries, where deaths in the middle of a
        # tick send packets back to the buffer; with no room in it, every
        # delivered packet went out in the tick that made it
        rng = random.Random(5)
        for _ in range(8):
            cfg = ScenarioConfig(node_count=rng.randint(8, 30),
                                 initial_battery=rng.uniform(0.3, 1.0),
                                 duration=30.0, area=(500.0, 500.0),
                                 buffer_cap=0, seed=rng.randrange(10**6))
            result = CheckedSimulation(cfg).run()
            assert any(d is not None for d in result.ledger.died)
            assert sum(p.delivered for p in result.packets) > 0
            assert all(p.buffering == 0.0 for p in result.packets
                       if p.delivered), cfg
