"""Power model, airtime, and battery ledger accounting."""

import csv
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import energy
from manetsim.config import ScenarioConfig
from manetsim.energy import (CATEGORIES, DATA_EXCHANGE, DeadNodeError,
                             EnergyLedger, airtime,
                             broadcast_tx_power, charge_beacon_round,
                             charge_route_discovery, exchange_payers,
                             flood_depths, tx_power,
                             unicast_exchange)
from manetsim.protocols import Route

from oracles import (charge_broadcast, debit, flood_oracle, full_snapshot,
                     grand_total, ledger_balances, make_nodes,
                     random_static_nodes, rreq_bytes, unicast_exchange_oracle)


# the default radio with power control on and off
TPC = ScenarioConfig(tpc=True)
FIXED = ScenarioConfig(tpc=False)


class TestTxPower:
    def test_circuit_power_at_zero_distance(self):
        assert tx_power(0.0, TPC) == pytest.approx(1.1182)

    def test_full_range_value(self):
        assert tx_power(250.0, TPC) == pytest.approx(1.39945, abs=1e-6)

    def test_fixed_mode_ignores_distance(self):
        for d in (0.0, 100.0, 250.0):
            assert tx_power(d, FIXED) == 1.4

    def test_monotone_in_distance(self):
        samples = [tx_power(d, TPC) for d in range(0, 251, 10)]
        assert samples == sorted(samples)

    def test_tpc_never_exceeds_fixed_power(self):
        rng = random.Random(1)
        for _ in range(200):
            d = rng.uniform(0.0, 250.0)
            assert tx_power(d, TPC) <= 1.4

    def test_out_of_range_distance_rejected(self):
        for bad in (-1.0, 250.5, 1000.0):
            with pytest.raises(ValueError):
                tx_power(bad, TPC)

    def test_broadcast_power_is_full_range(self):
        assert broadcast_tx_power(TPC) == tx_power(250.0, TPC)
        assert broadcast_tx_power(FIXED) == 1.4


class TestAirtime:
    def test_data_packet_at_2mbps(self):
        assert airtime(512, FIXED) == pytest.approx(2.048e-3)

    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            airtime(0, FIXED)

    def test_linearity(self):
        assert airtime(1024, FIXED) == pytest.approx(2 * airtime(512, FIXED))

    def test_rreq_grows_with_recorded_hops(self):
        assert rreq_bytes(0) == 64
        assert rreq_bytes(3) == 88


class TestLedger:
    def test_conservation_is_exact(self):
        # debits large enough that some nodes run out, clamped, mid-debit
        rng = random.Random(2)
        ledger = EnergyLedger(5, 10.0)
        for _ in range(1000):
            node = rng.randrange(5)
            if not ledger.alive(node):
                continue
            ledger.debit_all([node], [rng.choice(CATEGORIES)],
                             [rng.uniform(0, 0.1)])
        assert ledger.newly_dead
        assert ledger_balances(ledger)

    def test_battery_clamps_to_exactly_zero(self):
        ledger = EnergyLedger(1, 1.0)
        ledger.debit_all([0], ["data_tx"], [5.0])
        assert not ledger.alive(0)
        assert ledger.residual(0) == 0.0
        assert ledger.total(0) == 1.0
        assert list(ledger.newly_dead) == [0]

    def test_each_death_is_recorded_once_at_its_tick(self):
        ledger = EnergyLedger(3, 1.0)
        assert not ledger.note_deaths(0.5)
        ledger.debit_all([1, 0], ["mac", "mac"], [2.0, 0.5])
        assert ledger.note_deaths(1.0)
        assert not ledger.newly_dead
        ledger.debit_all([0], ["mac"], [0.5])
        assert ledger.note_deaths(2.0)
        assert not ledger.note_deaths(3.0)
        assert ledger.died == [2.0, 1.0, None]

    def test_dead_node_rejects_debits(self):
        ledger = EnergyLedger(1, 1.0)
        ledger.debit_all([0], ["mac"], [1.0])
        with pytest.raises(DeadNodeError):
            ledger.debit_all([0], ["mac"], [0.1])

    def test_negative_debit_rejected(self):
        ledger = EnergyLedger(1, 1.0)
        with pytest.raises(ValueError):
            ledger.debit_all([0], ["mac"], [-0.1])

    @pytest.mark.parametrize("nodes, categories, joules", [
        ([0, 1], ["mac"], [1.0, 2.0]),
        ([0], ["mac", "mac"], [1.0, 2.0]),
        ([0, 1], ["mac", "mac"], [1.0]),
    ])
    def test_lists_of_unequal_length_rejected(self, nodes, categories,
                                              joules):
        ledger = EnergyLedger(2, 10.0)
        with pytest.raises(ValueError, match="zip"):
            ledger.debit_all(nodes, categories, joules)

    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(3)
        ledger = EnergyLedger(4, 100.0)
        for _ in range(50):
            ledger.debit_all([rng.randrange(4)], [rng.choice(CATEGORIES)],
                             [rng.uniform(0, 0.5)])
        ledger.debit_all([2], ["mac"], [100.0])
        ledger.note_deaths(2.5)
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        for node, row in enumerate(rows):
            assert int(row["node_id"]) == node
            assert float(row["total_J"]) == ledger.total(node)
            assert float(row["residual_J"]) == ledger.residual(node)
            assert row["died_s"] == ("" if ledger.alive(node) else "2.5")
            parts = sum(float(row[c + "_J"]) for c in CATEGORIES)
            assert parts == pytest.approx(ledger.total(node), abs=1e-12)


# debits against a 3-node ledger of 1 J per node, one node possibly dead
# from the start: amounts up to half a battery exhaust nodes part-way through
# a list; a few are negative, exactly zero, exactly half (two of them empty a
# battery to the last joule), or numpy scalars
_amounts = st.one_of(st.floats(0.0, 0.5), st.just(0.0), st.just(0.5),
                     st.floats(-1.0, -1e-9),
                     st.floats(0.0, 0.5).map(np.float64))
_debits = st.lists(st.tuples(st.integers(0, 2), st.sampled_from(CATEGORIES),
                             _amounts), max_size=25)


def _outcome(apply, dead, debits):
    """The ledger after apply(ledger, debits) and the exception it
    raised."""
    ledger = EnergyLedger(3, 1.0)
    if dead is not None:
        debit(ledger, dead, "beacon", 1.0)
    try:
        apply(ledger, debits)
        error = None
    except (DeadNodeError, ValueError) as exc:
        error = (type(exc), str(exc))
    return ledger, error


def columns(debits):
    """(node, category, joules) debits as debit_all's three parallel lists."""
    return [list(col) for col in zip(*debits)] or [[], [], []]


class TestDebitAll:
    @settings(max_examples=300, deadline=None)
    @given(debits=_debits, dead=st.one_of(st.none(), st.integers(0, 2)))
    def test_equals_one_debit_per_entry(self, debits, dead):
        def oracle(ledger, debits):
            for d in debits:
                debit(ledger, *d)

        def batched(ledger, debits):
            ledger.debit_all(*columns(debits))

        expected, expected_error = _outcome(oracle, dead, debits)
        got, error = _outcome(batched, dead, debits)
        # the same exception, raised by the same debit (its message names
        # the node), after the same debits were applied
        assert error == expected_error
        assert got._residual == expected._residual
        assert got.entries == expected.entries
        assert list(got.newly_dead) == list(expected.newly_dead)
        assert all(type(v) is float for v in got._residual)
        assert all(type(v) is float
                   for cat in CATEGORIES for v in got.entries[cat])

    def test_exhaustion_mid_list_then_dead_node(self):
        ledger = EnergyLedger(2, 1.0)
        with pytest.raises(DeadNodeError, match="node 0"):
            ledger.debit_all(*columns([(1, "mac", 0.25), (0, "data_tx", 0.75),
                                       (0, "mac", 0.5), (0, "data_rx", 0.1),
                                       (1, "mac", 0.25)]))
        assert ledger.entries["mac"] == [0.25, 0.25]
        assert ledger.entries["data_tx"] == [0.75, 0.0]
        assert ledger.residual(0) == 0.0 and ledger.residual(1) == 0.75
        assert list(ledger.newly_dead) == [0]


def charge_exchange(ledger, sender, receiver, d, model, nbytes=512):
    """Apply one hop's exchange table to a ledger, as the data path does."""
    joules = unicast_exchange([d], nbytes, model)
    nodes, categories = exchange_payers([sender], [receiver])
    ledger.debit_all(nodes, categories, joules)


def assert_matches_oracle(lengths, nbytes, model):
    got = unicast_exchange(lengths, nbytes, model)
    assert got == [j for hop in unicast_exchange_oracle(lengths, nbytes, model)
                   for j in hop]
    assert all(type(j) is float for j in got)


# the largest hop length tx_power accepts, and the next float above it
RANGE_LIMIT = 250.0 * (1.0 + 1e-12)
PAST_LIMIT = math.nextafter(RANGE_LIMIT, math.inf)


class TestUnicastHop:
    def test_data_tx_energy_fixed_power(self):
        ledger = EnergyLedger(2, 1500.0)
        charge_exchange(ledger, 0, 1, 250.0, FIXED)
        assert ledger.entries["data_tx"][0] == pytest.approx(2.8672e-3)

    def test_data_tx_energy_tpc(self):
        ledger = EnergyLedger(2, 1500.0)
        charge_exchange(ledger, 0, 1, 250.0, TPC)
        assert ledger.entries["data_tx"][0] == pytest.approx(
            1.39945 * 2.048e-3, rel=1e-6)

    def test_receiver_charges(self):
        ledger = EnergyLedger(2, 1500.0)
        charge_exchange(ledger, 0, 1, 100.0, FIXED)
        assert ledger.entries["data_rx"][1] == pytest.approx(0.967 * 2.048e-3)
        # receiver sends CTS + ACK at hop power, receives RTS at rx power
        expected_mac = (0.967 * airtime(20, FIXED)
                        + 1.4 * (airtime(14, FIXED) + airtime(14, FIXED)))
        assert ledger.entries["mac"][1] == pytest.approx(expected_mac)

    def test_debit_order_and_categories(self):
        # per hop: sender payload, sender control, receiver payload,
        # receiver control
        t_pay, t_rts = airtime(64, FIXED), airtime(20, FIXED)
        t_cts_ack = airtime(14, FIXED) + airtime(14, FIXED)
        hop = unicast_exchange([100.0], 64, FIXED)
        assert hop == pytest.approx([1.4 * t_pay, 1.4 * t_rts + 0.967 * t_cts_ack,
                                     0.967 * t_pay, 0.967 * t_rts + 1.4 * t_cts_ack],
                                    rel=1e-15)
        # one call over many hops is the per-hop calls, value for value
        lengths = [0.0, 37.5, 100.0, 249.9, 250.0]
        assert unicast_exchange(lengths, 512, TPC) == \
            [j for d in lengths for j in unicast_exchange([d], 512, TPC)]
        assert unicast_exchange([], 512, TPC) == []

    @pytest.mark.parametrize("model", [TPC, FIXED], ids=["tpc", "fixed"])
    def test_equals_the_scalar_loop_at_the_range_ends(self, model):
        edges = [0.0, 250.0, math.nextafter(250.0, math.inf), RANGE_LIMIT]
        assert_matches_oracle(edges, 512, model)
        assert_matches_oracle(edges[::-1] + [100.0] * 9, 64, model)

    @pytest.mark.parametrize("model", [TPC, FIXED], ids=["tpc", "fixed"])
    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.floats(0.0, RANGE_LIMIT), max_size=40),
           nbytes=st.integers(1, 2048))
    def test_equals_the_scalar_loop(self, model, lengths, nbytes):
        assert_matches_oracle(lengths, nbytes, model)

    @pytest.mark.parametrize("model", [TPC, FIXED], ids=["tpc", "fixed"])
    @pytest.mark.parametrize("bad", [PAST_LIMIT, 251.0, -1e-300, math.nan])
    def test_out_of_range_hop_raises_as_the_scalar_loop_does(self, model, bad):
        lengths = [10.0, RANGE_LIMIT, bad, 0.0, 300.0]
        with pytest.raises(ValueError) as expected:
            unicast_exchange_oracle(lengths, 512, model)
        with pytest.raises(ValueError) as got:
            unicast_exchange(lengths, 512, model)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"hop distance {bad} ")

    def test_fourth_power_is_pythons_not_numpys(self):
        # numpy's power rounds this fourth power one ulp lower, which moves
        # the transmit power to 1.1683224048049932
        d = 162.4332189408099
        assert tx_power(d, TPC) == 1.1683224048049934
        lengths = [100.0] * 10 + [d] + [200.0] * 10
        assert_matches_oracle(lengths, 512, TPC)
        # the eleventh hop's sender payload
        assert unicast_exchange(lengths, 512, TPC)[4 * 10] == \
            1.1683224048049934 * airtime(512, TPC)

    def test_payers_follow_the_exchange_order(self):
        # a data hop: the sender pays the payload as data_tx, the receiver
        # as data_rx, both their control frames as mac
        def pairs(*args):
            return list(zip(*exchange_payers(*args)))

        assert pairs([0, 1], [1, 2]) == [
            *((0, "data_tx"), (0, "mac"), (1, "data_rx"), (1, "mac")),
            *((1, "data_tx"), (1, "mac"), (2, "data_rx"), (2, "mac"))]
        # hops from a route's head back to its tail: each sender pays first
        assert pairs([2, 1], [1, 0]) == [
            *((2, "data_tx"), (2, "mac"), (1, "data_rx"), (1, "mac")),
            *((1, "data_tx"), (1, "mac"), (0, "data_rx"), (0, "mac"))]
        assert exchange_payers([], []) == ([], [])
        assert DATA_EXCHANGE == ("data_tx", "mac", "data_rx", "mac")

    def test_total_equals_sum_of_debits(self):
        ledger = EnergyLedger(2, 1500.0)
        charge_exchange(ledger, 0, 1, 200.0, TPC)
        per_node = [ledger.total(0), ledger.total(1)]
        assert grand_total(ledger) == pytest.approx(sum(per_node))
        assert ledger_balances(ledger)

    def test_dead_endpoint_rejected(self):
        ledger = EnergyLedger(2, 1.0)
        debit(ledger, 1, "mac", 1.0)
        with pytest.raises(DeadNodeError):
            charge_exchange(ledger, 0, 1, 100.0, FIXED)

    def test_tpc_dominance_per_hop(self):
        rng = random.Random(4)
        for _ in range(100):
            d = rng.uniform(0.0, 250.0)
            lt, lf = EnergyLedger(2, 1500.0), EnergyLedger(2, 1500.0)
            charge_exchange(lt, 0, 1, d, TPC)
            charge_exchange(lf, 0, 1, d, FIXED)
            assert grand_total(lt) <= grand_total(lf)


class TestBroadcast:
    def test_neighbor_count_linearity(self):
        ledger = EnergyLedger(11, 1500.0)
        charge_broadcast(ledger, 0, list(range(1, 11)), 32, FIXED)
        t = airtime(32, FIXED)
        assert grand_total(ledger) == pytest.approx((1.4 + 10 * 0.967) * t)

    def test_no_neighbors_charges_only_sender(self):
        ledger = EnergyLedger(3, 1500.0)
        charge_broadcast(ledger, 0, [], 32, FIXED)
        assert ledger.total(0) > 0.0
        assert ledger.total(1) == ledger.total(2) == 0.0

    def test_dead_sender_rejected(self):
        ledger = EnergyLedger(2, 1.0)
        debit(ledger, 0, "mac", 1.0)
        with pytest.raises(DeadNodeError):
            charge_broadcast(ledger, 0, [1], 32, FIXED)

    def test_beacon_round_equals_per_node_broadcasts(self):
        rng = random.Random(5)
        nodes = random_static_nodes(rng, n=30)
        snap = full_snapshot(nodes)
        batched = EnergyLedger(30, 1500.0)
        charge_beacon_round(batched, snap, FIXED)
        unbatched = EnergyLedger(30, 1500.0)
        for node in range(30):
            charge_broadcast(unbatched, node, snap.neighbor_lists[node], 32,
                             FIXED)
        for node in range(30):
            assert batched.total(node) == pytest.approx(
                unbatched.total(node), rel=1e-12)


class TestRouteDiscovery:
    def test_two_node_flood_and_reply(self):
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)])
        snap = full_snapshot(nodes)
        route = Route(session=0, nodes=(0, 1), metric_value=1.0,
                      discovered_at=0.0)
        ledger = EnergyLedger(2, 1500.0)
        charge_route_discovery(ledger, snap, 0, route, FIXED)
        # two RREQ broadcasts (64 B at source, 72 B at the 1-hop node),
        # each heard by the other node, plus one 64 B RREP unicast hop
        t64, t72 = airtime(64, FIXED), airtime(72, FIXED)
        flood = (1.4 + 0.967) * (t64 + t72)
        t_rrep = airtime(64, FIXED)
        t_ctl = airtime(20, FIXED) + 2 * airtime(14, FIXED)
        reply = (1.4 + 0.967) * (t_rrep + t_ctl)
        assert grand_total(ledger) == pytest.approx(flood + reply)
        assert ledger.category_total("discovery") == pytest.approx(
            grand_total(ledger))

    def test_replier_exhausted_by_its_own_reply(self):
        # node 1 can pay its flood share and half its RREP payload: the
        # reply kills it, its control debit is skipped, node 0 still pays
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)])
        snap = full_snapshot(nodes)
        route = Route(session=0, nodes=(0, 1), metric_value=1.0,
                      discovered_at=0.0)
        flood = EnergyLedger(2, 1500.0)
        charge_route_discovery(flood, snap, 0, None, FIXED)
        payload = 1.4 * airtime(64, FIXED)
        ledger = EnergyLedger(2, 1500.0)
        debit(ledger, 1, "mac", 1500.0 - (flood.total(1) + 0.5 * payload))
        charge_route_discovery(ledger, snap, 0, route, FIXED)
        assert ledger.residual(1) == 0.0
        assert list(ledger.newly_dead) == [1]
        # node 0 receives the RREP and RTS, and sends CTS and ACK
        received = 0.967 * (airtime(64, FIXED) + airtime(20, FIXED)) \
            + 1.4 * 2 * airtime(14, FIXED)
        assert ledger.total(0) == pytest.approx(flood.total(0) + received)

    def test_receiver_exhausted_by_the_reply(self):
        # the mirror case: node 0 can pay its flood share and half of its
        # RREP payload reception, which kills it; its control debit is
        # skipped, and node 1 has paid its whole sending part
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)])
        snap = full_snapshot(nodes)
        route = Route(session=0, nodes=(0, 1), metric_value=1.0,
                      discovered_at=0.0)
        flood = EnergyLedger(2, 1500.0)
        charge_route_discovery(flood, snap, 0, None, FIXED)
        payload = 0.967 * airtime(64, FIXED)
        ledger = EnergyLedger(2, 1500.0)
        debit(ledger, 0, "mac", 1500.0 - (flood.total(0) + 0.5 * payload))
        charge_route_discovery(ledger, snap, 0, route, FIXED)
        assert ledger.residual(0) == 0.0
        assert list(ledger.newly_dead) == [0]
        assert ledger.entries["discovery"][0] == pytest.approx(
            flood.total(0) + 0.5 * payload)
        sent = 1.4 * (airtime(64, FIXED) + airtime(20, FIXED)) \
            + 0.967 * 2 * airtime(14, FIXED)
        assert ledger.total(1) == pytest.approx(flood.total(1) + sent)

    def test_hop_with_a_dead_end_is_skipped(self):
        # hops are charged from the source's end: node 1 dies sending the
        # RREP to node 0, which still receives it, and the hop from node 2
        # to the now dead node 1 is skipped
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
        snap = full_snapshot(nodes)
        route = Route(session=0, nodes=(0, 1, 2), metric_value=1.0,
                      discovered_at=0.0)
        flood = EnergyLedger(3, 1500.0)
        charge_route_discovery(flood, snap, 0, None, FIXED)
        ledger = EnergyLedger(3, 1500.0)
        debit(ledger, 1, "mac", 1500.0 - (flood.total(1) + 1e-6))
        charge_route_discovery(ledger, snap, 0, route, FIXED)
        assert list(ledger.newly_dead) == [1]
        received = 0.967 * (airtime(64, FIXED) + airtime(20, FIXED)) \
            + 1.4 * 2 * airtime(14, FIXED)
        assert ledger.total(0) == pytest.approx(flood.total(0) + received)
        assert ledger.total(2) == flood.total(2)

    def test_no_route_charges_flood_only(self):
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)])
        snap = full_snapshot(nodes)
        with_route = EnergyLedger(2, 1500.0)
        route = Route(session=0, nodes=(0, 1), metric_value=1.0,
                      discovered_at=0.0)
        charge_route_discovery(with_route, snap, 0, route, FIXED)
        without = EnergyLedger(2, 1500.0)
        charge_route_discovery(without, snap, 0, None, FIXED)
        assert grand_total(without) < grand_total(with_route)

    def test_flood_matches_degree_sequence_recount(self):
        # independent recount from BFS depths and the neighbour lists, on
        # 50-node snapshots with a few nodes moved out of everyone's range:
        # the flood reaches a node or charges it nothing
        rng = random.Random(6)
        for trial in range(5):
            nodes = random_static_nodes(rng, n=50)
            for i in rng.sample(range(50), 3):
                nodes.x[i], nodes.y[i] = 5000.0 + 1000.0 * i, 5000.0
            snap = full_snapshot(nodes)
            source = rng.randrange(50)
            ledger = EnergyLedger(50, 1500.0)
            charge_route_discovery(ledger, snap, source, None, FIXED)
            hops = flood_depths(snap, source)
            assert hops.count(-1) >= 3
            for node in range(50):
                expected = 0.0
                if hops[node] >= 0:
                    heard = sum(rreq_bytes(hops[j])
                                for j in snap.neighbor_lists[node])
                    expected = (1.4 * (8.0 * rreq_bytes(hops[node]) / 2e6)
                                + 0.967 * (8.0 * heard / 2e6))
                assert ledger.entries["discovery"][node] == expected

    def test_flood_reception_scales_with_degree_sum(self, monkeypatch):
        # with constant-size RREQs, total reception energy is
        # rx_power * airtime * sum of degrees
        monkeypatch.setattr(energy, "RREQ_HOP_BYTES", 0)
        rng = random.Random(7)
        nodes = random_static_nodes(rng, n=40)
        snap = full_snapshot(nodes)
        ledger = EnergyLedger(40, 1500.0)
        charge_route_discovery(ledger, snap, 0, None, FIXED)
        t = airtime(64, FIXED)
        expected_rx = 0.967 * t * snap.degrees().sum()
        expected_tx = 1.4 * t * 40
        assert grand_total(ledger) == pytest.approx(expected_tx + expected_rx)


def flood_charges(snap, source, model, ledger_dead=()):
    """Discovery joules of one flood from source, as the ledger records
    them, with the ledger_dead nodes emptied beforehand."""
    ledger = EnergyLedger(snap.n, 1500.0)
    for node in ledger_dead:
        debit(ledger, node, "mac", 1500.0)
    charge_route_discovery(ledger, snap, source, None, model)
    assert ledger.entries["mac"] == [1500.0 if i in ledger_dead else 0.0
                                     for i in range(snap.n)]
    return ledger.entries["discovery"]


# multiples of 50 m put some pairs at exactly r
_COORD = st.integers(0, 24).map(lambda k: 50.0 * k)


class TestFloodOracle:
    def test_unreached_node_pays_nothing(self):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (100.0, 0.0),
                                         (900.0, 900.0)]))
        got = flood_charges(snap, 0, FIXED)
        assert got[2] == 0.0
        assert got == flood_oracle(snap, [True] * 3, 0, FIXED)
        t64, t72 = 8.0 * 64 / 2e6, 8.0 * 72 / 2e6
        assert got[:2] == [1.4 * t64 + 0.967 * t72, 1.4 * t72 + 0.967 * t64]

    @pytest.mark.parametrize("model", [FIXED, TPC])
    def test_isolated_source_pays_only_its_own_request(self, model):
        snap = full_snapshot(make_nodes([(0.0, 0.0), (900.0, 0.0),
                                         (1000.0, 0.0)]))
        got = flood_charges(snap, 0, model)
        assert got == [broadcast_tx_power(model) * (8.0 * 64 / 2e6), 0.0, 0.0]
        assert got == flood_oracle(snap, [True] * 3, 0, model)

    @pytest.mark.parametrize("model", [FIXED, TPC])
    def test_ledger_dead_relay_neither_sends_nor_pays(self, model):
        # node 1 is alive in the snapshot, so the flood's depths pass it,
        # but its battery ran out earlier in the tick
        snap = full_snapshot(make_nodes([(0.0, 0.0), (200.0, 0.0),
                                         (400.0, 0.0)]))
        got = flood_charges(snap, 0, model, ledger_dead={1})
        t64, t80 = 8.0 * 64 / 2e6, 8.0 * 80 / 2e6
        tx = broadcast_tx_power(model)
        assert got == [tx * t64, 0.0, tx * t80]
        assert got == flood_oracle(snap, [True, False, True], 0, model)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), model=st.sampled_from([FIXED, TPC]))
    def test_equals_the_integer_oracle(self, data, model):
        # a random graph plus a component of two nodes far away, which no
        # flood from the rest reaches; some nodes dead in the snapshot and
        # some only in the ledger
        n = data.draw(st.integers(1, 14))
        points = data.draw(st.lists(st.tuples(_COORD, _COORD),
                                    min_size=n, max_size=n))
        points += [(5000.0, 5000.0), (5000.0, 5100.0)]
        n += 2
        dead = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
        source = data.draw(st.integers(0, n - 1).filter(
            lambda i: i not in dead))
        ledger_dead = data.draw(st.sets(st.integers(0, n - 1).filter(
            lambda i: i not in dead and i != source), max_size=3))
        snap = full_snapshot(make_nodes(points), dead)
        alive = [i not in dead and i not in ledger_dead for i in range(n)]
        got = flood_charges(snap, source, model, dead | ledger_dead)
        expected = flood_oracle(snap, alive, source, model)
        assert got == expected
        unreached = n - 2 if source < n - 2 else 0
        assert got[unreached] == 0.0
