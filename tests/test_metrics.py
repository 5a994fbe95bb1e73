"""Run-level metric formulas, aggregation, and CSV recomputation."""

import csv
import statistics
from dataclasses import fields

import pytest

from manetsim.config import ScenarioConfig
from manetsim.energy import EnergyLedger
from manetsim.engine import (PacketRecord, Session, run, write_packets_csv,
                             write_routes_csv)
from manetsim.metrics import (MetricsReport, aggregate, compute_report,
                              delay_per_packet, energy_per_packet,
                              fairness_stddev, recompute_from_csv,
                              relative_close, route_transitions,
                              time_averaged_hop_count)
from manetsim.protocols import Route

from test_energy import debit


def make_route(session, discovered, torn_down, hops):
    nodes = tuple(range(hops + 1))
    return Route(session=session, nodes=nodes, metric_value=1.0,
                 discovered_at=discovered,
                 torn_down_at=torn_down)


def make_session(sid):
    return Session(id=sid, source=0, destination=1, start=1.0)


class TestRouteTransitions:
    def test_counts_discoveries_per_session(self):
        routes = [make_route(0, t, None, 2) for t in (1.0, 300.0, 700.0)]
        assert route_transitions(routes, [make_session(0)]) == 3.0

    def test_mean_over_sessions(self):
        routes = [make_route(0, 1.0, None, 2), make_route(1, 1.0, 5.0, 2),
                  make_route(1, 6.0, None, 2)]
        sessions = [make_session(0), make_session(1), make_session(2)]
        assert route_transitions(routes, sessions) == pytest.approx(1.0)

    def test_no_sessions(self):
        assert route_transitions([], []) == 0.0


class TestTimeAveragedHopCount:
    def test_lifetime_weighted(self):
        # 2 hops for 10 s then 4 hops for 30 s: (20 + 120) / 40 = 3.5
        routes = [make_route(0, 0.0, 10.0, 2), make_route(0, 10.0, 40.0, 4)]
        assert time_averaged_hop_count(routes, [make_session(0)], 40.0) == 3.5

    def test_single_route(self):
        routes = [make_route(0, 5.0, None, 3)]
        assert time_averaged_hop_count(routes, [make_session(0)], 100.0) == 3.0

    def test_constant_hops_independent_of_lifetimes(self):
        routes = [make_route(0, 0.0, 7.0, 4), make_route(0, 9.0, 11.5, 4),
                  make_route(0, 20.0, None, 4)]
        assert time_averaged_hop_count(routes, [make_session(0)], 60.0) == 4.0

    def test_open_route_uses_end_time(self):
        routes = [make_route(0, 90.0, None, 5)]
        assert time_averaged_hop_count(routes, [make_session(0)], 100.0) == 5.0

    def test_zero_lifetime_sessions_excluded(self):
        routes = [make_route(0, 10.0, 10.0, 2), make_route(1, 0.0, 10.0, 3)]
        sessions = [make_session(0), make_session(1)]
        assert time_averaged_hop_count(routes, sessions, 10.0) == 3.0


class TestDelayAndEnergyPerPacket:
    def test_only_delivered_packets_count(self):
        delivered = PacketRecord(session=0, seq=0, created_at=0.0,
                                 delivered_at=1.0, base_service=2e-3)
        dropped = PacketRecord(session=0, seq=1, created_at=0.0)
        assert delay_per_packet([delivered, dropped], kappa=0.5) == \
            pytest.approx(delivered.total_delay(0.5))

    def test_no_deliveries_is_absent(self):
        assert delay_per_packet([], 0.5) is None

    def test_energy_per_packet_absent_without_deliveries(self):
        result = run(ScenarioConfig(node_count=20, session_count=0,
                                    duration=5.0, seed=1))
        assert energy_per_packet(result.ledger, 0) is None

    def test_energy_ratio_invariance(self):
        result = run(ScenarioConfig(node_count=20, session_count=3,
                                    duration=20.0, seed=3))
        one = energy_per_packet(result.ledger, 10)
        two = energy_per_packet(result.ledger, 20)
        assert one == pytest.approx(2 * two)

    def test_beacons_excluded_from_energy_metric(self):
        result = run(ScenarioConfig(node_count=20, session_count=0,
                                    duration=5.0, seed=1))
        # idle network: only beacon energy exists, so the metric sums to zero
        assert energy_per_packet(result.ledger, 1) == 0.0


class TestFairness:
    def test_equal_consumption_is_perfectly_fair(self):
        assert fairness_stddev([2.0, 2.0, 2.0]) == 0.0

    def test_two_point_example(self):
        assert fairness_stddev([1.0, 3.0]) == 1.0

    def test_population_not_sample(self):
        values = [1.0, 2.0, 4.0]
        assert fairness_stddev(values) == statistics.pstdev(values)
        assert fairness_stddev(values) != statistics.stdev(values)

    def test_translation_invariance(self):
        values = [1.0, 5.0, 2.5, 9.0]
        shifted = [v + 13.0 for v in values]
        assert fairness_stddev(shifted) == pytest.approx(
            fairness_stddev(values))


class TestAggregate:
    def test_identical_reports(self):
        rep = MetricsReport(route_transitions=3.0, hop_count=2.5,
                            delay_per_packet=0.01, energy_per_packet=0.02,
                            fairness_stddev=1.0, first_failure_time=None)
        mean, std = aggregate([rep, rep, rep])
        assert mean == rep
        assert std.route_transitions == 0.0
        assert std.first_failure_time is None

    def test_mean_and_stddev(self):
        a = MetricsReport(route_transitions=2.0)
        b = MetricsReport(route_transitions=4.0)
        mean, std = aggregate([a, b])
        assert mean.route_transitions == 3.0
        assert std.route_transitions == pytest.approx(
            statistics.stdev([2.0, 4.0]))

    def test_partial_none_fields_use_present_values(self):
        a = MetricsReport(first_failure_time=10.0)
        b = MetricsReport(first_failure_time=None)
        mean, _ = aggregate([a, b])
        assert mean.first_failure_time == 10.0

    def test_field_in_one_report_has_no_stddev(self):
        # one of two replications saw a death: one value, no sample stddev
        a = MetricsReport(first_failure_time=10.0)
        b = MetricsReport(first_failure_time=None)
        _, std = aggregate([a, b])
        assert std.first_failure_time is None
        assert std.route_transitions == 0.0

    def test_one_report_is_its_own_mean(self):
        rep = MetricsReport(route_transitions=2.5, hop_count=3.25,
                            delay_per_packet=0.125, fairness_stddev=1.5)
        mean, std = aggregate([rep])
        assert mean == rep
        assert std == MetricsReport(**dict.fromkeys(
            f.name for f in fields(MetricsReport)))


@pytest.fixture(scope="module")
def result():
    return run(ScenarioConfig(node_count=30, session_count=5,
                              duration=60.0, seed=11, protocol="MMBCR"))


class TestComputeReport:

    def test_report_invariants(self, result):
        report = compute_report(result)
        assert report.route_transitions >= 1.0
        assert report.hop_count >= 1.0
        assert report.delay_per_packet > 0.0
        assert report.energy_per_packet > 0.0
        assert report.fairness_stddev >= 0.0

    def test_delay_decomposes_into_component_means(self, result):
        kappa = result.config.kappa
        delivered = [p for p in result.packets if p.delivered]
        report = compute_report(result)
        parts = [sum(c) / len(delivered)
                 for c in zip(*((p.buffering, p.service(kappa), p.propagation)
                                for p in delivered))]
        assert report.delay_per_packet == pytest.approx(sum(parts), rel=1e-9)

    def test_kappa_override_recomputes_delay_only(self, result):
        low = compute_report(result, kappa=0.1)
        high = compute_report(result, kappa=1.0)
        assert low.delay_per_packet < high.delay_per_packet
        assert low.route_transitions == high.route_transitions
        assert low.energy_per_packet == high.energy_per_packet

    def test_csv_recomputation_matches(self, result, tmp_path):
        pk, rt, lg = (tmp_path / n
                      for n in ("packets.csv", "routes.csv", "ledger.csv"))
        write_packets_csv(result, pk)
        write_routes_csv(result, rt)
        result.ledger.write_csv(lg)
        reference = compute_report(result)
        recomputed = recompute_from_csv(pk, rt, lg, result.end_time)
        for fld in fields(MetricsReport):
            assert relative_close(getattr(recomputed, fld.name),
                                  getattr(reference, fld.name), tol=1e-9), \
                fld.name


class TestDeathTimes:
    def test_first_failure_is_recomputed_from_the_death_times(self, tmp_path):
        # node 7 of this 10-node, 0.3 J run dies first, at t = 17.7 s
        result = run(ScenarioConfig(node_count=10, session_count=3,
                                    initial_battery=0.3,
                                    until_first_failure=True, seed=1))
        assert result.first_failure_time == result.end_time == 17.7
        pk, rt, lg = (tmp_path / n
                      for n in ("packets.csv", "routes.csv", "ledger.csv"))
        write_packets_csv(result, pk)
        write_routes_csv(result, rt)
        result.ledger.write_csv(lg)
        with open(lg, newline="") as f:
            died = [row["died_s"] for row in csv.DictReader(f)]
        assert died == ["17.7" if i == 7 else "" for i in range(10)]
        report = recompute_from_csv(pk, rt, lg, result.end_time)
        assert report.first_failure_time == 17.7

    def test_no_death_recomputes_to_none(self, result, tmp_path):
        pk, rt, lg = (tmp_path / n
                      for n in ("packets.csv", "routes.csv", "ledger.csv"))
        write_packets_csv(result, pk)
        write_routes_csv(result, rt)
        result.ledger.write_csv(lg)
        assert result.first_failure_time is None
        assert recompute_from_csv(pk, rt, lg, 60.0).first_failure_time is None


class TestExactSums:
    """Ten terms of 0.1 sum to 0.9999999999999999 left to right, and to 1.0
    under the compensated builtin sum of Python 3.12 on: each metric takes
    the correctly rounded sum, so its value is the same on every Python."""

    def test_delay_per_packet(self):
        packets = [PacketRecord(session=0, seq=i, created_at=0.0,
                                delivered_at=0.1, buffering=0.1)
                   for i in range(10)]
        assert delay_per_packet(packets, kappa=0.5) == 0.1

    def test_energy_per_packet(self):
        ledger = EnergyLedger(10, 1.0)
        for node in range(10):
            debit(ledger, node, "data_tx", 0.1)
        assert ledger.category_total("data_tx") == 1.0
        assert energy_per_packet(ledger, 10) == 0.1

    def test_aggregate(self):
        mean, _ = aggregate([MetricsReport(delay_per_packet=0.1)] * 10)
        assert mean.delay_per_packet == 0.1

    def test_recompute_from_csv(self, tmp_path):
        pk, rt, lg = (tmp_path / n
                      for n in ("packets.csv", "routes.csv", "ledger.csv"))
        pk.write_text("session,seq,created_s,delivered_s,hops,buffering_s,"
                      "service_s,propagation_s\n"
                      + "".join(f"0,{i},0.0,0.1,1,0.1,0.0,0.0\n"
                                for i in range(10)))
        rt.write_text("session,discovered_s,torn_down_s,hops,metric_value,"
                      "node_list\n0,0.0,,1,0.0,0 1\n")
        lg.write_text("node_id,data_tx_J,data_rx_J,mac_J,beacon_J,"
                      "discovery_J,total_J,residual_J,died_s\n"
                      + "".join(f"{i},0.1,0.0,0.0,0.0,0.0,0.1,0.9,\n"
                                for i in range(10)))
        report = recompute_from_csv(pk, rt, lg, end_time=1.0)
        assert report.delay_per_packet == 0.1
        assert report.energy_per_packet == 0.1


class TestRelativeClose:
    def test_handles_none(self):
        assert relative_close(None, None)
        assert not relative_close(None, 1.0)

    def test_tolerance(self):
        assert relative_close(1.0, 1.0 + 1e-12)
        assert not relative_close(1.0, 1.001)
