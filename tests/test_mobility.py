"""Random waypoint motion and link expiration time prediction."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.config import ConfigError, ScenarioConfig
from manetsim.mobility import (Nodes, Trace, TraceWriter, advance,
                               init_mobility)

from oracles import (advance_oracle, link_expiration_time, make_nodes,
                     random_in_range_pair, velocity)


def copy_nodes(nodes):
    return Nodes(*dataclasses.astuple(nodes))


def bits(nodes):
    """Every field of every node, exactly: a float's hex tells -0.0 from
    0.0 and differs in any bit."""
    return [[v.hex() for v in a.tolist()] for a in dataclasses.astuple(nodes)]


class TestLinkExpirationTime:
    def test_moving_towards_then_past(self):
        # closing at 10 m/s from 100 m apart: |10t - 100| = 250 at t = 35
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)], speed=[10.0, 0.0])
        assert link_expiration_time(nodes, 0, 1, 250.0) == pytest.approx(35.0)

    def test_receding_neighbor(self):
        # gap grows from 100 m at 10 m/s: 100 + 10t = 250 at t = 15
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)], speed=[0.0, 10.0])
        assert link_expiration_time(nodes, 0, 1, 250.0) == pytest.approx(15.0)

    def test_zero_relative_velocity_is_infinite(self):
        nodes = make_nodes([(0.0, 0.0), (100.0, 0.0)], speed=7.0, heading=1.0)
        assert link_expiration_time(nodes, 0, 1, 250.0) == math.inf

    def test_both_stationary_is_infinite(self):
        nodes = make_nodes([(0.0, 0.0), (10.0, 10.0)])
        assert link_expiration_time(nodes, 0, 1, 250.0) == math.inf

    def test_out_of_range_pair_rejected(self):
        nodes = make_nodes([(0.0, 0.0), (0.0, 250.02)], speed=1.0)
        with pytest.raises(ValueError):
            link_expiration_time(nodes, 0, 1, 250.0)

    def test_symmetric_in_arguments(self):
        rng = random.Random(7)
        for _ in range(50):
            pair = random_in_range_pair(rng, r=250.0)
            assert link_expiration_time(pair, 0, 1, 250.0) == pytest.approx(
                link_expiration_time(pair, 1, 0, 250.0))

    def test_boundary_consistency(self):
        # still in range just before the predicted expiry, out just after
        rng = random.Random(99)
        delta = 0.01
        checked = 0
        while checked < 200:
            pair = random_in_range_pair(rng, r=250.0)
            let = link_expiration_time(pair, 0, 1, 250.0)
            if not delta < let < 1e6:
                continue
            checked += 1
            assert _distance_at(pair, 0, 1, let - delta) <= 250.0
            assert _distance_at(pair, 0, 1, let + delta) > 250.0


def _distance_at(nodes, i, j, t):
    vxi, vyi = velocity(nodes, i)
    vxj, vyj = velocity(nodes, j)
    dx = (nodes.x[i] + vxi * t) - (nodes.x[j] + vxj * t)
    dy = (nodes.y[i] + vyi * t) - (nodes.y[j] + vyj * t)
    return math.hypot(dx, dy)


class TestInitMobility:
    def test_positions_within_area(self):
        cfg = ScenarioConfig(node_count=50, area=(1000.0, 1000.0))
        nodes = init_mobility(cfg, random.Random(1))
        assert len(nodes.x) == 50
        for a in (nodes.x, nodes.y, nodes.wx, nodes.wy):
            assert len(a) == 50
            assert ((0.0 <= a) & (a <= 1000.0)).all()

    def test_speeds_and_headings_in_range(self):
        cfg = ScenarioConfig(v_max=20.0)
        nodes = init_mobility(cfg, random.Random(2))
        assert ((cfg.min_speed < nodes.speed)
                & (nodes.speed <= cfg.v_max)).all()
        assert ((0.0 <= nodes.heading) & (nodes.heading < 2 * math.pi)).all()

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigError):
            init_mobility(ScenarioConfig(node_count=0), random.Random(1))
        with pytest.raises(ConfigError):
            init_mobility(ScenarioConfig(node_count=1), random.Random(1))

    def test_zero_area_rejected(self):
        with pytest.raises(ConfigError):
            init_mobility(ScenarioConfig(area=(0.0, 1000.0)), random.Random(1))

    def test_deterministic_for_fixed_seed(self):
        cfg = ScenarioConfig()
        a = init_mobility(cfg, random.Random(42))
        b = init_mobility(cfg, random.Random(42))
        assert bits(a) == bits(b)


class _ZeroRng:
    """Stand-in rng whose uniform always returns the low endpoint."""

    def uniform(self, lo, hi):
        return lo


class _CountingRandom(random.Random):
    """random.Random that counts its uniform draws."""

    draws = 0

    def uniform(self, lo, hi):
        self.draws += 1
        return super().uniform(lo, hi)


class TestAdvance:
    def test_straight_line_step(self):
        cfg = ScenarioConfig()
        nodes = make_nodes([(0.0, 0.0)], speed=10.0, waypoints=[(100.0, 0.0)])
        advance(nodes, 1.0, cfg, random.Random(1))
        assert (nodes.x[0], nodes.y[0]) == pytest.approx((10.0, 0.0))

    def test_waypoint_arrival_splits_the_step(self):
        # reaches (5, 0) at t=0.5; _ZeroRng redraws waypoint (0,0) and speed
        # v_max, so the remaining 0.5 s covers 5 m back: two 5 m segments.
        cfg = ScenarioConfig(v_max=10.0)
        nodes = make_nodes([(0.0, 0.0)], speed=10.0, waypoints=[(5.0, 0.0)])
        advance(nodes, 1.0, cfg, _ZeroRng())
        assert nodes.speed[0] == pytest.approx(10.0)
        assert (nodes.x[0], nodes.y[0]) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_step_splitting_equivalence(self):
        # four 0.25 s steps equal one 1.0 s step when no waypoint is reached
        cfg = ScenarioConfig()
        a = make_nodes([(0.0, 0.0)], speed=10.0, waypoints=[(1000.0, 0.0)])
        b = copy_nodes(a)
        advance(a, 1.0, cfg, random.Random(1))
        for _ in range(4):
            advance(b, 0.25, cfg, random.Random(1))
        assert a.x[0] == pytest.approx(b.x[0], abs=1e-9)
        assert a.y[0] == pytest.approx(b.y[0], abs=1e-9)

    def test_nonpositive_dt_rejected(self):
        cfg = ScenarioConfig()
        nodes = init_mobility(cfg, random.Random(1))
        with pytest.raises(ValueError):
            advance(nodes, 0.0, cfg, random.Random(1))
        with pytest.raises(ValueError):
            advance(nodes, -0.1, cfg, random.Random(1))

    def test_kinematic_bound_and_area_containment(self):
        cfg = ScenarioConfig(v_max=50.0, node_count=20)
        rng = random.Random(5)
        nodes = init_mobility(cfg, rng)
        for _ in range(500):
            x0, y0 = nodes.x.copy(), nodes.y.copy()
            advance(nodes, cfg.tick, cfg, rng)
            moved = np.array(list(map(math.hypot, nodes.x - x0, nodes.y - y0)))
            assert (moved <= cfg.v_max * cfg.tick + 1e-9).all()
            assert ((0.0 <= nodes.x) & (nodes.x <= 1000.0)).all()
            assert ((0.0 <= nodes.y) & (nodes.y <= 1000.0)).all()
            assert ((cfg.min_speed < nodes.speed)
                    & (nodes.speed <= cfg.v_max)).all()
            assert ((0.0 <= nodes.heading)
                    & (nodes.heading < 2 * math.pi)).all()

    def test_deterministic_trajectories(self):
        cfg = ScenarioConfig(node_count=10)
        a = init_mobility(cfg, random.Random(3))
        b = init_mobility(cfg, random.Random(3))
        rng_a, rng_b = random.Random(4), random.Random(4)
        for _ in range(100):
            advance(a, cfg.tick, cfg, rng_a)
            advance(b, cfg.tick, cfg, rng_b)
        assert bits(a) == bits(b)

    @given(speed=st.floats(0.02, 50.0), dt=st.floats(0.001, 2.0),
           heading=st.floats(0.0, 2 * math.pi - 1e-9))
    @settings(max_examples=100, deadline=None)
    def test_displacement_never_exceeds_path_budget(self, speed, dt, heading):
        cfg = ScenarioConfig(v_max=50.0)
        nodes = make_nodes([(500.0, 500.0)], speed, heading,
                           [(500.0 + 400.0 * math.cos(heading),
                             500.0 + 400.0 * math.sin(heading))])
        advance(nodes, dt, cfg, random.Random(0))
        moved = math.hypot(nodes.x[0] - 500.0, nodes.y[0] - 500.0)
        assert moved <= cfg.v_max * dt * (1 + 1e-9)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_node_loop(self, data):
        # a 1 m square makes nodes reach their waypoints often, several
        # times in one step at high speed; node 0 sits on its waypoint
        side = data.draw(st.sampled_from((1.0, 30.0, 1000.0)))
        v_max = data.draw(st.floats(0.5, 60.0))
        min_speed = data.draw(st.floats(0.01, v_max))
        cfg = ScenarioConfig(area=(side, side), v_max=v_max,
                             min_speed=min_speed)
        n = data.draw(st.integers(1, 12))
        point = st.tuples(st.floats(0.0, side), st.floats(0.0, side))
        positions = data.draw(st.lists(point, min_size=n, max_size=n))
        waypoints = data.draw(st.lists(point, min_size=n, max_size=n))
        waypoints[0] = positions[0]
        speeds = data.draw(st.lists(st.floats(min_speed, v_max),
                                    min_size=n, max_size=n))
        headings = data.draw(st.lists(st.floats(0.0, 6.28), min_size=n,
                                      max_size=n))
        dt = data.draw(st.floats(0.001, 3.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        nodes = make_nodes(positions, speeds, headings, waypoints)
        expected = copy_nodes(nodes)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        advance(nodes, dt, cfg, rng)
        advance_oracle(expected, dt, cfg, oracle_rng)
        assert bits(nodes) == bits(expected)
        assert rng.getstate() == oracle_rng.getstate()

    def test_matches_the_per_node_loop_over_a_run(self):
        # coordinates as a run makes them: np.hypot would round about 0.6 %
        # of these distances differently from math.hypot
        cfg = ScenarioConfig(node_count=100, v_max=50.0)
        rng, oracle_rng = random.Random(3), random.Random(3)
        nodes = init_mobility(cfg, rng)
        expected = init_mobility(cfg, oracle_rng)
        for _ in range(100):
            advance(nodes, cfg.tick, cfg, rng)
            advance_oracle(expected, cfg.tick, cfg, oracle_rng)
            assert bits(nodes) == bits(expected)
        assert rng.getstate() == oracle_rng.getstate()

    def test_double_arrival_and_node_on_its_waypoint(self):
        # every leg in a 1 m square is shorter than 1.5 m, and a step of
        # 0.1 s at 40 m/s or more covers 4 m: both nodes arrive at least
        # twice, node 0 first of all at distance 0
        cfg = ScenarioConfig(area=(1.0, 1.0), v_max=50.0, min_speed=40.0)
        nodes = make_nodes([(0.5, 0.5), (0.2, 0.7)], speed=45.0,
                           waypoints=[(0.5, 0.5), (0.9, 0.1)])
        expected = copy_nodes(nodes)
        rng, oracle_rng = _CountingRandom(9), _CountingRandom(9)
        advance(nodes, 0.1, cfg, rng)
        advance_oracle(expected, 0.1, cfg, oracle_rng)
        assert rng.draws >= 2 * 2 * 3
        assert bits(nodes) == bits(expected)
        assert rng.getstate() == oracle_rng.getstate()


def kinematics(nodes):
    """Per node, the (x, y, speed, heading) a trace row holds."""
    return list(zip(nodes.x.tolist(), nodes.y.tolist(), nodes.speed.tolist(),
                    nodes.heading.tolist()))


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(node_count=5)
        rng = random.Random(11)
        nodes = init_mobility(cfg, rng)
        path = tmp_path / "trace.csv"
        writer = TraceWriter(path)
        recorded = []
        for k in range(10):
            writer.record(k * cfg.tick, nodes)
            recorded.append(kinematics(nodes))
            advance(nodes, cfg.tick, cfg, rng)
        writer.close()

        trace = Trace.load(path)
        assert trace.node_count == 5
        assert len(trace.rows) == 10
        for k, row in enumerate(trace.rows):
            assert row == recorded[k]

    def test_apply_overwrites_kinematics(self, tmp_path):
        cfg = ScenarioConfig(node_count=3)
        nodes = init_mobility(cfg, random.Random(1))
        path = tmp_path / "trace.csv"
        writer = TraceWriter(path)
        writer.record(0.0, nodes)
        writer.close()
        other = init_mobility(cfg, random.Random(2))
        waypoints = other.wx.copy(), other.wy.copy()
        Trace.load(path).apply(0, other)
        assert kinematics(other) == kinematics(nodes)
        assert (other.wx == waypoints[0]).all()
        assert (other.wy == waypoints[1]).all()

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            Trace.load(path)

    def test_rejects_node_rows_out_of_order(self, tmp_path):
        cfg = ScenarioConfig(node_count=3)
        nodes = init_mobility(cfg, random.Random(1))
        path = tmp_path / "trace.csv"
        writer = TraceWriter(path)
        for k in range(2):
            writer.record(k * cfg.tick, nodes)
        writer.close()
        header, *rows = path.read_text().splitlines()
        rows[3], rows[4] = rows[4], rows[3]  # nodes 0 and 1 of the 2nd tick
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:5: node rows out of order at t=")):
            Trace.load(path)

    def test_rejects_ticks_with_other_node_counts(self, tmp_path):
        # a middle tick and the last tick each missing their last node row
        cfg = ScenarioConfig(node_count=3)
        nodes = init_mobility(cfg, random.Random(1))
        fewer = Nodes(*(a[:-1] for a in dataclasses.astuple(nodes)))
        for missing_at in (1, 2):
            path = tmp_path / f"ragged{missing_at}.csv"
            writer = TraceWriter(path)
            for k in range(3):
                writer.record(k * cfg.tick,
                              fewer if k == missing_at else nodes)
            writer.close()
            with pytest.raises(ConfigError, match="has 2 node rows, not 3"):
                Trace.load(path)
