"""Random waypoint motion and link expiration time prediction."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.config import ConfigError, ScenarioConfig
from manetsim.mobility import (NodeState, Trace, TraceWriter, advance,
                               init_mobility)


def make_node(nid, pos, speed, heading):
    return NodeState(id=nid, pos=pos, speed=speed, heading=heading,
                     waypoint=pos)


def velocity(node):
    return (node.speed * math.cos(node.heading),
            node.speed * math.sin(node.heading))


def link_expiration_time(i: NodeState, j: NodeState, r: float) -> float:
    """Predicted time until nodes i and j move out of range r: the scalar
    oracle for TopologySnapshot.let.

    Assumes both keep their current velocity. Returns math.inf when the
    relative velocity is zero. The pair must currently be within range.
    """
    b = i.pos[0] - j.pos[0]
    d = i.pos[1] - j.pos[1]
    if b * b + d * d > r * r * (1.0 + 1e-12):
        raise ValueError(f"nodes {i.id} and {j.id} are not neighbors")
    vxi, vyi = velocity(i)
    vxj, vyj = velocity(j)
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


def stepping_let_oracle(i, j, r, step=1e-3, horizon=4000.0):
    """Advance both nodes at constant velocity in 1 ms steps; return the
    first time their distance exceeds r, or horizon if they stay in range.

    Evaluated in chunks with numpy purely for speed; the check is still a
    plain step-by-step scan.
    """
    vxi, vyi = velocity(i)
    vxj, vyj = velocity(j)
    dx0 = i.pos[0] - j.pos[0]
    dy0 = i.pos[1] - j.pos[1]
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


class TestLinkExpirationTime:
    def test_moving_towards_then_past(self):
        # closing at 10 m/s from 100 m apart: |10t - 100| = 250 at t = 35
        i = make_node(0, (0.0, 0.0), 10.0, 0.0)
        j = make_node(1, (100.0, 0.0), 0.0, 0.0)
        assert link_expiration_time(i, j, 250.0) == pytest.approx(35.0)

    def test_receding_neighbor(self):
        # gap grows from 100 m at 10 m/s: 100 + 10t = 250 at t = 15
        i = make_node(0, (0.0, 0.0), 0.0, 0.0)
        j = make_node(1, (100.0, 0.0), 10.0, 0.0)
        assert link_expiration_time(i, j, 250.0) == pytest.approx(15.0)

    def test_zero_relative_velocity_is_infinite(self):
        i = make_node(0, (0.0, 0.0), 7.0, 1.0)
        j = make_node(1, (100.0, 0.0), 7.0, 1.0)
        assert link_expiration_time(i, j, 250.0) == math.inf

    def test_both_stationary_is_infinite(self):
        i = make_node(0, (0.0, 0.0), 0.0, 0.0)
        j = make_node(1, (10.0, 10.0), 0.0, 0.0)
        assert link_expiration_time(i, j, 250.0) == math.inf

    def test_out_of_range_pair_rejected(self):
        i = make_node(0, (0.0, 0.0), 1.0, 0.0)
        j = make_node(1, (0.0, 250.02), 1.0, 0.0)
        with pytest.raises(ValueError):
            link_expiration_time(i, j, 250.0)

    def test_symmetric_in_arguments(self):
        rng = random.Random(7)
        for _ in range(50):
            i, j = _random_in_range_pair(rng, r=250.0)
            assert link_expiration_time(i, j, 250.0) == pytest.approx(
                link_expiration_time(j, i, 250.0))

    def test_stepping_oracle_agreement(self):
        # 1000 random in-range pairs vs a 1 ms brute-force stepper
        rng = random.Random(20240811)
        horizon = 4000.0
        for _ in range(1000):
            i, j = _random_in_range_pair(rng, r=250.0)
            predicted = link_expiration_time(i, j, 250.0)
            observed = stepping_let_oracle(i, j, 250.0, horizon=horizon)
            if predicted >= horizon:
                assert observed == horizon
            else:
                assert abs(predicted - observed) <= 0.01

    def test_boundary_consistency(self):
        # still in range just before the predicted expiry, out just after
        rng = random.Random(99)
        delta = 0.01
        checked = 0
        while checked < 200:
            i, j = _random_in_range_pair(rng, r=250.0)
            let = link_expiration_time(i, j, 250.0)
            if not delta < let < 1e6:
                continue
            checked += 1
            assert _distance_at(i, j, let - delta) <= 250.0
            assert _distance_at(i, j, let + delta) > 250.0


def _random_in_range_pair(rng, r):
    x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
    angle = rng.uniform(0, 2 * math.pi)
    dist = rng.uniform(0, r)
    i = make_node(0, (x, y), rng.uniform(0, 50),
                  rng.uniform(0, 2 * math.pi))
    j = make_node(1, (x + dist * math.cos(angle), y + dist * math.sin(angle)),
                  rng.uniform(0, 50), rng.uniform(0, 2 * math.pi))
    return i, j


def _distance_at(i, j, t):
    vxi, vyi = velocity(i)
    vxj, vyj = velocity(j)
    dx = (i.pos[0] + vxi * t) - (j.pos[0] + vxj * t)
    dy = (i.pos[1] + vyi * t) - (j.pos[1] + vyj * t)
    return math.hypot(dx, dy)


class TestInitMobility:
    def test_positions_within_area(self):
        cfg = ScenarioConfig(node_count=50, area=(1000.0, 1000.0))
        states = init_mobility(cfg, random.Random(1))
        assert len(states) == 50
        for s in states:
            assert 0.0 <= s.pos[0] <= 1000.0
            assert 0.0 <= s.pos[1] <= 1000.0
            assert 0.0 <= s.waypoint[0] <= 1000.0
            assert 0.0 <= s.waypoint[1] <= 1000.0

    def test_speeds_and_headings_in_range(self):
        cfg = ScenarioConfig(v_max=20.0)
        states = init_mobility(cfg, random.Random(2))
        for s in states:
            assert cfg.min_speed < s.speed <= cfg.v_max
            assert 0.0 <= s.heading < 2 * math.pi

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
        assert a == b


class _ZeroRng:
    """Stand-in rng whose uniform always returns the low endpoint."""

    def uniform(self, lo, hi):
        return lo


class TestAdvance:
    def test_straight_line_step(self):
        cfg = ScenarioConfig()
        node = make_node(0, (0.0, 0.0), 10.0, 0.0)
        node.waypoint = (100.0, 0.0)
        advance([node], 1.0, cfg, random.Random(1))
        assert node.pos == pytest.approx((10.0, 0.0))

    def test_waypoint_arrival_splits_the_step(self):
        # reaches (5, 0) at t=0.5; _ZeroRng redraws waypoint (0,0) and speed
        # v_max, so the remaining 0.5 s covers 5 m back: two 5 m segments.
        cfg = ScenarioConfig(v_max=10.0)
        node = make_node(0, (0.0, 0.0), 10.0, 0.0)
        node.waypoint = (5.0, 0.0)
        advance([node], 1.0, cfg, _ZeroRng())
        assert node.speed == pytest.approx(10.0)
        assert node.pos == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_step_splitting_equivalence(self):
        # four 0.25 s steps equal one 1.0 s step when no waypoint is reached
        cfg = ScenarioConfig()
        a = make_node(0, (0.0, 0.0), 10.0, 0.0)
        a.waypoint = (1000.0, 0.0)
        b = make_node(0, (0.0, 0.0), 10.0, 0.0)
        b.waypoint = (1000.0, 0.0)
        advance([a], 1.0, cfg, random.Random(1))
        for _ in range(4):
            advance([b], 0.25, cfg, random.Random(1))
        assert a.pos[0] == pytest.approx(b.pos[0], abs=1e-9)
        assert a.pos[1] == pytest.approx(b.pos[1], abs=1e-9)

    def test_nonpositive_dt_rejected(self):
        cfg = ScenarioConfig()
        states = init_mobility(cfg, random.Random(1))
        with pytest.raises(ValueError):
            advance(states, 0.0, cfg, random.Random(1))
        with pytest.raises(ValueError):
            advance(states, -0.1, cfg, random.Random(1))

    def test_kinematic_bound_and_area_containment(self):
        cfg = ScenarioConfig(v_max=50.0, node_count=20)
        rng = random.Random(5)
        states = init_mobility(cfg, rng)
        for _ in range(500):
            before = [s.pos for s in states]
            advance(states, cfg.tick, cfg, rng)
            for s, old in zip(states, before):
                moved = math.hypot(s.pos[0] - old[0], s.pos[1] - old[1])
                assert moved <= cfg.v_max * cfg.tick + 1e-9
                assert 0.0 <= s.pos[0] <= 1000.0
                assert 0.0 <= s.pos[1] <= 1000.0
                assert cfg.min_speed < s.speed <= cfg.v_max
                assert 0.0 <= s.heading < 2 * math.pi

    def test_deterministic_trajectories(self):
        cfg = ScenarioConfig(node_count=10)
        a = init_mobility(cfg, random.Random(3))
        b = init_mobility(cfg, random.Random(3))
        rng_a, rng_b = random.Random(4), random.Random(4)
        for _ in range(100):
            advance(a, cfg.tick, cfg, rng_a)
            advance(b, cfg.tick, cfg, rng_b)
        assert a == b

    @given(speed=st.floats(0.02, 50.0), dt=st.floats(0.001, 2.0),
           heading=st.floats(0.0, 2 * math.pi - 1e-9))
    @settings(max_examples=100, deadline=None)
    def test_displacement_never_exceeds_path_budget(self, speed, dt, heading):
        cfg = ScenarioConfig(v_max=50.0)
        node = make_node(0, (500.0, 500.0), speed, heading)
        node.waypoint = (500.0 + 400.0 * math.cos(heading),
                         500.0 + 400.0 * math.sin(heading))
        advance([node], dt, cfg, random.Random(0))
        moved = math.hypot(node.pos[0] - 500.0, node.pos[1] - 500.0)
        assert moved <= cfg.v_max * dt * (1 + 1e-9)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(node_count=5)
        rng = random.Random(11)
        states = init_mobility(cfg, rng)
        path = tmp_path / "trace.csv"
        writer = TraceWriter(path)
        recorded = []
        for k in range(10):
            writer.record(k * cfg.tick, states)
            recorded.append([(s.pos[0], s.pos[1], s.speed, s.heading)
                             for s in states])
            advance(states, cfg.tick, cfg, rng)
        writer.close()

        trace = Trace.load(path)
        assert trace.node_count == 5
        assert len(trace.rows) == 10
        for k, row in enumerate(trace.rows):
            assert row == recorded[k]

    def test_apply_overwrites_kinematics(self, tmp_path):
        cfg = ScenarioConfig(node_count=3)
        states = init_mobility(cfg, random.Random(1))
        path = tmp_path / "trace.csv"
        writer = TraceWriter(path)
        writer.record(0.0, states)
        writer.close()
        other = init_mobility(cfg, random.Random(2))
        Trace.load(path).apply(0, other)
        for a, b in zip(states, other):
            assert a.pos == b.pos
            assert a.speed == b.speed
            assert a.heading == b.heading

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            Trace.load(path)

    def test_rejects_ticks_with_other_node_counts(self, tmp_path):
        # a middle tick and the last tick each missing their last node row
        cfg = ScenarioConfig(node_count=3)
        states = init_mobility(cfg, random.Random(1))
        for missing_at in (1, 2):
            path = tmp_path / f"ragged{missing_at}.csv"
            writer = TraceWriter(path)
            for k in range(3):
                writer.record(k * cfg.tick,
                              states[:-1] if k == missing_at else states)
            writer.close()
            with pytest.raises(ConfigError, match="has 2 node rows, not 3"):
                Trace.load(path)
